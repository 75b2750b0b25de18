"""The one Newton iteration behind the three block fits: the propensity
MLE, the pairwise outcome model and the pairwise treatment block."""

from typing import NamedTuple

import numpy as np


class NewtonFit(NamedTuple):
    """The accepted iterate, the Newton steps taken to reach it, and its
    score norm."""

    x: np.ndarray
    iterations: int
    score_norm: float


def newton(evaluate, x, tol, max_iter, error, singular, final_tol=None,
           advance=None):
    """Solve score(x) = 0 by full Newton steps from x.

    Each cycle evaluates evaluate(x) -> (score, information, norm), judges
    x by its norm, solves information @ step = score and moves to x + step.
    x is accepted when norm <= tol. The last cycle, after max_iter steps or
    after a step that advance reports as stalled, accepts norm <= final_tol
    (tol when None) instead, and otherwise raises error. A singular
    information matrix raises singular. Both are called with the keywords
    last_iterate, residual and iterations, so the iterate an exception
    reports is the one its residual was judged at. advance(x, step) ->
    (next x, stalled) replaces the full step for a caller that damps it.
    """
    final_tol = tol if final_tol is None else final_tol
    last = False
    for it in range(max_iter + 1):
        score, info, norm = evaluate(x)
        last = last or it == max_iter
        if norm <= (final_tol if last else tol):
            return NewtonFit(x, it, norm)
        if last:
            raise error(last_iterate=x, residual=norm, iterations=max_iter)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise singular(last_iterate=x, residual=norm,
                           iterations=it + 1) from None
        if advance is None:
            x = x + step
        else:
            x, last = advance(x, step)
