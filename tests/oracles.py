"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written with plain Python loops and the
math module so it shares no code path with the package's vectorized
internals.
"""

import math


def ind(a, b, ties=False):
    if ties:
        return (1.0 if a < b else 0.0) + (0.5 if a == b else 0.0)
    return 1.0 if a <= b else 0.0


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_ppf(p, lo=-12.0, hi=12.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def inv_logit(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def brute_mww(z, y, ties=False):
    num, cnt = 0.0, 0
    for i in range(len(z)):
        for j in range(len(z)):
            if z[i] == 1 and z[j] == 0:
                num += ind(y[i], y[j], ties)
                cnt += 1
    return num / cnt


def brute_ipw(z, y, pi, ties=False, hajek=False):
    n = len(z)
    total, wsum = 0.0, 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            wij = z[i] * (1 - z[j]) / (pi[i] * (1.0 - pi[j]))
            wji = z[j] * (1 - z[i]) / (pi[j] * (1.0 - pi[i]))
            total += 0.5 * (wij * ind(y[i], y[j], ties) + wji * ind(y[j], y[i], ties))
            wsum += 0.5 * (wij + wji)
    if hajek:
        return total / wsum
    return total / (n * (n - 1) / 2.0)


def brute_msi(z, y, gfun, ties=False):
    """gfun(i, j) models P(i's treated outcome <= j's control outcome)."""
    n = len(z)
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            rij = z[i] * (1 - z[j])
            rji = z[j] * (1 - z[i])
            total += 0.5 * (rij * ind(y[i], y[j], ties) + (1 - rij) * gfun(i, j))
            total += 0.5 * (rji * ind(y[j], y[i], ties) + (1 - rji) * gfun(j, i))
    return total / (n * (n - 1) / 2.0)


def brute_dr(z, y, pi, gfun, ties=False):
    n = len(z)
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            wij = z[i] * (1 - z[j]) / (pi[i] * (1.0 - pi[j]))
            wji = z[j] * (1 - z[i]) / (pi[j] * (1.0 - pi[i]))
            total += 0.5 * (wij * ind(y[i], y[j], ties) + (1.0 - wij) * gfun(i, j))
            total += 0.5 * (wji * ind(y[j], y[i], ties) + (1.0 - wji) * gfun(j, i))
    return total / (n * (n - 1) / 2.0)


def _pi_of(eta, w_row, intercept_only, clip_eps=1e-6):
    if intercept_only:
        lin = eta[0]
    else:
        lin = eta[0] + sum(e * v for e, v in zip(eta[1:], w_row))
    return min(max(inv_logit(lin), clip_eps), 1.0 - clip_eps)


def _g_of(gamma, w_first, w_second, link, constant_only):
    if constant_only:
        a = gamma[0]
    else:
        p = len(w_first)
        a = gamma[0] + sum(g * v for g, v in zip(gamma[1:1 + p], w_first)) \
            + sum(g * v for g, v in zip(gamma[1 + p:], w_second))
    val = normal_cdf(a) if link == "probit" else inv_logit(a)
    return min(max(val, 1e-12), 1.0 - 1e-12), a


def _dg_of(a, link):
    if link == "probit":
        return normal_pdf(a)
    p = inv_logit(a)
    return p * (1.0 - p)


def _pair_scores(z, y, w, theta, family, link, intercept_only, constant_only,
                 ties, weighted_delta, clip_eps):
    """(q, scores): the stacked system's length and, for every unordered
    pair (i, j) in one explicit loop, (i, j, its stacked estimating-function
    terms). Parameter order matches the package: (eta block | gamma block |
    delta)."""
    n = len(z)
    p = len(w[0]) if w and len(w[0]) else 0
    eta_dim = (1 if (intercept_only or p == 0) else 1 + p) if family in ("dr", "ipw") else 0
    gamma_dim = (1 if (constant_only or p == 0) else 1 + 2 * p) if family in ("dr", "msi") else 0
    q = eta_dim + gamma_dim + 1
    eta = theta[:eta_dim]
    gamma = theta[eta_dim:eta_dim + gamma_dim]
    delta = theta[-1]

    def scores():
        for i in range(n - 1):
            for j in range(i + 1, n):
                U = [0.0] * q
                if eta_dim:
                    pi_i = _pi_of(eta, w[i], intercept_only, clip_eps)
                    pi_j = _pi_of(eta, w[j], intercept_only, clip_eps)
                    x_i = [1.0] if (intercept_only or p == 0) else [1.0, *w[i]]
                    x_j = [1.0] if (intercept_only or p == 0) else [1.0, *w[j]]
                    f1 = 0.5 * (z[i] + z[j])
                    h1 = 0.5 * (pi_i + pi_j)
                    V1 = 0.25 * (pi_i * (1 - pi_i) + pi_j * (1 - pi_j))
                    d1 = [0.5 * (pi_i * (1 - pi_i) * a + pi_j * (1 - pi_j) * b)
                          for a, b in zip(x_i, x_j)]
                    for k in range(eta_dim):
                        U[k] = d1[k] * (f1 - h1) / V1
                if gamma_dim:
                    g_ij, a_ij = _g_of(gamma, w[i], w[j], link, constant_only or p == 0)
                    g_ji, a_ji = _g_of(gamma, w[j], w[i], link, constant_only or p == 0)
                    if z[i] != z[j]:
                        t, c = (i, j) if z[i] == 1 else (j, i)
                        g_obs, a_obs = (g_ij, a_ij) if z[i] == 1 else (g_ji, a_ji)
                        resid = ind(y[t], y[c], ties) - g_obs
                        u = [1.0] if (constant_only or p == 0) else [1.0, *w[t], *w[c]]
                        dg = _dg_of(a_obs, link)
                        v = g_obs * (1.0 - g_obs)
                        for k in range(gamma_dim):
                            U[eta_dim + k] = dg * u[k] * resid / v

                rij = z[i] * (1 - z[j])
                rji = z[j] * (1 - z[i])
                if family == "ipw":
                    pt_ij = pi_i * (1 - pi_j)
                    pt_ji = pi_j * (1 - pi_i)
                    f3 = 0.5 * (rij / pt_ij * ind(y[i], y[j], ties)
                                + rji / pt_ji * ind(y[j], y[i], ties))
                    wdel = 1.0
                elif family == "msi":
                    f3 = 0.5 * (rij * ind(y[i], y[j], ties) + (1 - rij) * g_ij
                                + rji * ind(y[j], y[i], ties) + (1 - rji) * g_ji)
                    wdel = 1.0
                else:
                    pt_ij = pi_i * (1 - pi_j)
                    pt_ji = pi_j * (1 - pi_i)
                    f3 = 0.5 * (rij / pt_ij * ind(y[i], y[j], ties)
                                + (1.0 - rij / pt_ij) * g_ij
                                + rji / pt_ji * ind(y[j], y[i], ties)
                                + (1.0 - rji / pt_ji) * g_ji)
                    V3 = 0.25 * (g_ij * (1 - g_ij) / pt_ij + g_ji * (1 - g_ji) / pt_ji)
                    wdel = 1.0 / V3 if weighted_delta else 1.0
                U[q - 1] = wdel * (f3 - delta)
                yield i, j, U

    return q, scores()


def brute_ugee_residual(z, y, w, theta, family="dr", link="probit",
                        intercept_only=False, constant_only=False,
                        ties=False, weighted_delta=True, clip_eps=1e-6):
    """Stacked estimating function, the sum of the pair terms of
    _pair_scores, normalized by the pair count."""
    q, scores = _pair_scores(z, y, w, theta, family, link, intercept_only,
                             constant_only, ties, weighted_delta, clip_eps)
    U = [0.0] * q
    for _, _, terms in scores:
        for k in range(q):
            U[k] += terms[k]
    npairs = len(z) * (len(z) - 1) / 2.0
    return [u / npairs for u in U]


def brute_projections(z, y, w, theta, family="dr", link="probit",
                      intercept_only=False, constant_only=False, ties=False,
                      weighted_delta=True, clip_eps=1e-6):
    """Each subject's average pair score over its n - 1 partners: the rows
    of the sandwich's per-subject projections, in the package's parameter
    order, from the pair terms of _pair_scores."""
    n = len(z)
    q, scores = _pair_scores(z, y, w, theta, family, link, intercept_only,
                             constant_only, ties, weighted_delta, clip_eps)
    proj = [[0.0] * q for _ in range(n)]
    for i, j, terms in scores:
        for k in range(q):
            proj[i][k] += terms[k]
            proj[j][k] += terms[k]
    return [[v / (n - 1) for v in row] for row in proj]


def _dpi_factor(pi, clip_eps):
    """dpi/dlinear predictor: pi (1 - pi), and 0 at a clipped propensity,
    which is held at the bound."""
    return 0.0 if pi <= clip_eps or pi >= 1.0 - clip_eps else pi * (1.0 - pi)


def brute_bread(z, y, w, theta, family="dr", link="probit",
                intercept_only=False, constant_only=False, ties=False,
                weighted_delta=True, clip_eps=1e-6):
    """Pair-averaged expected Jacobian of the stacked system: one explicit
    loop over unordered pairs of D' V^-1 dS/dtheta, divided by the pair
    count. D holds the weights of the residual rows (the gradient of h1 in
    eta taken at pi(1 - pi) for every subject, the observed orientation's
    gradient of g in gamma, 1 for delta), V the working variances (V1,
    g(1 - g), and V3 or 1 for the delta row), and S = f - h the residual
    rows, whose derivatives hold a clipped propensity fixed."""
    n = len(z)
    p = len(w[0]) if w and len(w[0]) else 0
    const = constant_only or p == 0
    eta_dim = (1 if (intercept_only or p == 0) else 1 + p) if family in ("dr", "ipw") else 0
    gamma_dim = (1 if const else 1 + 2 * p) if family in ("dr", "msi") else 0
    q = eta_dim + gamma_dim + 1
    eta = theta[:eta_dim]
    gamma = theta[eta_dim:eta_dim + gamma_dim]
    es = range(eta_dim)
    gs = range(eta_dim, eta_dim + gamma_dim)

    def x_of(k):
        return [1.0] if (intercept_only or p == 0) else [1.0, *w[k]]

    def u_of(a, b):
        return [1.0] if const else [1.0, *w[a], *w[b]]

    B = [[0.0] * q for _ in range(q)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            k_ij, k_ji = ind(y[i], y[j], ties), ind(y[j], y[i], ties)
            rij, rji = z[i] * (1 - z[j]), z[j] * (1 - z[i])
            dS3 = [0.0] * q
            dS3[q - 1] = -1.0
            if eta_dim:
                pi_i = _pi_of(eta, w[i], intercept_only, clip_eps)
                pi_j = _pi_of(eta, w[j], intercept_only, clip_eps)
                pp_i, pp_j = pi_i * (1 - pi_i), pi_j * (1 - pi_j)
                dp_i, dp_j = _dpi_factor(pi_i, clip_eps), _dpi_factor(pi_j, clip_eps)
                x_i, x_j = x_of(i), x_of(j)
                d1 = [0.5 * (pp_i * a + pp_j * b) for a, b in zip(x_i, x_j)]
                dh1 = [0.5 * (dp_i * a + dp_j * b) for a, b in zip(x_i, x_j)]
                V1 = 0.25 * (pp_i + pp_j)
                for a in es:
                    for b in es:
                        B[a][b] -= d1[a] * dh1[b] / V1
                pt_ij, pt_ji = pi_i * (1 - pi_j), pi_j * (1 - pi_i)
                dpt_ij = [dp_i * (1 - pi_j) * a - pi_i * dp_j * b
                          for a, b in zip(x_i, x_j)]
                dpt_ji = [dp_j * (1 - pi_i) * b - pi_j * dp_i * a
                          for a, b in zip(x_i, x_j)]
            if gamma_dim:
                u_ij, u_ji = u_of(i, j), u_of(j, i)
                g_ij, a_ij = _g_of(gamma, w[i], w[j], link, const)
                g_ji, a_ji = _g_of(gamma, w[j], w[i], link, const)
                dg_ij, dg_ji = _dg_of(a_ij, link), _dg_of(a_ji, link)
                if z[i] != z[j]:
                    g, dg, u = (g_ij, dg_ij, u_ij) if z[i] == 1 else (g_ji, dg_ji, u_ji)
                    for a in range(gamma_dim):
                        for b in range(gamma_dim):
                            B[gs[a]][gs[b]] -= dg * u[a] * dg * u[b] / (g * (1 - g))
            wdel = 1.0
            if family == "ipw":
                for a in es:
                    dS3[a] = -0.5 * (rij * k_ij / pt_ij ** 2 * dpt_ij[a]
                                     + rji * k_ji / pt_ji ** 2 * dpt_ji[a])
            elif family == "msi":
                for a in range(gamma_dim):
                    dS3[gs[a]] = 0.5 * ((1 - rij) * dg_ij * u_ij[a]
                                        + (1 - rji) * dg_ji * u_ji[a])
            else:
                for a in es:
                    dS3[a] = -0.5 * (rij * (k_ij - g_ij) / pt_ij ** 2 * dpt_ij[a]
                                     + rji * (k_ji - g_ji) / pt_ji ** 2 * dpt_ji[a])
                for a in range(gamma_dim):
                    dS3[gs[a]] = 0.5 * ((1 - rij / pt_ij) * dg_ij * u_ij[a]
                                        + (1 - rji / pt_ji) * dg_ji * u_ji[a])
                if weighted_delta:
                    wdel = 1.0 / (0.25 * (g_ij * (1 - g_ij) / pt_ij
                                          + g_ji * (1 - g_ji) / pt_ji))
            for b in range(q):
                B[q - 1][b] += wdel * dS3[b]
    npairs = n * (n - 1) / 2.0
    return [[v / npairs for v in row] for row in B]


def brute_eta_block(z, w, eta, intercept_only=False, clip_eps=1e-6):
    """Treatment block, one explicit loop over unordered pairs: the score
    sum d1 V1^-1 (f1 - h1), the expected Jacobian -sum d1 V1^-1 dh1', and
    each subject's sum of its pair scores. The weight d1 takes pi(1 - pi)
    at every subject; the gradient dh1 of h1 holds a clipped propensity
    fixed."""
    n = len(z)
    k = len(eta)
    pi, x = [], []
    for i in range(n):
        x_i = [1.0] if intercept_only else [1.0, *w[i]]
        lin = sum(e * v for e, v in zip(eta, x_i))
        pi.append(min(max(inv_logit(lin), clip_eps), 1.0 - clip_eps))
        x.append(x_i)
    score = [0.0] * k
    jac = [[0.0] * k for _ in range(k)]
    proj = [[0.0] * k for _ in range(n)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            pp_i, pp_j = pi[i] * (1 - pi[i]), pi[j] * (1 - pi[j])
            f1 = 0.5 * (z[i] + z[j])
            h1 = 0.5 * (pi[i] + pi[j])
            V1 = 0.25 * (pp_i + pp_j)
            d1 = [0.5 * (pp_i * a + pp_j * b) for a, b in zip(x[i], x[j])]
            dp_i, dp_j = _dpi_factor(pi[i], clip_eps), _dpi_factor(pi[j], clip_eps)
            dh1 = [0.5 * (dp_i * a + dp_j * b) for a, b in zip(x[i], x[j])]
            for a in range(k):
                s = d1[a] * (f1 - h1) / V1
                score[a] += s
                proj[i][a] += s
                proj[j][a] += s
                for b in range(k):
                    jac[a][b] -= d1[a] * dh1[b] / V1
    return score, jac, proj
