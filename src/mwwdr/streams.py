"""Deterministic, counter-based random number streams.

A stream is identified by (seed, stream_id). Philox is counter-based, so
distinct stream_ids give statistically independent sequences and the draw
sequence for a given key is identical regardless of how many worker
processes or threads are running. Monte Carlo replications use
stream_id = rep_index (+ a high-bit offset for regeneration attempts), so
any replication can be reproduced in isolation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Key for one independent random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) <= _MASK64:
                raise ValidationError(f"{name} must be an unsigned 64-bit integer")

    def generator(self):
        """Fresh numpy Generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, offset):
        """Derived stream: same seed, stream_id shifted into a disjoint block."""
        return RngStream(self.seed, (self.stream_id + (int(offset) << 32)) & _MASK64)
