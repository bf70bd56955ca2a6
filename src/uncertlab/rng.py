"""Deterministic random streams.

All randomness in the package flows through ``substream(seed, stream)``:
a numpy ``Generator`` backed by the counter-based Philox bit generator,
keyed by ``SeedSequence(seed, spawn_key=(stream,))``. Distinct stream
indices give disjoint substreams: Monte Carlo chunk i draws from stream i
(advanced past earlier blocks where a worker starts inside the chunk),
``vi.optimize`` all training steps from stream 0 (a block of steps per
call), ``verify`` its data from stream 1. ``numpy.random`` loads on the
first call: conformity, predict, taylor and analytic runs never load it.
"""

import numpy as np


def substream(seed: int, stream: int = 0) -> "np.random.Generator":
    """Return the deterministic generator for (seed, stream)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if stream < 0:
        raise ValueError(f"stream index must be non-negative, got {stream}")
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))
