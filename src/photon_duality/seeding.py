"""Deterministic random streams for reproducible simulations.

All sampling in this package draws from numpy's ``default_rng`` (PCG64).
Independent stages and measurement settings never share a stream: each gets
a sub-seed derived by mixing an integer key path into the master seed with
``numpy.random.SeedSequence`` spawn keys.  The derivation is pure arithmetic,
so identical (master, key) pairs give identical streams on every platform,
and stages may run concurrently without changing any result.
"""

from __future__ import annotations

import numpy as np

from .states import _check_count

MAX_SEED = 2**64


def check_seed(seed: int) -> int:
    """Validate a master seed: an integer in [0, 2**64); a bool, float or NaN raises."""
    if type(seed) is not int:  # the derived seeds of every stage skip the slower check
        seed = _check_count(seed, "seed", 0)
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def derive_seed(master: int, *key: int) -> int:
    """Deterministic 64-bit sub-seed for the stage identified by ``key``."""
    ss = np.random.SeedSequence(entropy=check_seed(master), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for one (sub-)seed."""
    return np.random.default_rng(check_seed(seed))
