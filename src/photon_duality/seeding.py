"""Deterministic random streams for reproducible simulations.

The stream of key path ``key`` under a master seed is numpy's PCG64
``default_rng(derive_seed(master, *key))``, the key mixed into the master as
``numpy.random.SeedSequence`` spawn keys: stages never share a stream, and a
(master, key) pair gives one stream on every platform.  ``stream_rngs`` returns
those generators of many keys, bit for bit, from one pass of SeedSequence's own
arithmetic: the keys share the master's entropy words, so that pool is mixed
once, and the rest runs for all keys at once as 64-bit lanes of one Python int.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import chain
from numbers import Integral

import numpy as np

from .states import _check_count

MAX_SEED = 2**64
_M32 = 0xFFFFFFFF
# SeedSequence's hash (start, multiplier) pairs; its mix x * L - y * R as x * L + y * (2**32 - R).
_A, _B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 2**32 - 0x4973F715
_CROSS = [(src, dst) for src in range(4) for dst in range(4) if src != dst]


def check_seed(seed: int) -> int:
    """Validate a master seed: an integer in [0, 2**64); a bool, float or NaN raises."""
    if type(seed) is not int:  # a plain int, as every scenario seed is, skips the slower check
        seed = _check_count(seed, "seed", 0)
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _check_key(key, stream: bool = False) -> tuple[int, ...]:
    """``key`` as a tuple of ints >= 0, each one SeedSequence word (< 2**32) in a ``stream`` key."""
    ok = isinstance(key, tuple) and all(type(k) is int or isinstance(k, Integral) for k in key)
    if not ok or any(isinstance(k, bool) or k < 0 or stream and k >> 32 for k in key):
        raise ValueError(f"key {key!r} must hold integers >= 0" + " below 2**32" * stream)
    return tuple(map(int, key))


def derive_seed(master: int, *key: int) -> int:
    """Deterministic 64-bit sub-seed for the stage identified by ``key``."""
    ss = np.random.SeedSequence(entropy=check_seed(master), spawn_key=_check_key(key))
    return int(ss.generate_state(1, np.uint64)[0])


def stream_rngs(master: int, keys) -> list[np.random.Generator]:
    """``[np.random.default_rng(derive_seed(master, *key)) for key in keys]``,
    bit for bit, in one pass; a key is a tuple of ints in [0, 2**32), one word each."""
    keys = tuple(keys)  # keys of plain ints in range pass at once; the rest take the full check
    flat = list(chain.from_iterable(keys)) if set(map(type, keys)) <= {tuple} else [None]
    if set(map(type, flat)) - {int} or flat and not 0 <= min(flat) <= max(flat) <= _M32:
        keys = tuple(_check_key(key, stream=True) for key in keys)
    ones, m, lanes = _key_lanes(keys)
    # A key's entropy starts with the master's words zero-padded to 4, and SeedSequence(master)
    # hashes 0 for its missing words: its pool, 16 hashes in, is every key's start.
    pool = [int(p) * ones for p in np.random.SeedSequence(check_seed(master)).pool]
    for live, dead, hashes in lanes:
        pool = [_mix(p, h, m) & live | p & dead for p, h in zip(pool, hashes)]
    hc = list(_B)  # derive_seed's generate_state(1, uint64): each key's seed
    seed = [_hash(p, hc, ones, m) for p in pool[:2]]
    hc = list(_A)  # the SeedSequence pool of default_rng(seed)
    pool = [_hash(v, hc, ones, m) for v in (*seed, 0, 0)]
    for src, dst in _CROSS:
        pool[dst] = _mix(pool[dst], _hash(pool[src], hc, ones, m), m)
    hc = list(_B)  # its generate_state(4, uint64): PCG64's seed words
    w = [_hash(pool[i % 4], hc, ones, m) for i in range(8)]
    raw = b"".join((w[i] | w[i + 1] << 32).to_bytes(8 * len(keys), "little") for i in (0, 2, 4, 6))
    words = np.frombuffer(raw, np.uint64).reshape(4, -1).T.copy()  # key i's words: row i
    return [np.random.Generator(np.random.PCG64(_seed_words()(row))) for row in words]


@lru_cache(maxsize=8)
def _key_lanes(keys: tuple[tuple[int, ...], ...]) -> tuple:
    """``ones`` (1 in each 64-bit lane, lane i key i's), the lane mask and, per word j, the lanes of
    keys with one, the rest and j's 4 pool hashes; ``keys`` come checked, as (2, True) == (2, 1)."""
    ones = (1 << 64 * len(keys)) // ((1 << 64) - 1)
    m = _M32 * ones
    hc, lanes = [_A[0] * _A[1] ** 16 & _M32, _A[1]], []
    for j in range(max(map(len, keys), default=0)):
        word = sum(k[j] << 64 * i for i, k in enumerate(keys) if len(k) > j)
        live = sum(_M32 << 64 * i for i, k in enumerate(keys) if len(k) > j)
        lanes.append((live, ~live, tuple(_hash(word, hc, ones, m) for _ in range(4))))
    return ones, m, tuple(lanes)


def _hash(v: int, hc: list[int], ones: int, m: int) -> int:
    """numpy's hashmix of each uint32 lane of ``v``, advancing ``hc`` (constant, multiplier)."""
    c, hc[0] = hc[0], hc[0] * hc[1] & _M32
    v = (v ^ c * ones) * hc[0] & m
    return (v ^ v >> 16) & m


def _mix(x: int, y: int, m: int) -> int:
    r = ((x * _MIX_L & m) + y * _MIX_R) & m  # no lane carries: each sum is below 2**64
    return (r ^ r >> 16) & m


@cache
def _seed_words():
    """An ``ISeedSequence`` of PCG64's seed words, made on first use: import skips numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("these words seed PCG64 only: generate_state(4, np.uint64)")
            return self.words

    return SeedWords
