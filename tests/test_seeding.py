"""Seed derivation: ``stream_rngs`` against numpy's own SeedSequence path."""

import os
import subprocess
import sys

import numpy as np
import pytest

import photon_duality
from photon_duality import derive_seed, stream_rngs
from photon_duality.pipeline import _STREAM_KEYS

EDGE_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
P = np.full(4, 0.25)


def reference(master, key):
    return np.random.default_rng(derive_seed(master, *key))


def random_keys(rng, n):
    """``n`` keys of 1 to 3 words, edge words 0 and 2**32 - 1 included."""
    words = rng.integers(0, 2**32, size=(n, 3), dtype=np.uint64)
    words[::7, 0], words[3::7, -1] = 0, 2**32 - 1
    return [tuple(int(w) for w in row[: 1 + i % 3]) for i, row in enumerate(words)]


class TestStreamRngs:
    def test_matches_numpy_on_thousands_of_streams(self):
        rng = np.random.default_rng(2026)
        masters = EDGE_MASTERS + [int(m) for m in rng.integers(0, 2**64, 20, dtype=np.uint64)]
        streams = 0
        for master in masters:
            key_sets = [list(_STREAM_KEYS), [(0,)], [(2, 14)], [()] + random_keys(rng, 179)]
            for keys in key_sets:
                for key, gen in zip(keys, stream_rngs(master, keys), strict=True):
                    ref = reference(master, key)
                    assert gen.bit_generator.state == ref.bit_generator.state, (master, key)
                    assert np.array_equal(gen.multinomial(4000, P), ref.multinomial(4000, P))
                    streams += 1
        assert streams >= 5000

    def test_pipeline_keys_mix_one_and_two_words(self):
        assert {len(key) for key in _STREAM_KEYS} == {1, 2} and len(_STREAM_KEYS) == 18

    def test_each_call_starts_fresh_streams(self):
        a, b = stream_rngs(7, [(1, 0)]), stream_rngs(7, [(1, 0)])
        assert a[0] is not b[0] and a[0].random() == b[0].random()

    def test_numpy_integer_keys_accepted(self):
        (gen,) = stream_rngs(np.uint64(5), [(np.int64(2), np.uint32(3))])
        assert gen.bit_generator.state == reference(5, (2, 3)).bit_generator.state

    def test_no_keys_no_streams(self):
        assert stream_rngs(5, []) == []

    def test_seed_words_seed_pcg64_only(self):
        (gen,) = stream_rngs(5, [(0,)])
        with pytest.raises(ValueError, match="seed PCG64 only"):
            gen.bit_generator.seed_seq.generate_state(8)


BAD_ELEMENTS = [True, np.True_, 1.5, 1.0, np.float64(1.0), -1, "1", None]
ELEMENT_IDS = ["bool", "numpy-bool", "fraction", "float", "numpy-float", "negative", "str", "none"]


class TestKeyValidation:
    @pytest.mark.parametrize("bad", BAD_ELEMENTS, ids=ELEMENT_IDS)
    def test_derive_seed_rejects(self, bad):
        # int(k) once read 1.5 and True as 1, and -1 met numpy's bare error.
        with pytest.raises(ValueError, match=r"^key \(2, .*\) must hold integers >= 0$"):
            derive_seed(1, 2, bad)

    @pytest.mark.parametrize("bad", BAD_ELEMENTS + [2**32, 2**64], ids=ELEMENT_IDS + ["2^32", "2^64"])
    def test_stream_rngs_rejects(self, bad):
        # An element of 2**32 or more takes two SeedSequence words.
        with pytest.raises(ValueError, match=r"^key \(2, .*\) must hold integers >= 0 below 2\*\*32$"):
            stream_rngs(1, [(0,), (2, bad)])

    @pytest.mark.parametrize("key", [5, "ab", None, [1, 2]], ids=["int", "str", "none", "list"])
    def test_stream_key_is_a_tuple(self, key):
        with pytest.raises(ValueError, match="must hold integers"):
            stream_rngs(1, [key])

    def test_a_cached_key_tuple_is_still_checked(self):
        # (2, True) hashes and compares equal to (2, 1), whose lanes are cached.
        stream_rngs(1, [(0,), (2, 1)])
        with pytest.raises(ValueError, match="must hold integers"):
            stream_rngs(1, [(0,), (2, True)])

    def test_derive_seed_keeps_wide_and_empty_keys(self):
        assert derive_seed(1, 2**40) == int(
            np.random.SeedSequence(1, spawn_key=(2**40,)).generate_state(1, np.uint64)[0]
        )
        assert derive_seed(1) == int(np.random.SeedSequence(1).generate_state(1, np.uint64)[0])
        assert derive_seed(1, np.int64(1)) == derive_seed(1, 1) == 4042681867674859579


def test_import_leaves_numpy_random_out():
    src = os.path.dirname(os.path.dirname(photon_duality.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, photon_duality.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
