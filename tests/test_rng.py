import itertools
import warnings

import numpy as np
import pytest

from primechain import rng
from primechain.errors import DomainError

MASK = 2**64 - 1


class TestMixer:
    def test_known_first_output(self):
        # First output of the standard splittable generator from seed 0:
        # mix(0 + gamma) with the 30/27/31 finalizer.
        assert rng.mix64_int(rng.GOLDEN) == 0xE220A8397B1DCDAF

    def test_array_matches_scalar(self):
        xs = np.array([0, 1, 2, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
        arr = rng.mix64(xs)
        for x, v in zip(xs.tolist(), arr.tolist()):
            assert rng.mix64_int(x) == v

    def test_injective_on_sample(self):
        xs = np.arange(200_000, dtype=np.uint64)
        assert len(np.unique(rng.mix64(xs))) == xs.size

    def test_in_place_matches_fresh_and_scalar(self):
        drawn = np.random.default_rng(9).integers(0, 2**64, 1000, dtype=np.uint64)
        words = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64), drawn])
        fresh = rng.mix64(words)
        z = words.copy()
        assert rng.mix64(z, out=z) is z
        assert z.tobytes() == fresh.tobytes()
        assert fresh.tolist() == [rng.mix64_int(w) for w in words.tolist()]

    def test_zero_dimensional_arrays_raise_no_warning(self):
        # numpy scalars check their arithmetic for overflow; 0-d arrays
        # must still hash mod 2^64 without a RuntimeWarning
        z = np.array(MASK, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = rng.mix64(z)
            drawn = rng.stream_draw(z, 2**63 - 1)
        assert mixed.shape == drawn.shape == ()
        assert int(mixed) == rng.mix64_int(MASK)
        assert int(drawn) == rng.mix64_int((MASK + (2**63 - 1) * int(rng.GOLDEN)) & MASK)
        assert int(z) == MASK

    def test_zero_fixed_point(self):
        # The finalizer maps 0 to 0, which is why every key derivation
        # salts the seed before mixing.
        assert rng.mix64_int(0) == 0


class TestUnitInterval:
    def test_open_interval_bounds(self):
        lo = rng.to_unit(np.uint64(0))
        hi = rng.to_unit(np.uint64(2**64 - 1))
        assert 0.0 < lo < hi < 1.0
        assert lo == 2.0**-53
        assert hi == 1.0 - 2.0**-53
        # Both endpoints keep the stick-breaking logs finite.
        assert np.isfinite(np.log(hi)) and np.isfinite(np.log1p(-hi))

    def test_bits_match_the_float_formula(self):
        edges = np.array([0, 1, 2**12 - 1, 2**12, 2**63, MASK], dtype=np.uint64)
        drawn = np.random.default_rng(11).integers(0, 2**64, 100_000, dtype=np.uint64)
        words = np.concatenate([edges, drawn])
        want = ((words >> np.uint64(12)) + 0.5) * 2.0**-52
        assert rng.to_unit(words).tobytes() == want.tobytes()
        buf = words.copy()
        assert rng.to_unit(buf, out=buf).tobytes() == want.tobytes()

    def test_vectorized(self):
        xs = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        vals = rng.to_unit(xs)
        assert np.all((vals > 0) & (vals < 1))
        assert np.all(np.diff(vals) > 0)


class TestStreams:
    def test_stream_draw_matches_generator(self):
        key = rng.replicate_keys(9, 4, 5)[0]
        gen = rng.uniform_stream(int(key))
        from_gen = [next(gen) for _ in range(6)]
        direct = [
            float(rng.to_unit(rng.stream_draw(np.array([key]), 2 * t + 1)[0]))
            for t in range(6)
        ]
        assert from_gen == direct

    @pytest.mark.parametrize("index", [1, 2**32 + 1, 2**62 + 3, 2**63 - 1])
    def test_draw_offset_at_large_indices(self, index):
        keys = np.concatenate([np.array([0, MASK], dtype=np.uint64), rng.replicate_keys(4, 0, 6)])
        want = [rng.mix64_int((k + index * int(rng.GOLDEN)) & MASK) for k in keys.tolist()]
        assert rng.stream_draw(keys, index).tolist() == want

    @pytest.mark.parametrize("key", [-1, 2**64, np.int64(-1), 1.5, 1.0, np.float64(1.0), "1", None])
    def test_stream_key_outside_u64_is_a_domain_error(self, key):
        with pytest.raises(DomainError):
            rng.uniform_stream(key)

    def test_numpy_integer_keys_are_their_values(self):
        want = list(itertools.islice(rng.uniform_stream(7), 4))
        for key in (np.uint64(7), np.int64(7), np.uint8(7)):
            assert list(itertools.islice(rng.uniform_stream(key), 4)) == want

    def test_replicate_keys_deterministic(self):
        a = rng.replicate_keys(3, 0, 1000)
        b = rng.replicate_keys(3, 0, 1000)
        assert np.array_equal(a, b)

    def test_replicate_keys_slice_consistent(self):
        # Keys depend only on the replicate index, not the batch window.
        whole = rng.replicate_keys(3, 0, 1000)
        part = rng.replicate_keys(3, 400, 600)
        assert np.array_equal(whole[400:600], part)

    def test_replicate_keys_distinct_across_seeds(self):
        a = rng.replicate_keys(1, 0, 512)
        b = rng.replicate_keys(2, 0, 512)
        assert not np.any(a == b)

    def test_draw_indices_decorrelated(self):
        keys = rng.replicate_keys(5, 0, 4096)
        u1 = rng.to_unit(rng.stream_draw(keys, 1))
        u2 = rng.to_unit(rng.stream_draw(keys, 3))
        assert abs(float(np.corrcoef(u1, u2)[0, 1])) < 0.05

    def test_uniformity_moments(self):
        keys = rng.replicate_keys(17, 0, 200_000)
        u = rng.to_unit(rng.stream_draw(keys, 1))
        assert float(u.mean()) == pytest.approx(0.5, abs=0.005)
        assert float((u * u).mean()) == pytest.approx(1.0 / 3.0, abs=0.005)


def test_inputs_are_not_mutated():
    keys = rng.replicate_keys(5, 0, 1000)
    raw = rng.stream_draw(keys, 1)
    words = keys ^ raw
    before = [a.copy() for a in (keys, raw, words)]
    rng.stream_draw(keys, 3)
    rng.to_unit(raw)
    rng.mix64(words)
    for a, b in zip((keys, raw, words), before):
        assert a.tobytes() == b.tobytes()
