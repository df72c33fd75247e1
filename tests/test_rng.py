"""Counter-based RNG: determinism, order independence, distribution sanity."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from treescan.rng import Stream, _hash, _hash_int, derive_seed, normal, uniform, uniform_int

seeds = st.integers(min_value=0, max_value=2**64 - 1)
indices = st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=64)


@given(seeds, st.integers(0, 7), indices)
def test_uniform_is_a_pure_function_of_seed_stream_index(seed, stream, idx):
    a = uniform(seed, stream, np.array(idx))
    b = uniform(seed, stream, np.array(idx))
    assert np.array_equal(a, b)


@given(seeds, st.integers(0, 7), indices)
def test_uniform_order_independent(seed, stream, idx):
    idx = np.array(idx)
    perm = np.argsort(idx, kind="stable")[::-1]
    shuffled = uniform(seed, stream, idx[perm])
    assert np.array_equal(shuffled, uniform(seed, stream, idx)[perm])


@given(seeds, indices)
def test_streams_decorrelated(seed, idx):
    idx = np.array(idx)
    assert not np.array_equal(uniform(seed, 1, idx), uniform(seed, 2, idx))


def test_uniform_range_and_mean():
    u = uniform(12345, 0, np.arange(200_000))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 2e-3
    assert abs(u.var() - 1.0 / 12.0) < 1e-3


def test_normal_moments():
    g = normal(999, 1, np.arange(200_000))
    assert abs(g.mean()) < 1e-2
    assert abs(g.std() - 1.0) < 1e-2
    # Box-Muller pairs share an index slot; neighbors must still decorrelate
    assert abs(np.corrcoef(g[:-1], g[1:])[0, 1]) < 1e-2


@given(seeds, st.integers(0, 7), st.integers(-50, 50), st.integers(0, 100))
def test_uniform_int_bounds(seed, stream, lo, span):
    hi = lo + span
    vals = uniform_int(seed, stream, np.arange(500), lo, hi)
    assert vals.min() >= lo and vals.max() <= hi


def test_uniform_int_covers_small_range():
    vals = uniform_int(7, 3, np.arange(2000), 0, 3)
    assert set(np.unique(vals)) == {0, 1, 2, 3}


def test_derive_seed_stable_and_label_sensitive():
    a = derive_seed(42, "scan")
    assert a == derive_seed(42, "scan")
    assert a != derive_seed(42, "noise")
    assert a != derive_seed(43, "scan")
    assert 0 <= a < 2**63


def test_stream_sequential_draws_differ():
    s = Stream(0, stream=0)
    draws = [s.uniform() for _ in range(16)]
    assert len(set(draws)) == 16
    t = Stream(0, stream=0)
    assert [t.uniform() for _ in range(16)] == draws


def test_stream_integer_within_bounds():
    s = Stream(5, stream=2)
    vals = [s.integer(1, 3) for _ in range(200)]
    assert set(vals) <= {1, 2, 3}
    assert len(set(vals)) == 3


EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]


@given(
    st.lists(st.one_of(seeds, st.sampled_from(EDGES + [-1, -(2**63)])), min_size=1, max_size=8),
    st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(EDGES)), min_size=1, max_size=4),
    st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(EDGES)), min_size=1, max_size=16),
    st.sampled_from([0, 1, 2, 7, 2**64 - 1]),
)
def test_python_int_hash_matches_the_array_path(seeds_, streams, idx, slot):
    for seed in seeds_:
        for stream in streams:
            want = _hash(seed, stream, np.array(idx, dtype=np.uint64), slot)
            assert [_hash_int(seed, stream, i, slot) for i in idx] == want.tolist()


@given(seeds, st.integers(0, 2**64 - 1), st.integers(-5, 5), st.integers(0, 40))
def test_stream_draws_match_the_array_functions(seed, stream, lo, span):
    draws = Stream(seed, stream)
    uniforms = [draws.uniform(-2.0, 3.0) for _ in range(24)]
    integers = [draws.integer(lo, lo + span) for _ in range(24)]
    assert uniforms == (-2.0 + uniform(seed, stream, np.arange(24)) * 5.0).tolist()
    assert integers == uniform_int(seed, stream, np.arange(24, 48), lo, lo + span).tolist()
