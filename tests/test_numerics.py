"""The numpy log-sum-exp is bit-identical to scipy.special.logsumexp, and the
clip ufunc to ``ndarray.clip``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp as scipy_logsumexp

from reweightopt.numerics import class_sum, clip, logsumexp


def _same(a, axis=None):
    want = scipy_logsumexp(a, axis=axis)
    got = logsumexp(a, axis=axis)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True), (got, want)


SCALES = [1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", [1, 2, 7, 64, 521])
def test_1d(scale, n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        _same(scale * rng.standard_normal(n))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("shape", [(64, 10), (5000, 10), (521, 2), (521, 7), (521, 1000)])
def test_rows(scale, shape):
    rng = np.random.default_rng(shape[0] + shape[1])
    _same(scale * rng.standard_normal(shape), axis=1)


def test_dual_grid_shape():
    # the kl dual's grid: beta from 1e-13 to 1e13 against one instance
    rng = np.random.default_rng(0)
    l = rng.uniform(0.0, 5.0, 9)
    logp = np.log(rng.dirichlet(np.ones(9)))
    grid = np.logspace(-13.0, 13.0, 521)
    _same(logp[None, :] + l[None, :] / grid[:, None], axis=1)


def test_extreme_logits():
    rng = np.random.default_rng(1)
    z = rng.choice([-1e3, 1e3], size=(64, 10)) + rng.standard_normal((64, 10))
    _same(z, axis=1)
    _same(z)


def test_one_hot_rows():
    z = 1e3 * np.eye(10)[np.random.default_rng(2).integers(0, 10, 64)]
    _same(z, axis=1)
    _same(-z, axis=1)


def test_tied_maxima():
    rng = np.random.default_rng(3)
    z = np.round(rng.standard_normal((64, 10)))  # many ties, also at the max
    z[:, :3] = z.max(axis=1, keepdims=True)
    _same(z, axis=1)
    _same(np.full(10, 2.5))
    _same(np.zeros((64, 10)), axis=1)


@pytest.mark.parametrize(
    "row",
    [
        [np.inf, 1.0],
        [np.inf, np.inf],
        [np.inf, -np.inf],
        [-np.inf, 0.0],
        [-np.inf, -np.inf],
        [-np.inf],
        [np.nan, 1.0],
        [np.nan, np.inf],
        [np.nan, -np.inf],
    ],
)
def test_non_finite_pass_through(row):
    a = np.array(row)
    _same(a)
    _same(np.vstack([a, [0.5] * a.size, a[::-1]]), axis=1)


def test_integer_input_and_scalar_result():
    _same(np.array([1, 2, 3]))
    _same(np.arange(12).reshape(3, 4), axis=1)
    assert isinstance(logsumexp([0.0, 0.0]), np.float64)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    )
)
def test_property_random_finite(a):
    _same(a)
    _same(a, axis=0)
    _same(a, axis=1)


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e300, -1e300]


@st.composite
def _row_major(draw):
    """(N, C) arrays drawn from a few values, so with ties, signed zeros,
    subnormals and magnitudes up to 1e300; no sum of them overflows."""
    c = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 16, 17, 127, 128, 129, 136, 257]),
                       st.integers(1, 300)))
    n = draw(st.integers(1, 4))
    values = st.one_of(st.floats(-1e300, 1e300), st.sampled_from(_EDGE_VALUES))
    pool = np.asarray(draw(st.lists(values, min_size=1, max_size=12)))
    idx = draw(hnp.arrays(np.intp, (n, c), elements=st.integers(0, pool.size - 1)))
    tiny = draw(hnp.arrays(np.bool_, (n, c)))  # scaled into the subnormal range
    return np.where(tiny, pool[idx] * 1e-300, pool[idx])


@settings(max_examples=300, deadline=None)
@given(_row_major())
def test_class_sum_is_numpy_row_sum_bit_for_bit(a):
    want = a.sum(axis=1)
    got = class_sum(np.ascontiguousarray(a.T))
    assert got.dtype == want.dtype and got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("lo, hi", [(0.0, 3.0), (-2.0, 2.0), (-0.0, 0.0), (0.0, 1e308)])
def test_clip_ufunc_is_ndarray_clip_bit_for_bit(lo, hi):
    # whichever module it was imported from, it is numpy's clip ufunc
    assert isinstance(clip, np.ufunc) and clip.__name__ == "clip"
    a = np.array([
        0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, lo, hi, -lo, -hi,
        np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
        np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
        lo - 1.0, hi + 1.0, 0.5 * (lo + hi), 5e-324, -5e-324, 1e308, -1e308,
    ])
    want = a.clip(lo, hi)
    got = clip(a, lo, hi)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    out = a.copy()
    assert clip(out, lo, hi, out=out) is out and out.tobytes() == want.tobytes()
