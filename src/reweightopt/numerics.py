"""Log-sum-exp and class sums in plain numpy.

The arithmetic follows Blanchard, Higham & Higham (2021), "Accurately
computing the log-sum-exp and softmax functions", as SciPy's
``special.logsumexp`` (1.17) does, and is bit-identical to it on real
input: the maximal terms are taken out of the sum, so

    lse(a) = log1p(s) + log(m) + max(a),
    m = #{i : a_i = max(a)},   s = sum_{a_i < max(a)} exp(a_i - max(a)) / m.

Where that is not finite (all -inf, +inf or nan entries) the result is
``log(sum(exp(a)))``, as in SciPy.  ``_bhh`` holds this arithmetic for
both entry points.

When the maximum is unique (m = 1) the general form reduces bit for bit
to ``log1p(s) + max(a)``: s / 1 = s, log(1) = 0 and x + 0.0 = x for
x = log1p(s) >= +0.  ``logsumexp_classes`` takes that short form when
every column has exactly one maximal entry and every result is finite.
A nan column has no maximal entry, so a nan column beside a two-way tie
passes the count; its nan result sends the call to the general form,
which runs on any tie, nan or infinite entry.

``logsumexp_classes`` takes the classifier's logits class-major, as a
(C, N) array with one column per sample, so that every reduction over
the C classes is one pass of long-vector operations over N rather than
numpy's per-row loop over C entries.  Its float sums over classes add
as ``class_sum`` does, in the order numpy's ``sum(axis=1)`` takes on the
row-major (N, C) array, so the results are bit-identical to the
row-major reductions.

``_all_finite`` tells whether every entry of a float64 vector is finite,
exactly and quietly: vec . vec is finite only if every entry is, and only
when it is not (a non-finite entry, or an all-finite vector whose squares
overflow) are the finite entries counted.

``clip`` is numpy's clip ufunc, the one ``ndarray.clip(lo, hi)`` ends in
after a Python-level wrapper that costs more than the clip itself on the
step's short vectors; it gives the same bits, -0.0 and nan included.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numpy._core.umath import clip
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip

__all__ = ["class_sum", "clip", "logsumexp", "logsumexp_classes"]

_PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (all axes when None); 0-d gives a scalar."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axis = tuple(range(a.ndim)) if axis is None else axis
    a_max = a.max(axis=axis, keepdims=True)
    is_max = a == a_max
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite max, masked out below
        rest = np.where(is_max, 0.0, np.exp(a - a_max))
    out = _bhh(
        a_max,
        is_max.sum(axis=axis, keepdims=True, dtype=np.float64),
        rest.sum(axis=axis, keepdims=True),
        lambda: np.exp(a).sum(axis=axis, keepdims=True),
    )
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def logsumexp_classes(a, a_max, is_max, e):
    """log-sum-exp of each column of the class-major (C, N) array ``a``.

    ``a_max = a.max(axis=0)``, ``is_max = a == a_max`` and ``e`` is
    exp(a - a_max).  The result equals ``logsumexp(a.T, axis=1)`` bit for
    bit.  When every column has exactly one maximal entry and every result
    is finite, it is the short form log1p(s) + a_max; otherwise the
    general form runs on the same sum s (see the module docstring).
    """
    # e is 1.0 at each maximal entry of a column with a finite maximum, so
    # e - is_max zeroes them; nan elsewhere only in columns whose result is
    # non-finite either way.  A sum of terms >= +0 needs no class_sum + 0.0
    s = _pairwise(e - is_max)
    out = np.log1p(s)
    out += a_max
    if np.count_nonzero(is_max) == a.shape[1] and _all_finite(out):
        return out
    # the tie count in the narrowest integer type that holds C: exact, and
    # faster than casting every bool to float
    m = is_max.sum(axis=0, dtype=np.min_scalar_type(a.shape[0])).astype(np.float64)
    return _bhh(a_max, m, s, lambda: class_sum(np.exp(a)))


def _all_finite(vec: np.ndarray) -> bool:
    """Whether every entry of the float64 vector ``vec`` is finite (see the
    module docstring)."""
    return math.isfinite(vec.dot(vec)) or np.count_nonzero(np.isfinite(vec)) == vec.size


def _bhh(a_max, m, s, sum_exp):
    """log1p(s / m) + log(m) + a_max from the maximum ``a_max``, the count
    ``m`` of maximal terms and the sum ``s`` of the other terms'
    exp(a - a_max); where that is not finite, log(sum_exp()), the plain
    log(sum(exp(a)))."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # m = 0 only at a nan maximum, whose nan result log(sum_exp()) keeps
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(sum_exp()))
    return out


def class_sum(a):
    """Column sums of the class-major (C, N) array ``a``, bit for bit as
    ``np.ascontiguousarray(a.T).sum(axis=1)``.

    numpy sums each row of C entries pairwise: fewer than 8 in sequence,
    up to 128 in 8 interleaved accumulators, more by halving at a
    multiple of 8; the reduction adds that sum to its identity 0.0, which
    only turns a sum of -0.0 terms into 0.0.  Each step here is one
    vector operation over the N columns.
    """
    out = _pairwise(a)
    out += 0.0
    return out


def _pairwise(a):
    c = a.shape[0]
    if c < 8:
        # in sequence, row after row; whether this reduction starts from 0.0
        # or from the first row changes only the sign of a zero sum
        return np.add.reduce(a, axis=0)
    if c <= _PAIRWISE_BLOCK:
        end = c - c % 8
        # accumulator k adds rows k, k + 8, k + 16, ... below end, and the eight
        # add up as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        if end == 8:  # one row each: the first fold reads them from a
            r = a[0:8:2] + a[1:8:2]
        else:
            r = a[:8] + a[8:16]
            for i in range(16, end, 8):
                r += a[i : i + 8]
            r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        out = r[0] + r[1]
        for i in range(end, c):
            out += a[i]
        return out
    half = c // 2
    half -= half % 8
    out = _pairwise(a[:half])
    out += _pairwise(a[half:])
    return out
