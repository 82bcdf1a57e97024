"""Log-sum-exp in plain numpy.

The arithmetic follows Blanchard, Higham & Higham (2021), "Accurately
computing the log-sum-exp and softmax functions", as SciPy's
``special.logsumexp`` (1.17) does, and is bit-identical to it on real
input: the maximal terms are taken out of the sum, so

    lse(a) = log1p(s) + log(m) + max(a),
    m = #{i : a_i = max(a)},   s = sum_{a_i < max(a)} exp(a_i - max(a)) / m.

Where that is not finite (all -inf, +inf or nan entries) the result is
``log(sum(exp(a)))``, as in SciPy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["logsumexp", "logsumexp_shifted"]


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (all axes when None); 0-d gives a scalar."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axis = tuple(range(a.ndim)) if axis is None else axis
    a_max = a.max(axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite max, masked out below
        e = np.exp(a - a_max)
    out = logsumexp_shifted(a, a_max, e, axis)
    return out[()] if out.ndim == 0 else out


def logsumexp_shifted(a, a_max, e, axis):
    """log-sum-exp of ``a`` over ``axis`` from its parts already at hand.

    ``a_max = a.max(axis, keepdims=True)`` and ``e = exp(a - a_max)``; the
    caller may go on using ``e`` (a softmax numerator), it is not modified.
    """
    is_max = a == a_max
    m = is_max.sum(axis=axis, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where(is_max, 0.0, e).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return np.squeeze(out, axis=axis)
