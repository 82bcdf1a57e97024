"""Deterministic synthetic dataset generators.

Every generator is a pure function of its arguments including the seed,
so identical calls produce identical datasets.  A ``Dataset`` is a
``models.Batch`` with a JSON-serializable metadata dict (generator name,
seed, ground-truth parameters, per-class counts, ...): its constructor,
run by the generators, is the one check of the rows.  The datasets
derived from them are stored unchecked, with a label range bounding theirs.

``subsample_long_tailed`` and ``split`` choose their rows with one seeded
index helper and then gather them.  ``experiment`` builds a run's splits
from the same helpers (``_subsample_rows``, ``_split_rows``) as row
indices, so that it gathers the inputs only once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .models import Batch, _rows, _unchecked

__all__ = [
    "Dataset",
    "rare_feature_regression",
    "long_tailed_counts",
    "gaussian_mixture_classification",
    "subsample_long_tailed",
    "flip_labels",
    "split",
]


@dataclass(frozen=True)
class Dataset(Batch):
    """A ``Batch`` (n rows) with a metadata dict of its own (a copy of the
    one given), whose ``class_counts`` must sum to n."""

    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "meta", _own(self.meta))
        counts = self.meta.get("class_counts")
        if counts is not None and int(np.sum(counts)) != self.n:
            raise ValueError("class_counts metadata does not sum to n")

    n = Batch.size

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def is_classification(self) -> bool:
        return self.label_range is not None

    @property
    def num_classes(self) -> int:
        if not self.is_classification:
            raise ValueError("regression dataset has no classes")
        return int(self.meta.get("num_classes", self.label_range[1] + 1))


def _own(meta: dict, **new) -> dict:
    """``meta`` updated with ``new``, with its own copy of each list or dict
    it keeps from ``meta``: datasets share no metadata with another or a caller."""
    own = {k: copy.deepcopy(v) if k not in new and type(v) in (list, dict) else v
           for k, v in meta.items()}
    return {**own, **new}


def _class_counts(targets: np.ndarray, num_classes: int) -> list[int]:
    return np.bincount(targets, minlength=num_classes).tolist()


def rare_feature_regression(seed: int) -> Dataset:
    """One-hot regression with five frequent and five rare directions.

    Ten one-hot covariates; directions 0-4 appear 50 times each,
    directions 5-9 once each (n = 255).  Targets are exactly x . theta*
    with theta* drawn once from a standard normal (no noise), so the
    least-squares optimum recovers theta* exactly.
    """
    rng = np.random.default_rng(seed)
    theta_star = rng.standard_normal(10)
    counts = [50] * 5 + [1] * 5
    x = np.repeat(np.eye(10), counts, axis=0)  # counts[j] rows of e_j, in order
    y = x @ theta_star
    x.setflags(write=False)  # no one else holds x and y: Dataset stores them uncopied
    y.setflags(write=False)
    meta = {
        "generator": "rare_feature_regression",
        "seed": int(seed),
        "theta_star": theta_star.tolist(),
        "feature_counts": counts,
        "frequent_indices": [0, 1, 2, 3, 4],
        "rare_indices": [5, 6, 7, 8, 9],
    }
    return Dataset(x, y, meta)


def long_tailed_counts(num_classes: int, n_max: int, imbalance_factor: float) -> list[int]:
    """Exponentially decaying per-class counts.

    n_i = round(n_max * mu^(i/(C-1))) with mu = 1/IF, so the endpoints
    satisfy n_0 = n_max and n_{C-1} = max(1, round(n_max / IF)).
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if imbalance_factor < 1:
        raise ValueError("imbalance factor must be >= 1")
    mu = 1.0 / imbalance_factor
    counts = [
        max(1, int(np.rint(n_max * mu ** (i / (num_classes - 1)))))
        for i in range(num_classes)
    ]
    return counts


def gaussian_mixture_classification(
    num_classes: int, n_per_class: int, dim: int, separation: float, seed: int
) -> Dataset:
    """Balanced isotropic Gaussian blobs with means separation * e_c.

    The rows come class by class: one draw of every class's normals, to
    which each class's mean row is added in place.
    """
    if num_classes < 2 or n_per_class < 1:
        raise ValueError("need num_classes >= 2 and n_per_class >= 1")
    if dim < num_classes:
        raise ValueError("dim must be >= num_classes so each mean gets its own axis")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_classes * n_per_class, dim))
    means = np.zeros((num_classes, dim))
    np.fill_diagonal(means, separation)
    # the full mean row, zeros included: a -0.0 draw becomes +0.0
    blocks = x.reshape(num_classes, n_per_class, dim)
    blocks += means[:, None, :]
    y = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    x.setflags(write=False)  # no one else holds x and y: Dataset stores them uncopied
    y.setflags(write=False)
    meta = {
        "generator": "gaussian_mixture_classification",
        "seed": int(seed),
        "num_classes": num_classes,
        "separation": float(separation),
        "class_counts": _class_counts(y, num_classes),
    }
    return Dataset(x, y, meta)


def _cut(targets: np.ndarray, num_classes, seed: int, k_of):
    """The seeded selection of ``split`` and ``subsample_long_tailed``.

    Takes the indices of each class c < num_classes (of every sample when
    num_classes is None) in an order drawn from ``seed``'s generator and cuts
    them after k_of(c, size) of them; returns the heads and the tails, each
    concatenated in class order.
    """
    rng = np.random.default_rng(seed)
    if num_classes is None:
        groups = [np.arange(targets.size)]
    else:
        groups = [np.flatnonzero(targets == c) for c in range(num_classes)]
    heads, tails = [], []
    for c, idx in enumerate(groups):
        idx = rng.permutation(idx)
        k = k_of(c, idx.size)
        heads.append(idx[:k])
        tails.append(idx[k:])
    return np.concatenate(heads), np.concatenate(tails)


def _take(dataset: Dataset, rows: np.ndarray, meta: dict) -> Dataset:
    return _unchecked(Dataset, **vars(_rows(dataset, rows)), meta=meta)


def subsample_long_tailed(dataset: Dataset, counts, seed: int) -> Dataset:
    """Keep the first counts[c] seeded-shuffled samples of each class."""
    if not dataset.is_classification:
        raise ValueError("long-tailed subsampling needs a classification dataset")
    counts = [int(c) for c in counts]
    if len(counts) != dataset.num_classes:
        raise ValueError(f"{len(counts)} counts for {dataset.num_classes} classes")
    return _take(dataset, *_subsample_rows(dataset.targets, dataset.meta, counts, seed))


def _subsample_rows(targets: np.ndarray, meta: dict, counts: list, seed: int):
    """The rows ``subsample_long_tailed`` keeps of a dataset with these
    targets and metadata, and the subsample's metadata."""

    def k_of(c, size):
        if size < counts[c]:
            raise ValueError(f"class {c} has {size} samples, need {counts[c]}")
        return counts[c]

    keep = _cut(targets, len(counts), seed, k_of)[0]
    return keep, _own(meta, subsample_seed=int(seed), class_counts=counts,
                      imbalance_factor=max(counts) / min(counts))


def flip_labels(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Relabel floor(fraction * n) samples uniformly among the other classes.

    The flip mask lands in the metadata for diagnostics; training code
    never sees it.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("flip fraction must lie in [0, 1]")
    if not dataset.is_classification:
        raise ValueError("label flipping needs a classification dataset")
    num_classes = dataset.num_classes
    rng = np.random.default_rng(seed)
    n_flip = int(fraction * dataset.n)
    flip_idx = np.sort(rng.choice(dataset.n, size=n_flip, replace=False))
    targets = dataset.targets.copy()
    if n_flip:
        # draw from C-1 alternatives and skip past the original label
        draws = rng.integers(0, num_classes - 1, size=n_flip)
        originals = targets[flip_idx]
        targets[flip_idx] = draws + (draws >= originals)
    meta = _own(dataset.meta, flip_seed=int(seed), flip_fraction=float(fraction),
                flip_indices=flip_idx.tolist(), class_counts=_class_counts(targets, num_classes))
    targets.setflags(write=False)  # the range below: a flip may reach a class no label had
    return _unchecked(Dataset, inputs=dataset.inputs, targets=targets, meta=meta,
                      label_range=(int(targets.min()), int(targets.max())))


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded holdout split; stratified per class for classification."""
    num_classes = dataset.num_classes if dataset.is_classification else None
    parts = _split_rows(dataset.targets, dataset.meta, num_classes, train_fraction, seed)
    return tuple(_take(dataset, rows, meta) for rows, meta in parts)


def _split_rows(targets: np.ndarray, meta: dict, num_classes, train_fraction: float, seed: int):
    """The (rows, metadata) of ``split``'s train and other parts of a dataset
    with these targets and metadata; num_classes is None for regression."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    parts = _cut(targets, num_classes, seed, lambda c, size: int(round(train_fraction * size)))
    if parts[0].size == 0 or parts[1].size == 0:
        raise ValueError(f"degenerate split sizes {parts[0].size}/{parts[1].size}")

    def part_meta(rows, name):
        counts = {} if num_classes is None else {
            "class_counts": _class_counts(targets[rows], num_classes)}
        return _own(meta, split=name, split_seed=int(seed), **counts)

    return (parts[0], part_meta(parts[0], "train")), (parts[1], part_meta(parts[1], "other"))
