"""Deterministic synthetic dataset generators.

Every generator is a pure function of its arguments including the seed,
so identical calls produce identical datasets.  Datasets carry a
JSON-serializable metadata dict (generator name, seed, ground-truth
parameters, per-class counts, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
class Dataset:
    """Inputs (n, d), targets (n,), and a JSON-serializable metadata dict."""

    inputs: np.ndarray
    targets: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        y = np.asarray(self.targets)
        y = y.astype(np.int64) if np.issubdtype(y.dtype, np.integer) else y.astype(np.float64)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y.reshape(-1))
        if x.shape[0] < 1 or x.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must agree on n >= 1")
        counts = self.meta.get("class_counts")
        if counts is not None and int(np.sum(counts)) != x.shape[0]:
            raise ValueError("class_counts metadata does not sum to n")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def is_classification(self) -> bool:
        return self.targets.dtype == np.int64

    @property
    def num_classes(self) -> int:
        if not self.is_classification:
            raise ValueError("regression dataset has no classes")
        return int(self.meta.get("num_classes", int(self.targets.max()) + 1))


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
    rows = []
    for j, c in enumerate(counts):
        block = np.zeros((c, 10))
        block[:, j] = 1.0
        rows.append(block)
    x = np.vstack(rows)
    y = x @ theta_star
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
    """Balanced isotropic Gaussian blobs with means separation * e_c."""
    if num_classes < 2 or n_per_class < 1:
        raise ValueError("need num_classes >= 2 and n_per_class >= 1")
    if dim < num_classes:
        raise ValueError("dim must be >= num_classes so each mean gets its own axis")
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(num_classes):
        mean = np.zeros(dim)
        mean[c] = separation
        xs.append(mean + rng.standard_normal((n_per_class, dim)))
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    meta = {
        "generator": "gaussian_mixture_classification",
        "seed": int(seed),
        "num_classes": num_classes,
        "separation": float(separation),
        "class_counts": _class_counts(y, num_classes),
    }
    return Dataset(x, y, meta)


def subsample_long_tailed(dataset: Dataset, counts, seed: int) -> Dataset:
    """Keep the first counts[c] seeded-shuffled samples of each class."""
    if not dataset.is_classification:
        raise ValueError("long-tailed subsampling needs a classification dataset")
    counts = [int(c) for c in counts]
    num_classes = dataset.num_classes
    if len(counts) != num_classes:
        raise ValueError(f"{len(counts)} counts for {num_classes} classes")
    rng = np.random.default_rng(seed)
    keep = []
    for c, want in enumerate(counts):
        idx = np.flatnonzero(dataset.targets == c)
        if idx.size < want:
            raise ValueError(f"class {c} has {idx.size} samples, need {want}")
        keep.append(rng.permutation(idx)[:want])
    keep = np.concatenate(keep)
    meta = dict(dataset.meta)
    meta.update(
        {
            "subsample_seed": int(seed),
            "class_counts": counts,
            "imbalance_factor": max(counts) / min(counts),
        }
    )
    return Dataset(dataset.inputs[keep], dataset.targets[keep], meta)


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
    meta = dict(dataset.meta)
    meta.update(
        {
            "flip_seed": int(seed),
            "flip_fraction": float(fraction),
            "flip_indices": flip_idx.tolist(),
            "class_counts": _class_counts(targets, num_classes),
        }
    )
    return Dataset(dataset.inputs, targets, meta)


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded holdout split; stratified per class for classification."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    if dataset.is_classification:
        train_idx, other_idx = [], []
        for c in range(dataset.num_classes):
            idx = rng.permutation(np.flatnonzero(dataset.targets == c))
            k = int(round(train_fraction * idx.size))
            train_idx.append(idx[:k])
            other_idx.append(idx[k:])
        train_idx = np.concatenate(train_idx)
        other_idx = np.concatenate(other_idx)
    else:
        idx = rng.permutation(dataset.n)
        k = int(round(train_fraction * dataset.n))
        train_idx, other_idx = idx[:k], idx[k:]
    if train_idx.size == 0 or other_idx.size == 0:
        raise ValueError(f"degenerate split sizes {train_idx.size}/{other_idx.size}")

    def make(idx, name):
        meta = dict(dataset.meta)
        meta.update({"split": name, "split_seed": int(seed)})
        if dataset.is_classification:
            meta["class_counts"] = _class_counts(dataset.targets[idx], dataset.num_classes)
        return Dataset(dataset.inputs[idx], dataset.targets[idx], meta)

    return make(train_idx, "train"), make(other_idx, "other")
