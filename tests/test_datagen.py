import numpy as np
import pytest

from reweightopt.models import Batch, ModelKind, zero_state
from reweightopt.optim import TrainConfig, init_state, rgd_step
from reweightopt.weighting import WeightingRule
from reweightopt.datagen import (
    Dataset,
    flip_labels,
    gaussian_mixture_classification,
    long_tailed_counts,
    rare_feature_regression,
    split,
    subsample_long_tailed,
)


class TestRareFeatureRegression:
    def test_construction(self):
        ds = rare_feature_regression(seed=0)
        assert ds.n == 255 and ds.dim == 10
        counts = ds.inputs.sum(axis=0)
        assert np.array_equal(counts, [50] * 5 + [1] * 5)
        # every row is one-hot
        assert np.array_equal(ds.inputs.sum(axis=1), np.ones(255))

    def test_targets_match_theta_star(self):
        ds = rare_feature_regression(seed=3)
        theta = np.array(ds.meta["theta_star"])
        idx = ds.inputs.argmax(axis=1)
        assert np.array_equal(ds.targets, theta[idx])

    def test_deterministic(self):
        a = rare_feature_regression(seed=7)
        b = rare_feature_regression(seed=7)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert a.meta == b.meta

    def test_least_squares_recovers_theta_star(self):
        ds = rare_feature_regression(seed=5)
        theta, *_ = np.linalg.lstsq(ds.inputs, ds.targets, rcond=None)
        assert np.allclose(theta, ds.meta["theta_star"], atol=1e-12)


class TestLongTailedCounts:
    def test_endpoints(self):
        counts = long_tailed_counts(10, 5000, 100)
        assert counts[0] == 5000 and counts[-1] == 50
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_balanced(self):
        assert long_tailed_counts(5, 123, 1) == [123] * 5

    def test_two_class(self):
        assert long_tailed_counts(2, 100, 4) == [100, 25]

    def test_endpoint_ratio_exact_when_divisible(self):
        counts = long_tailed_counts(10, 5000, 100)
        assert counts[0] / counts[-1] == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            long_tailed_counts(1, 100, 10)
        with pytest.raises(ValueError):
            long_tailed_counts(10, 0, 10)
        with pytest.raises(ValueError):
            long_tailed_counts(10, 100, 0.5)


class TestGaussianMixture:
    def test_deterministic(self):
        a = gaussian_mixture_classification(3, 10, 5, 2.0, seed=1)
        b = gaussian_mixture_classification(3, 10, 5, 2.0, seed=1)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_counts_and_meta(self):
        ds = gaussian_mixture_classification(4, 25, 6, 3.0, seed=2)
        assert ds.n == 100
        assert ds.meta["class_counts"] == [25, 25, 25, 25]
        assert ds.num_classes == 4

    def test_separated_blobs_are_learnable(self):
        from reweightopt.experiment import run_experiment

        config = {
            "dataset": {
                "generator": "gaussian_mixture_classification",
                "params": {"num_classes": 3, "n_per_class": 60, "dim": 4,
                           "separation": 10.0, "seed": 4},
            },
            "model": {"kind": "softmax"},
            "method": {"name": "rgd", "rule": {"divergence": "none"}},
            "train": {"optimizer": "sgd", "lr_base": 0.5, "steps": 400,
                      "batch_size": 32, "seed": 0},
            "metrics": ["accuracy"],
            "eval_every": 400,
        }
        _, summary = run_experiment(config)
        assert summary["final"]["train"]["accuracy"] > 0.99

    def test_zero_separation_is_chance_level(self):
        from reweightopt.experiment import run_experiment

        config = {
            "dataset": {
                "generator": "gaussian_mixture_classification",
                "params": {"num_classes": 4, "n_per_class": 150, "dim": 4,
                           "separation": 0.0, "seed": 5},
                "split": {"test_fraction": 0.3, "seed": 6},
            },
            "model": {"kind": "softmax"},
            "method": {"name": "rgd", "rule": {"divergence": "none"}},
            "train": {"optimizer": "sgd", "lr_base": 0.2, "steps": 300,
                      "batch_size": 32, "seed": 0},
            "metrics": ["accuracy"],
            "eval_every": 300,
        }
        _, summary = run_experiment(config)
        assert abs(summary["final"]["test"]["accuracy"] - 0.25) < 0.08

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            gaussian_mixture_classification(5, 10, 3, 1.0, seed=0)


class TestSubsample:
    def test_counts_match(self):
        ds = gaussian_mixture_classification(4, 50, 5, 2.0, seed=1)
        counts = long_tailed_counts(4, 50, 10)
        sub = subsample_long_tailed(ds, counts, seed=2)
        assert sub.meta["class_counts"] == counts
        assert np.array_equal(np.bincount(sub.targets, minlength=4), counts)
        assert sub.meta["imbalance_factor"] == 10.0

    def test_full_counts_keep_everything(self):
        ds = gaussian_mixture_classification(3, 20, 4, 2.0, seed=3)
        sub = subsample_long_tailed(ds, [20, 20, 20], seed=4)
        assert sub.n == ds.n
        assert sorted(map(tuple, sub.inputs)) == sorted(map(tuple, ds.inputs))

    def test_deterministic(self):
        ds = gaussian_mixture_classification(3, 30, 4, 2.0, seed=5)
        a = subsample_long_tailed(ds, [30, 10, 3], seed=6)
        b = subsample_long_tailed(ds, [30, 10, 3], seed=6)
        assert np.array_equal(a.inputs, b.inputs)

    def test_insufficient_samples(self):
        ds = gaussian_mixture_classification(3, 10, 4, 2.0, seed=7)
        with pytest.raises(ValueError):
            subsample_long_tailed(ds, [11, 5, 5], seed=8)


class TestFlipLabels:
    def test_identity_at_zero(self):
        ds = gaussian_mixture_classification(3, 20, 4, 2.0, seed=9)
        flipped = flip_labels(ds, 0.0, seed=10)
        assert np.array_equal(flipped.targets, ds.targets)
        assert flipped.meta["flip_indices"] == []

    def test_exact_count_and_purity(self):
        ds = gaussian_mixture_classification(10, 100, 12, 2.0, seed=11)
        flipped = flip_labels(ds, 0.4, seed=12)
        idx = np.array(flipped.meta["flip_indices"], dtype=int)
        assert idx.size == 400
        assert np.all(flipped.targets[idx] != ds.targets[idx])
        untouched = np.setdiff1d(np.arange(ds.n), idx)
        assert np.array_equal(flipped.targets[untouched], ds.targets[untouched])
        assert np.all((flipped.targets >= 0) & (flipped.targets < 10))

    def test_deterministic(self):
        ds = gaussian_mixture_classification(4, 30, 5, 2.0, seed=13)
        a = flip_labels(ds, 0.25, seed=14)
        b = flip_labels(ds, 0.25, seed=14)
        assert np.array_equal(a.targets, b.targets)
        assert a.meta["flip_indices"] == b.meta["flip_indices"]

    def test_regression_rejected(self):
        ds = rare_feature_regression(seed=0)
        with pytest.raises(ValueError):
            flip_labels(ds, 0.1, seed=1)


class TestSplit:
    def test_sizes(self):
        ds = gaussian_mixture_classification(10, 10, 10, 2.0, seed=15)
        train, other = split(ds, 0.8, seed=16)
        assert train.n == 80 and other.n == 20

    def test_stratified_proportions(self):
        ds = gaussian_mixture_classification(5, 40, 6, 2.0, seed=17)
        train, other = split(ds, 0.75, seed=18)
        for c in range(5):
            assert abs(np.sum(train.targets == c) - 30) <= 1
            assert abs(np.sum(other.targets == c) - 10) <= 1

    def test_regression_split(self):
        ds = rare_feature_regression(seed=1)
        train, other = split(ds, 0.8, seed=2)
        assert train.n + other.n == 255
        assert train.n == 204

    def test_deterministic(self):
        ds = gaussian_mixture_classification(3, 20, 4, 2.0, seed=19)
        a1, b1 = split(ds, 0.5, seed=20)
        a2, b2 = split(ds, 0.5, seed=20)
        assert np.array_equal(a1.inputs, a2.inputs)
        assert np.array_equal(b1.inputs, b2.inputs)

    def test_degenerate_rejected(self):
        ds = gaussian_mixture_classification(2, 1, 2, 2.0, seed=21)
        with pytest.raises(ValueError):
            split(ds, 0.99, seed=22)
        with pytest.raises(ValueError):
            split(ds, 1.0, seed=22)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([0, 1]), {"class_counts": [5, 5]})


class TestMetadataIsOwned:
    """No caller and no other dataset can change a dataset's metadata."""

    def test_callers_dict_is_copied(self):
        meta = {"class_counts": [2, 1], "note": {"tags": ["a"]}}
        ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 1]), meta)
        meta["class_counts"][0] = 7
        meta["note"]["tags"].append("b")
        meta["class_counts"] = [7]
        assert ds.meta == {"class_counts": [2, 1], "note": {"tags": ["a"]}}

    def test_derived_datasets_share_no_metadata(self):
        full = rare_feature_regression(0)
        theta_star = list(full.meta["theta_star"])
        train, other = split(full, 0.5, 1)
        train.meta["theta_star"][0] = 99.0
        train.meta["rare_indices"].append(10)
        assert full.meta["theta_star"] == theta_star == other.meta["theta_star"]
        assert full.meta["rare_indices"] == [5, 6, 7, 8, 9] == other.meta["rare_indices"]

    def test_flipped_and_subsampled_metadata_is_their_own(self):
        ds = gaussian_mixture_classification(3, 20, 4, 2.0, seed=0)
        flipped = flip_labels(ds, 0.5, seed=1)
        again = split(flipped, 0.5, seed=2)[0]
        again.meta["flip_indices"].clear()
        sub = subsample_long_tailed(ds, [20, 10, 5], seed=3)
        sub.meta["class_counts"][0] = 0
        assert flipped.meta["flip_indices"] and ds.meta["class_counts"] == [20, 20, 20]


class TestDerivedLabelRange:
    """Derived datasets are stored unchecked; their label range must still
    bound their labels, since a step checks labels only through it."""

    def test_flip_covers_labels_beyond_the_present_ones(self):
        # labels 0 and 1 only, of 4 classes: flipping draws labels up to 3
        ds = Dataset(np.zeros((40, 4)), np.repeat([0, 1], 20),
                     {"num_classes": 4, "class_counts": [20, 20, 0, 0]})
        assert ds.label_range == (0, 1)
        flipped = flip_labels(ds, 1.0, seed=3)
        lo, hi = flipped.label_range
        assert flipped.targets.max() > 1
        assert lo <= flipped.targets.min() and flipped.targets.max() <= hi <= 3
        assert not flipped.targets.flags.writeable
        # a 2-class model must reject the flipped labels rather than index past its rows
        state = init_state(zero_state(ModelKind.SOFTMAX, 4, 2))
        with pytest.raises(ValueError, match="class label out of range"):
            rgd_step(state, flipped, WeightingRule("kl"), TrainConfig(batch_size=40))

    def test_subsets_keep_a_bounding_range(self):
        ds = gaussian_mixture_classification(4, 30, 4, 2.0, seed=5)
        parts = [*split(ds, 0.5, seed=6), subsample_long_tailed(ds, [30, 10, 5, 2], seed=7)]
        for part in parts:
            lo, hi = part.label_range
            assert lo <= part.targets.min() and part.targets.max() <= hi
            assert part.num_classes == 4 and part.is_classification
        regression = split(rare_feature_regression(seed=1), 0.5, seed=2)
        assert all(part.label_range is None for part in regression)

    def test_dataset_is_a_checked_batch(self):
        ds = gaussian_mixture_classification(3, 5, 3, 1.0, seed=0)
        assert isinstance(ds, Batch)
        with pytest.raises(ValueError, match="non-finite"):
            gaussian_mixture_classification(3, 5, 3, float("nan"), seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.ones((2, 2)), np.array([0.0, np.inf]))
