import numpy as np
import pytest

from atree.dataset import (Dataset, generate_gaussian_blobs,
                           generate_two_cluster_2d, load_csv, split_train_test,
                           write_csv)
from atree.errors import ParseError, ValidationError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_rows_and_uniform_weights(self, tmp_path):
        path = _write(tmp_path, "0,1.0,2.0\n1,3.0,4.0\n")
        data = load_csv(path)
        assert data.num_classes == 2
        assert data.dimension == 2
        np.testing.assert_allclose(data.weights, [0.5, 0.5])

    def test_labels_remapped_dense_in_sorted_order(self, tmp_path):
        path = _write(tmp_path, "7,1.0\n3,2.0\n7,3.0\n")
        data = load_csv(path)
        assert data.label_names == [3, 7]
        assert data.labels.tolist() == [1, 0, 1]

    def test_labels_map_through_given_names(self, tmp_path):
        path = _write(tmp_path, "7,1.0\n3,2.0\n7,3.0\n")
        data = load_csv(path, label_names=[9, 7, 3])
        assert data.label_names == [9, 7, 3] and data.num_classes == 3
        assert data.labels.tolist() == [1, 2, 1]

    def test_label_outside_given_names_names_label_and_line(self, tmp_path):
        path = _write(tmp_path, "7,1.0\n3,2.0\n5,3.0\n")
        with pytest.raises(ValidationError, match="line 3: label 5 is not one of the 2 "):
            load_csv(path, label_names=[3, 7])

    def test_string_names_match_the_labels_as_written(self, tmp_path):
        # a model's names may be strings; write_csv writes str(name)
        path = _write(tmp_path, "7,1.0\n3,2.0\n")
        data = load_csv(path, label_names=["3", "7", "cat"])
        assert data.label_names == ["3", "7", "cat"] and data.labels.tolist() == [1, 0]

    def test_given_names_accept_a_single_label(self, tmp_path):
        path = _write(tmp_path, "4,1.0\n4,2.0\n")
        assert load_csv(path, label_names=[4, 8]).labels.tolist() == [0, 0]

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValidationError):
            load_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = _write(tmp_path, "0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = _write(tmp_path, "0,1.0\n1,zap\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = _write(tmp_path, "0.5,1.0\n1,2.0\n")
        with pytest.raises(ParseError, match="label"):
            load_csv(path)

    def test_single_label_rejected(self, tmp_path):
        path = _write(tmp_path, "4,1.0\n4,2.0\n")
        with pytest.raises(ValidationError):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        path = _write(tmp_path, f"0,1.0\n1,{cell}\n")
        with pytest.raises(ValidationError, match="finite"):
            load_csv(path)

    def test_header_skipped(self, tmp_path):
        path = _write(tmp_path, "label,f1\n0,1.0\n1,2.0\n")
        data = load_csv(path, has_header=True)
        assert len(data) == 2

    def test_write_load_round_trip_exact(self, tmp_path):
        data = generate_gaussian_blobs(3, 5, 4, 0.7, seed=9)
        path = str(tmp_path / "round.csv")
        write_csv(data, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)


class TestTwoCluster:
    def test_requested_size_and_shape(self):
        data = generate_two_cluster_2d(3000, seed=1)
        assert len(data) == 3000
        assert data.num_classes == 2
        assert data.dimension == 2

    def test_deterministic(self):
        a = generate_two_cluster_2d(3000, seed=1)
        b = generate_two_cluster_2d(3000, seed=1)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_minimum_size_has_both_classes(self):
        data = generate_two_cluster_2d(4, seed=9)
        assert len(data) == 4
        assert set(np.unique(data.labels)) == {0, 1}

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            generate_two_cluster_2d(3, seed=0)

    def test_anchor_subpopulation_is_linearly_separable(self):
        # all class-1 mass stays left of the gap before the anchor cluster
        data = generate_two_cluster_2d(3000, seed=1)
        anchor = data.features[:, 0] > 4.5
        assert (data.labels[anchor] == 0).all()
        assert anchor.sum() > 1000


class TestBlobs:
    def test_size_bookkeeping(self):
        data = generate_gaussian_blobs(20, 100, 16, 0.5, seed=7)
        assert len(data) == 2000
        assert data.num_classes == 20
        assert data.dimension == 16

    def test_zero_spread_collapses_to_class_means(self):
        data = generate_gaussian_blobs(3, 4, 5, 0.0, seed=2)
        for cls in range(3):
            rows = data.features[data.labels == cls]
            assert np.ptp(rows, axis=0).max() == 0.0
        means = {tuple(data.features[data.labels == cls][0]) for cls in range(3)}
        assert len(means) == 3

    def test_minimum_size(self):
        data = generate_gaussian_blobs(2, 2, 1, 1.0, seed=3)
        assert len(data) == 4

    @pytest.mark.parametrize("kwargs", [
        dict(num_classes=1, per_class=5, dimension=2, spread=1.0, seed=0),
        dict(num_classes=2, per_class=1, dimension=2, spread=1.0, seed=0),
        dict(num_classes=2, per_class=5, dimension=0, spread=1.0, seed=0),
        dict(num_classes=2, per_class=5, dimension=2, spread=-0.1, seed=0),
    ])
    def test_invalid_sizes_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            generate_gaussian_blobs(**kwargs)

    def test_deterministic(self):
        a = generate_gaussian_blobs(5, 10, 3, 0.8, seed=42)
        b = generate_gaussian_blobs(5, 10, 3, 0.8, seed=42)
        np.testing.assert_array_equal(a.features, b.features)


class TestSplit:
    def test_stratified_half_split_counts(self):
        data = generate_gaussian_blobs(4, 80, 3, 1.0, seed=1)
        train, test = split_train_test(data, 0.5, seed=2, stratified=True)
        for cls in range(4):
            assert (train.labels == cls).sum() == 40
            assert (test.labels == cls).sum() == 40

    def test_smallest_stratified_split(self):
        data = generate_gaussian_blobs(3, 2, 2, 0.5, seed=1)
        train, test = split_train_test(data, 0.5, seed=0, stratified=True)
        for cls in range(3):
            assert (train.labels == cls).sum() == 1
            assert (test.labels == cls).sum() == 1

    def test_partition_property(self):
        data = generate_gaussian_blobs(3, 11, 2, 1.0, seed=5)
        train, test = split_train_test(data, 0.34, seed=7, stratified=True)
        assert len(train) + len(test) == len(data)

        def multiset(ds):
            return sorted((int(l),) + tuple(map(float, f))
                          for l, f in zip(ds.labels, ds.features))

        combined = sorted(multiset(train) + multiset(test))
        assert combined == multiset(data)

    def test_train_weights_renormalized(self):
        data = generate_gaussian_blobs(2, 10, 2, 1.0, seed=3)
        train, test = split_train_test(data, 0.3, seed=1, stratified=True)
        assert abs(train.weights.sum() - 1.0) < 1e-12
        assert abs(test.weights.sum() - 1.0) < 1e-12

    def test_singleton_class_rejected_when_stratified(self):
        features = np.array([[0.0], [1.0], [2.0]])
        data = Dataset(features, np.array([0, 0, 1]), np.full(3, 1 / 3), 2)
        with pytest.raises(ValidationError):
            split_train_test(data, 0.5, seed=0, stratified=True)

    def test_unstratified_split_covers_everything(self):
        data = generate_gaussian_blobs(2, 20, 2, 1.0, seed=9)
        train, test = split_train_test(data, 0.25, seed=4, stratified=False)
        assert len(train) == 10
        assert len(test) == 30

    def test_bad_fraction_rejected(self):
        data = generate_gaussian_blobs(2, 4, 2, 1.0, seed=0)
        for frac in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                split_train_test(data, frac, seed=0)


class TestDatasetInvariants:
    def test_arrays_are_read_only(self):
        data = generate_gaussian_blobs(2, 4, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.weights[0] = 0.5

    def test_generated_weights_sum_to_one(self):
        for seed in range(5):
            data = generate_two_cluster_2d(101, seed=seed)
            assert abs(data.weights.sum() - 1.0) < 1e-12

    def test_label_bounds_validated(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), np.array([0.5, 0.5]), 2)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 1)), np.array([0, 1]), np.array([-0.1, 1.1]), 2)

    def test_zero_weights_rejected(self):
        # a class of zero mass would have no side to take at a tree node
        with pytest.raises(ValidationError, match="positive"):
            Dataset(np.zeros((3, 1)), np.array([0, 1, 1]), np.array([0.0, 0.5, 0.5]), 2)

    def test_subset_renormalizes_and_rejects_empty(self):
        data = generate_gaussian_blobs(3, 10, 2, 1.0, seed=2)
        sub = data.subset(np.flatnonzero(data.labels != 0))
        assert abs(sub.weights.sum() - 1.0) < 1e-12
        assert sub.num_classes == 3 and sub.label_names == data.label_names
        with pytest.raises(ValidationError):
            data.subset(np.array([], dtype=np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        features = np.array([[0.0, 1.0], [2.0, bad]])
        with pytest.raises(ValidationError, match="finite"):
            Dataset(features, np.array([0, 1]), np.array([0.5, 0.5]), 2)


@pytest.mark.parametrize("seed", [-1, 1.0, True, None, "0", np.int64(1)])
@pytest.mark.parametrize("make", [
    lambda seed: generate_two_cluster_2d(10, seed),
    lambda seed: generate_gaussian_blobs(2, 4, 2, 1.0, seed),
    lambda seed: split_train_test(generate_gaussian_blobs(2, 4, 2, 1.0, 0), 0.5, seed),
], ids=["two-cluster", "blobs", "split"])
def test_seed_must_be_a_nonnegative_int(make, seed):
    with pytest.raises(ValidationError, match="seed"):
        make(seed)
