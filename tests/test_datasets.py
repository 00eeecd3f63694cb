import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reuselab as rl
from reuselab.datasets import (
    CIRCLE_R_INNER,
    FOUR_CLUSTER_EDGES,
    NUMERIC,
    ONE_HOT,
    DatasetSpec,
    export_csv,
    parse_csv,
)
from reuselab.errors import (
    DataFormatError,
    InvalidArgumentError,
    SingleClassDataError,
    UnknownCategoryError,
)
from reuselab.standins import car_schema, mushroom_schema


def four_cluster_label(x: float) -> int:
    """Label of a 1-D position under the +,-,+,- four-cluster layout."""
    if x < -7.0:
        return 1
    if x < 0.0:
        return -1
    if x < 7.0:
        return 1
    return -1


def circle_label(point) -> int:
    """Label of a 2-D position in the two-clusters-plus-ring layout.

    Inside the central square the halves split at x=0 (-1 left, +1 right);
    ring points carry the label opposite to the nearest half.
    """
    x = float(point[0])
    on_ring = math.hypot(float(point[0]), float(point[1])) >= CIRCLE_R_INNER
    cluster = -1 if x < 0.0 else 1
    return -cluster if on_ring else cluster


def one_hot_blocks(dataset):
    """Column ranges [start, stop) of the one-hot blocks, by source column."""
    blocks = []
    start = None
    source = None
    for j, kind in enumerate(dataset.feature_kinds + (NUMERIC,)):
        col_source = dataset.feature_names[j].split("=")[0] if j < dataset.dim else None
        if kind == ONE_HOT and source == col_source:
            continue
        if start is not None:
            blocks.append((start, j))
            start = None
            source = None
        if kind == ONE_HOT:
            start = j
            source = col_source
    return blocks


def binomial_band(p, n, sigmas=5):
    half = sigmas * math.sqrt(p * (1 - p) / n)
    return p - half, p + half


class TestDataset:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected(self, value):
        x = np.array([[0.1, 0.2], [0.3, value], [0.5, 0.6]])
        with pytest.raises(InvalidArgumentError, match="^features must be finite numbers$"):
            rl.Dataset(x, np.array([1, -1, 1]))

    @pytest.mark.parametrize("x, y, metadata, match", [
        (np.empty((0, 1)), [], {}, "dataset needs a non-empty"),
        ([[0.1], [0.2]], [1, -1, 1], {}, "labels must align with instances"),
        ([[0.1], [0.2]], [1, 0], {}, r"labels must be -1 or \+1"),
        ([[0.1], [0.2]], [1, -1], {"feature_names": ("a", "b")}, "metadata must match dim"),
    ], ids=["empty", "misaligned", "label-0", "metadata"])
    def test_malformed_dataset_rejected(self, x, y, metadata, match):
        with pytest.raises(InvalidArgumentError, match=match):
            rl.Dataset(np.asarray(x), np.asarray(y), **metadata)


class TestUniformLine:
    def test_sign_rule_and_shape(self):
        ds = rl.gen_uniform_line(4, seed=1)
        assert len(ds) == 4 and ds.dim == 1
        assert np.all(ds.y == np.where(ds.x[:, 0] < 0, -1, 1))

    def test_class_balance_at_scale(self):
        ds = rl.gen_uniform_line(10**5, seed=2)
        assert 0.49 <= ds.positive_fraction() <= 0.51

    def test_deterministic_under_seed(self):
        a = rl.gen_uniform_line(1000, seed=3)
        b = rl.gen_uniform_line(1000, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_rejects_tiny_n(self):
        with pytest.raises(InvalidArgumentError):
            rl.gen_uniform_line(0, seed=1)


class TestFourClusterLine:
    def test_middle_left_cluster_is_negative(self):
        ds = rl.gen_four_cluster_line(5000, seed=4)
        mask = (ds.x[:, 0] >= -7) & (ds.x[:, 0] < 0)
        assert mask.any()
        assert np.all(ds.y[mask] == -1)

    def test_edge_cluster_mass(self):
        ds = rl.gen_four_cluster_line(10**5, seed=5)
        frac = float(np.mean(ds.x[:, 0] >= 7))
        assert 0.007 <= frac <= 0.013

    def test_positive_fraction_is_half(self):
        ds = rl.gen_four_cluster_line(10**5, seed=6)
        assert 0.49 <= ds.positive_fraction() <= 0.51

    def test_labels_rederivable_from_position(self):
        ds = rl.gen_four_cluster_line(5000, seed=7)
        rederived = np.array([four_cluster_label(x) for x in ds.x[:, 0]])
        assert np.array_equal(rederived, ds.y)

    def test_support_is_respected(self):
        ds = rl.gen_four_cluster_line(20000, seed=8)
        assert ds.x.min() >= FOUR_CLUSTER_EDGES[0]
        assert ds.x.max() <= FOUR_CLUSTER_EDGES[-1]


    def test_rejects_tiny_n(self):
        with pytest.raises(InvalidArgumentError, match="n must be at least 4"):
            rl.gen_four_cluster_line(3, seed=1)


class TestCircle:
    def test_ring_point_has_flipped_label(self):
        assert circle_label((-10.0, 0.0)) == 1
        assert circle_label((10.0, 0.0)) == -1
        assert circle_label((-0.5, 0.5)) == -1

    def test_ring_fraction(self):
        ds = rl.gen_circle(10**6, circle_prob=0.001, seed=9)
        radius = np.linalg.norm(ds.x, axis=1)
        frac = float(np.mean(radius >= 9.0))
        assert 0.0015 <= frac <= 0.0025

    def test_ring_radii_within_annulus(self):
        ds = rl.gen_circle(10**5, circle_prob=0.01, seed=10)
        radius = np.linalg.norm(ds.x, axis=1)
        ring = radius[radius > 2.0]
        assert ring.size > 0
        assert np.all((ring >= 9.9) & (ring <= 10.2))

    def test_labels_rederivable(self):
        ds = rl.gen_circle(20000, circle_prob=0.01, seed=11)
        rederived = np.array([circle_label(p) for p in ds.x])
        assert np.array_equal(rederived, ds.y)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.7, -0.1])
    def test_rejects_bad_circle_prob(self, p):
        with pytest.raises(InvalidArgumentError):
            rl.gen_circle(100, circle_prob=p, seed=1)


class TestLoadCsv:
    def test_tiny_categorical_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("color,label\nred,yes\nblue,no\nred,yes\n")
        ds = rl.load_csv(path, "label", ("yes",), {"color": "categorical"})
        assert ds.dim == 2
        assert ds.feature_kinds == (ONE_HOT, ONE_HOT)
        # row order preserved; levels sorted (blue before red)
        assert np.array_equal(ds.x, [[0, 1], [1, 0], [0, 1]])
        assert np.array_equal(ds.y, [1, -1, 1])

    def test_car_like_statistics(self, car_like_path):
        ds = rl.load_csv(car_like_path, "class", ("acc",), car_schema())
        assert len(ds) == 1728
        assert abs(ds.positive_fraction() - 0.300) < 0.001

    def test_mushroom_like_statistics(self, mushroom_like_path):
        ds = rl.load_csv(mushroom_like_path, "class", ("e",), mushroom_schema())
        assert len(ds) == 8124
        assert abs(ds.positive_fraction() - 0.518) < 0.001
        # the '?' level of the stalk-root-like column is just another category
        assert any(name.endswith("=?") for name in ds.feature_names)

    def test_one_hot_blocks_sum_to_one(self, car_like_path):
        ds = rl.load_csv(car_like_path, "class", ("acc",), car_schema())
        blocks = one_hot_blocks(ds)
        assert len(blocks) == 6
        for a, b in blocks:
            assert np.array_equal(ds.x[:, a:b].sum(axis=1), np.ones(len(ds)))

    def test_numeric_and_categorical_mix(self, tmp_path):
        path = tmp_path / "mix.csv"
        path.write_text("age,color,label\n1.5,red,y\n2.5,blue,n\n0.5,red,y\n")
        ds = rl.load_csv(path, "label", "y", {"age": "numeric", "color": "categorical"})
        assert ds.feature_kinds == (NUMERIC, ONE_HOT, ONE_HOT)
        assert np.array_equal(ds.x[:, 0], [1.5, 2.5, 0.5])

    def test_label_only_file(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("label\ny\nn\n")
        with pytest.raises(DataFormatError, match="no feature columns"):
            rl.load_csv(path, "label", "y", {})

    def test_missing_file_is_distinct_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            rl.load_csv(tmp_path / "absent.csv", "label", "y", {})

    def test_unparseable_numeric_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,label\nnotanumber,y\n2.0,n\n")
        with pytest.raises(DataFormatError):
            rl.load_csv(path, "label", "y", {"age": "numeric"})

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,label\n1,2,y\n3,n\n")
        with pytest.raises(DataFormatError):
            rl.load_csv(path, "label", "y", {"a": "numeric", "b": "numeric"})

    def test_single_class_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,label\n1,y\n2,y\n")
        with pytest.raises(SingleClassDataError):
            rl.load_csv(path, "label", "y", {"a": "numeric"})

    def test_undeclared_category(self, tmp_path):
        path = tmp_path / "lvl.csv"
        path.write_text("c,label\nred,y\ngreen,n\n")
        schema = {"c": {"kind": "categorical", "levels": ["red", "blue"]}}
        with pytest.raises(UnknownCategoryError):
            rl.load_csv(path, "label", "y", schema)

    @pytest.mark.parametrize("entry", [
        "text", 5, {"kind": "numeric"}, {"kind": "categorical", "levels": 5},
        {"kind": "categorical", "levels": None}, {"kind": "categorical", "levels": "rg"},
        {"kind": "categorical", "levels": []}, {"kind": "categorical", "levels": ["r", "r"]},
        {"kind": "categorical", "levels": ["r", 1]}, {"kind": "categorical", "order": ["r"]},
    ], ids=["text", "5", "kind-numeric", "levels-5", "levels-null", "levels-string",
            "levels-empty", "levels-repeated", "levels-int", "extra-key"])
    def test_bad_schema_entry(self, tmp_path, entry):
        path = tmp_path / "lvl.csv"
        path.write_text("c,label\nr,y\ng,n\n")
        with pytest.raises(DataFormatError, match="column 'c': schema entry must be"):
            rl.load_csv(path, "label", "y", {"c": entry})
        with pytest.raises(InvalidArgumentError, match="column 'c': schema entry must be"):
            DatasetSpec(kind="csv", path=str(path), positive_values=["y"], schema={"c": entry})

    @pytest.mark.parametrize("index", [3, 7, -4])
    def test_label_column_index_out_of_range(self, tmp_path, index):
        path = tmp_path / "three.csv"
        path.write_text("a,b,label\n1,2,y\n3,4,n\n")
        with pytest.raises(DataFormatError, match=f"label column index {index} is out of range"):
            rl.load_csv(path, index, "y", {"a": "numeric", "b": "numeric"})

    def test_negative_label_column_index_counts_from_the_end(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("a,b,label\n1,2,y\n3,4,n\n")
        ds = rl.load_csv(path, -1, "y", {"a": "numeric", "b": "numeric"})
        assert ds.y.tolist() == [1, -1]

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "nohead.csv"
        path.write_text("1.0,y\n2.0,n\n")
        ds = rl.load_csv(path, 1, "y", {"0": "numeric"}, header=False)
        assert len(ds) == 2 and ds.dim == 1

    @pytest.mark.parametrize("header", [True, False])
    def test_empty_file(self, tmp_path, header):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty file"):
            rl.load_csv(path, 0, "y", {}, header=header)

    def test_duplicate_column_names(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a,label\n1,5,y\n2,6,n\n3,7,y\n")
        with pytest.raises(DataFormatError, match=r"duplicate column names \['a'\]"):
            rl.load_csv(path, "label", "y", {"a": "numeric"})

    @pytest.mark.parametrize("content, schema, match", [
        (b"a,label\n", {"a": "numeric"}, "no data rows"),
        (b"a,b\n1,y\n2,n\n", {"a": "numeric"}, "no label column 'label'"),
        (b"a,b,label\n1,2,y\n3,4,n\n", {"a": "numeric"}, "column 'b' missing from schema"),
        (b"a,label\n1,y\n2,n\n", {"a": "numeric", "z": "numeric"},
         "schema mentions unknown column 'z'"),
        (b"a,label\ncaf\xe9,y\n2,n\n", {"a": "categorical"},
         "'utf-8' codec can't decode byte 0xe9"),
    ], ids=["no-rows", "no-label", "unlisted-column", "unknown-column", "not-utf8"])
    def test_malformed_file_rejected(self, tmp_path, content, schema, match):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(DataFormatError, match=match):
            rl.load_csv(path, "label", "y", schema)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_numeric_value(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"a,b,label\n1,2,y\n3,{value},n\n")
        with pytest.raises(DataFormatError, match=f"row 1, column 'b': not finite: '{value}'"):
            rl.load_csv(path, "label", "y", {"a": "numeric", "b": "numeric"})


class TestSplit:
    def test_small_split_sizes(self):
        ds = rl.gen_uniform_line(10, seed=12)
        pair = rl.split(ds, 0.2, seed=13)
        assert len(pair.test) == 2 and len(pair.train) == 8

    def test_car_like_test_prop(self, car_like_path):
        ds = rl.load_csv(car_like_path, "class", ("acc",), car_schema())
        pair = rl.split(ds, 0.10, seed=14)
        assert len(pair.test) in (172, 173)

    def test_deterministic(self):
        ds = rl.gen_uniform_line(100, seed=15)
        a = rl.split(ds, 0.3, seed=16)
        b = rl.split(ds, 0.3, seed=16)
        assert np.array_equal(a.train.x, b.train.x)
        assert np.array_equal(a.test.x, b.test.x)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_is_a_partition(self, seed):
        ds = rl.gen_uniform_line(50, seed=17)
        pair = rl.split(ds, 0.25, seed=seed)
        combined = np.concatenate([pair.train.x[:, 0], pair.test.x[:, 0]])
        assert np.array_equal(np.sort(combined), np.sort(ds.x[:, 0]))

    def test_degenerate_props_rejected(self):
        ds = rl.gen_uniform_line(10, seed=18)
        for bad in (0.0, 1.0, 0.01, 0.99):
            with pytest.raises(InvalidArgumentError):
                rl.split(ds, bad, seed=1)

    def test_non_integer_seed_rejected(self):
        ds = rl.gen_uniform_line(10, seed=18)
        with pytest.raises(InvalidArgumentError, match="split seed must be an integer, not 1.5"):
            rl.split(ds, 0.3, seed=1.5)

    def test_non_boolean_scale_numeric_rejected(self):
        ds = rl.gen_uniform_line(10, seed=18)
        for bad in ("no", 0, 1, None):
            with pytest.raises(InvalidArgumentError, match="scale_numeric"):
                rl.split(ds, 0.5, seed=1, scale_numeric=bad)

    @pytest.mark.parametrize("scale", [False, True])
    def test_parsed_table_splits_as_its_dataset(self, tmp_path, car_like_path, scale):
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("a,c,b,d,label\n1.5,x,2,p,y\n-3,z,0.25,q,n\n7,x,1,q,y\n"
                         "0,y,8,p,n\n2,z,2,p,y\n")
        schema = {"a": "numeric", "b": "numeric", "d": "categorical",
                  "c": {"kind": "categorical", "levels": ["z", "x", "y", "w"]}}
        for args in ((mixed, "label", "y", schema), (car_like_path, "class", ("acc",), car_schema())):
            table, dataset = parse_csv(*args), rl.load_csv(*args)
            for seed in (1, 2):
                by_table = rl.split(table, 0.4, seed, scale)
                by_dataset = rl.split(dataset, 0.4, seed, scale)
                for side in ("train", "test"):
                    got, want = getattr(by_table, side), getattr(by_dataset, side)
                    assert got.x.flags.c_contiguous and want.x.flags.c_contiguous
                    assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
                    assert got.feature_kinds == want.feature_kinds
                    assert got.feature_names == want.feature_names

    def test_numeric_scaling_uses_train_stats(self, tmp_path):
        path = tmp_path / "scale.csv"
        rows = ["x,label"] + [f"{v},{'y' if v % 2 else 'n'}" for v in range(20)]
        path.write_text("\n".join(rows) + "\n")
        ds = rl.load_csv(path, "label", "y", {"x": "numeric"})
        pair = rl.split(ds, 0.25, seed=19, scale_numeric=True)
        assert pair.train.x.min() == 0.0 and pair.train.x.max() == 1.0
        # test side is scaled by train statistics, so it may poke outside [0,1]
        lo = pair.train.x.min()
        assert pair.test.x.min() >= -1.0


class TestSpecAndExport:
    def test_export_then_load_round_trip(self, tmp_path):
        ds = rl.gen_circle(50, circle_prob=0.01, seed=20)
        path = tmp_path / "ring.csv"
        export_csv(ds, path)
        back = rl.load_csv(path, "label", "1", {"f0": "numeric", "f1": "numeric"})
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    # A run draws its pool from the spec that its trace headers record, so
    # every kind must come back from to_dict unchanged and build the same pool.
    @pytest.mark.parametrize("fields", [
        {"kind": "uniform-line", "n": 60, "seed": 4},
        {"kind": "four-cluster-line", "n": 60, "seed": 6},
        {"kind": "circle", "n": 100, "circle_prob": 0.002, "seed": 5},
        {"kind": "csv", "label_column": 2, "positive_values": ["a", "b"], "header": False,
         "schema": {"0": "numeric", "1": {"kind": "categorical", "levels": ["p", "q", "r"]}},
         "scale_numeric": False},
    ], ids=lambda fields: fields["kind"])
    def test_spec_round_trip(self, tmp_path, fields):
        if fields["kind"] == "csv":
            path = tmp_path / "plain.csv"
            path.write_text("0.5,p,a\n1.5,q,c\n-2.0,p,b\n3.0,r,c\n")
            fields = {**fields, "path": str(path)}
        spec = DatasetSpec(**fields)
        again = DatasetSpec.from_dict(spec.to_dict())
        assert again == spec
        pool, pool_again = rl.make_dataset(spec), rl.make_dataset(again)
        assert np.array_equal(pool.x, pool_again.x) and np.array_equal(pool.y, pool_again.y)

    def test_spec_without_kind_rejected(self):
        with pytest.raises(InvalidArgumentError, match="kind"):
            DatasetSpec.from_dict({"n": 10, "seed": 1})

    @pytest.mark.parametrize("fields, match", [
        ({"kind": "bogus", "n": 10}, "unknown dataset kind 'bogus'"),
        ({"kind": "csv"}, "csv dataset spec needs a path"),
        ({"kind": "circle", "n": 0}, "generated dataset spec needs n > 0"),
        ({"kind": "circle", "n": 10, "seed": "1"}, "dataset seed must be an integer or null"),
    ], ids=["kind", "csv-path", "n-0", "seed-string"])
    def test_bad_spec_rejected(self, fields, match):
        with pytest.raises(InvalidArgumentError, match=match):
            DatasetSpec(**fields)

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(InvalidArgumentError):
            DatasetSpec.from_dict({"kind": "circle", "n": 10, "bogus": 1})

    def test_make_dataset_needs_seed(self):
        with pytest.raises(InvalidArgumentError):
            rl.make_dataset(DatasetSpec(kind="uniform-line", n=10))
