"""CSV ingestion for training data and parts lists."""

from dataclasses import asdict

import numpy as np
import pytest

from uncertlab.dataset import ingest_dataset, ingest_parts, make_dataset
from uncertlab.errors import DatasetError


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestIngestDataset:
    def test_basic_round_trip(self, tmp_path):
        path = write_csv(tmp_path,
                         "x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n")
        d = ingest_dataset(path, target="y")
        assert d.feature_names == ("x1", "x2")
        assert d.n_records == 3
        np.testing.assert_array_equal(d.x, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(d.y, [3, 6, 9])

    def test_feature_subset_and_order(self, tmp_path):
        path = write_csv(tmp_path,
                         "a,b,c,y\n1,2,3,0\n4,5,6,1\n")
        d = ingest_dataset(path, target="y", features=["c", "a"])
        assert d.feature_names == ("c", "a")
        np.testing.assert_array_equal(d.x, [[3, 1], [6, 4]])

    def test_missing_target_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DatasetError, match="target"):
            ingest_dataset(path, target="y")

    def test_missing_feature_column(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,2\n")
        with pytest.raises(DatasetError, match="q"):
            ingest_dataset(path, target="y", features=["q"])

    def test_duplicate_header(self, tmp_path):
        path = write_csv(tmp_path, "a,a,y\n1,2,3\n")
        with pytest.raises(DatasetError, match="duplicate"):
            ingest_dataset(path, target="y")

    def test_non_numeric_cell_named_by_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,2\nfoo,3\n")
        with pytest.raises(DatasetError, match=r"row 3.*'a'"):
            ingest_dataset(path, target="y")

    def test_non_finite_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,2\ninf,3\n")
        with pytest.raises(DatasetError, match="row 3"):
            ingest_dataset(path, target="y")

    def test_wrong_cell_count(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,2\n3\n")
        with pytest.raises(DatasetError, match="row 3"):
            ingest_dataset(path, target="y")

    @pytest.mark.parametrize("body, message", [
        # a non-finite cell in row 3 comes before a non-numeric one in row 5
        ("1,2\n nan ,3\n4,5\nfoo,6\n",
         "row 3, column 'a': non-finite value 'nan'"),
        # and before a short row
        ("1,2\n3,1e999\n4\n", "row 3, column 'y': non-finite value '1e999'"),
        ("1,2\n3\n4,inf\n", "row 3 has 1 cells, expected 2"),
        # within a row the columns are checked in order
        ("1,2\ninf,foo\n", "row 3, column 'a': non-finite value 'inf'"),
        ("1,2\nfoo,inf\n", "row 3, column 'a': non-numeric value 'foo'"),
        # blank lines keep their line numbers
        ("1,2\n\n , \n3,x\n", "row 5, column 'y': non-numeric value 'x'"),
    ])
    def test_first_bad_cell_in_file_order_is_reported(self, tmp_path, body,
                                                      message):
        path = write_csv(tmp_path, "a,y\n" + body)
        with pytest.raises(DatasetError) as err:
            ingest_dataset(path, target="y")
        assert str(err.value) == f"{path}: {message}"

    def test_blank_rows_skipped_and_counted(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,2\n\n3,4\n\n")
        d = ingest_dataset(path, target="y")
        assert d.n_records == 2
        assert d.n_rejected_rows == 2

    def test_empty_data_section(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n")
        with pytest.raises(DatasetError, match="no data"):
            ingest_dataset(path, target="y")

    def test_summary_statistics(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,10\n2,20\n3,30\n")
        d = ingest_dataset(path, target="y")
        s = d.summary
        assert s.n_records == 3
        a = s.features[0]
        assert a.mean == pytest.approx(2.0)
        assert a.sd == pytest.approx(1.0)
        assert (a.min, a.max) == (1.0, 3.0)
        assert s.target.mean == pytest.approx(20.0)

    def test_summary_dict_is_json_plain(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,2\n3,4\n")
        doc = asdict(ingest_dataset(path, target="y").summary)
        import json
        json.dumps(doc)  # must not raise
        assert doc["n_records"] == 2

    def test_large_file_summary_matches_two_pass_oracle(self, tmp_path):
        import math
        rng = np.random.default_rng(100)
        n = 100_000
        a = rng.uniform(-50, 50, size=n)
        y = rng.standard_normal(n) * 1e3
        lines = ["a,y"] + [f"{ai:.12g},{yi:.12g}" for ai, yi in zip(a, y)]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        d = ingest_dataset(path, target="y")
        # independent two-pass reference on the values as parsed
        for col, summary in ((d.x[:, 0], d.summary.features[0]),
                             (d.y, d.summary.target)):
            mean = math.fsum(col) / n
            var = math.fsum((v - mean) ** 2 for v in col) / (n - 1)
            assert summary.mean == pytest.approx(mean, rel=1e-9)
            assert summary.sd == pytest.approx(math.sqrt(var), rel=1e-9)


class TestIngestParts:
    def test_selects_and_orders_model_features(self, tmp_path):
        path = write_csv(tmp_path, "extra,x2,x1\n9,2,1\n9,4,3\n")
        rows = ingest_parts(path, ("x1", "x2"))
        np.testing.assert_array_equal(rows, [[1, 2], [3, 4]])

    def test_one_feature_among_other_columns(self, tmp_path):
        path = write_csv(tmp_path, "extra,x1\nfoo,1.5\nbar,-2\n")
        rows = ingest_parts(path, ("x1",))
        np.testing.assert_array_equal(rows, [[1.5], [-2.0]])

    def test_missing_feature(self, tmp_path):
        path = write_csv(tmp_path, "x1\n1\n")
        with pytest.raises(DatasetError, match="x2"):
            ingest_parts(path, ("x1", "x2"))

    def test_bad_cell_located(self, tmp_path):
        path = write_csv(tmp_path, "x1\n1\nnan\n")
        with pytest.raises(DatasetError, match="row 3"):
            ingest_parts(path, ("x1",))

    def test_duplicate_header(self, tmp_path):
        # one reader for datasets and parts: a repeated column is never
        # silently resolved to its last occurrence
        path = write_csv(tmp_path, "x1,x1\n1,2\n")
        with pytest.raises(DatasetError, match="duplicate"):
            ingest_parts(path, ("x1",))

    def test_blank_rows_skipped(self, tmp_path):
        path = write_csv(tmp_path, "x1\n1\n\n,\n2\n")
        np.testing.assert_array_equal(ingest_parts(path, ("x1",)), [[1], [2]])


class TestMakeDataset:
    def test_shape_mismatch(self):
        with pytest.raises(DatasetError):
            make_dataset(np.zeros((3, 2)), np.zeros(4), ("a", "b"))

    def test_name_count_mismatch(self):
        with pytest.raises(DatasetError):
            make_dataset(np.zeros((3, 2)), np.zeros(3), ("a",))

    def test_non_finite_rejected(self):
        x = np.array([[1.0], [np.nan]])
        with pytest.raises(DatasetError):
            make_dataset(x, np.zeros(2), ("a",))

    def test_single_record_summary_sd_zero(self):
        d = make_dataset(np.array([[2.0]]), np.array([5.0]), ("a",))
        assert d.summary.features[0].sd == 0.0
        assert d.summary.target.sd == 0.0

    @pytest.mark.parametrize("names,target,match", [
        (("t", "a"), "t", "feature 't' is the target column"),
        (("a", "a"), "y", "feature 'a' is named twice"),
    ])
    def test_feature_names_unique_and_not_the_target(self, names, target,
                                                     match):
        with pytest.raises(DatasetError, match=match):
            make_dataset(np.zeros((3, 2)), np.zeros(3), names, target)
