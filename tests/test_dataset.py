"""CSV ingestion for training data and parts lists."""

import codecs
import csv
import gc
import io
import math
import operator
import os
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from uncertlab import dataset
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

    def test_rows_wider_than_the_header(self, tmp_path):
        # numpy's stage reads every row as 3 numbers, then declines them
        path = write_csv(tmp_path, "x1,y\n1,5,7\n2,5,8\n")
        with pytest.raises(DatasetError) as err:
            ingest_dataset(path, target="y")
        assert str(err.value) == f"{path}: row 2 has 3 cells, expected 2"

    def test_target_column_alone(self, tmp_path):
        path = write_csv(tmp_path, "y\n1\n2\n")
        with pytest.raises(DatasetError) as err:
            ingest_dataset(path, target="y")
        assert str(err.value) == (f"{path}: no feature columns besides "
                                  "the target")

    def test_bad_cell_comes_before_a_csv_error_further_down(self, tmp_path):
        # the csv pass converts each row as it reads it
        long = "9" * (csv.field_size_limit() + 1)
        path = write_csv(tmp_path, f"a,y\n1,x\n1,{long}\n")
        with pytest.raises(DatasetError) as err:
            ingest_dataset(path, target="y")
        assert str(err.value) == f"{path}: row 2, column 'y': " \
            "non-numeric value 'x'"

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
        assert a.mean == pytest.approx(2.0, abs=0.0)
        assert a.sd == pytest.approx(1.0, abs=0.0)
        assert (a.min, a.max) == (1.0, 3.0)
        assert s.target.mean == pytest.approx(20.0, abs=0.0)

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
            assert summary.mean == pytest.approx(mean, rel=1e-9, abs=0.0)
            assert summary.sd == pytest.approx(math.sqrt(var),
                                               rel=1e-9, abs=0.0)


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


# ---------------------------------------------------------------------------
# The two-stage reader against the row-by-row reader it extends
# ---------------------------------------------------------------------------

def _row_parse_cell(path, lineno, column, raw):
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        raise DatasetError(f"{path}: row {lineno}, column {column!r}: "
                           f"non-numeric value {raw!r}") from None
    if not math.isfinite(value):
        raise DatasetError(f"{path}: row {lineno}, column {column!r}: "
                           f"non-finite value {raw!r}")


def row_by_row_read_csv(path, kind, choose):
    """A frozen copy of the csv-only reader that numpy's stage now runs
    in front of: csv.reader, itemgetter, fromiter(map(float)), and a
    replay row by row where that fails."""
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise DatasetError(f"cannot read {kind} {path!r}: {err}") from err
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        seen = set()
        for h in header:
            if h in seen:
                raise DatasetError(f"{path}: duplicate header column {h!r}")
            seen.add(h)
        names = choose(header)
        missing = [n for n in names if n not in seen]
        if missing:
            raise DatasetError(
                f"{path}: feature column(s) not found: {', '.join(missing)}")
        columns = [(n, header.index(n)) for n in names]
        pick = operator.itemgetter(*[i for _, i in columns])
        cells = []
        add = cells.extend if len(columns) > 1 else cells.append
        kept = []
        blank = 0
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                blank += 1
                continue
            kept.append((lineno, row))
            if len(row) != len(header):
                break
            add(pick(row))
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
        valid = (len(cells) == len(kept) * len(columns)
                 and bool(np.isfinite(values).all()))
    except ValueError:
        valid = False
    if not valid:
        for lineno, row in kept:
            if len(row) != len(header):
                raise DatasetError(f"{path}: row {lineno} has {len(row)} "
                                   f"cells, expected {len(header)}")
            for n, i in columns:
                _row_parse_cell(path, lineno, n, row[i])
    if not kept:
        raise DatasetError(f"{path}: no data rows")
    return names, values.reshape(len(kept), len(columns)), blank


def _number_strings():
    """Numbers as files hold them: repr, %.17g, %.3e, short decimals,
    and the edges of the double range."""
    rng = np.random.default_rng(37)
    v = np.concatenate([rng.standard_normal(300) * 10.0 ** rng.integers(
        -30, 30, 300), rng.uniform(-1e3, 1e3, 300)]).tolist()
    return ([repr(x) for x in v] + [f"{x:.17g}" for x in v]
            + [f"{x:.3e}" for x in v] + [f"{x:.6f}" for x in v]
            + ["0", "-0.0", "+1", ".5", "5.", "1E5", "1e+05", "-.5e-3",
               "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
               "0.1000000000000000055511151231257827", "9007199254740993"])


def _numbers_file():
    cells = _number_strings()
    cells += ["1"] * (-len(cells) % 3)
    return "a,b,c\n" + "".join(f"{cells[i]},{cells[i + 1]},{cells[i + 2]}\n"
                               for i in range(0, len(cells), 3))


ALL = None   # choose every header column, in file order
READER_CORPUS = {
    "plain": ("a,b,c\n1,2,3\n4,5,6\n", ALL),
    "numbers": (_numbers_file(), ALL),
    "numbers_reordered": (_numbers_file(), ["c", "a"]),
    "reordered": ("a,b,c\n1,2,3\n4,5,6\n", ["c", "a"]),
    "one_column": ("a\n1\n\n2\n", ALL),
    "one_of_many": ("id,a\nfoo,1\nbar,2\n", ["a"]),
    "no_final_newline": ("a,b\n1,2\n3,4", ALL),
    "blank_lines": ("a,b\n\n1,2\n\n\n3,4\n\n", ALL),
    "whitespace_lines": ("a,b\n1,2\n  \t\n3,4\n\x0c\n", ALL),
    "comma_rows": ("a,b,c,d\n1,2,3,4\n,,,\n , ,,\n5,6,7,8\n", ALL),
    "one_column_comma": ("a\n1\n,\n2\n", ALL),
    "quoted": ('a,b\n"1",2\n3,"4"\n', ALL),
    "quoted_other_column": ('a,b,note\n1,2,"x, y"\n3,4,"two\nlines"\n5,6,z\n',
                            ["a", "b"]),
    "quoted_header": ('"a\nb",c\n1,2\n', ["a\nb", "c"]),
    "crlf": ("a,b\r\n1,2\r\n\r\n3,4\r\n", ALL),
    "lone_cr": ("a,b\r1,2\r\r3,4\r", ALL),
    "mixed_ends": ("a,b\r\n1,2\n3,4\r\r\n5,6", ALL),
    "nul_line": ("a,b\n1,2\n\x00\n3,4\n", ALL),
    "nul_cell": ("a,b\n1,2\x00\n", ALL),
    "bom_header": ("\ufeffa,b\n1,2\n", ALL),
    "bom_header_chosen": ("\ufeffa,b\n1,2\n", ["\ufeffa"]),
    "bom_cell": ("a,b\n\ufeff1,2\n", ALL),
    "underscore": ("a,b\n1_0,2\n", ALL),
    "non_ascii_digits": ("a,b\n\u0661\u0662,\u0663\n", ALL),
    "unicode_space": ("a,b\n\xa01\u3000,2\x0c\n\u2028\n3,\x855\n", ALL),
    "line_separator": ("a,b\n1\u20282,3\n", ALL),
    "overflow": ("a,b\n1,2\n1e400,3\n", ALL),
    "nan": ("a,b\nnan,2\n", ALL),
    "inf": ("a,b\n1, -Infinity \n", ALL),
    "nan_unselected": ("a,b,c\n1,2,nan\n", ["a", "b"]),
    "hex": ("a,b\n0x10,2\n", ALL),
    "trailing_comma": ("a,b\n1,2,\n", ALL),
    "short_row": ("a,b\n1,2\n3\n", ALL),
    "long_row": ("a,b\n1,2\n3,4,5\n", ALL),
    "bad_then_short": ("a,b\n1,x\n3\n", ALL),
    "header_only": ("a,b\n", ALL),
    "header_only_no_newline": ("a,b", ALL),
    "header_and_blanks": ("a,b\n\n\r\n", ALL),
    "empty_file": ("", ALL),
    "duplicate_header": ("a,a\n1,2\n", ALL),
    "missing_column": ("a,b\n1,2\n", ["q"]),
}


@pytest.mark.parametrize("name", sorted(READER_CORPUS))
def test_reader_matches_the_row_by_row_reader(tmp_path, name):
    text, chosen = READER_CORPUS[name]
    path = str(tmp_path / f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)

    def choose(header):
        return list(header) if chosen is ALL else list(chosen)

    results = []
    for read in (dataset._read_csv, row_by_row_read_csv):
        try:
            results.append(read(path, "dataset", choose))
        except Exception as err:
            results.append(err)
    new, old = results
    if isinstance(old, csv.Error):
        # such as Python 3.10's "line contains NUL": once a raw traceback,
        # now a DatasetError that names the line
        assert type(new) is DatasetError and str(new).endswith(f": {old}")
    elif isinstance(old, Exception):
        assert (type(new), str(new)) == (type(old), str(old))
    else:
        assert not isinstance(new, Exception), new
        assert (new[0], new[2]) == (old[0], old[2])
        assert new[1].shape == old[1].shape
        assert new[1].tobytes() == old[1].tobytes()


def test_numbers_parse_to_the_bits_of_float(tmp_path):
    # the numbers file is accepted by numpy's stage itself
    path = write_csv(tmp_path, _numbers_file())
    with open(path, newline="") as fh:
        next(fh)
        values = dataset._read_numbers(fh, 3, [0, 1, 2])
    cells = _number_strings()
    want = np.array([float(c) for c in cells + ["1"] * (-len(cells) % 3)])
    assert values.tobytes() == want.tobytes()


@pytest.mark.parametrize("ends", [("\r", "\n"), ("\r", "x"), ("\n", "\r")])
def test_line_count_across_read_chunks(ends):
    # the 2**20-byte reads split the file between ends[0] and ends[1]
    head = "1,2\n" * (2**18 - 1) + "123" + ends[0]
    text = head + ends[1] + "3,4\r\n\r5,6"
    assert len(head.encode()) == 2**20
    lines = io.StringIO(text, newline="").readlines()
    longest = max(len(line.rstrip("\r\n")) for line in lines)
    for limit in (longest - 1, longest):
        assert dataset._count_lines(io.BytesIO(text.encode()), limit) == \
            (len(lines), limit < longest)


@pytest.mark.parametrize("before", [2**20 - 5, 2**20 - 150_000, 2**20 + 7])
def test_line_past_the_limit_across_read_chunks(before):
    # a 200,000-byte line that starts ``before`` bytes into the file
    text = (("1" * 9 + "\n") * (before // 10) + "\r" * (before % 10)
            + "2" * 200_000 + "\r\n3\n")
    for limit in (199_999, 200_000):
        assert dataset._count_lines(io.BytesIO(text.encode()), limit)[1] == \
            (limit < 200_000)


class TestReaderStages:
    def spy(self, monkeypatch):
        """Record what numpy's stage returns on each call."""
        seen = []
        stage = dataset._read_numbers

        def spied(*args):
            seen.append(stage(*args))
            return seen[-1]
        monkeypatch.setattr(dataset, "_read_numbers", spied)
        return seen

    def test_clean_file_is_read_by_numpy(self, tmp_path, monkeypatch):
        seen = self.spy(monkeypatch)
        path = write_csv(tmp_path, "a,y\n1,2\n\n3,4\n")
        d = ingest_dataset(path, target="y")
        assert len(seen) == 1 and seen[0] is not None
        assert d.n_rejected_rows == 1

    def test_quoted_cells_fall_back_to_csv(self, tmp_path, monkeypatch):
        seen = self.spy(monkeypatch)
        path = write_csv(tmp_path, 'id,x1\n"a, b",1.5\n\n"c",-2\n')
        rows = ingest_parts(path, ("x1",))
        # numpy refused the quoted column; csv read the file
        assert seen == [None]
        np.testing.assert_array_equal(rows, [[1.5], [-2.0]])

    @pytest.mark.parametrize("text, by_numpy", [
        ("a,y\n5\x1c,2\x1f\n", True), ('a,y,note\n5\x1c,2\x1f,"q"\n', False)])
    def test_separator_edged_cell_reads_as_stripped(self, tmp_path,
                                                    monkeypatch, text,
                                                    by_numpy):
        # strip and numpy remove \x1c-\x1f around a number, float alone
        # does not: the row-by-row reader found no bad cell in its replay
        # and then failed on values it never assigned
        seen = self.spy(monkeypatch)
        d = ingest_dataset(write_csv(tmp_path, text), target="y",
                           features=["a"])
        assert (seen[0] is not None) == by_numpy
        assert (d.x.tolist(), d.y.tolist()) == ([[5.0]], [2.0])

    def test_bad_cell_after_many_rows_is_found_by_csv(self, tmp_path):
        # numpy stops deep in the file; csv reads it again from the start
        lines = [f"{i}.5,{i}" for i in range(50_000)]
        lines[40_000] = "1,x"
        path = write_csv(tmp_path, "a,y\n" + "\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as err:
            ingest_dataset(path, target="y")
        assert str(err.value) == \
            f"{path}: row 40002, column 'y': non-numeric value 'x'"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_pipe_is_read_once_by_csv(self, tmp_path, monkeypatch):
        # a pipe cannot be read twice, so numpy's stage is not tried
        seen = self.spy(monkeypatch)
        path = str(tmp_path / "parts.csv")
        os.mkfifo(path)

        def write():
            with open(path, "w") as fh:
                fh.write("x1\n1\n\n2\n")
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        rows = ingest_parts(path, ("x1",))
        writer.join(timeout=10)
        assert not writer.is_alive() and seen == []
        np.testing.assert_array_equal(rows, [[1.0], [2.0]])


class TestReaderMemory:
    ROWS = 1_000_000

    def test_peak_is_the_table_and_its_selection(self, tmp_path):
        rng = np.random.default_rng(5)
        block = np.round(10.0 + 3.0 * rng.standard_normal((1000, 3)), 6)
        path = write_csv(tmp_path, "x1,x2,x3\n" + "".join(
            f"{a!r},{b!r},{c!r}\n" for a, b, c in block.tolist())
            * (self.ROWS // 1000))
        # with the collector off, a reference cycle keeps what it holds
        gc.disable()
        tracemalloc.start()
        try:
            rows = ingest_parts(path, ("x3", "x1"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert rows.tobytes() == np.tile(block[:, [2, 0]],
                                         (self.ROWS // 1000, 1)).tobytes()
        # 24 MB of numbers read and 16 MB selected (43 MB measured); the
        # row-by-row reader peaked near 390 MB
        assert peak < 8 * self.ROWS * (3 + 2) * 1.25

    def test_text_column_peak_is_the_table(self, tmp_path):
        rows = 100_000
        rng = np.random.default_rng(41)
        block = np.round(10.0 + 3.0 * rng.standard_normal((rows, 3)), 6)
        path = write_csv(tmp_path, "part_id,x1,x2,x3\n" + "".join(
            f"P{i:07d},{a!r},{b!r},{c!r}\n"
            for i, (a, b, c) in enumerate(block.tolist())))
        gc.disable()
        tracemalloc.start()
        try:
            table = ingest_parts(path, ("x3", "x1"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert table.tobytes() == block[:, [2, 0]].tobytes()
        # the csv pass holds the table and one row's cells: 1.6 MB of
        # numbers, 1.7 MB measured; keeping every cell as a string until
        # the end of the file peaked at 44 MB
        assert peak < 2 * table.nbytes


class TestUnreadableFiles:
    """Decoding and csv errors are DatasetErrors naming file and line."""

    @staticmethod
    def read(kind, path):
        if kind == "dataset":
            return ingest_dataset(path, target="y")
        return ingest_parts(path, ("a",))

    @staticmethod
    def write_bytes(tmp_path, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        return str(path)

    @pytest.mark.parametrize("kind", ["dataset", "parts"])
    @pytest.mark.parametrize("data, line, byte, reason", [
        # a CP-1252 export read as UTF-8, in the body and in the header
        (b"a,y\n1,2\n\xff3,4\n", 3, "0xff", "invalid start byte"),
        (b"a\xe9,a,y\n1,2,3\n", 1, "0xe9", "invalid continuation byte"),
        # every line end csv knows counts, also past the decoder's chunk
        (b"a,y\r1,2\r\n\r" + b"3,4\n" * 5000 + b"5,\xe96\n", 5004, "0xe9",
         "invalid continuation byte")])
    def test_undecodable_byte_names_its_line(self, tmp_path, kind, data,
                                             line, byte, reason):
        path = self.write_bytes(tmp_path, data)
        with open(path) as fh:
            encoding = fh.encoding
        if codecs.lookup(encoding).name != "utf-8":
            pytest.skip(f"the locale's encoding is {encoding}")
        with pytest.raises(DatasetError) as err:
            self.read(kind, path)
        assert str(err.value) == (f"{path}: line {line}: not {encoding} "
                                  f"text: byte {byte}, {reason}")

    @pytest.mark.parametrize("kind", ["dataset", "parts"])
    @pytest.mark.parametrize("text, line", [
        # a quoted cell sends the file to csv, which caps a cell's length
        ('a,y\n"1",2\n' + "1" * 140_000 + ",3\n", 3),
        # without one, numpy's stage declines the line past the cap
        ("a,y\n1,2\n0." + "0" * 140_000 + "1,3\n", 3),
        ("a" * 140_000 + ",y\n1,2\n", 1)])
    def test_cell_past_csv_field_limit_names_its_line(self, tmp_path, kind,
                                                      text, line):
        path = write_csv(tmp_path, text)
        with pytest.raises(DatasetError) as err:
            self.read(kind, path)
        assert str(err.value) == (f"{path}: line {line}: field larger than "
                                  f"field limit ({csv.field_size_limit()})")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_undecodable_pipe_names_no_line(self, tmp_path):
        # a pipe cannot be decoded again to find the line
        path = str(tmp_path / "parts.csv")
        os.mkfifo(path)

        def write():
            with open(path, "wb") as fh:
                fh.write(b"a\n1\n\xff\n")
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        with pytest.raises(DatasetError) as err:
            ingest_parts(path, ("a",))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(err.value).startswith(f"{path}: not ")
        assert str(err.value).endswith(" text: byte 0xff, invalid start byte")
