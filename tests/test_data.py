import csv
import io
import os
import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infosel import data
from infosel.data import (BinningError, DataError, DiscreteDataset, RawTable, SplitSpec,
                          apply_binning, discretize, equal_width_edges, fit_binning, load_csv,
                          make_splits, make_xor_table, toy_dataset, toy_table)

from util import fixed_order_benchmark, ref_first_appearance, ref_load_csv, ref_numeric_codes


def narrow_dtype(arities):
    """The one dtype of binned codes: uint8 while every arity is at most 256,
    uint16 while every one is at most 2**16, int64 above; uint8 for no columns."""
    top = max(arities, default=1)
    return np.uint8 if top <= 256 else np.uint16 if top <= 1 << 16 else np.int64


@pytest.fixture
def toy_csv():
    return Path(__file__).resolve().parents[1] / "data" / "toy.csv"


class TestLoadCsv:
    def test_toy_round_trip(self, toy_csv):
        table = load_csv(toy_csv, "Y")
        assert table.n_rows == 10
        assert table.feature_names == ("X1", "X2", "X3", "X4", "X5")
        assert all(k == "numeric" for k in table.kinds)
        # the checked-in file holds the embedded table, column for column
        _assert_same(table, toy_table())

    def test_header_only_is_empty_table(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b,Y\n")
        with pytest.raises(DataError, match="empty table"):
            load_csv(p, "Y")

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b,Y\n1,2,0\n1,2\n")
        with pytest.raises(DataError, match="ragged row"):
            load_csv(p, "Y")

    def test_missing_cell(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("a,b,Y\n1,,0\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(p, "Y")

    def test_missing_target(self, toy_csv):
        with pytest.raises(DataError, match="target column"):
            load_csv(toy_csv, "Z")

    def test_duplicate_header_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("A,A,Y\n0,1,0\n1,1,1\n")
        with pytest.raises(DataError, match="duplicate header names \\['A'\\]"):
            load_csv(p, "Y")

    def test_utf8_bom_accepted(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfY,A\n0,1\n1,2\n")
        table = load_csv(p, "Y")
        assert table.names == ("Y", "A")
        assert table.feature_names == ("A",)

    def test_categorical_inference(self, tmp_path):
        p = tmp_path / "cat.csv"
        p.write_text("a,Y\nred,0\nblue,1\nred,0\n")
        table = load_csv(p, "Y")
        assert table.kind("a") == "categorical"
        assert table.kind("Y") == "numeric"


    def test_error_after_a_later_decoding_error_is_not_reported(self, tmp_path):
        # the ragged row 3 comes first, but the file does not decode further on
        p = tmp_path / "bad.csv"
        p.write_bytes(b"a,Y\n1,0\n1\n" + b"2,1\n" * 5000 + b"\xff,1\n")
        with pytest.raises(UnicodeDecodeError):
            ref_load_csv(p, "Y")
        with mock.patch.object(data, "_CHUNK_ROWS", 2), pytest.raises(UnicodeDecodeError):
            load_csv(p, "Y")

    def test_first_missing_cell_in_row_major_order(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("a,b,Y\n1,2,0\n,2,1\n1, ,\n")
        with mock.patch.object(data, "_CHUNK_ROWS", 2), \
                pytest.raises(DataError, match="missing value at row 3, column 'a'"):
            load_csv(p, "Y")
        p.write_text("a,b,Y\n1,2,0\n1, ,\n,2,1\n")
        with pytest.raises(DataError, match="missing value at row 3, column 'b'"):
            load_csv(p, "Y")


def _write_csv(path, header, rows, bom=False):
    with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
        if header is not None:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def _outcome(loader, path, target):
    try:
        return loader(path, target)
    except DataError as e:
        return f"DataError: {e}"


def _assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert (got.names, got.kinds, got.target_name, got.n_rows) == \
        (want.names, want.kinds, want.target_name, want.n_rows)
    for name, kind, a, b in zip(want.names, want.kinds, got.columns, want.columns):
        if kind == "numeric":
            assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
        else:
            labels = got.column(name)
            assert type(labels) is list and labels == want.column(name)
            # the codes are the labels' first-appearance codes, every label on some row
            assert a.codes.dtype == np.int32 and len(a.labels) == len(set(labels))
            assert a.codes.tolist() == ref_first_appearance(labels)


NUMBERS = ("0", "1", "-2.5", " 3 ", "1_000", "1e3", "\t7", "0.1", "\x1c4")
OTHERS = NUMBERS + ("nan", " inf", "-inf", "a", " b ", "a,b", 'say "hi"', "c d")
BLANKS = ("", " ", "\t")


@st.composite
def csv_files(draw):
    """(header, rows, target, bom): a small CSV, mostly well formed.

    Each column holds numbers up to a drawn row and anything after it, so a
    column can turn categorical in any chunk.  Up to three faults (a blank
    cell, a short or a long row) then land on drawn rows.  ``header`` is None
    for an empty file.
    """
    if draw(st.integers(0, 19)) == 0:
        return None, [], "Y", False
    names = draw(st.lists(st.sampled_from(["A", " B", "C ", "Y"]), min_size=1, max_size=4,
                          unique=True))
    if draw(st.integers(0, 9)) == 0:
        names.append(names[0].strip())
    n_rows = draw(st.integers(0, 9))
    columns = []
    for _ in names:
        switch = draw(st.integers(0, n_rows))
        columns.append([draw(st.sampled_from(NUMBERS if i < switch else OTHERS))
                        for i in range(n_rows)])
    rows = [list(row) for row in zip(*columns)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3])) if rows else 0):
        i = draw(st.integers(0, n_rows - 1))
        fault = draw(st.sampled_from(["blank", "short", "long"]))
        if fault == "blank" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(BLANKS))
        elif fault == "short":
            rows[i] = rows[i][:-1]
        else:
            rows[i] = rows[i] + ["9"]
    target = "Z" if draw(st.integers(0, 9)) == 0 else draw(st.sampled_from(names)).strip()
    return names, rows, target, draw(st.booleans())


class TestStreamingLoad:
    """load_csv against the whole-file reference loader, over small chunks."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=csv_files(), chunk_rows=st.integers(1, 3))
    def test_matches_whole_file_loader(self, case, chunk_rows):
        header, rows, target, bom = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            _write_csv(path, header, rows, bom)
            with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
                got = _outcome(load_csv, path, target)
            _assert_same(got, _outcome(ref_load_csv, path, target))

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_pipe_with_a_late_categorical_column(self, tmp_path):
        # a pipe cannot be opened again to re-read column a's earlier cells
        text = b"a,b,Y\n1,x,0\n2,y,1\nthree,x,0\n"
        read_end, write_end = os.pipe()
        os.write(write_end, text)
        os.close(write_end)
        try:
            with mock.patch.object(data, "_CHUNK_ROWS", 1):
                got = load_csv(f"/dev/fd/{read_end}", "Y")
        finally:
            os.close(read_end)
        p = tmp_path / "same.csv"
        p.write_bytes(text)
        _assert_same(got, ref_load_csv(p, "Y"))
        assert got.column("a") == ["1", "2", "three"]

    def test_repeated_labels_share_one_object(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("a,b,Y\n1,red,0\n2, red,1\nz,blue,0\n3,red ,1\nz,blue,0\n")
        with mock.patch.object(data, "_CHUNK_ROWS", 2):
            table = load_csv(p, "Y")
        a, b = table.column("a"), table.column("b")
        # across chunk boundaries, and through the re-read of column a
        assert b[0] is b[1] is b[3] and b[2] is b[4]
        assert a[2] is a[4]
        assert table.kinds == ("categorical", "categorical", "numeric")
        assert a == ["1", "2", "z", "3", "z"]
        assert b == ["red", "red", "blue", "red", "blue"]

    def test_peak_memory_bounded_by_columns(self, tmp_path):
        # 20,000 x 8: five float columns, two label columns and a class column
        rng = np.random.default_rng(0)
        n = 20_000
        nums = rng.normal(size=(n, 5))
        colours = rng.choice(["red", "green", "blue"], n)
        keys = rng.integers(0, 20, n)
        classes = rng.integers(0, 2, n)
        p = tmp_path / "wide.csv"
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["A", "B", "C", "D", "E", "L1", "L2", "Y"])
            for i in range(n):
                writer.writerow([f"{x:.6f}" for x in nums[i]]
                                + [colours[i], f"k{keys[i]}", classes[i]])
        tracemalloc.start()
        try:
            table = load_csv(p, "Y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # what the columns need: the float arrays, the label lists and one
        # copy of each distinct label
        need = sum(col.nbytes if kind == "numeric"
                   else sys.getsizeof(col) + sum(map(sys.getsizeof, set(col)))
                   for kind, col in zip(table.kinds, table.columns))
        # about 1.3x here (one 256-row chunk of cell strings on top of the
        # columns); a loader that holds every row as strings peaks near 10x
        assert peak < 6 * need

    def test_late_categorical_column_at_the_default_chunk_size(self, tmp_path):
        # column B turns categorical at row 1,000 of 3,000, several chunks in,
        # so its earlier cells are read again over more than one chunk
        assert data._CHUNK_ROWS < 1000
        p = tmp_path / "late.csv"
        _write_csv(p, ["A", "B", "C", "Y"], _late_rows(3000, 1000))
        want = ref_load_csv(p, "Y")
        assert want.kinds == ("numeric", "categorical", "categorical", "categorical")
        _assert_same(load_csv(p, "Y"), want)
        if Path("/dev/fd").is_dir():
            _assert_same(_load_through_pipe(p.read_bytes(), "Y"), want)

    def test_peak_memory_with_columns_that_turn_categorical_late(self, tmp_path):
        # 30,000 x 11: six float columns, and four columns of small integers
        # that turn into labels at row 27,000, so the first pass ends there
        # and the file is parsed again with those four read as labels
        rng = np.random.default_rng(0)
        n, switch = 30_000, 27_000
        nums = rng.normal(size=(n, 6))
        p = tmp_path / "late.csv"
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["A", "B", "C", "D", "E", "F", "L1", "L2", "L3", "L4", "Y"])
            for i in range(n):
                late = [str(i % 7 - 3 + j) if i < switch else "xyz"[(i + j) % 3]
                        for j in range(4)]
                writer.writerow([f"{x:.6f}" for x in nums[i]] + late
                                + [("neg", "pos")[i % 5 < 2]])
        tracemalloc.start()
        try:
            table = load_csv(p, "Y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.kinds == ("numeric",) * 6 + ("categorical",) * 5
        need = sum(col.nbytes if kind == "numeric"
                   else sys.getsizeof(col) + sum(map(sys.getsizeof, set(col)))
                   for kind, col in zip(table.kinds, table.columns))
        # about 1.16x here; keeping the abandoned pass's columns alive reads
        # 2.1x, and concatenating every float column before freeing any chunk
        # array reads 1.6x
        assert peak < 1.35 * need

    def test_one_stream_open_across_restarts(self, tmp_path):
        # at 100 rows a chunk, B turns categorical in the third chunk and C and
        # D both in the fifth: three passes, each over the one stream
        rows = [[f"{i * 0.5:g}", f"{i % 5}" if i < 250 else "b",
                 f"{i % 3}" if i < 430 else "c", f"{i % 4}" if i < 470 else "d",
                 ("neg", "pos")[i % 3 == 0]] for i in range(600)]
        p = tmp_path / "late.csv"
        _write_csv(p, ["A", "B", "C", "D", "Y"], rows, bom=True)
        opened, open_at_pass = [], []
        real_open, real_read_table = open, data._read_table

        def spy_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        def spy_read_table(fh, *args):
            open_at_pass.append(sum(not f.closed for f in opened))
            return real_read_table(fh, *args)

        with mock.patch.object(data, "_CHUNK_ROWS", 100), \
                mock.patch.object(data, "open", spy_open, create=True), \
                mock.patch.object(data, "_read_table", spy_read_table):
            got = load_csv(p, "Y")
        assert open_at_pass == [1, 1, 1]
        assert len(opened) == 1 and opened[0].closed
        want = ref_load_csv(p, "Y")
        assert want.kinds == ("numeric",) + ("categorical",) * 4
        _assert_same(got, want)


def _write_lines(path, header, rows, bom=False, line_end="\n", extra=None, at=0):
    """Write a CSV with ``line_end`` after each row, and the raw line
    ``extra`` (when not None) after data row ``at``."""
    texts = []
    for row in ([header] + rows if header is not None else []):
        buf = io.StringIO()
        csv.writer(buf, lineterminator=line_end).writerow(row)
        texts.append(buf.getvalue())
    if extra is not None and texts:
        texts.insert(min(at, len(texts) - 1) + 1, extra + line_end)
    with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
        fh.write("".join(texts))


def _spy_blocks(calls):
    """A stand-in for ``data._parse_block`` that records each block's lines
    and whether it was vouched for."""
    real = data._parse_block

    def spy(lines, *args):
        columns = real(lines, *args)
        calls.append((lines, columns is not None))
        return columns
    return mock.patch.object(data, "_parse_block", spy)


def _error_or_table(loader, path, target):
    """The table, or the type and text of the load's error (a csv one too)."""
    try:
        return loader(path, target)
    except (DataError, csv.Error) as e:
        return f"{type(e).__name__}: {e}"


def _plain_line(i):
    """Data row i as one 16-character line: a number, a digit, a label, a class."""
    return (f"{(i % 997) * 0.5:05.1f},{i % 7},{('red', 'grn', 'blu')[i % 3]},"
            f"{('neg', 'pos')[i % 5 < 2]}\n")


def _set_cell(line, j, cell):
    cells = line[:-1].split(",")
    cells[j] = cell
    return ",".join(cells) + "\n"


#: the rows after the header and the first 256-row chunk go to numpy's C
#: reader in blocks of 4,097 of these 16-character lines, the first
#: 65,536-character read and the line that passes it: rows 256-4,352 form the
#: first block and rows 4,353-8,449 the second
PLAIN_ROWS = 9_000
TRAP_ROW = 6_000
TRAPS = {
    "blank line": lambda line: "\n" + line,
    "whitespace-only line": lambda line: " \t \n" + line,
    "quoted comma": lambda line: _set_cell(line, 2, '"r,d"'),
    "doubled quote": lambda line: _set_cell(line, 2, '"say ""hi"""'),
    "bare CR": lambda line: line[:-1] + "\r",
    "NUL": lambda line: _set_cell(line, 2, "r\0d"),
    "cell over the csv field limit": lambda line: _set_cell(line, 2, "x" * 131_073),
    "missing number": lambda line: _set_cell(line, 0, ""),
    "missing label": lambda line: _set_cell(line, 2, " "),
    "ragged row": lambda line: line[:-1].rsplit(",", 1)[0] + "\n",
    "late categorical column": lambda line: _set_cell(line, 1, "x"),
    **{f"number {cell!r}": lambda line, cell=cell: _set_cell(line, 0, cell)
       for cell in ("1_000", "１", "nan", " inf", "1e400", "\x1c4")},
}


class TestBlockReader:
    """Rows past the first chunk read by numpy's C reader, each block checked,
    against the whole-file reference loader at the default sizes."""

    def test_block_layout(self):
        assert data._CHUNK_ROWS == 256 and data._BLOCK_CHARS == 65_536
        assert len(_plain_line(0)) == len(_plain_line(996)) == 16

    @pytest.mark.parametrize("trap", sorted(TRAPS))
    def test_trap_past_the_first_block(self, tmp_path, trap):
        lines = ["A,B,L,Y\n"] + [_plain_line(i) for i in range(PLAIN_ROWS)]
        lines[TRAP_ROW + 1] = TRAPS[trap](lines[TRAP_ROW + 1])
        p = tmp_path / "trap.csv"
        p.write_bytes("".join(lines).encode())
        calls = []
        with _spy_blocks(calls):
            got = _error_or_table(load_csv, p, "Y")
        first, vouched = calls[0]
        assert vouched and first == lines[1 + data._CHUNK_ROWS:1 + data._CHUNK_ROWS + 4097]
        _assert_same(got, _error_or_table(ref_load_csv, p, "Y"))

    def test_crlf_line_ends_past_the_first_block(self, tmp_path):
        # "\r\n" ends on every line, or from row 6,000 on, inside the second
        # block: every row after the first chunk goes through the C reader
        for start in (0, TRAP_ROW + 1):
            lines = ["A,B,L,Y\n"] + [_plain_line(i) for i in range(PLAIN_ROWS)]
            lines[start:] = [line[:-1] + "\r\n" for line in lines[start:]]
            p = tmp_path / "crlf.csv"
            p.write_bytes("".join(lines).encode())
            calls = []
            with _spy_blocks(calls):
                got = load_csv(p, "Y")
            assert [vouched for _, vouched in calls] == [True, True, True]
            assert sum(len(block) for block, _ in calls) == PLAIN_ROWS - data._CHUNK_ROWS
            _assert_same(got, ref_load_csv(p, "Y"))

    @pytest.mark.parametrize("refusal", ["quoted label", "number loadtxt rejects"])
    def test_label_codes_across_chunks_blocks_and_a_refusal(self, tmp_path, refusal):
        # label L first shows new labels in the first chunk, in the first block,
        # in the second block before the cell it is refused for (which loadtxt
        # reaches only in the second case, after it has coded "new2"), and in
        # csv chunks after that; each must take its first-appearance code
        lines = ["A,B,L,Y\n"] + [_plain_line(i) for i in range(PLAIN_ROWS)]
        for row, label in ((10, " pad"), (11, "pad"), (1_000, "new1 "), (1_001, "new1"),
                           (5_000, "new2"), (5_300, "new3 "), (5_301, " red"), (8_000, "new4")):
            lines[row + 1] = _set_cell(lines[row + 1], 2, label)
        lines[5_101] = _set_cell(lines[5_101], *((2, '"new5"') if refusal == "quoted label"
                                                 else (0, "1_000")))
        p = tmp_path / "labels.csv"
        p.write_bytes("".join(lines).encode())
        calls = []
        with _spy_blocks(calls):
            got = load_csv(p, "Y")
        assert [vouched for _, vouched in calls] == [True, False]
        want = ref_load_csv(p, "Y")
        assert {"pad", "new1", "new2", "new3", "new4"} <= set(want.column("L"))
        _assert_same(got, want)
        col = got.columns[got.names.index("L")]
        assert col.codes.tolist() == ref_first_appearance(want.column("L"))

    def test_quoted_newline_across_a_block_boundary(self, tmp_path):
        # row 8,449 opens its quote on the last line of the second block and
        # closes it on the first line of the third
        lines = ["A,B,L,Y\n"] + [_plain_line(i) for i in range(PLAIN_ROWS)]
        lines[8_450] = _set_cell(lines[8_450], 2, '"a\nb"')
        p = tmp_path / "quoted.csv"
        p.write_bytes("".join(lines).encode())
        calls = []
        with _spy_blocks(calls):
            got = load_csv(p, "Y")
        assert [vouched for _, vouched in calls] == [True, False]
        assert calls[1][0][-1].count('"') == 1
        want = ref_load_csv(p, "Y")
        assert want.column("L")[8_449] == "a\nb" and want.n_rows == PLAIN_ROWS
        _assert_same(got, want)

    def test_coders_get_str_cells_under_the_numpy_1_loadtxt_default(self, tmp_path):
        # before numpy 2.0, loadtxt defaults to encoding="bytes", which hands
        # each converter latin1-encoded bytes unless the call asks for str
        real_loadtxt, real_missing = np.loadtxt, data._Coder.__missing__
        keys = []

        def loadtxt(*args, **kwargs):
            kwargs.setdefault("encoding", "bytes")
            return real_loadtxt(*args, **kwargs)

        def missing(coder, cell):
            keys.append(cell)
            return real_missing(coder, cell)
        lines = ["A,B,L,Y\n"] + [_plain_line(i) for i in range(PLAIN_ROWS)]
        for row, label in ((10, "pad"), (1_000, " pad"), (5_000, "new "), (5_001, "é")):
            lines[row + 1] = _set_cell(lines[row + 1], 2, label)
        p = tmp_path / "plain.csv"
        p.write_bytes("".join(lines).encode())
        calls = []
        with mock.patch.object(np, "loadtxt", loadtxt), _spy_blocks(calls), \
                mock.patch.object(data._Coder, "__missing__", missing):
            got = load_csv(p, "Y")
        assert [vouched for _, vouched in calls] == [True, True, True]
        assert {" pad", "new ", "é"} <= set(keys) and {type(key) for key in keys} == {str}
        _assert_same(got, ref_load_csv(p, "Y"))
        assert len(got.columns[got.names.index("L")]) == got.n_rows == PLAIN_ROWS

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=csv_files(), chunk_rows=st.integers(1, 3), block_chars=st.integers(1, 64),
           line_end=st.sampled_from(["\n", "\n", "\r\n"]),
           extra=st.sampled_from([None, None, "", " "]), at=st.integers(0, 9))
    def test_matches_whole_file_loader_in_small_blocks(self, case, chunk_rows, block_chars,
                                                       line_end, extra, at):
        header, rows, target, bom = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            _write_lines(path, header, rows, bom, line_end, extra, at)
            with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows), \
                    mock.patch.object(data, "_BLOCK_CHARS", block_chars):
                got = _outcome(load_csv, path, target)
            _assert_same(got, _outcome(ref_load_csv, path, target))

    def test_every_row_after_the_first_chunk_through_the_c_reader(self, tmp_path):
        p = tmp_path / "plain.csv"
        _write_lines(p, ["A", "B", "C", "Y"], _late_rows(3000, 3000))
        calls = []
        with _spy_blocks(calls):
            got = load_csv(p, "Y")
        assert calls and all(vouched for _, vouched in calls)
        assert sum(len(lines) for lines, _ in calls) == 3000 - data._CHUNK_ROWS
        want = ref_load_csv(p, "Y")
        assert want.kinds == ("numeric", "numeric", "categorical", "categorical")
        _assert_same(got, want)

    def test_peak_memory_through_the_c_reader(self, tmp_path):
        # test_peak_memory_bounded_by_columns's 20,000 x 8 table, with "\n"
        # line ends, so that its rows after the first chunk take the C reader
        rng = np.random.default_rng(0)
        n = 20_000
        nums = rng.normal(size=(n, 5))
        colours = rng.choice(["red", "green", "blue"], n)
        keys = rng.integers(0, 20, n)
        classes = rng.integers(0, 2, n)
        p = tmp_path / "wide.csv"
        _write_lines(p, ["A", "B", "C", "D", "E", "L1", "L2", "Y"],
                     [[f"{x:.6f}" for x in nums[i]] + [colours[i], f"k{keys[i]}", str(classes[i])]
                      for i in range(n)])
        calls = []
        with _spy_blocks(calls):
            load_csv(p, "Y")
        assert calls and all(vouched for _, vouched in calls)
        tracemalloc.start()
        try:
            table = load_csv(p, "Y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = sum(col.nbytes if kind == "numeric"
                   else sys.getsizeof(col) + sum(map(sys.getsizeof, set(col)))
                   for kind, col in zip(table.kinds, table.columns))
        # about 1.5x here, as on csv alone (1.4x); keeping each block's parsed
        # table alive through a view of its float columns reads 3.6x
        assert peak < 2 * need

    def test_refused_block_lines_go_once_csv_has_read_them(self, tmp_path):
        # a quoted label at row 5,000 refuses the second block (rows 4,353-8,449),
        # which csv reads again; 1,024 rows past it, no line that readlines read
        # may still be held (keeping the block's line list reads some 300 KB)
        lines = ["A,B,L,Y\n"] + [_plain_line(i) for i in range(30_000)]
        lines[5_001] = _set_cell(lines[5_001], 2, '"blu"')
        p = tmp_path / "quoted.csv"
        p.write_bytes("".join(lines).encode())
        source = Path(data.__file__).read_text(encoding="utf-8").splitlines()
        at = [i for i, line in enumerate(source, 1) if "fh.readlines(_BLOCK_CHARS)" in line]
        assert len(at) == 1
        blocks, held = [], []
        real_parse, real_convert = data._parse_block, data._convert_chunk

        def parse(lines, *args):
            # the block's size only: holding its lines would keep them alive
            columns = real_parse(lines, *args)
            blocks.append((len(lines), columns is not None))
            return columns

        def convert(chunk, header, numeric, first_row, coders):
            past = data._CHUNK_ROWS + sum(size for size, _ in blocks) + 1_024
            if blocks and not held and first_row >= past:
                snapshot = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, data.__file__, at[0])])
                held.append(sum(stat.size for stat in snapshot.statistics("lineno")))
            return real_convert(chunk, header, numeric, first_row, coders)

        tracemalloc.start()
        try:
            with mock.patch.object(data, "_parse_block", parse), \
                    mock.patch.object(data, "_convert_chunk", convert):
                got = load_csv(p, "Y")
        finally:
            tracemalloc.stop()
        assert [vouched for _, vouched in blocks] == [True, False]
        assert held == [0]
        _assert_same(got, ref_load_csv(p, "Y"))

    @pytest.mark.parametrize("switch, passes", [(3000, 1), (2500, 2)])
    def test_a_quote_fails_over_once_a_pass(self, tmp_path, switch, passes):
        # a quoted label at row 2,000; with B turning categorical at row 2,500
        # the first pass ends there, as it does with no C reader at all
        rows = _late_rows(3000, switch)
        rows[2000][2] = '"blue"'
        p = tmp_path / "quoted.csv"
        p.write_text("A,B,C,Y\n" + "".join(",".join(row) + "\n" for row in rows))
        got, open_at_pass, vouched = _load_counting_passes(p)
        assert open_at_pass == [1] * passes
        assert vouched == [False] * passes
        assert _load_counting_passes(p, blocks=False)[1] == open_at_pass
        want = ref_load_csv(p, "Y")
        assert want.column("C")[2000] == "blue"
        _assert_same(got, want)

    def test_late_columns_after_a_vouched_block_end_the_same_passes(self, tmp_path):
        # B turns at row 4,607 and A at row 4,608, both in the second block,
        # which starts at row 4,353; on chunks of 256 rows from the top they
        # fall in two chunks, so each ends a pass of its own
        lines = ["A,B,L,Y\n"] + [_plain_line(i) for i in range(PLAIN_ROWS)]
        lines[4_608] = _set_cell(lines[4_608], 1, "x")
        lines[4_609] = _set_cell(lines[4_609], 0, "y")
        p = tmp_path / "late.csv"
        p.write_bytes("".join(lines).encode())
        got, open_at_pass, vouched = _load_counting_passes(p)
        assert open_at_pass == [1, 1, 1]
        assert vouched[:2] == [True, False]
        assert _load_counting_passes(p, blocks=False)[1] == open_at_pass
        _assert_same(got, ref_load_csv(p, "Y"))


def _load_counting_passes(path, blocks=True):
    """``load_csv(path, "Y")``, the number of streams open at each of its
    passes, and whether each block went through the C reader; with
    ``blocks`` false every block is refused, so every row goes through csv."""
    opened, open_at_pass, calls = [], [], []
    real_open, real_read_table = open, data._read_table

    def spy_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def spy_read_table(fh, *args):
        open_at_pass.append(sum(not f.closed for f in opened))
        return real_read_table(fh, *args)

    refuse = mock.patch.object(data, "_parse_block", lambda *args: None)
    with mock.patch.object(data, "open", spy_open, create=True), \
            mock.patch.object(data, "_read_table", spy_read_table), \
            _spy_blocks(calls) if blocks else refuse:
        table = load_csv(path, "Y")
    assert len(opened) == 1 and opened[0].closed
    return table, open_at_pass, [vouched for _, vouched in calls]


def _late_rows(n_rows, switch):
    """Rows of A (numbers), B (numbers up to row ``switch``, then padded
    labels), C (padded labels) and a class Y."""
    return [[f"{i * 0.25:g}", f"{i % 7 - 3}" if i < switch else (" x", "y ")[i % 2],
             (" red", "blue", "red ")[i % 3], ("neg", "pos")[i * 7 % 5 < 2]]
            for i in range(n_rows)]


def _load_through_pipe(text: bytes, target):
    """``load_csv`` of ``text`` written into a pipe by another thread."""
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return load_csv(f"/dev/fd/{read_end}", target)
    finally:
        os.close(read_end)
        writer.join()


class TestBinning:
    def test_equal_width_edges(self):
        vals = np.arange(11, dtype=float)
        assert np.allclose(equal_width_edges(vals, 5), [2, 4, 6, 8])

    def test_constant_column_single_bin(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,Y\n3,0\n3,1\n3,0\n")
        table = load_csv(p, "Y")
        spec = fit_binning(table, 5)
        assert spec.feature_specs[0].arity == 1
        assert len(spec.feature_specs[0].edges) == 0

    def test_binary_column_dense_remap(self):
        # raw bins 0 and 4 of a 0/1 column collapse to dense codes 0 and 1
        ds = discretize(toy_table(), n_bins=5)
        assert ds.arities == (2,) * 5
        assert ds.n_classes == 2
        assert set(np.unique(ds.codes)) == {0, 1}

    def test_max_value_goes_to_last_bin(self, tmp_path):
        p = tmp_path / "m.csv"
        rows = "\n".join(f"{v},0" for v in range(11))
        p.write_text("a,Y\n" + rows + "\n")
        table = load_csv(p, "Y")
        spec = fit_binning(table, 5)
        ds = apply_binning(table, spec)
        assert ds.codes[-1, 0] == 4            # value 10, edges (2,4,6,8)
        assert ds.codes[0, 0] == 0

    def test_out_of_range_values_clamp(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("a,Y\n0,0\n10,1\n5,0\n2,1\n8,0\n")
        test = tmp_path / "test.csv"
        test.write_text("a,Y\n-50,0\n50,1\n")
        ttab = load_csv(train, "Y")
        spec = fit_binning(ttab, 5)
        coded = apply_binning(load_csv(test, "Y"), spec)
        lo, hi = coded.codes[0, 0], coded.codes[1, 0]
        assert lo == 0
        assert hi == coded.arities[0] - 1

    def test_empty_bin_takes_nearest_occupied_code(self):
        # fit on 0 and 10: edges (2, 4, 6, 8), raw bins 0 and 4 occupied
        vals = np.array([0.0, 10.0, 5.0, 6.5, 3.9, 4.0])
        table = RawTable(("a", "Y"), ("numeric",) * 2, (vals, np.zeros(6)), "Y", 6)
        coded = apply_binning(table, fit_binning(table, 5, fit_rows=[0, 1]))
        # 5 (raw bin 2) ties between bins 0 and 4 and goes to the lower one;
        # 6.5 (raw bin 3) is nearer bin 4
        assert coded.codes[:, 0].tolist() == [0, 1, 0, 1, 0, 0]
        assert coded.arities == (2,)

    @pytest.mark.parametrize("n_bins", [1, 3, 11])
    def test_edges_match_scalar_formula(self, n_bins):
        # bench/reference.py cuts at lo + (hi - lo) * i / n_bins in Python floats
        rng = np.random.default_rng(n_bins)
        vals = rng.standard_cauchy(200) * 10.0 ** rng.integers(-5, 5)
        lo, hi = float(vals.min()), float(vals.max())
        want = [lo + (hi - lo) * i / n_bins for i in range(1, n_bins)]
        assert equal_width_edges(vals, n_bins).tolist() == want

    @pytest.mark.parametrize("vals", [[-1e308, 0.0, 1e308],
                                      [0.0, 0.4e308, 0.8e308, 1.2e308, 1.6e308]])
    def test_overflowing_range_rejected_without_warning(self, vals):
        # once all edges came out inf (one bin) or half of them did (bins merged)
        n = len(vals)
        table = RawTable(("a", "A", "Y"), ("numeric",) * 3,
                         (np.zeros(n), np.array(vals), np.zeros(n)), "Y", n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="column 'A': range .* overflows float64"):
                fit_binning(table, 5)
            assert len(equal_width_edges(np.array(vals), 1)) == 0

    @pytest.mark.parametrize("vals, n_bins", [([1.0, 1.0000000000000002], 2),
                                              ([1e16, 1e16 + 2], 2),
                                              ([1.0, 1.0 + 4 * 2.0 ** -52], 10)])
    def test_collapsing_cut_points_rejected(self, vals, n_bins):
        # once a cut point rounded onto the minimum (or onto its neighbour) and
        # distinct values shared one bin
        n = len(vals)
        table = RawTable(("A", "Y"), ("numeric",) * 2, (np.array(vals), np.zeros(n)), "Y", n)
        with pytest.raises(DataError, match="column 'A': range .* too narrow"):
            fit_binning(table, n_bins)

    @pytest.mark.parametrize("n_bins, message", [
        (2.5, "n_bins must be an int, got 2.5"),
        (True, "n_bins must be an int, got True"),
        (0, "n_bins must be >= 1, got 0"),
    ], ids=["float", "bool", "zero"])
    def test_bin_count_that_is_not_an_int_rejected(self, n_bins, message):
        # 2.5 once cut every numeric column into 3 bins, and True into 1
        for fit in (fit_binning, discretize):
            with pytest.raises(BinningError, match=f"^{message}$"):
                fit(toy_table(), n_bins)

    @pytest.mark.parametrize("n_bins", [data._MAX_BINS + 1, 2**63 - 1, 10**18, 10**20],
                             ids=["ceiling+1", "int64-max", "1e18", "1e20"])
    def test_bin_count_past_the_ceiling_rejected(self, n_bins):
        # past 2**63 - 1 numpy made no cut points and edges[0] raised
        # IndexError; below it the cut points failed to allocate
        for fit in (fit_binning, discretize):
            with pytest.raises(BinningError,
                               match=f"^n_bins must be <= {data._MAX_BINS}, got {n_bins}$"):
                fit(toy_table(), n_bins)

    def test_numpy_integer_bin_count_accepted(self):
        table = make_xor_table(seed=1, n_rows=50)
        got = fit_binning(table, np.int64(3))
        assert got.n_bins == 3 and type(got.n_bins) is int
        assert np.array_equal(discretize(table, np.int64(3)).codes, discretize(table, 3).codes)

    def test_narrowest_distinct_cut_is_kept(self):
        # one cut point strictly between two neighbouring floats is enough
        vals = np.array([1.0, 1.0 + 2.0 ** -50])
        table = RawTable(("A", "Y"), ("numeric",) * 2, (vals, np.zeros(2)), "Y", 2)
        ds = apply_binning(table, fit_binning(table, 2))
        assert ds.codes[:, 0].tolist() == [0, 1]

    def test_unseen_category_gets_reserved_code(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("a,Y\nred,0\nblue,1\n")
        test = tmp_path / "test.csv"
        test.write_text("a,Y\ngreen,0\nred,1\n")
        spec = fit_binning(load_csv(train, "Y"), 5)
        coded = apply_binning(load_csv(test, "Y"), spec)
        assert coded.codes[0, 0] == 2           # unknown slot
        assert coded.codes[1, 0] == 0
        assert coded.arities[0] == 3

    def test_column_mismatch_rejected(self, toy_csv, tmp_path):
        spec = fit_binning(load_csv(toy_csv, "Y"), 5)
        other = tmp_path / "other.csv"
        other.write_text("A,B,Y\n1,2,0\n3,4,1\n")
        with pytest.raises(DataError, match="column mismatch"):
            apply_binning(load_csv(other, "Y"), spec)

    def test_non_integer_target_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,Y\n1,0.5\n2,1.5\n")
        with pytest.raises(DataError, match="integer-valued"):
            fit_binning(load_csv(p, "Y"), 5)

    def test_non_integer_target_rejected_outside_fit_rows(self, tmp_path):
        # the fractional value sits on a row the spec was not fitted on
        p = tmp_path / "t.csv"
        p.write_text("A,Y\n0,0\n1,1\n0,0\n1,1.7\n")
        table = load_csv(p, "Y")
        spec = fit_binning(table, 5, fit_rows=[0, 1, 2])
        with pytest.raises(DataError, match="integer-valued"):
            apply_binning(table, spec)

    @pytest.mark.parametrize("rows, message", [
        ([-1, -2], r"fit_rows: row -1 outside \[0, 10\)"),
        ([3, 10], r"fit_rows: row 10 outside \[0, 10\)"),
        ([0.5, 1], "fit_rows must be a list of integers, got float64"),
        ([True, False], "fit_rows must be a list of integers, got bool"),
        ([[0, 1]], r"fit_rows must be a list of integers, got int64 of shape \(1, 2\)"),
        ([], "fit_rows must be nonempty"),
    ], ids=["negative", "past-the-end", "fractional", "mask", "nested", "empty"])
    def test_malformed_fit_rows_rejected(self, rows, message):
        # negative rows once wrapped round to the last ones, fractional rows
        # were truncated, and a row past the end raised a bare IndexError
        with pytest.raises(BinningError, match=message):
            fit_binning(toy_table(), 5, fit_rows=rows)


@st.composite
def numeric_tables(draw):
    """A numeric table, a non-empty fit subset of its rows and a bin count."""
    n = draw(st.integers(1, 40))
    finite = st.floats(-1e300, 1e300, allow_nan=False)
    columns = st.one_of(
        finite.map(lambda v: [v] * n),                                        # constant
        st.lists(st.sampled_from([-2.0, 0.0, 0.5, 3.0, 7.25]), min_size=n, max_size=n),
        st.lists(finite, min_size=n, max_size=n),                             # heavy-tailed
        st.lists(st.floats(-10, 10), min_size=n, max_size=n))
    cols = [np.array(c) for c in draw(st.lists(columns, min_size=1, max_size=4))]
    target = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
    fit_rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    names = tuple(f"F{j}" for j in range(len(cols))) + ("Y",)
    table = RawTable(names, ("numeric",) * len(names), (*cols, target), "Y", n)
    return table, np.array(fit_rows), draw(st.integers(1, 12))


class TestSnapProperty:
    @given(numeric_tables())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_per_value_snap(self, case):
        table, fit_rows, n_bins = case
        ds = apply_binning(table, fit_binning(table, n_bins, fit_rows))
        assert ds.codes.dtype == narrow_dtype(ds.arities)
        for j, name in enumerate(table.feature_names):
            codes, arity = ref_numeric_codes(table.column(name), fit_rows, n_bins)
            assert ds.codes[:, j].tolist() == codes.tolist()
            assert ds.arities[j] == arity


LABELS = ("a", "b", "c", " a", "é")


@st.composite
def mixed_tables(draw):
    """A table of numeric and categorical features (constant ones included),
    an integer-numeric or categorical target, and a bin count from 1 to 7."""
    n = draw(st.integers(1, 30))
    numbers = st.one_of(
        st.floats(-1e300, 1e300, allow_nan=False).map(lambda v: [v] * n),      # constant
        st.lists(st.sampled_from([-2.0, 0.0, 0.5, 3.0, 7.25]), min_size=n, max_size=n),
        st.lists(st.floats(-10, 10), min_size=n, max_size=n))
    labels = st.one_of(st.sampled_from(LABELS).map(lambda v: [v] * n),          # constant
                       st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), max_size=5))
    cols = [np.array(draw(numbers)) if kind == "numeric" else draw(labels) for kind in kinds]
    if draw(st.booleans()):
        kinds.append("numeric")
        cols.append(np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                             float))
    else:
        kinds.append("categorical")
        cols.append(draw(labels))
    names = tuple(f"F{j}" for j in range(len(cols) - 1)) + ("Y",)
    return RawTable(names, tuple(kinds), tuple(cols), "Y", n), draw(st.integers(1, 7))


class TestOnePassFit:
    """discretize, which fits and encodes each column in one pass, against
    fit_binning followed by apply_binning."""

    @given(mixed_tables())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_fit_then_apply(self, case):
        table, n_bins = case
        try:
            want = apply_binning(table, fit_binning(table, n_bins))
        except BinningError as e:
            with pytest.raises(BinningError, match=f"^{re.escape(str(e))}$"):
                discretize(table, n_bins)
            return
        got = discretize(table, n_bins)
        for a, b, dtype in ((got.codes, want.codes, narrow_dtype(want.arities)),
                            (got.target, want.target, np.int64)):
            assert a.dtype == b.dtype == dtype
            assert a.shape == b.shape and a.strides == b.strides
            assert np.array_equal(a, b)
        assert got.codes.flags["F_CONTIGUOUS"]
        assert (got.arities, got.n_classes, got.feature_names) == \
            (want.arities, want.n_classes, want.feature_names)
        for j, name in enumerate(got.feature_names):
            if table.kind(name) == "categorical":
                col = table.column(name)
                assert got.codes[:, j].tolist() == ref_first_appearance(col)
                assert got.arities[j] == len(set(col)) + 1
        if table.kind("Y") == "categorical":
            assert got.target.tolist() == ref_first_appearance(table.column("Y"))


class TestApplyToRows:
    """apply_binning on some rows against apply_binning on all, then restrict."""

    @given(mixed_tables(), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_restrict(self, case, data):
        table, n_bins = case
        row = st.integers(0, table.n_rows - 1)
        fit_rows = data.draw(st.lists(row, min_size=1, max_size=table.n_rows))
        rows = data.draw(st.lists(row, max_size=2 * table.n_rows))    # any order, repeats too
        try:
            spec = fit_binning(table, n_bins, fit_rows)
        except BinningError:
            return
        got = apply_binning(table, spec, rows)
        want = apply_binning(table, spec).restrict(rows)
        for a, b, dtype in ((got.codes, want.codes, narrow_dtype(want.arities)),
                            (got.target, want.target, np.int64)):
            assert a.dtype == b.dtype == dtype
            assert a.shape == b.shape and np.array_equal(a, b)
        assert got.codes.flags["F_CONTIGUOUS"]
        assert (got.arities, got.n_classes, got.feature_names) == \
            (want.arities, want.n_classes, want.feature_names)

    @pytest.mark.parametrize("rows, message", [
        ([-1], r"rows: row -1 outside \[0, 10\)"),
        ([2, 10], r"rows: row 10 outside \[0, 10\)"),
        ([0.5], "rows must be a list of integers, got float64"),
        ([True, False], "rows must be a list of integers, got bool"),
    ], ids=["negative", "past-the-end", "fractional", "mask"])
    def test_malformed_rows_rejected(self, rows, message):
        table = toy_table()
        with pytest.raises(BinningError, match=message):
            apply_binning(table, fit_binning(table, 5), rows)

    def test_column_that_changed_type_rejected(self):
        fitted = RawTable(("A", "Y"), ("numeric",) * 2, (np.arange(4.0), np.zeros(4)), "Y", 4)
        table = RawTable(("A", "Y"), ("categorical", "numeric"),
                         (["0", "1", "2", "3"], np.zeros(4)), "Y", 4)
        with pytest.raises(BinningError, match="^column 'A' changed type since fitting$"):
            apply_binning(table, fit_binning(fitted, 2))

    @pytest.mark.parametrize("fitted_kind,applied_kind", [
        ("numeric", "categorical"), ("categorical", "numeric")])
    def test_target_that_changed_type_rejected(self, fitted_kind, applied_kind):
        # the classes 0/1 as numbers and as the labels "0"/"1" once read as
        # unseen classes, a third class code on every row
        def table(kind):
            y = np.array([0.0, 1.0, 1.0, 0.0]) if kind == "numeric" else ["0", "1", "1", "0"]
            return RawTable(("A", "Y"), ("numeric", kind), (np.arange(4.0), y), "Y", 4)
        spec = fit_binning(table(fitted_kind), 2)
        assert apply_binning(table(fitted_kind), spec).n_classes == 2
        with pytest.raises(BinningError, match="^target column 'Y' changed type since fitting$"):
            apply_binning(table(applied_kind), spec)


def _ref_fit(values, fit_rows):
    """Per-cell reference for one column of labels or integer classes:
    value -> code (labels in order of first appearance on ``fit_rows``,
    integer classes in sorted order), and each value's code, the next code
    for one not seen on ``fit_rows``."""
    fit = [values[i] for i in fit_rows]
    if isinstance(values, np.ndarray):
        classes = sorted({int(v) for v in fit})
        codes = dict(zip(classes, range(len(classes))))
        return codes, [codes.get(int(v), len(codes)) for v in values]
    codes = dict(zip(fit, ref_first_appearance(fit)))
    return codes, [codes.get(v, len(codes)) for v in values]


@st.composite
def label_tables(draw):
    """A table of label columns and a label or integer-valued target, fit
    rows in any order with repeats (often missing some labels), and rows to
    apply to.  In one table of four a column holds 256 to 300 labels, so its
    codes need uint16."""
    wide = draw(st.integers(0, 3)) == 0
    n = draw(st.integers(256, 320)) if wide else draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        pool = LABELS[:draw(st.integers(1, len(LABELS)))]
        cols.append([pool[i] for i in rng.integers(0, len(pool), n)])
    if wide:
        cols.insert(draw(st.integers(0, len(cols))), [f"w{i % 300}" for i in rng.permutation(n)])
    kinds = ["categorical"] * len(cols)
    if draw(st.booleans()):
        kinds.append("numeric")
        cols.append(rng.integers(-3, 4, n).astype(float))
    else:
        kinds.append("categorical")
        cols.append([LABELS[i] for i in rng.integers(0, 3, n)])
    names = tuple(f"F{j}" for j in range(len(cols) - 1)) + ("Y",)
    fit_rows = rng.integers(0, n, draw(st.integers(1, 2 * n)))
    rows = rng.integers(0, n, draw(st.integers(0, 2 * n)))
    return RawTable(names, tuple(kinds), tuple(cols), "Y", n), fit_rows, rows


class TestLabelBinning:
    """discretize, fit_binning and apply_binning on label columns against a
    per-cell first-appearance reference."""

    @given(label_tables())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_per_cell_reference(self, case):
        table, fit_rows, rows = case
        n_features = len(table.feature_names)
        ys = table.columns[-1]
        ys = ys if isinstance(ys, np.ndarray) else table.column("Y")
        for fit in (None, fit_rows):
            fit_list = range(table.n_rows) if fit is None else fit.tolist()
            want = [_ref_fit(table.column(name), fit_list) for name in table.feature_names]
            arities = tuple(len(labels) + 1 for labels, _ in want)
            target_labels, target = _ref_fit(ys, fit_list)
            n_fit = len(target_labels)
            spec = fit_binning(table, 5, fit)
            for cspec, (labels, _) in zip(spec.feature_specs, want):
                assert list(cspec.labels.items()) == list(labels.items())
            assert list(spec.target_labels.items()) == list(target_labels.items())
            got = [apply_binning(table, spec), apply_binning(table, spec, rows)]
            if fit is None:
                got.append(discretize(table, 5))
            for ds, on in zip(got, (range(table.n_rows), rows.tolist(), range(table.n_rows))):
                assert ds.codes.shape == (len(on), n_features)
                assert ds.codes.dtype == narrow_dtype(arities) and ds.arities == arities
                for j, (_, codes) in enumerate(want):
                    assert ds.codes[:, j].tolist() == [codes[i] for i in on]
                assert ds.target.dtype == np.int64
                assert ds.target.tolist() == [target[i] for i in on]
                assert ds.n_classes == n_fit + (max(target, default=0) >= n_fit)

    def test_numeric_target_against_per_cell_lookup(self):
        # classes 0 and 2 and a large one on the fit rows; -1, 1, 3 and 1e15 only outside
        values = np.array([2.0, 0.0, 9e15, 2.0, -1.0, 1.0, 3.0, 1e15, 0.0, 9e15, -0.0])
        table = RawTable(("A", "Y"), ("numeric",) * 2, (np.arange(11.0), values), "Y", 11)
        spec = fit_binning(table, 2, [3, 0, 1, 2, 1])
        assert spec.target_labels == {0: 0, 2: 1, 9_000_000_000_000_000: 2}
        classes, want = _ref_fit(values, [3, 0, 1, 2, 1])
        assert classes == spec.target_labels
        ds = apply_binning(table, spec)
        assert ds.target.dtype == np.int64 and ds.target.tolist() == want
        assert ds.n_classes == 4
        rows = [6, 2, 2]
        assert apply_binning(table, spec, rows).target.tolist() == [want[i] for i in rows]

    @pytest.mark.parametrize("bad", [0.5, np.inf, np.nan])
    def test_non_integer_numeric_target_rejected_at_apply(self, bad):
        fitted = RawTable(("A", "Y"), ("numeric",) * 2, (np.arange(3.0), np.zeros(3)), "Y", 3)
        table = RawTable(("A", "Y"), ("numeric",) * 2,
                         (np.arange(3.0), np.array([0.0, bad, 1.0])), "Y", 3)
        with pytest.raises(BinningError,
                           match="^target column must be categorical or integer-valued$"):
            apply_binning(table, fit_binning(fitted, 2))


class TestHoldoutTrainingHalf:
    """The training dataset that the holdout protocol selects on, against the
    whole table binned by a fit on the training rows, restricted to them."""

    @given(mixed_tables().filter(lambda case: case[0].feature_names), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_apply_then_restrict(self, case, data):
        table, n_bins = case
        row = st.integers(0, table.n_rows - 1)
        train = data.draw(st.lists(row, min_size=1, max_size=table.n_rows))
        test = data.draw(st.lists(row, min_size=1, max_size=table.n_rows))
        seen = []
        run = lambda: seen.extend(  # noqa: E731
            fixed_order_benchmark(table, [0], [(train, test)], n_bins=n_bins)[1])
        try:
            want = apply_binning(table, fit_binning(table, n_bins, train)).restrict(train)
        except BinningError as e:
            with pytest.raises(BinningError, match=f"^{re.escape(str(e))}$"):
                run()
            return
        run()
        got, again = seen
        assert again is got
        for a, b in ((got.codes, want.codes), (got.target, want.target)):
            assert a.dtype == b.dtype and a.strides == b.strides and np.array_equal(a, b)
        assert (got.arities, got.n_classes, got.feature_names) == \
            (want.arities, want.n_classes, want.feature_names)


class TestNarrowCodes:
    """Binned codes take one dtype for the whole table, the narrowest unsigned
    one that holds every column's arity, on every path that bins."""

    @staticmethod
    def _labels_table(n_labels, extra=()):
        # every label on two rows, so that each code reaches up to n_labels - 1
        labels = [f"v{i}" for i in range(n_labels)] * 2 + list(extra)
        y = np.arange(len(labels)) % 2
        return RawTable(("L", "Y"), ("categorical", "numeric"), (labels, y.astype(float)),
                        "Y", len(labels))

    @pytest.mark.parametrize("n_labels, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_categorical_arity_boundary(self, n_labels, dtype):
        # n labels and the code reserved for unseen ones: arity 256 fits uint8, 257 does not
        table = self._labels_table(n_labels)
        got = discretize(table)
        want = apply_binning(table, fit_binning(table))
        assert got.arities == want.arities == (n_labels + 1,)
        assert got.codes.dtype == want.codes.dtype == dtype
        assert got.codes[:, 0].tolist() == ref_first_appearance(table.column("L"))
        assert np.array_equal(got.codes, want.codes)

    def test_unseen_label_takes_the_top_uint8_code(self):
        # 255 labels seen at fit time and one unseen: its code 255 is the top of uint8
        table = self._labels_table(255, extra=["new"])
        spec = fit_binning(table, fit_rows=range(table.n_rows - 1))
        ds = apply_binning(table, spec)
        assert ds.arities == (256,) and ds.codes.dtype == np.uint8
        assert ds.codes[-1, 0] == 255

    def test_300_bins_on_every_path(self):
        # W takes 300 evenly spaced values, each in a bin of its own at 300 bins,
        # so W needs uint16; the Gaussian column beside it fits uint8 alone
        rng = np.random.default_rng(3)
        n = 3_000
        w = rng.permutation(np.arange(n) % 300).astype(float)
        table = RawTable(("W", "G", "Y"), ("numeric",) * 3,
                         (w, rng.normal(size=n), rng.integers(0, 2, n).astype(float)), "Y", n)
        ds = discretize(table, n_bins=300)
        assert ds.arities[0] == 300 and ds.arities[1] <= 256
        assert ds.codes.dtype == np.uint16
        assert np.array_equal(ds.codes[:, 0], w.astype(int))
        rows = rng.integers(0, n, 200)
        for sub in (apply_binning(table, fit_binning(table, 300), rows), ds.restrict(rows)):
            assert sub.codes.dtype == np.uint16 and sub.target.dtype == np.int64
            assert np.array_equal(sub.codes, ds.codes[rows])
        splits = make_splits(n, SplitSpec(0.5, seed=1, n_repeats=2))
        report, seen = fixed_order_benchmark(table, [0, 1], splits, n_bins=300)
        assert report.errors.shape == (2, 2, 2)
        assert all(a is b for a, b in zip(seen[2:], seen[:2]))
        for train_ds, (train, _) in zip(seen, splits):
            want = apply_binning(table, fit_binning(table, 300, train), train)
            assert train_ds.arities[0] > 256
            assert train_ds.codes.dtype == want.codes.dtype == np.uint16
            assert np.array_equal(train_ds.codes, want.codes)

    def test_no_feature_columns(self):
        table = RawTable(("Y",), ("numeric",), (np.array([0.0, 1.0, 1.0]),), "Y", 3)
        got = discretize(table)
        want = apply_binning(table, fit_binning(table))
        assert got.codes.shape == want.codes.shape == (3, 0)
        assert got.codes.dtype == want.codes.dtype == np.uint8
        assert got.codes.strides == want.codes.strides

    def test_discretize_peak_below_int64_codes(self):
        # 20,000 x 20 floats: the int64 codes alone would take N * D * 8 bytes
        rng = np.random.default_rng(0)
        n, d = 20_000, 20
        names = tuple(f"F{j}" for j in range(d)) + ("Y",)
        cols = tuple(rng.normal(size=n) for _ in range(d)) + (rng.integers(0, 2, n) * 1.0,)
        table = RawTable(names, ("numeric",) * (d + 1), cols, "Y", n)
        tracemalloc.start()
        try:
            ds = discretize(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about a quarter of that: the one-byte columns, stacked once, and one
        # column's raw bins at a time
        assert peak < n * d * 8
        assert ds.codes.dtype == np.uint8

    def test_discretize_holds_the_codes_once(self):
        # 20,000 x 40 floats and a class column: 800,000 bytes of uint8 codes
        rng = np.random.default_rng(0)
        n, d = 20_000, 40
        names = tuple(f"F{j}" for j in range(d)) + ("Y",)
        cols = tuple(rng.normal(size=n) for _ in range(d)) \
            + ([("neg", "pos")[i % 3 == 0] for i in range(n)],)
        table = RawTable(names, ("numeric",) * d + ("categorical",), cols, "Y", n)
        tracemalloc.start()
        try:
            ds = discretize(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the codes once, and one column's int64 raw bins and the int64 target
        # beside them: about 1.02 MB; with the columns listed and then stacked
        # the codes are held twice, about 1.79 MB
        assert peak < ds.codes.nbytes + 3 * n * 8
        assert ds.codes.dtype == np.uint8

    def test_wide_column_after_narrow_ones(self):
        # L needs uint16 after G has been written in uint8; H comes after it
        rng = np.random.default_rng(4)
        n = 900
        labels = [f"v{i % 300}" for i in range(n)]
        g, h = rng.normal(size=n), rng.normal(size=n)
        y = (np.arange(n) % 2).astype(float)
        table = RawTable(("G", "L", "H", "Y"), ("numeric", "categorical", "numeric", "numeric"),
                         (g, labels, h, y), "Y", n)
        ds = discretize(table)
        assert ds.codes.dtype == np.uint16 and ds.codes.flags.f_contiguous
        assert ds.codes[:, 1].tolist() == ref_first_appearance(labels)
        for j, col in ((0, g), (2, h)):
            alone = discretize(RawTable(("X", "Y"), ("numeric",) * 2, (col, y), "Y", n))
            assert np.array_equal(ds.codes[:, j], alone.codes[:, 0])
        assert np.array_equal(ds.codes, apply_binning(table, fit_binning(table)).codes)


class TestSplits:
    def test_even_split(self):
        train, test = make_splits(10, SplitSpec(0.5, seed=1, n_repeats=1))[0]
        assert len(train) == len(test) == 5
        assert not set(train) & set(test)
        assert sorted(set(train) | set(test)) == list(range(10))

    def test_seed_determinism(self):
        a = make_splits(20, SplitSpec(0.5, seed=9, n_repeats=4))
        b = make_splits(20, SplitSpec(0.5, seed=9, n_repeats=4))
        for (t1, s1), (t2, s2) in zip(a, b):
            assert np.array_equal(t1, t2) and np.array_equal(s1, s2)

    def test_two_rows(self):
        train, test = make_splits(2, SplitSpec(0.5, seed=0, n_repeats=1))[0]
        assert len(train) == len(test) == 1

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(DataError):
            make_splits(10, SplitSpec(0.05, seed=0, n_repeats=1))
        with pytest.raises(DataError):
            make_splits(1, SplitSpec(0.5, seed=0, n_repeats=1))

    @pytest.mark.parametrize("spec, message", [
        (SplitSpec(0.5, seed=0, n_repeats=0), "at least one repeat, got 0"),
        (SplitSpec(0.5, seed=0, n_repeats=-1), "at least one repeat, got -1"),
        (SplitSpec(float("nan"), seed=0, n_repeats=2), "train fraction nan is not finite"),
        (SplitSpec(float("inf"), seed=0, n_repeats=2), "train fraction inf is not finite"),
        (SplitSpec(1e308, seed=0, n_repeats=2), r"^train fraction 1e\+308 leaves an empty side$"),
        (SplitSpec(-1e308, seed=0, n_repeats=2), r"^train fraction -1e\+308 leaves an empty side$"),
        (SplitSpec(0.5, seed=0, n_repeats=2.5), "^n_repeats must be an int, got 2.5$"),
        (SplitSpec(0.5, seed=0, n_repeats=True), "^n_repeats must be an int, got True$"),
        (SplitSpec(0.5, seed=1.5, n_repeats=2), "^seed must be an int, got 1.5$"),
        (SplitSpec(0.5, seed=True, n_repeats=2), "^seed must be an int, got True$"),
        (SplitSpec(0.5, seed=None, n_repeats=2), "^seed must be an int, got None$"),
        (SplitSpec(0.5, seed=-1, n_repeats=2), "^seed must be >= 0, got -1$"),
        (SplitSpec("0.5", seed=0, n_repeats=2),
         "^train_fraction must be a real number, got '0.5'$"),
        (SplitSpec(None, seed=0, n_repeats=2), "^train_fraction must be a real number, got None$"),
        (SplitSpec(True, seed=0, n_repeats=2), "^train_fraction must be a real number, got True$"),
        (SplitSpec(np.True_, seed=0, n_repeats=2),
         "^train_fraction must be a real number, got np.True_$"),
    ], ids=["zero-repeats", "negative-repeats", "nan-fraction", "inf-fraction",
            "huge-fraction", "huge-negative-fraction",
            "float-repeats", "bool-repeats", "float-seed", "bool-seed", "none-seed",
            "negative-seed", "string-fraction", "none-fraction", "bool-fraction",
            "numpy-bool-fraction"])
    def test_degenerate_spec_rejected(self, spec, message):
        # no repeats once gave an empty split list, and a non-finite fraction
        # a bare conversion error from math.floor, as did a fraction of +-1e308,
        # whose product with the rows overflows; 2.5 repeats raised a bare
        # TypeError from range, seed 1.5 and -1 numpy's SeedSequence errors,
        # seed True ran as seed 1, and seed None drew fresh entropy each call;
        # a fraction "0.5" or None raised a bare TypeError from math.isfinite
        with pytest.raises(DataError, match=message):
            make_splits(10, spec)

    def test_numpy_float_fraction_accepted(self):
        got = make_splits(20, SplitSpec(np.float64(0.5), seed=9, n_repeats=2))
        want = make_splits(20, SplitSpec(0.5, seed=9, n_repeats=2))
        assert all(np.array_equal(a, b) for pair in zip(got, want) for a, b in zip(*pair))

    def test_numpy_integer_fields_accepted(self):
        got = make_splits(20, SplitSpec(0.5, seed=np.int64(9), n_repeats=np.int32(3)))
        want = make_splits(20, SplitSpec(0.5, seed=9, n_repeats=3))
        assert len(got) == 3
        for (t1, s1), (t2, s2) in zip(got, want):
            assert np.array_equal(t1, t2) and np.array_equal(s1, s2)


class TestProperties:
    def test_round_trip_codes_below_arity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            mat = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10)
            from infosel.data import RawTable
            cols = tuple([mat[:, j].copy() for j in range(3)]
                         + [rng.integers(0, 2, n).astype(float)])
            table = RawTable(("a", "b", "c", "Y"), ("numeric",) * 4, cols, "Y", n)
            ds = discretize(table, n_bins=int(rng.integers(1, 7)))
            for j, ar in enumerate(ds.arities):
                assert ds.codes[:, j].max() < ar
                assert ds.codes[:, j].min() >= 0

    def test_codes_monotone_in_value(self):
        rng = np.random.default_rng(1)
        vals = np.sort(rng.normal(size=50))
        from infosel.data import RawTable
        table = RawTable(("a", "Y"), ("numeric",) * 2,
                         (vals, rng.integers(0, 2, 50).astype(float)), "Y", 50)
        ds = discretize(table, n_bins=5)
        assert np.all(np.diff(ds.codes[:, 0]) >= 0)

    def test_discretize_deterministic(self):
        table = make_xor_table(seed=5)
        a, b = discretize(table), discretize(table)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.target, b.target)
        assert a.arities == b.arities


class TestDiscreteDataset:
    """Codes outside their declared range fail at construction."""

    def _make(self, codes, arities=(2, 2), target=(0, 1), n_classes=2):
        return DiscreteDataset(np.array(codes), tuple(arities), np.array(target),
                               n_classes, tuple(f"f{j}" for j in range(len(arities))))

    def test_code_at_arity_rejected(self):
        # (0, 2) and (1, 0) under arities (2, 2) once encoded to the same joint
        # state, giving a joint entropy of 0 instead of 1 bit
        with pytest.raises(DataError, match=r"feature 'f1': code 2 outside \[0, 2\)"):
            self._make([[0, 2], [1, 0]])

    def test_negative_code_rejected(self):
        with pytest.raises(DataError, match=r"feature 'f0': code -1 outside"):
            self._make([[-1, 0], [1, 0]])

    @pytest.mark.parametrize("target", [(0, 2), (-1, 0)])
    def test_target_outside_classes_rejected(self, target):
        with pytest.raises(DataError, match=r"target codes outside \[0, 2\)"):
            self._make([[0, 1], [1, 0]], target=target)

    def test_float_codes_rejected(self):
        with pytest.raises(DataError, match="integers"):
            self._make([[0.0, 1.0], [1.0, 0.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="do not fit together"):
            self._make([[0, 1], [1, 0]], arities=(2, 2, 2))
        with pytest.raises(DataError, match="do not fit together"):
            self._make([[0, 1], [1, 0]], target=(0, 1, 1))

    def test_in_range_and_empty_accepted(self):
        ds = self._make([[0, 1], [1, 0]])
        assert ds.n_rows == 2
        assert self._make(np.zeros((0, 2), np.int64), target=np.zeros(0, np.int64)).n_rows == 0

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
    def test_unsigned_codes_accepted(self, dtype):
        # a range check that starts its max from -1 overflows an unsigned dtype
        ds = self._make(np.array([[0, 1], [1, 0]], dtype), target=np.array([0, 1], np.uint8))
        assert ds.codes.dtype == dtype and ds.target.dtype == np.uint8
        empty = self._make(np.zeros((0, 2), dtype), target=np.zeros(0, np.uint8))
        assert empty.n_rows == 0

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
    def test_unsigned_code_at_arity_rejected(self, dtype):
        with pytest.raises(DataError, match=r"feature 'f1': code 2 outside \[0, 2\)"):
            self._make(np.array([[0, 2], [1, 0]], dtype))
        with pytest.raises(DataError, match=r"target codes outside \[0, 2\)"):
            self._make(np.array([[0, 1], [1, 0]], dtype), target=np.array([0, 2], np.uint8))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_restrict_copies_rows_column_major(self, order):
        ds = self._make(np.array([[0, 1], [1, 0], [1, 1]], order=order), target=(0, 1, 1))
        sub = ds.restrict([2, 0])
        assert np.array_equal(sub.codes, [[1, 1], [0, 1]])
        assert np.array_equal(sub.target, [1, 0])
        assert sub.codes.flags["F_CONTIGUOUS"]
        assert not np.shares_memory(sub.codes, ds.codes)

    @pytest.mark.parametrize("rows, message", [
        ([-1], r"restrict: row -1 outside \[0, 3\)"),
        ([0, 3], r"restrict: row 3 outside \[0, 3\)"),
        ([0.5], "restrict must be a list of integers, got float64"),
        ([True, False, True], "restrict must be a list of integers, got bool"),
    ], ids=["negative", "past-the-end", "fractional", "mask"])
    def test_malformed_restrict_rows_rejected(self, rows, message):
        # row -1 once wrapped round to the last row
        ds = self._make([[0, 1], [1, 0], [1, 1]], target=(0, 1, 1))
        with pytest.raises(DataError, match=message):
            ds.restrict(rows)

    def test_restrict_to_no_rows(self):
        ds = self._make([[0, 1], [1, 0]])
        assert ds.restrict([]).n_rows == 0


@pytest.mark.parametrize("names,kinds,columns,target,n_rows,message", [
    (("a", "b", "Y"), ("numeric",) * 2, (np.zeros(3),) * 2, "Y", 3,
     "^3 names, 2 kinds and 2 columns$"),
    (("a", "Y"), ("numeric",) * 3, (np.zeros(3),) * 2, "Y", 3,
     "^2 names, 3 kinds and 2 columns$"),
    (("a", "Y"), ("numeric",) * 2, (np.zeros(3),) * 3, "Y", 3,
     "^2 names, 2 kinds and 3 columns$"),
    (("a", "a", "Y"), ("numeric",) * 3, (np.zeros(3),) * 3, "Y", 3,
     "^duplicate column name 'a'$"),
    (("a", "b"), ("numeric",) * 2, (np.zeros(3),) * 2, "Y", 3,
     "^target column 'Y' is not among the columns$"),
    (("a", "Y"), ("numeric",) * 2, (np.zeros(3), np.zeros(4)), "Y", 4,
     "^column 'a' has 3 rows, not 4$"),
    (("a", "Y"), ("categorical", "numeric"), (["x", "y"], np.zeros(3)), "Y", 3,
     "^column 'a' has 2 rows, not 3$"),
], ids=["names", "kinds", "columns", "duplicate", "target", "numeric-rows", "label-rows"])
def test_raw_table_that_does_not_fit_together_rejected(names, kinds, columns, target,
                                                        n_rows, message):
    with pytest.raises(DataError, match=message):
        RawTable(names, kinds, columns, target, n_rows)


def test_toy_dataset_matches_table_path():
    direct = toy_dataset()
    via_binning = discretize(toy_table(), n_bins=5)
    assert np.array_equal(direct.codes, via_binning.codes)
    assert np.array_equal(direct.target, via_binning.target)


def test_xor_table_shape():
    t = make_xor_table(seed=0, n_rows=128, n_noise=6)
    assert t.n_rows == 128
    assert len(t.feature_names) == 10
    x = np.column_stack([t.column(f"X{i}") for i in range(1, 5)]).astype(int)
    y = np.asarray(t.column("Y"), dtype=int)
    assert np.array_equal(x[:, 0] ^ x[:, 1] ^ x[:, 2] ^ x[:, 3], y)
