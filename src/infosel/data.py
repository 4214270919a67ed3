"""Tabular ingestion, equal-width discretization, and split generation.

Everything downstream works on integer-coded columns: each feature j takes
values in [0, arity_j) and the target takes class codes in [0, n_classes).
Discretization is fit on a chosen row subset (the training rows in the
benchmark harness) and can then be applied to any table with the same schema.
A binned feature column is stored in the narrowest unsigned dtype that holds
its arity (``_narrow_dtype``), so at a few bins each code takes one byte.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import sys
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

import numpy as np


class DataError(ValueError):
    """Raised for malformed input tables or invalid binning requests."""


class BinningError(DataError):
    """Raised when a table cannot be binned as asked, on all rows or on a split's."""


def _narrow_dtype(arity: int) -> type:
    """The narrowest unsigned dtype that holds the codes 0..arity-1; int64 above 2**16."""
    return np.uint8 if arity <= 1 << 8 else np.uint16 if arity <= 1 << 16 else np.int64


def _int_at_least(value, name: str, low: int | None = 1, error=ValueError) -> int:
    """``value`` as an int, or ``error`` naming ``name`` unless it is an int or
    numpy integer (a bool is not) of at least ``low``; None checks the type only."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return int(value)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: an int, float or numpy number, a bool not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _one_number_per_row(col) -> bool:
    """Whether ``col`` reads as a 1-D float array (NaN and inf included)."""
    try:
        return np.asarray(col, dtype=float).ndim == 1
    except (TypeError, ValueError):
        return False


def _row_indices(rows, n_rows: int, what: str, error) -> np.ndarray:
    """``rows`` as an int64 array, or ``error`` unless each is an integer in [0, n_rows)."""
    rows = np.asarray(rows)
    # an empty list comes out as float64; whether no rows will do is the caller's call
    if rows.ndim != 1 or not (np.issubdtype(rows.dtype, np.integer) or rows.size == 0):
        raise error(f"{what} must be a list of integers, got {rows.dtype} of shape {rows.shape}")
    outside = rows[(rows < 0) | (rows >= n_rows)]
    if len(outside):
        raise error(f"{what}: row {outside[0]} outside [0, {n_rows})")
    return rows.astype(np.int64, copy=False)


class _Codes(dict):
    """label -> code, numbered in order of first appearance as labels are looked up."""

    def __missing__(self, label):
        code = self[label] = len(self)
        return code


@dataclass(frozen=True, eq=False)
class LabelColumn:
    """A categorical column: each row's int32 code and the labels in code order.

    Codes are numbered in order of first appearance down the rows, so code c
    first appears before code c + 1, and every label is on some row.
    ``load_csv`` builds one from its coders; ``of`` codes a list of labels.
    Its length is the number of rows; iterating gives each row's label.
    """

    codes: np.ndarray                   # (n_rows,) int32
    labels: tuple[str, ...]

    @classmethod
    def of(cls, labels) -> "LabelColumn":
        """The labels, as given, numbered in order of first appearance."""
        seen = _Codes()
        codes = np.fromiter(map(seen.__getitem__, labels), np.int32)
        return cls(codes, tuple(seen))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return map(self.labels.__getitem__, self.codes.tolist())

    def __sizeof__(self) -> int:
        # the codes and the label tuple; the label strings are shared, not owned
        return object.__sizeof__(self) + self.codes.nbytes + sys.getsizeof(self.labels)

    def first_appearance(self, rows=None) -> tuple[dict, np.ndarray]:
        """label -> code in order of first appearance on ``rows`` (all when
        None), and the codes of those rows.

        On all rows the codes already are those codes.  On a subset, one
        ``np.unique`` finds where each code first appears and renumbers the
        codes in that order; ``rows`` may be unsorted or repeat.
        """
        if rows is None:
            return dict(zip(self.labels, range(len(self.labels)))), self.codes
        codes = self.codes[rows]
        present, first = np.unique(codes, return_index=True)
        present = present[np.argsort(first)]
        renumber = np.empty(len(self.labels), np.int32)
        renumber[present] = np.arange(len(present), dtype=np.int32)
        labels = map(self.labels.__getitem__, present.tolist())
        return dict(zip(labels, range(len(present)))), renumber[codes]


@dataclass(frozen=True)
class RawTable:
    """A loaded table: named columns, each numeric or categorical.

    ``numeric`` columns hold float arrays, ``categorical`` columns a
    ``LabelColumn``: each row's code and the labels in code order.  Any other
    sequence of labels given for a categorical column is coded here, once.
    The target column is kept alongside the features and must be categorical
    or integer-valued numeric.  Names, kinds and columns come one per column;
    a duplicate name, a target not among the names, a kind other than
    ``numeric`` and ``categorical``, a numeric column that does not read as
    a 1-D float array, a column whose length is not ``n_rows`` or an
    ``n_rows`` that is not an int of at least 0 raises ``DataError``.  A
    numeric feature column's values must be finite to be binned
    (``BinningError`` otherwise).
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]              # "numeric" | "categorical", per column
    columns: tuple[object, ...]         # np.ndarray (float) or LabelColumn
    target_name: str
    n_rows: int

    def __post_init__(self):
        if not len(self.names) == len(self.kinds) == len(self.columns):
            raise DataError(f"{len(self.names)} names, {len(self.kinds)} kinds and "
                            f"{len(self.columns)} columns")
        if len(set(self.names)) != len(self.names):
            dup = next(n for i, n in enumerate(self.names) if n in self.names[:i])
            raise DataError(f"duplicate column name {dup!r}")
        if self.target_name not in self.names:
            raise DataError(f"target column {self.target_name!r} is not among the columns")
        object.__setattr__(self, "n_rows", _int_at_least(self.n_rows, "n_rows", 0, DataError))
        object.__setattr__(self, "columns", tuple(
            LabelColumn.of(col) if kind == "categorical" and not isinstance(col, LabelColumn)
            else col for kind, col in zip(self.kinds, self.columns)))
        for name, kind, col in zip(self.names, self.kinds, self.columns):
            if kind not in ("numeric", "categorical"):
                raise DataError(f"column {name!r} has kind {kind!r}, "
                                "not 'numeric' or 'categorical'")
            if kind == "numeric" and not _one_number_per_row(col):
                raise DataError(f"numeric column {name!r} is not one number per row")
            if len(col) != self.n_rows:
                raise DataError(f"column {name!r} has {len(col)} rows, not {self.n_rows}")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if n != self.target_name)

    def column(self, name: str):
        """A numeric column's float array, or a categorical column's labels as a list."""
        col = self.columns[self.names.index(name)]
        return list(col) if isinstance(col, LabelColumn) else col

    def kind(self, name: str) -> str:
        return self.kinds[self.names.index(name)]


@dataclass(frozen=True)
class ColumnSpec:
    """Fitted per-column transform.

    Numeric columns carry equal-width cut points plus a raw-bin -> code table:
    ``codes[r]`` is the dense index, among the bins occupied on the fitting
    rows, of the occupied bin nearest to raw bin r, the lower one on a tie
    (arity = number of occupied bins), held in ``_narrow_dtype(arity)`` so
    that a lookup gives narrow codes.  Categorical columns carry a label ->
    code map in first-appearance order on the fitting rows, with one extra
    code reserved for labels unseen at fit time.
    """

    kind: str
    edges: np.ndarray | None = None               # numeric: n_bins-1 cut points
    codes: np.ndarray | None = None               # numeric: raw bin -> code
    labels: dict[str, int] | None = None          # categorical: label -> code
    arity: int = 1

    def encode(self, column, rows=None) -> np.ndarray:
        """The codes of ``column`` (a float array, or a ``LabelColumn``) on
        ``rows`` (all when None); a categorical column's labels go through
        ``labels`` once each, as a lookup table for its codes."""
        if self.kind == "numeric":
            values = np.asarray(column, dtype=float)
            values = _finite(values if rows is None else values[rows])
            return self.codes[raw_bins(values, self.edges)]
        table = _label_table(column.labels, self.labels, _narrow_dtype(self.arity))
        return table[column.codes if rows is None else column.codes[rows]]


def _label_table(labels, codes: dict, dtype) -> np.ndarray:
    """Each of ``labels``' code in ``codes``, or ``len(codes)`` for one not in it."""
    unseen = len(codes)
    return np.fromiter(map(codes.get, labels, repeat(unseen)), dtype, len(labels))


@dataclass(frozen=True)
class BinningSpec:
    """Fitted discretization for a whole table, including the target map."""

    n_bins: int
    feature_names: tuple[str, ...]
    feature_specs: tuple[ColumnSpec, ...]
    target_name: str
    target_kind: str                    # "numeric" | "categorical", as fitted
    target_labels: dict = field(default_factory=dict)   # class value -> code


@dataclass(frozen=True)
class DiscreteDataset:
    """Integer-coded table: N x D feature codes plus a class-label column.

    ``codes`` and ``target`` are numpy arrays of any integer dtype;
    ``_dataset`` gives the binned format.
    """

    codes: np.ndarray                   # (n_rows, n_features), any integer dtype
    arities: tuple[int, ...]
    target: np.ndarray                  # (n_rows,) int64
    n_classes: int
    feature_names: tuple[str, ...]

    def __post_init__(self):
        # a code outside [0, arity) would make the joint encoder merge
        # distinct states without a word, so reject it here
        codes, target = self.codes, self.target
        if not (isinstance(codes, np.ndarray) and isinstance(target, np.ndarray)):
            raise DataError(f"codes and target must be numpy arrays, got "
                            f"{type(codes).__name__} and {type(target).__name__}")
        width = len(self.arities)
        if codes.ndim != 2 or codes.shape[1] != width or len(self.feature_names) != width \
                or target.shape != (codes.shape[0],):
            raise DataError(f"codes {codes.shape}, {len(self.arities)} arities, "
                            f"{len(self.feature_names)} names and target {target.shape} "
                            "do not fit together")
        if not (np.issubdtype(codes.dtype, np.integer)
                and np.issubdtype(target.dtype, np.integer)):
            raise DataError("codes and target must be integers")
        # arities are Python ints and may exceed int64, so compare as such; a
        # max cannot start from -1 in an unsigned dtype, so no rows skip the check
        if len(codes):
            for name, arity, low, high in zip(self.feature_names, self.arities,
                                              codes.min(axis=0).tolist(),
                                              codes.max(axis=0).tolist()):
                if low < 0 or high >= arity:
                    raise DataError(f"feature {name!r}: code {low if low < 0 else high} "
                                    f"outside [0, {arity})")
            if int(target.min()) < 0 or int(target.max()) >= self.n_classes:
                raise DataError(f"target codes outside [0, {self.n_classes})")
        self.codes.setflags(write=False)
        self.target.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    def restrict(self, rows) -> "DiscreteDataset":
        """The dataset on the given rows, in that order, with column-major codes
        of the same dtype.

        Each row must be an integer in [0, n_rows); anything else raises ``DataError``.
        """
        rows = _row_indices(rows, self.n_rows, "restrict", DataError)
        # taking along the rows of the transpose copies once, straight into column-major
        return DiscreteDataset(self.codes.T.take(rows, axis=1).T, self.arities,
                               self.target[rows], self.n_classes, self.feature_names)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.5
    seed: int = 0
    n_repeats: int = 30


#: rows that ``load_csv``'s loop parses with ``csv`` and converts at a time:
#: the first chunk, which fixes each column's kind, and every chunk from the
#: first block that numpy's C reader refuses on.  256 rows of a few dozen
#: columns are some 8,000 cell strings, which stay in cache while the chunk is
#: transposed into columns (at 4,096 rows the transpose was 2.5x slower)
_CHUNK_ROWS = 256
#: characters of whole lines that the same loop hands numpy's C reader at a
#: time, between the first chunk and the first block it refuses (a block ends
#: with the line that passes this)
_BLOCK_CHARS = 1 << 16


def load_csv(path, target_name: str) -> RawTable:
    """Load a UTF-8 (optionally BOM-prefixed), comma-separated file with a header row.

    Column types are inferred: numeric if every cell parses as a finite
    float, categorical otherwise.  Missing cells, ragged rows, duplicate header
    names, and empty tables are hard errors; the first one row by row is
    reported, once the whole file has parsed as CSV.

    One loop reads the text, one ``csv`` chunk or C-reader block at a time.
    The first ``_CHUNK_ROWS`` rows are parsed by ``csv``, and fix each
    column's kind.  The rows after them go to numpy's C reader in blocks of
    whole lines, about ``_BLOCK_CHARS`` characters each, with float64 fields
    for numeric columns and int32 fields for labels, which each label
    column's coder fills as a converter.  A block is kept only when the C
    reader can vouch that ``csv`` would read it the same way and that it
    holds no error (see ``_parse_block``).  The first block that fails a
    check, and everything after it, is parsed by ``csv`` again,
    ``_CHUNK_ROWS`` rows at a time, so every error is ``csv``'s; ``csv``
    reads that block's lines through a list iterator, which drops them once
    read.  No row list is kept, so memory is bounded by one block or chunk
    plus the typed columns.  A chunk is kept cache-sized: turning thousands
    of rows of cells into columns misses the cache and is slower, not
    faster.  Each block or chunk gives each column one piece: float64
    values for a numeric column, int32 codes for a categorical one.  A
    column's pieces are folded into one array whenever those read since the
    last fold hold at least as many rows as that array.  The pieces then
    never hold much more than half the rows, each fold at least doubles the
    array, so copying stays within twice the rows, and all but the first few
    folded arrays are large allocations, which go back to the system when
    they are freed.  The fold is for resident memory, which tracemalloc does
    not see: pieces joined only at the end would be freed as small heap
    chunks scattered among each other, which the allocator keeps resident,
    so the load's resident peak would hold the table twice.  A categorical
    column's cells, on both paths, go through one ``_Coder``,
    which numbers stripped labels in order of first appearance and looks
    them up by raw cell, so that a cell seen before is not stripped again;
    the column comes out as a ``LabelColumn`` of those codes and its labels
    in code order.
    Each column's kind is fixed for a whole pass over the text: a column that
    turns categorical after the first chunk ends the pass, and the text is
    parsed again from the top with that column read as labels from row 1, so
    the rows before the switch are parsed twice.  Input that cannot be read
    twice, such as a pipe, is held as text first.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        stream = fh if fh.seekable() else io.StringIO(fh.read(), newline="")
        late = set()                    # columns read as labels from row 1
        while (table := _read_table(stream, target_name, late)) is None:
            stream.seek(0)
        return table


def _read_table(fh, target_name: str, late: set) -> RawTable | None:
    """One pass of ``load_csv`` over an open text stream, with the columns in
    ``late`` read as labels from row 1; or None, with ``late`` grown, when a
    column that parsed as numbers turns categorical after the first chunk."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file (no header row)") from None
    chunk = list(islice(reader, _CHUNK_ROWS))
    if not chunk:
        raise DataError("empty table (header only)")
    header = [h.strip() for h in header]
    dupes = sorted({h for h in header if header.count(h) > 1})
    if dupes:
        _fail(reader, f"duplicate header names {dupes}")
    if target_name not in header:
        _fail(reader, f"target column {target_name!r} not in header {header}")
    numeric = [j not in late for j in range(len(header))]
    # per column, the array folded from every piece so far, then one float64 or
    # int32 code array per chunk or block read since that fold
    parts = [[] for _ in header]
    coders = [_Coder() for _ in header]
    n_rows = 0
    folded = 0                          # the rows in each column's folded array
    dtype = None                        # the C reader's fields, while it reads the blocks
    while True:
        if dtype is not None:
            # readlines gives the lines that iterating over fh gives, read in
            # the same pieces, so a decoding error reads as it would from csv
            lines = fh.readlines(_BLOCK_CHARS)
            columns = _parse_block(lines, dtype, labels) if lines else None
            if columns is None:
                # csv reads on from the refused block (no lines at the end of
                # the text); a list iterator drops its list once exhausted, so
                # the block's lines go as soon as csv has read them
                reader = csv.reader(chain(iter(lines), fh))
                dtype = lines = None
                continue
            n_rows += len(lines)
        else:
            if n_rows:                  # the first chunk was read above
                # chunks keep to multiples of _CHUNK_ROWS, so a late column ends the same pass
                chunk = list(islice(reader, _CHUNK_ROWS - n_rows % _CHUNK_ROWS))
                if not chunk:
                    break
            columns, error = _convert_chunk(chunk, header, numeric, n_rows, coders)
            if error:
                _fail(reader, error)
            turned = [j for j, col in enumerate(columns) if numeric[j] and col.dtype == np.int32]
            if turned and n_rows:
                late.update(turned)
                return None
            if not n_rows:
                # the first chunk fixed the kinds: the rows after it go to
                # numpy's C reader while it can vouch for each block
                for j in turned:
                    numeric[j] = False
                dtype = np.dtype([(f"c{j}", float if is_numeric else np.int32)
                                  for j, is_numeric in enumerate(numeric)])
                labels = {j: coder for j, coder in enumerate(coders) if not numeric[j]}
            n_rows += len(chunk)
            del chunk                   # its cell strings go before more rows are read
        for part, col in zip(parts, columns):
            part.append(col)
        if 2 * folded <= n_rows:
            # the pieces hold at least as many rows as the folded array, so
            # each fold at least doubles it (see load_csv); the first piece,
            # a fresh contiguous array, is folded as it is
            if folded:
                for j in range(len(parts)):
                    parts[j] = [np.concatenate(parts[j])]
            folded = n_rows

    columns = []                        # the last piece's arrays now go with their parts
    for j, is_numeric in enumerate(numeric):
        col = parts[j][0] if folded == n_rows else np.concatenate(parts[j])
        columns.append(col if is_numeric else LabelColumn(col, tuple(coders[j].labels)))
        parts[j] = None                 # its chunk arrays go before the next column is joined
    kinds = tuple("numeric" if is_numeric else "categorical" for is_numeric in numeric)
    return RawTable(tuple(header), kinds, tuple(columns), target_name, n_rows)


def _fail(reader, message: str):
    """Raise ``message`` once the rest of the file has parsed, so that a
    malformed line anywhere in it (a csv or decoding error) is reported first."""
    for _ in reader:
        pass
    raise DataError(message)


def _parse_block(lines, dtype, labels):
    """The block's columns, as ``_convert_chunk`` gives them for the same rows
    when each column's kind is the one in ``dtype`` (float64 for numeric,
    int32 codes for labels); or None unless every check below holds.

    ``np.loadtxt`` splits on commas only, and accepts a subset of the cells
    that ``float`` accepts, at the same values.  ``labels`` maps each label
    column's index to its coder, which ``loadtxt`` calls as a converter with
    the raw cell, for the code of its stripped label.  The checks leave it the
    blocks on which that matches ``csv``: no quote or NUL; no carriage return
    but in a CRLF line end, which both readers end a row at; no line
    so long that ``csv`` would refuse a cell; no blank line, which
    ``loadtxt`` would skip where ``csv`` reports a ragged row, and one row
    per line; numbers that are all finite and labels none empty.

    A block refused after ``loadtxt`` has coded some of its labels leaves
    them in the coders.  They keep their codes: they were met in row order,
    on the rows that ``csv`` reads next, with the same cells.
    """
    block = "".join(lines)
    # readlines ends a line at a bare "\r" too, so every "\r" ends a line
    if "\r" in block and any(line[-1] == "\r" for line in lines):
        return None
    # a blank line is a line of "\n" or "\r\n" alone (finding "\n\n" in the
    # block took some ten times as long)
    if '"' in block or "\0" in block or "\n" in lines or "\r\n" in lines \
            or len(block) > csv.field_size_limit():
        return None
    try:
        # encoding=None hands the converters str cells; before numpy 2.0 the
        # default, "bytes", handed them latin1-encoded bytes
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                           encoding=None,
                           converters={j: coder.__getitem__ for j, coder in labels.items()})
    except ValueError:
        return None
    # a cell that strips to nothing puts "" among a coder's labels, and any
    # earlier one has already raised its missing value
    if len(table) != len(lines) or any("" in coder.labels for coder in labels.values()):
        return None
    columns = []
    for j, name in enumerate(dtype.names):
        col = table[name].copy()        # one contiguous array per column
        if j not in labels and not np.isfinite(col).all():
            return None
        columns.append(col)
    return columns


class _Coder(dict):
    """One label column's raw cell -> the code of its stripped label: a cache
    of raw cells over ``labels``, the ``_Codes`` numbering of stripped labels
    in order of first appearance that ``LabelColumn.of`` also uses.

    A hit is one dict lookup; only a cell not seen before is stripped, so
    every raw form of a label shares its code.  ``load_csv``'s ``csv`` chunks
    and C-reader blocks number a column's cells through the same coder.
    """

    __slots__ = ("labels",)

    def __init__(self):
        super().__init__()
        self.labels = _Codes()

    def __missing__(self, cell):
        code = self[cell] = self.labels[cell.strip()]
        return code


def _convert_chunk(chunk, header, numeric, first_row, coders):
    """One chunk's columns, or its first ragged row or missing cell.

    Returns ``(columns, None)``: a column whose ``numeric`` flag is set and
    whose cells all parse as finite floats becomes a float64 array, any other
    the int32 codes of its labels from ``coders``.  Or returns
    ``(None, message)`` for the first ragged row or missing cell in row-major
    order.  ``first_row`` is the chunk's offset among the data rows.
    """
    width = len(header)
    good = len(chunk)
    if set(map(len, chunk)) != {width}:
        good = next(i for i, row in enumerate(chunk) if len(row) != width)
    columns, missing = [], None
    for j, cells in enumerate(zip(*chunk[:good])):
        # float() ignores surrounding whitespace and rejects a blank cell
        values = _finite_floats(cells) if numeric[j] else None
        if values is None:
            coder = coders[j]
            codes = np.fromiter(map(coder.__getitem__, cells), np.int32, len(cells))
            blank = coder.labels.get("")
            # str.strip() also removes the separators \x1c-\x1f, which float() rejects
            if numeric[j] and blank is None:
                labels = tuple(coder.labels)
                values = _finite_floats([labels[c] for c in codes.tolist()])
        if values is not None:
            columns.append(values)
            continue
        at = np.flatnonzero(codes == blank) if blank is not None else ()
        if len(at) and (missing is None or at[0] < missing[0]):
            missing = (int(at[0]), j)
        columns.append(codes)
    if missing is not None:
        row, j = missing
        return None, f"missing value at row {first_row + row + 2}, column {header[j]!r}"
    if good < len(chunk):
        return None, (f"ragged row {first_row + good + 2}: expected {width} cells, "
                      f"got {len(chunk[good])}")
    return columns, None


def _finite_floats(cells):
    """The cells as a float64 array, or None if one is not a finite float."""
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def equal_width_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """The n_bins-1 interior cut points over [min, max]; empty for constants.

    A range so wide that a cut point overflows float64, or so narrow that the
    cut points do not rise strictly above the minimum and each other (so that
    distinct values would share a bin), raises ``BinningError``.
    """
    lo, hi = float(values.min()), float(values.max())
    if n_bins <= 1 or lo == hi:
        return np.empty(0, dtype=float)
    with np.errstate(over="ignore"):
        edges = lo + (hi - lo) * np.arange(1, n_bins) / n_bins
    if not np.isfinite(edges).all():
        raise BinningError(f"range [{lo:g}, {hi:g}] overflows float64 when cut into {n_bins} bins")
    if edges[0] <= lo or np.any(edges[1:] <= edges[:-1]):
        raise BinningError(f"range [{lo!r}, {hi!r}] is too narrow to cut into {n_bins} "
                           f"distinct bins in float64")
    return edges


def _finite(values: np.ndarray) -> np.ndarray:
    """A numeric feature's values, checked to be finite: NaN and infinity have
    no equal-width bin, and would otherwise land in the top or bottom one."""
    if not np.isfinite(values).all():
        raise BinningError("a numeric value is NaN or infinite")
    return values


def raw_bins(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index per the rule edge_{i-1} <= v < edge_i, clamped at both ends;
    every value is in bin 0 when there are no edges."""
    return np.searchsorted(edges, values, side="right").astype(np.int64, copy=False)


def _integer_target(values) -> np.ndarray:
    """Numeric target values as floats, checked to be finite and integer-valued."""
    values = np.asarray(values, dtype=float)
    if not (np.isfinite(values).all() and np.all(values == np.round(values))):
        raise BinningError("target column must be categorical or integer-valued")
    return values


def _integer_classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for integer-valued float
    ``values``: by a lookup over their range when it is shorter than the
    array, which takes two intp arrays where ``np.unique`` sorts a copy and
    makes three."""
    lo, hi = values.min(), values.max()
    if hi - lo >= len(values):
        return np.unique(values, return_inverse=True)
    # v - lo is an integer below len(values), so the float difference is exact
    offsets = np.subtract(values, lo, out=np.empty(len(values), np.intp), casting="unsafe")
    present = np.zeros(int(hi - lo) + 1, bool)
    present[offsets] = True
    rank = np.cumsum(present) - 1
    return np.flatnonzero(present) + lo, rank[offsets]


def _class_codes(values: np.ndarray, target_labels: dict) -> np.ndarray:
    """Integer-valued target values' int64 codes in ``target_labels`` (class
    value -> code), or ``len(target_labels)`` for a class not in it, by one
    ``searchsorted`` over the fitted classes."""
    fitted = sorted(target_labels.items())
    # the NaN after the fitted classes equals no value, so a value above them all is unseen
    classes = np.array([k for k, _ in fitted] + [np.nan])
    codes = np.array([v for _, v in fitted] + [len(target_labels)], dtype=np.int64)
    pos = np.searchsorted(classes[:-1], values)
    return codes[np.where(classes[pos] == values, pos, len(fitted))]


def _fit_column(kind: str, values, n_bins: int, rows=None) -> tuple[ColumnSpec, np.ndarray]:
    """One feature column's transform, fit on ``rows`` (all when None), and the
    codes of those rows in ``_narrow_dtype(arity)``: the fit's own raw bins,
    looked up once, or the column's codes renumbered by first appearance on
    ``rows``."""
    if kind == "numeric":
        values = np.asarray(values, dtype=float)
        if rows is not None:
            values = values[rows]
        edges = equal_width_edges(_finite(values), n_bins)
        raw = raw_bins(values, edges)
        occupied = np.flatnonzero(np.bincount(raw, minlength=len(edges) + 1))
        # raw bin r is nearer the upper of two neighbouring occupied bins
        # only when 2r exceeds their sum (a tie stays low), so its code is
        # the number of neighbour sums below 2r
        arity = len(occupied)
        codes = np.searchsorted(occupied[:-1] + occupied[1:],
                                2 * np.arange(len(edges) + 1)).astype(_narrow_dtype(arity))
        return ColumnSpec("numeric", edges=edges, codes=codes, arity=arity), codes[raw]
    labels, codes = values.first_appearance(rows)
    # reserve one shared code for labels unseen at fit time
    arity = len(labels) + 1
    return (ColumnSpec("categorical", labels=labels, arity=arity),
            codes.astype(_narrow_dtype(arity)))


def _put_codes(codes: np.ndarray, j: int, col: np.ndarray) -> np.ndarray:
    """``codes`` with row j set to ``col``, one feature's codes; a copy in
    ``col``'s dtype first when ``codes`` cannot hold them.

    Each feature's codes are written into one array as they come, so they
    are never held twice, as a list and its stack; started in uint8, the
    array ends in the dtype that holds every column (uint8 while every arity
    is at most 256).
    """
    if np.result_type(codes.dtype, col.dtype) != codes.dtype:
        codes = codes.astype(col.dtype)
    codes[j] = col
    return codes


def _dataset(spec: BinningSpec, codes: np.ndarray, target: np.ndarray,
             n_classes: int) -> DiscreteDataset:
    """Every binned dataset: ``codes``, one row per feature filled by
    ``_put_codes``, as the column-major codes, with arities and names from
    ``spec`` and an int64 target."""
    # column-major, so that each feature column is one contiguous run of memory
    return DiscreteDataset(codes.T, tuple(s.arity for s in spec.feature_specs), target,
                           n_classes, spec.feature_names)


#: the most bins a column is cut into, checked before any cut point is made:
#: binning the toy table at 2**20 bins peaks near 60 MiB, within the
#: package's other 64 MiB budgets; far past it numpy fails to allocate the
#: cut points or, from 2**63 - 1 on, makes none
_MAX_BINS = 1 << 20


def _fit(table: RawTable, n_bins: int, rows=None) -> tuple[BinningSpec, DiscreteDataset]:
    """The spec fit on ``rows`` (all when None) and those rows binned by it,
    from the fit's own codes, with ``n_classes`` the classes on those rows."""
    n_bins = _int_at_least(n_bins, "n_bins", error=BinningError)
    if n_bins > _MAX_BINS:
        raise BinningError(f"n_bins must be <= {_MAX_BINS}, got {n_bins}")
    if rows is not None:
        rows = _row_indices(rows, table.n_rows, "fit_rows", BinningError)
    if (table.n_rows if rows is None else len(rows)) == 0:
        raise BinningError("fit_rows must be nonempty")

    specs = []
    codes = np.empty((len(table.feature_names), table.n_rows if rows is None else len(rows)),
                     np.uint8)
    for name, kind, col in zip(table.names, table.kinds, table.columns):
        if name == table.target_name:
            continue
        try:
            spec, col_codes = _fit_column(kind, col, n_bins, rows)
        except BinningError as e:
            raise BinningError(f"column {name!r}: {e}") from None
        codes = _put_codes(codes, len(specs), col_codes)
        specs.append(spec)

    tcol = table.columns[table.names.index(table.target_name)]
    if table.kind(table.target_name) == "numeric":
        tvals = _integer_target(tcol if rows is None else np.asarray(tcol)[rows])
        classes, target = _integer_classes(tvals)
        target_labels = dict(zip(map(int, classes.tolist()), range(len(classes))))
    else:
        target_labels, target = tcol.first_appearance(rows)
    target = target.astype(np.int64, copy=False)
    spec = BinningSpec(n_bins, table.feature_names, tuple(specs), table.target_name,
                       table.kind(table.target_name), target_labels)
    return spec, _dataset(spec, codes, target, len(target_labels))


def fit_binning(table: RawTable, n_bins: int = 5, fit_rows=None) -> BinningSpec:
    """Fit per-column transforms on ``fit_rows`` (all rows when None).

    ``n_bins`` must be an int in [1, 2**20] (a numpy integer too, a bool
    not) and ``fit_rows`` a nonempty list of integers in [0, n_rows);
    anything else raises ``BinningError``.
    """
    return _fit(table, n_bins, fit_rows)[0]


def apply_binning(table: RawTable, spec: BinningSpec, rows=None) -> DiscreteDataset:
    """Encode a table with a fitted spec; schema must match the fitting table.

    With ``rows``, the result equals ``apply_binning(table, spec).restrict(rows)``
    but only those rows' features are encoded; the target is still read on
    every row, so ``n_classes`` (one extra class when any row holds a class
    unseen at fit time) is the whole table's.  ``rows`` must be a list of
    integers in [0, n_rows); anything else raises ``BinningError``.
    """
    if table.feature_names != spec.feature_names or table.target_name != spec.target_name:
        raise BinningError("column mismatch between table and binning spec")
    if rows is not None:
        rows = _row_indices(rows, table.n_rows, "rows", BinningError)
    codes = np.empty((len(spec.feature_specs), table.n_rows if rows is None else len(rows)),
                     np.uint8)
    for j, (name, cspec) in enumerate(zip(spec.feature_names, spec.feature_specs)):
        if table.kind(name) != cspec.kind:
            raise BinningError(f"column {name!r} changed type since fitting")
        try:
            col = cspec.encode(table.columns[table.names.index(name)], rows)
        except BinningError as e:
            raise BinningError(f"column {name!r}: {e}") from None
        codes = _put_codes(codes, j, col)

    if table.kind(spec.target_name) != spec.target_kind:
        raise BinningError(f"target column {spec.target_name!r} changed type since fitting")
    tcol = table.columns[table.names.index(spec.target_name)]
    if spec.target_kind == "numeric":
        target = _class_codes(_integer_target(tcol), spec.target_labels)
    else:
        target = _label_table(tcol.labels, spec.target_labels, np.int64)[tcol.codes]
    n_fit = len(spec.target_labels)
    n_classes = n_fit + (1 if target.max(initial=-1) >= n_fit else 0)
    return _dataset(spec, codes, target if rows is None else target[rows], n_classes)


def discretize(table: RawTable, n_bins: int = 5) -> DiscreteDataset:
    """The table binned on all of its rows, in one pass per column (one-shot selection runs).

    Equal to ``apply_binning(table, fit_binning(table, n_bins))``, but each
    column is read once: the raw bins that fit a numeric column, looked up in
    its code table, are its codes, and a categorical column's codes, numbered
    in order of first appearance as the column was loaded or built, already
    are its codes, narrowed.
    """
    return _fit(table, n_bins)[1]


def make_splits(n_rows: int, spec: SplitSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded random train/test index pairs, one per repeat.

    ``n_repeats`` must be an int of at least 1 and ``seed`` one of at least 0
    (numpy integers too, bools not), and ``train_fraction`` a real number (a
    bool not) that leaves rows on both sides; anything else raises
    ``DataError`` naming the field.
    """
    if n_rows < 2:
        raise DataError("need at least 2 rows to split")
    n_repeats = _int_at_least(spec.n_repeats, "n_repeats", None, DataError)
    if n_repeats < 1:
        raise DataError(f"need at least one repeat, got {n_repeats}")
    seed = _int_at_least(spec.seed, "seed", 0, DataError)
    if not _is_real(spec.train_fraction):
        raise DataError(f"train_fraction must be a real number, got {spec.train_fraction!r}")
    if not math.isfinite(spec.train_fraction):
        raise DataError(f"train fraction {spec.train_fraction} is not finite")
    # outside (0, 1) a side is empty, and the product may overflow floor
    cut = math.floor(spec.train_fraction * n_rows) if 0 < spec.train_fraction < 1 else 0
    if cut < 1 or cut >= n_rows:
        raise DataError(f"train fraction {spec.train_fraction} leaves an empty side")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_repeats):
        perm = rng.permutation(n_rows)
        out.append((np.sort(perm[:cut]), np.sort(perm[cut:])))
    return out


# 10-row binary demonstration table: the target is the parity of the first
# four features, X5 carries no information about it.
TOY_ROWS = (
    (0, 1, 0, 0, 1, 1),
    (1, 1, 1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 1),
    (1, 1, 1, 0, 0, 1),
    (0, 0, 0, 1, 0, 1),
    (1, 0, 1, 0, 0, 0),
    (1, 0, 1, 0, 0, 0),
    (1, 1, 0, 1, 0, 1),
    (1, 0, 0, 0, 1, 1),
)
TOY_FEATURES = ("X1", "X2", "X3", "X4", "X5")


def toy_dataset() -> DiscreteDataset:
    """The embedded demonstration table as a ready-made discrete dataset."""
    arr = np.array(TOY_ROWS, dtype=np.int64)
    return DiscreteDataset(arr[:, :5].copy(), (2,) * 5, arr[:, 5].copy(), 2, TOY_FEATURES)


def toy_table() -> RawTable:
    """The same table as a RawTable (exercises the CSV/binning path)."""
    arr = np.array(TOY_ROWS, dtype=float)
    names = TOY_FEATURES + ("Y",)
    cols = tuple(arr[:, j].copy() for j in range(6))
    return RawTable(names, ("numeric",) * 6, cols, "Y", len(TOY_ROWS))


def make_xor_table(seed: int, n_rows: int = 512, n_noise: int = 6) -> RawTable:
    """Synthetic recovery benchmark: Y = (X1 ^ X2) ^ (X3 ^ X4) plus noise.

    X1 is a fair bit while X2..X4 are biased Bernoulli(0.15), so in the
    population only X1 has nonzero marginal relevance (a fair bit inside the
    parity masks every other feature's pairwise signal).  Ranking by relevance
    alone therefore finds X1 but nothing else, while conditional scoring can
    recover the whole interacting group.  Noise features are fair iid bits.
    """
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, 2, n_rows)
    x234 = (rng.random((n_rows, 3)) < 0.15).astype(np.int64)
    y = x1 ^ x234[:, 0] ^ x234[:, 1] ^ x234[:, 2]
    noise = rng.integers(0, 2, (n_rows, n_noise))
    mat = np.column_stack([x1, x234, noise, y]).astype(float)
    names = tuple([f"X{i + 1}" for i in range(4)]
                  + [f"N{i + 1}" for i in range(n_noise)] + ["Y"])
    cols = tuple(mat[:, j].copy() for j in range(mat.shape[1]))
    return RawTable(names, ("numeric",) * len(names), cols, "Y", n_rows)
