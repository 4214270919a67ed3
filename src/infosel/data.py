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
from dataclasses import dataclass, field
from itertools import islice, repeat

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


@dataclass(frozen=True)
class RawTable:
    """A loaded table: named columns, each numeric or categorical.

    ``numeric`` columns hold float arrays, ``categorical`` columns hold lists
    of string labels.  The target column is kept alongside the features and
    must be categorical or integer-valued numeric.
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]              # "numeric" | "categorical", per column
    columns: tuple[object, ...]         # np.ndarray (float) or list[str]
    target_name: str
    n_rows: int

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if n != self.target_name)

    def column(self, name: str):
        return self.columns[self.names.index(name)]

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
    code map in first-appearance order, with one extra code reserved for
    labels unseen at fit time.
    """

    kind: str
    edges: np.ndarray | None = None               # numeric: n_bins-1 cut points
    codes: np.ndarray | None = None               # numeric: raw bin -> code
    labels: dict[str, int] | None = None          # categorical: label -> code
    arity: int = 1

    def encode(self, values) -> np.ndarray:
        if self.kind == "numeric":
            return self.codes[raw_bins(np.asarray(values, dtype=float), self.edges)]
        unknown = len(self.labels)
        return np.fromiter(map(self.labels.get, values, repeat(unknown)),
                           _narrow_dtype(self.arity), len(values))


@dataclass(frozen=True)
class BinningSpec:
    """Fitted discretization for a whole table, including the target map."""

    n_bins: int
    feature_names: tuple[str, ...]
    feature_specs: tuple[ColumnSpec, ...]
    target_name: str
    target_labels: dict = field(default_factory=dict)   # class value -> code


@dataclass(frozen=True)
class DiscreteDataset:
    """Integer-coded table: N x D feature codes plus a class-label column.

    Any integer dtype is accepted; ``_dataset`` gives the binned format.
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


#: rows that ``load_csv`` holds and converts at a time: 256 rows of a few
#: dozen columns are some 8,000 cell strings, which stay in cache while the
#: chunk is transposed into columns (at 4,096 rows the transpose was 2.5x slower)
_CHUNK_ROWS = 256


def load_csv(path, target_name: str) -> RawTable:
    """Load a UTF-8 (optionally BOM-prefixed), comma-separated file with a header row.

    Column types are inferred: numeric if every cell parses as a finite
    float, categorical otherwise.  Missing cells, ragged rows, duplicate header
    names, and empty tables are hard errors; the first one row by row is
    reported, once the whole file has parsed as CSV.

    The file is parsed ``_CHUNK_ROWS`` rows at a time, and no row list is
    kept, so memory is bounded by one chunk of cells plus the typed columns.
    A chunk is kept cache-sized: turning thousands of rows of cells into
    columns misses the cache and is slower, not faster.  A numeric column
    grows by one float64 array per chunk.  A categorical column holds its
    stripped labels, one shared ``str`` per distinct label, looked up by raw
    cell so that a cell seen before is not stripped again.  Each column's
    kind is fixed for a whole pass over the text: a column that turns
    categorical after the first chunk ends the pass, and the text is parsed
    again from the top with that column read as labels from row 1, so the
    rows before the switch are parsed twice.  Input that cannot be read
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
    parts = [[] for _ in header]        # numeric: one array per chunk; categorical: labels
    interned = [_Labels() for _ in header]
    n_rows = 0
    while chunk:
        converted, error = _convert_chunk(chunk, header, numeric, n_rows, interned)
        if error:
            _fail(reader, error)
        turned = [j for j, col in enumerate(converted) if numeric[j] and isinstance(col, list)]
        if turned and n_rows:
            late.update(turned)
            return None
        for j in turned:
            numeric[j] = False
        for j, col in enumerate(converted):
            if numeric[j]:
                parts[j].append(col)
            else:
                parts[j].extend(col)
        n_rows += len(chunk)
        chunk = list(islice(reader, _CHUNK_ROWS))

    columns = []
    for j, is_numeric in enumerate(numeric):
        columns.append(np.concatenate(parts[j]) if is_numeric else parts[j])
        parts[j] = None                 # its chunk arrays go before the next column is joined
    kinds = tuple("numeric" if is_numeric else "categorical" for is_numeric in numeric)
    return RawTable(tuple(header), kinds, tuple(columns), target_name, n_rows)


def _fail(reader, message: str):
    """Raise ``message`` once the rest of the file has parsed, so that a
    malformed line anywhere in it (a csv or decoding error) is reported first."""
    for _ in reader:
        pass
    raise DataError(message)


class _Labels(dict):
    """One column's raw cell -> its stripped label, one shared ``str`` per label.

    A hit is one dict lookup; only a cell not seen before is stripped.
    """

    def __missing__(self, cell):
        label = cell.strip()
        if label != cell:
            label = self[label]         # the shared str of the stripped form
        self[cell] = label
        return label


def _convert_chunk(chunk, header, numeric, first_row, interned):
    """One chunk's columns, or its first ragged row or missing cell.

    Returns ``(columns, None)``: a column whose ``numeric`` flag is set and
    whose cells all parse as finite floats becomes a float64 array, any other
    a list of its labels from ``interned``.  Or returns ``(None, message)``
    for the first ragged row or missing cell in row-major order.
    ``first_row`` is the chunk's offset among the data rows.
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
            cells = list(map(interned[j].__getitem__, cells))
            # str.strip() also removes the separators \x1c-\x1f, which float() rejects
            if numeric[j] and "" not in cells:
                values = _finite_floats(cells)
        if values is not None:
            columns.append(values)
            continue
        if "" in cells and (missing is None or cells.index("") < missing[0]):
            missing = (cells.index(""), j)
        columns.append(cells)
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


def raw_bins(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index per the rule edge_{i-1} <= v < edge_i, clamped at both ends."""
    if len(edges) == 0:
        return np.zeros(len(values), dtype=np.int64)
    return np.searchsorted(edges, values, side="right").astype(np.int64, copy=False)


def _integer_target(values) -> np.ndarray:
    """Numeric target values as floats, checked to be integer-valued."""
    values = np.asarray(values, dtype=float)
    if not np.all(values == np.round(values)):
        raise BinningError("target column must be categorical or integer-valued")
    return values


class _Codes(dict):
    """label -> code, numbered in order of first appearance as labels are looked up."""

    def __missing__(self, label):
        code = self[label] = len(self)
        return code


def _first_appearance(labels, rows=None) -> tuple[dict, np.ndarray]:
    """label -> code in order of first appearance on ``rows`` (all when None),
    and the int64 codes of those rows, from one dict pass."""
    n = len(labels) if rows is None else len(rows)
    if rows is not None:
        labels = map(labels.__getitem__, rows.tolist())
    seen = _Codes()
    codes = np.fromiter(map(seen.__getitem__, labels), np.int64, n)
    return dict(seen), codes


def _fit_column(kind: str, values, n_bins: int, rows=None) -> tuple[ColumnSpec, np.ndarray]:
    """One feature column's transform, fit on ``rows`` (all when None), and the
    codes of those rows in ``_narrow_dtype(arity)``: the fit's own raw bins or
    label numbers, looked up once."""
    if kind == "numeric":
        values = np.asarray(values, dtype=float)
        if rows is not None:
            values = values[rows]
        edges = equal_width_edges(values, n_bins)
        raw = raw_bins(values, edges)
        occupied = np.flatnonzero(np.bincount(raw, minlength=len(edges) + 1))
        # raw bin r is nearer the upper of two neighbouring occupied bins
        # only when 2r exceeds their sum (a tie stays low), so its code is
        # the number of neighbour sums below 2r
        arity = len(occupied)
        codes = np.searchsorted(occupied[:-1] + occupied[1:],
                                2 * np.arange(len(edges) + 1)).astype(_narrow_dtype(arity))
        return ColumnSpec("numeric", edges=edges, codes=codes, arity=arity), codes[raw]
    labels, codes = _first_appearance(values, rows)
    # reserve one shared code for labels unseen at fit time
    arity = len(labels) + 1
    return (ColumnSpec("categorical", labels=labels, arity=arity),
            codes.astype(_narrow_dtype(arity)))


def _dataset(spec: BinningSpec, columns, target: np.ndarray, n_classes: int) -> DiscreteDataset:
    """Every binned dataset: ``columns``, each feature's codes in ``_narrow_dtype``
    of its arity, stacked once into one column-major array of the dtype that
    holds them all (uint8 while every arity is at most 256, or with no
    features), with arities and names from ``spec`` and an int64 target."""
    # column-major, so that each feature column is one contiguous run of memory
    codes = np.stack(columns).T if columns else np.zeros((0, len(target)), np.uint8).T
    return DiscreteDataset(codes, tuple(s.arity for s in spec.feature_specs), target,
                           n_classes, spec.feature_names)


def _fit(table: RawTable, n_bins: int, rows=None) -> tuple[BinningSpec, DiscreteDataset]:
    """The spec fit on ``rows`` (all when None) and those rows binned by it,
    from the fit's own codes, with ``n_classes`` the classes on those rows."""
    n_bins = _int_at_least(n_bins, "n_bins", error=BinningError)
    if rows is not None:
        rows = _row_indices(rows, table.n_rows, "fit_rows", BinningError)
    if (table.n_rows if rows is None else len(rows)) == 0:
        raise BinningError("fit_rows must be nonempty")

    specs, cols = [], []
    for name, kind, col in zip(table.names, table.kinds, table.columns):
        if name == table.target_name:
            continue
        try:
            spec, codes = _fit_column(kind, col, n_bins, rows)
        except BinningError as e:
            raise BinningError(f"column {name!r}: {e}") from None
        specs.append(spec)
        cols.append(codes)

    tcol = table.column(table.target_name)
    if table.kind(table.target_name) == "numeric":
        tvals = _integer_target(tcol if rows is None else np.asarray(tcol)[rows])
        classes, target = np.unique(tvals, return_inverse=True)
        target_labels = dict(zip(map(int, classes.tolist()), range(len(classes))))
        target = target.astype(np.int64, copy=False)
    else:
        target_labels, target = _first_appearance(tcol, rows)
    spec = BinningSpec(n_bins, table.feature_names, tuple(specs), table.target_name,
                       target_labels)
    return spec, _dataset(spec, cols, target, len(target_labels))


def fit_binning(table: RawTable, n_bins: int = 5, fit_rows=None) -> BinningSpec:
    """Fit per-column transforms on ``fit_rows`` (all rows when None).

    ``n_bins`` must be an int of at least 1 (a numpy integer too, a bool
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
    if tuple(n for n in table.names if n != table.target_name) != spec.feature_names \
            or table.target_name != spec.target_name:
        raise BinningError("column mismatch between table and binning spec")
    if rows is not None:
        rows = _row_indices(rows, table.n_rows, "rows", BinningError)
    cols = []
    for name, cspec in zip(spec.feature_names, spec.feature_specs):
        if table.kind(name) != cspec.kind:
            raise BinningError(f"column {name!r} changed type since fitting")
        col = table.column(name)
        if rows is not None:
            col = np.asarray(col)[rows] if cspec.kind == "numeric" else \
                list(map(col.__getitem__, rows.tolist()))
        cols.append(cspec.encode(col))

    tcol = table.column(spec.target_name)
    if table.kind(spec.target_name) == "numeric":
        raw = [int(v) for v in _integer_target(tcol)]
    else:
        raw = list(tcol)
    n_fit = len(spec.target_labels)
    target = np.fromiter(map(spec.target_labels.get, raw, repeat(n_fit)), np.int64, len(raw))
    n_classes = n_fit + (1 if target.max(initial=-1) >= n_fit else 0)
    return _dataset(spec, cols, target if rows is None else target[rows], n_classes)


def discretize(table: RawTable, n_bins: int = 5) -> DiscreteDataset:
    """The table binned on all of its rows, in one pass per column (one-shot selection runs).

    Equal to ``apply_binning(table, fit_binning(table, n_bins))``, but each
    column is read once: the raw bins that fit a numeric column, looked up in
    its code table, are its codes, and a categorical column's first-appearance
    pass numbers its labels and its rows together.
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
    cut = math.floor(spec.train_fraction * n_rows)
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


def write_toy_csv(path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TOY_FEATURES + ("Y",))
        for row in TOY_ROWS:
            w.writerow(row)


def make_xor_table(seed: int, n_rows: int = 512, n_noise: int = 6,
                   p_bias: float = 0.15) -> RawTable:
    """Synthetic recovery benchmark: Y = (X1 ^ X2) ^ (X3 ^ X4) plus noise.

    X1 is a fair bit while X2..X4 are biased Bernoulli(p_bias), so in the
    population only X1 has nonzero marginal relevance (a fair bit inside the
    parity masks every other feature's pairwise signal).  Ranking by relevance
    alone therefore finds X1 but nothing else, while conditional scoring can
    recover the whole interacting group.  Noise features are fair iid bits.
    """
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, 2, n_rows)
    x234 = (rng.random((n_rows, 3)) < p_bias).astype(np.int64)
    y = x1 ^ x234[:, 0] ^ x234[:, 1] ^ x234[:, 2]
    noise = rng.integers(0, 2, (n_rows, n_noise))
    mat = np.column_stack([x1, x234, noise, y]).astype(float)
    names = tuple([f"X{i + 1}" for i in range(4)]
                  + [f"N{i + 1}" for i in range(n_noise)] + ["Y"])
    cols = tuple(mat[:, j].copy() for j in range(mat.shape[1]))
    return RawTable(names, ("numeric",) * len(names), cols, "Y", n_rows)
