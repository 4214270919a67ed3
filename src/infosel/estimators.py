"""Plug-in and shrinkage estimators of entropy, MI, and conditional MI.

All quantities are in bits (log base 2).  Inside an ``EstimatorContext`` a
column set is an int bitmask: the target is bit 0 and feature j is bit j+1,
so a union of sets is ``|`` and the caches key on one int.  The public
methods take either such a mask or an iterable of column indices (``TARGET``
for the target); the searches in ``hocmim`` and ``criteria`` pass masks.

An entropy depends only on the count profile of the set's joint states:
``m[c]`` is the number of occupied cells that hold c of the N rows (the
"fingerprint" of Valiant & Valiant, Estimating the unseen, STOC 2011).  The
plug-in entropy ``log2 N - sum_c m[c] * c * log2(c) / N`` is summed as
``sum_c m[c] * c * log2(N / c) / N`` over c in a fixed order, and the
shrinkage weight and cell masses also depend on c alone, so
``profile_entropy`` serves both.  Two sets with the same multiset of counts
get the same float, so neither the order of the rows, nor the labels of the
codes, nor which sets happened to be cached can change a result.

A column set is joint-encoded to one integer code per row.  Codes are
unordered: the code of a set extends the code of any cached set one column
smaller by the missing column, mixed-radix (``base * arity + column``), and
is relabelled densely once its range exceeds N.  The searches grow column
sets one column at a time, so the sets last encoded are kept in a small
least-recently-used cache.

Every criterion conditions on the target Y, so entropies come in pairs: H(A)
and H(A, Y).  The context keeps its own copy of the rows, stably sorted by
class, so each class is one contiguous slice of the rows.  Each feature column
is stored in the narrowest unsigned dtype that holds its arity (uint8 up to
256, uint16 up to 2**16, int64 above).  A set's codes are int32 while their
range is below 2**31 and int64 above, and a column is widened to that dtype
when it extends a set's code.  An entropy miss on either of a pair takes the
codes of A, the set without Y, and counts them once per class slice.  The
class tables together are the table of (A, Y), so the profile of (A, Y) is
the sum of their profiles, and their sum over the classes is the table of A;
H(Y) alone is read off the class sizes.  Each class slice costs a few numpy
calls, which pay off only when the classes average ``_SLICE_ROWS`` rows or
more; below that, the context counts one table of the joint code ``code_A +
size_A * y`` instead, with the target as its major axis.  Both entropies go
into the memo, so a pair usually costs one O(N) extend and one O(N) count.

The context keeps a counter of logical MI-term evaluations: one per
mutual_information call, two per conditional_mutual_information call (its two
MI terms).  Entropies are not MI terms and are not counted.  Entropies are
memoized per mask, up to ``_ENTROPY_CACHE_SIZE`` of them, so repeated logical
calls stay cheap while the counter still reflects what the algorithms ask for.
Two plain ints count the work of the misses: ``tables`` (pair tables counted)
and ``rows_scanned`` (N times the columns of each table).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .data import DiscreteDataset

#: pseudo-column index addressing the target/class column
TARGET = -1

#: mask bit of the target column; feature j is bit ``2 << j``
TARGET_BIT = 1

#: joint codes kept for reuse as bases of later column sets
_CODE_CACHE_SIZE = 64

#: entropies kept per context; the memo is emptied when it reaches this size
_ENTROPY_CACHE_SIZE = 1 << 18

#: count through a table while the code range is at most this many times the rows
_TABLE_ROWS = 4

#: count a pair table per class slice while the classes average at least this many rows
_SLICE_ROWS = 4000


def _narrow_dtype(arity: int) -> type:
    """The narrowest unsigned dtype that holds the codes 0..arity-1; int64 above 2**16."""
    return np.uint8 if arity <= 1 << 8 else np.uint16 if arity <= 1 << 16 else np.int64


def _code_dtype(size: int) -> type:
    """The dtype of codes below ``size``: int32 while they fit, int64 above."""
    return np.int32 if size < 1 << 31 else np.int64


def _extend(base: np.ndarray, size: int, col: np.ndarray, arity: int) -> tuple[np.ndarray, int]:
    """Codes of a set joined by one more column, and their range.

    Either array may be narrow, so the product is taken in the dtype of the
    new range: a narrow array times an int keeps its dtype and would wrap.
    """
    size *= arity
    code = np.multiply(base, arity, dtype=_code_dtype(size))
    code += col
    return code, size


def _sum_profiles(tables: list[np.ndarray]) -> np.ndarray:
    """The count profile of several tables taken together: the sum of their profiles."""
    profiles = [np.bincount(table) for table in tables]
    total = np.zeros(max(map(len, profiles)), dtype=np.int64)
    for profile in profiles:
        total[:len(profile)] += profile
    return total


def _relabel(code: np.ndarray, size: int, n_rows: int) -> tuple[np.ndarray, int]:
    """Dense relabel of codes in [0, size): the new codes and their range."""
    if size <= _TABLE_ROWS * n_rows:
        seen = np.zeros(size, dtype=bool)
        seen[code] = True
        cells = np.flatnonzero(seen)
        # only occupied cells are read back, so the rest of the label table stays unset
        label = np.empty(size, dtype=_code_dtype(len(cells)))
        label[cells] = np.arange(len(cells))
        return label[code], len(cells)
    uniq, dense = np.unique(code, return_inverse=True)
    return dense, len(uniq)


def cell_terms(n_rows: int) -> np.ndarray:
    """``c * log2(N / c)`` for every count c in 0..N (0 at c = 0), N = ``n_rows``.

    A cell holding c of the N rows adds ``c * log2(N / c) / N`` to the plug-in
    entropy, which is ``log2 N - c * log2(c) / N`` summed; the cell that holds
    every row adds exactly 0.
    """
    c = np.arange(n_rows + 1, dtype=float)
    c[1:] *= np.log2(n_rows / c[1:])
    return c


def profile_entropy(profile: np.ndarray, terms: np.ndarray, estimator: str = "plugin",
                    dense: float = 0.0) -> float:
    """Entropy in bits of a table of N rows from the profile of its joint-state counts.

    ``profile`` is ``np.bincount(counts)`` over the occupied cells' counts, so
    ``profile[c]`` cells hold c rows each (``profile[0]`` is ignored), and
    ``terms`` is ``cell_terms(N)``.  The sum runs over c in a fixed order, so
    the float depends on the multiset of counts only.  The shrinkage
    estimator spreads mass over ``dense`` cells, the unobserved ones included.
    """
    n = len(terms) - 1
    if estimator == "plugin":
        h = float((profile * terms[:len(profile)]).sum()) / n
    else:
        c = np.flatnonzero(profile[1:]) + 1
        mc = profile[c]
        lam = _shrinkage_lambda(c, mc, n, dense)
        q = lam / dense + (1.0 - lam) * (c / n)
        pos = q > 0
        h = float(-(mc[pos] * q[pos] * np.log2(q[pos])).sum())
        n_empty = dense - mc.sum()
        if lam > 0 and n_empty > 0:
            q0 = lam / dense
            h += float(-n_empty * q0 * np.log2(q0))
    return max(0.0, h)


def _shrinkage_lambda(c: np.ndarray, mc: np.ndarray, total: float, m: float) -> float:
    """The clipped James-Stein weight of the uniform target over m cells.

    ``mc[i]`` cells hold ``c[i]`` of the ``total`` rows each, and the other
    cells none.  With p the empirical pmf and u = 1/m, lambda =
    (1 - sum p^2) / ((N-1) * sum (u - p)^2) over all m cells, clipped to [0, 1].
    """
    p = c / total
    u = 1.0 / m
    var_target = float(np.sum(mc * (u - p) ** 2) + (m - mc.sum()) * u ** 2)
    if total <= 1 or var_target <= 0:
        return 1.0
    lam = (1.0 - float(np.sum(mc * p ** 2))) / ((total - 1) * var_target)
    return min(1.0, max(0.0, lam))


class EstimatorContext:
    """Counted, memoized estimator view over a dataset.

    Feature columns are addressed by index 0..D-1 and the target column by
    ``TARGET``.  A column set is an iterable of such indices or an int mask
    (``TARGET_BIT`` for the target, ``2 << j`` for feature j, ``|`` for a
    union); inside, every set is its mask.  An empty set is ``[]`` or ``0``:
    entropies of it are an error, and an empty conditioning set reduces a
    conditional MI to plain MI.  A mask below 0, or one with a bit above
    feature D-1, is rejected as a malformed set.

    The context keeps its own copy of the feature codes: the rows stably
    sorted by class, each column in the narrowest unsigned dtype that holds
    its arity.  The dataset is only read.  To estimate on a subset of the
    rows, build the context over ``dataset.restrict(rows)``.
    """

    def __init__(self, dataset: DiscreteDataset, estimator: str = "plugin"):
        if estimator not in ("plugin", "shrinkage"):
            raise ValueError(f"unknown estimator kind {estimator!r}")
        if dataset.n_rows == 0:
            raise ValueError("dataset has no rows")
        self.n_rows = dataset.n_rows
        self.n_features = dataset.n_features
        self.estimator = estimator
        self.mi_calls = 0
        # entropy misses: pair tables counted, and rows times columns they read
        self.tables = 0
        self.rows_scanned = 0
        self._mask_end = 1 << (self.n_features + 1)
        self._terms = cell_terms(self.n_rows)
        # the rows in class order: class c holds rows bounds[c]:bounds[c + 1]
        order = np.argsort(dataset.target, kind="stable")
        class_counts = np.bincount(dataset.target, minlength=dataset.n_classes)
        self._class_profile = np.bincount(class_counts)
        if self.n_rows >= _SLICE_ROWS * dataset.n_classes:
            bounds = [0, *np.cumsum(class_counts).tolist()]
            self._class_slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            self._target = None
        else:
            self._class_slices = None
            self._target = dataset.target[order]
        # by feature bit: the column's class-ordered, narrowed codes and its arity
        self._bit_columns = {
            2 << j: (dataset.codes[:, j].astype(_narrow_dtype(arity), copy=False)[order], arity)
            for j, arity in enumerate(dataset.arities)}
        self._bit_arities = (dataset.n_classes, *dataset.arities)
        self._entropy_cache: dict[int, float] = {}
        self._code_cache: OrderedDict[int, tuple[np.ndarray, int]] = OrderedDict()

    # -- column plumbing ----------------------------------------------------

    def _mask(self, cols) -> int:
        """The mask of a column set given as an int mask or an iterable of indices; 0 if empty."""
        if type(cols) is int:                 # not a bool or numpy int: those are no sets
            if 0 <= cols < self._mask_end:
                return cols
            if cols < 0:
                raise ValueError("empty column list")
            raise IndexError(f"column mask {cols:#x} has a bit above feature {self.n_features - 1}")
        mask = 0
        for c in cols:
            c = int(c)
            if not TARGET <= c < self.n_features:
                raise IndexError(f"feature index {c} out of range")
            mask |= 1 << (c + 1)
        return mask

    def _pair_profiles(self, a: int) -> tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]:
        """(count profile, dense cell count) of the set ``a`` with the target, and of ``a`` alone.

        ``a`` has no target bit.  The rows are in class order, so the counts of
        ``a`` with the target are those of ``a``'s codes in each class's slice
        of the rows, and ``a``'s counts are their sum over the classes.  When
        the classes average fewer than ``_SLICE_ROWS`` rows, one count of the
        joint code ``code_a + size_a * y`` replaces the per-class counts.  With
        ``a`` empty the profiles are those of the class sizes and of N.
        """
        arities = self._bit_arities
        n_classes = arities[0]
        # the target comes first in the product, as in a set's bit order
        dense_a, dense_ay = 1.0, 1.0 * n_classes
        rest = a
        while rest:
            low = rest & -rest
            arity = arities[low.bit_length() - 1]
            dense_a *= arity
            dense_ay *= arity
            rest ^= low
        if not a:
            return (self._class_profile, dense_ay), (np.bincount([self.n_rows]), dense_a)
        code, size = self._codes_of(a)
        fits = size * n_classes <= _TABLE_ROWS * self.n_rows
        if self._class_slices is None:
            joint = code + size * self._target
            if fits:
                table = np.bincount(joint, minlength=size * n_classes)
                alone = table.reshape(n_classes, size).sum(0)
            else:
                table = np.unique(joint, return_counts=True)[1]
                alone = np.bincount(code, minlength=size)
            return (np.bincount(table), dense_ay), (np.bincount(alone), dense_a)
        if fits:
            tables = [np.bincount(code[rows], minlength=size) for rows in self._class_slices]
            alone = sum(tables[1:], tables[0])
        else:
            tables = [np.unique(code[rows], return_counts=True)[1] for rows in self._class_slices]
            # every set's range is at most N, so A alone still fits a table
            alone = np.bincount(code, minlength=size)
        return (_sum_profiles(tables), dense_ay), (np.bincount(alone), dense_a)

    def _codes_of(self, mask: int) -> tuple[np.ndarray, int]:
        """Unordered codes of the set's joint states, all below the returned size.

        A multi-column set extends a cached set one column smaller, or else the
        set without its lowest column, by the missing column.  Codes whose
        range exceeds the row count are relabelled densely before they are
        cached; keeping every range at most N keeps every extended range below
        N**2, within int64.
        """
        cache = self._code_cache
        hit = cache.get(mask)
        if hit is not None:
            cache.move_to_end(mask)
            return hit
        if mask & (mask - 1):
            rest = mask
            while rest:
                bit = rest & -rest
                if mask ^ bit in cache:
                    break
                rest ^= bit
            else:
                bit = mask & -mask
            code, size = _extend(*self._codes_of(mask ^ bit), *self._codes_of(bit))
        else:
            code, size = self._bit_columns[mask]
            if size <= self.n_rows:
                return code, size
        if size > self.n_rows:
            code, size = _relabel(code, size, self.n_rows)
        self._keep(mask, code, size)
        return code, size

    def _keep(self, mask: int, code: np.ndarray, size: int) -> None:
        """Cache the set's codes, least recently used out first."""
        self._code_cache[mask] = code, size
        self._code_cache.move_to_end(mask)
        if len(self._code_cache) > _CODE_CACHE_SIZE:
            self._code_cache.popitem(last=False)

    # -- entropies (not counted as MI terms) ---------------------------------

    def entropy(self, cols) -> float:
        """Joint Shannon entropy of the column set, in bits."""
        if type(cols) is int and 0 < cols < self._mask_end:
            mask = cols                       # the searches' masks skip the general check
        else:
            mask = self._mask(cols)
        memo = self._entropy_cache
        h = memo.get(mask)
        if h is None:
            if not mask:
                raise ValueError("empty column list")
            # one table gives H(A, Y) and H(A), which the criteria ask for in pairs
            a = mask & ~TARGET_BIT
            self.tables += 1
            self.rows_scanned += self.n_rows * (a.bit_count() + 1)
            if len(memo) > _ENTROPY_CACHE_SIZE - 2:
                memo.clear()
            for m, (profile, dense) in zip((a | TARGET_BIT, a), self._pair_profiles(a)):
                if m:
                    memo[m] = profile_entropy(profile, self._terms, self.estimator, dense)
            h = memo[mask]
        return h

    # -- MI terms (counted) ---------------------------------------------------

    def _raw_mi(self, a: int, b: int) -> float:
        return max(0.0, self.entropy(a) + self.entropy(b) - self.entropy(a | b))

    def mutual_information(self, cols_a, cols_b) -> float:
        """I(A;B) in bits; negative floating-point residue is clamped to 0."""
        self.mi_calls += 1
        # an int mask is checked by ``entropy``, where it is used
        a = cols_a if type(cols_a) is int else self._mask(cols_a)
        b = cols_b if type(cols_b) is int else self._mask(cols_b)
        return self._raw_mi(a, b)

    def conditional_mutual_information(self, cols_a, cols_b, cols_z) -> float:
        """I(A;B|Z) = I(A u Z; B) - I(Z; B); empty Z reduces to plain MI.

        Always counts as two MI terms.
        """
        self.mi_calls += 2
        a = cols_a if type(cols_a) is int else self._mask(cols_a)
        b = cols_b if type(cols_b) is int else self._mask(cols_b)
        z = cols_z if type(cols_z) is int else self._mask(cols_z)
        if not z:
            return self._raw_mi(a, b)
        return self._raw_mi(a | z, b) - self._raw_mi(z, b)

    def reset_and_read_counter(self) -> int:
        """MI-term evaluations since the last reset; zeroes the counter."""
        v = self.mi_calls
        self.mi_calls = 0
        return v
