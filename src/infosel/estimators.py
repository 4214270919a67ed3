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
and H(A, Y).  An entropy miss on either takes the codes of A, the set without
Y, and counts one table indexed ``code_A + size_A * y``.  H(A, Y) is read off
that table and H(A) off its sum over the class axis, and both go into the
memo.  So a pair usually costs one O(N) extend and one O(N) count.

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


def _extend(base: np.ndarray, size: int, col: np.ndarray, arity: int) -> tuple[np.ndarray, int]:
    """Codes of a set joined by one more column, and their range."""
    return base * arity + col, size * arity


def _relabel(code: np.ndarray, size: int, n_rows: int) -> tuple[np.ndarray, int]:
    """Dense relabel of codes in [0, size): the new codes and their range."""
    if size <= _TABLE_ROWS * n_rows:
        seen = np.zeros(size, dtype=bool)
        seen[code] = True
        label = np.cumsum(seen)
        return label[code] - 1, int(label[-1])
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

    The underlying dataset is treated as read-only, and its codes are used in
    place when they are column-major (as ``apply_binning`` and
    ``DiscreteDataset.restrict`` make them).  To estimate on a subset of the
    rows, build the context over ``dataset.restrict(rows)``.
    """

    def __init__(self, dataset: DiscreteDataset, estimator: str = "plugin"):
        if estimator not in ("plugin", "shrinkage"):
            raise ValueError(f"unknown estimator kind {estimator!r}")
        if dataset.n_rows == 0:
            raise ValueError("dataset has no rows")
        # one contiguous run of memory per feature column
        self._codes = np.asfortranarray(dataset.codes)
        self._target = dataset.target
        self.n_rows = dataset.n_rows
        self.n_features = dataset.n_features
        self.estimator = estimator
        self.mi_calls = 0
        # entropy misses: pair tables counted, and rows times columns they read
        self.tables = 0
        self.rows_scanned = 0
        self._mask_end = 1 << (self.n_features + 1)
        self._terms = cell_terms(self.n_rows)
        # by bit position: each column's codes and arity, the target first
        columns = [(self._target, dataset.n_classes)]
        columns += [(self._codes[:, j], arity) for j, arity in enumerate(dataset.arities)]
        self._bit_columns = {1 << i: column for i, column in enumerate(columns)}
        self._bit_arities = tuple(arity for _, arity in columns)
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

    def _pair_counts(self, a: int) -> tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]:
        """(counts, dense cell count) of the set ``a`` with the target, and of ``a`` alone.

        ``a`` has no target bit.  One count over the rows serves both: the
        joint code is ``code_a + size_a * y``, so the target is the major axis
        of the table and ``a``'s counts are its sum over that axis.
        Unoccupied cells may appear as zero counts.
        """
        y, n_classes = self._bit_columns[TARGET_BIT]
        # the target comes first in the product, as in a set's bit order
        dense_a, dense_ay = 1.0, 1.0 * n_classes
        arities = self._bit_arities
        rest = a
        while rest:
            low = rest & -rest
            arity = arities[low.bit_length() - 1]
            dense_a *= arity
            dense_ay *= arity
            rest ^= low
        code, size = self._codes_of(a) if a else (0, 1)
        joint = code + size * y
        if size * n_classes <= _TABLE_ROWS * self.n_rows:
            table = np.bincount(joint, minlength=size * n_classes)
            alone = table.reshape(n_classes, size).sum(0)
        else:
            cells, table = np.unique(joint, return_counts=True)
            # counts below 2**53 add up exactly in float64
            alone = np.bincount(cells % size, weights=table).astype(np.int64)
        return (table, dense_ay), (alone, dense_a)

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
            for m, (counts, dense) in zip((a | TARGET_BIT, a), self._pair_counts(a)):
                if m:
                    memo[m] = profile_entropy(np.bincount(counts), self._terms,
                                              self.estimator, dense)
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
