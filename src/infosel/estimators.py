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
shrinkage weight and shrunk cell masses depend on c and the dense cell count
alone, so ``profile_entropy`` computes both.  Two sets with the same multiset
of counts get the same float, so neither the order of the rows, nor the
labels of the codes, nor which sets happened to be cached can change a result.

A column set A is joint-encoded to one integer code per row, with the target
Y as its top digit: ``y * size_A + code_A``, where the code of the empty set
is the target itself.  Every criterion conditions on the target, so
entropies come in pairs, H(A) and H(A, Y).  The table of A's codes is the
table of (A, Y), one row of A's cells per class, and its sum over the classes
is the table of A, so one ``np.bincount`` gives both entropies whatever the
class count, and both go into the memo.  A table of more than ``_TABLE_ROWS``
times N cells is counted by sorting instead.

Codes are unordered: the code of a set extends the code of any cached set one
column smaller by the missing column, mixed-radix (``base * arity +
column``), which keeps the target on top.  Once A's range exceeds N, A's
digits are relabelled densely and the target is put back on top.  The
searches grow column sets one column at a time, so the sets last encoded are
kept in a least-recently-used cache of at most ``_CODE_CACHE_SIZE`` sets and
``_CODE_CACHE_BYTES`` bytes, and a pair of entropies usually costs one O(N)
extend and one O(N) count.  A feature column binned in uint8 or uint16, a
dtype that holds its arity, is used in place, even where the table's widest
column made it uint16; any other column is copied into the narrowest
unsigned dtype that holds its arity (uint8 up to 256, uint16 up to 2**16,
int64 above), and a column of more than N values is relabelled once, up
front.  A set's codes are uint16 while their range is below 2**16, int32
while it is below 2**31 and int64 above, a dtype that holds the range
itself, so every factor that scales a code, at most the range, fits, and
so does every product; a column is widened to that dtype when it extends a
set's code.

The context keeps a counter of logical MI-term evaluations: one per
mutual_information call, two per conditional_mutual_information call (its two
MI terms).  Entropies are not MI terms and are not counted.  Entropies are
memoized per mask in a dict whose ``__missing__`` computes a miss: it checks
the mask, counts the pair table of the set without the target, and stores
both entropies of the pair.  Only a miss checks, so a malformed mask never
enters the memo and a hit is one dict lookup; the MI methods read their
three entropies from the memo directly, so repeated logical calls stay cheap
while the counter still reflects what the algorithms ask for.  The memo is
emptied when it could not take another pair within ``_ENTROPY_CACHE_SIZE``,
and it holds its context through a weak proxy, so a context is freed as soon
as its last reference goes.  Two plain ints count the work of the misses:
``tables`` (pair tables counted) and ``rows_scanned`` (N times the columns of
each table).
"""

from __future__ import annotations

import operator
import weakref
from collections import OrderedDict

import numpy as np

from .data import DiscreteDataset, _narrow_dtype

#: pseudo-column index addressing the target/class column
TARGET = -1

#: mask bit of the target column; feature j is bit ``2 << j``
TARGET_BIT = 1

#: joint codes kept for reuse as bases of later column sets
_CODE_CACHE_SIZE = 64

#: bytes of joint codes kept at most: 64 sets of int32 codes up to N = 131,072 rows,
#: or of uint16 codes (a range below 2**16) up to N = 262,144
_CODE_CACHE_BYTES = 32 << 20

#: entropies kept per context; the memo is emptied when it reaches this size
_ENTROPY_CACHE_SIZE = 1 << 18

#: count through a table while the code range is at most this many times the rows
_TABLE_ROWS = 4


def _code_dtype(size: int) -> type:
    """The dtype that holds ``size``: uint16 while ``size < 2**16``, int32
    while ``size < 2**31``, int64 above.  It holds every code below ``size``
    and every product of one with a factor of at most ``size``; a table's
    counts do not depend on it, and ``np.bincount`` reads any of them as intp."""
    if size < 1 << 16:
        return np.uint16
    return np.int32 if size < 1 << 31 else np.int64


def _extend(base: np.ndarray, size: int, col: np.ndarray, arity: int,
            n_classes: int) -> tuple[np.ndarray, int]:
    """Joint codes of a set joined by one more column, and the set's new range.

    The target is the codes' top digit, so they reach ``n_classes`` times the
    range.  Either array may be narrow, so the product is taken in the dtype
    of the codes' new range: a narrow array times an int keeps its dtype and
    would wrap.
    """
    size *= arity
    code = np.multiply(base, arity, dtype=_code_dtype(n_classes * size))
    code += col
    return code, size


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
    # the inverse is intp, which ``+=`` cannot add into narrower codes
    return dense.astype(_code_dtype(len(uniq)), copy=False), len(uniq)


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
    estimator (Hausser & Strimmer, JMLR 10, 2009) spreads mass over all
    ``dense`` cells m, the unobserved ones included: with p = c/N and u = 1/m,
    a cell's mass is q = lambda * u + (1 - lambda) * p, where the James-Stein
    weight lambda = (1 - sum p^2) / ((N-1) * sum (u - p)^2) over the m cells,
    clipped to [0, 1], or 1 when N <= 1 or the sum is 0.  With m = inf the
    weight is 0 and q = p, both set directly, so no ``inf * 0`` is formed.
    So q > 0 on an occupied cell, as lambda < 1 or u > 0.
    """
    n = len(terms) - 1
    if estimator == "plugin":
        h = float(np.add.reduce(profile * terms[:len(profile)])) / n
    else:
        c = np.flatnonzero(profile[1:]) + 1
        mc = profile[c]
        p = c / n
        n_empty = dense - np.add.reduce(mc)
        if dense == np.inf:
            lam, q = 0.0, p
        else:
            u = 1.0 / dense
            var_target = float(np.add.reduce(mc * (u - p) ** 2) + n_empty * u ** 2)
            if n <= 1 or var_target <= 0:
                lam = 1.0
            else:
                lam = (1.0 - float(np.add.reduce(mc * p ** 2))) / ((n - 1) * var_target)
                lam = min(1.0, max(0.0, lam))
            q = lam / dense + (1.0 - lam) * p
        h = float(-np.add.reduce(mc * q * np.log2(q)))
        if lam > 0 and n_empty > 0:
            q0 = lam / dense
            h += float(-n_empty * q0 * np.log2(q0))
    return h if h > 0.0 else 0.0


class EstimatorContext:
    """Counted, memoized estimator view over a dataset.

    Feature columns are addressed by index 0..D-1 and the target column by
    ``TARGET``.  A column set is an iterable of such indices or an int mask
    (``TARGET_BIT`` for the target, ``2 << j`` for feature j, ``|`` for a
    union); inside, every set is its mask.  An empty set is ``[]`` or ``0``:
    entropies of it are an error, and an empty conditioning set reduces a
    conditional MI to plain MI.  A mask below 0, or one with a bit above
    feature D-1, is rejected as a malformed set, and so is an index that is
    not an integer (a float or a string).

    The context reads each column in the dataset's row order.  A column in
    uint8 or uint16 whose dtype holds its arity, as binning stores it, is
    used as it is, with no copy, also when a narrower dtype would do; any
    other column (a hand-built int64 dataset, say) is copied into the
    narrowest unsigned dtype that holds its arity, and one of more than N
    values is relabelled densely.  The dataset is only read.  A dataset
    whose class count times N**2 reaches 2**63 is rejected, because joint
    codes up to that size must fit int64.  To estimate on a subset of the
    rows, build the context over ``dataset.restrict(rows)``.
    """

    def __init__(self, dataset: DiscreteDataset, estimator: str = "plugin"):
        if estimator not in ("plugin", "shrinkage"):
            raise ValueError(f"unknown estimator kind {estimator!r}")
        if dataset.n_rows == 0:
            raise ValueError("dataset has no rows")
        n_rows, n_classes = dataset.n_rows, dataset.n_classes
        if n_classes * n_rows ** 2 >= 1 << 63:
            raise ValueError(f"{n_rows} rows and {n_classes} classes: joint codes reach "
                             f"classes * rows**2 = {n_classes * n_rows ** 2}, past int64")
        self.n_rows = n_rows
        self.n_features = dataset.n_features
        self.estimator = estimator
        self.mi_calls = 0
        # entropy misses: pair tables counted, and rows times columns they read
        self.tables = 0
        self.rows_scanned = 0
        self._mask_end = 1 << (self.n_features + 1)
        self._terms = cell_terms(n_rows)
        self._target = np.ascontiguousarray(dataset.target, dtype=_narrow_dtype(n_classes))
        # by feature bit: the column's narrowed codes and their range, at most N
        self._bit_columns: dict[int, tuple[np.ndarray, int]] = {}
        for j, arity in enumerate(dataset.arities):
            col = dataset.codes[:, j]
            if arity > n_rows:
                col, arity = _relabel(col, arity, n_rows)
            if not (col.dtype in (np.uint8, np.uint16) and arity <= np.iinfo(col.dtype).max + 1):
                col = col.astype(_narrow_dtype(arity))
            self._bit_columns[2 << j] = np.ascontiguousarray(col), arity
        self._bit_arities = (n_classes, *dataset.arities)
        self._entropy_cache = _EntropyMemo(self)
        self._code_cache: OrderedDict[int, tuple[np.ndarray, int]] = OrderedDict()
        self._code_bytes = 0

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
            c = operator.index(c)             # a float or a string is no column index
            if not TARGET <= c < self.n_features:
                raise IndexError(f"feature index {c} out of range")
            mask |= 1 << (c + 1)
        return mask

    def _pair_profiles(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """The count profiles of the set ``a`` with the target, and of ``a`` alone.

        ``a`` has no target bit, and may be empty.  Its codes carry the target
        as their top digit, so their table is that of ``a`` with the target,
        one row of ``a``'s cells per class, and the sum of the rows is the
        table of ``a``.  Above ``_TABLE_ROWS * N`` cells the codes are counted
        by sorting, and ``a`` alone from their low digits.
        """
        n_classes = self._bit_arities[0]
        code, size = self._codes_of(a)
        if n_classes * size <= _TABLE_ROWS * self.n_rows:
            table = np.bincount(code, minlength=n_classes * size)
            alone = np.add.reduce(table.reshape(n_classes, size), 0)
        else:
            table = np.unique(code, return_counts=True)[1]
            alone = np.bincount(self._low_digits(code, size))
        return np.bincount(table), np.bincount(alone)

    def _dense_cells(self, a: int) -> tuple[float, float]:
        """The dense cell counts, as floats, of the set ``a`` with the target and of ``a`` alone.

        Only the shrinkage estimator reads them.  The target comes first in
        the product, as in a set's bit order.  A product past the float range
        is inf, also where one arity alone is past it.
        """
        arities = self._bit_arities
        dense_a, dense_ay = 1.0, 1.0 * arities[0]
        rest = a
        while rest:
            low = rest & -rest
            arity = arities[low.bit_length() - 1]
            try:
                dense_a *= arity
                dense_ay *= arity
            except OverflowError:           # an int arity too large for a float
                return np.inf, np.inf
            rest ^= low
        return dense_ay, dense_a

    def _codes_of(self, mask: int) -> tuple[np.ndarray, int]:
        """Joint codes of the set with the target, and the set's range.

        A code is ``y * size + code_A`` for the returned size, the range of
        the set's own digits; the empty set's code is the target.  A non-empty
        set extends a cached set one column smaller, or else the set without
        its lowest column, by the missing column.  Once the set's range
        exceeds the row count, its digits are relabelled densely before the
        codes are cached.  Every base's range and every column's is at most
        N, so before a relabel a code is below ``n_classes * N**2``, which
        ``__init__`` keeps within int64.
        """
        if not mask:
            return self._target, 1
        cache = self._code_cache
        hit = cache.get(mask)
        if hit is not None:
            cache.move_to_end(mask)
            return hit
        rest = mask
        while rest:
            bit = rest & -rest
            if mask ^ bit in cache:
                break
            rest ^= bit
        else:
            bit = mask & -mask
        n_classes = self._bit_arities[0]
        code, size = _extend(*self._codes_of(mask ^ bit), *self._bit_columns[bit], n_classes)
        if size > self.n_rows:
            # relabel the set's own digits and put the target back on top
            low, size = _relabel(self._low_digits(code, size), size, self.n_rows)
            code = np.multiply(self._target, size, dtype=_code_dtype(n_classes * size))
            code += low
        self._keep(mask, code, size)
        return code, size

    def _low_digits(self, code: np.ndarray, size: int) -> np.ndarray:
        """The set's own digits of its joint codes: the codes less the target's top digit."""
        return code - np.multiply(self._target, size, dtype=code.dtype)

    def _keep(self, mask: int, code: np.ndarray, size: int) -> None:
        """Cache the new set's codes, least recently used out first, within both caps."""
        cache = self._code_cache
        cache[mask] = code, size
        self._code_bytes += code.nbytes
        while len(cache) > _CODE_CACHE_SIZE or self._code_bytes > _CODE_CACHE_BYTES:
            self._code_bytes -= cache.popitem(last=False)[1][0].nbytes

    # -- entropies (not counted as MI terms) ---------------------------------

    def entropy(self, cols) -> float:
        """Joint Shannon entropy of the column set, in bits."""
        return self._entropy_cache[cols if type(cols) is int else self._mask(cols)]

    # -- MI terms (counted) ---------------------------------------------------
    # Each term reads its three entropies straight from the memo, in the order
    # H(A), H(B), H(A u B); an int mask is checked by the memo on a miss.

    def mutual_information(self, cols_a, cols_b) -> float:
        """I(A;B) in bits; negative floating-point residue is clamped to 0."""
        self.mi_calls += 1
        a = cols_a if type(cols_a) is int else self._mask(cols_a)
        b = cols_b if type(cols_b) is int else self._mask(cols_b)
        memo = self._entropy_cache
        v = memo[a] + memo[b] - memo[a | b]
        return v if v > 0.0 else 0.0

    def conditional_mutual_information(self, cols_a, cols_b, cols_z) -> float:
        """I(A;B|Z) = I(A u Z; B) - I(Z; B); empty Z reduces to plain MI.

        Always counts as two MI terms.
        """
        self.mi_calls += 2
        a = cols_a if type(cols_a) is int else self._mask(cols_a)
        b = cols_b if type(cols_b) is int else self._mask(cols_b)
        z = cols_z if type(cols_z) is int else self._mask(cols_z)
        memo = self._entropy_cache
        if not z:
            v = memo[a] + memo[b] - memo[a | b]
            return v if v > 0.0 else 0.0
        az = a | z
        v = memo[az] + memo[b] - memo[az | b]
        w = memo[z] + memo[b] - memo[z | b]
        return (v if v > 0.0 else 0.0) - (w if w > 0.0 else 0.0)

    def reset_and_read_counter(self) -> int:
        """MI-term evaluations since the last reset; zeroes the counter."""
        v = self.mi_calls
        self.mi_calls = 0
        return v


class _EntropyMemo(dict):
    """A context's entropies by mask; a missing mask is checked, then computed.

    A miss counts the pair table of the mask's set without the target, and
    stores both of its entropies, H(A, Y) and H(A); the memo is emptied first
    when it could not take them.  Only a miss checks the mask, and a mask that
    fails the check raises before anything is stored, so the memo holds valid
    masks only and a hit needs no check.  The memo holds its context through a
    weak proxy, so the two form no reference cycle and a context is freed as
    soon as its last reference goes, not at the next garbage collection.
    """

    __slots__ = ("_ctx",)

    def __init__(self, ctx: EstimatorContext):
        super().__init__()
        self._ctx = weakref.proxy(ctx)

    def __missing__(self, mask: int) -> float:
        ctx = self._ctx
        if not ctx._mask(mask):
            raise ValueError("empty column list")
        a = mask & ~TARGET_BIT
        ctx.tables += 1
        ctx.rows_scanned += ctx.n_rows * (a.bit_count() + 1)
        if len(self) > _ENTROPY_CACHE_SIZE - 2:
            self.clear()
        terms, estimator = ctx._terms, ctx.estimator
        denses = ctx._dense_cells(a) if estimator == "shrinkage" else (0.0, 0.0)
        for m, profile, dense in zip((a | TARGET_BIT, a), ctx._pair_profiles(a), denses):
            if m:
                self[m] = profile_entropy(profile, terms, estimator, dense)
        return self[mask]
