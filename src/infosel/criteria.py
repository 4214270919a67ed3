"""Scoring functions for sequential forward selection, and the criterion table.

Each score is a pure function of (candidate k, selected set S, target) over an
EstimatorContext.  With an empty S every criterion falls back to the plain
relevance I(Xk;Y), so all criteria agree on the first selected feature.
The CMIM and JMI families of order 2, 3 and 4 condition on, or join,
m = min(order - 1, |S|) selected features at a time, so while S is small an
order-4 score is the order-|S|+1 score; JMI scores with m < 2 are plain JMI.
The scorers ask the estimator for column sets as masks (feature j is
``2 << j``, the target ``TARGET_BIT``), joined with ``|``.

``CRITERIA`` maps every criterion kind to one row: its scorer and its exact
MI-term cost per candidate.  MIM, MIFS, mRMR and JMI are points of the
beta/gamma family of ``score_generic`` (Brown et al., Conditional Likelihood
Maximisation, JMLR 13, 2012).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from math import comb, perm
from operator import index, or_
from typing import Callable

from .data import _int_at_least, _is_real
from .estimators import TARGET_BIT, EstimatorContext
from .hocmim import hocmim_score


class CriterionError(ValueError):
    """Unknown criterion name or parameters not valid for the kind."""


def _request(k, S) -> tuple[int, list[int]]:
    """k and S's members as ints, in S's order, for one scoring request; a k
    inside S, or an S that repeats a feature, raises ``ValueError``."""
    k, S = index(k), list(map(index, S))
    if k in S:
        raise ValueError(f"candidate {k} already selected")
    if len(set(S)) < len(S):
        raise ValueError(f"selected set {S} repeats a feature")
    return k, S


def score_generic(ctx: EstimatorContext, k: int, S, beta: float, gamma: float) -> float:
    """I(Xk;Y) - beta * sum I(Xj;Xk) + gamma * sum I(Xj;Xk|Y) over j in S."""
    kb = 2 << k
    score = ctx.mutual_information(kb, TARGET_BIT)
    if beta != 0.0:
        score -= beta * sum(ctx.mutual_information(2 << j, kb) for j in S)
    if gamma != 0.0:
        score += gamma * sum(ctx.conditional_mutual_information(2 << j, kb, TARGET_BIT)
                             for j in S)
    return score


def _mean_weight(S) -> float:
    """1/|S|, the averaging weight of mRMR and JMI (0 for an empty S)."""
    return 1.0 / len(S) if S else 0.0


def score_disr(ctx, k, S) -> float:
    """Sum over S of I(Xk,Xj;Y) / H(Xk,Xj,Y); 0/0 terms contribute 0."""
    kb = 2 << k
    if not S:
        return ctx.mutual_information(kb, TARGET_BIT)
    total = 0.0
    for j in S:
        kj = kb | 2 << j
        num = ctx.mutual_information(kj, TARGET_BIT)
        den = ctx.entropy(kj | TARGET_BIT)
        if den > 0.0:
            total += num / den
    return total


def score_cmim(ctx, k, S, order: int = 2) -> float:
    """min over the m-subsets Z of S of I(Xk;Y|Z), m = min(order-1, |S|).

    Order 2 is CMIM (single conditioners); orders 3 and 4 condition on pairs
    and triples.  An empty S gives the relevance I(Xk;Y).
    """
    m = min(order - 1, len(S))
    kb = 2 << k
    if m == 0:
        return ctx.mutual_information(kb, TARGET_BIT)
    return min(ctx.conditional_mutual_information(kb, TARGET_BIT, reduce(or_, z))
               for z in combinations([2 << j for j in S], m))


def score_relax_mrmr(ctx, k, S) -> float:
    """JMI-weighted generic score minus the averaged triple interaction term."""
    w = _mean_weight(S)
    score = score_generic(ctx, k, S, w, w)
    if len(S) >= 2:
        eta = 1.0 / (len(S) * (len(S) - 1))
        kb = 2 << k
        score -= eta * sum(ctx.conditional_mutual_information(kb, 2 << i, 2 << j)
                           for j in S for i in S if i != j)
    return score


def score_jmi_high(ctx, k, S, order: int) -> float:
    """Unnormalized sum of I(Xj..,Xk;Y) over ordered m-tuples of S, m = min(order-1, |S|).

    Order 3 sums over ordered distinct pairs, order 4 over ordered distinct
    triples; while m < 2 the score is JMI.
    """
    m = min(order - 1, len(S))
    if m < 2:
        w = _mean_weight(S)
        return score_generic(ctx, k, S, w, w)
    kb = 2 << k
    return sum(ctx.mutual_information(reduce(or_, tup, kb), TARGET_BIT)
               for tup in permutations([2 << j for j in S], m))


@dataclass(frozen=True)
class Kind:
    """One row of the criterion table.

    ``score(criterion, ctx, k, S)`` returns ``(score, RedundancyTrace | None)``.
    ``calls(criterion, s)`` is the exact number of MI terms that score asks
    for with s >= 1 features selected; for the adaptive order search it is the
    bound at ``n_max``.  ``takes`` names the optional parameters the kind
    accepts: "beta" (the MIFS weight) or "n" (the order search: ``n``,
    ``epsilon_star`` and ``n_max``).
    """

    score: Callable
    calls: Callable
    takes: str | None = None


def _cmim_row(order: int) -> Kind:
    """CMIM of the given order: one CMI (two MI terms) per m-subset of S."""
    return Kind(lambda c, ctx, k, S: (score_cmim(ctx, k, S, order), None),
                lambda c, s: 2 * comb(s, min(order - 1, s)))


def _jmi_row(order: int) -> Kind:
    """JMI of the given order: one MI term per ordered m-tuple, or JMI's 1 + 3s while m < 2."""
    def calls(c, s):
        m = min(order - 1, s)
        return perm(s, m) if m >= 2 else 1 + 3 * s
    return Kind(lambda c, ctx, k, S: (score_jmi_high(ctx, k, S, order), None), calls)


CRITERIA: dict[str, Kind] = {
    "mim": Kind(lambda c, ctx, k, S: (score_generic(ctx, k, S, 0.0, 0.0), None),
                lambda c, s: 1),
    "mifs": Kind(lambda c, ctx, k, S: (score_generic(ctx, k, S, 1.0 if c.beta is None else c.beta,
                                                     0.0), None),
                 lambda c, s: 1 + s if c.beta != 0.0 else 1, takes="beta"),
    "mrmr": Kind(lambda c, ctx, k, S: (score_generic(ctx, k, S, _mean_weight(S), 0.0), None),
                 lambda c, s: 1 + s),
    "jmi": _jmi_row(2),
    "disr": Kind(lambda c, ctx, k, S: (score_disr(ctx, k, S), None),
                 lambda c, s: s),
    "cmim": _cmim_row(2),
    "relax-mrmr": Kind(lambda c, ctx, k, S: (score_relax_mrmr(ctx, k, S), None),
                       lambda c, s: 1 + 3 * s + 2 * s * (s - 1)),
    "jmi3": _jmi_row(3),
    "jmi4": _jmi_row(4),
    "cmim3": _cmim_row(3),
    "cmim4": _cmim_row(4),
    # fixed order n: 1 relevance term plus n sweeps over all of S at 4 MI terms each
    "hocmim": Kind(lambda c, ctx, k, S: hocmim_score(ctx, k, S, c),
                   lambda c, s: 1 + 4 * (c.n if c.n is not None else min(c.n_max, s)) * s,
                   takes="n"),
}

KINDS = tuple(CRITERIA)


@dataclass(frozen=True)
class Criterion:
    """A criterion kind from ``CRITERIA`` plus its parameters.

    ``beta`` is the MIFS weight (1 when None), a finite real number of at
    least 0.  ``n`` fixes the order of the high-order search; without it the
    search is adaptive and stops at the relative threshold ``epsilon_star``
    or at ``n_max``.  ``n`` and ``n_max`` are ints (numpy integers too, kept
    as ints; bools not) and ``epsilon_star`` a real number in [0, 1].  Kinds
    reject a ``beta`` or ``n`` they do not take; ``epsilon_star`` and
    ``n_max`` are checked for every kind.
    """

    kind: str
    beta: float | None = None
    n: int | None = None
    epsilon_star: float = 0.01
    n_max: int = 15

    def __post_init__(self):
        row = CRITERIA.get(self.kind)
        if row is None:
            raise CriterionError(f"unknown criterion {self.kind!r} (choose from {', '.join(KINDS)})")
        if self.beta is not None and row.takes != "beta":
            raise CriterionError(f"{self.kind} does not take beta")
        if self.beta is not None and not _is_real(self.beta):
            raise CriterionError(f"beta must be a real number, got {self.beta!r}")
        if self.beta is not None and not 0.0 <= self.beta < float("inf"):
            raise CriterionError("beta must be finite and >= 0")
        if row.takes != "n" and self.n is not None:
            raise CriterionError(f"{self.kind} does not take order parameters")
        if not _is_real(self.epsilon_star):
            raise CriterionError(f"epsilon_star must be a real number, got {self.epsilon_star!r}")
        if not 0.0 <= self.epsilon_star <= 1.0:
            raise CriterionError("epsilon must be in [0, 1]")
        # plain ints from here on, so labels, counts and json see no numpy integer
        object.__setattr__(self, "n_max", _int_at_least(self.n_max, "n_max", None, CriterionError))
        if self.n_max < 1:
            raise CriterionError("nmax must be >= 1")
        if self.n is not None:
            object.__setattr__(self, "n", _int_at_least(self.n, "n", None, CriterionError))
            if not 1 <= self.n <= self.n_max:
                raise CriterionError(f"fixed order must be in [1, {self.n_max}]")

    @property
    def adaptive(self) -> bool:
        """Whether the order search picks its own order (no fixed ``n``)."""
        return self.n is None

    @property
    def label(self) -> str:
        if self.n is not None:
            return f"{self.kind}-n{self.n}"
        if self.beta is not None:
            return f"{self.kind}-b{self.beta:g}"
        return self.kind

    def score(self, ctx: EstimatorContext, k: int, S) -> tuple:
        """(score, RedundancyTrace or None) of candidate k against the selected set S.

        The one place a request is checked; the scorers trust it.  k and the
        members of S may be numpy integers; they are read as ints.  A k inside
        S, or an S that repeats a feature, raises ``ValueError``.
        """
        return CRITERIA[self.kind].score(self, ctx, *_request(k, S))


_ALIASES = {"cmim-3": "cmim3", "cmim-4": "cmim4", "jmi-3": "jmi3", "jmi-4": "jmi4",
            "relaxmrmr": "relax-mrmr", "relax_mrmr": "relax-mrmr"}


def parse_criterion(name: str, beta: float | None = None, n: int | None = None,
                    epsilon_star: float = Criterion.epsilon_star,
                    n_max: int = Criterion.n_max) -> Criterion:
    """Build a Criterion from a CLI-style name.

    Accepts the plain kind names plus an inline fixed-order suffix of ASCII
    digits for the high-order search, e.g. ``hocmim-n2``; giving ``n`` as
    well is an error.  Six other spellings are normalized: the dashed
    ``cmim-3``, ``cmim-4``, ``jmi-3`` and ``jmi-4`` of the high-order
    baselines, and ``relaxmrmr`` and ``relax_mrmr`` for ``relax-mrmr``.
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key.startswith("hocmim-n"):
        if n is not None:
            raise CriterionError(f"{name!r} fixes the order already; n={n} given as well")
        suffix = key[len("hocmim-n"):]
        # int() would also read "1_0", "+2", " 2" and non-ASCII digits
        if not (suffix.isascii() and suffix.isdigit()):
            raise CriterionError(f"bad fixed-order suffix in {name!r}")
        n = int(suffix)
        key = "hocmim"
    return Criterion(kind=key, beta=beta, n=n, epsilon_star=epsilon_star, n_max=n_max)
