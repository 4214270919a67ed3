"""Greedy high-order conditional-mutual-information scoring.

The exact CMI of a candidate k against the selected set S decomposes as
I(Xk;Y|S) = I(Xk;Y) - R(Xk,S,Y), where the total redundancy
R = I(Xk;S) - I(Xk;S|Y) carries all the high-order structure.  R is
approximated on an order-n representative subset Z of S, built greedily one
element at a time by maximizing the redundancy increment

    dR_j(Z*) = I(Xk;Z*|Z_{<j}) - I(Xk;Z*|Y,Z_{<j}),

which telescopes so that the running sum equals R(Xk,Z,Y) exactly.  The order
is either fixed or chosen adaptively: the search stops once the redundancy is
within epsilon_star (relative) of its upper bound I(Xk;Y), at n_max, or when
S is exhausted.

This module holds only that greedy search.  The exhaustive search over all
order-n subsets of S, which at n = 2 and 3 equals the ``cmim3`` and ``cmim4``
baselines, is a yardstick rather than part of the method; it lives in
``oracle``, which checks that equivalence and bounds the greedy score by it.
Like the other scorers, ``hocmim_score`` trusts its caller: ``Criterion.score``
checks each request.  It keeps its own name so that ``bench/tracer.py`` can
wrap it for the ``hocmim.*`` metrics.

Fixed-order mode doubles as the instrumented mode for complexity accounting:
every one of its n sweeps evaluates the increment for all of S, so one
``hocmim_score`` call costs exactly 1 + 4*n*|S| MI terms, the relevance and
the sweeps, and the counter matches the closed-form prediction in
selection.predicted_mi_calls.  The increments of elements already in Z are
zero in exact arithmetic but leave a rounding residue in floats; either way
they are left out of the argmax.
Adaptive mode only evaluates the fresh pool and stops early, so its counts
are bounded by the fixed-mode formula at n_max.

The search carries Z as an estimator column mask (feature j is ``2 << j``),
so each increment's conditioning sets are ``Z`` and ``Z | TARGET_BIT``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .estimators import TARGET_BIT, EstimatorContext

#: relevance below this is treated as zero for the normalized stopping rule
ZERO_RELEVANCE = 1e-12

STOP_THRESHOLD = "threshold"
STOP_ORDER_LIMIT = "order_limit"
STOP_EXHAUSTED = "s_exhausted"


@dataclass
class RedundancyTrace:
    """Record of one greedy search: picks, increments, running redundancy."""

    candidate: int
    z: list[int]
    increments: list[float]
    redundancy: float
    stop_reason: str

    @property
    def order(self) -> int:
        return len(self.z)

    def to_dict(self) -> dict:
        return {"candidate": self.candidate, "z": list(self.z),
                "increments": list(self.increments),
                "redundancy": self.redundancy, "stop_reason": self.stop_reason}


def _increment(ctx, kb, jb, zm) -> float:
    """dR_j(Z*) of adding the pick jb to zm for the candidate kb, all column masks."""
    return (ctx.conditional_mutual_information(kb, jb, zm)
            - ctx.conditional_mutual_information(kb, jb, zm | TARGET_BIT))


def hocmim_score(ctx: EstimatorContext, k: int, S,
                 criterion) -> tuple[float, RedundancyTrace]:
    """Score = I(Xk;Y) - R(Xk,Z,Y) of candidate k, and the trace of the greedy
    search that built its representative set Z from S.

    ``criterion`` (a ``hocmim`` Criterion) sets the order: its fixed ``n``,
    or adaptive when ``n`` is None, with ``epsilon_star`` and ``n_max``.
    The relevance is asked for first, then the increments.  Ties in the
    argmax go to the lowest feature index.  Increments may be negative once
    the positive ones are exhausted; they are accepted as-is.  An empty S
    needs no case of its own: adaptive mode runs no sweep and fixed mode n
    sweeps over an empty pool, so the score is the relevance and the trace
    is empty, stopped as ``s_exhausted``.  k and S must be a checked request
    from ``Criterion.score``: ints, k outside S, no feature twice.
    """
    S = sorted(S)
    kb = 2 << k
    relevance = ctx.mutual_information(kb, TARGET_BIT)
    adaptive = criterion.adaptive

    z: list[int] = []
    z_mask = 0
    increments: list[float] = []
    redundancy = 0.0
    n_sweeps = criterion.n if not adaptive else min(criterion.n_max, len(S))

    for _ in range(n_sweeps):
        pool = S if not adaptive else [j for j in S if not z_mask & 2 << j]
        best_j, best_d = None, None
        for j in pool:
            jb = 2 << j
            d = _increment(ctx, kb, jb, z_mask)
            if jb & z_mask:
                continue                      # fixed mode: evaluated for the count only
            if best_d is None or d > best_d:
                best_j, best_d = j, d
        if best_j is None:
            continue                          # fixed n > |S|: z is full, sweeps go on
        z.append(best_j)
        z_mask |= 2 << best_j
        increments.append(best_d)
        redundancy += best_d
        if adaptive and relevance > ZERO_RELEVANCE:
            if 1.0 - redundancy / relevance < criterion.epsilon_star:
                stop = STOP_THRESHOLD
                break
    else:
        stop = STOP_EXHAUSTED if len(z) == len(S) else STOP_ORDER_LIMIT
    return relevance - redundancy, RedundancyTrace(k, z, increments, redundancy, stop)

