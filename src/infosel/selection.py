"""Sequential forward selection driving any criterion, with instrumentation.

Every step scores all remaining candidates and takes the best, breaking ties
toward the lowest feature index.  Step 1 scores by relevance alone (one MI
term per feature), which every criterion reduces to on an empty selected set.
MI-term counts are read off the estimator counter per step, and
``predicted_mi_calls`` gives the exact closed-form count for every criterion
from the ``calls`` of its ``criteria.CRITERIA`` row, so the instrumentation
can be verified call-for-call in fixed-order mode.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field

from .criteria import CRITERIA
from .data import DiscreteDataset, _int_at_least
from .estimators import TARGET, EstimatorContext
from .hocmim import RedundancyTrace


@dataclass
class SelectionResult:
    """Ordered selections with per-step scores, traces, and MI-call counts."""

    order: list[int]
    names: list[str]
    scores: list[float]
    step_mi_calls: list[int]
    total_mi_calls: int
    criterion: str
    wall_time: float
    step_traces: list[RedundancyTrace | None] = field(default_factory=list)
    all_traces: list[dict[int, RedundancyTrace]] | None = None

    def to_dict(self) -> dict:
        d = {
            "criterion": self.criterion,
            "order": list(self.order),
            "names": list(self.names),
            "scores": list(self.scores),
            "step_mi_calls": list(self.step_mi_calls),
            "total_mi_calls": self.total_mi_calls,
            "wall_time_s": self.wall_time,
        }
        if any(t is not None for t in self.step_traces):
            d["step_traces"] = [t.to_dict() if t else None for t in self.step_traces]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_rank_csv(self) -> str:
        """``rank,feature`` rows, a name quoted where it holds a comma, quote or newline."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["rank", "feature"])
        writer.writerows(enumerate(self.names, 1))
        return out.getvalue()

    def traces_json(self) -> str:
        """Full per-candidate trace dump (requires run_sfs(..., collect_traces=True))."""
        if self.all_traces is None:
            raise ValueError("run selection with collect_traces=True first")
        steps = [{str(k): tr.to_dict() for k, tr in step.items()} for step in self.all_traces]
        return json.dumps({"criterion": self.criterion, "steps": steps}, indent=2)


def run_sfs(dataset: DiscreteDataset, criterion, K: int, estimator: str = "plugin",
            collect_traces: bool = False) -> SelectionResult:
    """Select K features; ``criterion`` is a Criterion or any scorer with
    ``.score(ctx, k, S) -> (score, trace or None)`` and a ``.label``/``.kind``.

    ``K`` must be an int in [1, D] (a numpy integer too, a bool not);
    anything else raises ``ValueError``.  To select on a subset of the rows,
    pass ``dataset.restrict(rows)``.
    """
    D = dataset.n_features
    K = _int_at_least(K, "K", None)
    if not 1 <= K <= D:
        raise ValueError(f"K must be in [1, {D}], got {K}")
    ctx = EstimatorContext(dataset, estimator=estimator)
    kind = getattr(criterion, "kind", "custom")
    label = getattr(criterion, "label", kind)

    t0 = time.perf_counter()
    order: list[int] = []
    scores: list[float] = []
    step_calls: list[int] = []
    step_traces: list[RedundancyTrace | None] = []
    all_traces: list[dict[int, RedundancyTrace]] = []

    while len(order) < K:
        best_k, best_s, best_tr = None, None, None
        traces_here: dict[int, RedundancyTrace] = {}
        for k in range(D):
            if k in order:
                continue
            if order:
                s, tr = criterion.score(ctx, k, order)
            else:
                # step 1: relevance, shared by every criterion
                s, tr = ctx.mutual_information([k], [TARGET]), None
            if collect_traces and tr is not None:
                traces_here[k] = tr
            if best_s is None or s > best_s:
                best_k, best_s, best_tr = k, s, tr
        order.append(best_k)
        scores.append(best_s)
        step_calls.append(ctx.reset_and_read_counter())
        step_traces.append(best_tr)
        if collect_traces:
            all_traces.append(traces_here)

    names = [dataset.feature_names[j] for j in order]
    return SelectionResult(order, names, scores, step_calls, sum(step_calls),
                           label, time.perf_counter() - t0, step_traces,
                           all_traces if collect_traces else None)


def predicted_mi_calls(criterion, K: int, D: int) -> int:
    """Closed-form MI-term count for a K-step selection over D features.

    Mirrors the implementation exactly: step 1 costs D relevance terms; at the
    step with s features already selected, each of the D-s remaining
    candidates costs the ``calls`` of the criterion's row in
    ``criteria.CRITERIA``.  In adaptive mode the search stops early, so the
    value returned (at n_max) is an upper bound rather than an exact count.
    ``K`` and ``D`` must be ints with 1 <= K <= D; anything else raises
    ``ValueError``.
    """
    K, D = _int_at_least(K, "K", None), _int_at_least(D, "D", None)
    if K < 1 or D < 1 or K > D:
        raise ValueError("need 1 <= K <= D")
    row = CRITERIA.get(getattr(criterion, "kind", None))
    if row is None:
        raise ValueError(f"no call model for criterion {criterion!r}")
    return D + sum((D - s) * row.calls(criterion, s) for s in range(1, K))
