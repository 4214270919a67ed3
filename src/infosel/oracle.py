"""Seeded brute-force self-checks of the estimator and search identities.

Each check pits the production code path against an independent formulation
(entropy-form CMI, exhaustive subset search, telescoped chains) on small random
datasets.  ``chain_rule`` checks H(A,B) - H(B) against the mean of H(A | B=b)
over the rows grouped by their B values, and ``chain_sum`` checks the greedy
increments' sum against the total redundancy of their set computed in one go,
so neither compares a quantity with its own definition.  Used by the
``oracle-check`` CLI subcommand and by the test suite.

Two brute-force references live here and nowhere else: ``_total_redundancy``,
R(Xk,Z,Y) = I(Xk;Z) - I(Xk;Z|Y) computed in one go, and ``_exhaustive_score``,
the relevance minus the max of R over every order-n subset of S.  They take
valid input only (a nonempty Z without k, 1 <= n <= |S|, a small S) and check
none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .criteria import Criterion, score_cmim
from .data import DiscreteDataset, _int_at_least
from .estimators import TARGET, EstimatorContext

TOL = 1e-9


@dataclass
class OracleReport:
    passed: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    def record(self, check: str, ok: bool, msg: str = ""):
        bucket = self.passed if ok else self.failed
        bucket[check] = bucket.get(check, 0) + 1
        if not ok and len(self.messages) < 50:
            self.messages.append(f"{check}: {msg}")

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def n_passed(self) -> int:
        return sum(self.passed.values())

    def summary(self) -> str:
        lines = []
        for check in sorted(set(self.passed) | set(self.failed)):
            p, f = self.passed.get(check, 0), self.failed.get(check, 0)
            lines.append(f"{'FAIL' if f else 'ok  '} {check}: {p} passed, {f} failed")
        lines.append(f"total: {self.n_passed} passed, {self.n_failed} failed")
        return "\n".join(lines)


def random_dataset(rng: np.random.Generator, d_max: int = 6, n_max: int = 64,
                   arity_max: int = 3) -> DiscreteDataset:
    d = int(rng.integers(2, d_max + 1))
    n = int(rng.integers(8, n_max + 1))
    arities = tuple(int(a) for a in rng.integers(2, arity_max + 1, size=d))
    codes = np.column_stack([rng.integers(0, a, size=n) for a in arities])
    n_classes = int(rng.integers(2, 4))
    target = rng.integers(0, n_classes, size=n)
    # guarantee every class code appears so n_classes is honest
    target[:n_classes] = np.arange(n_classes)
    names = tuple(f"F{j}" for j in range(d))
    return DiscreteDataset(codes.astype(np.int64), arities,
                           target.astype(np.int64), n_classes, names)


def _cmi_entropy_form(ctx, a, b, z) -> float:
    """H(A,Z) - H(A,B,Z) - H(Z) + H(B,Z); plain-MI H form when Z is empty."""
    a, b, z = list(a), list(b), list(z)
    if not z:
        return ctx.entropy(a) + ctx.entropy(b) - ctx.entropy(a + b)
    return (ctx.entropy(a + z) - ctx.entropy(a + b + z)
            - ctx.entropy(z) + ctx.entropy(b + z))


def _grouped_entropy(ds: DiscreteDataset, a, b) -> float:
    """H(A|B) = sum_b p(b) * H(A | B=b), from the rows grouped by their B values."""
    _, group = np.unique(ds.codes[:, b], axis=0, return_inverse=True)
    group = group.ravel()
    h = 0.0
    for g in range(group.max() + 1):
        rows = ds.codes[group == g][:, a]
        p = np.unique(rows, axis=0, return_counts=True)[1] / len(rows)
        h -= len(rows) / ds.n_rows * float((p * np.log2(p)).sum())
    return h


def _total_redundancy(ctx, k, z) -> float:
    """R(Xk,Z,Y) = I(Xk;Z) - I(Xk;Z|Y) on the joint encoding of Z."""
    return (ctx.mutual_information([k], z)
            - ctx.conditional_mutual_information([k], z, [TARGET]))


def _exhaustive_score(ctx, k, S, n) -> float:
    """I(Xk;Y) minus the max of R over all size-n subsets of S, which equals
    the min over those subsets Z of I(Xk;Y|Z)."""
    relevance = ctx.mutual_information([k], [TARGET])
    return relevance - max(_total_redundancy(ctx, k, list(z)) for z in combinations(S, n))


def check_instance(ds: DiscreteDataset, rng: np.random.Generator,
                   report: OracleReport) -> None:
    ctx = EstimatorContext(ds)
    d = ctx.n_features
    feats = list(range(d))
    k = int(rng.integers(0, d))
    rest = [j for j in feats if j != k]
    s_size = int(rng.integers(1, len(rest) + 1))
    S = sorted(rng.choice(rest, size=s_size, replace=False).tolist())

    # identities: chain rule, symmetry, CMI forms
    a = sorted(set(rng.choice(feats, 2).tolist()))
    b = [int(rng.integers(0, d))]
    lhs = ctx.entropy(a + b) - ctx.entropy(b)
    rhs = _grouped_entropy(ds, a, b)
    report.record("chain_rule", abs(lhs - rhs) < TOL, f"{lhs} vs {rhs}")
    report.record("symmetry",
                  abs(ctx.mutual_information(a, b) - ctx.mutual_information(b, a)) < TOL)
    z = [j for j in feats if j not in a and j not in b][:2]
    lhs = ctx.conditional_mutual_information(a, b, z)
    rhs = _cmi_entropy_form(ctx, a, b, z)
    report.record("cmi_forms", abs(lhs - rhs) < TOL, f"{lhs} vs {rhs}")
    report.record("mi_bounds",
                  ctx.mutual_information(a, b) <= min(ctx.entropy(a), ctx.entropy(b)) + TOL)

    # greedy at n=|S| telescopes to the exact CMI
    full = Criterion("hocmim", n=len(S), n_max=max(15, len(S))).score(ctx, k, S)[1]
    exact_cmi = ctx.conditional_mutual_information([k], [TARGET], S)
    rel = ctx.mutual_information([k], [TARGET])
    report.record("greedy_full_equals_cmi",
                  abs((rel - full.redundancy) - exact_cmi) < TOL,
                  f"{rel - full.redundancy} vs {exact_cmi}")
    chain, whole = sum(full.increments), _total_redundancy(ctx, k, full.z)
    report.record("chain_sum", abs(chain - whole) < TOL, f"{chain} vs {whole}")
    report.record("full_redundancy_bounds",
                  -ctx.conditional_mutual_information([k], S, [TARGET]) - TOL
                  <= _total_redundancy(ctx, k, S) <= rel + TOL)

    # fixed n=1 equals the CMIM score
    s1, _ = Criterion("hocmim", n=1).score(ctx, k, S)
    report.record("n1_equals_cmim", abs(s1 - score_cmim(ctx, k, S)) < TOL)

    # exhaustive order-2/3 search equals the high-order CMIM baselines
    if len(S) >= 2:
        e2 = _exhaustive_score(ctx, k, S, 2)
        report.record("exhaustive2_equals_cmim3",
                      abs(e2 - score_cmim(ctx, k, S, 3)) < TOL)
    if len(S) >= 3:
        e3 = _exhaustive_score(ctx, k, S, 3)
        report.record("exhaustive3_equals_cmim4",
                      abs(e3 - score_cmim(ctx, k, S, 4)) < TOL)
        # greedy search cannot beat the exhaustive max-redundancy
        g2 = Criterion("hocmim", n=2).score(ctx, k, S)[1]
        report.record("greedy_below_exhaustive",
                      rel - g2.redundancy >= e2 - TOL)


def check_statement_cases(report: OracleReport) -> None:
    """Constructed cases for the duplicate-feature and independence laws."""
    rng = np.random.default_rng(7)
    # duplicate feature: score collapses to ~0, trace stops at the threshold
    base = rng.integers(0, 2, size=40)
    other = rng.integers(0, 2, size=40)
    target = rng.integers(0, 2, size=40)
    target[:2] = [0, 1]
    ds = DiscreteDataset(np.column_stack([base, base, other]).astype(np.int64),
                         (2, 2, 2), target.astype(np.int64), 2, ("a", "a2", "b"))
    ctx = EstimatorContext(ds)
    score, trace = Criterion("hocmim").score(ctx, 0, [1, 2])
    report.record("statement1_zero_score", abs(score) < TOL, f"score={score}")
    report.record("statement1_threshold_stop",
                  trace.stop_reason == "threshold" and trace.redundancy <= ctx.mutual_information([0], [TARGET]) + TOL)

    # candidate independent of S but strongly dependent given Y: the order-|S|
    # score must reach I(Xk;Y) + I(Xk;S|Y) (here ~1 bit of purely joint signal)
    n = 10_000
    rng = np.random.default_rng(8)
    s1, s2 = rng.integers(0, 2, n), rng.integers(0, 2, n)
    y = rng.integers(0, 2, n)
    x = s1 ^ s2 ^ y
    ds = DiscreteDataset(np.column_stack([x, s1, s2]).astype(np.int64),
                         (2, 2, 2), y.astype(np.int64), 2, ("x", "s1", "s2"))
    ctx = EstimatorContext(ds)
    S = [1, 2]
    score = _exhaustive_score(ctx, 0, S, len(S))
    expected = (ctx.mutual_information([0], [TARGET])
                + ctx.conditional_mutual_information([0], S, [TARGET]))
    report.record("statement2_independence", abs(score - expected) < 0.02,
                  f"{score} vs {expected}")


def run_oracle_checks(n_instances: int = 100, seed: int = 0) -> OracleReport:
    """The identities are exact plug-in facts, so the suite always runs plug-in.

    ``n_instances`` and ``seed`` must be ints of at least 0 (numpy integers
    too, bools not); anything else raises ``ValueError`` naming the field.
    """
    n_instances = _int_at_least(n_instances, "n_instances", 0)
    seed = _int_at_least(seed, "seed", 0)
    report = OracleReport()
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        check_instance(random_dataset(rng), rng, report)
    check_statement_cases(report)
    return report
