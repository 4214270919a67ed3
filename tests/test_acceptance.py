"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Each test prints a single ``ACCEPTANCE n ... PASS`` line (visible with
``pytest tests/test_acceptance.py -v -s``); a failed assertion keeps the line
from printing and fails the test.
"""

import hashlib
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from infosel import hocmim
from infosel.cli import main
from infosel.criteria import Criterion, parse_criterion
from infosel.data import make_xor_table, discretize, toy_dataset
from infosel.estimators import TARGET, EstimatorContext
from infosel.evaluate import average_ranks
from infosel.hocmim import hocmim_score
from infosel.oracle import random_dataset, run_oracle_checks
from infosel.selection import predicted_mi_calls, run_sfs


def _report(num: int, name: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_golden_ranks(capsys):
    t0 = time.perf_counter()
    ds = toy_dataset()
    expected = {
        1: ("X3", "X2", "X4", "X5", "X1"),
        2: ("X3", "X2", "X4", "X1", "X5"),
        3: ("X3", "X2", "X4", "X1", "X5"),
    }
    for n, want in expected.items():
        got = tuple(run_sfs(ds, parse_criterion("hocmim", n=n), 5).names)
        assert got == want, f"order-{n} rank mismatch: {got}"
    assert main(["toy"]) == 0
    capsys.readouterr()
    with capsys.disabled():
        _report(1, "toy golden ranks", t0, budget=1.0)


# Golden values for the demonstration table: (label, rounded two-decimal
# reference value, exact plug-in value frozen from an independent brute-force
# oracle).  Fourteen reference values match the exact computation within
# +-0.005.  The remaining two are known rounding slips (the exact values
# round to 0.11, not to 0.10/0.12) and carry typo=True: they are asserted
# against the exact reading, with the rounded figure still within 0.006.
_GOLDEN = (
    ("I(X1;Y)", 0.01, 0.005802, False),
    ("I(X2;Y)", 0.05, 0.046439, False),
    ("I(X3;Y)", 0.26, 0.256426, False),
    ("I(X4;Y)", 0.01, 0.005802, False),
    ("I(X5;Y)", 0.17, 0.170951, False),
    ("R1(X1|{X3})", -0.11, -0.108723, False),
    ("R1(X2|{X3})", -0.14, -0.143574, False),
    ("R1(X4|{X3})", -0.11, -0.108723, False),
    ("R1(X5|{X3})", 0.10, 0.105448, True),
    ("score(X2|{X3})", 0.19, 0.190013, False),
    ("score_n1(X4|{X2,X3})", 0.12, 0.114525, True),
    ("R2(X4|{X2,X3})", -0.24, -0.243220, False),
    ("score_n2(X4|{X2,X3})", 0.25, 0.249022, False),
    ("score_n1(X1|{X2,X3,X4})", 0.05, 0.049022, False),
    ("score_n1(X5|{X2,X3,X4})", 0.07, 0.065502, False),
    ("score_n2(X1|{X2,X3,X4})", 0.09, 0.085475, False),
    ("score_n2(X5|{X2,X3,X4})", 0.05, 0.049022, False),
)


def _toy_values() -> dict[str, float]:
    ctx = EstimatorContext(toy_dataset())
    vals = {f"I(X{j + 1};Y)": ctx.mutual_information([j], [TARGET]) for j in range(5)}
    for k in (0, 1, 3, 4):
        vals[f"R1(X{k + 1}|{{X3}})"] = \
            hocmim_score(ctx, k, [2], Criterion("hocmim", n=1))[1].redundancy
    vals["score(X2|{X3})"] = hocmim_score(ctx, 1, [2], Criterion("hocmim", n=1))[0]
    vals["score_n1(X4|{X2,X3})"] = hocmim_score(ctx, 3, [1, 2], Criterion("hocmim", n=1))[0]
    vals["R2(X4|{X2,X3})"] = \
        hocmim_score(ctx, 3, [1, 2], Criterion("hocmim", n=2))[1].redundancy
    vals["score_n2(X4|{X2,X3})"] = hocmim_score(ctx, 3, [1, 2], Criterion("hocmim", n=2))[0]
    for k, tag in ((0, "X1"), (4, "X5")):
        for n in (1, 2):
            vals[f"score_n{n}({tag}|{{X2,X3,X4}})"] = \
                hocmim_score(ctx, k, [1, 2, 3], Criterion("hocmim", n=n))[0]
    return vals


def test_criterion_2_golden_values(capsys):
    t0 = time.perf_counter()
    vals = _toy_values()
    for label, printed, exact, typo in _GOLDEN:
        got = vals[label]
        assert got == pytest.approx(exact, abs=2e-5), f"{label}: {got} vs oracle {exact}"
        if typo:
            assert round(got, 2) == 0.11, label
            assert got == pytest.approx(printed, abs=0.006), label
        else:
            assert got == pytest.approx(printed, abs=0.005), \
                f"{label}: {got} vs printed {printed}"
    with capsys.disabled():
        _report(2, "demonstration-table golden values", t0, budget=5.0)


def test_criterion_3_oracle_equivalences(capsys):
    t0 = time.perf_counter()
    report = run_oracle_checks(n_instances=100, seed=0)
    assert report.n_failed == 0, report.summary() + "\n" + "\n".join(report.messages)
    # every equivalence family must actually have been exercised
    for check in ("greedy_full_equals_cmi", "n1_equals_cmim",
                  "exhaustive2_equals_cmim3", "exhaustive3_equals_cmim4",
                  "cmi_forms", "chain_rule", "chain_sum", "symmetry", "mi_bounds",
                  "full_redundancy_bounds", "greedy_below_exhaustive",
                  "statement1_zero_score", "statement1_threshold_stop",
                  "statement2_independence"):
        assert report.passed.get(check, 0) > 0, f"{check} never ran"
    assert len(report.passed) == 14, sorted(report.passed)
    # the exhaustive families run only where |S| >= 2 or 3; seed 0 draws these counts
    assert {check: report.passed[check] for check in (
        "exhaustive2_equals_cmim3", "exhaustive3_equals_cmim4", "greedy_below_exhaustive")} == {
        "exhaustive2_equals_cmim3": 50, "exhaustive3_equals_cmim4": 27,
        "greedy_below_exhaustive": 27}
    assert report.n_passed == 907
    with capsys.disabled():
        _report(3, "oracle equivalence suite", t0, budget=60.0)


def _increment_off_after_first_pick():
    real = hocmim._increment
    return mock.patch.object(hocmim, "_increment",
                             lambda ctx, kb, jb, zm: real(ctx, kb, jb, zm) + (1e-6 if zm else 0.0))


def _joint_entropies_off():
    real = EstimatorContext.entropy

    def entropy(ctx, cols):
        h = real(ctx, cols)
        return h + 1e-6 if ctx._mask(cols).bit_count() >= 2 else h
    return mock.patch.object(EstimatorContext, "entropy", entropy)


@pytest.mark.parametrize("plant, check", [(_increment_off_after_first_pick, "chain_sum"),
                                          (_joint_entropies_off, "chain_rule")],
                         ids=["chain_sum", "chain_rule"])
def test_oracle_catches_planted_errors(plant, check):
    # a wrong value that each side of a check would share must still fail it
    with plant():
        report = run_oracle_checks(n_instances=20, seed=0)
    assert report.failed.get(check, 0) > 0, report.summary()


def test_criterion_4_complexity_accounting(capsys):
    t0 = time.perf_counter()
    # exact counter agreement on a (D, K, n) grid including the toy case
    cases = [(toy_dataset(), 5, 1), (toy_dataset(), 5, 2), (toy_dataset(), 5, 4)]
    rng = np.random.default_rng(123)
    for _ in range(6):
        ds = random_dataset(rng, d_max=9, n_max=40)
        cases.append((ds, int(rng.integers(2, ds.n_features + 1)),
                      int(rng.integers(1, 5))))
    for ds, K, n in cases:
        crit = parse_criterion("hocmim", n=n)
        res = run_sfs(ds, crit, K)
        pred = predicted_mi_calls(crit, K, ds.n_features)
        assert res.total_mi_calls == pred, \
            f"D={ds.n_features} K={K} n={n}: {res.total_mi_calls} != {pred}"

    # three-point fit over n in {1,2,4}: the greedy-search portion of the
    # instrumented count is affine in the order with zero residual
    ds = random_dataset(np.random.default_rng(5), d_max=10, n_max=32)
    D, K = ds.n_features, min(6, ds.n_features)
    rel = predicted_mi_calls(parse_criterion("mim"), K, D)
    red = {}
    for n in (1, 2, 4):
        red[n] = run_sfs(ds, parse_criterion("hocmim", n=n), K).total_mi_calls - rel
    slope = red[2] - red[1]
    assert red[4] - red[1] == 3 * slope, f"nonzero residual: {red}"
    assert red[2] == 2 * red[1], f"search portion not linear through zero: {red}"
    with capsys.disabled():
        _report(4, "complexity accounting", t0, budget=30.0)


def test_criterion_5_xor_recovery(capsys):
    t0 = time.perf_counter()
    true_set = {"X1", "X2", "X3", "X4"}
    hoc_hits = mim_hits = 0
    n_seeds = 30
    for seed in range(n_seeds):
        ds = discretize(make_xor_table(seed=seed), n_bins=5)
        hoc = run_sfs(ds, parse_criterion("hocmim"), 4)     # adaptive defaults
        mim = run_sfs(ds, parse_criterion("mim"), 4)
        hoc_hits += set(hoc.names) == true_set
        mim_hits += set(mim.names) == true_set
    assert hoc_hits >= 0.9 * n_seeds, f"high-order recovery {hoc_hits}/{n_seeds}"
    assert mim_hits <= 0.3 * n_seeds, f"relevance-only recovery {mim_hits}/{n_seeds}"
    with capsys.disabled():
        _report(5, f"xor recovery ({hoc_hits}/30 vs {mim_hits}/30)", t0, budget=300.0)


def test_criterion_6_harness_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    toy_csv = Path(__file__).resolve().parents[1] / "data" / "toy.csv"
    digests = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["benchmark", "--dataset", str(toy_csv), "--target", "Y",
                   "--criterion", "mim,hocmim-n2,cmim", "--repeats", "5",
                   "--seed", "7", "--k", "4", "--out", str(out)])
        assert rc == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]

    rng = np.random.default_rng(99)
    for _ in range(100):
        m = int(rng.integers(2, 10))
        errors = rng.choice([0.0, 0.1, 0.2, 0.5], size=m)
        ranks = average_ranks(errors)
        assert ranks.sum() == pytest.approx(m * (m + 1) / 2)
        assert ranks.min() >= 1.0 and ranks.max() <= m
    capsys.readouterr()
    with capsys.disabled():
        _report(6, "harness determinism and rank rules", t0, budget=60.0)
