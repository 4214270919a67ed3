"""Command-line front end: select, benchmark, toy, oracle-check."""

from __future__ import annotations

import argparse
import csv
import sys

from . import __version__
from .criteria import CRITERIA, Criterion, CriterionError, parse_criterion
from .data import (BinningError, DataError, SplitSpec, discretize, fit_binning, load_csv,
                   make_xor_table, toy_dataset, toy_table)
from .estimators import TARGET, EstimatorContext
from .evaluate import benchmark
from .oracle import run_oracle_checks
from .selection import run_sfs


class StageError(RuntimeError):
    def __init__(self, stage: str, msg: str):
        super().__init__(msg)
        self.stage = stage


def _check_seed(args, stage: str) -> None:
    if args.seed < 0:
        raise StageError(stage, f"--seed must be >= 0, got {args.seed}")


def _load_table(args):
    if args.xor and args.dataset:
        raise StageError("load", "--xor and --dataset both given; use one of them")
    if (args.xor or args.dataset == "toy") and args.target not in (None, "Y"):
        raise StageError("load", f"--target {args.target!r}: the built-in tables' target is 'Y'")
    if args.xor:
        # the seed generates the table
        _check_seed(args, "load")
        return make_xor_table(seed=args.seed), "xor-synthetic"
    if args.dataset == "toy":
        return toy_table(), "toy"
    if not args.dataset:
        raise StageError("load", "no dataset given (use --dataset PATH, --dataset toy, or --xor)")
    if not args.target:
        raise StageError("load", "--target is required with --dataset")
    try:
        return load_csv(args.dataset, args.target), args.dataset
    except (OSError, DataError, UnicodeDecodeError, csv.Error) as e:
        raise StageError("load", str(e)) from e


def _parse_criteria(args, names) -> list[Criterion]:
    """Criteria by name; --beta and --n go only to the kinds that take them.

    A flag that none of the named kinds takes is an error.
    """
    flags = {"beta": args.beta, "n": args.n}
    try:
        kinds = [parse_criterion(name, epsilon_star=args.epsilon, n_max=args.nmax).kind
                 for name in names]
        for flag, value in flags.items():
            if value is not None and all(CRITERIA[kind].takes != flag for kind in kinds):
                raise CriterionError(f"no criterion in [{', '.join(names)}] takes --{flag}")
        criteria = []
        for name, kind in zip(names, kinds):
            taken = {flag: value for flag, value in flags.items() if CRITERIA[kind].takes == flag}
            criteria.append(parse_criterion(name, epsilon_star=args.epsilon, n_max=args.nmax,
                                            **taken))
        return criteria
    except CriterionError as e:
        raise StageError("selection", str(e)) from e


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise StageError("write", str(e)) from e


def cmd_select(args) -> int:
    table, label = _load_table(args)
    _check_seed(args, "selection")
    try:
        ds = discretize(table, n_bins=args.bins)
    except DataError as e:
        raise StageError("binning", str(e)) from e
    crit = _parse_criteria(args, [args.criterion])[0]
    k = min(50, ds.n_features) if args.k is None else args.k
    try:
        result = run_sfs(ds, crit, k, estimator=args.estimator,
                         collect_traces=bool(args.traces))
    except ValueError as e:
        raise StageError("selection", str(e)) from e

    print(f"# {label}: top-{k} by {result.criterion} ({result.total_mi_calls} MI terms)")
    for i, (name, score) in enumerate(zip(result.names, result.scores)):
        print(f"{i + 1:3d}  {name:<20s} {score: .6f}")
    if args.out:
        text = {"json": result.to_json, "csv": result.to_rank_csv,
                "text": lambda: _select_text(result)}[args.format]()
        _write(args.out, text)
    if args.traces:
        _write(args.traces, result.traces_json())
    return 0


def _select_text(result) -> str:
    lines = [f"criterion: {result.criterion}",
             f"total MI terms: {result.total_mi_calls}",
             "rank  feature  score  step_mi_calls"]
    for i, (name, score, calls) in enumerate(zip(result.names, result.scores,
                                                 result.step_mi_calls)):
        lines.append(f"{i + 1}  {name}  {score:.6f}  {calls}")
    return "\n".join(lines) + "\n"


def cmd_benchmark(args) -> int:
    if args.repeats < 1:
        raise StageError("selection", "repeats must be >= 1")
    table, label = _load_table(args)
    _check_seed(args, "selection")
    try:
        # a table that cannot be binned fails here, before the criteria are read
        fit_binning(table, args.bins)
    except DataError as e:
        raise StageError("binning", str(e)) from e
    names = []
    for spec in args.criterion or []:
        names += [s for s in spec.split(",") if s]
    if len(names) < 2:
        raise StageError("selection", "benchmark needs at least two --criterion names")
    criteria = _parse_criteria(args, names)
    k_max = min(50, len(table.feature_names)) if args.k is None else args.k
    split = SplitSpec(train_fraction=args.train_fraction, seed=args.seed,
                      n_repeats=args.repeats)
    try:
        report = benchmark(table, criteria, split, k_max, n_bins=args.bins,
                           knn_k=args.knn_k, estimator=args.estimator,
                           dataset_label=label)
    except BinningError as e:
        # a training half can have a range too narrow to cut, which all rows have not
        raise StageError("binning", str(e)) from e
    except (DataError, ValueError) as e:
        raise StageError("selection", str(e)) from e
    print(report.to_text(), end="")
    if args.out:
        text = {"json": report.to_json, "csv": report.to_csv,
                "text": report.to_text}[args.format]()
        _write(args.out, text)
    return 0


# Reference values for the embedded demonstration table.  ``exact`` entries
# are plug-in base-2 values computed with an independent brute-force oracle
# and frozen; the rounded column carries the two-decimal reference figures.
# Two of those rounded figures are known rounding slips (the exact values
# round to 0.11, not to 0.10/0.12): they are compared against the exact
# reading and annotated in the output.
_TOY_CHECKS = (
    # label, expected exact plug-in value, rounded reference value, note
    ("I(X1;Y)", 0.005802, 0.01, ""),
    ("I(X2;Y)", 0.046439, 0.05, ""),
    ("I(X3;Y)", 0.256426, 0.26, ""),
    ("I(X4;Y)", 0.005802, 0.01, ""),
    ("I(X5;Y)", 0.170951, 0.17, ""),
    ("R1(X1|{X3})", -0.108723, -0.11, ""),
    ("R1(X2|{X3})", -0.143574, -0.14, ""),
    ("R1(X4|{X3})", -0.108723, -0.11, ""),
    ("R1(X5|{X3})", 0.105448, 0.10, "reference 0.10 is a rounding slip"),
    ("score(X2|{X3})", 0.190013, 0.19, ""),
    ("score_n1(X4|{X2,X3})", 0.114525, 0.12, "reference 0.12 is a rounding slip"),
    ("R2(X4|{X2,X3})", -0.243220, -0.24, ""),
    ("score_n2(X4|{X2,X3})", 0.249022, 0.25, ""),
    ("score_n1(X1|{X2,X3,X4})", 0.049022, 0.05, ""),
    ("score_n1(X5|{X2,X3,X4})", 0.065502, 0.07, ""),
    ("score_n2(X1|{X2,X3,X4})", 0.085475, 0.09, ""),
    ("score_n2(X5|{X2,X3,X4})", 0.049022, 0.05, ""),
)
_TOY_RANKS = {
    1: ("X3", "X2", "X4", "X5", "X1"),
    2: ("X3", "X2", "X4", "X1", "X5"),
    3: ("X3", "X2", "X4", "X1", "X5"),
}


def _toy_computed() -> dict[str, float]:
    ds = toy_dataset()
    ctx = EstimatorContext(ds)
    vals = {}
    for j in range(5):
        vals[f"I(X{j + 1};Y)"] = ctx.mutual_information([j], [TARGET])

    def search(k, S, n):
        return Criterion("hocmim", n=n).score(ctx, k, S)

    for k in (0, 1, 3, 4):
        vals[f"R1(X{k + 1}|{{X3}})"] = search(k, [2], 1)[1].redundancy
    vals["score(X2|{X3})"] = search(1, [2], 1)[0]
    vals["score_n1(X4|{X2,X3})"] = search(3, [1, 2], 1)[0]
    vals["R2(X4|{X2,X3})"] = search(3, [1, 2], 2)[1].redundancy
    vals["score_n2(X4|{X2,X3})"] = search(3, [1, 2], 2)[0]
    for k, tag in ((0, "X1"), (4, "X5")):
        for n in (1, 2):
            vals[f"score_n{n}({tag}|{{X2,X3,X4}})"] = search(k, [1, 2, 3], n)[0]
    return vals


def cmd_toy(args) -> int:
    ds = toy_dataset()
    vals = _toy_computed()
    ok = True
    print("rank comparisons (fixed order, K=5)")
    for n, expected in _TOY_RANKS.items():
        got = tuple(run_sfs(ds, parse_criterion("hocmim", n=n), 5).names)
        good = got == expected
        ok &= good
        print(f"  n={n}: {' '.join(got):<20s} expected {' '.join(expected):<20s} "
              f"{'PASS' if good else 'FAIL'}")
    print("\nvalue comparisons (plug-in, base 2, tolerance 0.005)")
    for label, exact, shown, note in _TOY_CHECKS:
        got = vals[label]
        target = exact if note else shown
        good = abs(got - target) <= 0.005
        ok &= good
        flag = "PASS" if good else "FAIL"
        suffix = f"   [{note}]" if note else ""
        print(f"  {label:<26s} computed {got: .4f}   reference {shown: .2f}   {flag}{suffix}")
    print(f"\n{'all comparisons passed' if ok else 'COMPARISON FAILURES'}")
    return 0 if ok else 1


def cmd_oracle_check(args) -> int:
    if args.instances < 0:
        raise StageError("selection", f"--instances must be >= 0, got {args.instances}")
    _check_seed(args, "selection")
    report = run_oracle_checks(n_instances=args.instances, seed=args.seed)
    print(report.summary())
    for msg in report.messages:
        print("  " + msg)
    return 0 if report.n_failed == 0 else 1


def _add_common(p):
    p.add_argument("--dataset", help="CSV path, or 'toy' for the embedded table")
    p.add_argument("--target", help="target column name")
    p.add_argument("--xor", action="store_true",
                   help="use the synthetic parity benchmark generator instead of a file")
    p.add_argument("--k", type=int, help="number of features to select (default min(50, D))")
    p.add_argument("--bins", type=int, default=5, help="equal-width bins (default 5)")
    p.add_argument("--estimator", choices=("plugin", "shrinkage"), default="plugin")
    p.add_argument("--n", type=int, help="fixed search order (high-order criterion)")
    p.add_argument("--epsilon", type=float, default=Criterion.epsilon_star,
                   help="adaptive stopping threshold (default %(default)s)")
    p.add_argument("--nmax", type=int, default=Criterion.n_max,
                   help="order cap (default %(default)s)")
    p.add_argument("--beta", type=float, help="MIFS redundancy weight")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the result to this path")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="infosel",
                                 description="Information-theoretic feature selection "
                                             "over discretized tabular data")
    ap.add_argument("--version", action="version", version=f"infosel {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("select", help="rank features on one dataset")
    _add_common(ps)
    ps.add_argument("--criterion", default="hocmim",
                    help="criterion name (e.g. mim, mrmr, jmi, cmim, hocmim, hocmim-n2)")
    ps.add_argument("--traces", help="write the full redundancy-trace dump to this path")
    ps.set_defaults(func=cmd_select)

    pb = sub.add_parser("benchmark", help="repeated-holdout KNN comparison of criteria")
    _add_common(pb)
    pb.add_argument("--criterion", action="append",
                    help="criterion name; repeat or comma-separate for several")
    pb.add_argument("--repeats", type=int, default=SplitSpec.n_repeats,
                    help="number of splits (default %(default)s)")
    pb.add_argument("--train-fraction", type=float, default=SplitSpec.train_fraction,
                    help="fraction of the rows in each split's training side "
                         "(default %(default)s)")
    pb.add_argument("--knn-k", type=int, default=3)
    pb.set_defaults(func=cmd_benchmark)

    pt = sub.add_parser("toy", help="check the embedded demonstration table end to end")
    pt.set_defaults(func=cmd_toy)

    po = sub.add_parser("oracle-check", help="run the brute-force equivalence suites")
    po.add_argument("--instances", type=int, default=100)
    po.add_argument("--seed", type=int, default=0)
    po.set_defaults(func=cmd_oracle_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as e:
        print(f"infosel: {e.stage}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
