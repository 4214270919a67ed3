import csv
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infosel import selection
from infosel.criteria import CRITERIA, KINDS, parse_criterion
from infosel.data import DiscreteDataset, toy_dataset
from infosel.estimators import TARGET, EstimatorContext
from infosel.oracle import random_dataset
from infosel.selection import predicted_mi_calls, run_sfs

from util import RefContext, RefCriterion


def fixed_order(name):
    """The table's criterion, with the high-order search at fixed order 2."""
    return parse_criterion(name, n=2 if name == "hocmim" else None)


class TestRunSfs:
    def test_toy_cmim_matches_order_one_search(self):
        ds = toy_dataset()
        cmim = run_sfs(ds, parse_criterion("cmim"), 5)
        hoc1 = run_sfs(ds, parse_criterion("hocmim", n=1), 5)
        assert cmim.order == hoc1.order == [2, 1, 3, 4, 0]

    def test_toy_mim_top_two(self):
        res = run_sfs(toy_dataset(), parse_criterion("mim"), 2)
        assert res.names == ["X3", "X5"]

    def test_full_k_is_permutation(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        res = run_sfs(ds, parse_criterion("jmi"), ds.n_features)
        assert sorted(res.order) == list(range(ds.n_features))

    def test_k_bounds(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            run_sfs(ds, parse_criterion("mim"), 0)
        with pytest.raises(ValueError):
            run_sfs(ds, parse_criterion("mim"), 6)

    def test_result_invariants(self):
        ds = toy_dataset()
        ctx = EstimatorContext(ds)
        res = run_sfs(ds, parse_criterion("jmi"), 4)
        assert len(set(res.order)) == 4
        assert res.total_mi_calls == sum(res.step_mi_calls)
        best_rel = max(ctx.mutual_information([j], [TARGET]) for j in range(5))
        assert res.scores[0] == pytest.approx(best_rel, abs=1e-12)

    @pytest.mark.parametrize("K", [2.5, True, np.True_, "2"],
                             ids=["float", "bool", "numpy-bool", "string"])
    def test_k_that_is_not_an_int_rejected(self, K):
        # 2.5 once selected 3 features, since the loop ran while fewer than K
        # were picked, and True selected 1
        with pytest.raises(ValueError, match=f"^K must be an int, got {K!r}$"):
            run_sfs(toy_dataset(), parse_criterion("mim"), K)

    def test_numpy_integer_k_accepted(self):
        got = run_sfs(toy_dataset(), parse_criterion("mim"), np.int64(3))
        assert got.order == run_sfs(toy_dataset(), parse_criterion("mim"), 3).order

    def test_row_restriction(self):
        ds = toy_dataset()
        res = run_sfs(ds.restrict(np.arange(6)), parse_criterion("mim"), 2)
        assert len(res.order) == 2


class TestPredictedCalls:
    def test_k_one_is_relevance_pass(self):
        for name in KINDS:
            assert predicted_mi_calls(fixed_order(name), 1, 7) == 7

    @pytest.mark.parametrize("name", KINDS)
    def test_baselines_exact_on_random_data(self, name):
        rng = np.random.default_rng(42)
        for _ in range(3):
            ds = random_dataset(rng, d_max=7, n_max=40)
            K = int(rng.integers(2, ds.n_features + 1))
            crit = fixed_order(name)
            res = run_sfs(ds, crit, K)
            assert res.total_mi_calls == predicted_mi_calls(crit, K, ds.n_features)

    def test_mifs_zero_beta_is_relevance_only(self):
        rng = np.random.default_rng(43)
        ds = random_dataset(rng, d_max=7, n_max=40)
        crit = parse_criterion("mifs", beta=0.0)
        res = run_sfs(ds, crit, ds.n_features)
        assert res.total_mi_calls == predicted_mi_calls(crit, ds.n_features, ds.n_features)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_fixed_order_search_exact(self, n):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, d_max=8, n_max=48)
        K = ds.n_features
        crit = parse_criterion("hocmim", n=n)
        res = run_sfs(ds, crit, K)
        assert res.total_mi_calls == predicted_mi_calls(crit, K, ds.n_features)

    def test_adaptive_bounded_by_cap(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, d_max=8, n_max=48)
        crit = parse_criterion("hocmim")
        res = run_sfs(ds, crit, ds.n_features)
        bound = predicted_mi_calls(crit, ds.n_features, ds.n_features)
        assert res.total_mi_calls <= bound

    def test_search_cost_linear_in_order(self):
        # instrumented totals: the greedy-search portion doubles exactly with
        # the order while the relevance portion stays fixed
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, d_max=10, n_max=32)
        D = ds.n_features
        K = min(6, D)
        rel = predicted_mi_calls(parse_criterion("mim"), K, D)
        totals = {}
        for n in (1, 2, 4):
            res = run_sfs(ds, parse_criterion("hocmim", n=n), K)
            totals[n] = res.total_mi_calls
        red = {n: totals[n] - rel for n in (1, 2, 4)}
        slope = red[2] - red[1]
        assert red[4] == red[1] + 3 * slope          # zero-residual affine fit
        assert red[2] == 2 * red[1]                  # search portion doubles
        assert totals[2] < 2 * totals[1]             # total grows sublinearly

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_per_step_counts_match_row(self, kind, data):
        # step s+1 scores the D-s remaining candidates at the row's cost each
        beta = data.draw(st.sampled_from([None, 0.0, 0.5])) if kind == "mifs" else None
        n = data.draw(st.integers(1, 6)) if kind == "hocmim" else None
        ds = random_dataset(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                            d_max=7, n_max=40)
        D = ds.n_features
        K = data.draw(st.integers(1, D))
        crit = parse_criterion(kind, beta=beta, n=n)
        res = run_sfs(ds, crit, K)
        assert res.step_mi_calls[0] == D
        for s in range(1, K):
            assert res.step_mi_calls[s] == (D - s) * CRITERIA[kind].calls(crit, s), s

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            predicted_mi_calls(parse_criterion("mim"), 0, 5)
        with pytest.raises(ValueError):
            predicted_mi_calls(parse_criterion("mim"), 6, 5)

    @pytest.mark.parametrize("K, D, message", [
        (2.5, 5, "K must be an int, got 2.5"),
        (True, 5, "K must be an int, got True"),
        (2, 5.0, "D must be an int, got 5.0"),
    ], ids=["float-k", "bool-k", "float-d"])
    def test_count_that_is_not_an_int_rejected(self, K, D, message):
        # 2.5 once raised a bare TypeError from range
        with pytest.raises(ValueError, match=f"^{message}$"):
            predicted_mi_calls(parse_criterion("cmim"), K, D)

    def test_numpy_integer_counts_accepted(self):
        crit = parse_criterion("cmim")
        assert predicted_mi_calls(crit, np.int64(3), np.int32(5)) == predicted_mi_calls(crit, 3, 5)

    def test_criterion_without_kind_rejected(self):
        with pytest.raises(ValueError, match="no call model for criterion"):
            predicted_mi_calls(object(), 2, 5)


class _Recording:
    """A criterion that logs (k, S, MI terms asked for) for every score call."""

    def __init__(self, criterion, log):
        self.criterion, self.log = criterion, log
        self.kind, self.label = criterion.kind, criterion.label

    def score(self, ctx, k, S):
        before = ctx.mi_calls
        out = self.criterion.score(ctx, k, S)
        self.log.append((k, tuple(S), ctx.mi_calls - before))
        return out


class TestMaskPathMatchesReference:
    """The mask-keyed estimator and scorers give what the list-keyed ones give, bit for bit."""

    @pytest.mark.parametrize("estimator", ["plugin", "shrinkage"])
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_run_sfs_matches_list_reference(self, kind, estimator, data):
        beta = data.draw(st.sampled_from([None, 0.0, 0.5])) if kind == "mifs" else None
        n = data.draw(st.sampled_from([None, 1, 2, 4])) if kind == "hocmim" else None
        eps = data.draw(st.sampled_from([0.0, 0.01, 0.3])) if kind == "hocmim" else 0.01
        ds = random_dataset(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                            d_max=7, n_max=40, arity_max=data.draw(st.integers(2, 5)))
        K = data.draw(st.integers(1, ds.n_features))
        crit = parse_criterion(kind, beta=beta, n=n, epsilon_star=eps)
        calls, ref_calls = [], []
        got = run_sfs(ds, _Recording(crit, calls), K, estimator=estimator,
                      collect_traces=True)
        with mock.patch.object(selection, "EstimatorContext", RefContext):
            want = run_sfs(ds, _Recording(RefCriterion(crit), ref_calls), K,
                           estimator=estimator, collect_traces=True)
        assert got.order == want.order
        assert got.scores == want.scores
        assert got.step_mi_calls == want.step_mi_calls
        assert calls == ref_calls
        assert got.traces_json() == want.traces_json()
        assert [t and t.to_dict() for t in got.step_traces] == \
            [t and t.to_dict() for t in want.step_traces]


@st.composite
def shuffled_pairs(draw):
    """A table in which some columns copy earlier ones under new labels, so
    that mathematically equal scores are common, and the same table with its
    rows permuted and every column's codes and the target's relabelled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(8, 48)), draw(st.integers(3, 6))
    arities = [int(a) for a in rng.integers(2, 5, size=d)]
    cols = [rng.integers(0, a, size=n) for a in arities]
    for j in range(1, d):
        if draw(st.booleans()):
            src = draw(st.integers(0, j - 1))
            arities[j] = arities[src]
            cols[j] = rng.permutation(arities[src])[cols[src]]
    n_classes = int(rng.integers(2, 4))
    target = rng.integers(0, n_classes, size=n)
    target[:n_classes] = np.arange(n_classes)
    ds = DiscreteDataset(np.column_stack(cols).astype(np.int64), tuple(arities),
                         target.astype(np.int64), n_classes, tuple(f"F{j}" for j in range(d)))
    rows = rng.permutation(n)
    codes = np.column_stack([rng.permutation(a)[c[rows]] for a, c in zip(arities, cols)])
    shuffled = DiscreteDataset(codes.astype(np.int64), tuple(arities),
                               rng.permutation(n_classes)[target[rows]].astype(np.int64),
                               n_classes, ds.feature_names)
    return ds, shuffled


class TestRowOrderInvariance:
    """Selections depend on the rows as a multiset, not on their order or code labels."""

    @pytest.mark.parametrize("estimator", ["plugin", "shrinkage"])
    @pytest.mark.parametrize("name", ["hocmim", "hocmim-n2", "cmim4", "jmi4"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=shuffled_pairs())
    def test_permuted_rows_and_relabelled_codes(self, name, estimator, pair):
        ds, shuffled = pair
        crit = parse_criterion(name, epsilon_star=0.3 if name == "hocmim" else 0.01)
        got = run_sfs(shuffled, crit, ds.n_features, estimator=estimator, collect_traces=True)
        want = run_sfs(ds, crit, ds.n_features, estimator=estimator, collect_traces=True)
        assert got.order == want.order
        assert got.scores == want.scores
        assert got.step_mi_calls == want.step_mi_calls
        assert got.traces_json() == want.traces_json()


class TestRankStability:
    def test_monotone_rescaling_keeps_order(self):
        class Scaled:
            kind = "custom"
            label = "scaled-jmi"

            def __init__(self, inner, factor):
                self.inner, self.factor = inner, factor

            def score(self, ctx, k, S):
                s, trace = self.inner.score(ctx, k, S)
                return self.factor * s, trace

        rng = np.random.default_rng(10)
        ds = random_dataset(rng)
        base = parse_criterion("jmi")
        plain = run_sfs(ds, base, ds.n_features)
        scaled = run_sfs(ds, Scaled(base, 2.5), ds.n_features)
        assert plain.order == scaled.order


class TestSerialization:
    def test_json_round_trip(self):
        res = run_sfs(toy_dataset(), parse_criterion("hocmim", n=2), 3)
        d = json.loads(res.to_json())
        assert d["order"] == res.order
        assert d["criterion"] == "hocmim-n2"
        assert len(d["step_traces"]) == 3

    def test_rank_csv(self):
        res = run_sfs(toy_dataset(), parse_criterion("mim"), 2)
        lines = res.to_rank_csv().strip().splitlines()
        assert lines[0] == "rank,feature"
        assert lines[1] == "1,X3"

    def test_rank_csv_quotes_names(self):
        # written bare, "a,b" would read back as three fields on its row
        names = ["a,b", 'say "hi"', "two\nlines", "plain"]
        res = run_sfs(toy_dataset(), parse_criterion("mim"), 4)
        res.names = names
        text = res.to_rank_csv()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows == [["rank", "feature"]] + [[str(i), n] for i, n in enumerate(names, 1)]
        assert text.endswith("4,plain\n")

    def test_trace_dump_requires_flag(self):
        res = run_sfs(toy_dataset(), parse_criterion("hocmim", n=1), 2)
        with pytest.raises(ValueError):
            res.traces_json()
        res = run_sfs(toy_dataset(), parse_criterion("hocmim", n=1), 2,
                      collect_traces=True)
        dump = json.loads(res.traces_json())
        assert len(dump["steps"]) == 2
        assert dump["steps"][0] == {}
