import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infosel
from infosel.criteria import CRITERIA, Criterion, score_cmim
from infosel.data import DiscreteDataset, toy_dataset
from infosel.estimators import TARGET, EstimatorContext
from infosel.hocmim import (STOP_EXHAUSTED, STOP_ORDER_LIMIT, STOP_THRESHOLD,
                            hocmim_score)
from infosel.oracle import _exhaustive_score, _total_redundancy, random_dataset
from infosel.selection import run_sfs

from util import columns, random_ds, ref_cmi, ref_mi

TOL = 1e-9


@pytest.fixture
def ctx():
    return EstimatorContext(toy_dataset())


def random_ctx(rng, d=5, n=40, arity=3):
    return EstimatorContext(random_ds(rng, d, n, arity))


def duplicated_ctx(seed=0, n=36):
    rng = np.random.default_rng(seed)
    col = rng.integers(0, 2, n)
    other = rng.integers(0, 2, n)
    target = rng.integers(0, 2, n)
    target[:2] = [0, 1]
    ds = DiscreteDataset(np.column_stack([col, col, other]).astype(np.int64),
                         (2, 2, 2), target.astype(np.int64), 2, ("a", "a2", "b"))
    return EstimatorContext(ds)


class TestTotalRedundancy:
    def test_toy_second_iteration_values(self, ctx):
        assert _total_redundancy(ctx, 1, [2]) == pytest.approx(-0.143574, abs=1e-5)
        assert _total_redundancy(ctx, 1, [2]) == pytest.approx(-0.14, abs=0.005)
        # the printed 0.10 for this entry is a two-decimal rounding slip in
        # the source table; the exact plug-in value rounds to 0.11
        assert _total_redundancy(ctx, 4, [2]) == pytest.approx(0.105448, abs=1e-5)

    def test_duplicate_gives_relevance(self):
        c = duplicated_ctx()
        rel = c.mutual_information([0], [TARGET])
        assert _total_redundancy(c, 0, [1]) == pytest.approx(rel, abs=TOL)
        assert _total_redundancy(c, 0, [1, 2]) == pytest.approx(rel, abs=TOL)

    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ds = random_ds(rng, d=5, n=40)
            c = EstimatorContext(ds)
            z = [1, 3]
            want = ref_mi(columns(ds, [0]), columns(ds, z)) - \
                ref_cmi(columns(ds, [0]), columns(ds, z), columns(ds, [-1]))
            assert _total_redundancy(c, 0, z) == pytest.approx(want, abs=TOL)


class TestGreedySearch:
    def test_toy_pair_exhausts_s(self, ctx):
        tr = hocmim_score(ctx, 3, [1, 2], Criterion("hocmim", n=2))[1]
        assert sorted(tr.z) == [1, 2]
        assert tr.redundancy == pytest.approx(-0.243220, abs=1e-5)
        assert tr.redundancy == pytest.approx(-0.24, abs=0.005)
        assert tr.stop_reason == STOP_EXHAUSTED

    def test_duplicate_stops_at_threshold(self):
        c = duplicated_ctx()
        rel = c.mutual_information([0], [TARGET])
        tr = hocmim_score(c, 0, [1, 2], Criterion("hocmim"))[1]
        assert tr.stop_reason == STOP_THRESHOLD
        assert tr.z == [1]
        assert tr.redundancy == pytest.approx(rel, abs=TOL)
        assert tr.redundancy <= rel + TOL

    def test_full_order_telescopes_to_total_redundancy(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            c = random_ctx(rng, d=int(rng.integers(3, 7)))
            S = list(range(1, c.n_features))
            tr = hocmim_score(c, 0, S, Criterion("hocmim", n=len(S)))[1]
            assert tr.redundancy == pytest.approx(_total_redundancy(c, 0, S), abs=TOL)

    def test_chain_sum_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            c = random_ctx(rng)
            tr = hocmim_score(c, 0, [1, 2, 3], Criterion("hocmim", n=2))[1]
            assert sum(tr.increments) == pytest.approx(tr.redundancy, abs=TOL)
            # the telescoped increments against the redundancy of Z computed in one go
            assert sum(tr.increments) == pytest.approx(_total_redundancy(c, 0, tr.z), abs=TOL)
            assert len(tr.z) == len(set(tr.z)) == len(tr.increments)

    def test_order_limit_stop(self, ctx):
        tr = hocmim_score(ctx, 0, [1, 2, 3], Criterion("hocmim", n=2))[1]
        assert tr.stop_reason == STOP_ORDER_LIMIT
        assert len(tr.z) == 2

    def test_fixed_order_above_s_size_exhausts(self, ctx):
        ctx.reset_and_read_counter()
        tr = hocmim_score(ctx, 0, [1, 2], Criterion("hocmim", n=4))[1]
        assert sorted(tr.z) == [1, 2]
        assert tr.stop_reason == STOP_EXHAUSTED
        # fixed mode always performs n sweeps over all of S: the relevance
        # term plus 4 * 4 * 2 terms, the row's 1 + 4 * n * |S|
        assert ctx.reset_and_read_counter() == 33

    def test_zero_relevance_runs_to_exhaustion(self):
        # constant candidate: relevance is exactly 0, the normalized stopping
        # rule is skipped and the search exhausts S
        rng = np.random.default_rng(4)
        codes = np.column_stack([np.zeros(30, np.int64),
                                 rng.integers(0, 2, 30),
                                 rng.integers(0, 2, 30)])
        target = rng.integers(0, 2, 30).astype(np.int64)
        target[:2] = [0, 1]
        ds = DiscreteDataset(codes.astype(np.int64), (1, 2, 2), target, 2,
                             ("z", "a", "b"))
        c = EstimatorContext(ds)
        assert c.mutual_information([0], [TARGET]) == 0.0
        tr = hocmim_score(c, 0, [1, 2], Criterion("hocmim"))[1]
        assert tr.stop_reason == STOP_EXHAUSTED
        assert sorted(tr.z) == [1, 2]


@pytest.mark.parametrize("search", [
    lambda c, k, S: Criterion("hocmim", n=1).score(c, k, S),
    lambda c, k, S: Criterion("hocmim").score(c, k, S),
], ids=["greedy", "score"])
def test_selected_candidate_rejected(ctx, search):
    with pytest.raises(ValueError, match="^candidate 2 already selected$"):
        search(ctx, 2, [1, 2])


class TestScores:
    def test_toy_third_iteration(self, ctx):
        score, tr = hocmim_score(ctx, 3, [1, 2], Criterion("hocmim", n=2))
        assert score == pytest.approx(0.249022, abs=1e-5)
        assert score == pytest.approx(0.25, abs=0.005)

    def test_toy_fourth_iteration_order_two(self, ctx):
        s1, _ = hocmim_score(ctx, 0, [1, 2, 3], Criterion("hocmim", n=2))
        s5, _ = hocmim_score(ctx, 4, [1, 2, 3], Criterion("hocmim", n=2))
        assert s1 == pytest.approx(0.085475, abs=1e-5)
        assert s1 == pytest.approx(0.09, abs=0.005)
        assert s5 == pytest.approx(0.049022, abs=1e-5)
        assert s1 > s5

    def test_empty_s_gives_relevance_and_empty_trace(self, ctx):
        # adaptive mode runs no sweep, fixed mode n sweeps over an empty pool:
        # either way the relevance is the one MI term asked for
        for criterion in (Criterion("hocmim"), Criterion("hocmim", n=3)):
            score, tr = hocmim_score(ctx, 2, [], criterion)
            assert ctx.reset_and_read_counter() == 1
            assert score == pytest.approx(0.256426, abs=1e-5)
            assert tr.z == [] and tr.redundancy == 0.0 and tr.order == 0
            assert tr.stop_reason == STOP_EXHAUSTED

    def test_trace_order_is_the_representative_set_size(self, ctx):
        # the order the search reached, as the benchmark's tracer reads it
        for n in (1, 2):
            _, tr = hocmim_score(ctx, 3, [1, 2], Criterion("hocmim", n=n))
            assert tr.order == len(tr.z) == n

    def test_duplicate_candidate_scores_zero(self):
        c = duplicated_ctx()
        score, _ = hocmim_score(c, 0, [1, 2], Criterion("hocmim"))
        assert abs(score) <= TOL


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5, None]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_call_costs_the_rows_mi_terms(seed, n):
    """One hocmim_score call asks for exactly the criterion row's ``calls`` MI
    terms in fixed mode, and at most that many in adaptive mode, S empty too."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng)
    k = int(rng.integers(0, ds.n_features))
    rest = [j for j in range(ds.n_features) if j != k]
    S = rng.permutation(rest)[:rng.integers(0, len(rest) + 1)].tolist()
    c = EstimatorContext(ds)
    criterion = Criterion("hocmim", n=n)
    hocmim_score(c, k, S, criterion)
    used, row = c.reset_and_read_counter(), CRITERIA["hocmim"].calls(criterion, len(S))
    if criterion.adaptive:
        assert used <= row
    else:
        assert used == row


class TestExhaustive:
    def test_order_one_equals_cmim(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = random_ctx(rng)
            S = [1, 2, 4]
            assert _exhaustive_score(c, 0, S, 1) == pytest.approx(
                score_cmim(c, 0, S), abs=TOL)

    def test_full_order_equals_exact_cmi(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            c = random_ctx(rng)
            S = [1, 2, 3]
            want = c.conditional_mutual_information([0], [TARGET], S)
            assert _exhaustive_score(c, 0, S, len(S)) == pytest.approx(want, abs=TOL)

    def test_exhaustive_score_bounds_greedy_from_below(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            c = random_ctx(rng, d=int(rng.integers(4, 7)), n=48)
            S = list(range(1, c.n_features))
            n = int(rng.integers(1, len(S) + 1))
            exh = _exhaustive_score(c, 0, S, n)
            greedy, _ = hocmim_score(c, 0, S, Criterion("hocmim", n=n))
            assert exh <= greedy + TOL


class TestRunHocmim:
    """High-order selection runs through run_sfs like every other criterion."""

    @pytest.mark.parametrize("n,expected", [
        (1, ("X3", "X2", "X4", "X5", "X1")),
        (2, ("X3", "X2", "X4", "X1", "X5")),
        (3, ("X3", "X2", "X4", "X1", "X5")),
    ])
    def test_toy_golden_ranks(self, n, expected):
        res = run_sfs(toy_dataset(), Criterion("hocmim", n=n), 5)
        assert tuple(res.names) == expected

    def test_deterministic_including_traces(self):
        ds = toy_dataset()
        a = run_sfs(ds, Criterion("hocmim"), 5)
        b = run_sfs(ds, Criterion("hocmim"), 5)
        assert a.order == b.order and a.scores == b.scores
        assert [t.to_dict() if t else None for t in a.step_traces] == \
            [t.to_dict() if t else None for t in b.step_traces]

    def test_adaptive_defaults_run(self):
        res = run_sfs(toy_dataset(), Criterion("hocmim"), 5)
        assert len(res.order) == 5
        assert res.criterion == "hocmim"


def test_params_validation():
    with pytest.raises(ValueError):
        Criterion("hocmim", n=0)
    with pytest.raises(ValueError):
        Criterion("hocmim", n=16, n_max=15)
    with pytest.raises(ValueError):
        Criterion("hocmim", epsilon_star=-0.1)
    assert Criterion("hocmim").adaptive
    assert not Criterion("hocmim", n=3).adaptive
    with pytest.raises(TypeError):
        Criterion("hocmim", adaptive=True)     # derived from n, not a field


def test_every_public_name_resolves():
    for name in infosel.__all__:
        assert getattr(infosel, name) is not None, name
