import numpy as np
import pytest

from infosel.criteria import (KINDS, Criterion, CriterionError, parse_criterion,
                              score_cmim, score_disr,
                              score_generic, score_jmi_high, score_relax_mrmr)
from infosel.data import DiscreteDataset, toy_dataset
from infosel.estimators import TARGET, EstimatorContext
from infosel.hocmim import hocmim_score

from util import columns, random_ds, ref_cmi, ref_entropy, ref_mi

TOL = 1e-9


@pytest.fixture
def ctx():
    return EstimatorContext(toy_dataset())


def random_ctx(rng, d=5, n=40):
    return EstimatorContext(random_ds(rng, d, n))


def jmi_score(ctx, k, S):
    return Criterion("jmi").score(ctx, k, S)[0]


@pytest.mark.parametrize("name", KINDS + ("hocmim-n2",))
def test_numpy_integer_indices_score_as_ints(name):
    # on toy, and on 70 features, where a mask bit past feature 62 would
    # wrap in an int64
    criterion = parse_criterion(name)
    wide = random_ds(np.random.default_rng(11), d=70, n=24)
    for ds, k, S in ((toy_dataset(), 3, [1, 2]), (wide, 66, [5, 63, 64, 69])):
        want, want_tr = criterion.score(EstimatorContext(ds), k, S)
        got, got_tr = criterion.score(EstimatorContext(ds), np.int64(k), list(np.array(S)))
        assert got == want
        assert (got_tr and got_tr.to_dict()) == (want_tr and want_tr.to_dict())


@pytest.mark.parametrize("name", KINDS + ("hocmim-n2",))
def test_repeated_member_of_s_rejected(ctx, name):
    # [1, 2, 2] once scored as a set other than [1, 2]: mifs counted feature
    # 2's redundancy twice and hocmim swept it twice
    criterion = parse_criterion(name)
    with pytest.raises(ValueError, match=r"^selected set \[1, 2, 2\] repeats a feature$"):
        criterion.score(ctx, 0, [1, 2, 2])
    if criterion.kind == "hocmim":
        with pytest.raises(ValueError, match=r"^selected set \[1, 2, 2\] repeats a feature$"):
            hocmim_score(ctx, 0, [2, 1, np.int64(2)], criterion)


class TestGeneric:
    def test_empty_s_is_relevance(self, ctx):
        for beta, gamma in ((0, 0), (1, 0), (0.5, 2)):
            assert score_generic(ctx, 2, [], beta, gamma) == pytest.approx(
                0.256426, abs=1e-5)

    def test_zero_weights_give_mim(self, ctx):
        for S in ([0], [0, 1], [0, 1, 3]):
            assert score_generic(ctx, 4, S, 0.0, 0.0) == pytest.approx(
                ctx.mutual_information([4], [TARGET]), abs=TOL)

    def test_toy_x2_given_x3_unit_weights(self, ctx):
        # equals I(X2;Y) - R1(X2,{X3},Y) since |S| = 1
        assert score_generic(ctx, 1, [2], 1.0, 1.0) == pytest.approx(0.190013, abs=1e-5)
        assert score_generic(ctx, 1, [2], 1.0, 1.0) == pytest.approx(0.19, abs=0.005)

    def test_candidate_in_s_rejected(self, ctx):
        for kind in KINDS:
            with pytest.raises(ValueError):
                Criterion(kind).score(ctx, 2, [2])

    def test_matches_reference_sum(self):
        rng = np.random.default_rng(0)
        ds = random_ds(rng, d=5, n=40)
        c = EstimatorContext(ds)
        k, S, beta, gamma = 0, [1, 3], 0.7, 0.3
        want = ref_mi(columns(ds, [k]), columns(ds, [-1]))
        want -= beta * sum(ref_mi(columns(ds, [j]), columns(ds, [k])) for j in S)
        want += gamma * sum(ref_cmi(columns(ds, [j]), columns(ds, [k]),
                                    columns(ds, [-1])) for j in S)
        assert score_generic(c, k, S, beta, gamma) == pytest.approx(want, abs=TOL)


class TestPresets:
    def test_mrmr_averages_redundancy(self, ctx):
        k, S = 4, [1, 2]
        want = ctx.mutual_information([k], [TARGET]) - 0.5 * (
            ctx.mutual_information([1], [k]) + ctx.mutual_information([2], [k]))
        assert Criterion("mrmr").score(ctx, k, S) == (pytest.approx(want, abs=TOL), None)

    def test_jmi_averages_both_terms(self, ctx):
        k, S = 4, [1, 2]
        assert Criterion("jmi").score(ctx, k, S) == (pytest.approx(
            score_generic(ctx, k, S, 0.5, 0.5), abs=TOL), None)


class TestDisr:
    def test_empty_s_fallback(self, ctx):
        assert score_disr(ctx, 2, []) == pytest.approx(0.256426, abs=1e-5)

    def test_toy_term_matches_reference(self, ctx):
        ds = toy_dataset()
        want = ref_mi(columns(ds, [1, 2]), columns(ds, [-1])) / \
            ref_entropy(*columns(ds, [1, 2, -1]))
        assert score_disr(ctx, 1, [2]) == pytest.approx(want, abs=TOL)

    def test_zero_entropy_term_contributes_zero(self):
        codes = np.zeros((6, 2), np.int64)
        target = np.zeros(6, np.int64)
        ds = DiscreteDataset(codes, (1, 1), target, 1, ("a", "b"))
        c = EstimatorContext(ds)
        assert score_disr(c, 0, [1]) == 0.0


class TestCmim:
    def test_toy_single_conditioner(self, ctx):
        assert score_cmim(ctx, 1, [2]) == pytest.approx(0.190013, abs=1e-5)

    def test_duplicate_in_s_zeroes_score(self):
        rng = np.random.default_rng(1)
        col = rng.integers(0, 2, 30)
        codes = np.column_stack([col, col, rng.integers(0, 2, 30)]).astype(np.int64)
        target = rng.integers(0, 2, 30).astype(np.int64)
        target[:2] = [0, 1]
        ds = DiscreteDataset(codes, (2, 2, 2), target, 2, ("a", "b", "c"))
        c = EstimatorContext(ds)
        assert score_cmim(c, 0, [1, 2]) == pytest.approx(0.0, abs=TOL)

    def test_equals_fixed_order_one_search(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            c = random_ctx(rng, d=5, n=32)
            k = int(rng.integers(0, 5))
            S = [j for j in range(5) if j != k][:int(rng.integers(1, 5))]
            got, _ = hocmim_score(c, k, S, Criterion("hocmim", n=1))
            assert got == pytest.approx(score_cmim(c, k, S), abs=TOL)


class TestRelaxMrmr:
    def test_small_s_equals_jmi(self, ctx):
        assert score_relax_mrmr(ctx, 4, []) == pytest.approx(
            jmi_score(ctx, 4, []), abs=TOL)
        assert score_relax_mrmr(ctx, 4, [2]) == pytest.approx(
            jmi_score(ctx, 4, [2]), abs=TOL)

    def test_toy_triple_sum_oracle(self, ctx):
        ds = toy_dataset()
        k, S = 0, [1, 2]
        want = jmi_score(ctx, k, S)
        eta = 1.0 / (2 * 1)
        want -= eta * sum(ref_cmi(columns(ds, [k]), columns(ds, [i]), columns(ds, [j]))
                          for j in S for i in S if i != j)
        assert score_relax_mrmr(ctx, k, S) == pytest.approx(want, abs=TOL)


class TestJmiHigh:
    def test_fallback_chain(self, ctx):
        assert score_jmi_high(ctx, 4, [2], 3) == pytest.approx(
            jmi_score(ctx, 4, [2]), abs=TOL)
        assert score_jmi_high(ctx, 4, [1, 2], 4) == pytest.approx(
            score_jmi_high(ctx, 4, [1, 2], 3), abs=TOL)
        assert score_jmi_high(ctx, 4, [], 3) == pytest.approx(
            ctx.mutual_information([4], [TARGET]), abs=TOL)

    def test_toy_ordered_pair_sum(self, ctx):
        # two ordered pairs of {X2,X3} contribute the same joint MI
        want = 2 * ctx.mutual_information([1, 2, 4], [TARGET])
        assert score_jmi_high(ctx, 4, [1, 2], 3) == pytest.approx(want, abs=TOL)

    def test_order_three_reference(self):
        rng = np.random.default_rng(3)
        ds = random_ds(rng, d=5, n=40)
        c = EstimatorContext(ds)
        k, S = 0, [1, 2, 4]
        want = sum(ref_mi(columns(ds, [j, i, k]), columns(ds, [-1]))
                   for j in S for i in S if i != j)
        assert score_jmi_high(c, k, S, 3) == pytest.approx(want, abs=TOL)


class TestCmimHigh:
    def test_fallback_chain(self, ctx):
        assert score_cmim(ctx, 4, [2], 3) == pytest.approx(
            score_cmim(ctx, 4, [2]), abs=TOL)
        assert score_cmim(ctx, 4, [1, 2], 4) == pytest.approx(
            score_cmim(ctx, 4, [1, 2], 3), abs=TOL)

    def test_toy_pair_conditioner(self, ctx):
        got = score_cmim(ctx, 3, [1, 2], 3)
        assert got == pytest.approx(0.249022, abs=1e-5)
        assert got == pytest.approx(0.25, abs=0.005)

    def test_order_chain_is_not_monotone(self, ctx):
        # conditioning on more variables can raise CMI, so the min over pair
        # conditioners may exceed the min over single conditioners; the parity
        # structure of the demonstration table exhibits exactly that
        k, S = 0, [1, 2, 3]
        c1 = score_cmim(ctx, k, S)
        c3 = score_cmim(ctx, k, S, 3)
        assert c1 == pytest.approx(0.049022, abs=1e-5)
        assert c3 == pytest.approx(0.085475, abs=1e-5)
        assert c3 > c1


class TestCriterionObject:
    def test_unknown_kind_rejected(self):
        with pytest.raises(CriterionError, match="unknown criterion"):
            Criterion(kind="fisher")

    def test_param_overrides_rejected_where_meaningless(self):
        with pytest.raises(CriterionError):
            Criterion(kind="cmim", beta=0.5)
        with pytest.raises(CriterionError):
            Criterion(kind="jmi", n=2)

    @pytest.mark.parametrize("beta", [float("inf"), float("-inf"), float("nan"), -0.5])
    def test_beta_must_be_finite_and_non_negative(self, beta):
        # beta = inf once made MIFS score -inf, or NaN where a candidate's
        # summed redundancy is 0
        with pytest.raises(CriterionError, match="beta must be finite and >= 0"):
            Criterion(kind="mifs", beta=beta)

    def test_hocmim_param_ranges(self):
        with pytest.raises(CriterionError):
            Criterion(kind="hocmim", n=20, n_max=15)
        with pytest.raises(CriterionError):
            Criterion(kind="hocmim", epsilon_star=1.5)

    def test_epsilon_and_nmax_checked_for_every_kind(self):
        for kind in KINDS:
            with pytest.raises(CriterionError, match="epsilon"):
                Criterion(kind=kind, epsilon_star=5.0)
            with pytest.raises(CriterionError, match="nmax"):
                Criterion(kind=kind, n_max=0)

    @pytest.mark.parametrize("field, value, message", [
        ("n", True, "^n must be an int, got True$"),
        ("n", 2.5, "^n must be an int, got 2.5$"),
        ("n", "2", "^n must be an int, got '2'$"),
        ("n_max", True, "^n_max must be an int, got True$"),
        ("n_max", 2.5, "^n_max must be an int, got 2.5$"),
        ("epsilon_star", "0.1", "^epsilon_star must be a real number, got '0.1'$"),
        ("epsilon_star", None, "^epsilon_star must be a real number, got None$"),
        ("epsilon_star", True, "^epsilon_star must be a real number, got True$"),
    ], ids=["bool-n", "float-n", "string-n", "bool-n_max", "float-n_max", "string-epsilon",
            "none-epsilon", "bool-epsilon"])
    def test_order_parameter_of_the_wrong_type_rejected(self, field, value, message):
        # n = True once ran as n = 1 under the label hocmim-nTrue, n = 2.5 and
        # n_max = 2.5 failed inside selection, and epsilon_star "0.1" raised a
        # bare TypeError from the range check
        with pytest.raises(CriterionError, match=message):
            Criterion(kind="hocmim", **{field: value})

    @pytest.mark.parametrize("beta", ["1", True, np.True_], ids=["string", "bool", "numpy-bool"])
    def test_beta_that_is_not_a_real_number_rejected(self, beta):
        with pytest.raises(CriterionError, match=f"^beta must be a real number, got {beta!r}$"):
            Criterion(kind="mifs", beta=beta)

    def test_numpy_numbers_accepted_as_plain_values(self):
        c = Criterion(kind="hocmim", n=np.int64(2), n_max=np.int32(4),
                      epsilon_star=np.float64(0.1))
        assert type(c.n) is int and type(c.n_max) is int
        assert c == Criterion(kind="hocmim", n=2, n_max=4, epsilon_star=0.1)
        assert c.label == "hocmim-n2"
        assert Criterion(kind="mifs", beta=np.float32(0.5)).label == "mifs-b0.5"

    def test_inline_order_conflicts_with_n(self):
        with pytest.raises(CriterionError, match="fixes the order"):
            parse_criterion("hocmim-n2", n=3)
        with pytest.raises(CriterionError, match="fixes the order"):
            parse_criterion("hocmim-n2", n=2)

    def test_parse_names_and_suffix(self):
        assert parse_criterion("cmim-3").kind == "cmim3"
        assert parse_criterion("JMI").kind == "jmi"
        c = parse_criterion("hocmim-n2")
        assert c.kind == "hocmim" and c.n == 2
        assert parse_criterion("hocmim").adaptive
        with pytest.raises(CriterionError):
            parse_criterion("hocmim-nx")
        with pytest.raises(CriterionError):
            parse_criterion("gini")

    @pytest.mark.parametrize("name", ["hocmim-n1_0", "hocmim-n+2", "hocmim-n 2",
                                      "hocmim-n٣"])
    def test_suffix_of_ascii_digits_only(self, name):
        # int() reads these as orders 10, 2, 2 and 3
        with pytest.raises(CriterionError, match="bad fixed-order suffix"):
            parse_criterion(name)

    def test_suffix_keeps_leading_zeros(self):
        assert parse_criterion("hocmim-n02").n == 2

    def test_labels(self):
        assert parse_criterion("hocmim-n2").label == "hocmim-n2"
        assert parse_criterion("mrmr").label == "mrmr"


def test_first_step_agreement_across_criteria():
    ds = toy_dataset()
    c = EstimatorContext(ds)
    rel = c.mutual_information([2], [TARGET])
    for name in KINDS + ("hocmim-n2",):
        crit = parse_criterion(name)
        assert crit.score(c, 2, [])[0] == pytest.approx(rel, abs=TOL), name
