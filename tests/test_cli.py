import json
import hashlib

import pytest

from infosel.cli import main
from infosel.data import write_toy_csv
from infosel.oracle import run_oracle_checks


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    write_toy_csv(path)
    return str(path)


class TestSelect:
    def test_hocmim_fixed_two_on_toy(self, toy_csv, capsys, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["select", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "hocmim", "--n", "2", "--k", "5",
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        order = [ln.split()[1] for ln in printed.strip().splitlines()[1:]]
        assert order == ["X3", "X2", "X4", "X1", "X5"]
        saved = json.loads(out.read_text())
        assert saved["names"] == order

    def test_mim_k1_picks_x3(self, toy_csv, capsys):
        rc = main(["select", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "mim", "--k", "1"])
        assert rc == 0
        assert "X3" in capsys.readouterr().out

    def test_embedded_toy_source(self, capsys):
        rc = main(["select", "--dataset", "toy", "--criterion", "cmim", "--k", "2"])
        assert rc == 0

    def test_unknown_criterion_fails(self, toy_csv, capsys):
        rc = main(["select", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "gini"])
        assert rc != 0
        assert "selection" in capsys.readouterr().err

    def test_missing_file_names_load_stage(self, capsys):
        rc = main(["select", "--dataset", "/nope.csv", "--target", "Y"])
        assert rc != 0
        assert "load" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b"A,Y\n1,0\ncaf\xe9,1\n", "'utf-8' codec can't decode byte 0xe9"),
        (b"A,Y\n" + b"x" * 131073 + b",0\n1,1\n", "field larger than field limit"),
    ], ids=["latin-1", "oversized-cell"])
    def test_unreadable_file_fails_in_load(self, tmp_path, capsys, content, message):
        # both once escaped the command line as a traceback
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        rc = main(["select", "--dataset", str(path), "--target", "Y"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"infosel: load: {message}")

    def test_infinite_beta_fails_in_selection(self, toy_csv, capsys):
        # MIFS once scored -inf or NaN, and the lowest index won every step
        rc = main(["select", "--dataset", toy_csv, "--target", "Y", "--criterion", "mifs",
                   "--beta", "inf"])
        assert rc == 1
        assert capsys.readouterr().err == "infosel: selection: beta must be finite and >= 0\n"

    def test_overflowing_range_fails_in_binning(self, tmp_path, capsys):
        # the column once binned to arity 1 and the run exited 0
        path = tmp_path / "wide.csv"
        path.write_text("A,Y\n-1e308,0\n0,1\n1e308,0\n")
        rc = main(["select", "--dataset", str(path), "--target", "Y",
                   "--criterion", "mim", "--k", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("infosel: binning: column 'A'")

    def test_collapsing_cut_points_fail_in_binning(self, tmp_path, capsys):
        # both values once fell into one bin, and the run exited 0
        path = tmp_path / "narrow.csv"
        path.write_text("A,Y\n1.0,0\n1.0000000000000002,1\n")
        rc = main(["select", "--dataset", str(path), "--target", "Y",
                   "--criterion", "mim", "--k", "1", "--bins", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("infosel: binning: column 'A': range") and "too narrow" in err

    def test_gamma_rejected(self, toy_csv, capsys):
        # the free-weight family is API-only, so --gamma is an unknown flag
        with pytest.raises(SystemExit):
            main(["select", "--dataset", toy_csv, "--target", "Y",
                  "--criterion", "jmi", "--gamma", "0.5"])

    def test_k_zero_fails_in_selection(self, toy_csv, capsys):
        rc = main(["select", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "mim", "--k", "0"])
        assert rc != 0
        assert "selection" in capsys.readouterr().err

    def test_duplicate_header_names_load_stage(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("A,A,Y\n0,1,0\n1,1,1\n")
        rc = main(["select", "--dataset", str(path), "--target", "Y",
                   "--criterion", "mim", "--k", "2"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "load" in err and "'A'" in err

    def test_xor_with_dataset_fails_in_load(self, capsys):
        # --xor once won silently and ranked the parity table
        rc = main(["select", "--xor", "--dataset", "/nonexistent.csv", "--target", "Y",
                   "--criterion", "mim", "--k", "2"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "load" in err and "--xor" in err and "--dataset" in err

    @pytest.mark.parametrize("source", [["--dataset", "toy"], ["--xor"]], ids=["toy", "xor"])
    def test_target_other_than_y_with_builtin_table_fails_in_load(self, source, capsys):
        # --target was once ignored here and the run ranked against Y
        rc = main(["select", *source, "--target", "Z", "--criterion", "mim", "--k", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("infosel: load: --target 'Z'")
        assert main(["select", *source, "--target", "Y", "--criterion", "mim", "--k", "2"]) == 0

    def test_inline_order_with_n_fails_in_selection(self, toy_csv, capsys):
        rc = main(["select", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "hocmim-n2", "--n", "3", "--k", "5"])
        assert rc != 0
        assert "selection" in capsys.readouterr().err

    def test_out_of_range_epsilon_nmax_fail_for_any_kind(self, toy_csv, capsys):
        rc = main(["select", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "mim", "--epsilon", "5", "--nmax", "0", "--k", "2"])
        assert rc != 0
        assert "selection" in capsys.readouterr().err

    def test_beta_for_a_kind_without_it_fails(self, toy_csv, capsys):
        rc = main(["select", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "mim", "--beta", "0.5", "--k", "2"])
        assert rc != 0
        assert "selection" in capsys.readouterr().err

    def test_csv_format_and_traces(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "r.csv"
        traces = tmp_path / "t.json"
        rc = main(["select", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "hocmim", "--k", "3",
                   "--out", str(out), "--format", "csv",
                   "--traces", str(traces)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "rank,feature"
        dump = json.loads(traces.read_text())
        assert len(dump["steps"]) == 3

    def test_text_format(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "r.txt"
        rc = main(["select", "--dataset", toy_csv, "--target", "Y", "--criterion", "mim",
                   "--k", "2", "--out", str(out), "--format", "text"])
        assert rc == 0
        assert out.read_text().splitlines() == [
            "criterion: mim", "total MI terms: 9", "rank  feature  score  step_mi_calls",
            "1  X3  0.256426  5", "2  X5  0.170951  4"]

    def test_out_into_missing_directory_fails_in_write(self, toy_csv, tmp_path, capsys):
        rc = main(["select", "--dataset", toy_csv, "--target", "Y", "--criterion", "mim",
                   "--k", "2", "--out", str(tmp_path / "missing" / "r.json")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("# ")        # the ranking printed before the write
        assert captured.err.startswith("infosel: write: ")

    @pytest.mark.parametrize("argv, message", [
        (["--criterion", "mim"], "no dataset given"),
        (["--dataset", "data.csv", "--criterion", "mim"], "--target is required with --dataset"),
    ], ids=["no-dataset", "no-target"])
    def test_missing_source_fails_in_load(self, argv, message, capsys):
        rc = main(["select", *argv])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"infosel: load: {message}")


class TestBenchmark:
    def test_deterministic_outputs(self, toy_csv, tmp_path, capsys):
        digests = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["benchmark", "--dataset", toy_csv, "--target", "Y",
                       "--criterion", "mim,hocmim-n2", "--repeats", "5",
                       "--seed", "7", "--k", "4", "--out", str(out)])
            assert rc == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_zero_repeats_rejected(self, toy_csv, capsys):
        rc = main(["benchmark", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "mim,cmim", "--repeats", "0"])
        assert rc != 0

    def test_k_zero_fails_in_selection(self, toy_csv, capsys):
        rc = main(["benchmark", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "mim,cmim", "--repeats", "2", "--k", "0"])
        assert rc != 0
        assert "selection" in capsys.readouterr().err

    @pytest.mark.parametrize("knn_k", ["0", "-3"])
    def test_knn_k_below_one_fails_in_selection(self, knn_k, capsys):
        rc = main(["benchmark", "--xor", "--criterion", "mim,cmim", "--knn-k", knn_k,
                   "--repeats", "2", "--k", "2"])
        assert rc != 0
        captured = capsys.readouterr()
        assert "selection" in captured.err and "k must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fraction", ["nan", "inf"])
    def test_non_finite_train_fraction_fails_in_selection(self, toy_csv, fraction, capsys):
        # inf once escaped as an OverflowError traceback
        rc = main(["benchmark", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "mim,cmim", "--repeats", "2", "--k", "2",
                   "--train-fraction", fraction])
        assert rc != 0
        err = capsys.readouterr().err
        assert "selection" in err and "is not finite" in err

    @pytest.mark.parametrize("rows, flags, message", [
        ("0,0\n1,1\n", ["--bins", "0"], "n_bins must be >= 1"),
        ("0,0\n1,1.5\n0,1\n1,0\n", [], "target column must be categorical"),
        ("-1e308,0\n0,1\n1e308,0\n1,1\n", [], "column 'A': range"),
    ], ids=["bins-zero", "fractional-target", "overflowing-range"])
    def test_binning_errors_name_the_binning_stage(self, tmp_path, capsys, rows, flags,
                                                   message):
        # these once surfaced from inside benchmark() as selection errors
        path = tmp_path / "t.csv"
        path.write_text("A,Y\n" + rows)
        rc = main(["benchmark", "--dataset", str(path), "--target", "Y",
                   "--criterion", "mim,cmim", "--repeats", "2", "--k", "1", *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("infosel: binning: ") and message in err

    def test_empty_split_side_stays_in_selection(self, capsys):
        rc = main(["benchmark", "--dataset", "toy", "--criterion", "mim,cmim",
                   "--repeats", "2", "--k", "2", "--train-fraction", "0.01"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("infosel: selection: train fraction")

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_too_narrow_training_half_fails_in_binning(self, tmp_path, capsys, seed):
        # all rows cut fine, but at these seeds a training half holds only the two
        # close values of A; that once surfaced as a selection error
        path = tmp_path / "t.csv"
        path.write_text("A,B,Y\n1.0,0,0\n1.0000000000000002,1,1\n5.0,0,1\n5.0,1,0\n")
        rc = main(["benchmark", "--dataset", str(path), "--target", "Y",
                   "--criterion", "mim,cmim", "--repeats", "3", "--k", "1", "--seed", seed])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("infosel: binning: column 'A': range") and "too narrow" in err

    def test_single_criterion_rejected(self, toy_csv, capsys):
        rc = main(["benchmark", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", "mim", "--repeats", "2"])
        assert rc != 0

    @pytest.mark.parametrize("names, flag, value, label", [
        ("mifs,mim", "--beta", "0.5", "mifs-b0.5"),
        ("hocmim,mim", "--n", "2", "hocmim-n2"),
    ])
    def test_flag_goes_to_kinds_that_take_it(self, toy_csv, capsys, names, flag, value, label):
        rc = main(["benchmark", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", names, flag, value, "--repeats", "2", "--k", "2"])
        assert rc == 0
        rows = [ln.split()[0] for ln in capsys.readouterr().out.splitlines() if ln]
        assert label in rows and "mim" in rows

    @pytest.mark.parametrize("names, flag", [("cmim,mim", "--n"), ("jmi,mim", "--beta"),
                                             ("hocmim-n2,mim", "--n")])
    def test_flag_no_kind_can_take_fails(self, toy_csv, capsys, names, flag):
        rc = main(["benchmark", "--dataset", toy_csv, "--target", "Y",
                   "--criterion", names, flag, "2", "--repeats", "2", "--k", "2"])
        assert rc != 0
        assert "selection" in capsys.readouterr().err

    def test_xor_source(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["benchmark", "--xor", "--criterion", "mim,hocmim",
                   "--repeats", "2", "--k", "4", "--seed", "3",
                   "--out", str(out), "--format", "csv"])
        assert rc == 0
        assert out.read_text().startswith("criterion,")


class TestToy:
    def test_runs_clean(self, capsys):
        rc = main(["toy"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "FAIL" not in out.replace("FAILURES", "")
        assert "rounding slip" in out


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        rc = main(["oracle-check", "--instances", "10", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 failed" in out.splitlines()[-1]

    def test_negative_instances_fail(self, capsys):
        # a negative count once ran no random instance and exited 0
        rc = main(["oracle-check", "--instances", "-3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "--instances" in captured.err and captured.out == ""
        with pytest.raises(ValueError, match="n_instances must be >= 0, got -3"):
            run_oracle_checks(n_instances=-3)
        # zero runs only the constructed cases
        assert main(["oracle-check", "--instances", "0"]) == 0
        assert "0 failed" in capsys.readouterr().out.splitlines()[-1]

    @pytest.mark.parametrize("args, message", [
        ({"n_instances": 2.5}, "^n_instances must be an int, got 2.5$"),
        ({"n_instances": True}, "^n_instances must be an int, got True$"),
        ({"n_instances": 0, "seed": 1.5}, "^seed must be an int, got 1.5$"),
        ({"n_instances": 0, "seed": -1}, "^seed must be >= 0, got -1$"),
    ], ids=["float-instances", "bool-instances", "float-seed", "negative-seed"])
    def test_counts_that_are_not_ints_rejected(self, args, message):
        # 2.5 instances once raised a bare TypeError from range, and seed -1
        # numpy's SeedSequence error
        with pytest.raises(ValueError, match=message):
            run_oracle_checks(**args)


@pytest.mark.parametrize("argv, stage", [
    (["select", "--xor"], "load"),
    (["benchmark", "--xor", "--criterion", "mim,cmim"], "load"),
    (["benchmark", "--dataset", "toy", "--criterion", "mim,cmim", "--repeats", "2"],
     "selection"),
    (["select", "--dataset", "toy"], "selection"),
    (["oracle-check"], "selection"),
], ids=["select-xor", "benchmark-xor", "benchmark-dataset", "select-dataset",
        "oracle-check"])
def test_negative_seed_fails(capsys, argv, stage):
    # numpy's "expected non-negative integer" once escaped as a traceback, and
    # select on a file accepted the seed it does not use
    rc = main([*argv, "--seed", "-1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"infosel: {stage}: --seed must be >= 0, got -1\n"
    assert captured.out == ""
