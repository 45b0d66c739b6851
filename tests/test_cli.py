"""Experiment driver: schemas, determinism, skips, fixtures, instance files."""

import csv
import os
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from disttest2p.cli import (
    COLUMNS,
    ExperimentConfig,
    _geomean,
    _parse_overrides,
    calibrate,
    fixture_from_text,
    fixture_to_text,
    main,
    make_params,
    rows_to_csv,
    run_experiment,
)
from disttest2p.harness import ConfigError

DATA = pathlib.Path(__file__).parent / "data"
README = pathlib.Path(__file__).parents[1] / "README.md"


def small_cfg(**kw):
    base = dict(protocol="closeness", ns=(200,), ts=(274,), epss=(1.0,),
                trials=2, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_accounting(self):
        rows = list(run_experiment(small_cfg(trials=1)))
        ok = [r for r in rows if r.status == "ok"]
        summaries = [r for r in rows if r.status == "summary"]
        assert len(ok) == 2  # same + far families
        assert len(summaries) == 2
        assert {r.family for r in ok} == {"same", "far"}

    def test_rerun_byte_identical(self):
        a = rows_to_csv(run_experiment(small_cfg()))
        b = rows_to_csv(run_experiment(small_cfg()))
        assert a == b

    def test_skipped_cell_reports_reason(self):
        rows = list(run_experiment(small_cfg(ts=(10,))))
        assert all(r.status == "skipped" for r in rows)
        assert "precondition" in rows[0].reason

    def test_schema_stable(self):
        text = rows_to_csv(run_experiment(small_cfg(trials=1)))
        header = text.splitlines()[0]
        assert header == ",".join(COLUMNS)

    def test_golden_file(self):
        # downstream parsers pin this exact output; regenerate deliberately
        # if the schema ever changes.  The one-way file also pins the
        # independence kernel and its wire format (its bits vary per row);
        # the secure file pins the secure reference's random streams (two
        # of its sixteen verdicts are wrong, so a new stream layout shows).
        goldens = {
            "golden_closeness.csv": ExperimentConfig(
                protocol="closeness", ns=(200,), ts=(274,), epss=(1.0,),
                trials=2, seed=424242),
            "golden_closeness_secure.csv": ExperimentConfig(
                protocol="closeness-secure", ns=(200,), ts=(1095,),
                epss=(1.0,), ks=(4,), trials=8, seed=424242),
            "golden_independence_oneway.csv": ExperimentConfig(
                protocol="independence-oneway", ns=(100,), ms=(100,),
                ts=(40000,), epss=(1.0,), ks=(2,), trials=2, seed=424242),
            "golden_independence.csv": ExperimentConfig(
                protocol="independence", ns=(20,), ms=(20,), ts=(8000,),
                epss=(1.0,), ks=(2,), trials=2, seed=424242),
        }
        for name, cfg in goldens.items():
            golden = DATA / name
            assert rows_to_csv(run_experiment(cfg)) == golden.read_text(), name

    def test_secure_bits_closed_form(self):
        # each params class states its cell's secure bits without a row run
        for name in ("golden_closeness_secure.csv", "golden_independence.csv"):
            with open(DATA / name, newline="") as fh:
                ok = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
            assert ok, name
            for row in ok:
                cell = {key: int(row[key]) for key in ("n", "m", "t", "k")}
                params = make_params(row["protocol"],
                                     {**cell, "eps": float(row["eps"])}, {})
                assert params.secure_bits == int(row["secure_bits"]), name

    def test_geomean_of_equal_values_is_exact(self):
        # a secure cell meters the same bits on every row
        for count in range(1, 25):
            assert _geomean([9065168172900] * count) == "9065168172900.0"

    def test_independence_lambda_column(self):
        cfg = ExperimentConfig(protocol="independence", ns=(20,), ms=(20,),
                               ts=(8000,), epss=(1.0,), ks=(2,), trials=1,
                               seed=3)
        ok = [r for r in run_experiment(cfg) if r.status == "ok"]
        assert all(float(r.lambda_mean) > 0 for r in ok)

    def test_hardgen_protocol_rows(self):
        cfg = ExperimentConfig(protocol="hardgen", ns=(2000,), ts=(62,),
                               epss=(0.5,), trials=2, seed=1,
                               overrides=dict(m=32, beta=8.0, l_big=62))
        ok = [r for r in run_experiment(cfg) if r.status == "ok"]
        assert len(ok) == 4
        assert {r.verdict for r in ok} <= {"SAME", "FAR"}


class TestFixtures:
    def test_roundtrip(self):
        constants = {"c_alpha": 0.0625, "c_split": 1.0}
        assert fixture_from_text(fixture_to_text(constants)) == constants

    @given(st.dictionaries(st.text("abcxyz_019", min_size=1, max_size=12),
                           st.floats(allow_nan=False, allow_infinity=False),
                           max_size=8))
    def test_roundtrip_property(self, constants):
        assert fixture_from_text(fixture_to_text(constants)) == constants

    def test_comment_lines_ignored(self):
        parsed = fixture_from_text("c_alpha,0.0625\n# rates,0.9,0.9\n")
        assert parsed == {"c_alpha": 0.0625}


HARDGEN = ["hardgen", "--n", "2000", "--t", "62", "--seed", "3"]
GHD_CONSTANTS = ["--set", "m=32", "--set", "beta=8", "--set", "l_big=62"]
SECURE = ["--n", "200", "--t", "1095", "--secure", "--k", "4"]
INDEPENDENCE = ["--n", "20", "--m", "20", "--t", "8000"]


class TestMain:
    def test_closeness_csv(self, capsys):
        code = main(["closeness", "--n", "200", "--t", "274", "--trials", "2",
                     "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "trial,instance,verdict,plaintext_bits,secure_bits"
        assert len(lines) == 1 + 4

    def test_config_error_exit_code(self, capsys):
        code = main(["closeness", "--n", "200", "--t", "10", "--trials", "1"])
        assert code == 2
        assert "precondition" in capsys.readouterr().err

    def test_bad_constant_skips_cell(self, capsys):
        for pair, reason in (("sketch_delta=1.5", "sketch_delta"),
                             ("c_alpha=nan", "c_alpha"),
                             ("c_split=-1", "c_split")):
            code = main(["run", "--protocol", "closeness", "--n", "200",
                         "--t", "300", "--set", pair])
            assert code == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert len(rows) == 2
            assert all(",skipped," in row and reason in row for row in rows)

    def test_run_subcommand_writes_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["run", "--protocol", "closeness", "--n", "200",
                     "--t", "274", "--trials", "1", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith(",".join(COLUMNS[:3]))

    def test_run_timing(self, capsys):
        # the t=10 cell is skipped; wall_ms is set on ok rows only
        run = ["run", "--protocol", "closeness", "--n", "200", "--t", "10",
               "274", "--trials", "2", "--seed", "3"]
        tables = []
        for timing in ([], ["--timing"]):
            assert main(run + timing) == 0
            tables.append(list(csv.DictReader(
                capsys.readouterr().out.splitlines())))
        untimed, timed = tables
        assert {r["status"] for r in timed} == {"ok", "skipped", "summary"}
        for row in timed:
            if row["status"] == "ok":
                assert float(row["wall_ms"]) >= 0
            else:
                assert row["wall_ms"] == ""
        assert all(r["wall_ms"] == "" for r in untimed)
        assert [{**r, "wall_ms": ""} for r in timed] == untimed

    def test_independence_cli(self, capsys):
        code = main(["independence", "--n", "20", "--m", "20", "--t", "8000",
                     "--k", "2", "--trials", "1", "--seed", "4"])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith("lambda_mean")

    def test_hardgen_writes_instance(self, tmp_path):
        out = tmp_path / "inst.txt"
        code = main(["hardgen", "--case", "FAR", "--n", "2000", "--t", "62",
                     "--seed", "3", "--out", str(out),
                     "--set", "m=32", "--set", "beta=8", "--set", "l_big=62"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "case=FAR n=2000 t=62 seed=3"
        assert "A" in lines and "B" in lines

    def test_hardgen_golden_files(self, tmp_path):
        # pins the GHD reduction's draws and letter layout, byte for byte
        for case in ("SAME", "FAR"):
            name = f"golden_hardgen_ghd_{case.lower()}.txt"
            out = tmp_path / name
            assert main(HARDGEN + GHD_CONSTANTS + [
                "--kind", "ghd", "--case", case, "--out", str(out)]) == 0
            assert out.read_text() == (DATA / name).read_text(), name

    def test_hardgen_deterministic(self, tmp_path):
        args = ["hardgen", "--case", "SAME", "--n", "2000", "--t", "62",
                "--seed", "3", "--set", "m=32", "--set", "beta=8",
                "--set", "l_big=62"]
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_set_and_constants_file_read_alike(self, tmp_path):
        # both read floats: hardgen's whole-number m and l_big come out the same
        assert repr(_parse_overrides(["m=32"])) == repr(
            fixture_from_text("m,32\n")) == "{'m': 32.0}"
        run = ["run", "--protocol", "hardgen", "--n", "2000", "--t", "62"]
        fixture = tmp_path / "fixture.csv"
        fixture.write_text("m,32\nbeta,8\nl_big,62\n")
        outs = [tmp_path / "set.csv", tmp_path / "file.csv"]
        assert main(run + GHD_CONSTANTS + ["--out", str(outs[0])]) == 0
        assert main(run + ["--constants", str(fixture), "--out", str(outs[1])]) == 0
        assert ",ok," in outs[0].read_text()
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("trials_argv, protocol, grid", [
        (["closeness", "--n", "200", "--t", "274"], "closeness",
         ["--n", "200", "--t", "274"]),
        (["closeness", *SECURE], "closeness-secure",
         ["--n", "200", "--t", "1095", "--k", "4"]),
        (["independence", *INDEPENDENCE, "--k", "2"], "independence",
         [*INDEPENDENCE, "--k", "2"]),
        (["independence", *INDEPENDENCE, "--k", "2", "--one-way"],
         "independence-oneway", [*INDEPENDENCE, "--k", "2"]),
    ])
    def test_per_trial_csv_is_the_ok_rows_of_run(self, capsys, trials_argv,
                                                 protocol, grid):
        common = ["--trials", "2", "--seed", "5"]
        assert main(trials_argv + common) == 0
        header, *trials = csv.reader(capsys.readouterr().out.splitlines())
        assert main(["run", "--protocol", protocol, *grid, *common]) == 0
        rows = csv.DictReader(capsys.readouterr().out.splitlines())
        assert header[:2] == ["trial", "instance"]
        columns = ["trial", "family", *header[2:]]
        assert trials == [[row[c] for c in columns] for row in rows
                          if row["status"] == "ok"]


def readme_cli_commands() -> list:
    """Arguments of each ``disttest2p ...`` line in README's CLI block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("disttest2p ")]


class TestReadme:
    def test_cli_block_runs(self, tmp_path):
        commands = readme_cli_commands()
        assert len(commands) == 7
        for i, args in enumerate(commands):
            if "--out" in args:
                at = args.index("--out") + 1
                args[at] = str(tmp_path / args[at])
            else:
                args += ["--out", str(tmp_path / f"stdout{i}.csv")]
            assert main(args) == 0, shlex.join(args)


class TestBadInput:
    """Each bad input exits 2 with a single ``config error:`` line."""

    @staticmethod
    def refused(capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        return err

    def test_misspelled_constant(self, capsys):
        err = self.refused(capsys, ["run", "--protocol", "closeness", "--n",
                                    "200", "--t", "274", "--set", "c_alhpa=0.5"])
        assert "'c_alhpa'" in err and "c_alpha" in err

    def test_constant_of_another_protocol(self, capsys):
        # votes is k rounded up to odd, a constant of no protocol
        for argv in (["closeness", "--n", "200", "--t", "274"],
                     ["closeness", *SECURE], ["independence", *INDEPENDENCE]):
            self.refused(capsys, argv + ["--set", "votes=3"])

    def test_derived_field_is_not_a_constant(self, capsys, tmp_path):
        out = str(tmp_path / "inst.txt")
        self.refused(capsys, HARDGEN + ["--out", out, "--case", "FAR",
                                        "--set", "d=5"])
        self.refused(capsys, ["run", "--protocol", "hardgen", "--n", "2000",
                              "--t", "62", "--set", "d=5"])

    def test_non_numeric_value(self, capsys):
        err = self.refused(capsys, ["run", "--protocol", "closeness", "--n",
                                    "200", "--t", "274", "--set", "c_alpha=abc"])
        assert "'abc'" in err

    def test_constants_line_without_comma(self, capsys, tmp_path):
        fixture = tmp_path / "fixture.csv"
        fixture.write_text("c_alpha 0.0625\n")
        self.refused(capsys, ["run", "--protocol", "closeness", "--n", "200",
                              "--t", "274", "--constants", str(fixture)])

    def test_missing_constants_file_or_out_dir(self, capsys, tmp_path):
        run = ["run", "--protocol", "closeness", "--n", "200", "--t", "274"]
        err = self.refused(capsys, run + ["--constants",
                                          str(tmp_path / "missing.csv")])
        assert "missing.csv" in err
        err = self.refused(capsys, run + ["--out",
                                          str(tmp_path / "no-dir" / "rows.csv")])
        assert "no-dir" in err

    def test_constants_file_not_utf8(self, capsys, tmp_path):
        fixture = tmp_path / "fixture.csv"
        fixture.write_bytes(b"c_alpha,0.0625\n\xff\xfe\n")
        err = self.refused(capsys, ["run", "--protocol", "closeness", "--n",
                                    "200", "--t", "274", "--constants",
                                    str(fixture)])
        assert "fixture.csv" in err

    def test_constant_given_twice(self, capsys, tmp_path):
        run = ["run", "--protocol", "closeness", "--n", "200", "--t", "274"]
        err = self.refused(capsys, run + ["--set", "c_alpha=0.5",
                                          "--set", "c_alpha=0.0625"])
        assert "'c_alpha' given twice in --set" in err
        fixture = tmp_path / "fixture.csv"
        fixture.write_text("c_alpha,0.5\nc_split,1.0\nc_alpha,0.0625\n")
        err = self.refused(capsys, run + ["--constants", str(fixture)])
        assert "'c_alpha' given twice in the constants file" in err

    def test_set_overrides_the_constants_file(self, capsys, tmp_path):
        run = ["run", "--protocol", "closeness", "--n", "200", "--t", "274"]
        fixture = tmp_path / "fixture.csv"
        fixture.write_text("c_alpha,0.5\nc_split,1.0\n")
        assert main(run + ["--set", "c_alpha=0.0625"]) == 0
        want = capsys.readouterr().out
        assert main(run + ["--constants", str(fixture),
                           "--set", "c_alpha=0.0625"]) == 0
        assert capsys.readouterr().out == want

    def test_eps_beyond_the_farthest_law(self, capsys):
        # no law on 3 letters is 1.5 from uniform: the far rows are skipped
        # with the reason, and the closeness subcommand refuses the cell
        err = self.refused(capsys, ["closeness", "--n", "3", "--t", "100",
                                    "--eps", "1.5"])
        assert "2(1-1/n)" in err
        assert main(["run", "--protocol", "closeness", "--n", "3", "--t", "100",
                     "--eps", "1.5"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [(r["family"], r["status"]) for r in rows[:2]] == \
            [("same", "ok"), ("far", "skipped")]
        assert "2(1-1/n)" in rows[1]["reason"]

    def test_removed_rotation_flatness(self, capsys):
        err = self.refused(capsys, ["run", "--protocol", "closeness-secure",
                                    "--n", "200", "--t", "1095", "--k", "4",
                                    "--set", "rotation_flatness=40"])
        assert "'rotation_flatness'" in err

    def test_ghd_product_case(self, capsys, tmp_path):
        out = tmp_path / "inst.txt"
        self.refused(capsys, HARDGEN + GHD_CONSTANTS + [
            "--kind", "ghd", "--case", "PRODUCT", "--out", str(out)])
        assert not out.exists()

    def test_bhh_same_case(self, capsys, tmp_path):
        out = tmp_path / "inst.txt"
        self.refused(capsys, HARDGEN + ["--kind", "bhh", "--case", "SAME",
                                        "--out", str(out)])
        assert not out.exists()
        assert main(HARDGEN + ["--kind", "bhh", "--case", "PRODUCT",
                               "--out", str(out)]) == 0
        assert out.read_text().startswith("case=PRODUCT n=2000 t=62 seed=3\nA\n")

    def test_generator_argument_error(self, capsys, tmp_path):
        # bhh_generate's own ValueError (odd n) surfaces as a config error
        self.refused(capsys, ["hardgen", "--kind", "bhh", "--case", "FAR",
                              "--n", "7", "--t", "62",
                              "--out", str(tmp_path / "inst.txt")])

    def test_negative_independence_constant(self, capsys):
        # tau squares eps_reduced, so only the params check sees the sign
        err = self.refused(capsys, ["independence", "--n", "20", "--m", "20",
                                    "--t", "8000", "--trials", "1",
                                    "--set", "c_eps=-1"])
        assert "c_eps" in err

    @pytest.mark.parametrize("args, constant", [
        (["--n", "200", "--t", "274"], "c_split=1e19"),  # more picks than t
        (SECURE, "c=1e-300"),    # cap level beyond int64
        (SECURE, "c_a=1e-300"),  # alpha^2 underflows to 0
        (SECURE, "c_a=1e300"),   # alpha^2 overflows
    ])
    def test_constant_out_of_range(self, capsys, args, constant):
        self.refused(capsys, ["closeness", *args, "--set", constant])
        protocol = "closeness-secure" if "--secure" in args else "closeness"
        grid = [arg for arg in args if arg != "--secure"]
        assert main(["run", "--protocol", protocol, *grid,
                     "--set", constant]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(",skipped," in row for row in rows)

    @pytest.mark.parametrize("command, args", [
        # eps^(-2) overflows in the sample floor
        ("closeness", ["--n", "200", "--t", "274", "--eps", "1e-200"]),
        ("closeness", [*SECURE, "--eps", "1e-200"]),
        # eps^2 underflows to 0 in the sample floor
        ("independence", [*INDEPENDENCE, "--eps", "1e-200"]),
        # t of 2^63 or more
        ("closeness", ["--n", "200", "--t", str(10 ** 37)]),
        ("independence", ["--n", "20", "--m", "20", "--t", str(10 ** 28)]),
        ("hardgen", ["--n", "2000", "--t", str(10 ** 20), "--set", "m=32",
                     "--set", "beta=8"]),
        # alpha^2 underflows to 0 in the sketch width
        ("closeness", ["--n", "200", "--t", "274", "--set", "c_alpha=1e-300"]),
        # eps^4 underflows to 0 in the split rate and the letter-set size
        ("closeness", ["--n", "200", "--t", "274", "--eps", "1e-100",
                       "--set", "big_c=1e-300"]),
        ("independence", [*INDEPENDENCE, "--eps", "1e-100",
                          "--set", "big_c=1e-300"]),
        # a letter-set size of 2^63 or more
        ("independence", [*INDEPENDENCE, "--set", "c2=1e300"]),
        # the default m=4 has no even far gap
        ("hardgen", ["--n", "2000", "--t", "100000"]),
        # n of 2^63 or more (numpy refuses such an alphabet with a traceback)
        ("closeness", ["--n", str(10 ** 20), "--t", str(2 ** 62),
                       "--set", "big_c=1e-300"]),
        ("independence", ["--n", str(10 ** 20), "--m", "20", "--t", str(2 ** 62),
                          "--set", "big_c=1e-300"]),
        ("hardgen", ["--n", str(10 ** 20), "--t", "62", "--set", "m=32",
                     "--set", "beta=8", "--set", "l_big=62"]),
        # the sample-set cap c1*n*sqrt(m)/eps overflows to inf in t_prime
        ("independence", [*INDEPENDENCE, "--set", "c1=1e308"]),
    ])
    def test_cell_out_of_range(self, capsys, tmp_path, command, args):
        argv = [command, *args]
        if command == "hardgen":
            argv += ["--case", "FAR", "--out", str(tmp_path / "inst.txt")]
        self.refused(capsys, argv)
        protocol = "closeness-secure" if "--secure" in args else command
        grid = [arg for arg in args if arg != "--secure"]
        assert main(["run", "--protocol", protocol, *grid]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(",skipped," in row for row in rows)

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1", "5"])
    def test_hardgen_eps_out_of_range(self, capsys, eps):
        # hardgen's verdict is the closeness threshold rule, so it takes the
        # testers' eps range though its params do not read eps
        assert main(["run", "--protocol", "hardgen", "--n", "2000", "--t", "62",
                     "--set", "m=32", "--set", "beta=8", "--set", "l_big=62",
                     "--eps", eps]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2 and all(
            ",skipped," in row and "eps must be in (0, 2]" in row for row in rows)

    def test_independence_without_m(self, capsys):
        for protocol in ("independence", "independence-oneway"):
            err = self.refused(capsys, ["run", "--protocol", protocol, "--n",
                                        "20", "--t", "8000", "--k", "2"])
            assert "--m" in err

    def test_grid_flag_the_protocol_does_not_take(self, capsys):
        for argv in (["run", "--protocol", "closeness", "--m", "20"],
                     ["run", "--protocol", "closeness", "--k", "4"],
                     ["run", "--protocol", "closeness-secure", "--m", "20"],
                     ["run", "--protocol", "hardgen", "--k", "2"],
                     ["closeness", "--k", "4"]):
            err = self.refused(capsys, argv + ["--n", "200", "--t", "274"])
            assert f"takes no --{argv[-2][2:]}" in err

    def test_grid_flags_where_taken(self, capsys):
        assert main(["run", "--protocol", "closeness-secure", "--n", "200",
                     "--t", "1095", "--k", "4"]) == 0
        assert main(["run", "--protocol", "independence", "--n", "20",
                     "--m", "20", "--t", "8000", "--k", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert sum(",ok," in row for row in rows) == 4


def _refuse_at_run_time(monkeypatch, runner):
    """Rebind a tester so every row of a valid cell is skipped when it runs,
    as a refusal raised while running (GHD's letter overflow) would."""
    import disttest2p.cli as cli_module

    def refuse(*args):
        raise ConfigError("refused while running")
    monkeypatch.setattr(cli_module, runner, refuse)


class TestNoOkRows:
    def test_summary_reports_no_rate_or_bits(self, monkeypatch):
        _refuse_at_run_time(monkeypatch, "one_way_it2p")
        cfg = ExperimentConfig(protocol="independence-oneway", ns=(20,),
                               ms=(20,), ts=(8000,), epss=(1.0,), ks=(2,),
                               trials=2, seed=1)
        rows = list(run_experiment(cfg))
        assert [r.status for r in rows] == ["skipped"] * 4 + ["summary"] * 2
        assert all(r.reason == "refused while running" for r in rows[:4])
        for row in rows[4:]:
            assert (row.success, row.plaintext_bits, row.secure_bits) == \
                ("", "", "")

    def test_calibration_treats_no_rate_as_infeasible(self, monkeypatch):
        _refuse_at_run_time(monkeypatch, "it2p")
        assert calibrate("independence", 20, 1.0, seed=1, trials=1) is None


class TestCalibrate:
    def test_degenerate_alphabet_refused(self, capsys):
        code = main(["calibrate", "--protocol", "closeness", "--n", "2",
                     "--trials", "4"])
        assert code == 2

    def test_small_alphabet_rule_is_closeness_only(self, capsys):
        # closeness's sample bound 8*max(n^(2/3), sqrt(n)) = 17 exceeds n^2 = 9,
        # but independence's own precondition is what bounds its t
        code = main(["calibrate", "--protocol", "independence", "--n", "3",
                     "--trials", "2"])
        assert code in (0, 3)
        assert "too small to calibrate" not in capsys.readouterr().err

    @pytest.mark.parametrize("protocol, flag, value", [
        ("closeness", "--eps", "0"), ("closeness", "--n", "-5"),
        ("closeness", "--n", "0"), ("closeness", "--eps", "nan"),
        ("closeness", "--eps", "3"), ("independence", "--k", "0"),
        ("closeness", "--k", "4"),
    ])
    def test_bad_argument_refused(self, capsys, protocol, flag, value):
        argv = ["calibrate", "--protocol", protocol, "--n", "20", "--trials",
                "1", flag, value]
        TestBadInput.refused(capsys, argv)

    def test_refused_grid_point_is_skipped(self, monkeypatch):
        import disttest2p.cli as cli_module
        monkeypatch.setitem(cli_module._GRIDS, "closeness",
                            [{"c_split": 1e19}])
        assert calibrate("closeness", 100, 1.0, seed=1, trials=1) is None

    def test_closeness_calibration_feasible(self, capsys):
        code = main(["calibrate", "--protocol", "closeness", "--n", "100",
                     "--trials", "8", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c_alpha," in out
        assert "# rates," in out

    def test_infeasible_calibration_exit_code(self, monkeypatch, capsys):
        import disttest2p.cli as cli_module
        monkeypatch.setattr(cli_module, "calibrate",
                            lambda *a, **kw: None)
        code = main(["calibrate", "--protocol", "closeness", "--n", "100"])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_fixture_reuse_reproduces_rates(self, tmp_path):
        # rates measured with the calibrated fixture at a fresh seed stay
        # within 5 points of the rates the calibration recorded
        fixture = tmp_path / "fixture.csv"
        trials = 40
        assert main(["calibrate", "--protocol", "closeness", "--n", "200",
                     "--trials", str(trials), "--seed", "11",
                     "--out", str(fixture)]) == 0
        text = fixture.read_text()
        recorded = [float(v) for v in
                    text.splitlines()[-1].split(",")[1:]]
        constants = fixture_from_text(text)
        import math

        from disttest2p.closeness import CTParams
        t = math.ceil(CTParams(n=200, t=10 ** 9, eps=1.0,
                               **constants).min_samples())
        cfg = ExperimentConfig(protocol="closeness", ns=(200,), ts=(t,),
                               epss=(1.0,), trials=trials, seed=999,
                               overrides=constants)
        rates = {row.family: float(row.success)
                 for row in run_experiment(cfg) if row.status == "summary"}
        assert abs(rates["same"] - recorded[0]) <= 0.05 + 1e-9
        assert abs(rates["far"] - recorded[1]) <= 0.05 + 1e-9


def test_library_imports_only_numpy():
    # pyproject declares numpy alone; the test extras must not leak into src/
    code = ("import sys, disttest2p.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))")
    src = pathlib.Path(__file__).parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert {"numpy", "disttest2p"} <= set(out.split())
    assert not {"scipy", "hypothesis", "pytest"} & set(out.split())
