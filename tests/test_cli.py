import argparse
import csv
import json

import pytest

from gexpect import cli
from gexpect.cli import main


def test_expect_both_backends(capsys):
    rc = main(["expect", "--phi", "x1^2", "--t", "1.0", "--n-steps", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lattice:" in out and "pde:" in out and "diff:" in out
    lat = float(out.split("lattice:")[1].splitlines()[0])
    assert lat == pytest.approx(1.0, abs=1e-10)


def test_expect_lattice_only_multi_anchor(capsys):
    rc = main(["expect", "--phi", "x1 * x2", "--backend", "lattice",
               "--times", "10,20", "--n-steps", "20"])
    assert rc == 0
    assert "lattice:" in capsys.readouterr().out


def test_expect_csv_output(tmp_path, capsys):
    out = tmp_path / "values.csv"
    rc = main(["expect", "--phi", "abs(x1)", "--n-steps", "50",
               "--csv", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["backend", "value"]
    assert {r[0] for r in rows[1:]} == {"lattice", "pde"}


def test_expect_pde_rejects_multivariate(capsys):
    rc = main(["expect", "--phi", "x1 + x2", "--backend", "pde",
               "--times", "5,10", "--n-steps", "10"])
    assert rc == 2
    assert "single-variable" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["expect", "--phi", "x1*x2", "--backend", "pde"], "single-variable"),
    (["simulate", "--policy", "const-max", "--n-paths", "0"], "n_paths must be positive"),
    (["expect", "--phi", "x1", "--nx", "2"], "nx >= 3"),
    (["expect", "--phi", "x1", "--sigma0-sq", "2"], "sigma_lower_sq <= sigma_upper_sq"),
    (["expect", "--phi", "x1", "--cfl-safety", "0.5"], "cfl_safety must be >= 1"),
    (["expect", "--phi", "x1", "--digits", "-3"], "digits must be >= 1"),
    (["expect", "--phi", "x1", "--t", "-1"], "--t must be finite and positive"),
    (["expect", "--phi", "x1", "--backend", "lattice", "--t", "0"],
     "--t must be finite and positive"),
    (["expect", "--phi", "x1", "--backend", "pde", "--t", "-1"],
     "--t must be finite and >= 0"),
    (["expect", "--phi", "x1", "--t", "inf"], "--t must be finite"),
    (["conditional", "--phi", "x1", "--j", "0", "--t", "-1"], "--t must be"),
    (["simulate", "--policy", "const-max", "--t", "-1"], "--t must be"),
    (["expect", "--phi", "x1", "--backend", "pde", "--times", "abc"],
     "--times takes integer levels"),
], ids=["pde-multivariate", "n-paths", "nx", "band", "cfl-safety", "digits",
        "negative-t", "zero-t-lattice", "negative-t-pde", "infinite-t",
        "conditional-t", "simulate-t", "pde-times"])
def test_bad_flag_values_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["expect", "--phi", "x1", "--seed", "1"],
    ["conditional", "--phi", "x1", "--j", "0", "--nx", "5"],
    ["simulate", "--policy", "const-max", "--digits", "3"],
    ["verify", "--only", "transfer", "--n-steps", "7"],
    ["report", "--input", "report.json", "--seed", "1"],
], ids=["expect-seed", "conditional-nx", "simulate-digits", "verify-n-steps",
        "report-seed"])
def test_flag_the_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in cli.make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert flags == {
        "expect": {"--phi", "--t", "--times", "--mode", "--backend", "--csv",
                   "--config", "--sigma0-sq", "--n-steps", "--nx", "--cfl-safety",
                   "--digits"},
        "conditional": {"--phi", "--t", "--times", "--mode", "--j", "--csv",
                        "--config", "--sigma0-sq", "--n-steps", "--out", "--digits"},
        "simulate": {"--policy", "--t", "--csv", "--config", "--seed", "--sigma0-sq",
                     "--n-steps", "--n-paths", "--out"},
        "verify": {"--only", "--report", "--no-timing", "--config", "--seed",
                   "--sigma0-sq", "--n-paths", "--out"},
        "report": {"--input"},
    }
    # 22 slots for the config file and the flags that override its fields
    shared = {"--config", *cli._CONFIG_FLAGS}
    assert sum(len(f & shared) for f in flags.values()) == 22


@pytest.fixture
def no_work(monkeypatch):
    """Make every entry into the engines fail, to show a check ran before them."""
    def started(*args, **kwargs):
        raise AssertionError("work started before the usage check")

    for name in ("build_lattice", "gnormal_expect", "run_suite"):
        monkeypatch.setattr(cli, name, started)


@pytest.mark.parametrize("argv", [
    ["verify", "--no-timing", "--out", "{missing}"],
    ["verify", "--no-timing", "--report", "{missing}/report.json"],
    ["expect", "--phi", "x1^2", "--csv", "{missing}/values.csv"],
    ["conditional", "--phi", "x1^2", "--j", "0", "--csv", "{missing}/cond.csv"],
    ["simulate", "--policy", "const-max", "--csv", "{missing}/paths.csv"],
], ids=["verify-out", "verify-report", "expect-csv", "conditional-csv",
        "simulate-csv"])
def test_missing_output_directory_is_usage_error(argv, tmp_path, capsys, no_work):
    missing = str(tmp_path / "no-such-dir")
    assert main([a.format(missing=missing) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: output directory {missing!r} does not exist\n")


@pytest.mark.parametrize("text", [None, "[{\"id\": ", "{}", "[{\"id\": \"x\"}]"],
                         ids=["missing", "malformed", "not-a-list", "entry-without-fields"])
def test_unreadable_report_input_is_usage_error(text, tmp_path, capsys):
    path = tmp_path / "report.json"
    if text is not None:
        path.write_text(text)
    assert main(["report", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read report {str(path)!r}")


def test_config_horizon_is_the_default_t(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("horizon = 4\n")
    rc = main(["expect", "--phi", "x1^2", "--backend", "lattice", "--n-steps", "10",
               "--config", str(cfgfile)])
    assert rc == 0
    assert float(capsys.readouterr().out.split("lattice:")[1]) == pytest.approx(4.0)
    # the flag still wins over the file
    rc = main(["expect", "--phi", "x1^2", "--backend", "lattice", "--n-steps", "10",
               "--config", str(cfgfile), "--t", "2"])
    assert rc == 0
    assert float(capsys.readouterr().out.split("lattice:")[1]) == pytest.approx(2.0)


def test_pde_backend_takes_a_zero_horizon(capsys):
    assert main(["expect", "--phi", "x1^2 + 1", "--backend", "pde", "--t", "0"]) == 0
    assert float(capsys.readouterr().out.split("pde:")[1]) == pytest.approx(1.0)


@pytest.mark.parametrize("text, message", [
    ("x_span = 3\n", ":1: unknown key 'x_span'"),
    ("seed = 1\ntiming = maybe\n", ":2: timing: expected true or false"),
    ("n_steps = many\n", ":1: n_steps: invalid literal"),
    ("n_paths = 0\n", "n_paths must be positive"),
    ("horizon = nan\n", "horizon must be finite and positive"),
], ids=["unknown-key", "bad-bool", "bad-int", "invalid-value", "nan-horizon"])
def test_bad_config_file_is_usage_error(tmp_path, capsys, text, message):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    assert main(["expect", "--phi", "x1", "--config", str(cfgfile)]) == 2
    assert message in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    assert main(["expect", "--phi", "x1", "--config", str(tmp_path / "no.cfg")]) == 2
    assert "no.cfg" in capsys.readouterr().err


def test_bad_expression_is_usage_error(capsys):
    rc = main(["expect", "--phi", "x1 +"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_division_by_zero_is_numeric_error(capsys):
    rc = main(["expect", "--phi", "x1 / 0", "--backend", "lattice",
               "--n-steps", "10"])
    assert rc == 3


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_removed_x_span_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expect", "--phi", "x1^2", "--x-span", "1"])
    assert exc.value.code == 2


def test_conditional_writes_table(tmp_path, capsys):
    out = tmp_path / "cond.csv"
    rc = main(["conditional", "--phi", "x1^2", "--j", "0",
               "--n-steps", "20", "--csv", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "value:" in text
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "psi"]
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-10)


def test_conditional_lists_each_reachable_position_once(tmp_path, capsys):
    out = tmp_path / "cond.csv"
    rc = main(["conditional", "--phi", "abs(x1)", "--j", "10",
               "--n-steps", "20", "--csv", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        nodes = [float(r[0]) for r in list(csv.reader(fh))[1:]]
    # ten steps of +-0.5 or +-1 (times sqrt(dt)) reach every multiple of 0.5
    # in [-10, 10]; the 121 reachable count vectors repeat some of them
    assert len(nodes) == len(set(nodes)) == 41
    assert "wrote 41 nodes" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["pde", "both"])
def test_pde_backend_reads_x1_at_its_anchor(backend, capsys):
    # level 5 of 200 is t = 0.025, where E[B^2] = 0.025, not the horizon's 1
    rc = main(["expect", "--phi", "x1^2", "--times", "5", "--n-steps", "200",
               "--backend", backend, "--digits", "17"])
    assert rc == 0
    out = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert float(out["pde"]) == pytest.approx(0.025, abs=1e-9)
    if backend == "both":
        assert abs(float(out["diff"])) <= 1e-9


def test_simulate_beyond_the_memory_guard_is_numeric_error(capsys):
    rc = main(["simulate", "--policy", "const-max", "--n-paths", "2000000000"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numeric error: ensemble too large")


def test_simulate_named_and_worst_policies(tmp_path, capsys):
    out = tmp_path / "paths.csv"
    rc = main(["simulate", "--policy", "const-max", "--n-steps", "10",
               "--n-paths", "5", "--seed", "1", "--csv", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 5 * 11
    rc = main(["simulate", "--policy", "worst:x1^2", "--n-steps", "10",
               "--n-paths", "5", "--seed", "1", "--csv", str(out)])
    assert rc == 0
    rc = main(["simulate", "--policy", "no-such-policy", "--n-steps", "10",
               "--n-paths", "5", "--csv", str(out)])
    assert rc == 2


def test_verify_report_round_trip(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["verify", "--only", "qv-band,transfer", "--no-timing",
               "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "qv-band" in out and "transfer" in out and "ok" in out
    data = json.loads(report.read_text())
    assert {d["id"] for d in data} == {"qv-band", "transfer"}
    assert all(d["wall_ms"] == 0.0 for d in data)

    rc = main(["report", "--input", str(report)])
    assert rc == 0
    assert "qv-band" in capsys.readouterr().out


def test_verify_unknown_check_is_usage_error(tmp_path, capsys):
    rc = main(["verify", "--only", "bogus", "--report",
               str(tmp_path / "r.json")])
    assert rc == 2


def test_unknown_policy_is_usage_error(capsys):
    rc = main(["simulate", "--policy", "nope", "--n-steps", "4",
               "--n-paths", "2"])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown policy name: 'nope'\n"


def test_non_integer_level_is_usage_error(capsys):
    rc = main(["expect", "--phi", "x1", "--times", "a", "--backend", "lattice",
               "--n-steps", "4"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --times takes integer levels, got 'a'\n"


def test_level_past_lattice_is_usage_error(capsys):
    rc = main(["expect", "--phi", "x1", "--times", "9", "--backend", "lattice",
               "--n-steps", "4"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --times levels must lie in [1, 4], got '9'\n"


def test_decreasing_levels_are_usage_error(capsys):
    rc = main(["expect", "--phi", "x1*x2", "--times", "3,2", "--backend", "lattice",
               "--n-steps", "4"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --times levels must strictly increase, got '3,2'\n"


def test_repeated_levels_are_usage_error(capsys):
    rc = main(["expect", "--phi", "x1*x2", "--times", "2,2", "--backend", "lattice",
               "--n-steps", "4"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --times levels must strictly increase, got '2,2'\n"


def test_fewer_levels_than_payoff_variables_is_usage_error(capsys):
    rc = main(["expect", "--phi", "x1*x2", "--times", "3", "--backend", "lattice",
               "--n-steps", "4"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the payoff uses x2 but --times gives 1 level(s): '3'\n")


def test_conditioning_level_past_horizon_is_usage_error(tmp_path, capsys):
    rc = main(["conditional", "--phi", "x1^2", "--j", "9", "--n-steps", "4",
               "--csv", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "functional horizon" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(lat, X):
        raise KeyError("internal lookup")

    monkeypatch.setattr(cli, "lattice_expect", broken)
    with pytest.raises(KeyError, match="internal lookup"):
        main(["expect", "--phi", "x1", "--backend", "lattice", "--n-steps", "4"])


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n_steps = 10\nseed = 9\n")
    out = tmp_path / "paths.csv"
    # the flag overrides the file value for n_steps; the file sets the seed
    rc = main(["simulate", "--policy", "const-min", "--config", str(cfgfile),
               "--n-steps", "4", "--n-paths", "2", "--csv", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 5  # 4 steps -> 5 grid points per path
