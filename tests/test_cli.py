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
    (["expect", "--phi", "x1", "--n-paths", "0"], "n_paths must be positive"),
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


def test_pde_backend_takes_a_zero_horizon(capsys):
    assert main(["expect", "--phi", "x1^2 + 1", "--backend", "pde", "--t", "0"]) == 0
    assert float(capsys.readouterr().out.split("pde:")[1]) == pytest.approx(1.0)


@pytest.mark.parametrize("text, message", [
    ("x_span = 3\n", ":1: unknown key 'x_span'"),
    ("seed = 1\ntiming = maybe\n", ":2: timing: expected true or false"),
    ("n_steps = many\n", ":1: n_steps: invalid literal"),
    ("n_paths = 0\n", "n_paths must be positive"),
], ids=["unknown-key", "bad-bool", "bad-int", "invalid-value"])
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
