from dataclasses import fields

import pytest

from gexpect.config import RunConfig, load_config


def test_defaults():
    cfg = RunConfig()
    assert cfg.sigma_lower_sq == 0.25
    assert cfg.sigma_upper_sq == 1.0
    assert cfg.n_steps == 200
    assert cfg.nx == 401
    assert cfg.seed == 0
    assert cfg.params.sigma_lower_sq == 0.25


def test_validation():
    for horizon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            RunConfig(horizon=horizon)
    with pytest.raises(ValueError):
        RunConfig(nx=2)
    with pytest.raises(ValueError):
        RunConfig(sigma_refinement=-1)


def test_with_overrides_skips_none():
    cfg = RunConfig().with_overrides(seed=7, n_steps=None, nx=101)
    assert cfg.seed == 7
    assert cfg.n_steps == 200
    assert cfg.nx == 101


def test_every_key_parses(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "sigma_lower_sq = 0.3\n"
        "sigma_upper_sq = 0.9\n"
        "horizon = 2.5\n"
        "n_steps = 64\n"
        "nx = 101\n"
        "n_paths = 500\n"
        "seed = 42\n"
        "sigma_refinement = 2\n"
        "cfl_safety = 3.5\n"
        "out_dir = results\n"
        "timing = false\n"
        "digits = 6\n"
        "tol.isometry = 1e-6\n"
        "tol.doob = 0.1\n"
    )
    cfg = load_config(str(path))
    assert cfg == RunConfig(
        sigma_lower_sq=0.3, sigma_upper_sq=0.9, horizon=2.5, n_steps=64, nx=101,
        n_paths=500, seed=42, sigma_refinement=2, cfl_safety=3.5,
        out_dir="results", timing=False, digits=6,
        tol={"isometry": 1e-6, "doob": 0.1},
    )
    # every field is set away from its default, so none can be skipped silently
    assert all(getattr(cfg, f.name) != f.default
               for f in fields(RunConfig) if f.name != "tol")


def test_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "seed = 3   # trailing comment\n"
        "timing = false\n"
        "tol.moments-lattice = 1e-9\n"
        "\n"
    )
    cfg = load_config(str(path))
    assert cfg.seed == 3
    assert cfg.timing is False
    assert cfg.tol == {"moments-lattice": 1e-9}


def test_unknown_key_reports_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nbogus = 2\n")
    with pytest.raises(ValueError, match=r":2: unknown key 'bogus'"):
        load_config(str(path))


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed 1\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config(str(path))
