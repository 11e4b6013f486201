import pytest

from gexpect.config import RunConfig, load_config, save_config


def test_defaults():
    cfg = RunConfig()
    assert cfg.sigma_lower_sq == 0.25
    assert cfg.sigma_upper_sq == 1.0
    assert cfg.n_steps == 200
    assert cfg.nx == 401
    assert cfg.seed == 0
    assert cfg.params.sigma_lower_sq == 0.25


def test_validation():
    with pytest.raises(ValueError):
        RunConfig(horizon=0.0)
    with pytest.raises(ValueError):
        RunConfig(nx=2)
    with pytest.raises(ValueError):
        RunConfig(sigma_refinement=-1)


def test_with_overrides_skips_none():
    cfg = RunConfig().with_overrides(seed=7, n_steps=None, nx=101)
    assert cfg.seed == 7
    assert cfg.n_steps == 200
    assert cfg.nx == 101


def test_round_trip(tmp_path):
    cfg = RunConfig(seed=42, n_steps=64, timing=False,
                    out_dir="results", tol={"isometry": 1e-6, "doob": 0.1})
    path = tmp_path / "run.cfg"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


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
