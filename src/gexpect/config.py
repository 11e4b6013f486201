"""Run configuration: defaults, flat key=value config files, and flag precedence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .gcore import GParams

__all__ = ["RunConfig", "load_config"]


@dataclass(frozen=True)
class RunConfig:
    sigma_lower_sq: float = 0.25
    sigma_upper_sq: float = 1.0
    horizon: float = 1.0
    n_steps: int = 200
    nx: int = 401
    n_paths: int = 10000
    seed: int = 0
    sigma_refinement: int = 0
    cfl_safety: float = 2.0
    out_dir: str = "."
    timing: bool = True
    digits: int = 12
    tol: dict = field(default_factory=dict)  # per-check tolerance overrides

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:  # also refuses NaN
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be positive")
        if self.nx < 3:
            raise ValueError("need nx >= 3")
        if self.nx % 2 == 0:  # the PDE value is read off the node at x = 0
            raise ValueError(f"nx must be odd so that a grid node sits at x = 0, "
                             f"got nx={self.nx}")
        if self.sigma_refinement < 0:
            raise ValueError("sigma_refinement must be >= 0")
        if not self.cfl_safety >= 1:  # the explicit PDE march is unstable below 1
            raise ValueError("cfl_safety must be >= 1")
        if self.digits < 1:
            raise ValueError("digits must be >= 1")

    @property
    def params(self) -> GParams:
        return GParams(
            sigma_lower_sq=self.sigma_lower_sq, sigma_upper_sq=self.sigma_upper_sq
        )

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)


_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_value(name: str, text: str):
    text = text.strip()
    if name in ("n_steps", "nx", "n_paths", "seed", "sigma_refinement", "digits"):
        return int(text)
    if name == "timing":
        if text.lower() not in _BOOL:
            raise ValueError(f"expected true or false, got {text!r}")
        return _BOOL[text.lower()]
    if name == "out_dir":
        return text
    return float(text)


def load_config(path: str) -> RunConfig:
    """Flat key=value file, UTF-8, '#' comments; keys 'tol.<check>' set
    per-check tolerance overrides."""
    values: dict = {}
    tol: dict = {}
    known = {f.name for f in fields(RunConfig)} - {"tol"}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (p.strip() for p in line.split("=", 1))
            if not (key.startswith("tol.") or key in known):
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if key.startswith("tol."):
                    tol[key[4:]] = float(val)
                else:
                    values[key] = _parse_value(key, val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return RunConfig(tol=tol, **values)
