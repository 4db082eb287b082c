"""Experiment configuration: a fixed JSON schema, lossless round-trip, and
builders that turn a parsed config into grid/parameter/coefficient objects.

Schema (all keys required unless noted):

    {
      "params":      {"N", "s", "p", "q", "sigma", "beta", "mode"?},
      "grid":        {"extents": [...], "counts": [...]},
      "kirchhoff_p": {"kind", "a"?, "b"?, "c"?, "beta"?},
      "kirchhoff_q": {...},
      "initial_u":   {"preset", "amplitude"},
      "initial_v":   {"preset", "amplitude"},
      "integrator":  {"t_end", "dt_init"?, "dt_min"?, "rtol"?,
                      "blowup_threshold"?, "dt_max"?},
      "psi_variant": "consistent" | "printed",
      "well_depth":  {"directions"?, "modes"?, "refine_iters"?},
      "output_dir":  str,
      "seed":        int
    }

Kirchhoff "beta" defaults to the params beta.  No expression language: the
initial data come from the named presets only.  Unknown keys at the top level
and in the "integrator" and "well_depth" blocks are rejected by name, so a
typo such as "rtoll" fails instead of running with the default.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .grids import GridDomain, GridField, build_grid, sample_field
from .kirchhoff import KirchhoffFn
from .params import ModelParams, validate_params


class ConfigError(ValueError):
    pass


_DEFAULTS_INTEGRATOR = {
    "dt_init": 1e-6,
    "dt_min": 1e-13,
    "rtol": 1e-8,
    "blowup_threshold": 1e8,
    "dt_max": None,
}
_DEFAULTS_WELL = {"directions": 200, "modes": 6, "refine_iters": 0}


def _reject_unknown(block: dict, allowed, where: str) -> None:
    allowed = sorted(allowed)
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}; allowed: {allowed}")


@dataclass(frozen=True)
class ExperimentConfig:
    params: dict
    grid: dict
    kirchhoff_p: dict
    kirchhoff_q: dict
    initial_u: dict
    initial_v: dict
    integrator: dict
    psi_variant: str
    well_depth: dict
    output_dir: str
    seed: int

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        required = ("params", "grid", "kirchhoff_p", "kirchhoff_q",
                    "initial_u", "initial_v", "integrator", "output_dir", "seed")
        missing = [k for k in required if k not in raw]
        if missing:
            raise ConfigError(f"config missing keys: {missing}")
        _reject_unknown(raw, (f.name for f in fields(cls)), "config")
        _reject_unknown(raw["integrator"], ("t_end", *_DEFAULTS_INTEGRATOR), "integrator")
        _reject_unknown(raw.get("well_depth", {}), _DEFAULTS_WELL, "well_depth")
        psi_variant = raw.get("psi_variant", "consistent")
        if psi_variant not in ("consistent", "printed"):
            raise ConfigError(f"psi_variant must be consistent|printed, got {psi_variant!r}")
        integ = dict(_DEFAULTS_INTEGRATOR)
        integ.update(raw["integrator"])
        well = dict(_DEFAULTS_WELL)
        well.update(raw.get("well_depth", {}))
        return cls(
            params=dict(raw["params"]),
            grid=dict(raw["grid"]),
            kirchhoff_p=dict(raw["kirchhoff_p"]),
            kirchhoff_q=dict(raw["kirchhoff_q"]),
            initial_u=dict(raw["initial_u"]),
            initial_v=dict(raw["initial_v"]),
            integrator=integ,
            psi_variant=psi_variant,
            well_depth=well,
            output_dir=str(raw["output_dir"]),
            seed=int(raw["seed"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        return cls.from_json(path.read_text())

    # -- builders -----------------------------------------------------------

    def build_params(self) -> ModelParams:
        p = dict(self.params)
        mode = p.pop("mode", "strict")
        try:
            return validate_params(mode=mode, **p)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid params block: {exc}") from exc

    def build_grid(self) -> GridDomain:
        try:
            return build_grid(self.grid["extents"], self.grid["counts"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid grid block: {exc}") from exc

    def _build_kfn(self, block: dict, beta_default: float) -> KirchhoffFn:
        blk = dict(block)
        kind = blk.pop("kind", None)
        beta = blk.pop("beta", beta_default)
        try:
            if kind == "affine_power":
                return KirchhoffFn.affine_power(
                    a=blk.get("a", 1.0), b=blk.get("b", 0.0), c=blk.get("c", 1.0), beta=beta
                )
            if kind == "log1p":
                return KirchhoffFn.log1p(beta=beta)
            if kind == "table":
                return KirchhoffFn.from_table(blk["z"], blk["k"], beta=beta)
            raise ConfigError(f"unknown Kirchhoff kind {kind!r}")
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid Kirchhoff block: {exc}") from exc

    def build_kirchhoff(self) -> tuple[KirchhoffFn, KirchhoffFn]:
        beta = float(self.params.get("beta", 0.0))
        return self._build_kfn(self.kirchhoff_p, beta), self._build_kfn(self.kirchhoff_q, beta)

    def build_initial_pair(self, grid: GridDomain) -> tuple[GridField, GridField]:
        def one(block: dict) -> GridField:
            try:
                extra = {k: v for k, v in block.items() if k not in ("preset", "amplitude")}
                return sample_field(grid, block["preset"], float(block.get("amplitude", 1.0)),
                                    **extra)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid initial-data block: {exc}") from exc
        return one(self.initial_u), one(self.initial_v)

    def run_dir(self) -> Path:
        """Per-run artifact directory: seed-named, timestamp-free."""
        return Path(self.output_dir) / f"run-seed{self.seed}"
