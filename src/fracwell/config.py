"""Experiment configuration: a fixed JSON schema, lossless round-trip, and
builders that turn a parsed config into grid/parameter/coefficient objects.

Schema (all keys required unless noted):

    {
      "params":      {"N", "s", "p", "q", "sigma", "beta", "mode"?},
      "grid":        {"extents": [...], "counts": [...]},
      "kirchhoff_p": {"kind": "affine_power", "a"?, "b"?, "c"?, "beta"?}
                   | {"kind": "log1p", "beta"?}
                   | {"kind": "table", "z", "k", "beta"?},
      "kirchhoff_q": {...},
      "initial_u":   {"preset", "amplitude"?},
      "initial_v":   {"preset", "amplitude"?},
      "integrator":  {"t_end", "dt_init"?, "dt_min"?, "rtol"?,
                      "blowup_threshold"?, "dt_max"?},
      "psi_variant": "consistent" | "printed",
      "well_depth":  {"directions"?, "modes"?, "refine_iters"?},
      "output_dir":  str,
      "seed":        int
    }

Kirchhoff "beta" defaults to the params beta.  No expression language: the
initial data come from the named presets only.  A block that is not a JSON
object is rejected by name.  Unknown keys at the top level
and in the "grid", "kirchhoff_p"/"kirchhoff_q" (per kind), "initial_u"/
"initial_v", "integrator" and "well_depth" blocks are rejected by name, so a
typo such as "rtoll" or "B" fails instead of running with the default.  So is
a bad value: every integrator control must be a positive finite number
("dt_max" may also be null), "dt_min" may not exceed "dt_init" or a set
"dt_max", "directions" and "refine_iters" integers >= 0
and "modes" an integer >= 1, "seed" an integer >= 0 (not a bool),
"output_dir" a string and each "amplitude" a finite number.  The grid's
extents must be positive finite numbers and its counts integers, and every
Kirchhoff and params value a finite number; a JSON boolean is never a
number (``params.finite_number``).  The integrator block's keys, defaults
and value rule are those of ``dynamics.IntegratorControls``; the grid's,
the Kirchhoff blocks' and the params block's value rules are those of
``grids.GridDomain``, ``kirchhoff.KirchhoffFn`` and
``params.validate_params``, so the Python API shares them.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .dynamics import IntegratorControls
from .grids import GridDomain, GridField, build_grid, sample_field
from .kirchhoff import KirchhoffFn
from .params import ModelParams, ParamError, finite_number, validate_params
from .variational import PSI_VARIANTS


class ConfigError(ValueError):
    pass


# each Kirchhoff kind: its constructor and its keys besides "kind" and
# "beta", with their defaults (None: required)
_KIRCHHOFF_KINDS = {"affine_power": (KirchhoffFn.affine_power, {"a": 1.0, "b": 0.0, "c": 1.0}),
                    "log1p": (KirchhoffFn.log1p, {}),
                    "table": (KirchhoffFn.from_table, {"z": None, "k": None})}
# an initial-data block's keys, filled from these defaults; a missing
# "preset" reads as null, which sample_field rejects
_INITIAL = {"preset": None, "amplitude": 1.0}
# the blocks of a config in field order, each with the keys it allows: any
# for the params block (None), which validate_params checks when it is built;
# those of its kind for a Kirchhoff block; and for the initial-data,
# integrator and well_depth blocks, the keys of the defaults they are filled from
_BLOCKS = {"params": None, "grid": ("extents", "counts"),
           "kirchhoff_p": _KIRCHHOFF_KINDS, "kirchhoff_q": _KIRCHHOFF_KINDS,
           "initial_u": _INITIAL, "initial_v": _INITIAL,
           # a missing "t_end" reads as null, which IntegratorControls rejects
           "integrator": {f.name: None if f.default is MISSING else f.default
                          for f in fields(IntegratorControls)},
           "well_depth": {"directions": 200, "modes": 6, "refine_iters": 0}}
# the config keys that may be left out, with their defaults
_OPTIONAL = {"psi_variant": PSI_VARIANTS[0], "well_depth": {}}


def _kirchhoff_kind(block: dict, name: str):
    """The kind of a Kirchhoff block, with its constructor and keys."""
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in _KIRCHHOFF_KINDS:
        raise ConfigError(f"unknown Kirchhoff kind {kind!r} in {name}")
    return kind, *_KIRCHHOFF_KINDS[kind]


def _reject_unknown(block: dict, allowed, where: str) -> None:
    allowed = sorted(allowed)
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}; allowed: {allowed}")


def _reject_bad_values(integ: dict, well: dict) -> None:
    try:
        IntegratorControls(**integ)
    except ParamError as exc:
        raise ConfigError(str(exc)) from exc
    for key, least in (("directions", 0), ("modes", 1), ("refine_iters", 0)):
        value = well[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ConfigError(f"well_depth {key!r} must be an integer >= {least}, got {value!r}")


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

    def __post_init__(self):
        # here, not in from_dict, so the --seed and --out overrides meet the rule too
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConfigError(f"config 'seed' must be an integer >= 0, got {seed!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"config 'output_dir' must be a string, got {self.output_dir!r}")
        for name in ("initial_u", "initial_v"):
            amp = getattr(self, name)["amplitude"]
            if not finite_number(amp):
                raise ConfigError(f"{name} 'amplitude' must be a finite number, got {amp!r}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in raw and k not in _OPTIONAL]
        if missing:
            raise ConfigError(f"config missing keys: {missing}")
        raw = {**_OPTIONAL, **raw}
        for name in _BLOCKS:
            if not isinstance(raw[name], dict):
                raise ConfigError(f"{name} must be a JSON object, got {raw[name]!r}")
        _reject_unknown(raw, names, "config")
        for name, allowed in _BLOCKS.items():
            where = name
            if allowed is _KIRCHHOFF_KINDS:
                kind, _, keys = _kirchhoff_kind(raw[name], name)
                allowed, where = ("kind", "beta", *keys), f"{name} ({kind})"
            elif isinstance(allowed, dict):
                raw[name] = {**allowed, **raw[name]}
            if allowed is not None:
                _reject_unknown(raw[name], allowed, where)
        if raw["psi_variant"] not in PSI_VARIANTS:
            raise ConfigError(f"psi_variant must be {'|'.join(PSI_VARIANTS)}, "
                              f"got {raw['psi_variant']!r}")
        _reject_bad_values(raw["integrator"], raw["well_depth"])
        return cls(**{k: dict(raw[k]) if k in _BLOCKS else raw[k] for k in names})

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

    def _build_kfn(self, name: str, beta_default: float) -> KirchhoffFn:
        blk = getattr(self, name)
        _, make, keys = _kirchhoff_kind(blk, name)
        beta = blk.get("beta", beta_default)
        try:
            return make(**{k: blk[k] if d is None else blk.get(k, d) for k, d in keys.items()},
                        beta=beta)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid {name} block: {exc}") from exc

    def build_kirchhoff(self) -> tuple[KirchhoffFn, KirchhoffFn]:
        beta = float(self.params.get("beta", 0.0))
        return self._build_kfn("kirchhoff_p", beta), self._build_kfn("kirchhoff_q", beta)

    def build_initial_pair(self, grid: GridDomain) -> tuple[GridField, GridField]:
        def one(block: dict) -> GridField:
            try:
                return sample_field(grid, block["preset"], float(block["amplitude"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid initial-data block: {exc}") from exc
        return one(self.initial_u), one(self.initial_v)

    def run_dir(self) -> Path:
        """Per-run artifact directory: seed-named, timestamp-free."""
        return Path(self.output_dir) / f"run-seed{self.seed}"
