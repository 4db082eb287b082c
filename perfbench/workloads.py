"""Seeded workload generator.

Each workload is a fixed list of ``fracwell simulate`` operations whose
configs are generated from the workload seed.  The seed sets the config
``seed`` (the well-depth direction stream) and, for the sweep, the
amplitudes.  The base
configs are copies of the three example configs as they were when the
benchmark was defined, so that later edits to ``configs/`` do not change what
the benchmark runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

_PARAMS = {"N": 1, "s": 0.5, "p": 3.0, "q": 3.5, "sigma": 4.0, "beta": 0.0}
_UNIT_K = {"kind": "affine_power", "a": 1.0, "b": 0.0, "c": 1.0}
_WELL = {"directions": 200, "modes": 6, "refine_iters": 0}


def _integrator(t_end: float, rtol: float) -> dict:
    return {"t_end": t_end, "dt_init": 1e-6, "dt_min": 1e-13, "rtol": rtol,
            "blowup_threshold": 1e8, "dt_max": None}


def _config(params, kp, kq, u, v, integrator) -> dict:
    return {
        "params": dict(params), "grid": {"extents": [1.0], "counts": [48]},
        "kirchhoff_p": dict(kp), "kirchhoff_q": dict(kq),
        "initial_u": dict(u), "initial_v": dict(v), "integrator": integrator,
        "psi_variant": "consistent", "well_depth": dict(_WELL),
        "output_dir": "out", "seed": 1,
    }


BASE_CONFIGS = {
    "decay": _config(_PARAMS, _UNIT_K, _UNIT_K,
                     {"preset": "sine", "amplitude": 0.5}, {"preset": "sine", "amplitude": 0.5},
                     _integrator(10.0, 1e-8)),
    "blowup": _config(_PARAMS, _UNIT_K, _UNIT_K,
                      {"preset": "sine", "amplitude": 2.5}, {"preset": "sine", "amplitude": 2.5},
                      _integrator(5.0, 1e-7)),
    "kirchhoff_decay": _config(
        {**_PARAMS, "sigma": 4.4, "beta": 0.25},
        {"kind": "affine_power", "a": 1.0, "b": 1.0, "c": 0.25},
        {"kind": "affine_power", "a": 1.0, "b": 1.0, "c": 0.25},
        {"preset": "sine", "amplitude": 0.2}, {"preset": "bump", "amplitude": 0.2},
        _integrator(10.0, 1e-8)),
}

SWEEP_RANGE = (0.2, 3.0)
SWEEP_PER_CONFIG = 7


@dataclass(frozen=True)
class Op:
    """One CLI operation: ``fracwell simulate --config <file>``."""

    label: str
    config: dict


def _base(name: str, seed: int) -> dict:
    cfg = copy.deepcopy(BASE_CONFIGS[name])
    cfg["seed"] = seed
    return cfg


def simulate_1d_m256(seed: int) -> list[Op]:
    cfg = _base("decay", seed)
    cfg["grid"]["counts"] = [256]
    return [Op("decay-M256", cfg)]


def sweep_amplitudes(seed: int) -> dict[str, list[float]]:
    """Seven amplitudes per config, one in each of seven equal strata of
    SWEEP_RANGE: the stratum midpoint plus a seeded offset of at most 1/8 of
    the stratum width.  The offsets change the inputs with the seed; keeping
    them small keeps every seed's mix of decay, threshold and blow-up runs
    (and so its work) the same, since a run's cost jumps by about 2x where
    its amplitude crosses the blow-up threshold (between 1.25 and 1.4 for
    the three configs)."""
    rng = np.random.default_rng(seed)
    lo, hi = SWEEP_RANGE
    width = (hi - lo) / SWEEP_PER_CONFIG
    return {name: [lo + width * (k + 0.5 + 0.25 * (float(rng.random()) - 0.5))
                   for k in range(SWEEP_PER_CONFIG)]
            for name in BASE_CONFIGS}


def sweep_1d_m48(seed: int) -> list[Op]:
    ops = []
    for name, amps in sweep_amplitudes(seed).items():
        for k, amp in enumerate(amps):
            cfg = _base(name, seed)
            cfg["initial_u"]["amplitude"] = amp
            cfg["initial_v"]["amplitude"] = amp
            ops.append(Op(f"{name}-a{k}", cfg))
    return ops


WORKLOADS = {
    "simulate-1d-M256": simulate_1d_m256,
    "sweep-1d-M48": sweep_1d_m48,
}


def build(name: str, seed: int) -> list[Op]:
    if seed < 0:
        raise ValueError(f"workload seed must be non-negative, got {seed}")
    return WORKLOADS[name](seed)
