"""The array-level DP5(4) loop of ``integrate`` against the loop it replaced.

The oracle below is the previous stepper, kept verbatim: a right-hand side
on ``GridField`` pairs, each stage sum formed by Python's ``sum`` over fresh
arrays, and every trace row measured with its own pair pass.  The new loop
must give every trace column bit for bit, the same outcome and the same
number of right-hand sides, because the step controller turns any ulp into
a different step sequence.
"""

import math
import threading

import numpy as np
import pytest

from fracwell import (
    FiberingRay, GridField, IntegratorControls, KirchhoffFn, build_grid, dynamics, fracops,
    integrate, k_eval, sample_field, validate_params,
)
from fracwell.dynamics import (
    _DP_A, _DP_B4, _DP_B5, _GROWTH_FACTOR, RunOutcome, SimTrace,
)
from fracwell.fracops import _dense_pass, kernel
from fracwell.grids import discrete_norm
from fracwell.variational import _RAY_SUMS, _masked_log_product


def reference_rhs(u, v, params, K_p, K_q):
    p, q, sig, s = params.p, params.q, params.sigma, params.s
    (Lu, gag_u), (Lv, gag_v) = (_dense_pass(u.values, kernel(u.domain, p, s), True, True),
                                _dense_pass(v.values, kernel(v.domain, q, s), True, True))
    A, B = gag_u / p, gag_v / q
    uu, vv = u.values, v.values
    lg, _ = _masked_log_product(uu, vv)
    f1 = np.abs(vv) ** sig * np.sign(uu) * np.abs(uu) ** (sig - 1.0) * lg
    f2 = np.abs(uu) ** sig * np.sign(vv) * np.abs(vv) ** (sig - 1.0) * lg
    du = -(k_eval(K_p, A) / p) * Lu + f1
    dv = -(k_eval(K_q, B) / q) * Lv + f2
    return GridField(u.domain, du), GridField(v.domain, dv)


def reference_integrate(u0, v0, params, K_p, K_q, controls, calls):
    n = u0.domain.node_count
    domain = u0.domain
    hN = domain.cell_measure

    def f(y: np.ndarray) -> np.ndarray:
        calls.append(1)
        du, dv = reference_rhs(GridField(domain, y[:n]), GridField(domain, y[n:]),
                               params, K_p, K_q)
        return np.concatenate([du.values, dv.values])

    def sq_norm(w: np.ndarray) -> float:
        return float(np.sum(w ** 2) * hN)

    y = np.concatenate([u0.values, v0.values])
    initial_maxabs = float(np.max(np.abs(y)))
    t = 0.0
    D = 0.0
    rows: list[dict] = []

    def snapshot(t, dt, y, fy, D):
        uf = GridField(domain, y[:n])
        vf = GridField(domain, y[n:])
        ray = FiberingRay.from_pair(uf, vf, params, K_p, K_q)
        rows.append(dict(
            t=t, dt=dt, **{name: getattr(ray, name) for name in _RAY_SUMS},
            l2_u=discrete_norm(uf, 2.0), l2_v=discrete_norm(vf, 2.0),
            maxabs_u=uf.max_abs(), maxabs_v=vf.max_abs(), D=D,
            ut_sq=sq_norm(fy[:n]), vt_sq=sq_norm(fy[n:]),
        ))

    k1 = f(y)
    snapshot(t, 0.0, y, k1, D)
    dt = min(controls.dt_init, controls.t_end)
    if controls.dt_max is not None:
        dt = min(dt, controls.dt_max)

    def finish(kind, t, trigger=""):
        cols = {name: np.array([row[name] for row in rows]) for name in rows[0]}
        ray = FiberingRay(params, K_p, K_q, **{name: cols[name] for name in _RAY_SUMS})
        ones = np.ones(len(rows))
        cols.update(phi=ray.phi(ones), psi_consistent=ray.psi_consistent(ones),
                    psi_printed=ray.psi_printed(ones))
        cols["residual"] = cols["D"] + cols["phi"] - cols["phi"][0]
        cols["residual"][0] = 0.0
        return SimTrace({name: cols[name] for name in SimTrace.COLUMNS},
                        RunOutcome(kind, t, trigger), params)

    while t < controls.t_end:
        dt = min(dt, controls.t_end - t)
        ks = [k1]
        for i in range(1, 7):
            yi = y + dt * sum(a * k for a, k in zip(_DP_A[i], ks))
            ks.append(f(yi))
        y5 = y + dt * sum(b * k for b, k in zip(_DP_B5, ks) if b)
        y4 = y + dt * sum(b * k for b, k in zip(_DP_B4, ks) if b)
        err = float(np.max(np.abs(y5 - y4)))
        tol = controls.rtol * (1.0 + float(np.max(np.abs(y))))

        if not math.isfinite(err) or not np.all(np.isfinite(y5)):
            # overflow inside the step: counts as exceeding the norm threshold
            return finish("BlowUp", t, "norm_threshold")

        if err <= tol:
            t += dt
            # same-tableau stage quadrature of the dissipation integrand
            incr = dt * sum(b * (sq_norm(k[:n]) + sq_norm(k[n:]))
                            for b, k in zip(_DP_B5, ks) if b)
            D += max(incr, 0.0)
            y = y5
            k1 = ks[6]
            snapshot(t, dt, y, k1, D)
            maxabs = float(np.max(np.abs(y)))
            if maxabs > controls.blowup_threshold:
                return finish("BlowUp", t, "norm_threshold")

        fac = 0.9 * (tol / max(err, 1e-300)) ** 0.2
        dt *= min(5.0, max(0.2, fac))
        if controls.dt_max is not None:
            dt = min(dt, controls.dt_max)
        if dt < controls.dt_min:
            maxabs = float(np.max(np.abs(y)))
            if maxabs > _GROWTH_FACTOR * max(initial_maxabs, 1e-300):
                return finish("BlowUp", t, "dt_floor")
            return finish("StepUnderflow", t)

    return finish("CompletedHorizon", t)


UNIT = KirchhoffFn.constant(1.0)
POWER = KirchhoffFn.affine_power(1.0, 1.0, 0.25, beta=0.25)
FLAGSHIP = dict(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0)

# the example configs' runs at M = 48, and the decay run's start at M = 128
CASES = {
    "decay": (FLAGSHIP, UNIT, ("sine", 0.5), ("sine", 0.5), 48, 10.0, 1e-8),
    "kirchhoff_decay": (dict(FLAGSHIP, sigma=4.4, beta=0.25), POWER, ("sine", 0.2),
                        ("bump", 0.2), 48, 10.0, 1e-8),
    "blowup": (FLAGSHIP, UNIT, ("sine", 2.5), ("sine", 2.5), 48, 5.0, 1e-7),
    # a constant coefficient other than 1, whose a the inner stages use for K(A)
    "constant-2.5": (FLAGSHIP, KirchhoffFn.constant(2.5), ("sine", 0.5), ("bump", 0.7), 48,
                     10.0, 1e-8),
    "decay-M128": (FLAGSHIP, UNIT, ("sine", 0.5), ("sine", 0.5), 128, 0.2, 1e-8),
}


def both_runs(name, monkeypatch):
    prm, K, (pu, au), (pv, av), m, t_end, rtol = CASES[name]
    params = validate_params(**prm)
    grid = build_grid(1.0, m)
    u0, v0 = sample_field(grid, pu, au), sample_field(grid, pv, av)
    controls = IntegratorControls(t_end=t_end, rtol=rtol)
    ref_calls, new_calls = [], []
    want = reference_integrate(u0, v0, params, K, K, controls, ref_calls)
    real = dynamics.rhs
    monkeypatch.setattr(dynamics, "rhs", lambda *a: new_calls.append(1) or real(*a))
    got = integrate(u0, v0, params, K, K, controls)
    return want, got, len(ref_calls), len(new_calls)


def assert_same_run(want, got, ref_calls, new_calls):
    assert got.outcome == want.outcome
    assert new_calls == ref_calls
    for name in SimTrace.COLUMNS:
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("name", ["decay", "kirchhoff_decay", "blowup", "constant-2.5"])
def test_loop_equals_reference_stepper(name, monkeypatch):
    want, got, ref_calls, new_calls = both_runs(name, monkeypatch)
    assert_same_run(want, got, ref_calls, new_calls)
    assert len(got) > 20
    if name == "blowup":
        assert got.outcome.kind == "BlowUp" and got.outcome.trigger == "dt_floor"
    else:
        assert got.outcome.kind == "CompletedHorizon"


def test_loop_equals_reference_stepper_at_m128(monkeypatch):
    threads = set()
    real = fracops._dense_pass
    monkeypatch.setattr(fracops, "_dense_pass",
                        lambda *a: threads.add(threading.get_ident()) or real(*a))
    assert_same_run(*both_runs("decay-M128", monkeypatch))
    assert threads == {threading.get_ident()}


def test_rhs_writes_into_out(flagship_params):
    grid = build_grid(1.0, 24)
    u, v = sample_field(grid, "sine", 0.7), sample_field(grid, "bump", 1.3)
    du, dv = reference_rhs(u, v, flagship_params, POWER, UNIT)
    y = np.concatenate([u.values, v.values])
    out = np.full(48, np.nan)
    flow = dynamics.Flow.on(grid, flagship_params, POWER, UNIT)
    assert dynamics.rhs(y, flow, out) is out
    assert out.tobytes() == np.concatenate([du.values, dv.values]).tobytes()
    assert dynamics.rhs(y, flow).tobytes() == out.tobytes()
