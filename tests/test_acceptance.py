"""End-to-end acceptance gate: ten numbered criteria, one test each.

Heavy runs are shared through module-scoped fixtures: a traffic
stiffness sweep feeds the trend criteria, and a full scenario battery
(every scenario at three stiffness values) feeds the invariant, mass,
and energy criteria.  Each test prints a single measurement line; run

    pytest tests/test_acceptance.py -v -s

to see the numbers behind every verdict.  The whole gate finishes in a
couple of minutes on a laptop.
"""

import warnings

import numpy as np
import pytest
from scipy import integrate

from jamflow.cli import main
from jamflow.config import parse_config
from jamflow.domain import make_state
from jamflow.pressure import SingularLaw, SteepnessWarning, TruncatedLaw
from jamflow.runner import build_problem, run_once, run_sweep
from jamflow.solver import track_ratio_transport

EPS_SWEEP = (1e-2, 1e-3, 1e-4)
ALL_SCENARIOS = (
    "traffic_1d",
    "lane_narrowing_1d",
    "pipe_1d",
    "crowd_blob_2d",
    "manufactured_1d",
)
UNFORCED = tuple(n for n in ALL_SCENARIOS if n != "manufactured_1d")
WALL_LIMIT_1D = 120.0
WALL_LIMIT_2D = 600.0


def quietly(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SteepnessWarning)
        return fn(*args, **kwargs)


def _verdict(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def _budget_positive(records):
    """Cumulative positive part of E(t2) - E(t1) + trapezoid(D)."""
    E = np.array([r.total_energy for r in records])
    D = np.array([r.dissipation_rate for r in records])
    t = np.array([r.t for r in records])
    resid = np.diff(E) + 0.5 * (D[1:] + D[:-1]) * np.diff(t)
    return float(np.sum(np.clip(resid, 0.0, None))), float(E[0])


def _record_fields_finite(records):
    for rec in records:
        vals = (
            rec.t, rec.kinetic, rec.internal, rec.singular_potential,
            rec.dissipation_rate, rec.mass, rec.max_ratio,
            rec.congested_measure, rec.pi_l1, rec.complementarity,
            rec.divu_congested,
        )
        if not np.all(np.isfinite(vals)):
            return False
    return True


@pytest.fixture(scope="module")
def traffic_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("traffic_sweep")
    cfg = quietly(
        parse_config,
        "[scenario]\nname = traffic_1d\n"
        "[sweep]\nkind = eps\nvalues = 1e-2, 1e-3, 1e-4\n",
    )
    return quietly(run_sweep, cfg, out_dir=out)


@pytest.fixture(scope="module")
def battery():
    """Every scenario at every sweep stiffness, reduced to scalar checks.

    States are inspected for the sign invariant and dropped immediately
    so the 2D members do not pile up in memory.
    """
    rows = {}
    for name in ALL_SCENARIOS:
        for eps in EPS_SWEEP:
            cfg = quietly(
                parse_config,
                f"[scenario]\nname = {name}\n",
                overrides=(f"pressure.eps={eps}",),
            )
            res = quietly(run_once, cfg, write_artifacts=False, keep_states=True)
            recs = res.records
            budget_pos, e0 = _budget_positive(recs) if recs else (np.nan, np.nan)
            m = np.array([r.mass for r in recs]) if recs else np.array([np.nan])
            rows[(name, eps)] = {
                "status": res.status,
                "error": res.error,
                "wall": res.wall_time,
                "barrier_tol": cfg.solver.barrier_tol,
                "peak": max((r.max_ratio for r in recs), default=np.inf),
                "min_rho": min(
                    (float(s.rho_interior.min()) for s in res.states),
                    default=np.inf,
                ),
                "finite": _record_fields_finite(recs),
                "drift": float(np.max(np.abs(m - m[0])) / m[0]),
                "budget_pos": budget_pos,
                "e0": e0,
            }
            res.states = []
    return rows


@pytest.fixture(scope="module")
def manufactured_errors():
    """L1 errors of the forced run against its analytic fields at t = 0.2."""
    errs = {}
    for n in (100, 200, 400):
        cfg = quietly(
            parse_config, f"[scenario]\nname = manufactured_1d\n[grid]\ncells = {n}\n"
        )
        res = quietly(run_once, cfg, write_artifacts=False, keep_states=False)
        assert res.status == "ok", res.error
        _, _, _, sol = build_problem(cfg)
        x = cfg.grid.centers(0)
        dx = cfg.grid.dx[0]
        st = res.final_state
        e_rho = float(np.sum(np.abs(st.rho_interior - sol.density(st.t, x))) * dx)
        e_mom = float(np.sum(np.abs(st.mom_interior[0] - sol.momentum(st.t, x))) * dx)
        errs[n] = (e_rho, e_mom)
    return errs


def test_criterion_01_barrier_invariant_and_runtime(battery):
    details = []
    ok = True
    for (name, eps), row in sorted(battery.items()):
        limit = WALL_LIMIT_2D if name == "crowd_blob_2d" else WALL_LIMIT_1D
        good = (
            row["status"] == "ok"
            and row["finite"]
            and row["min_rho"] >= 0.0
            and row["peak"] <= 1.0 - row["barrier_tol"]
            and row["wall"] < limit
        )
        if not good:
            ok = False
            details.append(f"{name}@{eps:g}: {row}")
    walls = [row["wall"] for row in battery.values()]
    peaks = [row["peak"] for row in battery.values()]
    _verdict(
        "criterion 01 barrier invariant",
        ok,
        details if details else
        f"15 runs ok, max ratio {max(peaks):.4f}, slowest {max(walls):.1f}s",
    )


def test_criterion_02_mass_conservation(battery):
    worst = max(row["drift"] for row in battery.values())
    _verdict(
        "criterion 02 mass conservation",
        worst <= 1e-12,
        f"worst relative drift {worst:.2e} over 15 runs",
    )


def test_criterion_03_energy_budget(battery):
    bad = []
    worst = 0.0
    for name in UNFORCED:
        for eps in EPS_SWEEP:
            row = battery[(name, eps)]
            rel = row["budget_pos"] / (1e-3 * row["e0"])
            worst = max(worst, rel)
            if row["budget_pos"] > 1e-3 * row["e0"]:
                bad.append(f"{name}@{eps:g}: {row['budget_pos']:.2e}")
    # the budget is a statement about the unforced system; the verification
    # scenario injects work through its sources, so it is left out
    _verdict(
        "criterion 03 energy budget",
        not bad,
        bad if bad else f"12 unforced runs within bound, worst at {worst:.2%} of the limit",
    )


def test_criterion_04_complementarity_trend(traffic_sweep):
    s = traffic_sweep.summary
    factor = s["complementarity_decrease_factor"]
    ok = bool(s["complementarity_strictly_decreasing"]) and factor is not None and factor >= 5.0
    _verdict(
        "criterion 04 complementarity trend",
        ok,
        f"strictly decreasing, end-to-end factor {factor:.1f}",
    )


def test_criterion_05_congested_divergence_trend(traffic_sweep):
    s = traffic_sweep.summary
    trend = s["congested_ratio_trend"]
    ok = bool(s["congested_ratio_decreasing"]) and len(trend) >= 2
    seq = ", ".join(
        f"{e['label']}: {e['ratio']:.3e} (delta_c {e['delta_c']:.3f})" for e in trend
    )
    _verdict("criterion 05 congested divergence trend", ok, seq)


def test_criterion_06_pressure_integral_bounded(traffic_sweep):
    ratio = traffic_sweep.summary["pi_l1_max_over_min"]
    _verdict(
        "criterion 06 pressure integral bounded",
        ratio is not None and ratio <= 10.0,
        f"time-integrated pressure max/min {ratio:.2f} across the sweep",
    )


def test_criterion_07_manufactured_convergence(manufactured_errors):
    orders = []
    for n1, n2 in ((100, 200), (200, 400)):
        e1, e2 = manufactured_errors[n1], manufactured_errors[n2]
        orders.append(np.log2(e1[0] / e2[0]))
        orders.append(np.log2(e1[1] / e2[1]))
    _verdict(
        "criterion 07 manufactured convergence",
        all(o >= 0.8 for o in orders),
        "orders " + ", ".join(f"{o:.2f}" for o in orders),
    )


def test_criterion_08_pressure_oracles():
    laws = [
        quietly(SingularLaw, 1e-3, 2.0, 2.0),
        quietly(SingularLaw, 1e-3, 2.0, 3.0),
        SingularLaw(2e-3, 3.0, 3.0),
    ]
    worst_quad = 0.0
    for law in laws:
        for r in (0.3, 0.5, 0.8, 0.9):
            gamma_oracle, _ = integrate.quad(
                lambda s: float(law.pressure(s)) / s**2, 0.0, r,
                epsabs=0.0, epsrel=1e-13, limit=600,
            )
            q_oracle, _ = integrate.quad(
                lambda s: float(law.pressure_deriv(s)) / s, 0.0, r,
                epsabs=0.0, epsrel=1e-13, limit=600,
            )
            worst_quad = max(
                worst_quad,
                abs(law.energy_potential(r) / gamma_oracle - 1.0),
                abs(law.enthalpy(r) / q_oracle - 1.0),
            )
    assert worst_quad <= 1e-10, f"quadrature mismatch {worst_quad:.2e}"

    worst_fd = 0.0
    h = 1e-7
    for law in laws:
        for r in np.linspace(0.05, 0.99, 25):
            fd = (law.pressure(r + h) - law.pressure(r - h)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(law.pressure_deriv(r) / fd - 1.0))
    assert worst_fd <= 1e-6, f"derivative mismatch {worst_fd:.2e}"

    worst_id = 0.0
    hh = 1e-6
    for law in laws:
        for r in np.linspace(0.1, 0.9, 17):
            grad = (law.energy_potential(r + hh) - law.energy_potential(r - hh)) / (2.0 * hh)
            lhs = law.energy_potential(r) + r * grad
            worst_id = max(worst_id, abs(lhs - law.enthalpy(r)))
    assert worst_id <= 1e-8, f"potential identity residual {worst_id:.2e}"

    rr = np.linspace(0.01, 0.999, 200)
    tight = quietly(TruncatedLaw, 1e-3, 3.0, 3.0, 1.0, 6.0, 0.025)
    mid = quietly(TruncatedLaw, 1e-3, 3.0, 3.0, 1.0, 6.0, 0.05)
    loose = quietly(TruncatedLaw, 1e-3, 3.0, 3.0, 1.0, 6.0, 0.1)
    assert np.all(tight.pressure(rr) >= mid.pressure(rr) - 1e-15)
    assert np.all(mid.pressure(rr) >= loose.pressure(rr) - 1e-15)

    _verdict(
        "criterion 08 pressure oracles",
        True,
        f"quad {worst_quad:.1e}, derivative {worst_fd:.1e}, identity {worst_id:.1e}, "
        "truncation ordering holds",
    )


def test_criterion_09_ratio_transport_consistency():
    gaps = {}
    for n in (100, 200):
        cfg = quietly(
            parse_config, f"[scenario]\nname = lane_narrowing_1d\n[grid]\ncells = {n}\n"
        )
        barrier, data, _, _ = build_problem(cfg)
        state = make_state(cfg.grid, data.rho0, data.mom0)
        final, ratio_adv = quietly(
            track_ratio_transport,
            state, cfg.solver.t_end, cfg.law, cfg.fluid, barrier, cfg.solver,
        )
        dx = cfg.grid.dx[0]
        gaps[n] = float(
            np.sum(np.abs(ratio_adv - final.rho_interior / barrier.interior)) * dx
        )
    ratio = gaps[100] / gaps[200]
    _verdict(
        "criterion 09 ratio transport consistency",
        1.5 <= ratio <= 2.5,
        f"gap {gaps[100]:.3e} at N=100 vs {gaps[200]:.3e} at N=200, "
        f"contraction {ratio:.2f}",
    )


def test_criterion_10_initial_data_gate(tmp_path):
    good = tmp_path / "good.ini"
    good.write_text("[scenario]\nname = traffic_1d\n")
    over_mass = tmp_path / "over_mass.ini"
    over_mass.write_text(
        "[scenario]\nname = pipe_1d\n"
        "initial_kind = fill_fraction\ninitial_fraction = 0.9\n"
    )
    over_barrier = tmp_path / "over_barrier.ini"
    over_barrier.write_text(
        "[scenario]\nname = traffic_1d\n"
        "initial_kind = constant\ninitial_value = 1.2\n"
    )
    codes = (
        main(["check", str(good)]),
        main(["check", str(over_mass)]),
        main(["check", str(over_barrier)]),
    )
    _verdict(
        "criterion 10 initial data gate",
        codes == (0, 2, 2),
        f"exit codes (valid, mean over barrier min, pointwise over barrier) = {codes}",
    )
