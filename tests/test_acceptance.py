"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Shared expensive runs (the flash and yeast case studies) are module-scoped
fixtures. Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from oed import (
    AlgoConfig,
    Criterion,
    SigmaEps,
    run_adagpr,
    run_vdm,
    run_ybt,
)
from oed.acquisition import acquisition_value
from oed.bench import flash_grid, quadratic_grid, run_suite, yeast_grid
from oed.designs import (
    directional_derivatives,
    fisher_at_points,
    information_matrix,
)
from oed.flash import (
    METHANOL,
    methanol_acetone_flash,
    methanol_water_flash,
    vapor_pressure,
)
from oed.gp import KernelParams, fit, kernel_matrix
from oed.models import QuadraticModel
from oed.yeast import DEFAULT_STEP_H, YeastModel, simulate_batch
from oracles import posterior_stack, rk4_step

ATM_PA = 101_325.0
# Measurement-error scaling used for the design-structure checks: 0.01 mol/mol
# on the vapor fraction, 1 K on the temperature. The identity default mixes
# units (K vs mol/mol); this physical scaling reproduces the published support
# structure for the methanol-water feed.
FLASH_SIGMA_SCALED = SigmaEps.from_covariance(np.diag([1e-4, 1.0]))


def report_criterion(num: int, ok: bool, detail: str):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def log10_det(report) -> float:
    return float(np.linalg.slogdet(report.information_matrix)[1] / np.log(10.0))


def audit_min_phi(report, audit_points) -> float:
    model = QuadraticModel()
    design_mus = fisher_at_points(model.jacobian_batch(report.design.points))
    audit_mus = fisher_at_points(model.jacobian_batch(audit_points))
    M = information_matrix(report.design.weights, design_mus)
    return float(directional_derivatives(M, audit_mus, Criterion.LOGD).min())


@pytest.fixture(scope="module")
def quadratic_runs():
    grid = quadratic_grid(201)
    cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=0)
    return {
        "vdm": run_vdm(QuadraticModel(), grid, cfg),
        "ybt": run_ybt(QuadraticModel(), grid, cfg),
        "adagpr": run_adagpr(QuadraticModel(),
                             AlgoConfig(criterion=Criterion.LOGD, rng_seed=0,
                                        n_initial=10)),
    }


@pytest.fixture(scope="module")
def flash_identity_runs():
    grid = flash_grid()
    cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=0)
    return {
        "vdm": run_vdm(methanol_water_flash(), grid, cfg),
        "ybt": run_ybt(methanol_water_flash(), grid, cfg),
        "adagpr": run_adagpr(methanol_water_flash(),
                             AlgoConfig(criterion=Criterion.LOGD, rng_seed=0,
                                        n_initial=50)),
    }


@pytest.fixture(scope="module")
def flash_structure_runs():
    grid = flash_grid()
    cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=0,
                     sigma_eps=FLASH_SIGMA_SCALED)
    return {
        "water": run_ybt(methanol_water_flash(), grid, cfg),
        "acetone": run_ybt(methanol_acetone_flash(), grid, cfg),
    }


@pytest.fixture(scope="module")
def yeast_runs():
    grid = yeast_grid()
    runs = {}
    for form in ("as-printed", "classical"):
        cfg = AlgoConfig(criterion=Criterion.LOGD, rng_seed=0)
        runs[form] = {
            "ybt": run_ybt(YeastModel(substrate_form=form), grid, cfg),
            "adagpr": run_adagpr(
                YeastModel(substrate_form=form),
                AlgoConfig(criterion=Criterion.LOGD, rng_seed=0, n_initial=200,
                           max_iterations=600)),
        }
    return runs


def test_criterion_1_equivalence_certification(quadratic_runs):
    audit = np.linspace(-1.0, 1.0, 2001)[:, None]
    details = []
    ok = True
    for name, report in quadratic_runs.items():
        min_phi = audit_min_phi(report, audit)
        runtime = report.timings["total"]
        ok &= min_phi >= -1e-3 and runtime < 10.0
        details.append(f"{name}: min phi {min_phi:.2e} in {runtime:.1f}s")
    report_criterion(1, ok, "; ".join(details))


def test_criterion_2_classical_optimum_recovery(quadratic_runs):
    ok = True
    details = []
    total_runtime = 0.0
    for name, report in quadratic_runs.items():
        clustered = report.clustered_design
        total_runtime += report.timings["total"]
        run_ok = clustered.n_points == 3
        worst_pt = worst_w = 0.0
        if run_ok:
            for target in (-1.0, 0.0, 1.0):
                k = int(np.argmin(np.abs(clustered.points[:, 0] - target)))
                worst_pt = max(worst_pt, abs(clustered.points[k, 0] - target))
                worst_w = max(worst_w, abs(clustered.weights[k] - 1 / 3))
            run_ok = worst_pt <= 0.02 and worst_w <= 0.02
        ok &= run_ok
        details.append(f"{name}: support off {worst_pt:.3f}, weights off {worst_w:.3f}")
    ok &= total_runtime < 30.0
    report_criterion(2, ok, "; ".join(details) + f"; total {total_runtime:.1f}s")


def test_criterion_3_vdm_ybt_agreement(flash_identity_runs):
    vdm, ybt = flash_identity_runs["vdm"], flash_identity_runs["ybt"]
    gap = abs(log10_det(vdm) - log10_det(ybt))
    runtime = vdm.timings["total"] + ybt.timings["total"]
    ok = gap < 2e-3 and ybt.iterations <= 30 and runtime < 300.0
    report_criterion(3, ok, f"|obj(VDM) - obj(YBT)| = {gap:.2e} "
                            f"(VDM {log10_det(vdm):.4f}, YBT {log10_det(ybt):.4f}), "
                            f"YBT iterations {ybt.iterations}, {runtime:.0f}s")


def test_criterion_4_flash_design_structure(flash_structure_runs):
    water = flash_structure_runs["water"].design
    acetone = flash_structure_runs["acetone"].design

    def pressure_ok(p):
        return p <= 0.6 or p >= 4.9 or 1.0 <= p <= 2.1

    ok_water = (4 <= water.n_points <= 6
                and bool(np.all(water.points[:, 0] < 0.3))
                and all(pressure_ok(p) for p in water.points[:, 1]))
    ok_acetone = (4 <= acetone.n_points <= 6
                  and bool(np.any(acetone.points[:, 0] > 0.7)))
    report_criterion(
        4, ok_water and ok_acetone,
        f"water: {water.n_points} points, max x_M {water.points[:, 0].max():.3f}; "
        f"acetone: {acetone.n_points} points, max x_M {acetone.points[:, 0].max():.3f}")


def test_criterion_5_adagpr_efficiency(flash_identity_runs):
    adagpr, ybt = flash_identity_runs["adagpr"], flash_identity_runs["ybt"]
    gap = log10_det(ybt) - log10_det(adagpr)
    ok = (adagpr.jacobian_evals <= 400
          and gap <= 0.05
          and adagpr.timings["total"] < 300.0)
    report_criterion(5, ok,
                     f"{adagpr.jacobian_evals} Jacobians (grid methods: 9191), "
                     f"objective gap to YBT {gap:.4f} (published pattern: 0.021)")


def test_criterion_6_yeast_coarse_grid_dominance(yeast_runs):
    ok = True
    details = []
    runtime = 0.0
    for form, runs in yeast_runs.items():
        obj_ybt = log10_det(runs["ybt"])
        obj_ada = log10_det(runs["adagpr"])
        runtime += runs["ybt"].timings["total"] + runs["adagpr"].timings["total"]
        form_ok = obj_ada >= obj_ybt - 1e-3
        ok &= form_ok
        details.append(f"{form}: ADA-GPR {obj_ada:.4f} vs grid-YBT {obj_ybt:.4f} "
                       f"({'>=' if form_ok else '<'} Ybt-1e-3)")
    ok &= runtime < 1200.0
    report_criterion(
        6, ok,
        "; ".join(details) + f"; {runtime:.0f}s (published pattern: 8.70 vs 8.03, "
        "not asserted numerically)")


def _separated_points(rng, n, d, min_sep=0.08):
    # alpha = 0 interpolation needs a well-conditioned Gram matrix, so keep
    # training points separated relative to the lengthscale.
    pts = [rng.uniform(size=d)]
    tries = 0
    while len(pts) < n and tries < 500:
        cand = rng.uniform(size=d)
        if min(np.linalg.norm(cand - p) for p in pts) >= min_sep:
            pts.append(cand)
        tries += 1
    return np.array(pts)


def test_criterion_7_gpr_correctness():
    rng = np.random.default_rng(2024)
    worst_interp = 0.0
    # interpolation at alpha = 0
    for _ in range(10):
        n, d = int(rng.integers(3, 11)), int(rng.integers(1, 4))
        X = _separated_points(rng, n, d)
        y = rng.normal(size=len(X))
        gp = fit(X, y, KernelParams(float(rng.uniform(0.5, 2.0)),
                                    float(rng.uniform(0.08, 0.25)), 0.0))
        pred, variances = posterior_stack(gp, X)
        worst_interp = max(worst_interp, float(np.abs(pred - y).max()),
                           float(variances.max()))
    interp_ok = worst_interp <= 1e-8

    # posterior + acquisition gradients vs central differences (h = 1e-6);
    # targets drawn from the prior keep the FD oracle itself accurate.
    h = 1e-6
    checked = 0
    worst_ratio = 0.0
    while checked < 100:
        n, d = int(rng.integers(4, 13)), int(rng.integers(1, 4))
        X = rng.uniform(size=(n, d))
        params = KernelParams(float(rng.uniform(0.5, 2.0)),
                              float(rng.uniform(0.3, 1.0)), 1e-6)
        K = kernel_matrix(X, X, params) + 1e-8 * np.eye(n)
        y = np.linalg.cholesky(K) @ rng.normal(size=n)
        gp = fit(X, y, params)
        x0 = None
        for _ in range(50):
            cand = rng.uniform(0.05, 0.95, size=d)
            _, var, _, _ = gp.posterior(cand)
            if var >= 1e-3 * params.signal_variance:
                x0 = cand
                break
        if x0 is None:
            continue
        checked += 1
        tau = float(rng.integers(0, 2))
        _, _, mean_grad, var_grad = gp.posterior(x0)
        _, acq_grad = acquisition_value(gp, tau, x0)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            mp, vp, _, _ = gp.posterior(x0 + e)
            mm, vm, _, _ = gp.posterior(x0 - e)
            ap, _ = acquisition_value(gp, tau, x0 + e)
            am, _ = acquisition_value(gp, tau, x0 - e)
            for analytic, fd in ((mean_grad[k], (mp - mm) / (2 * h)),
                                 (var_grad[k], (vp - vm) / (2 * h)),
                                 (acq_grad[k], (ap - am) / (2 * h))):
                bound = 1e-7 + 1e-5 * max(abs(fd), abs(analytic))
                worst_ratio = max(worst_ratio, abs(analytic - fd) / bound)
    grads_ok = worst_ratio <= 1.0
    report_criterion(7, interp_ok and grads_ok,
                     f"interpolation residual {worst_interp:.1e} (<=1e-8); "
                     f"worst gradient error at {worst_ratio:.2f} of the 1e-5 "
                     f"tolerance over 100 instances")


def test_criterion_8_sub_model_oracles():
    # Flash: bubble points against an independent root solve of the
    # pure-component vapor-pressure curve.
    flash = methanol_water_flash()
    _, t_water = flash.eval([0.0, 1.01325])
    water_ok = abs(t_water - 100.0) <= 0.5
    t_methanol_oracle = brentq(lambda T: vapor_pressure(METHANOL, T) - ATM_PA,
                               250.0, 600.0) - 273.15
    _, t_methanol = flash.eval([1.0, 1.01325])
    methanol_ok = abs(t_methanol - t_methanol_oracle) <= 1.0

    # Yeast: decoupled exponential decay and RK4 step-halving drift.
    x = np.array([5.0] + [0.05] * 5 + [20.0] * 5)
    decay = simulate_batch(x, np.array([0.0, 0.5, 0.5, 0.0]))[0]
    expected = 5.0 * np.exp(-0.05 * np.arange(2, 22, 2))
    decay_ok = bool(np.max(np.abs(decay[:10] - expected) / expected) < 1e-6)

    rng = np.random.default_rng(7)
    model = YeastModel()
    drift = 0.0
    for _ in range(10):
        xr = rng.uniform(model.bounds.lower, model.bounds.upper)
        a = simulate_batch(xr, [0.5] * 4, step=DEFAULT_STEP_H)[0]
        b = simulate_batch(xr, [0.5] * 4, step=DEFAULT_STEP_H / 2)[0]
        drift = max(drift, float(np.max(np.abs((a - b) / b))))
    rk4_single = rk4_step(lambda t, s: -s, 0.0, np.array([1.0]), 0.1)[0]
    rk4_ok = abs(rk4_single - np.exp(-0.1)) < 1e-7

    report_criterion(
        8, water_ok and methanol_ok and decay_ok and drift < 1e-6 and rk4_ok,
        f"water bubble point {t_water:.2f} C (100 +/- 0.5); methanol "
        f"{t_methanol:.2f} C vs oracle {t_methanol_oracle:.2f} C (+/- 1; the "
        f"published coefficient table places it 2.3 C below the physical "
        f"64.6 C); decay and RK4 drift {drift:.1e} (<1e-6)")


def test_criterion_9_bench_determinism(tmp_path):
    first = run_suite("quadratic", tmp_path / "a", seed=0, echo=lambda *_: None)
    second = run_suite("quadratic", tmp_path / "b", seed=0, echo=lambda *_: None)
    ok = True
    pairs = []
    for (name_a, _, paths_a), (_, _, paths_b) in zip(first, second):
        same = paths_a["design"].read_bytes() == paths_b["design"].read_bytes()
        ok &= same
        pairs.append(f"{name_a}: {'identical' if same else 'DIFFERS'}")
    report_criterion(9, ok, "; ".join(pairs))
