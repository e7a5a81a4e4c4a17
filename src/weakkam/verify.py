"""Invariant measurements behind the `verify` subcommand, shared with the tests.

One measurement function per invariant: it takes its inputs (models, grids,
solutions, a seeded generator) and returns the measured numbers, re-derived
independently (finite differences, closed forms, k-sweeps).  Each bound is a
module constant.  `run_checks` calls every function on its own inputs and
reports pass/fail with the measurement, so a report reads as evidence rather
than as assertions; the tests call the same functions on their fixtures and
assert the same constants.  `run_checks` solves one pendulum continuation, at
P = 1.5 where the corrector is not trivial, and every `solver.*` check that
reads a solve and every `measure.*` check reads that one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cell, fields, hamiltonians, measures, oracle1d, swingsim
from .config import RunConfig

__all__ = [
    "CheckResult", "run_checks",
    "adjointness_defect", "constant_gradient", "gradient_mean", "log_mean_exp_defects",
    "derivative_defect", "convexity_violation", "fenchel_defects", "periodicity_defect",
    "objective_gradient_defect", "integrable_exactness", "separable_defect",
    "fibered_separable_defect", "descent_defects",
    "monotonicity_defect", "infmax_defect", "weak_residual_excess",
    "measure_identity_defects", "closedness", "energy_envelope_defects",
    "energy_concentration", "oracle_shape", "free_motion_error", "drift_and_order",
    "reversibility_error",
]

# calculus
ADJOINT_RTOL = 1e-12            # |<grad f, G> + <f, div G>| relative to |<grad f, G>|
CONSTANT_GRADIENT_TOL = 1e-13
GRADIENT_MEAN_TOL = 1e-13
LOG_MEAN_EXP_TOL = 1e-12        # decrease in k, and mean above the value (Jensen)
# hamiltonians
DERIVATIVE_RTOL = 1e-6          # against central differences, relative to max(1, max|H|)
CONVEXITY_TOL = 1e-10           # midpoint inequality with margin |y1 - y2|^2 / 8
FENCHEL_TOL = 1e-8              # beta.y <= L(beta) + H(y)
FENCHEL_EQUALITY_TOL = 1e-10    # equality at beta = D_yH(y)
PERIODICITY_TOL = 1e-13
# cell solver
OBJECTIVE_GRADIENT_RTOL = 1e-5
INTEGRABLE_TOL = 1e-12          # |Hbar_k - P^2/2| and max|v| from v = 0
INTEGRABLE_MAX_ITERS = 2
SEPARABLE_TOL = 1e-10           # |Hbar_k of an uncoupled n=2 pair - the sum of its rotors'|
DESCENT_TOL = 1e-12             # objective increase per step, |mean v|
MONOTONE_SLACK = cell.MONOTONE_SLACK    # continuation_solve's own slack
INFMAX_TOL = 1e-10
STATIONARITY_TOL = 1e-6         # weak Euler-Lagrange residual: closedness of the measure
WEAK_RESIDUAL_SLACK = 1e-12     # el_residual above grad_norm / sqrt 2 (round-off)
# measures
MASS_TOL = 1e-12
DENSITY_IDENTITY_TOL = 1e-10    # log density against k (H - Hbar_k)
RENORM_TOL = 1e-8
# Envelope constants, calibrated once on the pendulum k-sweep and frozen:
# max-node energy obeys  max H <= Hbar_k + C log(k)/k   (measured C ~ 0.94)
# mean energy obeys      Hbar_k <= mean <= Hbar_k + A log(k)/k  (measured A ~ 0.69)
ENERGY_BOUND_C = 1.5
ENERGY_MEAN_A = 1.0
ENERGY_MEAN_SLACK = 1e-10       # round-off below the lower mean bound
SPEED_SLACK = 1e-12             # |Q| above sup |D_x u|
# oracle
EVENNESS_TOL = 1e-12
FLAT_TOL = 1e-12
ORACLE_CONVEXITY_TOL = 1e-9
SUPERLINEAR_GAIN = 1.0          # Hbar(3) - Hbar(2) at least
# simulator
FREE_MOTION_TOL = 1e-10
DRIFT_TOL = 1e-6                # relative energy drift over 1e4 steps
HALVING_RATIO = 3.5             # energy error ratio per halving of dt (4 for 2nd order)
REVERSIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _models():
    beta = ((hamiltonians.TrigPoly(0.8, (((1,), 0.3, 0.1),)),),)
    swing = hamiltonians.SwingModel(alpha=[0.0], beta=beta, lam=[0.5], omega=[np.sqrt(2.0)])
    return [hamiltonians.make_integrable(2), hamiltonians.make_pendulum(1.0), swing]


def _pendulum_continuation(cfg: RunConfig):
    model = hamiltonians.make_pendulum(1.0)
    grid = fields.TorusGrid(n=1, m=0, N_x=max(128, cfg.N_x), diff_mode="spectral")
    opts = cell.SolverOptions(gtol=cfg.gtol, max_iter=cfg.max_iter)
    return model, cell.continuation_solve(model, [1.5], cfg.k_schedule, cfg.tau_steps,
                                          grid, opts)


def run_checks(cfg: RunConfig | None = None) -> list[CheckResult]:
    cfg = cfg or RunConfig()
    rng = np.random.default_rng(cfg.seed)
    out: list[CheckResult] = []
    try:
        solved = _pendulum_continuation(cfg)
    except Exception as exc:                # each check that reads it fails with it
        solved = exc

    def pendulum():
        if isinstance(solved, Exception):
            raise solved
        return solved

    def check(name, measure, judge):
        try:
            value = measure()
            passed, detail = judge(*value) if isinstance(value, tuple) else judge(value)
        except Exception as exc:            # a crash is a failed invariant
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(CheckResult(name, bool(passed), detail))

    modes = ("spectral", "fd2")
    models = _models()
    # spectral derivatives past fields.PRODUCT_MAX_N_X run on the FFT, not the
    # matrix product: each calculus identity holds on one such grid too
    fft_grid = fields.TorusGrid(n=2, m=1, N_x=256, N_phi=2)
    check("calculus.adjoint-gradient-divergence",
          lambda: max(adjointness_defect(grid, rng) for grid in [
              *(fields.TorusGrid(n=n, m=m, N_x=32, N_phi=4, diff_mode=mode)
                for mode in modes for n, m in ((1, 0), (1, 1), (2, 1))), fft_grid]),
          lambda d: (d <= ADJOINT_RTOL, f"max relative defect {d:.2e}"))
    check("calculus.gradient-of-constant-vanishes",
          lambda: max(constant_gradient(grid, 4.2) for grid in [
              *(fields.TorusGrid(n=2, m=1, N_x=16, N_phi=4, diff_mode=mode)
                for mode in modes), fft_grid]),
          lambda d: (d <= CONSTANT_GRADIENT_TOL, f"max |grad const| {d:.2e}"))
    check("calculus.gradient-has-zero-mean",
          lambda: gradient_mean(fields.TorusGrid(n=2, m=0, N_x=32), rng, samples=5),
          lambda d: (d <= GRADIENT_MEAN_TOL, f"max |mean grad| {d:.2e}"))
    check("calculus.log-mean-exp-monotone-and-jensen",
          lambda: log_mean_exp_defects(fields.TorusGrid(n=1, m=1, N_x=32, N_phi=4), rng,
                                       [0.5, 1.0, 2.0, 4.0, 8.0, 32.0], samples=5),
          lambda mono, jensen: (max(mono, jensen) <= LOG_MEAN_EXP_TOL,
                                f"monotone defect {mono:.1e}, jensen defect {jensen:.1e}"))
    check("hamiltonian.derivatives-match-finite-differences",
          lambda: max(derivative_defect(m, rng) for m in models),
          lambda d: (d <= DERIVATIVE_RTOL,
                     f"max relative defect {d:.2e} over 100 points/model"))
    check("hamiltonian.uniform-convexity-midpoint",
          lambda: max(convexity_violation(m, rng, draws=50) for m in models),
          lambda d: (d <= CONVEXITY_TOL, f"max violation {d:.2e}"))
    check("hamiltonian.fenchel-young-duality",
          lambda: tuple(np.max([fenchel_defects(m, rng, draws=30) for m in models], axis=0)),
          lambda ineq, eq: (ineq <= FENCHEL_TOL and eq <= FENCHEL_EQUALITY_TOL,
                            f"inequality defect {ineq:.1e}, matched-pair gap {eq:.1e}"))
    check("hamiltonian.swing-torus-periodicity",
          lambda: max(periodicity_defect(m, rng, points=40) for m in (
              hamiltonians.SwingModel(
                  alpha=[0.0], beta=((hamiltonians.TrigPoly(1.0, (((1,), 0.5, 0.0),)),),),
                  lam=[0.5], omega=[1.0]),
              hamiltonians.SwingModel(
                  alpha=[0.0, 0.0],
                  beta=((hamiltonians.TrigPoly(0.7), hamiltonians.TrigPoly(0.4)),
                        (hamiltonians.TrigPoly(0.0), hamiltonians.TrigPoly(0.3))),
                  lam=[1.0, 2.0]))),
          lambda d: (d <= PERIODICITY_TOL, f"max |H(x+2pi e) - H| = {d:.2e}"))
    check("solver.objective-gradient-vs-central-differences",
          lambda: max(objective_gradient_defect(
              cell.CellProblem(model, P, 6.0,
                               fields.TorusGrid(n=model.n, m=model.m, N_x=32, N_phi=4)),
              rng, amplitude=0.3)
              for model, P in ((hamiltonians.make_integrable(1), [0.7]),
                               (models[1], [0.9]), (models[2], [0.6]))),
          lambda d: (d <= OBJECTIVE_GRADIENT_RTOL,
                     f"max relative defect {d:.2e} over 20 directions/model"))
    check("solver.integrable-exactness",
          lambda: integrable_exactness(fields.TorusGrid(n=1, m=0, N_x=64), 8.0),
          lambda h, v, iters, converged, _: (
              h <= INTEGRABLE_TOL and v <= INTEGRABLE_TOL
              and iters <= INTEGRABLE_MAX_ITERS and converged,
              f"|Hbar - P^2/2| {h:.1e}, max|v| {v:.1e}, iters {iters}"))
    check("solver.separable-2d-identity",
          lambda: max(separable_defect(fields.TorusGrid(n=2, m=0, N_x=16, diff_mode=mode))
                      for mode in modes),
          lambda d: (d <= SEPARABLE_TOL,
                     f"max |Hbar2 - Hbar1(P1) - Hbar1(P2)| {d:.2e} at k = 4, 8, 16"))
    check("solver.fibered-separable-identity",
          lambda: max(fibered_separable_defect(
              fields.TorusGrid(n=2, m=m, N_x=16, N_phi=4, diff_mode=mode))
              for mode in modes for m in (1, 2)),
          lambda d: (d <= SEPARABLE_TOL,
                     f"max |Hbar2 - Hbar1(P1) - Hbar1(P2)| {d:.2e} at k = 4, 8, m = 1, 2"))
    check("solver.descent-and-mean-zero",
          lambda: descent_defects(pendulum()[1]),
          lambda up, mean: (max(up, mean) <= DESCENT_TOL,
                            f"max increase {up:.1e}, |mean v| {mean:.1e}"))
    check("solver.effective-energy-monotone-in-k",
          lambda: monotonicity_defect(pendulum()[1]),
          lambda d: (d <= MONOTONE_SLACK, f"max decrease along schedule {d:.2e}"))
    check("solver.inf-max-upper-bound",
          lambda: infmax_defect(pendulum()[0], pendulum()[1][-1], rng),
          lambda d: (d <= INFMAX_TOL, f"max (Hbar - sup H) over candidates {d:.2e}"))
    check("solver.weak-residual-below-gradient",
          lambda: weak_residual_excess(pendulum()[1]),
          lambda d: (d <= WEAK_RESIDUAL_SLACK, f"max el_residual - grad_norm/sqrt2 {d:.2e}"))
    check("measure.normalization-and-density-identity",
          lambda: measure_identity_defects(*pendulum()),
          lambda mass, ident, renorm: (
              mass <= MASS_TOL and ident <= DENSITY_IDENTITY_TOL and renorm <= RENORM_TOL,
              f"norm defect {mass:.1e}, identity defect {ident:.1e}, renorm {renorm:.1e}"))
    check("measure.closedness",
          lambda: closedness(pendulum()[1]),
          lambda r: (r <= STATIONARITY_TOL, f"max closedness {r:.2e} (tol {STATIONARITY_TOL:g})"))
    check("measure.energy-bounds-envelope",
          lambda: energy_envelope_defects(pendulum()[1]),
          lambda top, lo, hi: (max(top, lo, hi) <= 0.0,
                               f"max-H defect {top:.1e}, mean bounds defects "
                               f"{lo:.1e}/{hi:.1e}"))
    check("measure.energy-concentration-in-k",
          lambda: energy_concentration(pendulum()[1]),
          lambda var, speed: (var[-1] < var[0] and speed <= SPEED_SLACK,
                              f"var k={pendulum()[1][0].k:g}: {var[0]:.2e} -> "
                              f"k={pendulum()[1][-1].k:g}: {var[-1]:.2e}"))
    check("oracle.evenness-flat-piece-convexity",
          lambda: oracle_shape(oracle1d.Potential1D.from_callable(lambda x: 1.0 - np.cos(x))),
          lambda even, flat, convex, gain, step: (
              even <= EVENNESS_TOL and flat <= FLAT_TOL and convex <= ORACLE_CONVEXITY_TOL
              and gain >= SUPERLINEAR_GAIN and step > 0,
              f"evenness {even:.1e}, flat defect {flat:.1e}, convexity defect {convex:.1e}"))
    # the free rotor, autonomous and driven: a driven model with no active
    # term has an empty drive table and must still take every step
    check("sim.free-motion-rotation-exact",
          lambda: tuple(free_motion_error(hamiltonians.make_integrable(1, m)) for m in (0, 1)),
          lambda err, driven: (max(err, driven) <= FREE_MOTION_TOL,
                               f"rotation error {err:.2e}, driven {driven:.2e}"))
    check("sim.energy-drift-and-2nd-order",
          lambda: drift_and_order(hamiltonians.make_pendulum(1.0)),
          lambda drift, r1, r2: (drift <= DRIFT_TOL and min(r1, r2) >= HALVING_RATIO,
                                 f"drift {drift:.2e}, halving ratios {r1:.2f}, {r2:.2f}"))
    check("sim.time-reversibility",
          lambda: reversibility_error(hamiltonians.make_pendulum(1.0)),
          lambda err: (err <= REVERSIBILITY_TOL, f"return error {err:.2e}"))
    return out


# calculus ------------------------------------------------------------------

def adjointness_defect(grid: fields.TorusGrid, rng) -> float:
    """|<grad f, G> + <f, div G>| relative to |<grad f, G>| for random
    band-limited f and G: gradient and divergence are adjoint."""
    f = fields.random_band_limited(grid, rng).values
    G = np.stack([fields.random_band_limited(grid, rng).values for _ in range(grid.n)])
    lhs = float(fields.grid_mean(np.einsum("i...,i...->...", fields.grad_values(f, grid), G)))
    rhs = -float(fields.grid_mean(f * fields.div_values(G, grid)))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def constant_gradient(grid: fields.TorusGrid, c: float) -> float:
    """max |grad c| of the constant field c."""
    g = fields.grad_values(np.full(grid.shape, float(c)), grid)
    return float(np.max(np.abs(g)))


def gradient_mean(grid: fields.TorusGrid, rng, samples: int) -> float:
    """Largest |mean| of a gradient component of random band-limited fields."""
    worst = 0.0
    for _ in range(samples):
        for comp in fields.grad_values(fields.random_band_limited(grid, rng).values, grid):
            worst = max(worst, abs(float(np.mean(comp))))
    return worst


def log_mean_exp_defects(grid: fields.TorusGrid, rng, ks, samples: int):
    """(monotone, Jensen) defects of log-mean-exp over the increasing ks on
    random band-limited fields: the largest decrease from one k to the next,
    and the largest excess of the mean of f over a value."""
    mono = jensen = 0.0
    for _ in range(samples):
        f = fields.random_band_limited(grid, rng).values
        vals = [fields.log_mean_exp_values(f, k) for k in ks]
        mono = max(mono, max(a - b for a, b in zip(vals, vals[1:])))
        jensen = max(jensen, float(fields.grid_mean(f)) - min(vals))
    return mono, jensen


# hamiltonians ---------------------------------------------------------------

def derivative_defect(model, rng, points: int = 100, step: float = 1e-5) -> float:
    """Largest gap between dx, dy and the identity y-Hessian and central
    differences of h and dy, relative to max(1, max|h|), at random points."""
    x = rng.uniform(0, fields.PERIOD, (model.n, points))
    y = rng.normal(0, 1.5, (model.n, points))
    phi = rng.uniform(0, fields.PERIOD, (model.m, points))
    ev = model.evaluate(x, y, phi)
    scale = max(1.0, float(np.max(np.abs(ev.h))))
    eye = np.eye(model.n)[:, :, None]
    worst = 0.0
    for i in range(model.n):
        dx = np.zeros_like(x)
        dx[i] = step
        fd = (model.evaluate(x + dx, y, phi).h - model.evaluate(x - dx, y, phi).h) / (2 * step)
        worst = max(worst, float(np.max(np.abs(fd - ev.dx[i]))))
        dy = np.zeros_like(y)
        dy[i] = step
        up, down = model.evaluate(x, y + dy, phi), model.evaluate(x, y - dy, phi)
        worst = max(worst, float(np.max(np.abs((up.h - down.h) / (2 * step) - ev.dy[i]))),
                    float(np.max(np.abs((up.dy - down.dy) / (2 * step) - eye[:, i]))))
    return worst / scale


def convexity_violation(model, rng, draws: int) -> float:
    """Largest excess of H at a midpoint in y over the chord minus the uniform
    convexity margin |y1 - y2|^2 / 8 (the y-Hessian is the identity), over
    random draws."""
    worst = -np.inf
    for _ in range(draws):
        x = rng.uniform(0, fields.PERIOD, (model.n, 1))
        phi = rng.uniform(0, fields.PERIOD, (model.m, 1))
        y1 = rng.normal(0, 2, (model.n, 1))
        y2 = rng.normal(0, 2, (model.n, 1))
        hmid = model.evaluate(x, 0.5 * (y1 + y2), phi).h[0]
        h1 = model.evaluate(x, y1, phi).h[0]
        h2 = model.evaluate(x, y2, phi).h[0]
        margin = float(np.sum((y1 - y2) ** 2)) / 8.0
        worst = max(worst, hmid - (0.5 * h1 + 0.5 * h2 - margin))
    return worst


def fenchel_defects(model, rng, draws: int):
    """(inequality, equality) defects of Fenchel-Young over random draws: the
    largest beta.y - L(beta) - H(y), and the largest |L + H - beta.y| at the
    matched velocity beta = D_yH(y)."""
    ineq, eq = -np.inf, 0.0
    for _ in range(draws):
        x = rng.uniform(0, fields.PERIOD, model.n)
        phi = rng.uniform(0, fields.PERIOD, model.m)
        y = rng.normal(0, 2, model.n)
        beta = rng.normal(0, 2, model.n)
        ev = model.evaluate(x[:, None], y[:, None], phi[:, None])
        ineq = max(ineq, float(beta @ y) - hamiltonians.lagrangian(model, x, beta, phi)
                   - ev.h[0])
        beta_star = ev.dy[:, 0]
        L_star = hamiltonians.lagrangian(model, x, beta_star, phi)
        eq = max(eq, abs(L_star + ev.h[0] - float(beta_star @ y)))
    return ineq, eq


def periodicity_defect(model, rng, points: int) -> float:
    """Largest |H(x + 2 pi e) - H(x)| over single-axis shifts of x and phi at
    random points; infinite when the model is not structurally x-periodic."""
    if not model.x_periodic():
        return np.inf
    x = rng.uniform(0, fields.PERIOD, (model.n, points))
    y = rng.normal(0, 1, (model.n, points))
    phi = rng.uniform(0, fields.PERIOD, (model.m, points))
    h0 = model.evaluate(x, y, phi).h
    worst = 0.0
    for i in range(model.n):
        shift = np.zeros_like(x)
        shift[i] = fields.PERIOD
        worst = max(worst, float(np.max(np.abs(model.evaluate(x + shift, y, phi).h - h0))))
    for l in range(model.m):
        shift = np.zeros_like(phi)
        shift[l] = fields.PERIOD
        worst = max(worst, float(np.max(np.abs(model.evaluate(x, y, phi + shift).h - h0))))
    return worst


# cell solver ----------------------------------------------------------------

def objective_gradient_defect(problem: cell.CellProblem, rng, amplitude: float,
                              directions: int = 20, eps: float = 1e-5) -> float:
    """Largest relative gap between the mean of gradient * w and the central
    difference of the objective along random directions w, at a random v0."""
    grid = problem.grid
    v0 = fields.random_band_limited(grid, rng, amplitude=amplitude).values
    _, g = cell.objective(problem, fields.ScalarField(grid, v0))
    worst = 0.0
    for _ in range(directions):
        w = fields.random_band_limited(grid, rng).values
        vp, vm = v0 + eps * w, v0 - eps * w
        fp, _ = cell.objective(problem, fields.ScalarField(grid, vp - vp.mean()))
        fm, _ = cell.objective(problem, fields.ScalarField(grid, vm - vm.mean()))
        fd = (fp - fm) / (2 * eps)
        an = float(fields.grid_mean(g.values * w))
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-300))
    return worst


def integrable_exactness(grid: fields.TorusGrid, k: float, Ps=(0.0, 0.7, 1.5)):
    """Solve the integrable cell problem from v = 0 at each P.  Returns
    (max |Hbar_k - P^2/2|, max |v|, most iterations, all converged, slowest
    solve in seconds)."""
    sols = [cell.solve_cell(cell.CellProblem(hamiltonians.make_integrable(1), [P], k, grid))
            for P in Ps]
    return (max(abs(s.Hbar_k - 0.5 * P * P) for s, P in zip(sols, Ps)),
            max(float(np.max(np.abs(s.v.values))) for s in sols),
            max(s.iterations for s in sols),
            all(s.converged for s in sols),
            max(s.wall_time_s for s in sols))


def separable_defect(grid: fields.TorusGrid, ks=(4.0, 8.0, 16.0), P=(0.3, 0.6),
                     betas=(0.4, 0.3)) -> float:
    """Largest |Hbar_k(P) - Hbar_k(P_1) - Hbar_k(P_2)| over ks of the
    uncoupled pair beta = diag(betas), lam = (1, 1) on the n=2 grid, against
    its two rotors on the n=1 grid of the same N_x and derivative, each
    solved cold at each k.  The pair's functional is the sum of the rotors',
    so the identity holds at every k, between minimizers: an unconverged
    solve makes the defect infinite."""
    grid1 = fields.TorusGrid(n=1, m=0, N_x=grid.N_x, diff_mode=grid.diff_mode)
    zero = hamiltonians.TrigPoly(0.0)
    b1, b2 = (hamiltonians.TrigPoly(b) for b in betas)
    pair = hamiltonians.SwingModel(alpha=[0.0, 0.0], beta=((b1, zero), (zero, b2)),
                                   lam=[1.0, 1.0])
    rotors = [hamiltonians.SwingModel(alpha=[0.0], beta=((b,),), lam=[1.0]) for b in (b1, b2)]
    worst = 0.0
    for k in ks:
        sols = [cell.solve_cell(cell.CellProblem(pair, list(P), k, grid))]
        sols += [cell.solve_cell(cell.CellProblem(r, [p], k, grid1)) for r, p in zip(rotors, P)]
        if not all(s.converged for s in sols):
            return np.inf
        worst = max(worst, abs(sols[0].Hbar_k - sols[1].Hbar_k - sols[2].Hbar_k))
    return worst


def fibered_separable_defect(grid: fields.TorusGrid, ks=(4.0, 8.0), P=(0.3, 0.8)) -> float:
    """Largest |Hbar_k(P) - Hbar_k(P_1) - Hbar_k(P_2)| over ks of the
    uncoupled pair with beta11 = 0.6 + 0.2 cos phi_1 (+ 0.1 cos phi_2 when
    m = 2), beta22 = 0.4, lam = (1, 1) on the fibered n=2 grid, against the
    driven rotor on the n=1 grid with the same fiber axes and the undriven
    one on the n=1 grid without them, each through ``continuation_solve``
    (tau_steps = 4).  Each fiber's problem splits into the two rotors', and
    the log-mean-exp over fibers keeps the undriven rotor's share as it is,
    so the identity holds at every k: the fiber pass on one side, the joint
    n=1 Newton loop on the other."""
    modes = (((1,), 0.2, 0.0),) if grid.m == 1 else (((1, 0), 0.2, 0.0), ((0, 1), 0.1, 0.0))
    omega = [1.0, np.sqrt(2.0)][:grid.m]
    zero, b11, b22 = (hamiltonians.TrigPoly(0.0), hamiltonians.TrigPoly(0.6, modes),
                      hamiltonians.TrigPoly(0.4))
    pair = hamiltonians.SwingModel(alpha=[0.0, 0.0], beta=((b11, zero), (zero, b22)),
                                   lam=[1.0, 1.0], omega=omega)
    driven = hamiltonians.SwingModel(alpha=[0.0], beta=((b11,),), lam=[1.0], omega=omega)
    still = hamiltonians.SwingModel(alpha=[0.0], beta=((b22,),), lam=[1.0])
    grid1 = fields.TorusGrid(n=1, m=grid.m, N_x=grid.N_x, N_phi=grid.N_phi,
                             diff_mode=grid.diff_mode)
    grid0 = fields.TorusGrid(n=1, m=0, N_x=grid.N_x, diff_mode=grid.diff_mode)
    joint = cell.continuation_solve(pair, list(P), ks, 4, grid)
    first = cell.continuation_solve(driven, [P[0]], ks, 4, grid1)
    second = cell.continuation_solve(still, [P[1]], ks, 4, grid0)
    return max(abs(s.Hbar_k - a.Hbar_k - b.Hbar_k) for s, a, b in zip(joint, first, second))


def descent_defects(solutions):
    """(largest objective increase in one step, largest |mean v|)."""
    up = mean = 0.0
    for s in solutions:
        h = np.asarray(s.objective_history)
        if h.size > 1:
            up = max(up, float(np.max(h[1:] - h[:-1])))
        mean = max(mean, abs(float(np.mean(s.v.values))))
    return up, mean


def monotonicity_defect(solutions) -> float:
    """Largest decrease of Hbar_k from one solution to the next."""
    hb = [s.Hbar_k for s in solutions]
    return max((a - b for a, b in zip(hb, hb[1:])), default=0.0)


def infmax_defect(model, solution: cell.CellSolution, rng, amplitude: float = 0.5) -> float:
    """Largest Hbar_k - max H(x, P + D_x w) over w in {0, the corrector, a
    random band-limited field}: Hbar_k is below the inf over w of the max."""
    grid = solution.v.grid
    problem = cell.CellProblem(model, solution.P, solution.k, grid)
    worst = -np.inf
    for w in (np.zeros(grid.shape), solution.v.values,
              fields.random_band_limited(grid, rng, amplitude=amplitude).values):
        y = problem.momentum_field(w - w.mean())
        h = model.evaluate(problem.x_mesh, y, problem.phi_mesh).h
        worst = max(worst, solution.Hbar_k - float(h.max()))
    return worst


def weak_residual_excess(solutions) -> float:
    """Largest el_residual - grad_norm / sqrt 2, at most round-off by Parseval:
    the weak residual is one Fourier mode of the objective gradient."""
    return max(s.el_residual - s.grad_norm / np.sqrt(2.0) for s in solutions)


# measures -------------------------------------------------------------------

def measure_identity_defects(model, solutions):
    """(normalization, density identity, renormalization) defects of the Gibbs
    measures: the largest |integral sigma - 1|, |log(raw density) - k (H -
    Hbar_k)| where the density is positive, and |exp(k (F_k[v] - Hbar_k)) - 1|
    with the returned corrector v evaluated afresh on ``model``."""
    mass = ident = renorm = 0.0
    for s in solutions:
        mu = measures.gibbs_measure(s)
        mass = max(mass, abs(float(fields.grid_mean(mu.sigma.values)) - 1.0))
        f, _ = cell.objective(cell.CellProblem(model, s.P, s.k, s.v.grid), s.v)
        renorm = max(renorm, abs(np.exp(s.k * (f - s.Hbar_k)) - 1.0))
        dens = mu.sigma.values * mu.renorm_factor
        live = dens > 1e-300
        ident = max(ident, float(np.max(np.abs(
            np.log(dens[live]) - s.k * (mu.h[live] - s.Hbar_k)))))
    return mass, ident, renorm


def closedness(solutions) -> float:
    """Largest closedness residual of the Gibbs measures over ``cell.TEST_MODES``
    trig test fields per axis: the solver's weak Euler-Lagrange residual."""
    return max(s.el_residual for s in solutions)


def energy_envelope_defects(solutions):
    """(max-H, lower mean, upper mean) defects of the energy envelope, each
    <= 0 when it holds: max H <= Hbar_k + C log(k)/k and Hbar_k <= mean H <=
    Hbar_k + A log(k)/k under the Gibbs measure."""
    top = lo = hi = -np.inf
    for mu in map(measures.gibbs_measure, solutions):
        mean, _ = measures.energy_statistics(mu)
        bound = np.log(mu.k) / mu.k
        top = max(top, float(mu.h.max()) - mu.Hbar_k - ENERGY_BOUND_C * bound)
        lo = max(lo, mu.Hbar_k - mean - ENERGY_MEAN_SLACK)
        hi = max(hi, mean - mu.Hbar_k - ENERGY_MEAN_A * bound)
    return top, lo, hi


def energy_concentration(solutions):
    """(energy variance under each Gibbs measure, largest |Q| - sup|D_x u|)."""
    variances, speed = [], -np.inf
    for s in solutions:
        mu = measures.gibbs_measure(s)
        variances.append(measures.energy_statistics(mu)[1])
        q = measures.rotation_vector(mu)
        speed = max(speed, float(np.linalg.norm(q)) - s.sup_Dxu)
    return variances, speed


# oracle ---------------------------------------------------------------------

def oracle_shape(pot: oracle1d.Potential1D, even_ps=(0.3, 1.1, 2.4),
                 energies=np.linspace(2.0, 6.0, 9)):
    """Shape of the 1-D effective Hamiltonian: (largest |Hbar(P) - Hbar(-P)|
    over even_ps, |Hbar(1) - max V| on the flat piece, largest midpoint
    convexity defect on 61 points of [-3, 3], Hbar(3) - Hbar(2), smallest
    increase of the momentum between successive energies).  Every Hbar comes
    from one ``oracle_table``, which integrates the flat-piece edge once."""
    ps = np.asarray(even_ps, dtype=float)
    n = len(ps)
    hbar = oracle1d.oracle_table(
        pot, np.concatenate([ps, -ps, [1.0], np.linspace(-3, 3, 61), [3.0, 2.0]]))[:, 1]
    even = float(np.max(np.abs(hbar[:n] - hbar[n:2 * n])))
    flat = float(abs(hbar[2 * n] - pot.v_max))
    hs = hbar[2 * n + 1:-2]
    convex = float(np.max(hs[1:-1] - 0.5 * (hs[:-2] + hs[2:])))
    momenta = [oracle1d.momentum_of_energy(pot, e) for e in energies]
    return even, flat, convex, float(hbar[-2] - hbar[-1]), float(np.min(np.diff(momenta)))


# simulator ------------------------------------------------------------------

def free_motion_error(model) -> float:
    """|rotation estimate - 0.7| of an orbit from x=0.2, y=0.7 under a force-free model."""
    traj = swingsim.integrate_swing(model, [0.2], [0.7], 10.0, 1e-3)
    return abs(float(traj.rotation_estimate[0]) - 0.7)


def drift_and_order(model):
    """(relative energy drift over 1e4 steps from x=1, y=0; ratios of the
    energy error from x=1, y=0.3 over T=8 as dt halves from 4e-3 to 1e-3)."""
    traj = swingsim.integrate_swing(model, [1.0], [0.0], 10.0, 1e-3)
    drift = float(np.max(np.abs(traj.energy - traj.energy[0]))) / abs(traj.energy[0])
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        t = swingsim.integrate_swing(model, [1.0], [0.3], 8.0, dt)
        errs.append(float(np.max(np.abs(t.energy - t.energy[0]))))
    return drift, errs[0] / errs[1], errs[1] / errs[2]


def reversibility_error(model) -> float:
    """Distance from the start after 12 time units forward from x=0.5, y=1.1
    and 12 back with reversed velocity."""
    fwd = swingsim.integrate_swing(model, [0.5], [1.1], 12.0, 1e-3)
    back = swingsim.integrate_swing(model, fwd.x[-1], -fwd.y[-1], 12.0, 1e-3)
    return max(float(np.max(np.abs(back.x[-1] - 0.5))),
               float(np.max(np.abs(-back.y[-1] - 1.1))))
