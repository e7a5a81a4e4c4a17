"""Executable invariant suite behind the `verify` subcommand.

Every check re-derives its expected behavior independently (finite
differences, closed forms, k-sweeps) and returns pass/fail plus a one-line
measurement, so a report reads as evidence rather than as assertions.
Randomized checks draw from a generator seeded by the run configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cell, fields, hamiltonians, measures, oracle1d, swingsim
from .config import RunConfig

__all__ = ["CheckResult", "run_checks", "ENERGY_BOUND_C", "ENERGY_MEAN_A"]

# Envelope constants, calibrated once on the pendulum k-sweep and frozen:
# max-node energy obeys  max H <= Hbar_k + C log(k)/k   (measured C ~ 0.94)
# mean energy obeys      Hbar_k <= mean <= Hbar_k + A log(k)/k  (measured A ~ 0.69)
ENERGY_BOUND_C = 1.5
ENERGY_MEAN_A = 1.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _pendulum_sweep(cfg: RunConfig, P: float):
    model = hamiltonians.make_pendulum(1.0)
    grid = fields.TorusGrid(n=1, m=0, N_x=max(128, cfg.N_x), diff_mode="spectral")
    opts = cell.SolverOptions(gtol=cfg.gtol, rtol=cfg.rtol, max_iter=cfg.max_iter)
    sols = cell.continuation_solve(model, [P], cfg.k_schedule, cfg.tau_steps,
                                   grid, opts)
    return model, grid, opts, sols


def run_checks(cfg: RunConfig | None = None) -> list[CheckResult]:
    cfg = cfg or RunConfig()
    rng = np.random.default_rng(cfg.seed)
    out: list[CheckResult] = []

    def check(name, fn):
        try:
            passed, detail = fn()
        except Exception as exc:            # a crash is a failed invariant
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(CheckResult(name, bool(passed), detail))

    check("calculus.adjoint-gradient-divergence", lambda: _adjointness(rng))
    check("calculus.gradient-of-constant-vanishes", lambda: _const_gradient())
    check("calculus.gradient-has-zero-mean", lambda: _gradient_mean(rng))
    check("calculus.log-mean-exp-monotone-and-jensen", lambda: _lme_props(rng))
    check("hamiltonian.derivatives-match-finite-differences",
          lambda: _derivative_consistency(rng))
    check("hamiltonian.uniform-convexity-midpoint", lambda: _convexity(rng))
    check("hamiltonian.fenchel-young-duality", lambda: _fenchel(rng))
    check("hamiltonian.swing-torus-periodicity", lambda: _periodicity(rng))
    check("solver.objective-gradient-vs-central-differences",
          lambda: _solver_gradient(cfg, rng))
    check("solver.integrable-exactness", lambda: _integrable_exact(cfg))
    check("solver.descent-and-mean-zero", lambda: _descent(cfg))
    check("solver.effective-energy-monotone-in-k", lambda: _monotone(cfg))
    check("solver.inf-max-upper-bound", lambda: _infmax(cfg, rng))
    check("solver.weak-stationarity", lambda: _stationarity(cfg))
    check("measure.normalization-and-density-identity", lambda: _measure_identity(cfg))
    check("measure.closedness", lambda: _closedness(cfg))
    check("measure.energy-bounds-envelope", lambda: _energy_envelope(cfg))
    check("measure.energy-concentration-in-k", lambda: _concentration(cfg))
    check("oracle.evenness-flat-piece-convexity", lambda: _oracle_props())
    check("sim.free-motion-rotation-exact", lambda: _free_motion())
    check("sim.energy-drift-and-2nd-order", lambda: _drift())
    check("sim.time-reversibility", lambda: _reversibility())
    return out


# calculus ------------------------------------------------------------------

def _adjointness(rng):
    worst = 0.0
    for mode in ("spectral", "fd2"):
        for dims in ((1, 0), (1, 1), (2, 1)):
            grid = fields.TorusGrid(n=dims[0], m=dims[1], N_x=32, N_phi=4,
                                    diff_mode=mode)
            f = fields.random_band_limited(grid, rng)
            G = fields.VectorField(grid, np.stack(
                [fields.random_band_limited(grid, rng).values for _ in range(grid.n)]))
            lhs = fields.inner(fields.gradient_x(f), G)
            rhs = -fields.inner(f, fields.divergence_x(G))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return worst <= 1e-12, f"max relative defect {worst:.2e}"


def _const_gradient():
    worst = 0.0
    for mode in ("spectral", "fd2"):
        grid = fields.TorusGrid(n=2, m=1, N_x=16, N_phi=4, diff_mode=mode)
        g = fields.gradient_x(fields.ScalarField.constant(grid, 4.2))
        worst = max(worst, float(np.max(np.abs(g.components))))
    return worst <= 1e-13, f"max |grad const| {worst:.2e}"


def _gradient_mean(rng):
    grid = fields.TorusGrid(n=2, m=0, N_x=32)
    worst = 0.0
    for _ in range(5):
        f = fields.random_band_limited(grid, rng)
        g = fields.gradient_x(f)
        for a in range(grid.n):
            worst = max(worst, abs(float(np.mean(g.components[a]))))
    return worst <= 1e-13, f"max |mean grad| {worst:.2e}"


def _lme_props(rng):
    grid = fields.TorusGrid(n=1, m=1, N_x=32, N_phi=4)
    worst_mono, worst_jensen = 0.0, 0.0
    for _ in range(5):
        f = fields.random_band_limited(grid, rng)
        ks = [0.5, 1.0, 2.0, 4.0, 8.0, 32.0]
        vals = [fields.log_mean_exp(f, k) for k in ks]
        worst_mono = max(worst_mono, max(a - b for a, b in zip(vals, vals[1:])))
        worst_jensen = max(worst_jensen, fields.integrate(f) - vals[0])
    ok = worst_mono <= 1e-12 and worst_jensen <= 1e-12
    return ok, f"monotone defect {worst_mono:.1e}, jensen defect {worst_jensen:.1e}"


# hamiltonians ---------------------------------------------------------------

def _models(rng):
    beta = ((hamiltonians.TrigPoly(0.8, (((1,), 0.3, 0.1),)),),)
    swing = hamiltonians.make_swing(hamiltonians.SwingParams(
        alpha=[0.0], beta=beta, lam=[0.5], omega=[np.sqrt(2.0)]))
    return [hamiltonians.make_integrable(2), hamiltonians.make_pendulum(1.0), swing]


def _derivative_consistency(rng, pts: int = 100, step: float = 1e-5, rtol: float = 1e-6):
    worst = 0.0
    for model in _models(rng):
        x = rng.uniform(0, fields.PERIOD, (model.n, pts))
        y = rng.normal(0, 1.5, (model.n, pts))
        phi = rng.uniform(0, fields.PERIOD, (model.m, pts))
        ev = model.evaluate(x, y, phi)
        scale = max(1.0, float(np.max(np.abs(ev.h))))
        for i in range(model.n):
            dx = np.zeros_like(x)
            dx[i] = step
            fd = (model.evaluate(x + dx, y, phi).h - model.evaluate(x - dx, y, phi).h) / (2 * step)
            worst = max(worst, float(np.max(np.abs(fd - ev.dx[i]))) / scale)
            dy = np.zeros_like(y)
            dy[i] = step
            fd = (model.evaluate(x, y + dy, phi).h - model.evaluate(x, y - dy, phi).h) / (2 * step)
            worst = max(worst, float(np.max(np.abs(fd - ev.dy[i]))) / scale)
            fdyy = (model.evaluate(x, y + dy, phi).dy - model.evaluate(x, y - dy, phi).dy) / (2 * step)
            worst = max(worst, float(np.max(np.abs(fdyy - ev.dyy[:, i]))) / scale)
    return worst <= rtol, f"max relative defect {worst:.2e} over {pts} points/model"


def _convexity(rng):
    worst = -np.inf
    for model in _models(rng):
        for _ in range(50):
            x = rng.uniform(0, fields.PERIOD, (model.n, 1))
            phi = rng.uniform(0, fields.PERIOD, (model.m, 1))
            y1 = rng.normal(0, 2, (model.n, 1))
            y2 = rng.normal(0, 2, (model.n, 1))
            hmid = model.evaluate(x, 0.5 * (y1 + y2), phi).h[0]
            h1 = model.evaluate(x, y1, phi).h[0]
            h2 = model.evaluate(x, y2, phi).h[0]
            margin = model.gamma / 8.0 * float(np.sum((y1 - y2) ** 2))
            worst = max(worst, hmid - (0.5 * h1 + 0.5 * h2 - margin))
    return worst <= 1e-10, f"max violation {worst:.2e}"


def _fenchel(rng):
    worst_ineq, worst_eq = -np.inf, 0.0
    for model in _models(rng):
        for _ in range(30):
            x = rng.uniform(0, fields.PERIOD, model.n)
            phi = rng.uniform(0, fields.PERIOD, model.m)
            y = rng.normal(0, 2, model.n)
            beta = rng.normal(0, 2, model.n)
            ev = model.evaluate(x[:, None], y[:, None], phi[:, None])
            L = hamiltonians.lagrangian(model, x, beta, phi)
            worst_ineq = max(worst_ineq, float(beta @ y) - L - ev.h[0])
            beta_star = ev.dy[:, 0]
            L_star = hamiltonians.lagrangian(model, x, beta_star, phi)
            worst_eq = max(worst_eq, abs(L_star + ev.h[0] - float(beta_star @ y)))
    ok = worst_ineq <= 1e-8 and worst_eq <= 1e-8
    return ok, f"inequality defect {worst_ineq:.1e}, matched-pair gap {worst_eq:.1e}"


def _periodicity(rng):
    beta = ((hamiltonians.TrigPoly(1.0, (((1,), 0.5, 0.0),)),),)
    models = [
        hamiltonians.make_swing(hamiltonians.SwingParams(
            alpha=[0.0], beta=beta, lam=[0.5], omega=[1.0])),
        hamiltonians.make_swing(hamiltonians.SwingParams(
            alpha=[0.0, 0.0],
            beta=((hamiltonians.TrigPoly(0.7), hamiltonians.TrigPoly(0.4)),
                  (hamiltonians.TrigPoly(0.0), hamiltonians.TrigPoly(0.3))),
            lam=[1.0, 2.0])),
    ]
    worst = 0.0
    for model in models:
        if not model.x_periodic():
            return False, "structural periodicity check failed"
        x = rng.uniform(0, fields.PERIOD, (model.n, 40))
        y = rng.normal(0, 1, (model.n, 40))
        phi = rng.uniform(0, fields.PERIOD, (model.m, 40))
        h0 = model.evaluate(x, y, phi).h
        for i in range(model.n):
            shift = np.zeros_like(x)
            shift[i] = fields.PERIOD
            worst = max(worst, float(np.max(np.abs(model.evaluate(x + shift, y, phi).h - h0))))
        for l in range(model.m):
            pshift = np.zeros_like(phi)
            pshift[l] = fields.PERIOD
            worst = max(worst, float(np.max(np.abs(model.evaluate(x, y, phi + pshift).h - h0))))
    return worst <= 1e-13, f"max |H(x+2pi e) - H| = {worst:.2e}"


# cell solver ----------------------------------------------------------------

def _solver_gradient(cfg, rng, directions: int = 20, eps: float = 1e-5):
    worst = 0.0
    for model, P in [(hamiltonians.make_integrable(1), [0.7]),
                     (hamiltonians.make_pendulum(1.0), [0.9]),
                     (_models(rng)[2], [0.6])]:
        grid = fields.TorusGrid(n=model.n, m=model.m, N_x=32, N_phi=4)
        problem = cell.CellProblem(model, P, 6.0, grid)
        v0 = fields.random_band_limited(grid, rng, amplitude=0.3)
        _, g = cell.objective(problem, v0)
        for _ in range(directions):
            w = fields.random_band_limited(grid, rng)
            fp, _ = cell.objective(problem, fields.ScalarField(grid, v0.values + eps * w.values
                                                               - np.mean(v0.values + eps * w.values)))
            fm, _ = cell.objective(problem, fields.ScalarField(grid, v0.values - eps * w.values
                                                               - np.mean(v0.values - eps * w.values)))
            fd = (fp - fm) / (2 * eps)
            an = fields.inner(g, w)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-300))
    return worst <= 1e-5, f"max relative defect {worst:.2e} over {directions} directions/model"


def _integrable_exact(cfg):
    grid = fields.TorusGrid(n=1, m=0, N_x=64)
    worst_h, worst_v, worst_it = 0.0, 0.0, 0
    for P in (0.0, 0.7, 1.5):
        sol = cell.solve_cell(cell.CellProblem(hamiltonians.make_integrable(1), [P], 8.0, grid))
        worst_h = max(worst_h, abs(sol.Hbar_k - 0.5 * P * P))
        worst_v = max(worst_v, float(np.max(np.abs(sol.v.values))))
        worst_it = max(worst_it, sol.iterations)
    ok = worst_h <= 1e-10 and worst_v <= 1e-10 and worst_it <= 2
    return ok, f"|Hbar - P^2/2| {worst_h:.1e}, max|v| {worst_v:.1e}, iters {worst_it}"


def _hard_solve(cfg):
    model = hamiltonians.make_pendulum(1.0)
    grid = fields.TorusGrid(n=1, m=0, N_x=128)
    opts = cell.SolverOptions(gtol=cfg.gtol, rtol=cfg.rtol, max_iter=cfg.max_iter)
    sols = cell.continuation_solve(model, [1.5], [8.0, 16.0, 32.0], 2, grid, opts)
    return model, grid, opts, sols


def _descent(cfg):
    _, _, _, sols = _hard_solve(cfg)
    worst_up, worst_mean = 0.0, 0.0
    for s in sols:
        h = np.asarray(s.objective_history)
        if h.size > 1:
            worst_up = max(worst_up, float(np.max(h[1:] - h[:-1])))
        worst_mean = max(worst_mean, abs(float(np.mean(s.v.values))))
    ok = worst_up <= 1e-12 and worst_mean <= 1e-12
    return ok, f"max increase {worst_up:.1e}, |mean v| {worst_mean:.1e}"


def _monotone(cfg):
    _, _, _, sols = _hard_solve(cfg)
    hb = [s.Hbar_k for s in sols]
    worst = max(a - b for a, b in zip(hb, hb[1:]))
    return worst <= 1e-8, f"max decrease along schedule {worst:.2e}"


def _infmax(cfg, rng):
    model, grid, opts, sols = _hard_solve(cfg)
    sol = sols[-1]
    problem = cell.CellProblem(model, sol.P, sol.k, grid)
    worst = -np.inf
    candidates = [np.zeros(grid.shape), sol.v.values,
                  fields.random_band_limited(grid, rng, amplitude=0.5).values]
    for v_cand in candidates:
        y = problem.momentum_field(v_cand - v_cand.mean())
        h = model.evaluate(problem.x_mesh, y, problem.phi_mesh).h
        worst = max(worst, sol.Hbar_k - float(h.max()))
    return worst <= 1e-10, f"max (Hbar - sup H) over candidates {worst:.2e}"


def _stationarity(cfg):
    _, _, _, sols = _hard_solve(cfg)
    worst = max(s.el_residual for s in sols)
    return worst <= cfg.rtol, f"max weak residual {worst:.2e} (tol {cfg.rtol:g})"


# measures -------------------------------------------------------------------

def _measured(cfg):
    model, grid, opts, sols = _pendulum_sweep(cfg, 0.0)
    rows = []
    for s in sols:
        problem = cell.CellProblem(model, s.P, s.k, grid)
        mu = measures.gibbs_measure(s, problem)
        rows.append((s, problem, mu))
    return rows


def _measure_identity(cfg):
    rows = _measured(cfg)
    worst_mass, worst_id, worst_renorm = 0.0, 0.0, 0.0
    for s, problem, mu in rows:
        worst_mass = max(worst_mass, abs(fields.integrate(mu.sigma) - 1.0))
        worst_renorm = max(worst_renorm, abs(mu.renorm_factor - 1.0))
        dens = mu.sigma.values * mu.renorm_factor
        h = cell._evaluate(problem, s.v.values)[2].h
        live = dens > 1e-300
        worst_id = max(worst_id, float(np.max(np.abs(
            np.log(dens[live]) - s.k * (h[live] - s.Hbar_k)))))
    ok = worst_mass <= 1e-10 and worst_id <= 1e-10 and worst_renorm <= 1e-8
    return ok, (f"norm defect {worst_mass:.1e}, identity defect {worst_id:.1e}, "
                f"renorm {worst_renorm:.1e}")


def _closedness(cfg):
    rows = _measured(cfg)
    worst = max(measures.closedness_residual(mu, s, p) for s, p, mu in rows)
    return worst <= cfg.rtol, f"max closedness {worst:.2e} (tol {cfg.rtol:g})"


def _energy_envelope(cfg):
    rows = _measured(cfg)
    worst_max, worst_mean_lo, worst_mean_hi = -np.inf, -np.inf, -np.inf
    for s, problem, mu in rows:
        mean, _ = measures.energy_statistics(mu, s, problem)
        h = cell._evaluate(problem, s.v.values)[2].h
        bound = np.log(s.k) / s.k
        worst_max = max(worst_max, float(h.max()) - s.Hbar_k - ENERGY_BOUND_C * bound)
        worst_mean_lo = max(worst_mean_lo, s.Hbar_k - mean - 1e-10)
        worst_mean_hi = max(worst_mean_hi, mean - s.Hbar_k - ENERGY_MEAN_A * bound)
    ok = worst_max <= 0 and worst_mean_lo <= 0 and worst_mean_hi <= 0
    return ok, (f"max-H defect {worst_max:.1e}, mean bounds defects "
                f"{worst_mean_lo:.1e}/{worst_mean_hi:.1e}")


def _concentration(cfg):
    rows = _measured(cfg)
    variances = [measures.energy_statistics(mu, s, p)[1] for s, p, mu in rows]
    qs = [measures.rotation_vector(mu, s, p) for s, p, mu in rows]
    speeds_ok = all(float(np.linalg.norm(q)) <= s.sup_Dxu + 1e-12
                    for q, (s, _, _) in zip(qs, rows))
    ok = variances[-1] < variances[0] and speeds_ok
    return ok, f"var k={rows[0][0].k:g}: {variances[0]:.2e} -> k={rows[-1][0].k:g}: {variances[-1]:.2e}"


# oracle ---------------------------------------------------------------------

def _oracle_props():
    pot = oracle1d.Potential1D.from_callable(lambda x: 1.0 - np.cos(x))
    even = max(abs(oracle1d.effective_hamiltonian_1d(pot, p)
                   - oracle1d.effective_hamiltonian_1d(pot, -p))
               for p in (0.3, 1.1, 2.4))
    flat = abs(oracle1d.effective_hamiltonian_1d(pot, 1.0) - pot.v_max)
    ps = np.linspace(-3, 3, 61)
    hs = np.array([oracle1d.effective_hamiltonian_1d(pot, p) for p in ps])
    midpoint = float(np.max(hs[1:-1] - 0.5 * (hs[:-2] + hs[2:])))
    superlin = (oracle1d.effective_hamiltonian_1d(pot, 3.0)
                >= oracle1d.effective_hamiltonian_1d(pot, 2.0) + 1.0)
    mono = np.all(np.diff([oracle1d.momentum_of_energy(pot, e)
                           for e in np.linspace(2.0, 6.0, 9)]) > 0)
    ok = even <= 1e-12 and flat <= 1e-12 and midpoint <= 1e-9 and superlin and bool(mono)
    return ok, (f"evenness {even:.1e}, flat defect {flat:.1e}, "
                f"convexity defect {midpoint:.1e}")


# simulator ------------------------------------------------------------------

def _pendulum_params():
    return hamiltonians.SwingParams(alpha=[0.0],
                                    beta=((hamiltonians.TrigPoly(1.0),),), lam=[0.5])


def _free_motion():
    p = hamiltonians.SwingParams(alpha=[0.0], beta=((hamiltonians.TrigPoly(0.0),),),
                                 lam=[0.5])
    traj = swingsim.integrate_swing(p, [0.2], [0.7], 10.0, 1e-3)
    err = abs(float(traj.rotation_estimate[0]) - 0.7)
    return err <= 1e-10, f"rotation error {err:.2e}"


def _drift():
    p = _pendulum_params()
    traj = swingsim.integrate_swing(p, [1.0], [0.0], 10.0, 1e-3)
    drift = float(np.max(np.abs(traj.energy - traj.energy[0]))) / abs(traj.energy[0])
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        t = swingsim.integrate_swing(p, [1.0], [0.3], 8.0, dt)
        errs.append(float(np.max(np.abs(t.energy - t.energy[0]))))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    ok = drift <= 1e-6 and min(ratios) >= 3.5
    return ok, f"drift {drift:.2e}, halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}"


def _reversibility():
    p = _pendulum_params()
    fwd = swingsim.integrate_swing(p, [0.5], [1.1], 12.0, 1e-3)
    back = swingsim.integrate_swing(p, fwd.x[-1], -fwd.y[-1], 12.0, 1e-3)
    err = max(float(np.max(np.abs(back.x[-1] - 0.5))),
              float(np.max(np.abs(-back.y[-1] - 1.1))))
    return err <= 1e-8, f"return error {err:.2e}"
