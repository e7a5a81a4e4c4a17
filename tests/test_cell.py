from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from weakkam import verify
from weakkam.cell import (
    FIBER_LADDER,
    CellProblem,
    ContinuationError,
    SolverOptions,
    continuation_solve,
    fiber_decomposed_solve,
    fiber_jump,
    objective,
    solve_cell,
)
from weakkam.fields import (
    ScalarField,
    TorusGrid,
    log_mean_exp_values,
    random_band_limited,
)
from weakkam.hamiltonians import (
    SwingModel,
    TrigPoly,
    make_integrable,
    make_pendulum,
)
from weakkam.oracle1d import effective_hamiltonian_1d

RNG = np.random.default_rng(7)


# independent finite-k ground truth for n=1 kinetic-plus-potential models ---
#
# In one dimension the stationarity condition integrates exactly: the flux
# exp(k H(x, u_x)) u_x is a constant C on each fiber.  Solving the scalar
# equation per node and matching mean(u_x) = P by bisection reconstructs the
# continuum minimizer with no variational machinery at all.

def flux_reduction_hbar(V, P, k):
    assert P > 0

    def u_of(logC):
        out = np.empty_like(V)
        for i, vi in enumerate(V):
            g = lambda u: k * (0.5 * u * u + vi) + np.log(u) - logC
            lo, hi = 1.0, 1.0
            while g(lo) > 0 and lo > 1e-280:
                lo /= 16.0
            while g(hi) < 0:
                hi *= 2.0
            out[i] = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16)
        return out

    def p_of(logC):
        return float(np.mean(u_of(logC)))

    lo, hi = -1.0, 1.0
    while p_of(lo) > P:
        lo -= 5.0
    while p_of(hi) < P:
        hi += 5.0
    logC = brentq(lambda c: p_of(c) - P, lo, hi, xtol=1e-13)
    u = u_of(logC)
    h = 0.5 * u * u + V
    m = h.max()
    return m + np.log(np.mean(np.exp(k * (h - m)))) / k


@pytest.mark.parametrize("P", [1.5, 2.5])
def test_solver_matches_flux_reduction(P, pendulum, grid256):
    x = grid256.x_axis()
    V = 1.0 - np.cos(x)
    expected = flux_reduction_hbar(V, P, 8.0)
    sol = continuation_solve(pendulum, [P], [8.0], 2, grid256)[-1]
    assert sol.Hbar_k == pytest.approx(expected, abs=1e-7)


# objective ------------------------------------------------------------------

def test_objective_integrable_exact():
    grid = TorusGrid(n=1, m=0, N_x=64)
    prob = CellProblem(make_integrable(1), [0.8], 8.0, grid)
    val, grad = objective(prob, ScalarField.constant(grid, 0.0))
    assert val == 0.5 * 0.8 ** 2
    assert np.max(np.abs(grad.values)) == 0.0


def test_objective_requires_mean_zero():
    grid = TorusGrid(n=1, m=0, N_x=32)
    prob = CellProblem(make_integrable(1), [0.0], 4.0, grid)
    with pytest.raises(ValueError):
        objective(prob, ScalarField.constant(grid, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_objective_rejects_nonfinite_v(bad):
    # the raw gradient and divergence do not check their input; an objective
    # evaluation checks v once
    grid = TorusGrid(n=1, m=0, N_x=32)
    prob = CellProblem(make_pendulum(1.0), [0.3], 4.0, grid)
    values = np.zeros(grid.shape)
    values[5] = bad
    v = ScalarField.constant(grid, 0.0)
    object.__setattr__(v, "values", values)     # past the constructor's check
    with pytest.raises(ValueError, match="non-finite"):
        objective(prob, v)


def test_objective_value_equals_field_op(pendulum):
    # at v = 0 the objective is exactly the log-mean-exp of H(x, P, .)
    grid = TorusGrid(n=1, m=0, N_x=128)
    prob = CellProblem(pendulum, [0.0], 4.0, grid)
    val, _ = objective(prob, ScalarField.constant(grid, 0.0))
    h = ScalarField.from_function(grid, lambda x, p: 1.0 - np.cos(x[0]))
    assert val == log_mean_exp_values(h.values, 4.0)


@pytest.mark.parametrize("mk", [
    lambda: (make_integrable(1), [0.7]),
    lambda: (make_pendulum(1.0), [0.9]),
], ids=["integrable", "pendulum"])
def test_objective_gradient_directional(mk):
    model, P = mk()
    grid = TorusGrid(n=model.n, m=model.m, N_x=32)
    prob = CellProblem(model, P, 6.0, grid)
    defect = verify.objective_gradient_defect(prob, RNG, amplitude=0.4)
    assert defect <= verify.OBJECTIVE_GRADIENT_RTOL


# solve_cell -----------------------------------------------------------------

def test_solve_integrable_immediate():
    h, v, iters, converged, _ = verify.integrable_exactness(
        TorusGrid(n=1, m=0, N_x=64), 8.0, Ps=(0.7,))
    assert converged and iters <= verify.INTEGRABLE_MAX_ITERS
    assert h <= verify.INTEGRABLE_TOL and v <= verify.INTEGRABLE_TOL


def test_hbar_reported_via_field_op(pendulum, pendulum_sweep):
    # the reported value must be bit-identical to the torus-field operation
    # applied to the energy samples at the solution
    sol = pendulum_sweep["solutions"][1.5][-1]
    grid = sol.v.grid
    prob = CellProblem(pendulum, sol.P, sol.k, grid)
    y = prob.momentum_field(sol.v.values)
    h = prob.ham.evaluate(prob.x_mesh, y, prob.phi_mesh).h
    assert log_mean_exp_values(h, sol.k) == sol.Hbar_k


def test_mean_zero_and_descent(pendulum_sweep):
    for sols in pendulum_sweep["solutions"].values():
        assert max(verify.descent_defects(sols)) <= verify.DESCENT_TOL


def test_pendulum_value_window(pendulum_sweep, pendulum_pot):
    sol = pendulum_sweep["solutions"][0.0][-1]
    hbar = effective_hamiltonian_1d(pendulum_pot, 0.0)
    assert hbar - 0.15 <= sol.Hbar_k <= hbar


def test_pendulum_laplace_rate_at_rest():
    # at P=0 the corrector vanishes and the gap to the limit 2 follows the
    # saddle-point expansion: 2 - Hbar_k = log(2 pi k) / (2k) + O(1/k^2)
    for s in continuation_solve(make_pendulum(1.0), [0.0], [16.0, 32.0, 64.0], 1,
                                TorusGrid(n=1, m=0, N_x=256)):
        gap = 2.0 - s.Hbar_k
        leading = np.log(2.0 * np.pi * s.k) / (2.0 * s.k)
        assert abs(gap - leading) <= 1.0 / s.k ** 2


def test_warm_start_beats_cold(pendulum, grid256):
    prev = continuation_solve(pendulum, [1.5], [16.0], 2, grid256)[-1]
    warm = solve_cell(CellProblem(pendulum, [1.5], 32.0, grid256), prev.v)
    cold = solve_cell(CellProblem(pendulum, [1.5], 32.0, grid256),
                      opts=SolverOptions(max_iter=4000))
    assert warm.converged and cold.converged
    assert warm.iterations < cold.iterations
    assert warm.Hbar_k == pytest.approx(cold.Hbar_k, abs=1e-9)


def test_tau_steps_one_integrable_stays_zero():
    grid = TorusGrid(n=1, m=0, N_x=32)
    sols = continuation_solve(make_integrable(1), [0.5], [4.0, 8.0], 1, grid)
    for s in sols:
        assert np.max(np.abs(s.v.values)) <= 1e-12


def test_continuation_monotone_and_bounded(pendulum_sweep, pendulum_pot):
    for P, sols in pendulum_sweep["solutions"].items():
        assert verify.monotonicity_defect(sols) <= verify.MONOTONE_SLACK
        turning = np.sqrt(2.0 * (effective_hamiltonian_1d(pendulum_pot, P)
                                 - pendulum_pot.v_min))
        for s in sols:
            assert s.sup_Dxu <= 2.0 * turning


def test_infmax_upper_bound(pendulum, pendulum_sweep):
    # Hbar_k never exceeds the sup of H along any candidate gradient field
    sol = pendulum_sweep["solutions"][1.5][-1]
    assert verify.infmax_defect(pendulum, sol, RNG, amplitude=1.0) <= verify.INFMAX_TOL


def test_stationarity_el_residual(pendulum_sweep):
    for sols in pendulum_sweep["solutions"].values():
        assert verify.closedness(sols) <= verify.STATIONARITY_TOL


@pytest.mark.parametrize("mode", ["spectral", "fd2"])
def test_el_residual_matches_trig_test_fields(mode):
    # the FFT form equals the weak residual against each sin/cos test field
    from weakkam.cell import _el_residual
    from weakkam.fields import grad_values
    grid = TorusGrid(n=2, m=1, N_x=16, N_phi=3, diff_mode=mode)
    problem = CellProblem(make_integrable(2, 1), [0.3, 0.6], 4.0, grid)
    sigma = np.exp(random_band_limited(grid, RNG, max_mode=4).values)
    dy = np.stack([random_band_limited(grid, RNG, max_mode=7).values for _ in range(2)])
    worst = 0.0
    for a in range(2):
        for q in range(1, 8):
            for w in (np.sin(q * problem.x_mesh[a]), np.cos(q * problem.x_mesh[a])):
                flux = np.einsum("i...,i...->...", dy, grad_values(w, grid))
                worst = max(worst, abs(float(np.mean(sigma * flux))))
    assert _el_residual(grid, sigma, dy) == pytest.approx(worst, rel=1e-12)


@pytest.mark.parametrize("mode", ["spectral", "fd2"])
@pytest.mark.parametrize("n, m", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_el_residual_below_gradient_norm(mode, n, m):
    # the weak residual is one Fourier mode of the objective gradient
    # g = -div(sigma dy) - mean(g), so by Parseval it is at most |g| / sqrt 2:
    # gtol bounds it too
    from weakkam.cell import _el_residual
    from weakkam.fields import div_values
    rng = np.random.default_rng(11)
    grid = TorusGrid(n=n, m=m, N_x=16, N_phi=3, diff_mode=mode)
    for _ in range(5):
        sigma = np.exp(random_band_limited(grid, rng, max_mode=4).values)
        dy = np.stack([random_band_limited(grid, rng, max_mode=7).values for _ in range(n)])
        g = -div_values(sigma * dy, grid)
        g -= np.mean(g)
        bound = np.sqrt(np.mean(g * g) / 2.0)
        assert _el_residual(grid, sigma, dy) <= bound * (1 + 1e-12)
    # a flux of one Fourier mode attains the bound
    dy = np.zeros((n,) + grid.shape)
    dy[0] = np.cos(3 * grid.meshes()[0][0])
    g = -div_values(dy, grid)
    assert _el_residual(grid, np.ones(grid.shape), dy) == pytest.approx(
        np.sqrt(np.mean(g * g) / 2.0), rel=1e-12)


def test_nonconverged_flagged(pendulum, grid256):
    sol = solve_cell(CellProblem(pendulum, [1.5], 64.0, grid256),
                     opts=SolverOptions(max_iter=3))
    assert not sol.converged
    assert sol.status == "max_iter"
    assert sol.iterations == 3


def test_last_allowed_step_can_converge(pendulum, grid256):
    # an iterate that meets gtol on the last step the budget allows is
    # converged, not max_iter
    problem = CellProblem(pendulum, [1.5], 8.0, grid256, 0.5)
    free = solve_cell(problem)
    assert free.converged and free.iterations > 0
    capped = solve_cell(problem, opts=SolverOptions(max_iter=free.iterations))
    assert capped.converged and capped.status == "converged"
    assert capped.iterations == free.iterations
    assert capped.Hbar_k == free.Hbar_k


def test_nonconverged_has_larger_el_residual(pendulum, grid256, pendulum_sweep):
    bad = solve_cell(CellProblem(pendulum, [1.5], 64.0, grid256),
                     opts=SolverOptions(max_iter=3))
    good = pendulum_sweep["solutions"][1.5][-1]
    assert bad.el_residual > good.el_residual


def test_continuation_error_carries_partial(pendulum, grid256):
    # (opts, tau_steps) -> the failing stage, how many k stages completed
    # before it, and the message prefix
    cases = [
        # a tau stage: the first one takes 6 steps to HOMOTOPY_GTOL, and its
        # message names that tolerance
        (SolverOptions(max_iter=5), 2, 0.5, 8.0, 0,
         "stage (tau=0.5, k=8) did not converge (max_iter", "> gtol 0.01"),
        # a k stage: the three tau stages take 4, 1 and 2 steps (the last two
        # from secant starts), tau=1 at k=8 takes 4, k=64 takes 8
        (SolverOptions(max_iter=7), 4, 1.0, 64.0, 1,
         "stage (tau=1, k=64) did not converge (max_iter", "> gtol 1e-08"),
    ]
    for opts, tau_steps, tau, k, done, prefix, gtol in cases:
        with pytest.raises(ContinuationError) as err:
            continuation_solve(pendulum, [1.5], [8.0, 64.0], tau_steps, grid256, opts)
        assert (err.value.tau, err.value.k, len(err.value.partial)) == (tau, k, done)
        assert str(err.value).startswith(prefix), str(err.value)
        assert str(err.value).endswith(f"{gtol})"), str(err.value)
        assert all(s.tau == 1.0 and s.converged for s in err.value.partial)


def test_homotopy_stages_stop_at_their_own_tolerance(pendulum, grid256, monkeypatch):
    # tau < 1 stages only start the next stage: they stop at HOMOTOPY_GTOL,
    # the returned tau = 1 stages meet gtol and match a full-tolerance walk
    import weakkam.cell
    solve = weakkam.cell.solve_cell
    calls = []                      # (tau, gtol, iterations) of each stage

    def counted(problem, init, opts, state):
        sol = solve(problem, init, opts, state)
        calls.append((problem.tau, opts.gtol, sol.iterations))
        return sol

    def walk(opts):
        calls.clear()
        sols = continuation_solve(pendulum, [1.5], [8.0, 16.0], 4, grid256, opts)
        return sols, list(calls)

    def homotopy_steps(stages):
        return sum(iters for tau, _, iters in stages if tau < 1.0)

    monkeypatch.setattr(weakkam.cell, "solve_cell", counted)
    opts = SolverOptions()
    sols, stages = walk(opts)
    assert [g for _, g, _ in stages] == [weakkam.cell.HOMOTOPY_GTOL] * 3 + [opts.gtol] * 2
    assert all(s.grad_norm <= opts.gtol for s in sols)

    # a gtol looser than HOMOTOPY_GTOL holds the tau stages too
    _, loose_stages = walk(SolverOptions(gtol=5e-2))
    assert [g for _, g, _ in loose_stages] == [5e-2] * 5

    monkeypatch.setattr(weakkam.cell, "HOMOTOPY_GTOL", 0.0)
    full, full_stages = walk(opts)
    assert [g for _, g, _ in full_stages] == [opts.gtol] * 5
    assert homotopy_steps(stages) < homotopy_steps(full_stages)
    assert len(full) == len(sols) == 2
    assert all(abs(a.Hbar_k - b.Hbar_k) <= 1e-12 for a, b in zip(sols, full))


def test_continuation_error_names_where_hbar_fell(pendulum, monkeypatch):
    # a k stage whose Hbar_k falls below the one before it: the error names
    # that stage, once, and carries every solution of the schedule
    from dataclasses import replace

    import weakkam.cell
    solve = weakkam.cell.solve_cell

    def dip_at_16(problem, *args):
        sol = solve(problem, *args)
        return replace(sol, Hbar_k=sol.Hbar_k - 1.0) if problem.k == 16.0 else sol

    monkeypatch.setattr(weakkam.cell, "solve_cell", dip_at_16)
    with pytest.raises(ContinuationError) as err:
        continuation_solve(pendulum, [0.5], [8.0, 16.0, 32.0], 1, TorusGrid(n=1, m=0, N_x=64))
    assert (err.value.tau, err.value.k, len(err.value.partial)) == (1.0, 16.0, 3)
    assert str(err.value).startswith("stage (tau=1, k=16): Hbar_k not monotone")
    assert str(err.value).count("stage") == 1


def test_tilted_model_rejected():
    p = SwingModel(alpha=[0.3], beta=((TrigPoly(1.0),),), lam=[0.5])
    grid = TorusGrid(n=1, m=0, N_x=32)
    with pytest.raises(ValueError, match="tilted model: simulator-only"):
        CellProblem(p, [0.0], 4.0, grid)


def test_nonperiodic_model_rejected():
    p = SwingModel(alpha=[0.0, 0.0],
                   beta=((TrigPoly(0.0), TrigPoly(1.0)),
                         (TrigPoly(0.0), TrigPoly(0.0))),
                   lam=[0.5, 0.5])
    grid = TorusGrid(n=2, m=0, N_x=16)
    with pytest.raises(ValueError, match="periodic"):
        CellProblem(p, [0.0, 0.0], 4.0, grid)


def test_problem_validation():
    grid = TorusGrid(n=1, m=0, N_x=32)
    model = make_integrable(1)
    with pytest.raises(ValueError):
        CellProblem(model, [0.0], -1.0, grid)
    with pytest.raises(ValueError):
        CellProblem(model, [0.0], 4.0, grid, tau=1.5)
    with pytest.raises(ValueError):
        CellProblem(model, [0.0, 0.0], 4.0, grid)
    with pytest.raises(ValueError):
        continuation_solve(model, [0.0], [8.0, 8.0], 2, grid)
    with pytest.raises(ValueError):
        continuation_solve(model, [0.0], [8.0], 0, grid)
    # spectral grids past n = 2 have no preconditioner; fd2 ones solve
    model3 = make_integrable(3)
    with pytest.raises(ValueError, match='n <= 2.*grid.diff = "fd2"'):
        CellProblem(model3, [0.0] * 3, 4.0, TorusGrid(n=3, m=0, N_x=8))
    CellProblem(model3, [0.0] * 3, 4.0, TorusGrid(n=3, m=0, N_x=8, diff_mode="fd2"))


def test_methods_agree(pendulum):
    grid = TorusGrid(n=1, m=0, N_x=128)
    opts = SolverOptions(max_iter=4000)
    sols = continuation_solve(pendulum, [2.0], [8.0, 16.0], 2, grid, opts)
    assert all(s.converged for s in sols)
    assert sols[-1].Hbar_k == pytest.approx(3.0627309, abs=1e-6)
    assert verify.monotonicity_defect(sols) <= verify.MONOTONE_SLACK


def test_fd2_mode_close_to_spectral(pendulum):
    spectral = continuation_solve(pendulum, [2.0], [8.0], 2,
                                  TorusGrid(n=1, m=0, N_x=256))[-1]
    fd = continuation_solve(pendulum, [2.0], [8.0], 2,
                            TorusGrid(n=1, m=0, N_x=256, diff_mode="fd2"))[-1]
    assert fd.converged
    assert fd.Hbar_k == pytest.approx(spectral.Hbar_k, abs=1e-4)


def _ladder_model():
    """Coupled pair beta11 = beta22 = 0.4, beta12 = 0.3, beta21 = 0, lam = 1."""
    return SwingModel(
        alpha=[0.0, 0.0], beta=((TrigPoly(0.4), TrigPoly(0.3)), (TrigPoly(0.0), TrigPoly(0.4))),
        lam=[1.0, 1.0])


def _qp_model():
    """The quasi-periodic rotor of configs/swing_quasiperiodic.cfg."""
    return SwingModel(alpha=[0.0],
                      beta=((TrigPoly(1.0, (((1,), 0.5, 0.0),)),),),
                      lam=[0.5], omega=[np.sqrt(2.0)])


@pytest.mark.parametrize("n,m,mode", [(2, 0, "spectral"), (1, 1, "spectral"),
                                      (1, 1, "fd2"), (1, 0, "spectral"),
                                      (1, 0, "fd2")],
                         ids=["0", "1d-spectral", "1d-fd2",
                              "pendulum-spectral", "pendulum-fd2"])
def test_exact_step_inverts_operator(n, m, mode):
    # spectral n=2 grids and every n=1 grid (without fiber axes a stack of
    # one fiber): the exact step is the exact inverse of the matrix-free
    # Newton operator on mean-zero fields, fiber by fiber.  At k=4 the Gibbs
    # weight spans < 1e9 per fiber, so round-off stays near 1e-13
    from weakkam.cell import _evaluate, _newton_system
    rng = np.random.default_rng(11 + m)
    if n == 2:
        model = _ladder_model()
        grid, P = TorusGrid(n=2, m=0, N_x=8), [0.3, 0.6]
    elif m:
        model = _qp_model()
        grid, P = TorusGrid(n=1, m=m, N_x=16, N_phi=5, diff_mode=mode), [0.7]
    else:
        model = make_pendulum(1.0)
        grid, P = TorusGrid(n=1, m=0, N_x=16, diff_mode=mode), [0.7]
    problem = CellProblem(model, P, 4.0, grid)
    v = random_band_limited(grid, rng, max_mode=2, amplitude=0.2).values
    _, _, ev, sigma = _evaluate(problem, v)
    apply_A, precond = _newton_system(problem, ev, sigma, lam=1e-3, exact=True)
    for _ in range(3):
        z = random_band_limited(grid, rng, max_mode=3).values      # mean zero
        assert np.max(np.abs(precond(apply_A(z)) - z)) <= 1e-12 * np.max(np.abs(z))


def _corner_peaked_coefficient(grid, k, rng):
    """The n=1 Newton coefficient C = sigma (1 + k H_y^2) of the pendulum at
    P = 0.7 and a band-limited v, rolled by N_x/2 so that the Gibbs peak
    (x = pi) sits on the corner link N_x-1 -- 0, which the n=1 FD factor cuts
    and puts back as a rank-one correction.  At k=64 C spans > 50 orders."""
    from weakkam.cell import _evaluate
    problem = CellProblem(make_pendulum(1.0), [0.7], k, grid)
    v = random_band_limited(grid, rng, max_mode=2, amplitude=0.2).values
    _, _, ev, sigma = _evaluate(problem, v)
    C = sigma * (1.0 + k * ev.dy[:, None] * ev.dy[None])
    return np.roll(C, grid.N_x // 2, axis=-1)


def _dense_fd_stencil(grid, C, shift):
    """The cyclic flux-form FD stencil on an n=1 grid without fiber axes as a
    dense matrix, with the floor of weakkam.cell._fd_preconditioner."""
    c_half = 0.5 * (C[0, 0] + np.roll(C[0, 0], -1)) / grid.dx ** 2
    diag = c_half + np.roll(c_half, 1)
    eps = 1e-12 * diag.max() + 1e-40 * diag.max() + 1e-290
    A = np.diag(diag + shift + eps)
    i = np.arange(grid.N_x)
    A[i, (i + 1) % grid.N_x] = A[(i + 1) % grid.N_x, i] = -c_half
    return A


@pytest.mark.parametrize("lam", ["cold", "floor"])
@pytest.mark.parametrize("k", [4.0, 64.0])
@pytest.mark.parametrize("N", [16, 256])
@pytest.mark.parametrize("mode", ["spectral", "fd2"])
def test_fd_factor_1d_inverts_cyclic_stencil(mode, N, k, lam):
    # the O(N_x) tridiagonal factor with its rank-one corner correction is
    # the inverse of the whole cyclic stencil on mean-zero fields.  The
    # stencil's condition number is ~1e7 at N_x=256 and the cold lam, ~1e12
    # at the lam floor, so two stable solvers may differ by that times
    # rounding in the solution itself (against an exactly refined solve, the
    # dense one is off by 2e-12 and 5e-8 there): the difference from the
    # dense solve is compared in the stencil's image, relative to
    # ||A|| ||z||, where both are exact to rounding
    from weakkam.cell import LAM_COLD, LAM_MIN, _fd_preconditioner_1d
    grid = TorusGrid(n=1, m=0, N_x=N, diff_mode=mode)
    rng = np.random.default_rng(N + int(k))
    C = _corner_peaked_coefficient(grid, k, rng)
    scale = LAM_COLD if lam == "cold" else LAM_MIN / grid.dx ** 2
    shift = np.full(grid.shape, scale * C[0, 0].max())
    A = _dense_fd_stencil(grid, C, shift)
    norm_A = np.max(np.sum(np.abs(A), axis=1))
    solve = _fd_preconditioner_1d(grid, C, shift)
    for _ in range(3):
        r = rng.normal(size=grid.shape)
        r -= r.mean()
        ref = np.linalg.solve(A, r)
        ref -= ref.mean()
        z = solve(r)
        assert abs(z.mean()) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(A @ (z - ref))) <= 1e-12 * norm_A * np.max(np.abs(ref))


@pytest.mark.parametrize("defect", ["shift", "corner"])
def test_fd_factor_1d_rejects_indefinite_stencil(defect):
    # a negative shift fails the tridiagonal factor itself; a negative corner
    # link leaves the cut stencil definite but the cyclic one indefinite,
    # which the Sherman-Morrison denominator shows
    from weakkam.cell import _fd_preconditioner_1d
    grid = TorusGrid(n=1, m=0, N_x=16)
    C = np.full((1, 1) + grid.shape, 4.0)
    shift = np.zeros(grid.shape)
    if defect == "shift":
        shift -= 4.0 * 4.0 / grid.dx ** 2
    else:
        C[0, 0, 0] = C[0, 0, -1] = -2.0
        assert np.linalg.eigvalsh(_dense_fd_stencil(grid, C, shift))[0] < 0
    with pytest.raises(np.linalg.LinAlgError):
        _fd_preconditioner_1d(grid, C, shift)


@pytest.mark.parametrize("mode", ["spectral", "fd2"])
def test_fd_factor_1d_fibers_solve_as_one_fiber_grids(mode):
    # the fibers' tridiagonals lie end to end in one dpttrf/dpttrs call; each
    # fiber's solve has the bits of the one-fiber grid's solve on its own
    # coefficients (fiber scales within 1e8 of each other, so the global
    # term of the floor stays below the rounding of the per-fiber one), and
    # every fiber comes out with zero x-mean, not only the whole grid
    from weakkam.cell import _fd_preconditioner_1d
    grid = TorusGrid(n=1, m=1, N_x=32, N_phi=5, diff_mode=mode)
    one = TorusGrid(n=1, m=0, N_x=32, diff_mode=mode)
    rng = np.random.default_rng(17)
    C, shift = _spd_coefficients(grid, rng)
    scale = 10.0 ** -rng.uniform(0.0, 8.0, size=grid.N_phi)
    C, shift = C * scale, shift * scale
    solve = _fd_preconditioner_1d(grid, C, shift)
    fibers = [_fd_preconditioner_1d(one, C[..., j], shift[..., j])
              for j in range(grid.N_phi)]
    for _ in range(2):
        r = rng.normal(size=grid.shape)
        r -= r.mean()
        z = solve(r)
        for j, fiber_solve in enumerate(fibers):
            assert np.array_equal(z[:, j], fiber_solve(r[:, j]))
            assert abs(z[:, j].mean()) <= 1e-14 * np.max(np.abs(z[:, j]))


def _spd_coefficients(grid, rng):
    """Random pointwise SPD Newton coefficients C (n, n, *shape) and a positive
    shift per fiber, constant along x like the solver's."""
    n = grid.n
    G = rng.normal(size=(n, n) + grid.shape)
    C = np.einsum("ik...,jk...->ij...", G, G)
    C += 0.1 * np.eye(n).reshape((n, n) + (1,) * len(grid.shape))
    per_fiber = rng.uniform(0.01, 0.1, size=(1,) * n + grid.shape[n:])
    return C, np.broadcast_to(per_fiber, grid.shape)


def _full_operator_rows(D, c, i1, s):
    """Rows (i1, 0..N-1), shape (N, N*N), of sum_ab D_a^T diag(c_ab) D_b + s
    on one N x N fiber, every column: the reference the solver's
    lower-triangle ``_operator_rows`` must reproduce bit for bit."""
    N = D.shape[0]
    ar = np.arange(N)
    col = D[:, i1, None]
    R = (col * c[0, 1]).T[:, :, None] * D[:, None, :]            # a=1, b=2
    R += (D.T * c[1, 0, i1])[:, None, :] * D[i1][None, :, None]  # a=2, b=1
    R[:, i1, :] += (D.T * c[1, 1, i1]) @ D                       # a=b=2
    R[ar, :, ar] += (col * c[0, 0]).T @ D                        # a=b=1
    R[ar, i1, ar] += s
    return R.reshape(N, N * N)


def _full_operator(grid, C, shift):
    """The dense n=2 Newton operator from ``_full_operator_rows``, with the
    exact step's shift floor."""
    from weakkam.cell import _diff_matrix
    D = _diff_matrix(grid.N_x, grid.diff_mode)
    s = float(shift[0, 0]) + 1e-290
    return np.concatenate([_full_operator_rows(D, C, i1, s) for i1 in range(grid.N_x)])


def _two_column_exact(grid, C, shift, r):
    """What the exact preconditioners returned while every apply solved the
    constant vector again: per fiber, one solve of [r, 1] on a factor of the
    same matrix, then z - (mean z / mean A^-1 1) A^-1 1 with np.mean.  The
    n=2 factor is built from the dense operator through LAPACK's own RFP
    packing (``dtrttf``)."""
    from scipy.linalg.blas import dgemm
    from scipy.linalg.lapack import dpftrf, dpftrs, dpotrf, dpotrs, dtrttf

    from weakkam.cell import _diff_matrix
    N = grid.N_x
    if grid.n == 1:
        D = _diff_matrix(N, grid.diff_mode)
        # the (fibers, 2, N) stack, viewed as fields in the same memory order,
        # so that np.mean sums in the same order
        c = C[0, 0].reshape(N, -1)
        rhs = np.ones((c.shape[1], 2, N))
        rhs[:, 0] = r.reshape(N, -1).T
        for f, b in enumerate(rhs):
            A = np.empty((N, N))
            dgemm(1.0, (c[:, f, None] * D).T, D.T, trans_b=1, c=A.T, overwrite_c=1)
            A.flat[::N + 1] += shift[0].reshape(-1)[f] + 1e-290
            dpotrf(A.T, lower=1, overwrite_a=1, clean=0)
            dpotrs(A.T, b.T, lower=1, overwrite_b=1)
        z, ones = (rhs[:, j].T.reshape(grid.shape) for j in (0, 1))
        return z - (z.mean() / ones.mean()) * ones
    arf, _ = dtrttf(_full_operator(grid, C, shift), transr="N", uplo="L")
    dpftrf(N * N, arf, transr="N", uplo="L", overwrite_a=1)
    x, _ = dpftrs(N * N, arf, np.stack([r.ravel(), np.ones(N * N)], axis=1),
                  transr="N", uplo="L")
    z, ones = x[:, 0].reshape(N, N), x[:, 1].reshape(N, N)
    return z - (z.mean() / ones.mean()) * ones


PRECONDITIONERS = {
    # id: (maker name, grid)
    "fd": ("_fd_preconditioner", TorusGrid(n=2, m=0, N_x=8, diff_mode="fd2")),
    "fd_1d": ("_fd_preconditioner_1d", TorusGrid(n=1, m=0, N_x=16)),
    "fd_1d-m1": ("_fd_preconditioner_1d", TorusGrid(n=1, m=1, N_x=16, N_phi=3)),
    "exact_1d-m0": ("_exact_preconditioner_1d", TorusGrid(n=1, m=0, N_x=16)),
    "exact_1d-m1": ("_exact_preconditioner_1d", TorusGrid(n=1, m=1, N_x=16, N_phi=3)),
    "exact-m0": ("_exact_preconditioner", TorusGrid(n=2, m=0, N_x=8)),
    "fourier": ("_fourier_preconditioner", TorusGrid(n=2, m=0, N_x=8)),
}


@pytest.mark.parametrize("case", list(PRECONDITIONERS))
def test_preconditioners_leave_their_input_alone(case):
    # PCG hands each preconditioner its live residual; one written in place
    # (an in-place LAPACK solve on a view of r) would corrupt the CG recurrence
    from weakkam import cell
    maker, grid = PRECONDITIONERS[case]
    rng = np.random.default_rng(5)
    C, shift = _spd_coefficients(grid, rng)
    solve = getattr(cell, maker)(grid, C, shift)
    for _ in range(2):
        r = rng.normal(size=grid.shape)
        r -= r.mean()
        kept = r.copy()
        z = solve(r)
        assert np.array_equal(r, kept)
        assert z.shape == grid.shape and abs(z.mean()) <= 1e-12 * np.max(np.abs(z))


@pytest.mark.parametrize("first", ["zeros", "orthogonal", "identity"])
def test_pcg_stops_where_the_preconditioner_offers_no_step(first):
    # a preconditioned residual z with r.z = 0 gives CG no step: it returns
    # its iterate, as on p.Ap <= 0, instead of dividing by r.z.  The
    # orthogonal z pairs the nodes and swaps each pair with one sign flipped,
    # so r.z sums products that cancel exactly; "identity" takes one CG step
    # on z = r before that
    from weakkam.cell import _pcg
    b = np.array([1.0, -2.0, 0.5, 0.5])
    calls = []

    def precond(r):
        calls.append(1)
        if first == "zeros":
            return np.zeros_like(r)
        if first == "identity" and len(calls) == 1:
            return r.copy()
        return r[[1, 0, 3, 2]] * np.array([-1.0, 1.0, -1.0, 1.0])

    x, applies = _pcg(lambda w: 2.0 * w + w[::-1], b, rel_tol=1e-12, max_iter=50,
                      precond=precond)
    if first == "identity":
        Ab = 2.0 * b + b[::-1]
        assert applies == 1
        assert np.array_equal(x, (np.mean(b * b) / np.mean(b * Ab)) * b)
    else:
        assert applies == 0 and not x.any()


@pytest.mark.parametrize("grid", [
    TorusGrid(n=2, m=0, N_x=8), TorusGrid(n=2, m=0, N_x=24), TorusGrid(n=2, m=0, N_x=32)],
    ids=["2d-8", "2d-24", "2d-32"])
def test_rfp_buffer_matches_full_rows(grid, monkeypatch):
    # the exact n=2 step assembles only the columns j1 <= i1 of each row
    # block, which hold the lower triangle that RFP storage keeps: the buffer
    # handed to dpftrf is, bit for bit, LAPACK's packing of the full rows
    import scipy.linalg.lapack as lapack
    from scipy.linalg.lapack import dtrttf

    from weakkam.cell import _exact_preconditioner
    handed = []
    dpftrf = lapack.dpftrf
    monkeypatch.setattr(lapack, "dpftrf",
                        lambda n, a, **k: handed.append(a.copy()) or dpftrf(n, a, **k))
    rng = np.random.default_rng(grid.N_x + grid.m)
    C, shift = _spd_coefficients(grid, rng)
    r = rng.normal(size=grid.shape)
    _exact_preconditioner(grid, C, shift)(r - r.mean())
    [buf] = handed
    arf, _ = dtrttf(_full_operator(grid, C, shift), transr="N", uplo="L")
    assert buf.tobytes() == arf.tobytes()


@pytest.mark.parametrize("grid", [TorusGrid(n=2, m=0, N_x=16)], ids=["m0"])
def test_fourier_preconditioner_inverts_constant_coefficients(grid):
    # with sigma and D_yH constant along x the Newton operator is the Fourier
    # multiplier itself, so the factor-free start of spectral n=2 grids is
    # its exact inverse on mean-zero fields, the Nyquist modes (which the
    # derivative zeroes) included
    from types import SimpleNamespace

    from weakkam.cell import _fourier_preconditioner, _newton_system
    rng = np.random.default_rng(3)
    dy = np.array([0.7, -1.3]).reshape(2, 1, 1) * (1.0 + rng.uniform(-0.5, 0.5))
    ev = SimpleNamespace(dy=np.broadcast_to(dy, (2,) + grid.shape).copy())
    sigma = np.full(grid.shape, rng.uniform(0.1, 1.0))
    apply_A, precond = _newton_system(SimpleNamespace(grid=grid, k=4.0), ev, sigma,
                                      lam=1e-3, exact=False)
    assert precond.__qualname__.startswith(_fourier_preconditioner.__name__)
    for _ in range(3):
        z = rng.normal(size=grid.shape)
        z -= z.mean()
        assert np.max(np.abs(precond(apply_A(z)) - z)) <= 1e-12 * np.max(np.abs(z))


@pytest.mark.parametrize("grid", [
    TorusGrid(n=1, m=0, N_x=16), TorusGrid(n=1, m=0, N_x=128),
    TorusGrid(n=1, m=0, N_x=256), TorusGrid(n=1, m=0, N_x=64, diff_mode="fd2"),
    TorusGrid(n=1, m=1, N_x=16, N_phi=3), TorusGrid(n=1, m=1, N_x=128, N_phi=16),
    TorusGrid(n=2, m=0, N_x=8), TorusGrid(n=2, m=0, N_x=32)],
    ids=["1d-16", "1d-128", "1d-256", "1d-fd2-64", "1d-m1-16", "1d-m1-128",
         "2d-8", "2d-32"])
def test_exact_preconditioner_caches_the_constant_solve_exactly(grid):
    # A^-1 1 is solved once per factor instead of as a second column of every
    # apply: a one-column triangular solve gives each column the bits of the
    # two-column one, so every apply returns what the two-column solve did
    from weakkam.cell import _exact_preconditioner, _exact_preconditioner_1d
    rng = np.random.default_rng(grid.N_x + grid.m)
    C, shift = _spd_coefficients(grid, rng)
    make = _exact_preconditioner_1d if grid.n == 1 else _exact_preconditioner
    solve = make(grid, C, shift)
    for _ in range(2):
        r = rng.normal(size=grid.shape)
        r -= r.mean()
        assert np.array_equal(solve(r), _two_column_exact(grid, C, shift, r))


@pytest.mark.parametrize("grid", [
    TorusGrid(n=1, m=0, N_x=256), TorusGrid(n=1, m=1, N_x=128, N_phi=16),
    TorusGrid(n=2, m=0, N_x=32)],
    ids=["1x1x256", "1x1x128x16", "2x2x32x32"])
def test_operator_apply_matches_einsum_contraction(grid):
    # apply_A contracts C with the gradient axis by axis; the einsum it
    # replaced gives the same bits
    from types import SimpleNamespace

    from weakkam.cell import _newton_system
    from weakkam.fields import div_values, grad_values
    n, grid_shape = grid.n, grid.shape
    rng = np.random.default_rng(grid.N_x)
    ev = SimpleNamespace(dy=rng.normal(size=(n,) + grid_shape))
    sigma, k, lam = rng.uniform(0.5, 1.0, size=grid_shape), 4.0, 1e-3
    apply_A, _ = _newton_system(SimpleNamespace(grid=grid, k=k), ev, sigma, lam,
                                exact=False, precond=lambda r: r)
    eye = np.eye(n).reshape((n, n) + (1,) * len(grid_shape))
    C = sigma * (eye + k * np.einsum("i...,j...->ij...", ev.dy, ev.dy))
    shift = lam * sum(C[a, a] for a in range(n)).max(axis=tuple(range(n)), keepdims=True)
    for _ in range(2):
        w = rng.normal(size=grid_shape)
        flux = np.einsum("ij...,j...->i...", C, grad_values(w, grid))
        ref = -div_values(flux, grid) + shift * w
        assert np.array_equal(apply_A(w), ref - ref.mean())


def test_pendulum_solves_without_sparse_lu(pendulum, grid256, monkeypatch):
    # the n=1 FD stencil is factored as a cyclic tridiagonal: a pendulum
    # continuation calls no sparse LU, while an fd2 n=2 solve still does
    import scipy.sparse.linalg as sla
    splu = sla.splu

    def refuse(*args, **kwargs):
        raise AssertionError("splu called on an n=1 grid")

    monkeypatch.setattr(sla, "splu", refuse)
    sols = continuation_solve(pendulum, [0.5], [8.0, 16.0], 2, grid256)
    assert all(s.converged for s in sols)
    factored = []
    monkeypatch.setattr(sla, "splu", lambda *a, **kw: factored.append(1) or splu(*a, **kw))
    grid = TorusGrid(n=2, m=0, N_x=16, diff_mode="fd2")
    sol = solve_cell(CellProblem(_ladder_model(), [0.3, 0.6], 8.0, grid))
    assert sol.converged and factored


def test_fd2_2d_ignores_a_handed_exact_state(monkeypatch):
    # fd2 n=2 grids have no exact step: a warm start handed a state that had
    # turned exact stays on the sparse LU of the FD stencil
    import scipy.sparse.linalg as sla

    from weakkam.cell import NewtonState
    factored, splu = [], sla.splu
    monkeypatch.setattr(sla, "splu", lambda *a, **kw: factored.append(1) or splu(*a, **kw))
    rfp = _count_rfp_factors(monkeypatch)
    grid = TorusGrid(n=2, m=0, N_x=16, diff_mode="fd2")
    sol = solve_cell(CellProblem(_ladder_model(), [0.3, 0.6], 8.0, grid),
                     state=NewtonState(1e-3, exact=True))
    assert sol.converged and factored and not rfp
    assert not sol.newton_state.exact


def _count_dense_factors(monkeypatch):
    """Count the calls of the n=1 exact step's factorization."""
    from weakkam import cell
    built = []
    dense = cell._exact_preconditioner_1d
    monkeypatch.setattr(cell, "_exact_preconditioner_1d",
                        lambda *a: built.append(a[0]) or dense(*a))
    return built


def _count_rfp_factors(monkeypatch):
    """Count the packed Cholesky factorizations of the n=2 exact step."""
    import scipy.linalg.lapack as lapack
    factored = []
    dpftrf = lapack.dpftrf
    monkeypatch.setattr(lapack, "dpftrf", lambda *a, **k: factored.append(1) or dpftrf(*a, **k))
    return factored


def _count_pcg_applies(monkeypatch):
    """Count the Newton-operator applies of every PCG solve."""
    from weakkam import cell
    applies = []
    pcg = cell._pcg

    def counting(*args, **kwargs):
        x, n = pcg(*args, **kwargs)
        applies.append(n)
        return x, n

    monkeypatch.setattr(cell, "_pcg", counting)
    return applies


def test_pendulum_sweep_stays_on_fd_lu(pendulum, grid256, monkeypatch):
    # n=1 without fiber axes at N_x=256: CG on the FD factor stays well below
    # the cost of a dense factor along a k continuation, so none is built
    built = _count_dense_factors(monkeypatch)
    sols = continuation_solve(pendulum, [0.5], [8.0, 16.0, 32.0, 64.0], 4, grid256)
    assert all(s.converged for s in sols)
    assert not built


def _record_solves(monkeypatch, carry=True):
    """Record (problem, opts, solution) of every solve_cell call; with
    ``carry=False`` each call drops the Newton state it is handed."""
    from weakkam import cell
    solves = []
    solve = cell.solve_cell

    def recording(problem, init=None, opts=None, state=None):
        sol = solve(problem, init, opts, state if carry else None)
        solves.append((problem, opts, sol))
        return sol

    monkeypatch.setattr(cell, "solve_cell", recording)
    return solves


def test_carried_state_cuts_newton_steps(pendulum, grid256, monkeypatch):
    # the tau and k stages hand their Levenberg lam on and start from secant
    # predictions: 56 Newton steps when every stage started at the cold lam
    # with the grid-scale shift, 25 with the carried lam, 24 now
    solves = _record_solves(monkeypatch)
    sols = continuation_solve(pendulum, [0.5], [8.0, 16.0, 32.0, 64.0], 4, grid256)
    assert all(s.converged for s in sols) and len(solves) == 7
    steps = [sol.iterations for *_, sol in solves]
    assert sum(steps) <= 24, steps


def test_carried_state_keeps_the_minimizer(pendulum, grid256, monkeypatch):
    # the state changes the path, not the solution
    carried = continuation_solve(pendulum, [0.5], [8.0, 16.0, 32.0, 64.0], 4, grid256)
    _record_solves(monkeypatch, carry=False)
    fresh = continuation_solve(pendulum, [0.5], [8.0, 16.0, 32.0, 64.0], 4, grid256)
    for a, b in zip(carried, fresh):
        assert abs(a.Hbar_k - b.Hbar_k) <= 1e-10


@pytest.mark.parametrize("case", ["pendulum", "ladder_2d"])
def test_secant_starts_keep_the_minimizer(case, pendulum, grid256, monkeypatch):
    # the predicted starts change the path, not the solution: the plain warm
    # start (the last solution) gives the same Hbar_k at every k
    from weakkam import cell
    if case == "pendulum":
        args = (pendulum, [0.5], [8.0, 16.0, 32.0, 64.0], 4, grid256)
    else:
        args = (_ladder_model(), [0.3, 0.6], [8.0, 16.0, 32.0], 4,
                TorusGrid(n=2, m=0, N_x=32), SolverOptions(max_iter=350))
    predicted = continuation_solve(*args)
    monkeypatch.setattr(cell, "_secant", lambda points, s: points[-1][1])
    plain = continuation_solve(*args)
    assert [s.k for s in predicted] == [s.k for s in plain]
    for a, b in zip(predicted, plain):
        assert abs(a.Hbar_k - b.Hbar_k) <= 1e-10


def test_continuation_repeats_exactly(pendulum, grid256):
    # no solver state outlives a call: a second run takes the same path
    runs = [continuation_solve(pendulum, [1.5], [8.0, 16.0], 2, grid256) for _ in range(2)]
    assert [(s.Hbar_k, s.iterations) for s in runs[0]] == \
        [(s.Hbar_k, s.iterations) for s in runs[1]]


def test_stalled_cg_switches_to_exact_step(pendulum, grid256, pendulum_sweep,
                                           monkeypatch):
    # one row of the Hbar^64 table: warm-started from P=0, CG on the FD factor
    # runs into its cap (the FD-only solve takes 17 steps and 2515 applies);
    # the solve moves to the dense step (12 steps, 95 applies), same Hbar_k
    from weakkam import cell
    init = pendulum_sweep["solutions"][0.0][-1].v
    problem = CellProblem(pendulum, [0.05], 64.0, grid256)
    opts = SolverOptions(max_iter=4000)
    built = _count_dense_factors(monkeypatch)
    applies = _count_pcg_applies(monkeypatch)
    sol = solve_cell(problem, init, opts)
    assert sol.converged and built
    assert sum(applies) <= 200, applies
    monkeypatch.setattr(cell, "_dense_pays", lambda grid, applies: False)
    fd_only = solve_cell(problem, init, opts)
    assert fd_only.converged
    assert abs(sol.Hbar_k - fd_only.Hbar_k) <= 1e-9


def test_dense_pays_at_the_cg_cap():
    # the n=1 threshold 4 (N_x/128)^3 passes CG_MAX_ITER at N_x=472; a CG
    # that ran into the cap pays on every grid with a dense step, so a
    # stalled CG there still switches.  The calibrated thresholds below it
    # are unchanged, and fd2 n=2 grids have no dense step to pay for
    from weakkam.cell import CG_MAX_ITER, _dense_pays
    assert _dense_pays(TorusGrid(n=1, m=0, N_x=512), CG_MAX_ITER)
    assert not _dense_pays(TorusGrid(n=1, m=0, N_x=512), CG_MAX_ITER - 1)
    for grid, threshold in ((TorusGrid(n=1, m=0, N_x=128), 4),
                            (TorusGrid(n=1, m=0, N_x=256), 32),
                            (TorusGrid(n=1, m=1, N_x=128, N_phi=16), 4),
                            (TorusGrid(n=2, m=0, N_x=32), 10)):
        assert not _dense_pays(grid, threshold) and _dense_pays(grid, threshold + 1)
    assert not _dense_pays(TorusGrid(n=2, m=0, N_x=16, diff_mode="fd2"), CG_MAX_ITER)


def test_joint_rotor_starts_on_fd_factor(monkeypatch):
    # the fibered n=1 grid starts on the FD factor, fiber by fiber, and
    # builds the dense stack only once CG on it stalls: the joint
    # continuation of the quasi-periodic rotor builds 3 stacks (7 when every
    # stage started exact; the bound leaves 1 of margin)
    built = _count_dense_factors(monkeypatch)
    sols = continuation_solve(_qp_model(), [0.7886112211144736], [8.0, 16.0], 4,
                              TorusGrid(n=1, m=1, N_x=128, N_phi=16))
    assert [s.k for s in sols] == [8.0, 16.0] and all(s.converged for s in sols)
    assert 0 < len(built) <= 4, len(built)


def _record_pcg_on_kept_factors(monkeypatch):
    """Record (applies, whether the preconditioner was the previous solve's)
    of every PCG solve.  Only the last preconditioner is held, so that the
    dropped factors are released."""
    from weakkam import cell
    solves, last = [], [None]
    pcg = cell._pcg

    def recording(apply_A, b, rel_tol, max_iter, precond, atol=0.0):
        x, n = pcg(apply_A, b, rel_tol, max_iter, precond, atol)
        solves.append((n, precond is last[0]))
        last[0] = precond
        return x, n

    monkeypatch.setattr(cell, "_pcg", recording)
    return solves


@pytest.mark.parametrize("mode,P,hbar64", [("spectral", 1.5, 2.910979898432056),
                                          ("fd2", 2.3, 4.212343056623444)],
                         ids=["spectral", "fd2"])
def test_rotor_k64_cg_stays_off_its_cap(mode, P, hbar64, monkeypatch):
    # the quasi-periodic rotor to k=64: when every stage started exact, a CG
    # on a kept dense factor ran to CG_MAX_ITER at P=1.5 (spectral), and at
    # P=2.3 (fd2) the k=64 stage ended in a line_search failure.  Now no CG
    # reaches the cap, and one on a kept factor stops after
    # REFACTOR_APPLIES + 1 applies, after which the next step factors anew.
    # Hbar_64 is the spectral one of the exact-start solver in both cases
    from weakkam.cell import CG_MAX_ITER, REFACTOR_APPLIES
    solves = _record_pcg_on_kept_factors(monkeypatch)
    sols = continuation_solve(_qp_model(), [P], [8.0, 16.0, 32.0, 64.0], 4,
                              TorusGrid(n=1, m=1, N_x=128, N_phi=16, diff_mode=mode))
    assert sols[-1].k == 64.0
    assert sols[-1].Hbar_k == pytest.approx(hbar64, abs=1e-10)
    assert max(n for n, _ in solves) < CG_MAX_ITER
    kept = [n for n, on_kept in solves if on_kept]
    assert kept and max(kept) <= REFACTOR_APPLIES + 1, kept


def test_ladder_2d_converges(monkeypatch):
    # spectral n=2 at k up to 32: every stage, the tau stages included,
    # converges within 20 Newton steps.  Each stage starts on the Fourier
    # multiplier and factors only once CG on it stalls; the exact factor is
    # then kept across steps.  A factor per step was 51 over the six stages,
    # a kept factor from the first step 9, the factor-free start 5 (the bound
    # leaves 2 of margin)
    factored = _count_rfp_factors(monkeypatch)
    solves = _record_solves(monkeypatch)
    sols = continuation_solve(_ladder_model(), [0.3, 0.6], [8.0, 16.0, 32.0], 4,
                              TorusGrid(n=2, m=0, N_x=32), SolverOptions(max_iter=350))
    stages = [(s.tau, s.k, s.iterations, s.converged) for *_, s in solves]
    assert len(stages) == 6
    assert all(conv and iters <= 20 for _, _, iters, conv in stages), stages
    assert 0 < len(factored) <= 7, len(factored)
    assert [s.k for s in sols] == [8.0, 16.0, 32.0]
    # Hbar_8 and Hbar_16 of an independent quasi-Newton solve of the same stages
    assert sols[0].Hbar_k == pytest.approx(1.7414913211180434, abs=1e-10)
    assert sols[1].Hbar_k == pytest.approx(1.918095644905284, abs=1e-10)
    # Hbar_32 of the solver that factored at every stage's first step
    assert sols[2].Hbar_k == pytest.approx(2.0367932956754036, abs=1e-12)


def test_spectral_2d_envelope_rejected():
    model = _ladder_model()
    with pytest.raises(ValueError, match='grid.diff = "fd2"'):
        CellProblem(model, [0.3, 0.6], 8.0, TorusGrid(n=2, m=0, N_x=128))
    CellProblem(model, [0.3, 0.6], 8.0, TorusGrid(n=2, m=0, N_x=128, diff_mode="fd2"))
    CellProblem(model, [0.3, 0.6], 8.0, TorusGrid(n=2, m=0, N_x=64))


def test_resolution_warning_fires():
    # huge k at a coarse grid trips the concentration warning
    pend = make_pendulum(1.0)
    grid = TorusGrid(n=1, m=0, N_x=16)
    sol = solve_cell(CellProblem(pend, [0.0], 400.0, grid))
    assert any("resolution" in w for w in sol.warnings)


# fiber decomposition ---------------------------------------------------------

def test_fiber_requires_fiber_axes():
    grid = TorusGrid(n=1, m=0, N_x=32)
    with pytest.raises(ValueError):
        fiber_decomposed_solve(CellProblem(make_integrable(1), [0.0], 4.0, grid))


def test_fiber_value_identity(quasi_swing):
    # joint value is the log-mean-exp across the fiber free energies
    grid = TorusGrid(n=1, m=1, N_x=128, N_phi=16)
    prob = CellProblem(quasi_swing, [0.0], 16.0, grid)
    sol = fiber_decomposed_solve(prob)
    k = prob.k
    m = sol.fiber_values.max()
    expected = m + np.log(np.mean(np.exp(k * (sol.fiber_values - m)))) / k
    assert sol.Hbar_k == pytest.approx(expected, abs=1e-10)


def test_fiber_constant_when_no_phi_dependence():
    model = SwingModel(alpha=[0.0], beta=((TrigPoly(1.0),),), lam=[0.5], omega=[1.0])
    grid = TorusGrid(n=1, m=1, N_x=64, N_phi=8)
    sol = fiber_decomposed_solve(CellProblem(model, [0.4], 8.0, grid))
    assert np.max(sol.fiber_values) - np.min(sol.fiber_values) <= 1e-10
    assert sol.Hbar_k == pytest.approx(float(sol.fiber_values.ravel()[0]), abs=1e-10)


def test_fiber_two_drive_angles(monkeypatch):
    # m = 2: two incommensurate drives, mixed fiber modes; each of the 64
    # fibers is solved once (the first after its k ladder), and the
    # assembled gradient meets gtol
    beta = TrigPoly(1.0, (((1, 0), 0.3, 0.0), ((0, 1), 0.0, 0.2), ((1, 1), 0.1, 0.0)))
    model = SwingModel(alpha=[0.0], beta=((beta,),), lam=[0.5],
                       omega=[1.0, np.sqrt(2.0)])
    grid = TorusGrid(n=1, m=2, N_x=64, N_phi=8)
    joint = continuation_solve(model, [0.5], [8.0], 4, grid)[-1]
    solves = _record_solves(monkeypatch)
    fib = fiber_decomposed_solve(CellProblem(model, [0.5], 8.0, grid))
    assert len(solves) == 64 + FIBER_LADDER
    assert fib.converged and fib.grad_norm <= SolverOptions().gtol
    assert fib.fiber_values.shape == (8, 8)
    assert abs(joint.Hbar_k - fib.Hbar_k) <= 1e-8


def _coupled_pair(b00, omega):
    """Coupled pair beta11 = b00, beta12 = 0.3, beta21 = 0, beta22 = 0.4,
    lam = 1, driven at the frequencies omega."""
    return SwingModel(
        alpha=[0.0, 0.0], beta=((b00, TrigPoly(0.3)), (TrigPoly(0.0), TrigPoly(0.4))),
        lam=[1.0, 1.0], omega=omega)


def test_fiber_two_rotors_one_drive(monkeypatch):
    # n = 2, m = 1: coupled pair under one drive.  The continuation is one
    # fiber pass over its schedule, so every Newton solve is on an n=2 grid
    # without fiber axes: the first fiber's k ladder once, then one solve
    # per fiber and k.  Hbar_k is that of the joint Newton solve of the
    # whole grid (tau_steps = 4), which the fiber pass replaced
    model = _coupled_pair(TrigPoly(0.6, (((1,), 0.2, 0.0),)), [1.0])
    grid = TorusGrid(n=2, m=1, N_x=24, N_phi=6)
    solves = _record_solves(monkeypatch)
    sols = continuation_solve(model, [0.3, 0.8], [8.0, 16.0], 4, grid)
    assert [(s.tau, s.k) for s in sols] == [(1.0, 8.0), (1.0, 16.0)]
    assert all(s.converged for s in sols)
    assert len(solves) == FIBER_LADDER + 2 * grid.N_phi
    assert all(problem.grid.m == 0 for problem, *_ in solves)
    assert sols[0].Hbar_k == pytest.approx(2.360633245982229, abs=1e-12)
    assert sols[1].Hbar_k == pytest.approx(2.5956830189367155, abs=1e-12)


def test_fiber_two_rotors_two_drives(monkeypatch):
    # n = 2, m = 2: the coupled pair under two incommensurate drives, the
    # envelope's corner.  The first fiber climbs its k ladder once, then
    # each of the 16 fibers is solved once per k.  Hbar_k is that of the
    # joint Newton solve of the whole grid (tau_steps = 3), which the fiber
    # pass replaced
    b00 = TrigPoly(0.6, (((1, 0), 0.2, 0.0), ((0, 1), 0.1, 0.0)))
    model = _coupled_pair(b00, [1.0, np.sqrt(2.0)])
    grid = TorusGrid(n=2, m=2, N_x=12, N_phi=4)
    solves = _record_solves(monkeypatch)
    sols = continuation_solve(model, [0.3, 0.8], [4.0, 8.0], 3, grid)
    assert [s.k for s in sols] == [4.0, 8.0] and all(s.converged for s in sols)
    assert len(solves) == FIBER_LADDER + 2 * grid.N_phi ** 2
    assert sols[0].Hbar_k == pytest.approx(2.1545098474376374, abs=1e-12)
    assert sols[1].Hbar_k == pytest.approx(2.4626591967691587, abs=1e-12)


@pytest.mark.parametrize("mode", ["spectral", "fd2"])
def test_fibered_separable_pair_is_the_sum_of_its_rotors(mode):
    # with beta12 = beta21 = 0 and only beta11 driven, each fiber's problem
    # splits into the two rotors': the fiber pass against the joint n=1
    # Newton loop, under one drive and under two
    for m in (1, 2):
        grid = TorusGrid(n=2, m=m, N_x=16, N_phi=4, diff_mode=mode)
        assert verify.fibered_separable_defect(grid) <= verify.SEPARABLE_TOL


@pytest.mark.parametrize("mode", ["spectral", "fd2"])
def test_separable_pair_is_the_sum_of_its_rotors(mode):
    # the m = 0 solver the fiber pass rests on, against its exact reference
    grid = TorusGrid(n=2, m=0, N_x=16, diff_mode=mode)
    assert verify.separable_defect(grid) <= verify.SEPARABLE_TOL


def test_solve_cell_refuses_fibered_2d_grids():
    model = _coupled_pair(TrigPoly(0.6, (((1,), 0.2, 0.0),)), [1.0])
    problem = CellProblem(model, [0.3, 0.8], 4.0, TorusGrid(n=2, m=1, N_x=8, N_phi=3))
    with pytest.raises(ValueError, match="fiber_decomposed_solve"):
        solve_cell(problem)


def test_fibered_continuation_error_carries_earlier_k(monkeypatch):
    # a fiber that fails at k = 16 (here the first fiber, whose k = 16 solve
    # stops after one Newton step) fails the stage (tau = 1, k = 16), and
    # the error carries the k = 8 solution
    from weakkam import cell
    solve = cell.solve_cell

    def fail_at_16(problem, init=None, opts=None, state=None):
        if problem.k == 16.0:
            opts = replace(opts, max_iter=1)
        return solve(problem, init, opts, state)

    monkeypatch.setattr(cell, "solve_cell", fail_at_16)
    model = _coupled_pair(TrigPoly(0.6, (((1,), 0.2, 0.0),)), [1.0])
    grid = TorusGrid(n=2, m=1, N_x=12, N_phi=3)
    with pytest.raises(ContinuationError) as exc:
        continuation_solve(model, [0.3, 0.8], [8.0, 16.0], 4, grid)
    assert (exc.value.tau, exc.value.k) == (1.0, 16.0)
    assert str(exc.value).startswith("stage (tau=1, k=16): fiber (0,) did not converge")
    [sol] = exc.value.partial
    assert sol.k == 8.0 and sol.tau == 1.0 and sol.converged
    assert sol.fiber_values.shape == (grid.N_phi,)


def test_fibered_continuation_names_the_failed_rung(monkeypatch):
    # the first fiber's k ladder below k = 8 runs once, before any joint
    # solution: a rung that fails fails the stage (tau = 1, k = 8), names
    # the rung's k and carries no solution
    from weakkam import cell
    solve = cell.solve_cell

    def fail_at_2(problem, init=None, opts=None, state=None):
        if problem.k == 2.0:
            opts = replace(opts, max_iter=1)
        return solve(problem, init, opts, state)

    monkeypatch.setattr(cell, "solve_cell", fail_at_2)
    model = _coupled_pair(TrigPoly(0.6, (((1,), 0.2, 0.0),)), [1.0])
    with pytest.raises(ContinuationError) as exc:
        continuation_solve(model, [0.3, 0.8], [8.0, 16.0], 4,
                           TorusGrid(n=2, m=1, N_x=12, N_phi=3))
    assert (exc.value.tau, exc.value.k, exc.value.partial) == (1.0, 8.0, [])
    assert str(exc.value).startswith("stage (tau=1, k=8): fiber (0,) did not converge")
    assert str(exc.value).endswith(" at k=2")


def test_fibered_continuation_checks_the_joint_gradient(monkeypatch):
    # fiber solves that stop at gtol 1e-4 leave an assembled gradient
    # (3.9e-5) above the joint gtol: the first k fails as a stage, with no
    # solution before it
    from weakkam import cell
    solve = cell.solve_cell

    def loose(problem, init=None, opts=None, state=None):
        return solve(problem, init, replace(opts, gtol=1e-4), state)

    monkeypatch.setattr(cell, "solve_cell", loose)
    model = _coupled_pair(TrigPoly(0.6, (((1,), 0.2, 0.0),)), [1.0])
    with pytest.raises(ContinuationError) as exc:
        continuation_solve(model, [0.3, 0.8], [8.0, 16.0], 4,
                           TorusGrid(n=2, m=1, N_x=12, N_phi=3), SolverOptions(gtol=1e-8))
    assert (exc.value.tau, exc.value.k, exc.value.partial) == (1.0, 8.0, [])
    assert str(exc.value).startswith("stage (tau=1, k=8) did not converge (grad_norm")


def test_fiber_pass_refuses_a_gtol_below_its_fiber_floor(monkeypatch):
    # N fibers solved to gtol / sqrt(N) each meet the joint gtol; where that is
    # below FIBER_GTOL_MIN the pass refuses before any solve, through either
    # entry point
    solves = _record_solves(monkeypatch)
    model = _coupled_pair(TrigPoly(0.6, (((1,), 0.2, 0.0),)), [1.0])
    with pytest.raises(ValueError, match=r"gtol 1e-12 is below what 3 fibers can meet: "
                                         r"each would need gtol / sqrt\(3\) = 5.77e-13 < 1e-12; "
                                         r"use tol.gtol >= 1.73e-12"):
        continuation_solve(model, [0.3, 0.8], [8.0, 16.0], 4,
                           TorusGrid(n=2, m=1, N_x=12, N_phi=3), SolverOptions(gtol=1e-12))
    with pytest.raises(ValueError, match="below what 16 fibers can meet"):
        fiber_decomposed_solve(CellProblem(_qp_model(), [0.7], 8.0,
                                           TorusGrid(n=1, m=1, N_x=16, N_phi=16)),
                               SolverOptions(gtol=3e-12))
    assert solves == []


def test_fiber_pass_converges_past_rounding_floor(monkeypatch):
    # at this |P| a few fibers hold most of the Gibbs mass; a per-fiber target
    # of gtol over its mass share would sit below f's rounding floor.  Each of
    # the 16 fibers is solved once, to gtol / sqrt(16), and the assembled
    # gradient still meets gtol.  The joint k=16 stage used to take 44 Newton
    # steps.  The first fiber climbs its k ladder at the same gtol; the pass
    # took 166 Newton steps with a cold first fiber and plain warm starts,
    # 92 with the ladder and secant starts
    solves = _record_solves(monkeypatch)
    applies = _count_pcg_applies(monkeypatch)
    model, P = _qp_model(), [0.7886112211144736]
    grid = TorusGrid(n=1, m=1, N_x=128, N_phi=16)
    joint = continuation_solve(model, P, [8.0, 16.0], 4, grid)[-1]
    assert [sol.iterations for problem, _, sol in solves
            if problem.grid.m == 1 and sol.k == 16.0][0] <= 25
    solves.clear()
    applies.clear()
    fib = fiber_decomposed_solve(CellProblem(model, P, 16.0, grid))
    assert fib.converged, (fib.grad_norm, fib.status)
    assert len(solves) == 16 + FIBER_LADDER
    assert fib.iterations == sum(sol.iterations for *_, sol in solves) <= 100
    assert all(opts.gtol == SolverOptions().gtol / 4 for _, opts, _ in solves)
    assert all(sol.status == "converged" for *_, sol in solves), \
        [sol.status for *_, sol in solves]
    assert abs(joint.Hbar_k - fib.Hbar_k) <= 1e-8
    # the n=1 fiber subproblems leave the FD factor once CG stalls (238
    # applies; 550 with a cold first fiber)
    assert sum(applies) <= 300, sum(applies)


def test_fiber_jump_shrinks_with_refinement(quasi_swing):
    jumps = {}
    for nphi in (16, 32):
        grid = TorusGrid(n=1, m=1, N_x=64, N_phi=nphi)
        sol = fiber_decomposed_solve(CellProblem(quasi_swing, [0.0], 16.0, grid))
        jumps[nphi] = fiber_jump(sol.fiber_values)
    assert jumps[32] < jumps[16]
