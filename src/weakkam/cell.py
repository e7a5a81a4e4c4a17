"""Variational solver for the corrector problem on the torus.

Minimizes F_k[v] = (1/k) log mean(exp(k * H(x, P + D_x v, phi))) over periodic
mean-zero v.  F_k is convex (strictly, in D_x v), so the mean-zero minimizer
is unique; its stationarity condition is the divergence equation
div_x(sigma * D_y H) = 0 with sigma the normalized Gibbs weight.  Working
with (1/k) log of the exponential functional keeps every quantity bounded:
no k cap is needed.

The optimizer is damped Newton.  Its linear systems use the symmetric
elliptic operator w -> -div_x(sigma (I + k D_yH D_yH^T) D_x w), solved by
preconditioned conjugate gradients.  A cold solve starts on a
preconditioner that is cheap to build and near-exact at low k, whatever the
grid.  One-dimensional grids (the pendulum, the subproblems of the fiber
decomposition, the joint quasi-periodic grid) start on a factor of a
finite-difference stencil with the same coefficients, per fiber a cyclic
tridiagonal factored in O(N_x); spectral two-dimensional ones on the Fourier
multiplier of the operator with its coefficients averaged over x, which
needs no factor at all.  Either projects every solve to zero x-mean on each
fiber.  At high k neither is near-exact: once one CG solve on such a grid
takes more applies than a dense factor costs (``_dense_pays``), the rest of
that solve uses the exact step, a Cholesky solve of the operator itself, so
each step costs about one operator apply.  fd2 grids in two dimensions have
no exact step (``_has_dense_step``); they stay on a sparse LU of the FD
stencil.

The frozen-drive functional splits exactly into one problem per fiber, so
an n=2 grid with fiber axes is solved fiber by fiber, each fiber an n=2 grid
without them, over a whole k schedule (``_fiber_pass``); ``solve_cell``
refuses it.

The Levenberg shift of a step is lam times each fiber's largest sum_a C_aa,
the operator's scale on its lowest modes; a shift at its grid-scale ceiling,
1/dx^2 larger, would make the first steps of every solve damped gradient
steps.  A solve returns its final lam and step kind as a ``NewtonState``, and
``solve_cell`` can start from one: the stages of ``continuation_solve`` and
the fibers of a fiber pass hand theirs on, so a warm start does
not learn again how much damping the problem needs, or that CG on the FD
factor or the Fourier multiplier stalls.  A carried lam is floored at
``LAM_WARM_FLOOR``.  The state is passed only through arguments and return
values.

An exact factor is kept from one Newton step to the next as the
preconditioner of an operator built anew at every step, and factored again
only after a CG solve on it took more than ``REFACTOR_APPLIES`` applies: a
few extra applies cost far less than a factor, which on a spectral n=2 grid
is almost all of a step.  A CG solve on a kept factor stops after
``REFACTOR_APPLIES + 1`` applies, since the next step factors anew in any
case; its truncated iterate is still a descent direction.  The FD factor
and the Fourier multiplier are built anew at every step.  A factor is never
carried from one solve to the next.  The packed n=2 factor is built from the
lower triangle of the operator only, the part its storage keeps.

A warm start begins at a prediction that costs no solve or evaluation: the
secant extrapolation of the last two solutions along the one parameter being
walked (tau at one k, 1/k at tau = 1, the drive angle along one grid line of
the last phi axis), re-centred to mean zero.  Where the last two solutions do
not lie on the walked parameter's line, the start is the last solution.  A
tau-homotopy stage at tau < 1 is never returned and only starts the next
stage, so it stops at the looser ``HOMOTOPY_GTOL``.  The first fiber of a
fiber pass climbs ``FIBER_LADDER`` doublings of k to the first k instead of
starting cold there; the others start at each k from the fibers before them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .fields import (
    ScalarField,
    TorusGrid,
    _check_finite,
    _diff_matrix,
    div_values,
    grad_values,
    grid_mean,
    log_mean_exp_values,
)
from .hamiltonians import SwingModel

__all__ = [
    "SolverOptions",
    "CellProblem",
    "CellSolution",
    "ContinuationError",
    "NewtonState",
    "objective",
    "solve_cell",
    "continuation_solve",
    "fiber_decomposed_solve",
    "fiber_jump",
]


# largest N_x of a spectral n=2 grid: its packed per-fiber factor holds N_x^4/2 doubles
EXACT_MAX_N_X = 64
# trig test fields per spatial axis of the weak stationarity residual
TEST_MODES = 8
# conjugate-gradient iterations per Newton step
CG_MAX_ITER = 200
# share of the Gibbs mass that sup_Dxu leaves out: the lightest nodes, where
# the functional does not pin v
SUP_TAIL_MASS = 1e-8
# applies of one CG solve on a kept exact factor above which the next Newton
# step factors anew
REFACTOR_APPLIES = 4
# Levenberg lam of a cold start, in units of each fiber's largest sum_a C_aa
LAM_COLD = 1e-3
# smallest lam a solve starts from when it is handed an earlier solve's state
LAM_WARM_FLOOR = 1e-6
# bounds of lam, in units of each fiber's largest sum_a C_aa / dx^2 (the
# operator's grid-scale ceiling)
LAM_MIN, LAM_MAX = 1e-12, 1e6
# doublings of k the first fiber of the fiber pass climbs to its k
FIBER_LADDER = 3
# smallest gradient-norm tolerance a fiber of the fiber pass is solved to, near
# the rounding floor of its gradient; a joint gtol that needs a smaller one is
# refused before any solve
FIBER_GTOL_MIN = 1e-12
# gradient-norm tolerance of a continuation stage at tau < 1: such a stage is
# never returned and only starts the next one, so it stops at this tolerance
# (or at gtol, if that is looser)
HOMOTOPY_GTOL = 1e-2


def _has_dense_step(grid: TorusGrid) -> bool:
    """Whether a solve on this grid can move to an exact (Cholesky) Newton
    step: n=1 and spectral n=2 grids can; fd2 n=2 grids cannot, and stay on
    the sparse LU of their FD stencil."""
    return grid.n == 1 or grid.diff_mode == "spectral"


def _dense_pays(grid: TorusGrid, applies: int) -> bool:
    """Whether a CG solve that took ``applies`` operator applies on this grid
    cost more than the exact step would have.  Only grids with a dense step
    to move to (``_has_dense_step``) pay: n=1 and spectral n=2 grids.

    n=1: its build and factor grow as N_x^3, one apply as N_x^2 (the
    derivative product, ``fields.PRODUCT_MAX_N_X``) or N_x log N_x (the FFT,
    past it): on 2 cores the dense system takes 0.22 ms at N_x=128 and
    1.0 ms at N_x=256, the tridiagonal FD system 0.03 ms on both, one apply
    with its FD solve 0.022 ms (product; 0.036 ms on the FFT) and 0.040 ms
    (FFT).  A dense step that factors once breaks even with about 9 FD
    applies at N_x=128 (5 on the FFT apply) and 24 at N_x=256, and a factor
    kept over several steps with fewer.  The threshold, 4 applies at
    N_x=128 and 32 at N_x=256, was set near the FFT apply's break-even, so
    a solve whose CG stays near-exact keeps the FD factor (and the process
    skips the first dense factor's BLAS buffers), while one whose CG stalls
    switches.  On a grid
    with fiber axes the dense stack and the FD factor both grow with the
    fiber count, so the threshold holds there too: the quasi-periodic
    rotor's joint continuation (N_x=128, 16 fibers, k 8 to 16) builds 3
    dense stacks and 14 FD factors.

    Spectral n=2, which starts on the Fourier multiplier: on 2 cores a dense
    factor, with its assembly and its solve of A^-1 1, takes 4 ms at
    N_x=24, 11-13 ms at N_x=32 and 70 ms at N_x=48; one apply with its
    Fourier solve 0.07, 0.085 and 0.12 ms on the derivative product (0.12,
    0.14 and 0.18 ms on the FFT).  A factor is kept for the later steps of
    the solve, and the later stages of a continuation start exact, so the
    switch does not weigh one factor against applies.
    On the ladder model's continuation to k=64 (tau_steps=4) at N_x=32, a
    threshold of 5 applies took 9 factors and 60 applies, 6 took 6 and 82,
    10 took 6 and 98, 30 took 6 and 179, 150 took 5 and 451.  The least time
    (best of 5 runs, within noise) came from 5 to 10 at N_x=24, 6 to 12 at
    N_x=32 and 10 to 30 at N_x=48, where below 10 a seventh factor was built.
    The threshold, 10 N_x/32 applies (7.5, 10 and 15 there; 20 at
    ``EXACT_MAX_N_X``), grows with the cost of a factor that an early switch
    wastes.

    A CG solve that ran into ``CG_MAX_ITER`` pays on every grid with a dense
    step: the n=1 threshold passes ``CG_MAX_ITER`` at N_x=472, beyond which a
    stalled CG would otherwise never switch.
    """
    if not _has_dense_step(grid):
        return False
    threshold = 4 * (grid.N_x / 128) ** 3 if grid.n == 1 else 10 * grid.N_x / 32
    return applies > threshold or applies >= CG_MAX_ITER


@dataclass(frozen=True)
class SolverOptions:
    gtol: float = 1e-8          # grid norm of the objective gradient
    max_iter: int = 2000

    def __post_init__(self):
        if self.gtol <= 0 or self.max_iter < 1:
            raise ValueError("gtol must be positive and max_iter >= 1")


class CellProblem:
    """One corrector problem: (model, P, k, grid, tau).

    The solver minimizes over ``ham``: the model itself at tau = 1, else
    ``model.scaled(tau)``, the Hamiltonian tau H + (1 - tau) |y|^2/2 on the
    way from the free rotor to the model.
    """

    def __init__(self, model: SwingModel, P, k: float, grid: TorusGrid,
                 tau: float = 1.0):
        P = np.atleast_1d(np.asarray(P, dtype=float))
        if k <= 0:
            raise ValueError("k must be positive")
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if P.shape != (model.n,):
            raise ValueError(f"P must have shape ({model.n},)")
        if grid.n != model.n or grid.m != model.m:
            raise ValueError("grid dimensions must match the model")
        if model.tilted:
            raise ValueError(
                "tilted model: simulator-only (alpha != 0 makes the torus "
                "Hamiltonian multivalued; the exponential functional is undefined)"
            )
        if not model.x_periodic():
            raise ValueError("model is not 2*pi periodic in x; grid sampling is invalid")
        if grid.n > 2 and grid.diff_mode == "spectral":    # no preconditioner serves it
            raise ValueError(f"spectral grids need n <= 2 (here n = {grid.n}); "
                             'use grid.diff = "fd2" beyond it')
        # every spectral n=2 solve can move to the exact step
        if grid.n == 2 and grid.diff_mode == "spectral" and grid.N_x > EXACT_MAX_N_X:
            mb = 8 * grid.N_x ** 4 / 2 / 1e6
            raise ValueError(
                f"spectral n=2 grids need N_x <= {EXACT_MAX_N_X}: the exact Newton "
                f"step stores N_x^4/2 doubles ({mb:.0f} MB at N_x={grid.N_x}); "
                f'use grid.diff = "fd2" for finer grids')
        self.model = model
        self.P = P
        self.k = float(k)
        self.grid = grid
        self.tau = float(tau)
        self.ham = model if tau == 1.0 else model.scaled(tau)
        self.x_mesh, self.phi_mesh = grid.meshes()
        self._P_bcast = P.reshape((model.n,) + (1,) * len(grid.shape))

    def momentum_field(self, v_values: np.ndarray) -> np.ndarray:
        """D_x u = P + D_x v at every node, shape (n, *grid.shape)."""
        return self._P_bcast + grad_values(v_values, self.grid)


@dataclass(frozen=True)
class NewtonState:
    """What a Newton solve ends with that a warm start can reuse: the
    Levenberg ``lam`` (in units of each fiber's largest sum_a C_aa) and
    whether the step had turned exact (``_dense_pays``)."""
    lam: float
    exact: bool


@dataclass(frozen=True)
class CellSolution:
    v: ScalarField
    Hbar_k: float
    grad_norm: float
    el_residual: float
    fiber_values: np.ndarray
    iterations: int
    sup_Dxu: float
    converged: bool
    status: str
    P: np.ndarray
    k: float
    tau: float
    objective_history: tuple = field(repr=False, default=())
    warnings: tuple = ()
    wall_time_s: float = 0.0
    # the Newton state to hand the next warm start (None for an assembled
    # fiber solution); not part of any record
    newton_state: NewtonState | None = field(repr=False, default=None)
    # the final evaluation's H, D_yH (n, *grid.shape) and Gibbs weight
    # exp(k (H - Hbar_k)), which ``gibbs_measure`` reads; not part of any record
    h: np.ndarray | None = field(repr=False, default=None)
    dy: np.ndarray | None = field(repr=False, default=None)
    sigma: np.ndarray | None = field(repr=False, default=None)


class ContinuationError(RuntimeError):
    """A stage of the homotopy/k continuation failed to converge.

    Carries the partial list of completed solutions and the failing stage.
    """

    def __init__(self, message: str, partial: list, tau: float, k: float):
        super().__init__(message)
        self.partial = partial
        self.tau = tau
        self.k = k


def _unconverged_reason(sol: CellSolution, opts: SolverOptions) -> str:
    """The convergence criteria a solve missed, each with value and tolerance."""
    misses = [] if sol.status == "converged" else [sol.status]
    if sol.grad_norm > opts.gtol:
        misses.append(f"grad_norm {sol.grad_norm:.2e} > gtol {opts.gtol:g}")
    return ", ".join(misses)


def _grid_norm(values: np.ndarray) -> float:
    return float(np.sqrt(grid_mean(values * values)))


def _grid_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(grid_mean(a * b))


def _evaluate(problem: CellProblem, v_values: np.ndarray):
    """Objective value, gradient and the node fields they were built from.

    The one finiteness check of an evaluation: the raw gradient and divergence
    it calls, also inside every Newton-operator apply, check nothing."""
    _check_finite(v_values, "v")
    y = problem.momentum_field(v_values)
    ev = problem.ham.evaluate(problem.x_mesh, y, problem.phi_mesh)
    if not np.all(np.isfinite(ev.h)):
        raise FloatingPointError("Hamiltonian non-finite on the grid")
    value = log_mean_exp_values(ev.h, problem.k)
    with np.errstate(under="ignore"):
        sigma = np.exp(problem.k * (ev.h - value))
    grad = -div_values(sigma * ev.dy, problem.grid)
    grad -= grid_mean(grad)
    return value, grad, ev, sigma


def objective(problem: CellProblem, v: ScalarField):
    """Value and gradient of F_k at v.  v must be mean zero on problem.grid.

    The gradient is the field -div_x(sigma * D_y H_tau) with sigma the
    normalized Gibbs weight, so inner(gradient, w) is the directional
    derivative of the value along any mean-zero w.
    """
    if v.grid != problem.grid:
        raise ValueError("field lives on a different grid")
    if abs(float(np.mean(v.values))) > 1e-8 * (1.0 + float(np.max(np.abs(v.values)))):
        raise ValueError("v must have zero mean")
    value, grad, _, _ = _evaluate(problem, v.values)
    return value, ScalarField(problem.grid, grad)


def _el_residual(grid: TorusGrid, sigma: np.ndarray, dy: np.ndarray) -> float:
    """Weak stationarity: max_w |mean(sigma * D_yH . grad w)| over trig fields
    w = sin(q x_a), cos(q x_a), q = 1..TEST_MODES, per spatial axis.  That is
    the derivative's symbol at q times a Fourier coefficient of the flux
    sigma * D_yH_a averaged over the other axes: one rFFT per axis, and by
    Parseval at most grad_norm / sqrt 2, so gtol bounds it too."""
    modes = min(TEST_MODES, grid.N_x // 2 - 1)
    q = np.arange(1, modes + 1)
    symbol = q if grid.diff_mode == "spectral" else np.sin(q * grid.dx) / grid.dx
    worst = 0.0
    for a in range(grid.n):
        others = tuple(i for i in range(sigma.ndim) if i != a)
        c = np.fft.rfft(np.mean(sigma * dy[a], axis=others))[1:modes + 1] / grid.N_x
        worst = max(worst, float(np.max(symbol * np.maximum(np.abs(c.real), np.abs(c.imag)),
                                        initial=0.0)))
    return worst


def _fiber_values(problem: CellProblem, h: np.ndarray) -> np.ndarray:
    """Per-fiber free energies (1/k) log mean_x exp(k H), shape = phi grid."""
    grid, k = problem.grid, problem.k
    flat = h.reshape(grid.N_x ** grid.n, -1)
    M = flat.max(axis=0)
    with np.errstate(under="ignore"):
        vals = M + np.log(np.mean(np.exp(k * (flat - M)), axis=0)) / k
    return vals.reshape(grid.shape[grid.n:])


def _sup_on_support(speed: np.ndarray, sigma: np.ndarray) -> float:
    """Max of ``speed`` over the heaviest nodes that together hold all but
    ``SUP_TAIL_MASS`` of the Gibbs weight ``sigma``."""
    order = np.argsort(sigma, axis=None, kind="stable")
    light = np.cumsum(sigma.ravel()[order]) <= SUP_TAIL_MASS * float(np.sum(sigma))
    return float(np.max(speed.ravel()[order[~light]]))


def _finish(problem: CellProblem, v_values: np.ndarray, iterations: int,
            status: str, history: list, opts: SolverOptions,
            t0: float, state: NewtonState | None = None,
            evaluated: tuple | None = None) -> CellSolution:
    """The solution at ``v_values`` with its diagnostics.  ``evaluated`` is
    the ``_evaluate`` output the solver already holds for this iterate (taken
    before v was re-centered, which moves f and g only by rounding); without
    it the iterate is evaluated here.  The solution keeps that evaluation's
    H, D_yH and Gibbs weight, from which its measure is built."""
    grid = problem.grid
    v_values = v_values - grid_mean(v_values)
    value, grad, ev, sigma = evaluated or _evaluate(problem, v_values)
    gnorm = _grid_norm(grad)
    el = _el_residual(grid, sigma, ev.dy)
    dxu = problem.momentum_field(v_values)
    sup_dxu = _sup_on_support(np.sqrt(np.einsum("i...,i...->...", dxu, dxu)), sigma)
    warnings = []
    max_force = float(np.max(np.abs(ev.dx))) if ev.dx.size else 0.0
    if problem.k * grid.dx * max_force > 50.0:
        warnings.append(
            "gibbs weight may concentrate below grid resolution "
            f"(k*dx*max|D_xH| = {problem.k * grid.dx * max_force:.1f} > 50)"
        )
    converged = status == "converged" and gnorm <= opts.gtol
    return CellSolution(
        v=ScalarField(grid, v_values),
        Hbar_k=value,
        grad_norm=gnorm,
        el_residual=el,
        fiber_values=_fiber_values(problem, ev.h),
        iterations=iterations,
        sup_Dxu=sup_dxu,
        converged=converged,
        status=status,
        P=problem.P.copy(),
        k=problem.k,
        tau=problem.tau,
        objective_history=tuple(history),
        warnings=tuple(warnings),
        wall_time_s=time.perf_counter() - t0,
        newton_state=state, h=ev.h, dy=ev.dy, sigma=sigma,
    )


def _rounding_floor(f: float) -> float:
    """Changes of f at or below this are lost to double-precision rounding."""
    return 1e-13 * max(1.0, abs(f))


def _line_search(problem, v, f, g, d, slope, gnorm):
    """Backtracking Armijo with a rounding-floor polish rule.

    Near the optimum the per-step decrease of f drops below double-precision
    resolution while descent directions are still sound; a step is then
    accepted when f does not increase beyond the rounding floor and the true
    gradient norm strictly drops.  Returns the step length, the accepted
    point and its evaluation (value, gradient, Hamiltonian, Gibbs weight).
    """
    t = 1.0
    floor = _rounding_floor(f)
    for _ in range(60):
        v_new = v + t * d
        f_new, g_new, ev, sigma = _evaluate(problem, v_new)
        if f_new <= f + 1e-4 * t * slope or (
                f_new <= f + floor and _grid_norm(g_new) < 0.999 * gnorm):
            return t, v_new, f_new, g_new, ev, sigma
        t *= 0.5
    return None


@lru_cache(maxsize=8)
def _fd_pattern(shape: tuple, n: int):
    """CSC pattern of the cyclic stencil: the permutation from the value list
    (per axis the node/up-neighbour pair both ways, then the diagonal) to CSC
    order, the row indices and the column pointers.  N_x >= 4 keeps every
    entry distinct."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    rows, cols = [], []
    for a in range(n):
        up = np.roll(idx, -1, axis=a).ravel()
        rows += [idx.ravel(), up]
        cols += [up, idx.ravel()]
    rows = np.concatenate(rows + [idx.ravel()])
    cols = np.concatenate(cols + [idx.ravel()])
    order = np.lexsort((rows, cols))
    return order, rows[order], np.searchsorted(cols[order], np.arange(idx.size + 1))


def _fd_preconditioner(grid: TorusGrid, C: np.ndarray, shift: np.ndarray):
    """Cyclic finite-difference factorization of -div_x(c grad_x .) + shift.

    Assembles the 2nd-order flux-form stencil with the exact (nonnegative)
    diagonal coefficients ``C[a, a]`` per spatial axis plus a nodewise
    diagonal shift, then LU-factorizes it; the result is spectrally close to
    the Newton operator on each fiber, even when the Gibbs weight spans many
    orders of magnitude.  The sparse LU serves fd2 n=2 grids, whose 5-point
    stencil is not banded; on n=1 grids the same stencil is a cyclic
    tridiagonal, factored in O(N_x) by ``_fd_preconditioner_1d``.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    h2 = grid.dx ** 2
    vals = []
    diag = np.zeros(grid.shape)
    for a in range(grid.n):
        c_half = 0.5 * (C[a, a] + np.roll(C[a, a], -1, axis=a)) / h2
        vals += [-c_half.ravel(), -c_half.ravel()]
        diag += c_half + np.roll(c_half, 1, axis=a)
    # positive floor scaled per fiber: a global floor would swamp the blocks
    # whose Gibbs mass (hence coefficient scale) is many orders smaller
    fiber_max = diag.max(axis=tuple(range(grid.n)), keepdims=True)
    eps = 1e-12 * fiber_max + 1e-40 * float(diag.max()) + 1e-290
    vals.append((diag + shift + np.broadcast_to(eps, grid.shape)).ravel())
    order, indices, indptr = _fd_pattern(grid.shape, grid.n)
    lu = splu(csc_matrix((np.concatenate(vals)[order], indices, indptr),
                         shape=(grid.size, grid.size)))

    def solve(r: np.ndarray) -> np.ndarray:
        z = lu.solve(r.ravel()).reshape(grid.shape)
        return z - grid_mean(z)

    return solve


def _fd_preconditioner_1d(grid: TorusGrid, C: np.ndarray, shift: np.ndarray):
    """The stencil of ``_fd_preconditioner`` on n=1 grids, factored in O(N_x)
    per fiber.

    Same coefficients, shift and per-fiber floor.  On one spatial axis the
    cyclic stencil of a fiber is tridiagonal but for the corner link between
    nodes N_x-1 and 0, of weight c.  The stencils without that link, T, lie
    end to end in one tridiagonal, with a zero link between fibers, which
    LAPACK's positive-definite tridiagonal ``dpttrf`` factors as the separate
    systems (a zero link stays zero and leaves the next pivot as it is), in
    one call whatever the fiber count.  Each fiber's link, c w w^T with
    w = e_0 - e_{N_x-1}, comes back as a rank-one Sherman-Morrison correction
    along T^-1 w, which one solve gives for every fiber.  The cut diagonal is
    assembled without the link, not by subtracting it, so nothing cancels.
    The stencil is positive definite exactly when T is and every fiber has
    1 + c w^T T^-1 w > 0.

    Each solve is projected to zero x-mean on every fiber, not only on the
    grid: only D_x v enters F_k, so a constant on one fiber is a null
    direction, held off only by a Levenberg shift that scales with the
    fiber's Gibbs mass (~1e-36 on the lightest fibers at high k); a solve
    left with such constants hands CG offsets many orders above its
    residual.  On one fiber the projection has the bits of ``grid_mean``.

    Every n=1 grid starts here, and a solve moves to the dense step once one
    CG solve takes more applies than a dense factor costs (``_dense_pays``;
    at high k the stencil is far from the operator).
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    N, shape = grid.N_x, grid.shape
    # fields keep the grid's shape, x first: a fiber's values (c_half[-1],
    # diag.max(axis=0)) broadcast along x, and on a grid without fiber axes
    # they are scalars.  LAPACK reads the fields in Fortran order, which lays
    # the fibers end to end
    c = C[0, 0]
    up = np.empty_like(c)                               # c at node i+1, cyclically
    up[:-1], up[-1] = c[1:], c[0]
    c_half = 0.5 * (c + up) / grid.dx ** 2              # link i -- i+1
    diag = np.empty_like(c_half)                        # links i-1 -- i and i -- i+1
    diag[1:] = c_half[1:] + c_half[:-1]
    diag[0] = c_half[0] + c_half[-1]
    top = diag.max(axis=0)
    # the floor of _fd_preconditioner.  Reductions over fibers call the ufunc
    # itself: on a grid without fiber axes they reduce a scalar, where the
    # array method's wrapper costs more than the rest of a line
    eps = 1e-12 * top + 1e-40 * np.maximum.reduce(top, axis=None) + 1e-290
    diag[0], diag[-1] = c_half[0], c_half[-2]           # cut the corner link
    off = -c_half
    off[-1] = 0.0                                       # the corner slot, between fibers
    d, e, info = dpttrf((diag + shift + eps).ravel("F"), off.ravel("F")[:-1])
    if info != 0:
        raise np.linalg.LinAlgError(f"FD stencil not positive definite ({info})")
    w = np.zeros(shape)
    w[0], w[-1] = 1.0, -1.0
    q = dpttrs(d, e, w.reshape(-1, 1, order="F"))[0].reshape(shape, order="F")
    denom = 1.0 + c_half[-1] * (q[0] - q[-1])
    if not np.minimum.reduce(denom, axis=None) > 0.0:
        raise np.linalg.LinAlgError("FD stencil not positive definite (corner link)")
    coef = c_half[-1] / denom

    def solve(r: np.ndarray) -> np.ndarray:
        y = dpttrs(d, e, r.reshape(-1, 1, order="F"))[0].reshape(shape, order="F")
        z = y - (coef * (y[0] - y[-1])) * q
        return z - z.sum(axis=0) / N

    return solve


def _operator_rows(D: np.ndarray, c: np.ndarray, i1: int, s: float) -> np.ndarray:
    """Rows (i1, 0..N-1) of sum_ab D_a^T diag(c_ab) D_b + s on one N x N
    fiber, with D_1 = D (x) I and D_2 = I (x) D in C order, in the columns
    (j1, 0..N-1) with j1 <= i1: shape (N, (i1+1)*N), which holds the rows'
    part of the lower triangle.  Each entry takes the operations, in the
    order, of the full rows; the a=b=1 product is formed over every column,
    as there, and cut after."""
    N = D.shape[0]
    J = i1 + 1
    ar = np.arange(N)
    col = D[:, i1, None]
    R = (col[:J] * c[0, 1, :J]).T[:, :, None] * D[:, None, :]    # a=1, b=2
    R += (D.T * c[1, 0, i1])[:, None, :] * D[i1, :J][None, :, None]  # a=2, b=1
    R[:, i1, :] += (D.T * c[1, 1, i1]) @ D                       # a=b=2
    R[ar, :, ar] += ((col * c[0, 0]).T @ D)[:, :J]               # a=b=1
    R[ar, i1, ar] += s
    return R.reshape(N, J * N)


def _fourier_preconditioner(grid: TorusGrid, C: np.ndarray, shift: np.ndarray):
    """Exact inverse, on mean-zero fields, of the Newton operator with each
    coefficient C_ab replaced by its mean (spectral n=2 grids).

    That operator is a Fourier multiplier: sum_ab mean(C_ab) q_a q_b + shift
    on the mode (q_1, q_2), with the derivative's own wavenumbers (the
    Nyquist mode zeroed, as in ``fields._spectral_symbol``).  Its inverse
    maps the zero mode to 0, so each solve is one ``rfft2`` / ``irfft2``
    pair.  It costs no factor, and is near-exact while the Gibbs weight is
    spread out (low k, early homotopy stages); where it is not, CG stalls
    and the solve moves to the exact step (``_dense_pays``).
    """
    N = grid.N_x
    q = np.fft.fftfreq(N, 1.0 / N)
    q[N // 2] = 0.0
    qs = (q.reshape(N, 1), q[:N // 2 + 1].reshape(1, N // 2 + 1))  # axis 1 halved by rfft2
    symbol = shift[0, 0] + sum(C[a, b].sum(axis=(0, 1), keepdims=True) / (N * N)
                               * qs[a] * qs[b] for a in range(2) for b in range(2))
    symbol[0, 0] = np.inf                       # the zero mode maps to 0
    inverse = 1.0 / symbol

    def solve(r: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(np.fft.rfft2(r) * inverse, s=(N, N))

    return solve


def _exact_preconditioner(grid: TorusGrid, C: np.ndarray, shift: np.ndarray):
    """Exact inverse of the Newton operator on mean-zero fields (spectral, n=2).

    The operator is sum_ab D_a^T diag(C_ab) D_b + shift with D_a the grid's
    own derivative matrix, so its Cholesky factor makes PCG a single step.
    Its lower triangle, the only part ``_operator_rows`` builds, goes
    straight into rectangular full packed (RFP) storage, N_x^4/2 doubles.  A
    solve gets here only once CG on the Fourier multiplier stalled, or from
    a state that had, and ``_minimize_newton`` drops the previous factor
    before it builds this one.  The factor holds for good, so the solve can
    be kept across Newton steps.  The mean-zero correction's A^-1 1 is
    solved once, after the factor, so an apply solves only its residual.
    """
    from scipy.linalg.lapack import dpftrf, dpftrs

    N = grid.N_x
    n = N * N
    half = n // 2                   # n is even: RFP is (n + 1) x n/2, column-major
    D = _diff_matrix(N, "spectral")
    upper = np.arange(half)[:, None]
    buf = np.empty(n * (n + 1) // 2)
    AR = buf.reshape(half, n + 1).T
    s = float(shift[0, 0]) + 1e-290     # an all-zero operator stays solvable
    for i1 in range(N):
        rows = _operator_rows(D, C, i1, s)              # the columns j < (i1 + 1) N
        lo, hi = i1 * N, (i1 + 1) * N
        # A[i, j] sits at AR[i + 1, j] for j < n/2, and at AR[j - n/2, i - n/2]
        # (on and above the diagonal of AR's top square) for j >= n/2; the
        # entries these rows hold above A's diagonal land there too, and the
        # trailing block's rows, which come later, write over them
        AR[lo + 1:hi + 1, :min(hi, half)] = rows[:, :half]
        if lo >= half:
            cols = np.arange(lo - half, hi - half)
            np.copyto(AR[:hi - half, lo - half:hi - half], rows[:, half:].T,
                      where=upper[:hi - half] <= cols)
    _, info = dpftrf(n, buf, transr="N", uplo="L", overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Newton operator not positive definite ({info})")

    def factor_solve(b: np.ndarray) -> np.ndarray:
        # dpftrs copies b (overwrite_b off): b may be a view of the caller's r
        x, _ = dpftrs(n, buf, b, transr="N", uplo="L")
        return x.reshape(N, N)

    ones = factor_solve(np.ones((n, 1)))
    ones_mean = grid_mean(ones)

    def solve(r: np.ndarray) -> np.ndarray:
        z = factor_solve(r.reshape(n, 1))
        # on mean-zero fields the operator is A followed by the projection off
        # constants; its exact inverse is A^-1 (r + mu 1), mu fixed by mean zero
        return z - (grid_mean(z) / ones_mean) * ones

    return solve


def _exact_preconditioner_1d(grid: TorusGrid, C: np.ndarray, shift: np.ndarray):
    """Exact inverse of the Newton operator on mean-zero fields (n=1).

    Per fiber the operator is D^T diag(C_00) D + shift, an N_x x N_x matrix
    with D the grid's own derivative matrix; a grid without fiber axes is a
    stack of one fiber.  All fibers go into one stack,
    Cholesky-factored in place, so PCG takes one step; the mean-zero
    correction's A^-1 1 is solved once, after the factor.  BLAS and LAPACK read
    each C-ordered matrix as its transpose, which is the same symmetric
    matrix.  Products and factors both come from scipy's BLAS: interleaved
    with numpy's (a second OpenBLAS, with its own threads) they ran ~10x
    slower.
    """
    from scipy.linalg.blas import dgemm
    from scipy.linalg.lapack import dpotrf, dpotrs

    N = grid.N_x
    D = _diff_matrix(N, grid.diff_mode)
    c = C[0, 0].reshape(N, -1)
    s = shift[0].reshape(-1) + 1e-290   # constant along x; an all-zero fiber stays solvable
    A = np.empty((c.shape[1], N, N))
    for f, Af in enumerate(A):
        # (c D)^T D, written in place
        dgemm(1.0, (c[:, f, None] * D).T, D.T, trans_b=1, c=Af.T, overwrite_c=1)
        Af.flat[::N + 1] += s[f]
        _, info = dpotrf(Af.T, lower=1, overwrite_a=1, clean=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"Newton operator not positive definite ({info})")

    def stack_solve(rhs: np.ndarray) -> np.ndarray:
        """A^-1 of a (fibers, 1, N) stack, solved in place, as a grid field."""
        for Af, b in zip(A, rhs):
            dpotrs(Af.T, b.T, lower=1, overwrite_b=1)
        return rhs[:, 0].T.reshape(grid.shape)

    ones = stack_solve(np.ones((len(A), 1, N)))
    ones_mean = grid_mean(ones)

    def solve(r: np.ndarray) -> np.ndarray:
        rhs = np.empty((len(A), 1, N))
        rhs[:, 0] = r.reshape(N, -1).T          # a copy: r stays PCG's residual
        z = stack_solve(rhs)
        # the mean-zero correction of _exact_preconditioner
        return z - (grid_mean(z) / ones_mean) * ones

    return solve


def _newton_system(problem, ev, sigma, lam, exact, precond=None):
    """The Newton operator at a state, matrix-free, and its preconditioner:
    ``precond`` if given (a factor kept from an earlier step), else a new
    exact (Cholesky) solve if ``exact``, else the grid's cheaper start: the
    FD factor on n=1 grids (a cyclic tridiagonal per fiber), the Fourier
    multiplier of the x-averaged operator on spectral n=2 grids, a sparse LU
    of the FD stencil on fd2 n=2 grids.

    The operator is w -> -div_x(C D_x w) + shift * w with the pointwise
    tensor C = sigma (I + k D_yH D_yH^T), projected off constants; the
    identity is the y-Hessian of every swing model.  The Levenberg shift is
    lam times each fiber's largest sum_a C_aa: the scale of the operator on
    its lowest modes, not its grid-scale ceiling, which is 1/dx^2 times
    larger.
    """
    grid, k = problem.grid, problem.k
    dy = ev.dy
    C = k * np.einsum("i...,j...->ij...", dy, dy)
    for a in range(grid.n):
        C[a, a] += 1.0
    C *= sigma
    curvature = sum(C[a, a] for a in range(grid.n))
    # one value per fiber, broadcast along x where it is used
    shift = lam * curvature.max(axis=tuple(range(grid.n)), keepdims=True)

    def apply_A(w: np.ndarray) -> np.ndarray:
        g = grad_values(w, grid)
        flux = C[:, 0] * g[0]               # sum_b C[:, b] g[b]
        for b in range(1, grid.n):
            flux += C[:, b] * g[b]
        out = -div_values(flux, grid) + shift * w
        return out - grid_mean(out)

    if precond is None:
        if grid.n == 1:
            make = _exact_preconditioner_1d if exact else _fd_preconditioner_1d
        elif exact:
            make = _exact_preconditioner
        elif grid.diff_mode == "spectral":
            make = _fourier_preconditioner
        else:
            make = _fd_preconditioner
        precond = make(grid, C, shift)
    return apply_A, precond


def _minimize_newton(problem, v, opts, state=None):
    """Damped Newton on the divergence-form linearization.

    The Levenberg shift, scaled per fiber, tames the near-null directions
    outside the Gibbs support without drowning low-mass fibers; lam relaxes
    toward 0 as full steps succeed, so the tail is plain Newton.  A cold
    solve starts at ``LAM_COLD``; handed the ``state`` of an earlier solve, it
    starts from that solve's final lam, but not below ``LAM_WARM_FLOOR``.  lam
    stays within ``LAM_MIN`` and ``LAM_MAX`` over dx^2: with a floor of
    1e-12 on lam itself, and no warm floor, a lam carried along a
    warm-started P walk at k=64 left the dense n=1 operator numerically
    indefinite.  Below f's rounding
    floor the gain ratio is noise, so a step there counts as good exactly
    when the gradient norm fell.  The step starts exact only where the
    earlier solve had turned exact and the grid has an exact step
    (``_has_dense_step``); a cold solve starts on the FD factor (n=1), the
    Fourier multiplier (spectral n=2) or the sparse LU (fd2 n=2), and turns
    exact for the rest of the solve once one CG solve costs more than a
    dense factor (``_dense_pays``).

    The operator is built from the current state at every step.  An exact
    factor is kept from step to step as the preconditioner, and factored
    anew when the step turns exact or after a CG solve on it took more than
    ``REFACTOR_APPLIES`` applies, so CG pays for the lag in a few cheap
    applies instead of a factor per step.  A CG solve on a kept factor stops
    after ``REFACTOR_APPLIES + 1`` applies and the step takes that truncated
    direction (CG iterates are descent directions): the factor is dropped
    after it anyway.  A CG on a factor built for its own step keeps the full
    ``CG_MAX_ITER``.  Only an exact factor is kept: the FD factor, whose
    reuse doubled the pendulum's applies, and the Fourier multiplier are
    built anew at every step.  No factor outlives the solve.

    Returns the iterate, the step count, the status, the objective history,
    the final ``NewtonState`` and the iterate's evaluation (value, gradient,
    Hamiltonian, Gibbs weight), which ``_finish`` reuses.
    """
    grid = problem.grid
    f, g, ev, sigma = _evaluate(problem, v)
    history = [f]
    lam_min, lam_max = LAM_MIN / grid.dx ** 2, LAM_MAX / grid.dx ** 2
    if state is None:
        lam, exact = LAM_COLD, False
    else:
        lam = max(state.lam, LAM_WARM_FLOOR, lam_min)
        # only grids with a dense step to move to inherit it
        exact = state.exact and _has_dense_step(grid)
    precond = None
    for it in range(opts.max_iter):
        gnorm = _grid_norm(g)
        if gnorm <= opts.gtol:
            return v, it, "converged", history, NewtonState(lam, exact), (f, g, ev, sigma)
        # past REFACTOR_APPLIES + 1 applies a kept factor is dropped anyway
        cap = CG_MAX_ITER if precond is None else REFACTOR_APPLIES + 1
        apply_A, precond = _newton_system(problem, ev, sigma, lam, exact, precond)
        d, applies = _pcg(apply_A, -g, rel_tol=min(0.5, np.sqrt(gnorm)),
                          max_iter=cap, precond=precond, atol=0.25 * opts.gtol)
        if not (exact and applies <= REFACTOR_APPLIES):
            precond = None      # released before the next factor is built
        exact = exact or _dense_pays(grid, applies)
        slope = _grid_inner(d, g)
        if slope >= 0:
            d, slope = -g, -_grid_inner(g, g)
        hit = _line_search(problem, v, f, g, d, slope, gnorm)
        if hit is None:
            return v, it, "line_search", history, NewtonState(lam, exact), (f, g, ev, sigma)
        t, v, f_new, g, ev, sigma = hit
        if f - f_new <= _rounding_floor(f):
            ratio = 1.0 if _grid_norm(g) < gnorm else 0.0
        else:
            # gain ratio against the damped quadratic model (pred ~ -slope/2)
            ratio = (f - f_new) / max(-0.5 * t * slope, 1e-300)
        if ratio > 0.75 and t >= 1.0:
            lam = max(lam / 3.0, lam_min)
        elif ratio < 0.25 or t < 0.1:
            lam = min(lam * 2.0, lam_max)
        # a constant shift of v changes neither f nor g
        v = v - grid_mean(v)
        f = f_new
        history.append(f)
    # the last allowed step may have met gtol
    status = "converged" if _grid_norm(g) <= opts.gtol else "max_iter"
    return (v, opts.max_iter, status, history, NewtonState(lam, exact),
            (f, g, ev, sigma))


def _pcg(apply_A, b, rel_tol, max_iter, precond, atol=0.0):
    """Preconditioned CG; returns the solution and the number of applies."""
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = _grid_norm(b)
    if bnorm == 0.0:
        return x, 0
    target = max(rel_tol * bnorm, atol)
    z = precond(r)
    p = z.copy()
    rz = _grid_inner(r, z)
    applies = 0
    # as with p.Ap <= 0, a preconditioned residual with r.z <= 0 (or not
    # finite) offers no step: CG stops at its iterate
    while applies < max_iter and 0.0 < rz < np.inf:
        Ap = apply_A(p)
        applies += 1
        pAp = _grid_inner(p, Ap)
        if pAp <= 0:
            break
        a = rz / pAp
        x += a * p
        r -= a * Ap
        if _grid_norm(r) <= target:
            break
        z = precond(r)
        rz_new = _grid_inner(r, z)
        if not 0.0 < rz_new < np.inf:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, applies


def solve_cell(problem: CellProblem, init: ScalarField | None = None,
               opts: SolverOptions | None = None,
               state: NewtonState | None = None) -> CellSolution:
    """Minimize F_k; returns the corrector and its diagnostics.

    ``state`` is the ``newton_state`` of an earlier solution, typically the
    one ``init`` comes from: the solve then starts from that solve's
    Levenberg lam and step kind instead of learning them again.  It changes
    the path, not the minimizer.  Deterministic given (problem, init, opts,
    state).  If the iteration cap is hit or the line search stalls, the best
    iterate is returned with ``converged=False`` and the reason in
    ``status``.  An n=2 grid with fiber axes is refused: it is solved fiber
    by fiber (``fiber_decomposed_solve``).
    """
    if problem.grid.n == 2 and problem.grid.m >= 1:
        raise ValueError("n=2 grids with fiber axes are solved fiber by fiber: "
                         "use fiber_decomposed_solve (continuation_solve does)")
    opts = opts or SolverOptions()
    t0 = time.perf_counter()
    if init is None:
        v = np.zeros(problem.grid.shape)
    else:
        if init.grid != problem.grid:
            raise ValueError("init lives on a different grid")
        if abs(float(np.mean(init.values))) > 1e-8 * (1.0 + float(np.max(np.abs(init.values)))):
            raise ValueError("init must have zero mean")
        v = init.values - init.values.mean()
    v, iters, status, history, state, evaluated = _minimize_newton(problem, v, opts, state)
    return _finish(problem, v, iters, status, history, opts, t0, state, evaluated)


def _secant(points: list, s: float) -> np.ndarray:
    """The start of a solve at parameter ``s`` from ``points``, the (s_i, v_i)
    of the last one or two solves along that parameter: from two, their
    secant extrapolation v1 + (s - s1) / (s1 - s0) (v1 - v0), re-centred to
    mean zero; from one, its v."""
    s1, v1 = points[-1]
    if len(points) < 2:
        return v1
    s0, v0 = points[-2]
    v = v1 + ((s - s1) / (s1 - s0)) * (v1 - v0)
    return v - v.mean()


def continuation_solve(model: SwingModel, P, k_schedule, tau_steps: int,
                       grid: TorusGrid, opts: SolverOptions | None = None) -> list:
    """Homotopy in tau at the first k, then warm-started continuation in k.

    Starts from the integrable endpoint tau=0 where v=0 is exact, walks tau to
    1 in ``tau_steps`` uniform steps at k_schedule[0], then re-solves at each
    larger k.  Each stage starts from the Newton state the stage before it
    ended with, and from the secant extrapolation of the last two stages'
    solutions: in tau while they share the next stage's k (the walk is seeded
    with v = 0 at tau = 0), in 1/k once they lie at tau = 1.  The first k
    stage after the tau walk starts from the last solution.  A stage at
    tau < 1 only starts the next one, so it stops at gtol
    max(opts.gtol, ``HOMOTOPY_GTOL``); every tau = 1 stage meets opts.gtol,
    and the strictly convex functional pins its minimizer whatever the start.
    Returns one solution per k, each checked to have converged, with Hbar_k
    nondecreasing (slack 1e-8).  On an n=2 grid with fiber axes the schedule
    is one ``_fiber_pass``: no tau walk runs, and ``tau_steps`` is not used.
    """
    opts = opts or SolverOptions()
    k_schedule = [float(k) for k in k_schedule]
    if any(b <= a for a, b in zip(k_schedule, k_schedule[1:])) or not k_schedule:
        raise ValueError("k_schedule must be non-empty and strictly increasing")
    if tau_steps < 1:
        raise ValueError("tau_steps must be >= 1")

    if grid.n == 2 and grid.m >= 1:
        results = _fiber_pass([CellProblem(model, P, k, grid) for k in k_schedule], opts)
    else:
        stages = [(i / tau_steps, k_schedule[0]) for i in range(1, tau_steps + 1)]
        stages += [(1.0, k) for k in k_schedule[1:]]
        results: list[CellSolution] = []
        # (tau, 1/k, v) of the last two solved stages
        walk = [(0.0, 1.0 / k_schedule[0], np.zeros(grid.shape))]
        state = None
        homotopy_opts = replace(opts, gtol=max(opts.gtol, HOMOTOPY_GTOL))
        for tau, k in stages:
            stage_opts = opts if tau == 1.0 else homotopy_opts
            problem = CellProblem(model, P, k, grid, tau)
            s = 1.0 / k
            if walk[-1][1] == s:        # a step in tau at one k
                init = _secant([(t, v) for t, s_i, v in walk if s_i == s], tau)
            else:                       # a step in 1/k at tau = 1
                init = _secant([(s_i, v) for t, s_i, v in walk if t == 1.0], s)
            sol = solve_cell(problem, ScalarField(grid, init), stage_opts, state)
            walk = [walk[-1], (tau, s, sol.v.values)]
            state = sol.newton_state
            if not sol.converged:
                raise ContinuationError(
                    f"stage (tau={tau:g}, k={k:g}) did not converge "
                    f"({_unconverged_reason(sol, stage_opts)})", results, tau, k)
            if tau == 1.0:
                results.append(sol)

    for i, b in enumerate(results):
        # a fiber pass returns its assembled solutions unchecked
        if not b.converged:
            raise ContinuationError(
                f"stage (tau=1, k={b.k:g}) did not converge "
                f"({_unconverged_reason(b, opts)})", results[:i], 1.0, b.k)
        if i and b.Hbar_k < results[i - 1].Hbar_k - 1e-8:
            raise ContinuationError(
                f"stage (tau=1, k={b.k:g}): Hbar_k not monotone along the schedule: "
                f"{results[i - 1].Hbar_k!r} -> {b.Hbar_k!r}", results, 1.0, b.k)
    return results


def _fiber_pass(problems: list, opts: SolverOptions) -> list:
    """Solve ``problems`` (one model, P, tau and grid with fiber axes, at
    increasing k) fiber by fiber; returns the assembled solution at each k,
    up to the first that did not converge.

    Fiber phi is the problem of ``model.at_phase(phi)`` on the x grid; the
    fibers decouple exactly, and the joint value is the log-mean-exp of their
    free energies.  At each k each of the N = N_phi^m fibers is solved once,
    to gtol_f = gtol / sqrt(N): the joint gradient is w_phi g_phi on fiber
    phi, with Gibbs mass share w_phi of mean 1, so ||g_joint||^2 =
    mean(w^2 ||g||^2) <= max(w) gtol_f^2 <= N gtol_f^2 = gtol^2.  A gtol_f
    below ``FIBER_GTOL_MIN`` raises a ``ValueError`` before any solve.  The first
    fiber climbs the ladder k_0 / 2^d, d = ``FIBER_LADDER``, ..., 1, then
    walks the schedule, each solve from its own last Newton state and secant
    in 1/k, its Hbar_k not falling (slack 1e-8).  A later fiber starts from
    the fiber before it at its k: its Newton state, and the secant
    2 v_prev - v_prevprev where the three lie consecutively on one grid line
    of the last phi axis, else v_prev.  A failed fiber raises a
    ``ContinuationError`` naming it and its k, with the earlier k's
    solutions.  ``converged`` is judged on the joint problem; ``iterations`` and
    ``wall_time_s`` count the work of each k, the ladder's in the first.
    """
    grid = problems[0].grid
    grid_x = TorusGrid(n=grid.n, m=0, N_x=grid.N_x, diff_mode=grid.diff_mode)
    phi_axis = grid.phi_axis()
    fibers = [(idx, problems[0].ham.at_phase(np.array([phi_axis[i] for i in idx])))
              for idx in np.ndindex(*(grid.N_phi,) * grid.m)]
    gtol_f = opts.gtol / len(fibers) ** 0.5
    if gtol_f < FIBER_GTOL_MIN:
        raise ValueError(
            f"gtol {opts.gtol:g} is below what {len(fibers)} fibers can meet: each would need "
            f"gtol / sqrt({len(fibers)}) = {gtol_f:.3g} < {FIBER_GTOL_MIN:g}; "
            f"use tol.gtol >= {FIBER_GTOL_MIN * len(fibers) ** 0.5:.3g}")
    fiber_opts = replace(opts, gtol=gtol_f)
    rungs = [problems[0].k / 2 ** d for d in range(FIBER_LADDER, 0, -1)]
    results, own = [], []           # own: the first fiber's last two solutions
    iters, t0 = 0, time.perf_counter()
    for k in rungs + [problem.k for problem in problems]:
        problem = problems[len(results)]        # the problem this k's work counts toward
        v_joint = np.zeros(grid.shape)
        done = []                   # (index, v) of the last two fibers solved at k
        for idx, fiber_model in fibers[:1] if k < problem.k else fibers:
            if done:
                line = [(i[-1], v) for i, v in done if i[:-1] == idx[:-1]]
                init = _secant(line, idx[-1]) if line else done[-1][1]
            elif own:
                init = _secant([(1.0 / s.k, s.v.values) for s in own], 1.0 / k)
                state = own[-1].newton_state
            else:
                init, state = np.zeros(grid_x.shape), None
            sol = solve_cell(CellProblem(fiber_model, problem.P, k, grid_x),
                             ScalarField(grid_x, init), fiber_opts, state)
            iters += sol.iterations
            fell = not done and own and sol.Hbar_k < own[-1].Hbar_k - 1e-8
            if fell or not sol.converged:
                why = (f"Hbar_k fell {own[-1].Hbar_k!r} -> {sol.Hbar_k!r}" if sol.converged
                       else f"did not converge ({_unconverged_reason(sol, fiber_opts)})")
                raise ContinuationError(f"stage (tau={problem.tau:g}, k={problem.k:g}): fiber "
                                        f"{idx} {why} at k={k:g}", results, problem.tau, problem.k)
            if not done:
                own = [*own[-1:], sol]
            done = [*done[-1:], (idx, sol.v.values)]
            state = sol.newton_state
            v_joint[(Ellipsis,) + idx] = sol.v.values
        if k == problem.k:
            results.append(_finish(problem, v_joint, iters, "converged", [], opts, t0))
            if not results[-1].converged:
                break                   # continuation_solve stops there
            iters, t0 = 0, time.perf_counter()
    return results


def fiber_decomposed_solve(problem: CellProblem,
                           opts: SolverOptions | None = None) -> CellSolution:
    """Solve each phi-fiber of ``problem`` once and assemble the joint
    solution: ``_fiber_pass`` over the one k."""
    if problem.grid.m < 1:
        raise ValueError("fiber decomposition needs m >= 1")
    return _fiber_pass([problem], opts or SolverOptions())[0]


def fiber_jump(fiber_values: np.ndarray) -> float:
    """Max absolute difference between cyclically adjacent fiber values."""
    fv = np.asarray(fiber_values, dtype=float)
    if fv.ndim == 0:
        return 0.0
    return max(
        float(np.max(np.abs(np.roll(fv, -1, axis=a) - fv))) for a in range(fv.ndim)
    )
