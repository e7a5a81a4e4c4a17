"""Direct integration of the swing equation and rotation-number extraction.

The ODE is xddot = alpha + f(x, t) with f = D_x V and
V(x, t) = -sum_ij beta_ij(omega t) (1 - cos(lam_i x_i + lam_j x_j)).
Positions are kept unwrapped (covering space) so rotation numbers are
well-defined; reduction mod 2*pi happens only at output time behind a flag.
This is the one place where alpha != 0 is allowed: the ODE is well-posed even
though the corresponding torus Hamiltonian is multivalued.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PERIOD
from .hamiltonians import SwingParams, make_swing
from .oracle1d import Potential1D, potential_from_model

__all__ = [
    "SwingTrajectory",
    "NonFiniteStateError",
    "integrate_swing",
    "rotation_number",
    "compare_with_homogenization",
]


class NonFiniteStateError(RuntimeError):
    """Integration produced a non-finite state; carries the last valid index."""

    def __init__(self, index: int):
        super().__init__(f"non-finite state; last valid sample index {index}")
        self.index = index


# steps whose drive coefficients are tabulated in one call: O(block) memory
DRIVE_BLOCK = 4096
# fewest samples rotation_number fits a slope to, after the burn-in window
MIN_FIT_SAMPLES = 10
# record stride of the orbits compare_with_homogenization integrates
COMPARE_RECORD_EVERY = 10


@dataclass(frozen=True)
class SwingTrajectory:
    """Recorded samples; a batch of B orbits adds a trailing axis of size B."""

    times: np.ndarray        # (S,)
    x: np.ndarray            # (S, n) or (S, n, B) unwrapped positions
    y: np.ndarray            # (S, n) or (S, n, B) velocities
    energy: np.ndarray | None   # (S,) or (S, B) total energy; autonomous case only
    rotation_estimate: np.ndarray  # (n,) or (n, B) = (x(T) - x(0)) / T

    def wrapped_x(self) -> np.ndarray:
        return np.mod(self.x, PERIOD)


def _drive_steps(model, phi: np.ndarray, floats: bool) -> list:
    """The drive values of the active terms at each column of ``phi``: a
    list of floats per column for float rows, a tuple of 0-d arrays for
    array rows."""
    cols = phi.shape[1]
    table = np.array([np.broadcast_to(b, (cols,)) for b in model.drive(phi)])
    steps = table.reshape(-1, cols).T.tolist()
    return steps if floats else [tuple(map(np.array, beta)) for beta in steps]


def integrate_swing(p: SwingParams, x0, y0, T: float, dt: float,
                    record_every: int = 1) -> SwingTrajectory:
    """Kick-drift-kick integration with the force clock held at midstep.

    Both half-kicks of a step evaluate beta at t + dt/2, which keeps the map
    symmetric (hence 2nd order) in the quasi-periodic case and reduces to
    classic velocity Verlet when autonomous.  ``x0`` and ``y0`` have shape
    (n,) or (n, 1) for one orbit, or (n, B) for a batch of B orbits stepped
    together.  The state is kept as n per-axis rows: Python floats for one
    orbit, (B,) arrays for a batch (see ``SwingModel.__init__``); a single
    orbit steps on floats because numpy's per-call cost is most of a step on
    length-1 arrays, and ``math`` rounds like numpy.  The force is
    ``SwingModel.potential_force``, split so that each step costs one
    coupling evaluation: the drive coefficients are tabulated in one
    ``drive`` call per block of ``DRIVE_BLOCK`` steps, and the coupling
    sines at the new position are carried from the second half-kick of a
    step to the first half-kick of the next (the whole force, when
    autonomous); the trajectory is bit for bit the one of a per-step
    ``potential_force`` loop on arrays.  Deterministic; raises
    NonFiniteStateError if any orbit blows up.
    """
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    n_steps = int(round(T / dt))
    if not 1 <= record_every <= n_steps:
        raise ValueError(f"record_every must lie in [1, {n_steps}] (the step count)")
    x = np.array(x0, dtype=float, ndmin=1)
    y = np.array(y0, dtype=float, ndmin=1)
    if x.shape != y.shape or x.ndim > 2 or x.shape[0] != p.n:
        raise ValueError(f"x0 and y0 must share the shape ({p.n},) or ({p.n}, B)")

    model = make_swing(p)
    autonomous = p.m == 0
    batch = x.shape[1:]
    # the row kind follows SwingModel's rule: float rows and float constants
    # for one orbit, (B,) rows and 0-d constants for a batch
    floats = x.size == p.n
    if floats:
        x, y = x.ravel().tolist(), y.ravel().tolist()
        half, step_dt = 0.5 * dt, dt
    else:
        x, y = list(x), list(y)
        half, step_dt = np.array(0.5 * dt), np.array(dt)

    # sample r holds x, y and, when autonomous, the total energy on the
    # covering space
    n_samples = n_steps // record_every + 1
    samples = np.empty((n_samples, 2 * p.n + autonomous) + (() if floats else batch))
    beta = _drive_steps(model, np.zeros((0, 1)), floats)[0] if autonomous else None
    r = 1
    # a blow-up is reported as NonFiniteStateError, not as overflow warnings;
    # math.sin and math.cos raise ValueError at +-inf, where the state turned
    # non-finite after sample r - 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            samples[0] = x + y + [model.energy(x, y, beta)] if autonomous else x + y
            sines = model.coupling_sines(x)
            if autonomous:
                force = model.coupling_force(sines, beta, x)
            for first in range(0, n_steps, DRIVE_BLOCK):
                steps = range(first, min(first + DRIVE_BLOCK, n_steps))
                if autonomous:
                    betas = [beta] * len(steps)
                else:
                    # beta at the midstep times (step + 1/2) dt of the block
                    betas = _drive_steps(model, p.omega[:, None] * (
                        (np.arange(steps.start, steps.stop) + 0.5) * dt), floats)
                for step, beta in zip(steps, betas):
                    if not autonomous:
                        force = model.coupling_force(sines, beta, x)
                    y = [yi - half * fi for yi, fi in zip(y, force)]
                    x = [xi + step_dt * yi for xi, yi in zip(x, y)]
                    sines = model.coupling_sines(x)
                    force = model.coupling_force(sines, beta, x)
                    y = [yi - half * fi for yi, fi in zip(y, force)]
                    if (step + 1) % record_every == 0:
                        sample = samples[r]
                        sample[...] = (x + y + [model.energy(x, y, beta)] if autonomous
                                       else x + y)
                        if not np.isfinite(sample).all():
                            raise NonFiniteStateError(r - 1)
                        r += 1
    except ValueError:
        raise NonFiniteStateError(r - 1) from None

    samples = samples.reshape((n_samples, -1) + batch)
    times = np.arange(n_samples) * record_every * dt
    xs, ys = samples[:, :p.n], samples[:, p.n:2 * p.n]
    es = samples[:, 2 * p.n] if autonomous else None
    rotation = (xs[-1] - xs[0]) / times[-1]
    return SwingTrajectory(times=times, x=xs, y=ys, energy=es,
                           rotation_estimate=rotation)


def rotation_number(traj: SwingTrajectory, burn_in: float = 0.0) -> np.ndarray:
    """Least-squares slope of unwrapped x against t after the burn-in window,
    one per column: shape (n,) or (n, B) like ``traj.x[0]``."""
    if not 0.0 <= burn_in <= 0.9:
        raise ValueError("burn_in must lie in [0, 0.9]")
    start = int(np.ceil(burn_in * (len(traj.times) - 1)))
    t = traj.times[start:]
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(f"post-burn-in window shorter than {MIN_FIT_SAMPLES} samples")
    cols = traj.x[start:].reshape(t.size, -1)
    return np.polyfit(t, cols, 1)[0].reshape(traj.x.shape[1:])


def compare_with_homogenization(p: SwingParams, hbar_table, samples: int,
                                T: float = 200.0, dt: float = 1e-3,
                                burn_in: float = 0.1,
                                pot: Potential1D | None = None) -> list[dict]:
    """Rotation of trajectories vs the slope of the effective Hamiltonian.

    For each sampled momentum P the launched orbit sits on the energy level
    Hbar(P): rotating (above the potential ceiling) when the table slope is
    nonzero there, a trapped librating orbit inside the flat piece.  All
    sampled orbits are integrated as one batch.  Each row reports (P,
    rotation measured, centered-difference slope of the table, absolute gap).
    ``pot`` is the 1-D potential of ``p`` when the caller has already built
    it; otherwise it is built here.
    """
    if p.n != 1 or p.m != 0 or p.tilted:
        raise ValueError("homogenization comparison needs n=1, m=0, alpha=0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    table = np.asarray(sorted((float(pp), float(h)) for pp, h in hbar_table))
    if table.shape[0] < 3:
        raise ValueError("table needs at least 3 rows for centered differences")
    if pot is None:
        pot = potential_from_model(make_swing(p))
    v_x0 = float(pot.v(0.0))

    idx = np.unique(np.linspace(1, table.shape[0] - 2, samples).round().astype(int))
    P, E = table[idx, 0], table[idx, 1]
    predicted = (table[idx + 1, 1] - table[idx - 1, 1]) / (table[idx + 1, 0] - table[idx - 1, 0])
    # flat piece: any librating orbit has rotation 0, matching slope 0
    e_trap = 0.5 * (pot.v_min + pot.v_max)
    y0 = np.array([np.sign(Pi) * np.sqrt(2.0 * (Ei - v_x0)) if Ei > pot.v_max + 1e-9
                   else np.sqrt(max(2.0 * (e_trap - v_x0), 0.0))
                   for Pi, Ei in zip(P, E)])
    traj = integrate_swing(p, np.zeros((1, idx.size)), y0[None, :], T, dt,
                           record_every=COMPARE_RECORD_EVERY)
    measured = rotation_number(traj, burn_in)[0]
    return [{
        "P": float(Pi),
        "rotation_measured": float(mi),
        "rotation_predicted": float(pi),
        "gap": abs(float(mi) - float(pi)),
    } for Pi, mi, pi in zip(P, measured, predicted)]
