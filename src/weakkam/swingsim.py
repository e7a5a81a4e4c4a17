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
from .hamiltonians import SwingModel
from .oracle1d import Potential1D, potential_from_model

__all__ = [
    "SwingTrajectory",
    "NonFiniteStateError",
    "integrate_swing",
    "rotation_number",
    "compare_with_homogenization",
]


class NonFiniteStateError(RuntimeError):
    """Integration produced a non-finite state; carries the last valid index
    (-1: the start)."""

    def __init__(self, index: int):
        super().__init__("non-finite start; no valid sample" if index < 0 else
                         f"non-finite state; last valid sample index {index}")
        self.index = index


# steps whose drive coefficients are tabulated in one call: O(block) memory
DRIVE_BLOCK = 4096
# fewest samples rotation_number fits a slope to, after the burn-in window
MIN_FIT_SAMPLES = 10
# record stride of the orbits compare_with_homogenization integrates
COMPARE_RECORD_EVERY = 10
# rows compare_with_homogenization needs for its centered differences
MIN_TABLE_ROWS = 3


@dataclass(frozen=True)
class SwingTrajectory:
    """Recorded samples of one orbit."""

    times: np.ndarray        # (S,)
    x: np.ndarray            # (S, n) unwrapped positions
    y: np.ndarray            # (S, n) velocities
    energy: np.ndarray | None   # (S,) total energy; autonomous case only
    rotation_estimate: np.ndarray  # (n,) = (x(T) - x(0)) / T

    def wrapped_x(self) -> np.ndarray:
        return np.mod(self.x, PERIOD)


def _drive_steps(model, phi: np.ndarray) -> list:
    """The drive values of the active terms at each column of ``phi``, a
    list of floats per column."""
    cols = phi.shape[1]
    table = np.array([np.broadcast_to(b, (cols,)) for b in model.drive(phi)])
    return table.reshape(-1, cols).T.tolist()


def integrate_swing(model: SwingModel, x0, y0, T: float, dt: float,
                    record_every: int = 1) -> SwingTrajectory:
    """Kick-drift-kick integration of one orbit, the force clock held at
    midstep.

    Both half-kicks of a step evaluate beta at t + dt/2, which keeps the map
    symmetric (hence 2nd order) in the quasi-periodic case and reduces to
    classic velocity Verlet when autonomous.  ``x0`` and ``y0`` have shape
    (n,).  The orbit is stepped as n per-axis rows of Python floats: numpy's
    per-call cost is most of a step on short arrays, and ``math`` rounds like
    numpy.  The steps run in ``SwingModel.kick_drift_kick``, a kernel
    generated once per term pattern and unrolled over rows and terms, called
    for each block of ``DRIVE_BLOCK`` steps whose drive coefficients are
    tabulated in one ``drive`` call; the kernel records the samples of the
    block itself, and they are copied and checked once per block.  Each step
    costs one coupling evaluation (plus one at each call's entry): the kernel
    carries the coupling sines (the whole force, when autonomous) from the
    second half-kick of a step to the first of the next.  Steps after the
    last sample are not taken.  The trajectory is bit for bit the one of a
    per-step ``potential_force`` loop on arrays.  Deterministic; raises
    NonFiniteStateError at the first non-finite sample, with the last valid
    index, or -1 if the start (its energy included) is not finite.
    """
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    n_steps = int(round(T / dt))
    if not 1 <= record_every <= n_steps:
        raise ValueError(f"record_every must lie in [1, {n_steps}] (the step count)")
    x, y = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    n = model.n
    if x.shape != (n,) or y.shape != (n,):
        raise ValueError(f"x0 and y0 must have the shape ({n},)")
    xs, ys = x.tolist(), y.tolist()

    autonomous = model.m == 0
    # sample r, samples[r], holds x, y and, when autonomous, the total
    # energy on the covering space; the steps after the last sample are not
    # taken
    n_samples = n_steps // record_every + 1
    n_steps = (n_samples - 1) * record_every
    samples = np.empty((n_samples, 2 * n + autonomous))
    beta = _drive_steps(model, np.zeros((0, 1)))[0] if autonomous else None
    half = 0.5 * dt
    # math.sin and math.cos raise ValueError at +-inf, where the orbit turned
    # non-finite after its last recorded sample
    try:
        samples[0] = xs + ys + ([model.energy(xs, ys, beta)] if autonomous else [])
    except ValueError:
        raise NonFiniteStateError(-1) from None
    if not np.isfinite(samples[0]).all():
        raise NonFiniteStateError(-1)
    for first in range(0, n_steps, DRIVE_BLOCK):
        last = min(first + DRIVE_BLOCK, n_steps)
        if autonomous:
            betas = [beta] * (last - first)
        else:
            # beta at the midstep times (step + 1/2) dt of the block
            betas = _drive_steps(model, model.omega[:, None] * (
                (np.arange(first, last) + 0.5) * dt))
        r = first // record_every + 1       # the block's first sample
        rows, raised = [], False
        try:
            xs, ys = model.kick_drift_kick(xs, ys, betas, half, dt, record_every,
                                           record_every - first % record_every, rows)
        except ValueError:
            raised = True
        block = samples[r:r + len(rows)]
        if rows:
            block[...] = rows
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if bad.size:
            raise NonFiniteStateError(r + int(bad[0]) - 1)
        if raised:
            raise NonFiniteStateError(r + len(rows) - 1)

    times = np.arange(n_samples) * record_every * dt
    x_out, y_out = samples[:, :n], samples[:, n:2 * n]
    energy = samples[:, 2 * n] if autonomous else None
    rotation = (x_out[-1] - x_out[0]) / times[-1]
    return SwingTrajectory(times=times, x=x_out, y=y_out, energy=energy,
                           rotation_estimate=rotation)


def rotation_number(traj: SwingTrajectory, burn_in: float = 0.0) -> np.ndarray:
    """Least-squares slope of unwrapped x against t after the burn-in window,
    one per axis: shape (n,).  Each axis is fitted alone."""
    if not 0.0 <= burn_in <= 0.9:
        raise ValueError("burn_in must lie in [0, 0.9]")
    start = int(np.ceil(burn_in * (len(traj.times) - 1)))
    t = traj.times[start:]
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(f"post-burn-in window shorter than {MIN_FIT_SAMPLES} samples")
    x = traj.x[start:]
    return np.array([np.polyfit(t, x[:, i:i + 1], 1)[0, 0] for i in range(x.shape[1])])


def compare_with_homogenization(model: SwingModel, hbar_table, samples: int,
                                T: float = 200.0, dt: float = 1e-3,
                                burn_in: float = 0.1,
                                pot: Potential1D | None = None) -> list[dict]:
    """Rotation of trajectories vs the slope of the effective Hamiltonian.

    For each sampled momentum P the launched orbit sits on the energy level
    Hbar(P): rotating (above the potential ceiling) when the table slope is
    nonzero there, a trapped librating orbit inside the flat piece.  Each
    sampled orbit is integrated by its own ``integrate_swing`` call and
    fitted by ``rotation_number``.  Each row reports (P, rotation measured,
    centered-difference slope of the table, absolute gap).
    ``pot`` is the 1-D potential of ``model`` when the caller has already
    built it; otherwise it is built here.
    """
    if model.n != 1 or model.m != 0 or model.tilted:
        raise ValueError("homogenization comparison needs n=1, m=0, alpha=0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    table = np.asarray(sorted((float(pp), float(h)) for pp, h in hbar_table))
    if table.shape[0] < MIN_TABLE_ROWS:
        raise ValueError(f"table needs at least {MIN_TABLE_ROWS} rows for centered differences")
    if pot is None:
        pot = potential_from_model(model)
    v_x0 = float(pot.v(0.0))

    idx = np.unique(np.linspace(1, table.shape[0] - 2, samples).round().astype(int))
    P, E = table[idx, 0], table[idx, 1]
    predicted = (table[idx + 1, 1] - table[idx - 1, 1]) / (table[idx + 1, 0] - table[idx - 1, 0])
    # flat piece: any librating orbit has rotation 0, matching slope 0
    e_trap = 0.5 * (pot.v_min + pot.v_max)
    y0 = [np.sign(Pi) * np.sqrt(2.0 * (Ei - v_x0)) if Ei > pot.v_max + 1e-9
          else np.sqrt(max(2.0 * (e_trap - v_x0), 0.0))
          for Pi, Ei in zip(P, E)]
    measured = [rotation_number(integrate_swing(model, [0.0], [y], T, dt,
                                                record_every=COMPARE_RECORD_EVERY),
                                burn_in)[0] for y in y0]
    return [{
        "P": float(Pi),
        "rotation_measured": float(mi),
        "rotation_predicted": float(pi),
        "gap": abs(float(mi) - float(pi)),
    } for Pi, mi, pi in zip(P, measured, predicted)]
