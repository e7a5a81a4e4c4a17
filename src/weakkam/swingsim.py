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


def integrate_swing(p: SwingParams, x0, y0, T: float, dt: float,
                    record_every: int = 1) -> SwingTrajectory:
    """Kick-drift-kick integration with the force clock held at midstep.

    Both half-kicks of a step evaluate beta at t + dt/2, which keeps the map
    symmetric (hence 2nd order) in the quasi-periodic case and reduces to
    classic velocity Verlet when autonomous.  ``x0`` and ``y0`` have shape
    (n,) for one orbit or (n, B) for a batch of B orbits stepped together;
    the force is ``SwingModel.potential_force`` and the drive coefficients
    are evaluated once per step.  Deterministic; raises NonFiniteStateError
    if any orbit blows up.
    """
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    x = np.array(x0, dtype=float, ndmin=1)
    y = np.array(y0, dtype=float, ndmin=1)
    if x.shape != y.shape or x.ndim > 2 or x.shape[0] != p.n:
        raise ValueError(f"x0 and y0 must share the shape ({p.n},) or ({p.n}, B)")
    single = x.ndim == 1
    if single:
        x, y = x[:, None], y[:, None]

    model = make_swing(p)
    n_steps = int(round(T / dt))
    autonomous = p.m == 0
    beta = model.drive(np.zeros((0, 1))) if autonomous else None

    def energy():
        """Total energy on the covering space; meaningful when autonomous."""
        return model.potential_force(x, beta, 0.5 * np.einsum("i...,i...->...", y, y))[0]

    times, xs, ys, es = [0.0], [x], [y], []
    if autonomous:
        es.append(energy())
    half = 0.5 * dt
    # a blow-up is reported as NonFiniteStateError, not as overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            t_half = (step + 0.5) * dt
            if not autonomous:
                beta = model.drive((p.omega * t_half).reshape(p.m, 1))
            y = y - half * model.potential_force(x, beta)[1]
            x = x + dt * y
            y = y - half * model.potential_force(x, beta)[1]
            if (step + 1) % record_every == 0:
                e = energy() if autonomous else 0.0
                if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))
                        and np.all(np.isfinite(e))):
                    raise NonFiniteStateError(len(times) - 1)
                times.append((step + 1) * dt)
                xs.append(x)
                ys.append(y)
                if autonomous:
                    es.append(e)

    times = np.asarray(times)
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    es = np.asarray(es) if autonomous else None
    if single:
        xs, ys = xs[..., 0], ys[..., 0]
        es = es[:, 0] if autonomous else es
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
    if t.size < 10:
        raise ValueError("post-burn-in window shorter than 10 samples")
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
                           record_every=10)
    measured = rotation_number(traj, burn_in)[0]
    return [{
        "P": float(Pi),
        "rotation_measured": float(mi),
        "rotation_predicted": float(pi),
        "gap": abs(float(mi) - float(pi)),
    } for Pi, mi, pi in zip(P, measured, predicted)]
