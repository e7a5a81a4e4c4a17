"""Gibbs densities, rotation vectors and minimal-measure diagnostics.

The density sigma = exp(k (H(x, D_x u, phi) - Hbar_k)) is a probability
density w.r.t. the normalized grid measure.  Lifted averages (rotation
vector, kinetic tails) never materialize a measure on momentum space: every
integral reduces to a sigma-weighted grid integral through the velocity field
beta = D_y H(x, D_x u, phi).

The closedness of the measure, integrate(sigma * D_yH . grad_x w) = 0 for all
test fields w, is the weak Euler-Lagrange equation of the functional: the
solver reports its residual as ``CellSolution.el_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cell import CellSolution
from .fields import ScalarField

__all__ = [
    "GibbsMeasure",
    "MeasureStats",
    "EffectiveLagrangian",
    "gibbs_measure",
    "rotation_vector",
    "energy_statistics",
    "tail_mass",
    "effective_lagrangian",
    "measure_stats",
]


@dataclass(frozen=True)
class GibbsMeasure:
    sigma: ScalarField          # nonnegative, integrates to 1
    k: float
    Hbar_k: float
    P: np.ndarray
    renorm_factor: float        # raw mass before renormalization; ~1
    h: np.ndarray = field(repr=False)    # H(x, D_x u, phi) at every node
    dy: np.ndarray = field(repr=False)   # velocity D_yH(x, D_x u, phi), (n, *grid.shape)

    def __post_init__(self):
        if np.any(self.sigma.values < 0):
            raise ValueError("density must be nonnegative")


@dataclass(frozen=True)
class MeasureStats:
    Q: np.ndarray
    energy_mean: float
    energy_var: float
    tail_mass: float
    tail_threshold: float

    def __post_init__(self):
        if self.energy_var < 0:
            raise ValueError("variance must be nonnegative")
        if not 0.0 <= self.tail_mass <= 1.0:
            raise ValueError("tail mass must lie in [0, 1]")


@dataclass(frozen=True)
class EffectiveLagrangian:
    value: float
    at_boundary: bool           # supremum attained at the table edge: unreliable


def gibbs_measure(solution: CellSolution) -> GibbsMeasure:
    """Normalized density exp(k (H - Hbar_k)) of the solve's final
    evaluation, whose node energies and velocities the measure keeps for the
    diagnostics below; evaluates nothing.  The raw mass, 1 up to round-off,
    is divided out so the density integrates to 1 exactly."""
    if not solution.converged:
        raise ValueError("gibbs_measure needs a converged solution")
    mass = float(np.mean(solution.sigma))
    sigma = ScalarField(solution.v.grid, solution.sigma / mass)
    return GibbsMeasure(sigma=sigma, k=solution.k, Hbar_k=solution.Hbar_k,
                        P=solution.P, renorm_factor=mass, h=solution.h,
                        dy=solution.dy)


def rotation_vector(measure: GibbsMeasure) -> np.ndarray:
    """Q_i = integrate(sigma * D_yH_i(x, P + D_xv, phi))."""
    return np.array([float(np.mean(measure.sigma.values * dy)) for dy in measure.dy])


def energy_statistics(measure: GibbsMeasure) -> tuple[float, float]:
    """Mean and variance of H(x, D_x u, phi) under sigma."""
    s = measure.sigma.values
    mean = float(np.mean(s * measure.h))
    var = float(np.mean(s * (measure.h - mean) ** 2))
    return mean, var


def tail_mass(measure: GibbsMeasure, M: float) -> float:
    """sigma-mass of the region where the velocity |D_yH| is at least M.

    M = 0 returns 1 exactly (speeds are nonnegative)."""
    if M < 0:
        raise ValueError("threshold M must be nonnegative")
    speed = np.sqrt(np.einsum("i...,i...->...", measure.dy, measure.dy))
    return float(np.mean(measure.sigma.values * (speed >= M)))


def effective_lagrangian(hbar_table, Q) -> EffectiveLagrangian:
    """Dual transform of a sampled effective Hamiltonian:
    max over table rows of (P . Q - Hbar(P)).

    The table must sample a neighborhood of the supremum; attainment at the
    table edge is flagged as unreliable.  Sampling error for a convex table
    with spacing dP is bounded by max|Hbar''| * dP^2 / 2.
    """
    rows = [(np.atleast_1d(np.asarray(p, dtype=float)), float(h)) for p, h in hbar_table]
    if not rows:
        raise ValueError("empty table")
    Q = np.atleast_1d(np.asarray(Q, dtype=float))
    values = [float(np.dot(p, Q)) - h for p, h in rows]
    best = int(np.argmax(values))
    P_star = rows[best][0]
    lo = np.min([p for p, _ in rows], axis=0)
    hi = np.max([p for p, _ in rows], axis=0)
    at_boundary = bool(np.any(np.isclose(P_star, lo)) or np.any(np.isclose(P_star, hi)))
    return EffectiveLagrangian(values[best], at_boundary)


def default_speed_threshold(measure: GibbsMeasure) -> float:
    """1 + the classical speed ceiling sqrt(2 (Hbar_k - min V)) at energy
    Hbar_k.  Every swing model has D_yH = y, so V = H - |D_yH|^2 / 2 at every
    node."""
    kinetic = 0.5 * np.einsum("i...,i...->...", measure.dy, measure.dy)
    v_min = float(np.min(measure.h - kinetic))
    return 1.0 + float(np.sqrt(max(2.0 * (measure.Hbar_k - v_min), 0.0)))


def measure_stats(measure: GibbsMeasure, speed_threshold: float) -> MeasureStats:
    """Assemble the full diagnostics row for one converged solve."""
    Q = rotation_vector(measure)
    mean, var = energy_statistics(measure)
    tail = tail_mass(measure, speed_threshold)
    return MeasureStats(Q=Q, energy_mean=mean, energy_var=var, tail_mass=tail,
                        tail_threshold=float(speed_threshold))
