"""Ground truth for 1-D kinetic-plus-potential Hamiltonians H = y^2/2 + V(x).

For this class the effective Hamiltonian has a classical characterization:
the averaged momentum at energy E is p(E) = (1/2pi) * int sqrt(2(E - V)) dx,
and Hbar(P) is V_max on the flat piece |P| <= p(V_max) and otherwise the
unique energy with p(E) = |P|.  Everything here is quadrature plus root
finding, fully independent of the variational solver it validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import PERIOD
from .hamiltonians import SwingModel

__all__ = [
    "Potential1D",
    "momentum_of_energy",
    "effective_hamiltonian_1d",
    "potential_from_model",
    "oracle_table",
]


@dataclass(frozen=True)
class Potential1D:
    v: callable
    v_max: float
    v_min: float
    x_max: tuple      # locations of the maximum (quadrature split points)
    point: callable   # V at one float point, as the quadrature integrand reads it

    @classmethod
    def from_callable(cls, V, samples: int = 4096) -> "Potential1D":
        """Sample V densely, in one call, and refine its extrema.  V maps a
        point to its value, and an array of points to theirs elementwise (a
        constant V may return a scalar for an array)."""
        if abs(float(V(0.0)) - float(V(PERIOD))) > 1e-12:
            raise ValueError("potential is not 2*pi periodic")
        xs = np.linspace(0.0, PERIOD, samples, endpoint=False)
        vals = np.broadcast_to(np.asarray(V(xs), dtype=float), xs.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential non-finite on the sampling grid")
        v_max, x_stars = _refine_extrema(V, xs, vals, sign=+1.0)
        v_min, _ = _refine_extrema(V, xs, vals, sign=-1.0)
        return cls(v=V, v_max=v_max, v_min=v_min, x_max=tuple(x_stars), point=V)


def _refine_extrema(V, xs, vals, sign):
    """Locate extrema by dense sampling plus bounded local refinement.

    Samples within 1e-9 of the best one are tied.  Each cyclic run of tied
    samples is refined once, at its best sample.  When all samples lie within
    1e-9 of each other, V is flat at the sampling resolution: its value is
    the best sample and it has no extremum locations."""
    from scipy import optimize as _so

    tie = 1e-9
    target = sign * vals
    best = float(np.max(target))
    if best - float(np.min(target)) < tie:
        return sign * best, []
    f = lambda x: -sign * float(V(x))
    h = xs[1] - xs[0]
    tied = target >= best - tie
    # start the cycle on an untied sample, so no run wraps around
    cycle = np.roll(np.arange(xs.size), -int(np.argmin(tied)))
    runs = np.split(cycle, np.flatnonzero(np.diff(tied[cycle])) + 1)
    locations, value = [], -np.inf
    for run in (r for r in runs if tied[r[0]]):
        i = run[np.argmax(target[run])]
        res = _so.minimize_scalar(f, bounds=(xs[i] - h, xs[i] + h), method="bounded",
                                  options={"xatol": 1e-12})
        value = max(value, -res.fun)
        locations.append(float(res.x) % PERIOD)
    # deduplicate refined locations that collapsed to the same point
    locations = sorted(locations)
    kept = []
    for x in locations:
        if not kept or x - kept[-1] > 10 * h:
            kept.append(x)
    return sign * value, kept


def momentum_of_energy(pot: Potential1D, E: float) -> float:
    """(1/2pi) * int_0^2pi sqrt(2 (E - V(x))) dx; strictly increasing in E.

    The integrand has a square-root singularity when E = V_max; adaptive
    quadrature with the maximum locations as split points keeps the absolute
    error at the 1e-10 target.
    """
    from scipy import integrate as _si

    if E < pot.v_max - 1e-12:
        raise ValueError(f"energy {E!r} below the potential maximum {pot.v_max!r}")
    v = pot.point
    f = lambda x: math.sqrt(max(2.0 * (E - v(x)), 0.0))
    points = [x for x in pot.x_max if 0.0 < x < PERIOD] or None
    val, _ = _si.quad(f, 0.0, PERIOD, points=points, limit=400,
                      epsabs=1e-12, epsrel=1e-12)
    return val / PERIOD


def effective_hamiltonian_1d(pot: Potential1D, P: float) -> float:
    """Hbar(P): flat equal to V_max for |P| <= p(V_max), else p(E) = |P| root.

    Even in P and convex; the root is bracketed and solved to 1e-12.
    """
    return _hbar(pot, P, momentum_of_energy(pot, pot.v_max))


def _hbar(pot: Potential1D, P: float, p_star: float) -> float:
    """``effective_hamiltonian_1d`` given the flat-piece edge
    ``p_star = momentum_of_energy(pot, pot.v_max)``.  The root search
    starts at the bracket ends, whose momenta are already known: it reuses
    them instead of integrating again."""
    from scipy import optimize as _so

    P = abs(float(P))
    if P <= p_star:
        return pot.v_max
    lo = pot.v_max
    hi = pot.v_max + max(1.0, P)
    cap = pot.v_max + 10.0 * (1.0 + P * P)
    while (p_hi := momentum_of_energy(pot, hi)) < P:
        hi = pot.v_max + 2.0 * (hi - pot.v_max)
        if hi > cap:
            raise ValueError("root bracket not found; potential looks pathological")
    known = {lo: p_star, hi: p_hi}
    return float(_so.brentq(lambda E: (known[E] if E in known else momentum_of_energy(pot, E)) - P,
                            lo, hi, xtol=1e-12, rtol=8.9e-16))


def potential_from_model(model: SwingModel) -> Potential1D:
    """Extract V from a 1-D autonomous, untilted model; every SwingModel is
    kinetic plus potential, H = y^2/2 + V(x)."""
    if model.n != 1 or model.m != 0 or model.tilted:
        raise ValueError("oracle supports n=1, m=0, alpha=0 models only")
    v_point = model.float_potential(model.drive(np.zeros(0)))

    def V(xx):
        """The energy at rest H(x, 0): at every point of an array by
        ``evaluate``, at a point as a float by the model's generated float
        kernel, with the same bits."""
        if isinstance(xx, np.ndarray) and xx.ndim:
            x = np.asarray(xx, dtype=float)[None]
            return model.evaluate(x, np.zeros_like(x), np.zeros((0,) + xx.shape)).h
        return v_point(float(xx))

    # the quadrature integrand calls the float kernel itself: its nodes are
    # floats, so V's dispatch would only cost time
    return replace(Potential1D.from_callable(V), point=v_point)


def oracle_table(pot: Potential1D, P_values) -> np.ndarray:
    """Rows (P, Hbar(P)) for the CLI table and for dual-transform checks;
    each row equals ``effective_hamiltonian_1d(pot, P)`` bit for bit, with
    the flat-piece edge integrated once per table."""
    P_values = np.asarray(P_values, dtype=float)
    p_star = momentum_of_energy(pot, pot.v_max)
    return np.column_stack([P_values, [_hbar(pot, p, p_star) for p in P_values]])
