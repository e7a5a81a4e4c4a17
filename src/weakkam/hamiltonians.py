"""Hamiltonian evaluators: the coupled-swing model and its special cases.

``SwingModel`` is the one model type; ``make_pendulum`` and
``make_integrable`` build the pendulum and the free rotor as swing models,
``SwingModel.scaled`` the tau-deformation toward the free rotor and
``SwingModel.at_phase`` the autonomous model of one frozen-drive fiber.
Every model evaluates ``H(x, y, phi)`` together with its first derivatives in
``x`` and ``y`` and the second derivative in ``y``.  The kinetic term is
``|y|^2 / 2``, so the y-Hessian is the identity, the uniform-convexity
constant is 1 and the Legendre transform (``lagrangian``) is closed-form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "TrigPoly",
    "SwingParams",
    "HamEval",
    "SwingModel",
    "make_integrable",
    "make_pendulum",
    "make_swing",
    "lagrangian",
]


@dataclass(frozen=True)
class TrigPoly:
    """Finite Fourier series c0 + sum_l a_l cos(k_l . phi) + b_l sin(k_l . phi).

    ``modes`` is a tuple of (kvec, cos_coef, sin_coef) with integer kvec of
    length m, so values are exact at any phi and 2*pi periodic per component.
    """

    const: float = 0.0
    modes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "const", float(self.const))
        norm = tuple(
            (tuple(int(k) for k in kvec), float(a), float(b)) for kvec, a, b in self.modes
        )
        object.__setattr__(self, "modes", norm)
        if not np.isfinite(self.const) or any(
            not (np.isfinite(a) and np.isfinite(b)) for _, a, b in norm
        ):
            raise ValueError("trig polynomial coefficients must be finite")

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        """Evaluate at phi of shape (m, ...); returns shape (...)."""
        phi = np.asarray(phi, dtype=float)
        out = np.full(phi.shape[1:], self.const)
        for kvec, a, b in self.modes:
            # k . phi summed left to right, elementwise: a BLAS dot rounds
            # differently for different batch shapes of phi
            arg = kvec[0] * phi[0] if kvec else np.zeros(phi.shape[1:])
            for k, ph in zip(kvec[1:], phi[1:]):
                arg = arg + k * ph
            out = out + a * np.cos(arg) + b * np.sin(arg)
        return out

    def bound(self) -> float:
        """Upper bound for |value| over the torus."""
        return abs(self.const) + sum(abs(a) + abs(b) for _, a, b in self.modes)

    def is_zero(self) -> bool:
        return self.const == 0.0 and all(a == 0.0 and b == 0.0 for _, a, b in self.modes)

    def to_dict(self) -> dict:
        return {"const": self.const, "modes": [[list(k), a, b] for k, a, b in self.modes]}

    @classmethod
    def from_dict(cls, d: dict) -> "TrigPoly":
        return cls(d.get("const", 0.0), tuple((tuple(k), a, b) for k, a, b in d.get("modes", [])))


@dataclass(frozen=True)
class SwingParams:
    """Parameters of the coupled swing model.

    alpha: power input per rotor (nonnegative); lam: coupling
    wavenumbers; beta: n x n table of TrigPoly coefficient functions of the
    fiber angle; omega: rationally independent drive frequencies (length m).
    """

    alpha: np.ndarray
    beta: tuple            # n x n nested tuple of TrigPoly
    lam: np.ndarray
    omega: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float)) if np.size(self.omega) else np.zeros(0)
        n = alpha.size
        beta = tuple(tuple(row) for row in self.beta)
        if lam.size != n or len(beta) != n or any(len(row) != n for row in beta):
            raise ValueError("alpha, lam and beta must agree on the dimension n")
        if np.any(alpha < 0):
            raise ValueError("alpha entries must be nonnegative")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(lam)) and np.all(np.isfinite(omega))):
            raise ValueError("swing parameters must be finite")
        for row in beta:
            for b in row:
                if not isinstance(b, TrigPoly):
                    raise TypeError("beta entries must be TrigPoly")
                if any(len(kvec) != omega.size for kvec, _, _ in b.modes):
                    raise ValueError(
                        "beta mode wave-vectors must have length m = len(omega)")
        for arr in (alpha, lam, omega):
            arr.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "omega", omega)

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def m(self) -> int:
        return self.omega.size

    @property
    def tilted(self) -> bool:
        """True when alpha != 0; the torus Hamiltonian is then multivalued."""
        return bool(np.any(self.alpha != 0.0))


class HamEval(NamedTuple):
    h: np.ndarray      # (...,)
    dx: np.ndarray     # (n, ...)
    dy: np.ndarray     # (n, ...)
    dyy: np.ndarray    # (n, n, ...)


@functools.lru_cache(maxsize=64)
def _identity_dyy(n: int, batch_shape: tuple) -> np.ndarray:
    """Read-only (n, n, *batch_shape) identity, shared between calls."""
    eye = np.eye(n).reshape((n, n) + (1,) * len(batch_shape))
    return np.broadcast_to(eye, (n, n) + batch_shape)


class SwingModel:
    """H = |y|^2/2 - <alpha, x> + sum_ij beta_ij(phi) (1 - cos(lam_i x_i + lam_j x_j)).

    The double sum runs over both (i, j) and (j, i); the spatial force picks
    up both occurrences of x_i, giving
    dH/dx_i = -alpha_i + lam_i * sum_j (beta_ij + beta_ji)(phi) sin(lam_i x_i + lam_j x_j).
    This is the only model type: the pendulum and the free rotor are its
    special cases (``make_pendulum``, ``make_integrable``).

    Models are immutable and pure: concurrent use is safe.  ``x`` and ``y``
    must have shape (n, ...) and ``phi`` shape (m, ...); all batch shapes
    must agree.
    """

    def __init__(self, params: SwingParams):
        self.params = params
        self.n, self.m = params.n, params.m
        self.gamma = 1.0
        self.descriptor = {
            "name": "swing",
            "n": self.n,
            "m": self.m,
            "alpha": params.alpha.tolist(),
            "lam": params.lam.tolist(),
            "omega": params.omega.tolist(),
            "beta": [[b.to_dict() for b in row] for row in params.beta],
        }
        # the active terms (i, j, lam_i, lam_j, 2 lam_i, beta_ij): nonzero
        # beta only
        self._terms = tuple(
            (i, j, float(params.lam[i]), float(params.lam[j]), 2.0 * float(params.lam[i]),
             params.beta[i][j])
            for i in range(self.n) for j in range(self.n)
            if not params.beta[i][j].is_zero())
        self.tilted = params.tilted
        # The formula is written over per-axis rows: a row is a Python float
        # for one orbit or point, an ndarray for a batch or a grid.  Each call
        # picks its math functions and constants from the row kind
        # (``_rows``).  Floats get ``math`` and float constants: numpy spends
        # ~1 us on any call, math ~60 ns, and the two must round alike, so
        # that one orbit gives the bits of a batch column (the tests compare
        # both kinds bit for bit).  Arrays get numpy and 0-d constants, which
        # scale a small array faster than a Python float does (~0.5 against
        # ~0.8 us).
        start = -params.alpha if self.tilted else np.zeros(self.n)
        self._float_rows = self._row_kit(float, math.sin, math.cos, start)
        self._array_rows = self._row_kit(np.array, np.sin, np.cos, start)

    def _row_kit(self, const, sin, cos, start) -> "_RowKit":
        terms = tuple((i, j, const(lam_i), const(lam_j), const(lam_ii))
                      for i, j, lam_i, lam_j, lam_ii, _ in self._terms)
        return _RowKit(sin, cos, terms, tuple(const(float(a)) for a in start))

    def _rows(self, x) -> "_RowKit":
        """The kit of the rows ``x``: floats or arrays."""
        return self._float_rows if type(x[0]) is float else self._array_rows

    def x_periodic(self, tol: float = 1e-12) -> bool:
        """Check 2*pi periodicity structurally from the coupling wavenumbers.

        The (i, j) term needs lam_i and lam_j integral when i != j; a diagonal
        term only needs 2*lam_i integral (half-integers allowed).  Terms with
        identically zero beta are ignored.  A tilted model is never periodic.
        """
        if self.tilted:
            return False
        for i, j, lam_i, lam_j, lam_ii, _ in self._terms:
            lams = [lam_ii] if i == j else [lam_i, lam_j]
            if any(abs(lam - round(lam)) > tol for lam in lams):
                return False
        return True

    def scaled(self, tau: float) -> "SwingModel":
        """|y|^2/2 + tau V: every beta coefficient (and alpha) times tau.

        That is tau H + (1 - tau) |y|^2/2, the deformation toward the free
        rotor that ``continuation_solve`` walks; ``scaled(1.0)`` evaluates
        bit for bit like this model."""
        p = self.params
        beta = tuple(tuple(TrigPoly(tau * b.const,
                                    tuple((kvec, tau * a, tau * s) for kvec, a, s in b.modes))
                           for b in row) for row in p.beta)
        return SwingModel(SwingParams(alpha=tau * p.alpha, beta=beta, lam=p.lam,
                                      omega=p.omega))

    def at_phase(self, phi) -> "SwingModel":
        """The autonomous model (m = 0) of one fiber: the drive frozen at the
        angle ``phi`` of shape (m,), each beta_ij the constant beta_ij(phi)."""
        phi = np.asarray(phi, dtype=float).reshape(self.m)
        p = self.params
        beta = tuple(tuple(TrigPoly(b(phi)) for b in row) for row in p.beta)
        return SwingModel(SwingParams(alpha=p.alpha, beta=beta, lam=p.lam))

    def drive(self, phi) -> tuple:
        """beta_ij(phi) of the active terms; a constant beta stays a float."""
        return tuple(b(phi) if b.modes else b.const for *_, b in self._terms)

    @staticmethod
    def _coupling_args(x, kit: "_RowKit") -> list:
        # lam x + lam x == (2 lam) x exactly: one product on the diagonal
        return [lam_ii * x[i] if i == j else lam_i * x[i] + lam_j * x[j]
                for i, j, lam_i, lam_j, lam_ii in kit.terms]

    def coupling_sines(self, x) -> list:
        """sin(lam_i x_i + lam_j x_j) of the active terms, one row each, for
        the n rows ``x``: the part of the force that depends on the position
        only (see ``coupling_force``)."""
        kit = self._rows(x)
        return list(map(kit.sin, self._coupling_args(x, kit)))

    def coupling_force(self, sines: list, beta, x) -> list:
        """The n rows of D_x V at the rows ``x``, from ``coupling_sines(x)``
        and the coupling values ``beta = drive(phi)``; equal, bit for bit, to
        the force ``potential_force(x, beta)`` returns."""
        kit = self._rows(x)
        rows = list(kit.start)
        for (i, j, lam_i, lam_j, _), bv, sn in zip(kit.terms, beta, sines):
            s = bv * sn
            si = lam_i * s
            rows[i] = rows[i] + si
            rows[j] = rows[j] + (si if i == j else lam_j * s)
        return rows

    def _add_potential(self, h, x, args: list, beta, kit: "_RowKit"):
        """The row h + V(x) from the rows ``x`` and their coupling arguments
        ``args = _coupling_args(x, kit)``."""
        if self.tilted:
            for minus_alpha, xi in zip(kit.start, x):
                h = h + minus_alpha * xi
        cos = kit.cos
        for bv, arg in zip(beta, args):
            h = h + bv * (1.0 - cos(arg))
        return h

    @staticmethod
    def _kinetic(y):
        """|y|^2 / 2 of the rows ``y``, summed row by row."""
        squares = y[0] * y[0]
        for yi in y[1:]:
            squares = squares + yi * yi
        return 0.5 * squares

    def potential_force(self, x: np.ndarray, beta, h=None):
        """(h + V(x), D_x V(x)) for the coupling values ``beta = drive(phi)``.

        The one place the swing potential and force are written (through
        ``_add_potential`` and ``coupling_force``); ``evaluate``,
        ``potential``, ``energy`` and the simulator call it or its parts.
        With ``h`` None only the force is computed.  ``x`` has shape (n, ...),
        each beta value broadcasts against ``x[i]``, and the force rows are
        stacked into an array of the shape of ``x``.
        """
        kit = self._rows(x)
        args = self._coupling_args(x, kit)
        if h is not None:
            h = self._add_potential(h, x, args, beta, kit)
        dx = np.empty(x.shape)
        for i, row in enumerate(self.coupling_force(list(map(kit.sin, args)), beta, x)):
            dx[i] = row
        return h, dx

    def energy(self, x, y, beta):
        """|y|^2/2 + V(x) of the rows ``x`` and ``y`` (an (n, ...) array is n
        rows) for ``beta = drive(phi)``, without the force; equal, bit for
        bit, to ``evaluate(x, y, phi).h``."""
        kit = self._rows(x)
        return self._add_potential(self._kinetic(y), x, self._coupling_args(x, kit), beta, kit)

    def potential(self, x, phi) -> np.ndarray:
        """V(x, phi) = H(x, 0, phi), without the force or the kinetic term's
        arrays; equal, bit for bit, to ``evaluate(x, 0, phi).h``."""
        x = np.asarray(x, dtype=float)
        kit = self._rows(x)
        return self._add_potential(np.zeros(x.shape[1:]), x, self._coupling_args(x, kit),
                                   self.drive(phi), kit)

    def evaluate(self, x, y, phi) -> HamEval:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h, dx = self.potential_force(x, self.drive(phi), self._kinetic(y))
        return HamEval(h, dx, y.copy(), _identity_dyy(self.n, x.shape[1:]))


class _RowKit(NamedTuple):
    """What the swing formula needs for one kind of row."""

    sin: object
    cos: object
    terms: tuple    # (i, j, lam_i, lam_j, 2 lam_i) of the active terms
    start: tuple    # the force rows before the coupling terms: -alpha, or 0


def make_integrable(n: int, m: int = 0) -> SwingModel:
    """H = |y|^2 / 2: the swing model with zero coupling."""
    if n < 1:
        raise ValueError("n must be >= 1")
    zero = TrigPoly(0.0)
    return SwingModel(SwingParams(alpha=[0.0] * n,
                                  beta=tuple((zero,) * n for _ in range(n)),
                                  lam=[1.0] * n, omega=[0.0] * m))


def make_pendulum(a: float) -> SwingModel:
    """H = y^2/2 + a (1 - cos x): the swing model with beta11 = a, lam = 1/2."""
    if a <= 0:
        raise ValueError("pendulum amplitude must be positive")
    return SwingModel(SwingParams(alpha=[0.0], beta=((TrigPoly(a),),), lam=[0.5]))


def make_swing(params: SwingParams) -> SwingModel:
    return SwingModel(params)


def lagrangian(model: SwingModel, x, vel, phi=None) -> float:
    """Legendre transform L(x, vel, phi) = sup_y (vel . y - H(x, y, phi)),
    in closed form |vel|^2/2 - V(x, phi)."""
    x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(model.n, -1)
    vel = np.atleast_1d(np.asarray(vel, dtype=float)).reshape(model.n, -1)
    if model.m == 0:
        phi = np.zeros((0, x.shape[1]))
    else:
        if phi is None:
            raise ValueError("phi required when the model has fiber angles")
        phi = np.atleast_1d(np.asarray(phi, dtype=float)).reshape(model.m, -1)
    out = 0.5 * np.einsum("i...,i...->...", vel, vel) - model.potential(x, phi)
    return float(out[0]) if out.size == 1 else out
