"""Hamiltonian evaluators: the coupled-swing model and its special cases.

``SwingModel`` is the one concrete model; ``make_pendulum`` and
``make_integrable`` build the pendulum and the free rotor as swing models.
Every model evaluates ``H(x, y, phi)`` together with its first derivatives in
``x`` and ``y`` and the second derivative in ``y``; all models here have a
quadratic kinetic term ``|y|^2 / 2``, so the y-Hessian is the identity and the
uniform-convexity constant is 1.  The Legendre transform (``lagrangian``) is
closed-form for those models and falls back to a damped Newton ascent for
anything else.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "TrigPoly",
    "SwingParams",
    "HamEval",
    "HamiltonianModel",
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

    alpha: mechanical power input per rotor (nonnegative); lam: coupling
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


class HamiltonianModel:
    """Base evaluator; concrete models fill in ``evaluate``.

    Evaluators are immutable and pure: concurrent use is safe.  ``x`` and
    ``y`` must have shape (n, ...) and ``phi`` shape (m, ...); all batch
    shapes must agree.
    """

    n: int
    m: int
    gamma: float
    mechanical: bool = False   # H == |y|^2/2 + potential(x, phi)
    descriptor: dict

    def evaluate(self, x: np.ndarray, y: np.ndarray, phi: np.ndarray) -> HamEval:
        raise NotImplementedError

    def potential(self, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """H(x, 0, phi); for mechanical models this is the potential energy."""
        y0 = np.zeros_like(np.asarray(x, dtype=float))
        return self.evaluate(x, y0, phi).h

    def x_periodic(self) -> bool:
        """Whether H is 2*pi periodic in every spatial component."""
        return True


class SwingModel(HamiltonianModel):
    """H = |y|^2/2 - <alpha, x> + sum_ij beta_ij(phi) (1 - cos(lam_i x_i + lam_j x_j)).

    The double sum runs over both (i, j) and (j, i); the spatial force picks
    up both occurrences of x_i, giving
    dH/dx_i = -alpha_i + lam_i * sum_j (beta_ij + beta_ji)(phi) sin(lam_i x_i + lam_j x_j).
    This is the only concrete model: the pendulum and the free rotor are its
    special cases (``make_pendulum``, ``make_integrable``).
    """

    mechanical = True

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
        # beta only.  The wavenumbers are 0-d arrays: numpy multiplies a small
        # array by a 0-d array about twice as fast as by a Python float, which
        # the simulator's per-step force feels
        self._terms = tuple(
            (i, j, np.array(params.lam[i]), np.array(params.lam[j]),
             np.array(2.0 * params.lam[i]), params.beta[i][j])
            for i in range(self.n) for j in range(self.n)
            if not params.beta[i][j].is_zero())
        self.tilted = params.tilted
        self._alpha = params.alpha if self.tilted else None

    def x_periodic(self, tol: float = 1e-12) -> bool:
        """Check 2*pi periodicity structurally from the coupling wavenumbers.

        The (i, j) term needs lam_i and lam_j integral when i != j; a diagonal
        term only needs 2*lam_i integral (half-integers allowed).  Terms with
        identically zero beta are ignored.  A tilted model is never periodic.
        """
        if self.tilted:
            return False
        for i, j, lam_i, lam_j, lam_ii, _ in self._terms:
            lams = [float(lam_ii)] if i == j else [float(lam_i), float(lam_j)]
            if any(abs(lam - round(lam)) > tol for lam in lams):
                return False
        return True

    def drive(self, phi) -> tuple:
        """beta_ij(phi) of the active terms; a constant beta stays a float."""
        return tuple(b(phi) if b.modes else b.const for *_, b in self._terms)

    def _coupling_args(self, x: np.ndarray) -> list:
        # lam x + lam x == (2 lam) x exactly: one product on the diagonal
        return [lam_ii * x[i] if i == j else lam_i * x[i] + lam_j * x[j]
                for i, j, lam_i, lam_j, lam_ii, _ in self._terms]

    def coupling_sines(self, x: np.ndarray) -> list:
        """sin(lam_i x_i + lam_j x_j) of the active terms: the part of the
        force that depends on the position only (see ``coupling_force``)."""
        return [np.sin(arg) for arg in self._coupling_args(x)]

    def coupling_force(self, sines: list, beta: tuple, shape: tuple) -> np.ndarray:
        """D_x V of shape ``shape`` = x.shape from ``coupling_sines(x)`` and
        the coupling values ``beta = drive(phi)``; equal, bit for bit, to the
        force ``potential_force(x, beta)`` returns."""
        dx = np.zeros(shape)
        if self._alpha is not None:
            dx -= self._alpha.reshape((self.n,) + (1,) * (len(shape) - 1))
        # row views: an in-place add on a view is cheaper than dx[i] += ...
        rows = [dx[i] for i in range(self.n)]
        for (i, j, lam_i, lam_j, *_), bv, sn in zip(self._terms, beta, sines):
            s = bv * sn
            si = lam_i * s
            rows[i] += si
            rows[j] += si if i == j else lam_j * s
        return dx

    def _add_potential(self, h, x: np.ndarray, args: list, beta: tuple):
        """h + V(x) from the coupling arguments ``args = _coupling_args(x)``."""
        if self._alpha is not None:
            h = h - np.tensordot(self._alpha, x, axes=(0, 0))
        for bv, arg in zip(beta, args):
            h = h + bv * (1.0 - np.cos(arg))
        return h

    def potential_force(self, x: np.ndarray, beta: tuple, h=None):
        """(h + V(x), D_x V(x)) for the coupling values ``beta = drive(phi)``.

        The one place the swing potential and force are written (through
        ``_add_potential`` and ``coupling_force``); ``evaluate``,
        ``potential``, ``energy`` and the simulator call it or its parts.
        With ``h`` None only the force is computed.  ``x`` has shape (n, ...)
        and each beta value broadcasts against ``x[i]``.
        """
        args = self._coupling_args(x)
        if h is not None:
            h = self._add_potential(h, x, args, beta)
        return h, self.coupling_force([np.sin(arg) for arg in args], beta, x.shape)

    def energy(self, x: np.ndarray, y: np.ndarray, beta: tuple) -> np.ndarray:
        """|y|^2/2 + V(x) for ``beta = drive(phi)``, without the force; equal,
        bit for bit, to ``evaluate(x, y, phi).h``."""
        kinetic = 0.5 * np.einsum("i...,i...->...", y, y)
        return self._add_potential(kinetic, x, self._coupling_args(x), beta)

    def potential(self, x, phi) -> np.ndarray:
        """V(x, phi) = H(x, 0, phi), without the force or the kinetic term's
        arrays; equal, bit for bit, to ``evaluate(x, 0, phi).h``."""
        x = np.asarray(x, dtype=float)
        return self._add_potential(np.zeros(x.shape[1:]), x, self._coupling_args(x),
                                   self.drive(phi))

    def evaluate(self, x, y, phi) -> HamEval:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        kinetic = 0.5 * np.einsum("i...,i...->...", y, y)
        h, dx = self.potential_force(x, self.drive(phi), kinetic)
        return HamEval(h, dx, y.copy(), _identity_dyy(self.n, x.shape[1:]))


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


def lagrangian(model: HamiltonianModel, x, vel, phi=None, method: str = "auto") -> float:
    """Legendre transform L(x, vel, phi) = sup_y (vel . y - H(x, y, phi)).

    Mechanical models admit the closed form |vel|^2/2 - H(x, 0, phi); otherwise
    a damped Newton ascent on the strictly concave inner problem is used
    (method="newton" forces that path).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(model.n, -1)
    vel = np.atleast_1d(np.asarray(vel, dtype=float)).reshape(model.n, -1)
    if model.m == 0:
        phi = np.zeros((0, x.shape[1]))
    else:
        if phi is None:
            raise ValueError("phi required when the model has fiber angles")
        phi = np.atleast_1d(np.asarray(phi, dtype=float)).reshape(model.m, -1)

    if method == "auto" and model.mechanical:
        v0 = model.evaluate(x, np.zeros_like(vel), phi).h
        out = 0.5 * np.einsum("i...,i...->...", vel, vel) - v0
        return float(out[0]) if out.size == 1 else out
    if method not in ("auto", "newton"):
        raise ValueError(f"unknown method {method!r}")

    if x.shape[1] != 1:
        raise ValueError("Newton path evaluates one point at a time")
    y = vel.copy()
    target = lambda yy: float(np.dot(vel[:, 0], yy[:, 0]) - model.evaluate(x, yy, phi).h[0])
    val = target(y)
    for _ in range(100):
        ev = model.evaluate(x, y, phi)
        g = vel[:, 0] - ev.dy[:, 0]
        if np.linalg.norm(g) <= 1e-12 * (1.0 + np.linalg.norm(vel)):
            return val
        step = np.linalg.solve(ev.dyy[..., 0], g)
        t = 1.0
        while t > 1e-14:
            y_new = y + t * step[:, None]
            v_new = target(y_new)
            if v_new >= val + 0.25 * t * float(np.dot(g, step)):
                y, val = y_new, v_new
                break
            t *= 0.5
        else:
            raise RuntimeError("Legendre transform: line search stalled")
    raise RuntimeError("Legendre transform: Newton did not converge in 100 iterations")
