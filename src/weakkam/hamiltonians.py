"""Hamiltonian evaluators: the coupled-swing model and its special cases.

``SwingModel`` is the one model type: it holds the swing parameters and
evaluates them.  ``make_pendulum`` and ``make_integrable`` build the
pendulum and the free rotor as swing models,
``SwingModel.scaled`` the tau-deformation toward the free rotor and
``SwingModel.at_phase`` the autonomous model of one frozen-drive fiber.
``SwingModel.evaluate`` is the one hand-written evaluation of the formula: it
returns ``H(x, y, phi)`` with its first derivatives in ``x`` and ``y`` on
arrays.  The kinetic term is ``|y|^2 / 2``, so ``D_yH = y``, the y-Hessian is
the identity, the uniform-convexity constant is 1 and the Legendre transform
(``lagrangian``) is closed-form.  One orbit or one point is evaluated on
Python floats by kernels generated from the same formula, one per term
pattern (``SwingModel.kick_drift_kick`` and ``SwingModel.float_potential``);
they repeat ``evaluate``'s operations in its order, so they give its bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
    A kvec component must hold an integer value (2 or 2.0; 2.5 is refused).
    """

    const: float = 0.0
    modes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "const", float(self.const))
        norm = tuple((tuple(map(_wave_number, kvec)), float(a), float(b))
                     for kvec, a, b in self.modes)
        object.__setattr__(self, "modes", norm)
        if not np.all(np.isfinite([self.const, *(c for _, a, b in norm for c in (a, b))])):
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

    def is_zero(self) -> bool:
        return self.const == 0.0 and all(a == 0.0 and b == 0.0 for _, a, b in self.modes)

    @classmethod
    def from_dict(cls, d: dict) -> "TrigPoly":
        """The polynomial of an object with the keys ``const`` and ``modes``
        (each optional), the spelling of ``model.beta``'s entries."""
        if not isinstance(d, dict) or set(d) - {"const", "modes"}:
            raise ValueError(f"a trig polynomial is an object with the keys 'const' and "
                             f"'modes', not {d!r}")
        modes = tuple((tuple(k), _coefficient(a), _coefficient(b))
                      for k, a, b in d.get("modes", []))
        return cls(_coefficient(d.get("const", 0.0)), modes)


def _coefficient(c):
    """``c`` if it is a number: ``float`` alone would take the string "1.5"
    and the boolean true."""
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise ValueError(f"trig polynomial coefficients must be numbers, not {c!r}")
    return c


def _wave_number(k) -> int:
    """``k`` as an int: an integer, or a float of integer value; ``int`` alone
    would truncate 1.5 to 1."""
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer))
                                   or isinstance(k, float) and k.is_integer()):
        raise ValueError(f"wave-vector components must be integers, not {k!r}")
    return int(k)


class HamEval(NamedTuple):
    h: np.ndarray      # (...,)
    dx: np.ndarray     # (n, ...)
    dy: np.ndarray     # (n, ...): the velocity D_yH = y


@dataclass(frozen=True, eq=False)
class SwingModel:
    """H = |y|^2/2 - <alpha, x> + sum_ij beta_ij(phi) (1 - cos(lam_i x_i + lam_j x_j)).

    alpha: power input per rotor (nonnegative); lam: coupling wavenumbers;
    beta: n x n table of TrigPoly coefficient functions of the fiber angle;
    omega: rationally independent drive frequencies (length m).  The double
    sum runs over both (i, j) and (j, i); the spatial force picks up both
    occurrences of x_i, giving
    dH/dx_i = -alpha_i + lam_i * sum_j (beta_ij + beta_ji)(phi) sin(lam_i x_i + lam_j x_j).
    This is the only model type: the pendulum and the free rotor are its
    special cases (``make_pendulum``, ``make_integrable``).

    Models are immutable and pure: concurrent use is safe.  Construction
    normalizes and validates the parameters once; equality and hashing are
    by identity.  ``x`` and ``y`` must have shape (n, ...) and ``phi`` shape
    (m, ...); all batch shapes must agree.
    """

    alpha: np.ndarray
    beta: tuple            # n x n nested tuple of TrigPoly
    lam: np.ndarray
    omega: np.ndarray = ()

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
        # tilted: alpha != 0, the torus Hamiltonian is then multivalued
        tilted = bool(np.any(alpha != 0.0))
        # the active terms (i, j, lam_i, lam_j, 2 lam_i, beta_ij): nonzero
        # beta only
        terms = tuple((i, j, float(lam[i]), float(lam[j]), 2.0 * float(lam[i]), beta[i][j])
                      for i in range(n) for j in range(n) if not beta[i][j].is_zero())
        # the force rows before the coupling terms: -alpha, or 0
        start = tuple(float(a) for a in (-alpha if tilted else np.zeros(n)))
        for name, value in {
            "alpha": alpha, "beta": beta, "lam": lam, "omega": omega,
            "n": n, "m": omega.size, "tilted": tilted,
            "_terms": terms, "_start": start,
            # the term pattern: the (i, j) of the active terms, which with n
            # (and whether the model is driven, or tilted) selects a
            # generated kernel
            "_pairs": tuple((i, j) for i, j, *_ in terms),
        }.items():
            object.__setattr__(self, name, value)

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

        That is tau H + (1 - tau) |y|^2/2, which ``CellProblem`` builds at
        tau < 1 (no continuation does); ``scaled(1.0)`` evaluates
        bit for bit like this model."""
        beta = tuple(tuple(TrigPoly(tau * b.const,
                                    tuple((kvec, tau * a, tau * s) for kvec, a, s in b.modes))
                           for b in row) for row in self.beta)
        return SwingModel(alpha=tau * self.alpha, beta=beta, lam=self.lam, omega=self.omega)

    def at_phase(self, phi) -> "SwingModel":
        """The autonomous model (m = 0) of one fiber: the drive frozen at the
        angle ``phi`` of shape (m,), each beta_ij the constant beta_ij(phi)."""
        phi = np.asarray(phi, dtype=float).reshape(self.m)
        beta = tuple(tuple(TrigPoly(b(phi)) for b in row) for row in self.beta)
        return SwingModel(alpha=self.alpha, beta=beta, lam=self.lam)

    def drive(self, phi) -> tuple:
        """beta_ij(phi) of the active terms; a constant beta stays a float."""
        return tuple(b(phi) if b.modes else b.const for *_, b in self._terms)

    def evaluate(self, x, y, phi) -> HamEval:
        """H(x, y, phi), D_xH and D_yH: the one hand-written evaluation of the
        swing formula.

        The kinetic term is summed row by row, then the tilt and, for each
        active term, ``beta (1 - cos arg)`` are added to ``h`` and the
        term's force to its rows ``dx[i]`` and ``dx[j]``, each starting at
        -alpha_i.  The generated kernels (``kick_drift_kick``,
        ``float_potential``) write these operations out in the same order.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = y[0] * y[0]
        for yi in y[1:]:
            h = h + yi * yi
        h = 0.5 * h
        if self.tilted:
            for minus_alpha, xi in zip(self._start, x):
                h = h + minus_alpha * xi
        dx = np.empty(x.shape)
        for i, minus_alpha in enumerate(self._start):
            dx[i] = minus_alpha
        for (i, j, lam_i, lam_j, lam_ii, _), bv in zip(self._terms, self.drive(phi)):
            # lam x + lam x == (2 lam) x exactly: one product on the diagonal
            arg = lam_ii * x[i] if i == j else lam_i * x[i] + lam_j * x[j]
            h = h + bv * (1.0 - np.cos(arg))
            s = bv * np.sin(arg)
            si = lam_i * s
            dx[i] += si
            dx[j] += si if i == j else lam_j * s
        return HamEval(h, dx, y.copy())

    def kick_drift_kick(self, x, y, betas, steps, half, dt, every, left,
                        samples: list) -> tuple[list, list]:
        """``steps`` kick-drift-kick steps of one orbit's n float rows
        ``x`` and ``y``: ``y -= half D_x V(x)``, ``x += dt y``,
        ``y -= half D_x V(x)``.  ``betas`` holds one list of floats per
        active term, its drive values at each step (``drive(phi)`` tabulated
        per term); an autonomous model reads only each list's first entry.
        The step count is ``steps``, never taken from ``betas``: a model
        with no active term has ``betas == []``.  After ``left`` steps, and
        then after every ``every`` steps, the tuple ``(x..., y...)`` is
        appended to ``samples``, followed, when autonomous, by the energy.
        Returns the new rows ``(x, y)``; each force equals ``evaluate``'s
        ``dx`` and each energy its ``h`` bit for bit.  Raises ValueError
        where ``math.sin`` or ``math.cos`` meets an infinite coupling
        argument, with the samples before it appended."""
        kernel = _kick_drift_kick_kernel(self.n, self._pairs, self.m == 0)
        return kernel(x, y, betas, steps, half, dt, every, left, self, samples)

    def float_potential(self, beta):
        """V as a function of the n coordinates of one point, given as Python
        floats, for the coupling values ``beta = drive(phi)`` (floats); equal,
        bit for bit, to ``evaluate(x, 0, phi).h``."""
        return _potential_binder(self.n, self._pairs, self.tilted)(self, beta)


def _coupling_arg(t: int, i: int, j: int) -> str:
    # lam x + lam x == (2 lam) x exactly: one product on the diagonal
    return f"lam{t}_ii * x{i}" if i == j else f"lam{t}_i * x{i} + lam{t}_j * x{j}"


def _targets(prefix: str, count: int) -> str:
    """An unpacking target such as ``x0, x1,``; ``_`` when ``count`` is 0."""
    return "".join(f"{prefix}{k}, " for k in range(count)).rstrip() or "_"


def _constant_lines(functions: str, n: int, pairs: tuple, starts: bool) -> list:
    """Import the ``math`` functions ``functions`` and bind the term constants
    (and force row starts) of the argument ``model`` to local names: every
    parameter value is read from the model, so one kernel serves every model
    of its term pattern."""
    lines = [f"from math import {functions}"]
    lines += [f"_, _, lam{t}_i, lam{t}_j, lam{t}_ii, _ = model._terms[{t}]"
              for t in range(len(pairs))]
    if starts:
        lines.append(f"{_targets('start', n)} = model._start")
    return lines


def _kick_drift_kick_source(n: int, pairs: tuple, autonomous: bool) -> str:
    """Source of ``kick_drift_kick(x, y, betas, steps, half, dt, every,
    left, model, samples)`` for the n rows and the active terms ``pairs``:
    ``SwingModel.kick_drift_kick``, unrolled over rows and terms.  ``betas``
    is one list of drive values per term; the loop runs ``steps`` times,
    walking the term lists in step (``zip`` behind a ``range(steps)``) when
    driven, so a pattern with no terms still takes every step.  The
    coupling sines are taken at the entry position and after each drift; the
    force is ``SwingModel.evaluate``'s ``dx`` operations in its order,
    rebuilt at each half-kick from the step's drive values, or, when
    autonomous, from each list's first entry and carried from the second
    half-kick of a step to the first of the next.  A sample is appended
    after ``left`` steps and then every ``every`` steps; when autonomous it
    ends with the energy, written as ``evaluate``'s ``h`` operations in
    their order.  The tilt lines run for every model: an untilted model's
    starts are 0.0, and ``h + 0.0 * x`` is ``h`` at any finite x.  Parameter
    values come from ``model`` and ``betas``, never from the text."""
    betas = _targets("beta", len(pairs))
    sines = [f"sin{t} = sin({_coupling_arg(t, i, j)})" for t, (i, j) in enumerate(pairs)]
    force = [f"f{i} = start{i}" for i in range(n)]
    for t, (i, j) in enumerate(pairs):
        force += [f"s = beta{t} * sin{t}", f"si = lam{t}_i * s", f"f{i} = f{i} + si",
                  f"f{j} = f{j} + " + ("si" if i == j else f"lam{t}_j * s")]
    kick = [f"y{i} = y{i} - half * f{i}" for i in range(n)]
    drift = [f"x{i} = x{i} + dt * y{i}" for i in range(n)]
    row = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    record = ["left = every"]
    if autonomous:
        record += ["h = y0 * y0", *(f"h = h + y{i} * y{i}" for i in range(1, n)),
                   "h = 0.5 * h", *(f"h = h + start{i} * x{i}" for i in range(n)),
                   *(f"h = h + beta{t} * (1.0 - cos({_coupling_arg(t, i, j)}))"
                     for t, (i, j) in enumerate(pairs))]
        row.append("h")
    record.append(f"append(({', '.join(row)}))")
    head = _constant_lines("cos, sin" if autonomous else "sin", n, pairs, starts=True)
    head += ["append = samples.append", f"{_targets('x', n)} = x", f"{_targets('y', n)} = y",
             *sines]
    if autonomous:
        head += [*(f"beta{t} = betas[{t}][0]" for t in range(len(pairs))), *force,
                 "for _ in range(steps):"]
        body = kick + drift + sines + force + kick
    else:
        head.append(f"for _, {betas} in zip(range(steps), *betas):" if pairs
                    else "for _ in range(steps):")
        body = force + kick + drift + sines + force + kick
    body += ["left -= 1", "if not left:"]
    rows = lambda prefix: "[" + ", ".join(f"{prefix}{i}" for i in range(n)) + "]"
    return "\n".join(["def kick_drift_kick(x, y, betas, steps, half, dt, every, left, model, samples):",
                      *("    " + line for line in head),
                      *("        " + line for line in body),
                      *("            " + line for line in record),
                      f"    return {rows('x')}, {rows('y')}", ""])


def _potential_source(n: int, pairs: tuple, tilted: bool) -> str:
    """Source of ``bind(model, beta)``, which returns ``potential(x0, ...)``:
    the potential part of ``SwingModel.evaluate``'s ``h`` from ``h = 0.0``,
    unrolled over rows and terms, for the coupling values ``beta``."""
    head = _constant_lines("cos", n, pairs, starts=tilted) + [f"{_targets('beta', len(pairs))} = beta"]
    body = ["h = 0.0"]
    if tilted:
        body += [f"h = h + start{i} * x{i}" for i in range(n)]
    body += [f"h = h + beta{t} * (1.0 - cos({_coupling_arg(t, i, j)}))"
             for t, (i, j) in enumerate(pairs)]
    return "\n".join(["def bind(model, beta):",
                      *("    " + line for line in head),
                      f"    def potential({', '.join(f'x{i}' for i in range(n))}):",
                      *("        " + line for line in body),
                      "        return h",
                      "    return potential", ""])


def _compiled(source: str, name: str, pattern: tuple):
    namespace = {}
    exec(compile(source, f"<weakkam {name} {pattern}>", "exec"), namespace)
    return namespace[name]


@functools.lru_cache(maxsize=64)
def _kick_drift_kick_kernel(n: int, pairs: tuple, autonomous: bool):
    """The compiled ``_kick_drift_kick_source``, one per term pattern."""
    return _compiled(_kick_drift_kick_source(n, pairs, autonomous), "kick_drift_kick",
                     (n, pairs, autonomous))


@functools.lru_cache(maxsize=64)
def _potential_binder(n: int, pairs: tuple, tilted: bool):
    """The compiled ``_potential_source``, one per term pattern."""
    return _compiled(_potential_source(n, pairs, tilted), "bind", (n, pairs, tilted))


def make_integrable(n: int, m: int = 0) -> SwingModel:
    """H = |y|^2 / 2: the swing model with zero coupling."""
    if n < 1:
        raise ValueError("n must be >= 1")
    zero = TrigPoly(0.0)
    return SwingModel(alpha=[0.0] * n, beta=tuple((zero,) * n for _ in range(n)),
                      lam=[1.0] * n, omega=[0.0] * m)


def make_pendulum(a: float) -> SwingModel:
    """H = y^2/2 + a (1 - cos x): the swing model with beta11 = a, lam = 1/2."""
    if a <= 0:
        raise ValueError("pendulum amplitude must be positive")
    return SwingModel(alpha=[0.0], beta=((TrigPoly(a),),), lam=[0.5])


# kept for bench/workloads.py, which runs unchanged on every revision it compares
SwingParams = SwingModel


def make_swing(model: SwingModel) -> SwingModel:
    # kept for bench/workloads.py, which passes a SwingParams(...) here
    return model


def lagrangian(model: SwingModel, x, vel, phi=None) -> float:
    """Legendre transform L(x, vel, phi) = sup_y (vel . y - H(x, y, phi)),
    in closed form |vel|^2/2 - V(x, phi)."""
    x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(model.n, -1)
    vel = np.atleast_1d(np.asarray(vel, dtype=float)).reshape(model.n, -1)
    if model.m and phi is None:
        raise ValueError("phi required when the model has fiber angles")
    phi = np.zeros((0, x.shape[1])) if model.m == 0 else np.reshape(phi, (model.m, -1))
    potential = model.evaluate(x, np.zeros_like(x), phi).h
    out = 0.5 * np.einsum("i...,i...->...", vel, vel) - potential
    return float(out[0]) if out.size == 1 else out
