"""Periodic grids on T^n x T^m and the discrete calculus used everywhere else.

The domain is a product of circles, each of circumference 2*pi.  The first
``n`` axes are "spatial" (differentiation acts on them), the last ``m`` axes
are fiber angles (no differentiation, quadrature only).  Fields are raw
arrays of grid samples here: ``grad_values`` and ``div_values`` differentiate
them, ``grid_mean`` integrates them against the normalized measure (the mean
of 1 is 1) and ``log_mean_exp_values`` takes (1/k) log of that mean of
exp(k f).  ``ScalarField`` is the validated, frozen field the solver takes
and returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

PERIOD = 2.0 * np.pi

__all__ = [
    "PERIOD",
    "TorusGrid",
    "ScalarField",
    "grad_values",
    "div_values",
    "grid_mean",
    "log_mean_exp_values",
    "random_band_limited",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform tensor grid on T^n x T^m with 2*pi period per axis.

    ``N_x`` points per spatial axis (must be >= 4 and even, so that spectral
    differentiation has a well-defined Nyquist treatment), ``N_phi`` points
    per angle axis.  ``diff_mode`` selects the spatial derivative scheme:
    ``"spectral"`` (trigonometric, default) or ``"fd2"`` (2nd-order centered
    differences, kept as a robustness fallback).
    """

    n: int
    m: int = 0
    N_x: int = 64
    N_phi: int = 1
    diff_mode: str = "spectral"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one spatial dimension")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.N_x < 4 or self.N_x % 2 != 0:
            raise ValueError("N_x must be even and >= 4")
        if self.m >= 1 and self.N_phi < 1:
            raise ValueError("N_phi must be >= 1")
        if self.diff_mode not in ("spectral", "fd2"):
            raise ValueError(f"unknown diff_mode {self.diff_mode!r}")

    @property
    def shape(self) -> tuple:
        return (self.N_x,) * self.n + (self.N_phi,) * self.m

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def dx(self) -> float:
        return PERIOD / self.N_x

    def x_axis(self) -> np.ndarray:
        return np.arange(self.N_x) * self.dx

    def phi_axis(self) -> np.ndarray:
        return np.arange(self.N_phi) * (PERIOD / self.N_phi)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (x, phi) coordinate arrays of shape (n, *shape), (m, *shape)."""
        axes = [self.x_axis()] * self.n + [self.phi_axis()] * self.m
        grids = np.meshgrid(*axes, indexing="ij") if axes else []
        x = np.stack(grids[: self.n]) if self.n else np.zeros((0,) + self.shape)
        phi = np.stack(grids[self.n:]) if self.m else np.zeros((0,) + self.shape)
        return x, phi


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class ScalarField:
    """Samples of a periodic scalar on a TorusGrid.  Immutable."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {self.grid.shape}")
        _check_finite(values, "scalar field")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "ScalarField":
        """Sample ``fn(x, phi)`` with x of shape (n, *shape), phi (m, *shape)."""
        x, phi = grid.meshes()
        return cls(grid, np.broadcast_to(np.asarray(fn(x, phi), dtype=float), grid.shape))

    @classmethod
    def constant(cls, grid: TorusGrid, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(c)))


@lru_cache(maxsize=32)
def _spectral_symbol(N: int, axis: int, ndim: int) -> np.ndarray:
    """The multiplier i q of the derivative along ``axis`` on the rFFT of an
    ``ndim``-dimensional field with N points there, shaped to broadcast.
    Integer wavenumbers for period 2*pi; the Nyquist mode is zeroed so the
    derivative of a real field is real and the operator is exactly skew.
    Built once per (N, axis, ndim) and read-only, since every caller shares
    it."""
    q = np.arange(N // 2 + 1)
    q[-1] = 0 if N % 2 == 0 else q[-1]
    mult = 1j * q.reshape([-1 if a == axis else 1 for a in range(ndim)])
    mult.setflags(write=False)
    return mult


def _spectral_diff(values: np.ndarray, axis: int, N: int) -> np.ndarray:
    hat = np.fft.rfft(values, axis=axis)
    return np.fft.irfft(hat * _spectral_symbol(N, axis, values.ndim), n=N, axis=axis)


def _fd2_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def _diff_x(values: np.ndarray, grid: TorusGrid, axis: int) -> np.ndarray:
    if axis >= grid.n:
        raise ValueError("differentiation only acts along spatial axes")
    if grid.diff_mode == "spectral":
        return _spectral_diff(values, axis, grid.N_x)
    return _fd2_diff(values, axis, grid.dx)


def grad_values(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Discrete spatial gradient, shape (n, *shape); fiber (phi) axes are
    never differentiated.  Unchecked: the solver calls it inside every
    Newton-operator apply and checks finiteness once per objective
    evaluation instead (``weakkam.cell._evaluate``)."""
    out = np.empty((grid.n,) + values.shape)
    for a in range(grid.n):
        out[a] = _diff_x(values, grid, a)
    return out


def div_values(components: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Discrete spatial divergence of an (n, *shape) array, the exact negative
    adjoint of ``grad_values``; unchecked like it."""
    out = np.zeros(grid.shape)
    for a in range(grid.n):
        out += _diff_x(components[a], grid, a)
    return out


def grid_mean(values: np.ndarray) -> float:
    """The normalized-measure integral: the mean over every node, with the
    bits of ``np.mean`` (one ``add.reduce`` and one division) but without
    its wrapper, which costs more than the sum itself on the solver's grids."""
    return values.sum() / values.size


def log_mean_exp_values(values: np.ndarray, k: float) -> float:
    """(1/k) * log(grid_mean(exp(k * values))), overflow-free by max subtraction."""
    if k <= 0:
        raise ValueError("k must be positive")
    M = float(np.max(values))
    with np.errstate(under="ignore"):
        return M + float(np.log(grid_mean(np.exp(k * (values - M))))) / k


def random_band_limited(grid: TorusGrid, rng: np.random.Generator,
                        max_mode: int = 3, amplitude: float = 1.0) -> ScalarField:
    """Random trigonometric polynomial, mean zero, modes <= max_mode per axis.

    Used by the invariant checks; band limiting keeps spectral derivatives
    exact so operator identities can be asserted at round-off level.
    """
    x, phi = grid.meshes()
    coords = list(x) + list(phi)
    values = np.zeros(grid.shape)
    for c in coords:
        for q in range(1, max_mode + 1):
            a, b = rng.normal(size=2) * amplitude / q
            values = values + a * np.cos(q * c) + b * np.sin(q * c)
    # a few mixed modes so multi-axis coupling is exercised
    if len(coords) >= 2:
        for _ in range(3):
            qs = rng.integers(1, max_mode + 1, size=len(coords))
            phase = rng.uniform(0, PERIOD)
            arg = sum(q * c for q, c in zip(qs, coords))
            values = values + rng.normal() * amplitude * np.cos(arg + phase)
    values -= values.mean()
    return ScalarField(grid, values)
