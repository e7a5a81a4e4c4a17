import numpy as np
import pytest

from weakkam import fields, verify
from weakkam.fields import (
    ScalarField,
    TorusGrid,
    div_values,
    grad_values,
    grid_mean,
    log_mean_exp_values,
)

# (1/64) log((1/256) sum exp(64 cos x_j)) on the 256-point grid, computed with
# 40-digit arithmetic; equals log(I0(64))/64 to ~1e-41
LOG_MEAN_EXP_COS_K64 = 0.9531810713049096


@pytest.fixture(params=["spectral", "fd2"])
def mode(request):
    return request.param


def grid1(mode="spectral", N=32):
    return TorusGrid(n=1, m=0, N_x=N, diff_mode=mode)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(n=1, N_x=6, diff_mode="weird")
    with pytest.raises(ValueError):
        TorusGrid(n=1, N_x=7)      # odd
    with pytest.raises(ValueError):
        TorusGrid(n=1, N_x=2)      # too small
    with pytest.raises(ValueError):
        TorusGrid(n=0)
    g = TorusGrid(n=2, m=1, N_x=8, N_phi=4)
    assert g.shape == (8, 8, 4)


def test_nonfinite_rejected():
    g = grid1()
    bad = np.zeros(g.shape)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        ScalarField(g, bad)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_gradient_of_constant_is_zero(mode):
    g = TorusGrid(n=2, m=1, N_x=16, N_phi=4, diff_mode=mode)
    assert verify.constant_gradient(g, 3.7) <= verify.CONSTANT_GRADIENT_TOL


def test_gradient_sin_exact():
    g = grid1()
    f = ScalarField.from_function(g, lambda x, p: np.sin(x[0]))
    x, _ = g.meshes()
    assert np.max(np.abs(grad_values(f.values, g)[0] - np.cos(x[0]))) < 1e-13


def test_gradient_leaves_fiber_axes_alone():
    g = TorusGrid(n=1, m=1, N_x=32, N_phi=8)
    f = ScalarField.from_function(g, lambda x, p: np.sin(3 * x[0]) * np.cos(2 * p[0]))
    x, phi = g.meshes()
    expected = 3 * np.cos(3 * x[0]) * np.cos(2 * phi[0])
    assert np.max(np.abs(grad_values(f.values, g)[0] - expected)) < 1e-12


@pytest.mark.parametrize("shape, axis", [((256,), 0), ((128, 16), 0), ((32, 32), 0),
                                         ((32, 32), 1), ((24, 24, 6), 0), ((24, 24, 6), 1)])
def test_cached_spectral_symbol_matches_uncached_formula(shape, axis):
    # the derivative symbol is built once per (N, axis, ndim); the result keeps
    # the bits of the symbol built on every call
    from weakkam.fields import _spectral_diff
    values = np.random.default_rng(len(shape) + axis).normal(size=shape)
    N = shape[axis]
    hat = np.fft.rfft(values, axis=axis)
    q = np.arange(hat.shape[axis])
    q[-1] = 0 if N % 2 == 0 else q[-1]
    mult = 1j * q.reshape([-1 if a == axis else 1 for a in range(values.ndim)])
    expected = np.fft.irfft(hat * mult, n=N, axis=axis)
    assert np.array_equal(_spectral_diff(values, axis, N), expected)


def test_cached_spectral_symbol_is_read_only():
    from weakkam.fields import _spectral_symbol
    symbol = _spectral_symbol(32, 1, 2)
    assert _spectral_symbol(32, 1, 2) is symbol
    with pytest.raises(ValueError):
        symbol[0, 1] = 5.0


@pytest.mark.parametrize("shape", [(256,), (128, 16), (32, 32), (24, 24, 6)])
def test_grid_mean_has_the_bits_of_np_mean(shape):
    values = np.random.default_rng(len(shape)).normal(size=shape)
    for a in (values, values[::-1], np.exp(values)):
        assert fields.grid_mean(a) == np.mean(a)


def test_divergence_simple(mode):
    g = grid1(mode, N=64)
    x, _ = g.meshes()
    div = div_values(np.sin(x), g)
    tol = 1e-12 if mode == "spectral" else 2e-3   # centered FD: h^2/6 term
    assert np.max(np.abs(div - np.cos(x[0]))) < tol
    zero = div_values(np.full((1,) + g.shape, 2.5), g)
    assert np.max(np.abs(zero)) <= 1e-13


def test_adjointness(mode):
    rng = np.random.default_rng(11)
    for dims in ((1, 0), (2, 0), (1, 2)):
        g = TorusGrid(n=dims[0], m=dims[1], N_x=32, N_phi=4, diff_mode=mode)
        assert verify.adjointness_defect(g, rng) <= verify.ADJOINT_RTOL


def test_gradient_components_integrate_to_zero(mode):
    g = TorusGrid(n=2, m=0, N_x=32, diff_mode=mode)
    mean = verify.gradient_mean(g, np.random.default_rng(5), samples=1)
    assert mean <= verify.GRADIENT_MEAN_TOL


def test_integrate_examples():
    g = grid1(N=64)
    assert grid_mean(ScalarField.constant(g, 1.0).values) == 1.0
    cos = ScalarField.from_function(g, lambda x, p: np.cos(x[0]))
    assert abs(grid_mean(cos.values)) < 1e-14
    cos2 = ScalarField.from_function(g, lambda x, p: np.cos(x[0]) ** 2)
    assert grid_mean(cos2.values) == pytest.approx(0.5, abs=1e-14)


def test_log_mean_exp_constant_exact():
    g = grid1()
    assert log_mean_exp_values(np.full(g.shape, 2.5), 7.0) == 2.5
    assert log_mean_exp_values(np.full(g.shape, -3.25), 640.0) == -3.25


def test_log_mean_exp_requires_positive_k():
    g = grid1()
    with pytest.raises(ValueError):
        log_mean_exp_values(np.ones(g.shape), 0.0)


def test_log_mean_exp_laplace_limit():
    g = grid1(N=64)
    f = ScalarField.from_function(g, lambda x, p: np.cos(x[0]))
    vals = [log_mean_exp_values(f.values, k) for k in (10.0, 100.0, 1000.0)]
    assert all(v < 1.0 for v in vals)              # approaches max from below
    assert vals[0] < vals[1] < vals[2]
    assert 1.0 - vals[2] < 5e-3


def test_log_mean_exp_high_precision_reference():
    g = TorusGrid(n=1, m=0, N_x=256)
    f = ScalarField.from_function(g, lambda x, p: np.cos(x[0]))
    assert log_mean_exp_values(f.values, 64.0) == pytest.approx(LOG_MEAN_EXP_COS_K64, abs=1e-12)


def test_log_mean_exp_no_overflow_at_huge_k():
    g = grid1()
    vals = np.zeros(g.shape)
    vals[3] = 1.0
    out = log_mean_exp_values(vals, 1e6)
    assert np.isfinite(out)
    assert out == pytest.approx(1.0, abs=1e-4)     # Laplace: -> unique max


def test_log_mean_exp_monotone_in_k_and_jensen():
    g = TorusGrid(n=1, m=1, N_x=32, N_phi=4)
    defects = verify.log_mean_exp_defects(g, np.random.default_rng(3),
                                          [0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0], samples=10)
    assert max(defects) <= verify.LOG_MEAN_EXP_TOL


def test_fields_are_immutable():
    g = grid1()
    f = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_every_exported_name_resolves():
    # a name left in some module's __all__ after its definition is deleted
    # breaks ``from weakkam.<module> import *`` only when that runs
    import importlib
    import pkgutil

    import weakkam
    names = [m.name for m in pkgutil.iter_modules(weakkam.__path__) if m.name != "__main__"]
    assert "fields" in names
    for name in names:
        module = importlib.import_module(f"weakkam.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name
