from dataclasses import replace

import numpy as np
import pytest

from weakkam import verify
from weakkam.fields import PERIOD
from weakkam.hamiltonians import (
    SwingParams,
    TrigPoly,
    lagrangian,
    make_integrable,
    make_pendulum,
    make_swing,
)

RNG = np.random.default_rng(42)


def sample_points(model, count=100):
    x = RNG.uniform(0, PERIOD, (model.n, count))
    y = RNG.normal(0, 1.5, (model.n, count))
    phi = RNG.uniform(0, PERIOD, (model.m, count))
    return x, y, phi


def quasi_swing_params():
    return SwingParams(alpha=[0.0],
                       beta=((TrigPoly(0.8, (((1,), 0.3, 0.1),)),),),
                       lam=[0.5], omega=[np.sqrt(2.0)])


ALL_MODELS = [
    make_integrable(2),
    make_pendulum(1.0),
    make_swing(quasi_swing_params()),
]
# every model is a SwingModel, so the descriptor name no longer tells them apart
MODEL_IDS = ["integrable", "pendulum", "swing"]


def test_integrable_values():
    m = make_integrable(1)
    ev = m.evaluate(np.array([[0.3]]), np.array([[2.0]]), np.zeros((0, 1)))
    assert ev.h[0] == 2.0
    assert np.all(ev.dx == 0.0)
    assert np.all(ev.dyy[..., 0] == np.eye(1))
    x, y, phi = sample_points(m)
    assert np.all(m.evaluate(x, y, phi).dx == 0.0)

    m = make_integrable(2, 1)
    assert (m.n, m.m) == (2, 1)
    x, y, phi = sample_points(m)
    ev = m.evaluate(x, y, phi)
    assert np.max(np.abs(ev.h - 0.5 * (y[0] ** 2 + y[1] ** 2))) <= 1e-14
    assert np.all(ev.dx == 0.0)
    assert np.array_equal(ev.dy, y)
    assert np.all(ev.dyy == np.eye(2)[..., None])


def test_integrable_rejects_bad_n():
    with pytest.raises(ValueError):
        make_integrable(0)


def test_pendulum_values():
    m = make_pendulum(1.0)
    z = np.zeros((1, 1))
    phi = np.zeros((0, 1))
    assert m.evaluate(z, z, phi).h[0] == 0.0
    assert m.evaluate(np.array([[np.pi]]), z, phi).h[0] == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        make_pendulum(0.0)
    with pytest.raises(ValueError):
        make_pendulum(-1.0)


def test_pendulum_closed_form():
    a = 0.7
    m = make_pendulum(a)
    x, y, phi = sample_points(m, 200)
    ev = m.evaluate(x, y, phi)
    assert np.max(np.abs(ev.h - (0.5 * y[0] ** 2 + a * (1.0 - np.cos(x[0]))))) <= 1e-14
    assert np.max(np.abs(ev.dx - a * np.sin(x))) <= 1e-14
    assert np.array_equal(ev.dy, y)


def test_swing_formula_at_pi():
    # n=1, beta11 = a, lam = 1/2: the coupling argument is x itself, so
    # H(pi, 0, phi) = a (1 - cos(pi)) = 2a
    m = make_pendulum(0.7)
    ev = m.evaluate(np.array([[np.pi]]), np.zeros((1, 1)), np.zeros((0, 1)))
    assert ev.h[0] == pytest.approx(1.4, abs=1e-15)


def test_swing_zero_beta_is_integrable():
    n = 2
    zero = TrigPoly(0.0)
    sw = make_swing(SwingParams(alpha=[0.0, 0.0],
                                beta=((zero, zero), (zero, zero)), lam=[1.0, 1.0]))
    itg = make_integrable(2)
    x, y, phi = sample_points(sw, 50)
    a, b = sw.evaluate(x, y, phi), itg.evaluate(x, y, phi)
    assert np.max(np.abs(a.h - b.h)) == 0.0
    assert np.max(np.abs(a.dx - b.dx)) == 0.0


def test_swing_params_validation():
    with pytest.raises(ValueError):
        SwingParams(alpha=[-0.1], beta=((TrigPoly(1.0),),), lam=[0.5])
    with pytest.raises(ValueError):
        SwingParams(alpha=[0.0, 0.0], beta=((TrigPoly(1.0),),), lam=[0.5])
    with pytest.raises(ValueError):
        TrigPoly(np.inf)
    with pytest.raises(ValueError, match="wave-vectors"):
        SwingParams(alpha=[0.0], beta=((TrigPoly(1.0, (((1, 2), 0.5, 0.0),)),),),
                    lam=[0.5], omega=[1.0])
    p = SwingParams(alpha=[0.2], beta=((TrigPoly(1.0),),), lam=[0.5])
    assert p.tilted
    assert make_swing(p).tilted


def test_swing_periodicity_half_integer_diagonal():
    m = make_swing(quasi_swing_params())
    assert verify.periodicity_defect(m, RNG, points=60) <= verify.PERIODICITY_TOL


def test_swing_periodicity_structural_negative():
    # off-diagonal coupling with half-integer wavenumbers breaks periodicity
    p = SwingParams(alpha=[0.0, 0.0],
                    beta=((TrigPoly(0.0), TrigPoly(1.0)),
                          (TrigPoly(0.0), TrigPoly(0.0))),
                    lam=[0.5, 0.5])
    m = make_swing(p)
    assert not m.x_periodic()
    ok = SwingParams(alpha=[0.0, 0.0],
                     beta=((TrigPoly(0.0), TrigPoly(1.0)),
                           (TrigPoly(0.0), TrigPoly(0.0))),
                     lam=[1.0, 2.0])
    assert make_swing(ok).x_periodic()


def test_trigpoly_roundtrip_and_bound():
    tp = TrigPoly(1.5, (((1, 0), 0.5, 0.0), ((2, 1), 0.0, -0.25)))
    back = TrigPoly.from_dict(tp.to_dict())
    assert back == tp
    phi = RNG.uniform(0, PERIOD, (2, 100))
    assert np.max(np.abs(tp(phi))) <= tp.bound() + 1e-15


def test_trigpoly_columns_independent_of_batch_shape():
    # each column of an (m, S) evaluation equals the (m, 1) one bit for bit,
    # so the simulator may tabulate the drive for a block of steps
    tp = TrigPoly(0.7, (((1, 0), 0.5, 0.0), ((2, -3), 0.1, -0.25), ((1, 1), 0.0, 0.3)))
    omega = np.array([1.0, np.sqrt(2.0)])
    phi = omega[:, None] * ((np.arange(5000) + 0.5) * 1e-3)
    table = tp(phi)
    for s in range(phi.shape[1]):
        assert np.array_equal(table[s:s + 1], tp(phi[:, s:s + 1]))


def n2_swing_params():
    return SwingParams(alpha=[0.1, 0.0],
                       beta=((TrigPoly(1.0, (((1, 0), 0.3, 0.1),)), TrigPoly(0.4)),
                             (TrigPoly(0.0), TrigPoly(0.7, (((0, 1), 0.0, 0.25),)))),
                       lam=[1.0, 0.5], omega=[1.0, np.sqrt(2.0)])


@pytest.mark.parametrize("model", [
    make_pendulum(1.0),
    make_swing(SwingParams(alpha=[0.3], beta=((TrigPoly(1.0),),), lam=[0.5])),
    make_swing(quasi_swing_params()),
    make_swing(n2_swing_params()),
], ids=["pendulum", "tilted", "quasi_periodic", "n2"])
def test_potential_and_energy_match_evaluate(model):
    # the force-free shortcuts agree with evaluate bit for bit
    x, y, phi = sample_points(model)
    assert np.array_equal(model.potential(x, phi), model.evaluate(x, np.zeros_like(y), phi).h)
    assert np.array_equal(model.energy(x, y, model.drive(phi)), model.evaluate(x, y, phi).h)
    one = model.potential(x[:, :1], phi[:, :1])
    assert one.shape == (1,) and one[0] == model.evaluate(x[:, :1], 0 * y[:, :1], phi[:, :1]).h[0]
    # one point on float rows (math) gives the bits of the array rows (numpy)
    ev = model.evaluate(x, y, phi)
    beta = np.broadcast_arrays(*model.drive(phi), x[0])[:-1]
    for s in range(0, x.shape[1], 7):
        xs, ys, bs = x[:, s].tolist(), y[:, s].tolist(), [float(b[s]) for b in beta]
        h = model.energy(xs, ys, bs)
        force = model.coupling_force(model.coupling_sines(xs), bs, xs)
        assert type(h) is float and all(type(f) is float for f in force)
        assert np.array_equal(np.array([h, *force]).view(np.int64),
                              np.array([ev.h[s], *ev.dx[:, s]]).view(np.int64))


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_derivative_consistency(model):
    assert verify.derivative_defect(model, RNG) <= verify.DERIVATIVE_RTOL


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_uniform_convexity_midpoint(model):
    assert verify.convexity_violation(model, RNG, draws=100) <= verify.CONVEXITY_TOL


def test_lagrangian_closed_forms():
    assert lagrangian(make_integrable(1), [0.0], [1.0]) == pytest.approx(0.5, abs=1e-15)
    pend = make_pendulum(1.0)
    assert lagrangian(pend, [np.pi], [0.0]) == pytest.approx(-2.0, abs=1e-14)


TILTED = make_swing(replace(quasi_swing_params(), alpha=[0.3]))


@pytest.mark.parametrize("model", ALL_MODELS + [TILTED], ids=MODEL_IDS + ["tilted"])
def test_scaled_is_the_homotopy(model):
    x, y, phi = sample_points(model)
    ev = model.evaluate(x, y, phi)
    assert all(np.array_equal(a, b) for a, b in zip(model.scaled(1.0).evaluate(x, y, phi), ev))
    kin = 0.5 * np.sum(y * y, axis=0)
    eye = np.eye(model.n)[..., None]
    for tau in (0.25, 0.5, 0.75):
        # H_tau = tau H + (1 - tau) |y|^2/2, field by field
        want = (tau * ev.h + (1 - tau) * kin, tau * ev.dx, tau * ev.dy + (1 - tau) * y,
                tau * ev.dyy + (1 - tau) * eye)
        got = model.scaled(tau).evaluate(x, y, phi)
        assert all(np.max(np.abs(g - w)) <= 1e-14 for g, w in zip(got, want))


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_at_phase_freezes_the_drive(model):
    x, y, _ = sample_points(model)
    for phi in RNG.uniform(0, PERIOD, (5, model.m)):
        fiber = model.at_phase(phi)
        assert (fiber.n, fiber.m) == (model.n, 0)
        got = fiber.evaluate(x, y, np.zeros((0, x.shape[1])))
        want = model.evaluate(x, y, np.broadcast_to(phi[:, None], (model.m, x.shape[1])))
        assert all(np.max(np.abs(g - w)) <= 1e-14 for g, w in zip(got, want))


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_fenchel_young(model):
    ineq, eq = verify.fenchel_defects(model, RNG, draws=50)
    assert ineq <= verify.FENCHEL_TOL and eq <= verify.FENCHEL_EQUALITY_TOL
