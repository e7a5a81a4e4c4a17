import numpy as np
import pytest

from weakkam.fields import PERIOD
from weakkam.hamiltonians import (
    HamEval,
    HamiltonianModel,
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
    assert m.x_periodic()
    x, y, phi = sample_points(m, 60)
    h0 = m.evaluate(x, y, phi).h
    shift = np.full_like(x, PERIOD)
    assert np.max(np.abs(m.evaluate(x + shift, y, phi).h - h0)) <= 1e-13
    pshift = np.full_like(phi, PERIOD)
    assert np.max(np.abs(m.evaluate(x, y, phi + pshift).h - h0)) <= 1e-13


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


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_derivative_consistency(model):
    x, y, phi = sample_points(model)
    ev = model.evaluate(x, y, phi)
    step = 1e-5
    scale = max(1.0, float(np.max(np.abs(ev.h))))
    for i in range(model.n):
        dx = np.zeros_like(x)
        dx[i] = step
        fd = (model.evaluate(x + dx, y, phi).h
              - model.evaluate(x - dx, y, phi).h) / (2 * step)
        assert np.max(np.abs(fd - ev.dx[i])) <= 1e-6 * scale
        dy = np.zeros_like(y)
        dy[i] = step
        fd = (model.evaluate(x, y + dy, phi).h
              - model.evaluate(x, y - dy, phi).h) / (2 * step)
        assert np.max(np.abs(fd - ev.dy[i])) <= 1e-6 * scale
        fdyy = (model.evaluate(x, y + dy, phi).dy
                - model.evaluate(x, y - dy, phi).dy) / (2 * step)
        assert np.max(np.abs(fdyy - ev.dyy[:, i])) <= 1e-6 * scale


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_uniform_convexity_midpoint(model):
    for _ in range(100):
        x = RNG.uniform(0, PERIOD, (model.n, 1))
        phi = RNG.uniform(0, PERIOD, (model.m, 1))
        y1 = RNG.normal(0, 2, (model.n, 1))
        y2 = RNG.normal(0, 2, (model.n, 1))
        hmid = model.evaluate(x, (y1 + y2) / 2, phi).h[0]
        h1 = model.evaluate(x, y1, phi).h[0]
        h2 = model.evaluate(x, y2, phi).h[0]
        gap = model.gamma / 8.0 * float(np.sum((y1 - y2) ** 2))
        assert hmid <= 0.5 * h1 + 0.5 * h2 - gap + 1e-10


def test_lagrangian_closed_forms():
    assert lagrangian(make_integrable(1), [0.0], [1.0]) == pytest.approx(0.5, abs=1e-15)
    pend = make_pendulum(1.0)
    assert lagrangian(pend, [np.pi], [0.0]) == pytest.approx(-2.0, abs=1e-14)


def test_lagrangian_newton_matches_closed_form():
    pend = make_pendulum(1.0)
    for _ in range(20):
        x = RNG.uniform(0, PERIOD, 1)
        vel = RNG.normal(0, 2, 1)
        closed = lagrangian(pend, x, vel)
        newton = lagrangian(pend, x, vel, method="newton")
        assert newton == pytest.approx(closed, abs=1e-10)


class _ShearModel(HamiltonianModel):
    """H = y^2/2 + sin(x) y: convex in y but not kinetic-plus-potential, so
    the transform has no mechanical shortcut; L = (v - sin x)^2 / 2."""

    mechanical = False

    def __init__(self):
        self.n, self.m, self.gamma = 1, 0, 1.0
        self.descriptor = {"name": "shear"}

    def evaluate(self, x, y, phi):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = 0.5 * y[0] ** 2 + np.sin(x[0]) * y[0]
        dx = np.cos(x) * y
        eye = np.ones((1, 1) + y.shape[1:])
        return HamEval(h, dx, y + np.sin(x), eye)


def test_lagrangian_newton_on_nonmechanical_model():
    model = _ShearModel()
    for _ in range(20):
        x = RNG.uniform(0, PERIOD, 1)
        vel = RNG.normal(0, 2, 1)
        expected = 0.5 * (vel[0] - np.sin(x[0])) ** 2
        assert lagrangian(model, x, vel) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("model", ALL_MODELS, ids=MODEL_IDS)
def test_fenchel_young(model):
    for _ in range(50):
        x = RNG.uniform(0, PERIOD, model.n)
        phi = RNG.uniform(0, PERIOD, model.m)
        y = RNG.normal(0, 2, model.n)
        beta = RNG.normal(0, 2, model.n)
        ev = model.evaluate(x[:, None], y[:, None], phi[:, None])
        L = lagrangian(model, x, beta, phi)
        assert float(beta @ y) <= L + ev.h[0] + 1e-8
        # equality exactly at beta = D_y H(x, y, phi)
        beta_star = ev.dy[:, 0]
        L_star = lagrangian(model, x, beta_star, phi)
        assert abs(L_star + ev.h[0] - float(beta_star @ y)) <= 1e-10
