import numpy as np
import pytest

from weakkam import oracle1d, verify
from weakkam.hamiltonians import SwingModel, make_integrable, make_pendulum
from weakkam.oracle1d import (
    Potential1D,
    effective_hamiltonian_1d,
    momentum_of_energy,
    oracle_table,
    potential_from_model,
)

# frozen reference values for V = 1 - cos(x), recomputed by this module
HBAR_15 = 2.244637640628
HBAR_25 = 4.165327623284


@pytest.fixture(scope="module")
def pend_pot():
    return Potential1D.from_callable(lambda x: 1.0 - np.cos(x))


def test_extrema_located(pend_pot):
    assert pend_pot.v_max == pytest.approx(2.0, abs=1e-12)
    assert pend_pot.v_min == pytest.approx(0.0, abs=1e-12)
    assert pend_pot.x_max[0] == pytest.approx(np.pi, abs=1e-6)


def test_periodicity_enforced():
    with pytest.raises(ValueError):
        Potential1D.from_callable(lambda x: 0.1 * x)


def test_momentum_free_particle():
    pot = Potential1D.from_callable(lambda x: 0.0)
    assert momentum_of_energy(pot, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_flat_potential_refines_nothing(monkeypatch):
    # all 4096 samples tie on a constant potential: none is refined, and it
    # has no maximum locations to split the quadrature at.  Otherwise each
    # run of tied samples is refined once: the pendulum has one maximum and
    # one minimum, cos(2x) two of each
    from scipy import optimize
    calls = []
    minimize_scalar = optimize.minimize_scalar
    monkeypatch.setattr(optimize, "minimize_scalar",
                        lambda *a, **k: calls.append(a) or minimize_scalar(*a, **k))
    pot = Potential1D.from_callable(lambda x: 0.0)
    assert not calls
    assert (pot.v_max, pot.v_min, pot.x_max) == (0.0, 0.0, ())
    Potential1D.from_callable(lambda x: 1.0 - np.cos(x))
    assert len(calls) == 2
    pot = Potential1D.from_callable(lambda x: np.cos(2.0 * x))
    assert len(calls) == 6
    assert np.allclose(pot.x_max, [0.0, np.pi], atol=1e-6)


def test_momentum_separatrix_closed_form(pend_pot):
    # int sqrt(2(2 - V)) dx / 2pi = 4/pi
    assert momentum_of_energy(pend_pot, 2.0) == pytest.approx(4.0 / np.pi, abs=1e-10)


def test_momentum_monotone(pend_pot):
    assert verify.oracle_shape(pend_pot, energies=np.linspace(2.0, 8.0, 25))[4] > 0


def test_momentum_rejects_low_energy(pend_pot):
    with pytest.raises(ValueError):
        momentum_of_energy(pend_pot, 1.5)


def test_effective_hamiltonian_flat_piece(pend_pot):
    p_star = momentum_of_energy(pend_pot, pend_pot.v_max)
    assert p_star == pytest.approx(4.0 / np.pi, abs=1e-10)
    for P in (0.0, 0.5, 1.0, p_star - 1e-9):
        assert effective_hamiltonian_1d(pend_pot, P) == 2.0


def test_effective_hamiltonian_reference_values(pend_pot):
    val = effective_hamiltonian_1d(pend_pot, 1.5)
    assert val == pytest.approx(HBAR_15, abs=1e-9)
    assert val == pytest.approx(2.26, abs=0.05)
    assert effective_hamiltonian_1d(pend_pot, 2.5) == pytest.approx(HBAR_25, abs=1e-9)


def test_effective_hamiltonian_free_particle():
    pot = Potential1D.from_callable(lambda x: 0.0)
    for P in (0.5, 1.3, 2.0):
        assert effective_hamiltonian_1d(pot, P) == pytest.approx(0.5 * P * P, abs=1e-10)


def test_evenness(pend_pot):
    even = verify.oracle_shape(pend_pot, even_ps=(0.3, 1.1, 1.9, 2.7))[0]
    assert even <= verify.EVENNESS_TOL


def test_midpoint_convexity_61_points(pend_pot):
    assert verify.oracle_shape(pend_pot)[2] <= verify.ORACLE_CONVEXITY_TOL


def test_superlinearity_proxy(pend_pot):
    assert verify.oracle_shape(pend_pot)[3] >= verify.SUPERLINEAR_GAIN


def test_potential_from_model():
    pot = potential_from_model(make_pendulum(1.0))
    assert pot.v_max == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        potential_from_model(make_integrable(2))


def test_potential_from_model_samples_in_one_call(monkeypatch):
    # the dense sampling is one array evaluation, bitwise equal to point by point;
    # a model is frozen, so its class is patched
    model = make_pendulum(0.7)
    calls = []
    method = SwingModel.evaluate
    monkeypatch.setattr(SwingModel, "evaluate",
                        lambda self, *a: calls.append(a) or method(self, *a))
    pot = potential_from_model(model)
    assert len(calls) < 100
    xs = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    assert np.array_equal(pot.v(xs), [pot.v(x) for x in xs])
    assert isinstance(pot.v(1.0), float)


def test_potential_from_model_point_is_a_float_row():
    # a point is evaluated by the model's generated float kernel: a Python
    # float, equal bit for bit to evaluate's energy at rest
    model = make_pendulum(0.7)
    pot = potential_from_model(model)
    xs = np.random.default_rng(7).uniform(-10.0, 10.0, 1000)
    want = model.evaluate(xs[None], np.zeros((1, xs.size)), np.zeros((0, xs.size))).h
    got = [pot.v(x) for x in xs.tolist()]
    assert all(type(v) is float for v in got)
    assert np.array_equal(np.array(got).view(np.int64), want.view(np.int64))


def test_oracle_table_matches_array_point_path():
    # the table equals the one of a V that evaluates each point as a
    # length-1 array
    model = make_pendulum(1.0)

    def v_array(x):
        x = np.asarray(x, dtype=float)
        h = model.evaluate(x.reshape(1, -1), np.zeros((1, x.size)), np.zeros((0, x.size))).h
        return h.reshape(x.shape) if x.ndim else float(h[0])

    ps = np.round(np.arange(0.0, 3.0001, 0.05), 10)
    got = oracle_table(potential_from_model(model), ps)
    want = oracle_table(Potential1D.from_callable(v_array), ps)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("from_model", [False, True], ids=["callable", "model"])
def test_oracle_table_integrates_the_edge_once(monkeypatch, pend_pot, from_model):
    # the flat-piece edge p(V_max) is one quadrature per table, and each row
    # is effective_hamiltonian_1d's bit for bit: inside the flat piece, at
    # and around its edge 4/pi, and at negative P
    pot = potential_from_model(make_pendulum(1.0)) if from_model else pend_pot
    edge = 4.0 / np.pi
    ps = np.concatenate([np.round(np.arange(-3.0, 3.0001, 0.25), 10),
                         [edge, -edge, np.nextafter(edge, 0.0), np.nextafter(edge, 9.0)]])
    energies = []
    quadrature = oracle1d.momentum_of_energy
    monkeypatch.setattr(oracle1d, "momentum_of_energy",
                        lambda pot_, E: energies.append(E) or quadrature(pot_, E))
    table = oracle_table(pot, ps)
    assert energies.count(pot.v_max) == 1
    want = [effective_hamiltonian_1d(pot, p) for p in ps]
    assert energies.count(pot.v_max) == 1 + len(ps)
    assert np.array_equal(table[:, 0], ps)
    assert np.array_equal(table[:, 1].view(np.int64), np.array(want).view(np.int64))
    assert (table[np.abs(ps) <= 1.0, 1] == pot.v_max).all()
    assert (table[np.abs(ps) >= 1.5, 1] > pot.v_max).all()


def test_oracle_table_shape(pend_pot):
    table = oracle_table(pend_pot, [0.0, 1.0, 2.0])
    assert table.shape == (3, 2)
    assert table[0, 1] == 2.0
