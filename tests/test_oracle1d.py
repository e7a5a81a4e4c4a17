import numpy as np
import pytest

from weakkam.hamiltonians import HamEval, HamiltonianModel, make_integrable, make_pendulum
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


def test_momentum_separatrix_closed_form(pend_pot):
    # int sqrt(2(2 - V)) dx / 2pi = 4/pi
    assert momentum_of_energy(pend_pot, 2.0) == pytest.approx(4.0 / np.pi, abs=1e-10)


def test_momentum_monotone(pend_pot):
    es = np.linspace(2.0, 8.0, 25)
    ps = [momentum_of_energy(pend_pot, e) for e in es]
    assert all(b > a for a, b in zip(ps, ps[1:]))


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
    for P in (0.3, 1.1, 1.9, 2.7):
        a = effective_hamiltonian_1d(pend_pot, P)
        b = effective_hamiltonian_1d(pend_pot, -P)
        assert abs(a - b) <= 1e-12


def test_midpoint_convexity_61_points(pend_pot):
    ps = np.linspace(-3.0, 3.0, 61)
    hs = np.array([effective_hamiltonian_1d(pend_pot, p) for p in ps])
    defect = np.max(hs[1:-1] - 0.5 * (hs[:-2] + hs[2:]))
    assert defect <= 1e-9


def test_superlinearity_proxy(pend_pot):
    h2 = effective_hamiltonian_1d(pend_pot, 2.0)
    h3 = effective_hamiltonian_1d(pend_pot, 3.0)
    assert h3 >= h2 + 1.0


def test_potential_from_model():
    pot = potential_from_model(make_pendulum(1.0))
    assert pot.v_max == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        potential_from_model(make_integrable(2))


def test_potential_from_model_samples_in_one_call(monkeypatch):
    # the dense sampling is one array evaluation, bitwise equal to point by point
    model = make_pendulum(0.7)
    calls = []
    for name in ("evaluate", "potential"):
        method = getattr(model, name)
        monkeypatch.setattr(model, name, lambda *a, _m=method: calls.append(a) or _m(*a))
    pot = potential_from_model(model)
    assert len(calls) < 100
    xs = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    assert np.array_equal(pot.v(xs), [pot.v(x) for x in xs])
    assert isinstance(pot.v(1.0), float)


class _CrossTermModel(HamiltonianModel):
    """H = y^2/2 + x*y: not kinetic-plus-potential."""

    mechanical = False

    def __init__(self):
        self.n, self.m, self.gamma = 1, 0, 1.0
        self.descriptor = {"name": "cross"}

    def evaluate(self, x, y, phi):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = 0.5 * y[0] ** 2 + x[0] * y[0]
        eye = np.ones((1, 1) + y.shape[1:])
        return HamEval(h, y.copy(), y + x, eye)


def test_oracle_refuses_cross_terms():
    with pytest.raises(ValueError, match="refuses"):
        potential_from_model(_CrossTermModel())


def test_oracle_table_shape(pend_pot):
    table = oracle_table(pend_pot, [0.0, 1.0, 2.0])
    assert table.shape == (3, 2)
    assert table[0, 1] == 2.0
