import numpy as np
import pytest

from weakkam import verify
from weakkam.cell import CellProblem, solve_cell
from weakkam.fields import TorusGrid
from weakkam.hamiltonians import make_integrable
from weakkam.measures import (
    effective_lagrangian,
    energy_statistics,
    gibbs_measure,
    measure_stats,
    rotation_vector,
    tail_mass,
)


@pytest.fixture(scope="module")
def integrable_pieces():
    grid = TorusGrid(n=1, m=0, N_x=64)
    model = make_integrable(1)
    prob = CellProblem(model, [0.7], 8.0, grid)
    sol = solve_cell(prob)
    return prob, sol, gibbs_measure(sol)


def _solution_at(sweep, P, k):
    sol = next(s for s in sweep["solutions"][P] if s.k == k)
    return sol, gibbs_measure(sol)


def test_gibbs_integrable_uniform(integrable_pieces):
    prob, sol, mu = integrable_pieces
    assert np.max(np.abs(mu.sigma.values - 1.0)) <= 1e-12
    assert verify.measure_identity_defects(prob.model, [sol])[0] <= verify.MASS_TOL


def test_gibbs_normalization_everywhere(pendulum, pendulum_sweep):
    sols = [s for P in (0.0, 1.5, 2.5) for s in pendulum_sweep["solutions"][P]
            if s.k in (8.0, 64.0)]
    # a negative density would raise in GibbsMeasure
    mass, _, renorm = verify.measure_identity_defects(pendulum, sols)
    assert mass <= verify.MASS_TOL and renorm <= verify.RENORM_TOL


def test_gibbs_density_identity(pendulum, pendulum_sweep):
    sol = pendulum_sweep["solutions"][1.5][-1]           # k = 64
    defect = verify.measure_identity_defects(pendulum, [sol])[1]
    assert defect <= verify.DENSITY_IDENTITY_TOL


def test_gibbs_concentrates_at_potential_max(pendulum_sweep):
    # P=0 corrector vanishes, so sigma(pi)/sigma(0) = exp(k (V(pi) - V(0)))
    sol, mu = _solution_at(pendulum_sweep, 0.0, 64.0)
    i_pi = sol.v.grid.N_x // 2
    ratio = mu.sigma.values[i_pi] / mu.sigma.values[0]
    assert ratio >= np.exp(64.0 * 1.9)


def test_gibbs_requires_converged(pendulum, grid256):
    from weakkam.cell import SolverOptions
    bad = solve_cell(CellProblem(pendulum, [1.5], 64.0, grid256),
                     opts=SolverOptions(max_iter=3))
    with pytest.raises(ValueError, match="converged"):
        gibbs_measure(bad)


def test_rotation_integrable(integrable_pieces):
    prob, sol, mu = integrable_pieces
    assert rotation_vector(mu)[0] == pytest.approx(0.7, abs=1e-12)


def test_rotation_pendulum_symmetry(pendulum_sweep):
    sol, mu = _solution_at(pendulum_sweep, 0.0, 64.0)
    assert abs(rotation_vector(mu)[0]) <= 1e-8


def test_rotation_matches_slope(pendulum_sweep, hbar64_table):
    sol, mu = _solution_at(pendulum_sweep, 2.0, 64.0)
    q = rotation_vector(mu)[0]
    table = dict(hbar64_table)
    fd = (table[2.05] - table[1.95]) / 0.1
    assert abs(q - fd) <= 0.05 * abs(fd)


def test_closedness_integrable_zero(integrable_pieces):
    prob, sol, mu = integrable_pieces
    assert sol.el_residual <= 1e-14


def test_energy_statistics_integrable(integrable_pieces):
    prob, sol, mu = integrable_pieces
    mean, var = energy_statistics(mu)
    assert mean == pytest.approx(0.5 * 0.49, abs=1e-12)
    assert var <= 1e-20


def test_tail_mass_bounds(pendulum_sweep):
    sol, mu = _solution_at(pendulum_sweep, 2.0, 64.0)
    assert tail_mass(mu, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert tail_mass(mu, 100.0) == 0.0
    with pytest.raises(ValueError):
        tail_mass(mu, -1.0)


def test_tail_mass_decreases_with_k(pendulum_sweep):
    # flat-piece corrector: velocity mass above 1 dies off as k grows
    tails = []
    for k in (8.0, 16.0, 32.0, 64.0):
        sol, mu = _solution_at(pendulum_sweep, 0.5, k)
        tails.append(tail_mass(mu, 1.0))
    assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))
    assert tails[-1] < tails[0]


def test_tail_mass_above_energy_ceiling(pendulum_sweep):
    # threshold 1 + max classical speed at the attained energy: mass vanishes
    for k in (8.0, 16.0, 32.0, 64.0):
        sol, mu = _solution_at(pendulum_sweep, 0.0, k)
        M = 1.0 + np.sqrt(2.0 * max(sol.Hbar_k, 0.0))
        assert tail_mass(mu, M) == 0.0


def test_effective_lagrangian_quadratic_table():
    ps = np.round(np.arange(-3.0, 3.0001, 0.1), 10)
    table = [(p, 0.5 * p * p) for p in ps]
    eff = effective_lagrangian(table, 1.0)
    assert eff.value == pytest.approx(0.5, abs=0.005)
    assert not eff.at_boundary


def test_effective_lagrangian_pendulum_rest(hbar64_table, pendulum_pot):
    # L(0) = -min Hbar = -Hbar(0); the oracle flat value is 2
    eff = effective_lagrangian(hbar64_table, 0.0)
    assert eff.value == pytest.approx(-2.0, abs=0.15)


def test_effective_lagrangian_flags_boundary():
    table = [(p, 0.5 * p * p) for p in np.arange(-1.0, 1.001, 0.1)]
    eff = effective_lagrangian(table, 5.0)      # supremum escapes the window
    assert eff.at_boundary
    with pytest.raises(ValueError):
        effective_lagrangian([], 1.0)


def test_duality_gap_nonnegative(pendulum_sweep, hbar64_table):
    sol, mu = _solution_at(pendulum_sweep, 2.0, 64.0)
    stats = measure_stats(mu, speed_threshold=1.0,
                          hbar_table=hbar64_table)
    assert stats.duality_gap >= -1e-8
    assert stats.Lbar_Q is not None


def test_measure_stats_row(integrable_pieces):
    prob, sol, mu = integrable_pieces
    stats = measure_stats(mu, speed_threshold=2.0)
    assert stats.energy_var >= 0.0
    assert 0.0 <= stats.tail_mass <= 1.0
    assert stats.Lbar_Q is None and stats.duality_gap is None
