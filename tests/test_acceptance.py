"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

A criterion that `weakkam verify` also checks calls the same measurement
function from weakkam.verify on the acceptance fixtures and asserts the same
bound constant, so each invariant is measured by one piece of code.  The
other tolerances are fixed here, not tuned: solver-vs-oracle windows come
from the one-sided bound of the exponential approximation.
"""

import time

import numpy as np

from weakkam import verify
from weakkam.cell import (
    CellProblem,
    SolverOptions,
    continuation_solve,
    fiber_decomposed_solve,
    fiber_jump,
)
from weakkam.fields import TorusGrid
from weakkam.hamiltonians import (
    SwingModel,
    TrigPoly,
    make_integrable,
    make_pendulum,
)
from weakkam.measures import effective_lagrangian, gibbs_measure, rotation_vector
from weakkam.oracle1d import effective_hamiltonian_1d, oracle_table
from weakkam.swingsim import integrate_swing, rotation_number

from conftest import K_SCHEDULE, SWEEP_P


def test_criterion_1_integrable_exactness():
    h, v, iters, converged, slowest = verify.integrable_exactness(
        TorusGrid(n=1, m=0, N_x=256), 64.0)
    assert converged and iters <= verify.INTEGRABLE_MAX_ITERS
    assert h <= verify.INTEGRABLE_TOL and v <= verify.INTEGRABLE_TOL
    assert slowest < 1.0
    print(f"\n[PASS] criterion 1 (integrable exactness): |Hbar - P^2/2| <= "
          f"{h:.1e}, max|v| <= {v:.1e}, slowest {slowest * 1e3:.0f} ms")


def test_criterion_2_oracle_agreement(pendulum_sweep, pendulum_pot):
    gaps = {}
    for P in SWEEP_P:
        sol = pendulum_sweep["solutions"][P][-1]
        assert sol.k == 64.0 and sol.converged
        gap = effective_hamiltonian_1d(pendulum_pot, P) - sol.Hbar_k
        assert 0.0 <= gap <= 0.15, f"P={P}: gap {gap}"
        gaps[P] = gap
    assert pendulum_sweep["elapsed"] <= 60.0
    print(f"\n[PASS] criterion 2 (oracle agreement): gaps "
          f"{', '.join(f'{P}:{g:.4f}' for P, g in gaps.items())}; "
          f"sweep took {pendulum_sweep['elapsed']:.1f} s")


def test_criterion_3_monotonicity_in_k(pendulum_sweep):
    worst = -np.inf
    for sols in pendulum_sweep["solutions"].values():
        assert [s.k for s in sols] == K_SCHEDULE
        worst = max(worst, verify.monotonicity_defect(sols))
    assert worst <= verify.MONOTONE_SLACK
    print(f"\n[PASS] criterion 3 (monotone in k): max decrease {worst:.2e} "
          "(slack 1e-8)")


def test_criterion_4_weak_euler_lagrange(pendulum_sweep):
    worst = max(verify.closedness(sols)
                for sols in pendulum_sweep["solutions"].values())
    assert worst <= verify.STATIONARITY_TOL
    print(f"\n[PASS] criterion 4 (weak stationarity/closedness): max residual "
          f"{worst:.2e} <= 1e-6 over 8 modes")


def test_criterion_5_gradient_correctness():
    rng = np.random.default_rng(123)
    swing = SwingModel(
        alpha=[0.0], beta=((TrigPoly(0.8, (((1,), 0.3, 0.1),)),),),
        lam=[0.5], omega=[np.sqrt(2.0)])
    worst = max(verify.objective_gradient_defect(
        CellProblem(model, P, 6.0, TorusGrid(n=model.n, m=model.m, N_x=32, N_phi=4)),
        rng, amplitude=0.4)
        for model, P in ((make_integrable(1), [0.7]), (make_pendulum(1.0), [0.9]),
                         (swing, [0.6])))
    assert worst <= verify.OBJECTIVE_GRADIENT_RTOL
    print(f"\n[PASS] criterion 5 (gradient correctness): worst relative "
          f"defect {worst:.2e} over 20 directions x 3 models")


def test_criterion_6_energy_concentration(pendulum_sweep):
    sols = pendulum_sweep["solutions"][0.0]
    variances, speed = verify.energy_concentration(sols)
    assert variances[-1] < variances[0] and speed <= verify.SPEED_SLACK
    envelope = verify.energy_envelope_defects(sols)
    assert max(envelope) <= 0.0
    print(f"\n[PASS] criterion 6 (energy concentration): var {variances[0]:.2e} "
          f"-> {variances[-1]:.2e}; max-H envelope slack {-envelope[0]:.3f} "
          f"at C_env={verify.ENERGY_BOUND_C}")


def test_criterion_7_duality(pendulum_sweep, hbar64_table):
    sol = pendulum_sweep["solutions"][2.0][-1]
    Q = rotation_vector(gibbs_measure(sol))[0]
    lbar = effective_lagrangian(hbar64_table, Q)
    assert not lbar.at_boundary
    resolution = 0.05 ** 2 / 2.0
    gap = lbar.value + sol.Hbar_k - 2.0 * Q
    assert abs(gap) <= 0.02 + resolution
    print(f"\n[PASS] criterion 7 (duality): |Lbar(Q) + Hbar(P) - P.Q| = "
          f"{abs(gap):.2e} <= {0.02 + resolution:.4f}")


def test_criterion_8_rotation_consistency(pendulum_sweep, hbar64_table, pendulum_pot):
    sol = pendulum_sweep["solutions"][2.0][-1]
    Q = rotation_vector(gibbs_measure(sol))[0]
    table = dict(hbar64_table)
    fd = (table[2.05] - table[1.95]) / 0.1
    rel_q = abs(Q - fd) / abs(fd)
    assert rel_q <= 0.05

    # rotating orbit at the oracle energy level for P = 2.5
    model = SwingModel(alpha=[0.0], beta=((TrigPoly(1.0),),), lam=[0.5])
    otable = oracle_table(pendulum_pot, np.round(np.arange(2.3, 2.7001, 0.05), 10))
    i = 4   # P = 2.5
    predicted = (otable[i + 1, 1] - otable[i - 1, 1]) / 0.1
    E = otable[i, 1]
    traj = integrate_swing(model, [0.0], [np.sqrt(2.0 * E)], 200.0, 1e-3,
                           record_every=10)
    measured = rotation_number(traj, 0.1)[0]
    rel_sim = abs(measured - predicted) / abs(predicted)
    assert rel_sim <= 0.10
    print(f"\n[PASS] criterion 8 (rotation consistency): |Q - dHbar/dP| rel "
          f"{rel_q:.2%}; simulator gap at P=2.5 rel {rel_sim:.2%}")


def test_criterion_9_simulator_integrity():
    model = SwingModel(alpha=[0.0], beta=((TrigPoly(1.0),),), lam=[0.5])
    drift, r1, r2 = verify.drift_and_order(model)
    assert drift <= verify.DRIFT_TOL
    assert min(r1, r2) >= verify.HALVING_RATIO
    ferr = verify.free_motion_error(SwingModel(alpha=[0.0], beta=((TrigPoly(0.0),),),
                                               lam=[0.5]))
    assert ferr <= verify.FREE_MOTION_TOL
    print(f"\n[PASS] criterion 9 (simulator integrity): drift {drift:.2e}, "
          f"free-motion error {ferr:.1e}, halving ratios {r1:.2f}/{r2:.2f}")


def test_criterion_10_fiber_consistency(quasi_swing):
    t0 = time.perf_counter()
    P, k = [0.7], 16.0
    grid16 = TorusGrid(n=1, m=1, N_x=128, N_phi=16)
    joint = continuation_solve(quasi_swing, P, [k], 4, grid16,
                               SolverOptions(max_iter=4000))[-1]
    fiber16 = fiber_decomposed_solve(CellProblem(quasi_swing, P, k, grid16))
    agreement = abs(joint.Hbar_k - fiber16.Hbar_k)
    assert agreement <= 1e-8

    grid32 = TorusGrid(n=1, m=1, N_x=128, N_phi=32)
    fiber32 = fiber_decomposed_solve(CellProblem(quasi_swing, P, k, grid32))
    j16, j32 = fiber_jump(fiber16.fiber_values), fiber_jump(fiber32.fiber_values)
    ratio = j32 / j16
    assert 0.4 <= ratio <= 0.6
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    print(f"\n[PASS] criterion 10 (fiber consistency): |joint - fiber| = "
          f"{agreement:.2e}; jump ratio {ratio:.3f} in [0.4, 0.6]; "
          f"{elapsed:.1f} s")
