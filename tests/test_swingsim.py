from dataclasses import replace

import numpy as np
import pytest

from weakkam import hamiltonians, verify
from weakkam.hamiltonians import SwingParams, TrigPoly, make_pendulum, make_swing
from weakkam.oracle1d import Potential1D, oracle_table, potential_from_model
from weakkam.swingsim import (
    DRIVE_BLOCK,
    NonFiniteStateError,
    compare_with_homogenization,
    integrate_swing,
    rotation_number,
)


def free_params():
    return SwingParams(alpha=[0.0], beta=((TrigPoly(0.0),),), lam=[0.5])


def pendulum_params():
    return SwingParams(alpha=[0.0], beta=((TrigPoly(1.0),),), lam=[0.5])


def qp_params():
    return SwingParams(alpha=[0.0], beta=((TrigPoly(1.0, (((1,), 0.5, 0.0),)),),),
                       lam=[0.5], omega=[np.sqrt(2.0)])


def n2_m2_params():
    return SwingParams(alpha=[0.0, 0.0],
                       beta=((TrigPoly(1.0, (((1, 0), 0.3, 0.1),)),
                              TrigPoly(0.4, (((1, -1), 0.2, 0.0),))),
                             (TrigPoly(0.0), TrigPoly(0.7, (((0, 2), 0.0, 0.25),)))),
                       lam=[1.0, 0.5], omega=[1.0, np.sqrt(2.0)])


def test_free_motion_exact():
    assert verify.free_motion_error(free_params()) <= verify.FREE_MOTION_TOL
    traj = integrate_swing(free_params(), [0.2], [0.7], 10.0, 1e-3)
    assert abs(rotation_number(traj)[0] - 0.7) <= 1e-10
    assert np.max(np.abs(traj.x[:, 0] - (0.2 + 0.7 * traj.times))) <= 1e-10


def test_sample_count_matches_record_stride():
    traj = integrate_swing(free_params(), [0.0], [1.0], 2.0, 1e-3, record_every=10)
    dt_record = 10 * 1e-3
    assert len(traj.times) == int(np.floor(2.0 / dt_record)) + 1
    assert traj.x.shape == (len(traj.times), 1)


def test_constant_force_mean_acceleration():
    p = SwingParams(alpha=[0.1], beta=((TrigPoly(0.0),),), lam=[0.5])
    T = 10.0
    traj = integrate_swing(p, [0.0], [0.0], T, 1e-3)
    # x(T) = a T^2 / 2 exactly for constant force under verlet
    assert traj.x[-1, 0] == pytest.approx(0.5 * 0.1 * T * T, rel=1e-10)


def test_time_reversibility():
    assert verify.reversibility_error(pendulum_params()) <= verify.REVERSIBILITY_TOL


def test_librating_orbit_rotation_zero():
    T = 80.0
    traj = integrate_swing(pendulum_params(), [0.3], [0.0], T, 1e-3, record_every=10)
    assert abs(rotation_number(traj, 0.1)[0]) <= 2.0 / T


def test_quasi_periodic_and_tilted_run():
    p = SwingParams(alpha=[0.1], beta=((TrigPoly(1.0, (((1,), 0.5, 0.0),)),),),
                    lam=[0.5], omega=[np.sqrt(2.0)])
    traj = integrate_swing(p, [0.0], [1.5], 20.0, 1e-3, record_every=10)
    assert traj.energy is None          # not autonomous
    assert np.all(np.isfinite(traj.x))
    wrapped = traj.wrapped_x()
    assert np.all((wrapped >= 0) & (wrapped < 2 * np.pi))


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate_swing(free_params(), [0.0], [1.0], 0.5, -1e-3)
    with pytest.raises(ValueError):
        integrate_swing(free_params(), [0.0, 0.0], [1.0], 1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_swing(free_params(), [0.0], [1.0], 1e-4, 1e-3)
    # batch states: x0 and y0 must share one (n, B) shape
    with pytest.raises(ValueError):
        integrate_swing(free_params(), np.zeros((1, 2)), np.zeros((1, 3)), 1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_swing(free_params(), [0.0], np.zeros((1, 2)), 1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_swing(free_params(), np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 1e-3)
    # a record stride coarser than the horizon would leave one sample
    with pytest.raises(ValueError, match="record_every"):
        integrate_swing(free_params(), [0.0], [1.0], 1.0, 1e-3, record_every=1001)
    integrate_swing(free_params(), [0.0], [1.0], 1.0, 1e-3, record_every=1000)


def test_nonfinite_state_aborts():
    p = SwingParams(alpha=[1e300], beta=((TrigPoly(0.0),),), lam=[0.5])
    with pytest.raises(NonFiniteStateError) as err:
        integrate_swing(p, [0.0], [0.0], 200.0, 10.0)
    assert err.value.index >= 0
    # one orbit of a batch blowing up aborts the whole batch
    with pytest.raises(NonFiniteStateError) as err:
        integrate_swing(free_params(), [[0.0, 0.0]], [[1.0, 1e308]], 200.0, 10.0)
    assert err.value.index == 0
    # a non-finite start fails at the first recorded sample, without a
    # ValueError from math.cos in the energy of a single orbit
    for x0 in ([np.inf], [[np.inf]], [[0.0, np.inf]]):
        with pytest.raises(NonFiniteStateError) as err:
            y0 = np.zeros(np.shape(x0))
            integrate_swing(pendulum_params(), x0, y0, 1.0, 1e-3, record_every=10)
        assert err.value.index == 0


def test_steps_after_the_last_sample_are_not_taken():
    # the coupling argument overflows after ~4500 steps, between the last
    # sample (step 4000) and T (step 4600): one orbit and a batch both return
    p = SwingParams(alpha=[0.0], beta=((TrigPoly(1e-300),),), lam=[1e300])
    for x0, y0 in (([0.0], [2e7]), ([[0.0, 0.0]], [[2e7, 1.0]])):
        traj = integrate_swing(p, x0, y0, 4.6, 1e-3, record_every=4000)
        assert np.array_equal(traj.times, [0.0, 4.0]) and np.all(np.isfinite(traj.x))


@pytest.mark.parametrize("params", [pendulum_params, qp_params, n2_m2_params],
                         ids=["autonomous", "quasi_periodic", "n2_m2"])
def test_batch_columns_match_single_runs(params):
    # a batch steps on array rows, one orbit on float rows
    n = params().n
    x0 = np.array([[0.0, 0.5, -1.0, 2.0], [0.3, -0.7, 1.5, 0.0]])[:n]
    y0 = np.array([[2.6, 0.0, 1.1, -3.0], [0.4, 1.2, -0.5, 2.0]])[:n]
    batch = integrate_swing(params(), x0, y0, 3.0, 1e-3, record_every=7)
    assert batch.x.shape == (len(batch.times), n, 4)
    assert rotation_number(batch).shape == (n, 4)
    for b in range(4):
        one = integrate_swing(params(), x0[:, b], y0[:, b], 3.0, 1e-3, record_every=7)
        assert np.array_equal(batch.times, one.times)
        assert np.array_equal(batch.x[:, :, b], one.x)
        assert np.array_equal(batch.y[:, :, b], one.y)
        if one.energy is None:
            assert batch.energy is None
        else:
            assert np.array_equal(batch.energy[:, b], one.energy)


def per_step_reference(p, x0, y0, T, dt, record_every):
    """Reference integrator: drive and force evaluated afresh at every
    half-kick.  Returns (times, x, y, energy) or the NonFiniteStateError."""
    x = np.array(x0, dtype=float, ndmin=1)
    y = np.array(y0, dtype=float, ndmin=1)
    single = x.ndim == 1
    if single:
        x, y = x[:, None], y[:, None]

    model = make_swing(p)
    n_steps = int(round(T / dt))
    autonomous = p.m == 0
    beta = model.drive(np.zeros((0, 1))) if autonomous else None

    def energy():
        """Total energy on the covering space; meaningful when autonomous."""
        return model.potential_force(x, beta, 0.5 * np.einsum("i...,i...->...", y, y))[0]

    times, xs, ys, es = [0.0], [x], [y], []
    if autonomous:
        es.append(energy())
    half = 0.5 * dt
    # a blow-up is reported as NonFiniteStateError, not as overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            t_half = (step + 0.5) * dt
            if not autonomous:
                beta = model.drive((p.omega * t_half).reshape(p.m, 1))
            y = y - half * model.potential_force(x, beta)[1]
            x = x + dt * y
            y = y - half * model.potential_force(x, beta)[1]
            if (step + 1) % record_every == 0:
                e = energy() if autonomous else 0.0
                if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))
                        and np.all(np.isfinite(e))):
                    return NonFiniteStateError(len(times) - 1)
                times.append((step + 1) * dt)
                xs.append(x)
                ys.append(y)
                if autonomous:
                    es.append(e)

    times = np.asarray(times)
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    es = np.asarray(es) if autonomous else None
    if single:
        xs, ys = xs[..., 0], ys[..., 0]
        es = es[:, 0] if autonomous else es
    return times, xs, ys, es


def qp_drive():
    return TrigPoly(1.0, (((1,), 0.5, 0.0),))


BITWISE_CASES = {
    "pendulum": (pendulum_params(), [0.3], [2.6]),
    "batch_of_3": (pendulum_params(), [[0.0, 0.5, -1.0]], [[2.6, 0.0, 1.1]]),
    "quasi_periodic": (qp_params(), [0.0], [1.5]),
    "n2_m2": (n2_m2_params(), [0.1, -0.3], [1.2, 0.4]),
    "n2_m2_batch": (n2_m2_params(), [[0.1, 0.5, -1.0], [-0.3, 0.2, 1.0]],
                    [[1.2, -0.4, 0.0], [0.4, 1.0, -2.0]]),
    "tilted_autonomous": (SwingParams(alpha=[0.1], beta=((TrigPoly(1.0),),), lam=[0.5]),
                          [0.0], [0.3]),
    "tilted_driven": (SwingParams(alpha=[0.1], beta=((qp_drive(),),), lam=[0.5],
                                  omega=[np.sqrt(2.0)]), [0.0], [0.3]),
    "tilted_batch": (SwingParams(alpha=[0.1], beta=((TrigPoly(1.0),),), lam=[0.5]),
                     [[0.0, 0.5, -1.0]], [[0.3, 2.6, -1.1]]),
    # x overflows after ~4600 steps, past the first drive block
    "blow_up": (SwingParams(alpha=[1.7e307], beta=((qp_drive(),),), lam=[0.5],
                            omega=[np.sqrt(2.0)]), [0.0], [0.0]),
    # the coupling argument 2 lam x overflows after ~4500 steps, past the
    # first drive block; one orbit's math.sin raises there, numpy's gives nan
    "blow_up_autonomous": (SwingParams(alpha=[0.0], beta=((TrigPoly(1e-300),),),
                                       lam=[1e300]), [0.0], [2e7]),
}


@pytest.mark.parametrize("case", list(BITWISE_CASES))
def test_matches_per_step_reference_bitwise(case):
    # more steps than one drive block, and a stride that does not divide it
    p, x0, y0 = BITWISE_CASES[case]
    T, dt, every = 5.0, 1e-3, 7
    assert T / dt > DRIVE_BLOCK and DRIVE_BLOCK % every
    ref = per_step_reference(p, x0, y0, T, dt, every)
    if isinstance(ref, NonFiniteStateError):
        with pytest.raises(NonFiniteStateError) as err:
            integrate_swing(p, x0, y0, T, dt, record_every=every)
        assert err.value.index == ref.index > (DRIVE_BLOCK // every)
        return
    traj = integrate_swing(p, x0, y0, T, dt, record_every=every)
    times, xs, ys, es = ref
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.x, xs)
    assert np.array_equal(traj.y, ys)
    if es is None:
        assert traj.energy is None
    else:
        assert np.array_equal(traj.energy, es)


# (case, T, record_every): every step recorded, a stride longer than a drive
# block (chunks end at block edges between records; the last 2000 steps are
# not taken), and a stride equal to the step count
STRIDE_CASES = [
    ("pendulum", 5.0, 1), ("quasi_periodic", 5.0, 1), ("batch_of_3", 5.0, 1),
    ("blow_up", 5.0, 1),
    ("pendulum", 12.0, 5000), ("quasi_periodic", 12.0, 5000), ("n2_m2_batch", 12.0, 5000),
    ("tilted_driven", 12.0, 5000), ("blow_up_autonomous", 12.0, 5000),
    ("pendulum", 5.0, 5000), ("tilted_batch", 5.0, 5000),
]


@pytest.mark.parametrize("case, T, every", STRIDE_CASES,
                         ids=[f"{c}-every{e}" for c, _, e in STRIDE_CASES])
def test_record_strides_match_per_step_reference(case, T, every):
    p, x0, y0 = BITWISE_CASES[case]
    ref = per_step_reference(p, x0, y0, T, 1e-3, every)
    if isinstance(ref, NonFiniteStateError):
        with pytest.raises(NonFiniteStateError) as err:
            integrate_swing(p, x0, y0, T, 1e-3, record_every=every)
        assert err.value.index == ref.index
        return
    traj = integrate_swing(p, x0, y0, T, 1e-3, record_every=every)
    for got, want in zip((traj.times, traj.x, traj.y, traj.energy), ref):
        assert (got is None and want is None) or np.array_equal(got, want)


# driven, so that no energy is recorded, but with no coupling term
BLOW_UP_FREE = SwingParams(alpha=[1.7e307], beta=((TrigPoly(0.0),),), lam=[0.5],
                           omega=[np.sqrt(2.0)])


@pytest.mark.parametrize("p", [BITWISE_CASES["blow_up"][0], BLOW_UP_FREE],
                         ids=["coupled", "uncoupled"])
def test_batch_reports_the_earliest_blow_up(p):
    # x overflows ~4600 steps in (past the first drive block) from rest,
    # ~3200 steps in at y0 = 5e307 and ~1800 steps in at y0 = 1e308: the
    # last column fails first.  With a coupling term math.sin raises there;
    # without one only the recorded rows show it
    x0, y0 = [[0.0, 0.0, 0.0]], [[0.0, 5e307, 1e308]]
    T, dt, every = 5.0, 1e-3, 7
    ref = per_step_reference(p, x0, y0, T, dt, every)
    alone = [per_step_reference(p, [0.0], [v], T, dt, every) for v in y0[0][:2]]
    assert all(isinstance(e, NonFiniteStateError) for e in [ref, *alone])
    assert 0 < ref.index < alone[1].index < alone[0].index
    assert alone[0].index > DRIVE_BLOCK // every
    with pytest.raises(NonFiniteStateError) as err:
        integrate_swing(p, x0, y0, T, dt, record_every=every)
    assert err.value.index == ref.index


def test_models_of_one_term_pattern_share_one_kernel():
    # distinctive values, so that one printed into the source would show
    lam, beta, alpha = 0.123456789, 7.654321, 0.0314159
    driven = TrigPoly(beta, (((1,), 0.5 * beta, 0.25 * beta),))
    models = [SwingParams(alpha=[0.0], beta=((TrigPoly(1.0),),), lam=[0.5]),
              SwingParams(alpha=[alpha], beta=((TrigPoly(beta),),), lam=[lam]),
              SwingParams(alpha=[0.0], beta=((driven,),), lam=[lam], omega=[np.sqrt(2.0)]),
              SwingParams(alpha=[alpha], beta=((qp_drive(),),), lam=[0.5],
                          omega=[np.sqrt(3.0)])]
    hamiltonians._kick_drift_kick_kernel.cache_clear()
    for p in models:
        integrate_swing(p, [0.1], [0.5], 0.1, 1e-3)
        integrate_swing(p, [[0.1, 0.2]], [[0.5, -0.5]], 0.1, 1e-3)
    # one kernel for the autonomous pattern, one for the driven, each serving
    # one orbit and every column of a batch, tilted or not
    info = hamiltonians._kick_drift_kick_kernel.cache_info()
    assert info.currsize == info.misses == 2
    values = [lam, beta, alpha, 2 * lam, -alpha, 0.5 * beta, 0.25 * beta, 1e-3, 5e-4]
    for autonomous, tilted in ((True, False), (False, True)):
        sources = (hamiltonians._kick_drift_kick_source(1, ((0, 0),), autonomous),
                   hamiltonians._potential_source(1, ((0, 0),), tilted))
        for source in sources:
            assert not [v for v in values if repr(v) in source]


def test_rotation_window_validation():
    traj = integrate_swing(free_params(), [0.0], [1.0], 1.0, 1e-3, record_every=200)
    with pytest.raises(ValueError):
        rotation_number(traj, 0.5)      # < 10 samples left
    with pytest.raises(ValueError):
        rotation_number(traj, 0.95)


def test_compare_integrable_gap_zero():
    ps = np.round(np.arange(-2.0, 2.0001, 0.1), 10)
    table = [(p, 0.5 * p * p) for p in ps]
    rows = compare_with_homogenization(free_params(), table, samples=5,
                                       T=20.0, dt=1e-3)
    assert rows
    for r in rows:
        assert r["gap"] <= 1e-8


def test_compare_flat_piece_trapped():
    pot = Potential1D.from_callable(lambda x: 1.0 - np.cos(x))
    table = oracle_table(pot, np.round(np.arange(0.0, 1.2001, 0.1), 10))
    T = 60.0
    rows = compare_with_homogenization(pendulum_params(), table, samples=4,
                                       T=T, dt=1e-3)
    for r in rows:
        assert r["rotation_predicted"] == pytest.approx(0.0, abs=1e-12)
        assert abs(r["rotation_measured"]) <= 2.0 / T


def test_compare_matches_per_sample_loop():
    pot = potential_from_model(make_pendulum(1.0))
    table = oracle_table(pot, np.round(np.arange(0.0, 3.0001, 0.25), 10))
    T, dt, burn_in = 20.0, 1e-3, 0.1
    rows = compare_with_homogenization(pendulum_params(), table, samples=5,
                                       T=T, dt=dt, burn_in=burn_in)
    idx = np.unique(np.linspace(1, len(table) - 2, 5).round().astype(int))
    assert [r["P"] for r in rows] == [float(table[i, 0]) for i in idx]
    v_x0 = float(pot.v(0.0))
    orbits, predicted = [], []
    for i in idx:
        P, E = table[i]
        predicted.append((table[i + 1, 1] - table[i - 1, 1]) / (table[i + 1, 0] - table[i - 1, 0]))
        if E > pot.v_max + 1e-9:
            y0 = np.sign(P) * np.sqrt(2.0 * (E - v_x0))
        else:
            y0 = np.sqrt(max(2.0 * (0.5 * (pot.v_min + pot.v_max) - v_x0), 0.0))
        orbits.append(integrate_swing(pendulum_params(), [0.0], [y0], T, dt, record_every=10))
    # the comparison fits its orbits in one least-squares call, which rounds
    # unlike one call per orbit (by ~1e-19 on the trapped orbits here): the
    # orbits run alone are stacked and fitted the same way
    stacked = replace(orbits[0], x=np.stack([o.x for o in orbits], axis=-1))
    measured = rotation_number(stacked, burn_in)[0]
    for r, m, pr in zip(rows, measured, predicted):
        assert r["rotation_predicted"] == float(pr)
        assert r["rotation_measured"] == float(m)
        assert r["gap"] == abs(float(m) - float(pr))


def test_compare_requires_autonomous():
    p = SwingParams(alpha=[0.0], beta=((TrigPoly(1.0, (((1,), 0.5, 0.0),)),),),
                    lam=[0.5], omega=[1.0])
    with pytest.raises(ValueError):
        compare_with_homogenization(p, [(0.0, 2.0), (1.0, 2.0), (2.0, 3.0)], 2)
