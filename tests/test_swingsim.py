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
    # one orbit per call: x0 and y0 both have the shape (n,)
    for x0, y0 in ((0.0, 0.0), (np.zeros((1, 1)), np.zeros((1, 1))),
                   (np.zeros((1, 2)), np.zeros((1, 2))), ([0.0], np.zeros((1, 2))),
                   (np.zeros((2, 2)), np.zeros((2, 2)))):
        with pytest.raises(ValueError, match="shape"):
            integrate_swing(free_params(), x0, y0, 1.0, 1e-3)
    # a record stride coarser than the horizon would leave one sample
    with pytest.raises(ValueError, match="record_every"):
        integrate_swing(free_params(), [0.0], [1.0], 1.0, 1e-3, record_every=1001)
    integrate_swing(free_params(), [0.0], [1.0], 1.0, 1e-3, record_every=1000)


def test_nonfinite_state_aborts():
    p = SwingParams(alpha=[1e300], beta=((TrigPoly(0.0),),), lam=[0.5])
    with pytest.raises(NonFiniteStateError) as err:
        integrate_swing(p, [0.0], [0.0], 200.0, 10.0)
    assert err.value.index >= 0
    # a non-finite start leaves no valid sample, without a ValueError from
    # math.cos in the energy
    for x0 in ([np.inf], [np.nan]):
        with pytest.raises(NonFiniteStateError, match="no valid sample") as err:
            integrate_swing(pendulum_params(), x0, [0.0], 1.0, 1e-3, record_every=10)
        assert err.value.index == -1
    # a finite start whose energy y^2/2 overflows is no valid sample either
    for p, y0 in ((free_params(), [1e308]), (pendulum_params(), [2e154])):
        with pytest.raises(NonFiniteStateError, match="no valid sample") as err:
            integrate_swing(p, [0.0], y0, 1.0, 1e-3, record_every=10)
        assert err.value.index == -1
        assert isinstance(per_step_reference(p, [0.0], y0, 1.0, 1e-3, 10), NonFiniteStateError)
    # a NaN start velocity of a driven orbit, which records no energy
    with pytest.raises(NonFiniteStateError) as err:
        integrate_swing(qp_params(), [0.0], [np.nan], 1.0, 1e-3, record_every=10)
    assert err.value.index == -1


def test_steps_after_the_last_sample_are_not_taken():
    # the coupling argument overflows after ~4500 steps, between the last
    # sample (step 4000) and T (step 4600): the orbit returns
    p = SwingParams(alpha=[0.0], beta=((TrigPoly(1e-300),),), lam=[1e300])
    traj = integrate_swing(p, [0.0], [2e7], 4.6, 1e-3, record_every=4000)
    assert np.array_equal(traj.times, [0.0, 4.0]) and np.all(np.isfinite(traj.x))


def per_step_reference(p, x0, y0, T, dt, record_every):
    """Reference integrator: drive and force evaluated afresh at every
    half-kick, on (n, 1) arrays.  Returns (times, x, y, energy) or the
    NonFiniteStateError."""
    x = np.array(x0, dtype=float)[:, None]
    y = np.array(y0, dtype=float)[:, None]

    model = make_swing(p)
    n_steps = int(round(T / dt))
    autonomous = p.m == 0
    beta = model.drive(np.zeros((0, 1))) if autonomous else None

    def energy():
        """Total energy on the covering space; meaningful when autonomous."""
        return model.potential_force(x, beta, 0.5 * np.einsum("i...,i...->...", y, y))[0]

    half = 0.5 * dt
    # a blow-up is reported as NonFiniteStateError, not as overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        e = energy() if autonomous else 0.0
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(e))):
            return NonFiniteStateError(-1)
        times, xs, ys, es = [0.0], [x], [y], [e]
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

    es = np.asarray(es)[:, 0] if autonomous else None
    return np.asarray(times), np.asarray(xs)[..., 0], np.asarray(ys)[..., 0], es


def qp_drive():
    return TrigPoly(1.0, (((1,), 0.5, 0.0),))


BITWISE_CASES = {
    "pendulum": (pendulum_params(), [0.3], [2.6]),
    "quasi_periodic": (qp_params(), [0.0], [1.5]),
    "n2_m2": (n2_m2_params(), [0.1, -0.3], [1.2, 0.4]),
    "tilted_autonomous": (SwingParams(alpha=[0.1], beta=((TrigPoly(1.0),),), lam=[0.5]),
                          [0.0], [0.3]),
    "tilted_driven": (SwingParams(alpha=[0.1], beta=((qp_drive(),),), lam=[0.5],
                                  omega=[np.sqrt(2.0)]), [0.0], [0.3]),
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
    ("pendulum", 5.0, 1), ("quasi_periodic", 5.0, 1), ("blow_up", 5.0, 1),
    ("pendulum", 12.0, 5000), ("quasi_periodic", 12.0, 5000), ("n2_m2", 12.0, 5000),
    ("tilted_driven", 12.0, 5000), ("blow_up_autonomous", 12.0, 5000),
    ("pendulum", 5.0, 5000), ("tilted_autonomous", 5.0, 5000),
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
    # one kernel for the autonomous pattern, one for the driven, tilted or not
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
    measured = [rotation_number(o, burn_in)[0] for o in orbits]
    for r, m, pr in zip(rows, measured, predicted):
        assert r["rotation_predicted"] == float(pr)
        assert r["rotation_measured"] == float(m)
        assert r["gap"] == abs(float(m) - float(pr))


def test_compare_requires_autonomous():
    p = SwingParams(alpha=[0.0], beta=((TrigPoly(1.0, (((1,), 0.5, 0.0),)),),),
                    lam=[0.5], omega=[1.0])
    with pytest.raises(ValueError):
        compare_with_homogenization(p, [(0.0, 2.0), (1.0, 2.0), (2.0, 3.0)], 2)
