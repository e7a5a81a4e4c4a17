import time

import numpy as np
import pytest

from weakkam.cell import CellProblem, SolverOptions, continuation_solve, solve_cell
from weakkam.fields import TorusGrid
from weakkam.hamiltonians import SwingParams, TrigPoly, make_pendulum, make_swing
from weakkam.oracle1d import potential_from_model

K_SCHEDULE = [8.0, 16.0, 32.0, 64.0]
SWEEP_P = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)


@pytest.fixture(scope="session")
def pendulum():
    return make_pendulum(1.0)


@pytest.fixture(scope="session")
def grid256():
    return TorusGrid(n=1, m=0, N_x=256)


@pytest.fixture(scope="session")
def pendulum_pot(pendulum):
    return potential_from_model(pendulum)


@pytest.fixture(scope="session")
def pendulum_sweep(pendulum, grid256):
    """Continuation results for the acceptance P set; timed for the runtime gate."""
    t0 = time.perf_counter()
    sols = {P: continuation_solve(pendulum, [P], K_SCHEDULE, 4, grid256)
            for P in SWEEP_P}
    return {"solutions": sols, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def hbar64_table(pendulum, grid256, pendulum_sweep):
    """(P, Hbar^64) on a step-0.05 grid over [0, 3], warm-started across P.

    Each row starts from the corrector and the Newton state of the row
    before it.  The functional is strictly convex in the corrector gradient,
    so the minimizer is independent of the initialization; warm starts only
    cut the iteration count.
    """
    ps = np.round(np.arange(0.0, 3.0 + 1e-9, 0.05), 10)
    start = pendulum_sweep["solutions"][0.0][-1]
    init, state = start.v, start.newton_state
    rows = []
    for P in ps:
        sol = solve_cell(CellProblem(pendulum, [P], 64.0, grid256), init,
                         SolverOptions(max_iter=4000), state)
        assert sol.converged, f"table solve failed at P={P}"
        rows.append((float(P), sol.Hbar_k))
        init, state = sol.v, sol.newton_state
    return rows


@pytest.fixture(scope="session")
def quasi_swing():
    """Swing model n=1, m=1 with beta11(phi) = 1 + cos(phi)/2, lam = 1/2."""
    params = SwingParams(alpha=[0.0],
                         beta=((TrigPoly(1.0, (((1,), 0.5, 0.0),)),),),
                         lam=[0.5], omega=[1.0])
    return make_swing(params)
