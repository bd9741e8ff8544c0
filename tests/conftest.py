import numpy as np
import pytest


@pytest.fixture
def oracle_start():
    """start(problem, init) -> (config init, f0, z0), the start the solvers derive.

    ``init`` is "zeros", "least-squares" or "vector" (a fixed random
    start, passed to the config as an array).  z0 is the least-squares
    pullback lstsq(D, f0), and zero for the zero start.
    """
    def start(problem, init):
        m = problem.n_coef
        if init == "zeros":
            f0 = np.zeros(m)
        elif init == "least-squares":
            f0 = np.linalg.lstsq(problem.H, problem.g, rcond=None)[0]
        else:
            f0 = np.random.RandomState(5).randn(m)
        config_init = f0.copy() if init == "vector" else init
        if problem.D is None:
            return config_init, f0, None
        z0 = np.zeros(m) if init == "zeros" else np.linalg.lstsq(problem.D, f0, rcond=None)[0]
        return config_init, f0, z0

    return start
