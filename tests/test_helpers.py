import time

import numpy as np

from helpers import interior_density


def test_interior_density_tight_floor_returns_quickly():
    # a flat Dirichlet draw has every coordinate >= 0.01 on 40 nodes with
    # probability about 2e-9, so rejection alone would not return
    started = time.perf_counter()
    rho = interior_density(np.random.default_rng(0), 40, floor=0.01)
    assert time.perf_counter() - started < 1.0
    assert rho.n == 40
    assert float(rho.values.min()) >= 0.01
