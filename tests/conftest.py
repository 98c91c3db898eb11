import os

# k-column LU solves go through level-3 BLAS, which is many times slower per
# column with one thread per core on a loaded machine; pin the pools before
# numpy loads them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from fieldtopo.generators import GridSpec, gen_box_minus_ring, gen_grid

TAU = 2.0 * np.pi


@pytest.fixture(scope="session")
def cube4():
    return gen_grid(GridSpec(4, 4, 4))


@pytest.fixture(scope="session")
def solid_torus():
    # unit cross-section, periodic length 2
    return gen_grid(GridSpec(2, 2, 8, 1.0, 1.0, 2.0, periodic=(False, False, True)))


@pytest.fixture(scope="session")
def torus3_coarse():
    return gen_grid(GridSpec(4, 4, 4, TAU, TAU, TAU, periodic=(True, True, True)))


@pytest.fixture(scope="session")
def torus3_8():
    return gen_grid(GridSpec(8, 8, 8, TAU, TAU, TAU, periodic=(True, True, True)))


@pytest.fixture(scope="session")
def box_ring():
    return gen_box_minus_ring(5)


@pytest.fixture(scope="session")
def torus8_beltrami(torus3_8):
    """Leading eigenpairs on the n=8 3-torus, shared across test modules."""
    from fieldtopo.beltrami import BoundaryCondition, reduce_system, smallest_beltrami

    bc = BoundaryCondition.parse("closed-mesh")
    pencil = reduce_system(torus3_8, bc)
    solution = smallest_beltrami(pencil, k=6, tol=1e-8)
    return pencil, solution
