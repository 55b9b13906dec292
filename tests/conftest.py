import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: on a shared host a threaded
# BLAS turns the small products of the iteration into waits. An
# explicit setting in the environment still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cohadm.cohesive import CohesiveParams
from cohadm.elasticity import Material
from cohadm.mesh import InputMesh


@pytest.fixture
def params():
    return CohesiveParams(sigma_c=3.0, delta_c=0.02287, beta=1.0)


@pytest.fixture
def soft_material():
    return Material(
        youngs_modulus=3000.0, poisson_ratio=0.2, mode="plane_stress", thickness=1.0
    )


@pytest.fixture
def two_triangle_square():
    """Unit square split along the diagonal; one interior edge."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    sets = {
        "left": np.array([0, 3]),
        "right": np.array([1, 2]),
        "pin": np.array([0]),
    }
    return InputMesh(nodes=nodes, triangles=tris, boundary_sets=sets)
