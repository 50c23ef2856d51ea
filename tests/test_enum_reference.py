"""svp._enum_shortest against the kernel it replaced (tests/enum_reference.py).

The library kernel runs on Python floats and ints where the reference ran
on numpy scalars; every step is one IEEE operation or a floor, so the whole
output (status, best levels, best squared norm, node count, collected
points) must be equal bit for bit.
"""

import math

import numpy as np
import pytest

import enum_reference
from alglat import reduction, svp
from alglat.lattices import ComplexBasis
from alglat.rings import ring_new

pytestmark = pytest.mark.pins

D_VALUES = (1, 2, 3, 5, 7, 11, 15)
BUDGET = 4000


def canonical(out):
    """The kernel's output with numpy scalars and arrays as Python values,
    floats by their hex form."""
    status, best_x, best2, nodes, points = out
    return (
        status,
        [int(v) for v in best_x],
        float(best2).hex(),
        nodes,
        [(float(d).hex(), [int(v) for v in x]) for d, x in points],
    )


def enumeration_input(ring, n, rng):
    """R of a reduced CN(0,1) basis, as svp._svp prepares it, and its
    shortest column as the initial point and radius."""
    m = math.sqrt(0.5) * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    with reduction._quiet():
        rep = reduction.alll_reduce(ComplexBasis(m, ring), delta=svp.PREPROCESS_DELTA)
    col_norms2 = np.sum(np.abs(rep.reduced.matrix) ** 2, axis=0)
    jmin = int(np.argmin(col_norms2))
    x_init = np.zeros(2 * n, dtype=np.int64)
    x_init[2 * jmin] = 1
    return svp._enumeration_r(rep.reduced.matrix, ring.xi), float(col_norms2[jmin]), x_init


def assert_same_enumeration(R, best2, mode, budget, x_init, collect):
    got = svp._enum_shortest(R, best2, mode, budget, x_init, collect)
    want = enum_reference._enum_shortest(R, best2, mode, budget, x_init, collect)
    assert canonical(got) == canonical(want)
    return got


@pytest.mark.parametrize("d", D_VALUES)
def test_same_output_as_reference(d):
    ring = ring_new(d)
    rng = np.random.default_rng([d, 14])
    nodes = points = 0
    for n in range(1, 7):
        R, col2, x_init = enumeration_input(ring, n, rng)
        for mode in (0, 1, 2):
            out = assert_same_enumeration(R, col2 * (1.0 + 1e-9), mode, BUDGET, x_init, False)
            nodes += out[3]
            # collect mode lists every point within three times the shortest
            # column's squared norm; the largest runs stop at BUDGET
            out = assert_same_enumeration(R, col2 * 3.0, mode, BUDGET, x_init, True)
            points += len(out[4])
    assert nodes > 0 and points > 0


def test_same_output_past_the_budget():
    """A run stopped by its node budget returns the same partial state."""
    R, col2, x_init = enumeration_input(ring_new(1), 6, np.random.default_rng(3))
    for budget, collect in ((10, False), (500, True)):
        out = assert_same_enumeration(R, col2 * 4.0, 2, budget, x_init, collect)
        assert out[0] == 1 and out[3] == budget + 1
