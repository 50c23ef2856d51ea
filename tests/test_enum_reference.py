"""svp._enum_shortest against the kernel it replaced (tests/enum_reference.py),
and svp.successive_minima_2d against the minima listed by that kernel's
collect mode (oracles.successive_minima_2d_reference).

The library kernel runs on Python floats and ints where the reference ran
on numpy scalars; every step is one IEEE operation or a floor, so the whole
output (status, best levels, best squared norm, node count) must be equal
bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import enum_reference
from alglat import reduction, svp
from alglat.lattices import ComplexBasis
from alglat.rings import ring_new
from oracles import successive_minima_2d_reference

pytestmark = pytest.mark.pins

D_VALUES = (1, 2, 3, 5, 7, 11, 15)
BUDGET = 4000


def canonical(status, best_x, best2, nodes):
    """The kernel's output with numpy scalars and arrays as Python values,
    floats by their hex form."""
    return status, [int(v) for v in best_x], float(best2).hex(), nodes


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


def assert_same_enumeration(R, best2, mode, budget, x_init):
    got = svp._enum_shortest(R, best2, mode, budget, x_init)
    *want, points = enum_reference._enum_shortest(R, best2, mode, budget, x_init, False)
    assert canonical(*got) == canonical(*want) and points == []
    return got


@pytest.mark.parametrize("d", D_VALUES)
def test_same_output_as_reference(d):
    ring = ring_new(d)
    rng = np.random.default_rng([d, 14])
    nodes = 0
    for n in range(1, 7):
        R, col2, x_init = enumeration_input(ring, n, rng)
        for mode in (0, 1, 2):
            nodes += assert_same_enumeration(R, col2 * (1.0 + 1e-9), mode, BUDGET, x_init)[3]
    assert nodes > 0


def test_same_output_past_the_budget():
    """A run stopped by its node budget returns the same partial state."""
    R, col2, x_init = enumeration_input(ring_new(1), 6, np.random.default_rng(3))
    out = assert_same_enumeration(R, col2 * 4.0, 2, 10, x_init)
    assert out[0] == 1 and out[3] == 11


MINIMA_RINGS = (1, 2, 3, 5, 6, 7, 11, 15, 19)


def minima_basis(ring, kind, rng):
    """A rank-2 basis: CN(0,1) ("cn"), exact with coordinates in [-4, 4]
    ("exact"), or nearly dependent, u*b1 + eps*noise ("skewed")."""

    def cn():
        return math.sqrt(0.5) * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))

    if kind == "cn":
        return cn()
    if kind == "exact":
        a, b = rng.integers(-4, 5, size=(2, 2, 2))
        return a + b * ring.xi
    b1 = cn()[:, 0]
    u = complex(rng.integers(-3, 4)) + int(rng.integers(-3, 4)) * ring.xi
    return np.column_stack([b1, u * b1 + rng.choice([0.3, 0.1, 0.03, 0.01]) * cn()[:, 0]])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(MINIMA_RINGS),
    st.sampled_from(("cn", "exact", "skewed")),
    st.integers(0, 2**32 - 1),
)
def test_minima_match_the_listing_reference(d, kind, seed):
    """Two shrinking searches give the minima of the full listing: the same
    lambda1 and lambda2 bits and the same witnesses, ties included."""
    ring = ring_new(d)
    try:
        B = ComplexBasis(minima_basis(ring, kind, np.random.default_rng(seed)), ring)
    except ValueError:
        assume(False)
    l1, l2, (v1, v2) = svp.successive_minima_2d(B)
    r1, r2, (w1, w2) = successive_minima_2d_reference(B)
    assert (l1.hex(), l2.hex(), v1, v2) == (r1.hex(), r2.hex(), w1, w2)
