"""Lattice reduction over imaginary quadratic integer rings.

Complex bases whose coefficients live in a ring Z[xi] of imaginary quadratic
integers span algebraic lattices.  This package provides exact ring
arithmetic, algebraic Gauss and LLL reduction, an exact shortest-vector
oracle, and a compute-and-forward layer that designs network-coding
coefficient matrices with guaranteed full rank over finite fields.
"""

from .rings import (
    FieldMorphism,
    RingElem,
    RingKind,
    RingSpec,
    morphism_new,
    parse_ring,
    quantize,
    ring_new,
    units,
)
from .lattices import (
    ComplexBasis,
    RingMatrix,
    embed,
    hermite_factor,
    orthogonality_defect,
    volume,
)
from .reduction import (
    ReductionReport,
    alll_reduce,
    decoding_radius,
    gauss_reduce,
    potential,
    quaternion_rotation,
    real_lll,
)
from .svp import SvpResult, shortest_vector, successive_minima_2d
from .cf import (
    Channel,
    NetworkDesign,
    RelayDesign,
    cf_basis,
    computation_rate,
    design_relay,
    design_relays,
    rank_mod_p,
    transmission_rate,
)
from .experiments import dof_slope, rank_failure_probability

__version__ = "0.1.0"
