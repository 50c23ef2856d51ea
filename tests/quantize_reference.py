"""The nearest-ring-element search as it was before it rounded, kept as a test
oracle.

This is a verbatim copy of rings._quantize_pair from before it dropped the
candidates that cannot win: it builds and scores all 4 (type I) or 8 (type II)
candidates.  Nothing under src/ imports it; tests/test_rings.py checks that the
library quantizer returns the same (a, b) on every input.
"""

from __future__ import annotations

import math

from alglat.rings import ZERO_RADIUS2, RingKind, RingSpec


def _quantize_pair(x: complex, ring: RingSpec) -> tuple[int, int]:
    """Coordinates (a, b) of the ring element nearest to the Python complex x.

    Type I rings round componentwise on the rectangular lattice; type II rings
    take the better of the rectangular lattice Z[sqrt(-d)] and its half-shifted
    coset.  Exact distance ties prefer the lexicographically smaller (a, b).
    """
    re, im = x.real, x.imag
    if re * re + im * im < ZERO_RADIUS2:
        return 0, 0
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"cannot quantize non-finite value {x}")
    y = im / math.sqrt(ring.d)
    u, v = math.floor(re), math.floor(y)
    if ring.kind is RingKind.TYPE_I:
        cands = [(p, q) for p in (u, u + 1) for q in (v, v + 1)]
    else:
        # rectangular points p + q*sqrt(-d) correspond to (a, b) = (p - q, 2q);
        # coset points (p + 1/2) + (q + 1/2)*sqrt(-d) to (a, b) = (p - q, 2q + 1)
        cands = [(p - q, 2 * q) for p in (u, u + 1) for q in (v, v + 1)]
        u, v = math.floor(re - 0.5), math.floor(y - 0.5)
        cands += [(p - q, 2 * q + 1) for p in (u, u + 1) for q in (v, v + 1)]
    xi = ring.xi
    _, a, b = min((abs(x - (complex(a) + b * xi)) ** 2, a, b) for a, b in cands)
    return a, b
