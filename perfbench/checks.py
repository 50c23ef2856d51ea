"""Output checks for the benchmark workloads.

Each check takes one call's output and returns a list of failure reasons;
an empty list means the output is correct.  The checks use only numpy and
their own ring arithmetic (coordinates ``a + b*xi`` as integer arrays), so a
defect in the library's ring layer cannot hide a defect in its output.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
HERMITE_TOL = 1e-9
DRIFT_TOL = 1e-8


# ---------------------------------------------------------------------------
# ring constants and exact arithmetic on coordinate arrays


def ring_constants(d: int):
    """(xi, s, t, p, q) for Z[xi]: xi^2 = s*xi + t and Nr(a + b*xi) = a^2 + p*a*b + q*b^2."""
    root = math.sqrt(d)
    if d % 4 == 3:  # -d = 1 (mod 4): xi = (1 + sqrt(-d)) / 2
        return complex(0.5, root / 2.0), 1, -((1 + d) // 4), 1, (1 + d) // 4
    return complex(0.0, root), 0, -d, 0, d


def ring_matmul(x, y, d: int):
    """Exact product of ring matrices given as (A, B) pairs of integer object arrays."""
    _, s, t, _, _ = ring_constants(d)
    (a1, b1), (a2, b2) = x, y
    bb = b1 @ b2
    return a1 @ a2 + t * bb, a1 @ b2 + b1 @ a2 + s * bb


def ring_to_complex(x, d: int) -> np.ndarray:
    xi = ring_constants(d)[0]
    a, b = x
    return a.astype(float) + xi * b.astype(float)


def nearest_ring_coords(z: np.ndarray, d: int):
    """Coordinates of the ring elements nearest to z, valid when z is within
    float noise of ring elements (as the entries of an exact inverse are)."""
    xi = ring_constants(d)[0]
    b = np.rint(z.imag / xi.imag)
    a = np.rint(z.real - b * xi.real)
    return a.astype(np.int64).astype(object), b.astype(np.int64).astype(object)


def transform_coords(transform):
    """(A, B) integer object arrays of a library RingMatrix."""
    a = np.array([[e.a for e in row] for row in transform.entries], dtype=object)
    b = np.array([[e.b for e in row] for row in transform.entries], dtype=object)
    return a, b


def column_norms_exact(x, d: int) -> list[int]:
    _, _, _, p, q = ring_constants(d)
    a, b = x
    return [int(v) for v in (a * a + p * a * b + q * b * b).sum(axis=0)]


def is_unimodular_certified(x, d: int) -> bool:
    """True when x has an exact inverse over the ring, so det(x) is a unit.

    The candidate inverse is the float inverse rounded to the ring; the
    certificate is that the exact product is the identity.
    """
    n = x[0].shape[0]
    try:
        inv = np.linalg.inv(ring_to_complex(x, d))
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(inv)):
        return False
    pa, pb = ring_matmul(x, nearest_ring_coords(inv, d), d)
    eye = np.eye(n, dtype=np.int64).astype(object)
    return bool(np.all(pa == eye) and np.all(pb == 0))


# ---------------------------------------------------------------------------
# algebraic LLL


def _voronoi_relevant(d: int) -> list[complex]:
    """Voronoi-relevant vectors of the ring lattice, one of each +- pair."""
    xi = ring_constants(d)[0]
    return [1.0 + 0j, xi] + ([xi - 1.0] if d % 4 == 3 else [])


def _in_zero_cell(mu: np.ndarray, d: int, tol: float = 1e-9) -> bool:
    """True when 0 is a nearest ring element to every entry of mu."""
    for v in _voronoi_relevant(d):
        proj = 2.0 * (mu * np.conj(v)).real
        if np.any(np.abs(proj) > abs(v) ** 2 + tol):
            return False
    return True


def alll_output(matrix: np.ndarray, d: int, delta: float, rep, exact=None) -> list[str]:
    """Check one alll_reduce report against its input basis.

    exact is the (A, B) coordinate pair of the input when its entries are
    ring elements, else None.
    """
    reasons = []
    n = matrix.shape[0]
    reduced = np.asarray(rep.reduced.matrix)
    t = transform_coords(rep.transform)
    if t[0].shape != (n, n):
        return [f"transform has shape {t[0].shape}, expected {(n, n)}"]
    if not is_unimodular_certified(t, d):
        reasons.append("transform is not unimodular")
    drift = float(np.linalg.norm(matrix @ ring_to_complex(t, d) - reduced))
    if not drift <= DRIFT_TOL * float(np.linalg.norm(reduced)):
        reasons.append(f"basis @ T differs from the reduced basis by {drift:.3g}")

    r = np.linalg.qr(reduced, mode="r")
    diag2 = np.abs(np.diag(r)) ** 2
    mu = (r / np.diag(r)[:, None])[np.triu_indices(n, 1)]
    if not _in_zero_cell(mu, d):
        reasons.append("reduced basis is not size-reduced")
    lhs = delta * diag2[:-1]
    rhs = diag2[1:] + np.abs(np.diag(r, 1)) ** 2
    if np.any(lhs > rhs + 1e-9 * lhs):
        reasons.append(f"Lovasz condition fails at delta={delta}")

    drop = -sum(math.log(x) for x in rep.potential_ratios)
    budget = 2.0 * drop / math.log(1.0 / delta) + n - 1 + 1e-6
    if rep.swaps > budget:
        reasons.append(f"{rep.swaps} swaps exceed the potential budget {budget:.1f}")

    checks = list(rep.bound_checks.values())
    if d in (1, 2, 3, 7, 11):
        bad = [c.name for c in checks if c.skipped or not c.passed]
        if bad or not checks:
            reasons.append(f"Euclidean bound checks failed or skipped: {bad}")
    elif not all(c.skipped for c in checks):
        reasons.append("non-Euclidean ring has bound checks that were not skipped")

    float_norms = [round(float(v)) for v in np.sum(np.abs(reduced) ** 2, axis=0)]
    if exact is None:
        if rep.norms_squared_exact is not None:
            reasons.append("float basis reported exact norms")
    else:
        want = column_norms_exact(ring_matmul(exact, t, d), d)
        if rep.norms_squared_exact != want:
            reasons.append(f"exact norms {rep.norms_squared_exact} != recomputed {want}")
        if want != float_norms:
            reasons.append("exact norms differ from the rounded float norms")
    return reasons


# ---------------------------------------------------------------------------
# Hermite CDF


def hermite_call(data: dict, ds, trials: int) -> list[str]:
    """Every ring present, each with `trials` sorted factors in (0, sqrt 2]."""
    got = {ring.d: np.asarray(v) for ring, v in data.items()}
    if sorted(got) != sorted(ds):
        return [f"rings {sorted(got)} != {sorted(ds)}"]
    reasons = []
    for d, v in got.items():
        if v.shape != (trials,) or not np.all(np.isfinite(v)) or np.any(v <= 0):
            reasons.append(f"d={d}: malformed factors")
        elif np.any(np.diff(v) < 0):
            reasons.append(f"d={d}: factors not sorted")
        elif v.max() > SQRT2 + HERMITE_TOL:
            reasons.append(f"d={d}: Hermite factor {v.max():.12g} > sqrt(2)")
    return reasons


def hermite_means(means_by_det_phi) -> list[str]:
    """Ring means, ordered by det(Phi), must fall strictly."""
    m = list(means_by_det_phi)
    if all(m[i] > m[i + 1] for i in range(len(m) - 1)):
        return []
    return [f"ring means not strictly falling in det(Phi): {[round(x, 4) for x in m]}"]


# ---------------------------------------------------------------------------
# compute-and-forward experiment rows


def cf_rows(rows, snrs, strategies) -> list[str]:
    """alll never loses rank; the SVP oracle's mean rate is never below alll's.

    Row layout follows experiments.CF_CSV_HEADER.
    """
    if len(rows) != len(snrs) * len(strategies):
        return [f"{len(rows)} rows, expected {len(snrs) * len(strategies)}"]
    by = {(r[0], r[1]): r for r in rows}
    reasons = []
    for snr in snrs:
        alll, svp = by.get(("alll", snr)), by.get(("svp", snr))
        if alll is None or svp is None:
            reasons.append(f"missing alll or svp row at {snr} dB")
            continue
        if alll[7] != 0 or alll[8] != 0:
            reasons.append(f"alll rank failure at {snr} dB: ring {alll[7]}, field {alll[8]}")
        if not svp[3] >= alll[3] - 1e-9:
            reasons.append(f"svp rate {svp[3]:.6g} < alll rate {alll[3]:.6g} at {snr} dB")
    return reasons
