"""Byte-level pins of CLI outputs recorded with alglat 0.1.0.

Refactors of the reduction, enumeration and compute-and-forward layers must
leave these exact: the cf-experiment CSV (floats in its .10g format) and the
integer parts of reduce/svp on the golden rank-2 bases.
"""

import hashlib
import json

import numpy as np
import pytest

from alglat.cli import main
from alglat.lattices import ComplexBasis, basis_to_json
from alglat.rings import ring_new

CF_CSV_SHA256 = {
    1: "787d24a246a6ec9026e82d5fcffa234351a34570bffabe10b6faf586a0e71a86",
    3: "12710d520ddd38732af3921cde2ee05dd1e971bc1064495bcde797b5345bc307",
}

GOLDEN = {
    3: {
        "rlll": [[-1, 1, 1, 0], [1, -1, 0, 0], [0, -1, -1, 0], [0, 1, 1, 1]],
        "alll": [[[-1, 0], [0, 0]], [[1, 0], [1, 0]]],
        "svp": ([[1, 0], [-1, 0]], 11),
    },
    5: {
        "rlll": [[-1, 2, -1, -2], [2, 1, -1, 3], [1, 1, -1, 1], [0, -1, 1, 0]],
        "alll": [[[1, 0], [-1, 0]], [[0, 0], [1, 0]]],
        "svp": ([[-1, 1], [2, 0]], 28),
    },
}


def golden_basis(d):
    ring = ring_new(d)
    xi = ring.xi
    if d == 3:
        m = [[4 + xi, 1 + 4 * xi], [-1 + 5 * xi, 1 + 2 * xi]]
    else:
        m = [[2 + 3 * xi, 8 + xi], [2 + xi, 2 + 0 * xi]]
    return ComplexBasis(np.array(m), ring)


def run_cli(tmp_path, argv):
    out = tmp_path / "out"
    main(argv + ["--out", str(out)])
    return out.read_bytes()


@pytest.mark.parametrize("d", sorted(CF_CSV_SHA256))
def test_cf_experiment_csv_bytes(tmp_path, d):
    cfg = {
        "ring": f"d={d}",
        "n": 2,
        "snr_db": [0, 20, 40],
        "trials": 10,
        "strategies": ["alll", "rlll", "svp", "best_single"],
        "seed": 42,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    data = run_cli(tmp_path, ["cf-experiment", "--config", str(path)])
    assert hashlib.sha256(data).hexdigest() == CF_CSV_SHA256[d]


@pytest.mark.parametrize("d", sorted(GOLDEN))
def test_golden_integer_outputs(tmp_path, d):
    path = tmp_path / "basis.json"
    path.write_text(basis_to_json(golden_basis(d)))
    for alg in ("rlll", "alll"):
        report = json.loads(run_cli(tmp_path, ["reduce", "--basis", str(path), "--algorithm", alg]))
        assert report["transform"] == GOLDEN[d][alg]
    res = json.loads(run_cli(tmp_path, ["svp", "--basis", str(path)]))
    assert (res["coefficient"], res["enumerated_nodes"]) == GOLDEN[d]["svp"]
