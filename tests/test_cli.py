import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alglat
from alglat.cli import main
from alglat.experiments import (
    CF_CSV_HEADER,
    cf_experiment,
    hermite_cdf,
    hermite_cdf_rows,
    write_csv,
)
from alglat.lattices import ComplexBasis, basis_to_json
from alglat.reduction import alll_reduce
from alglat.rings import ring_new

RING3 = ring_new(3)
RING5 = ring_new(5)
CONFIG = {"ring": "d=1", "n": 2, "snr_db": [10], "trials": 2, "strategies": ["alll"], "seed": 1}


@pytest.fixture
def golden_basis_file(tmp_path):
    w = RING3.xi
    B = ComplexBasis(np.array([[4 + w, 1 + 4 * w], [-1 + 5 * w, 1 + 2 * w]]), RING3)
    path = tmp_path / "basis.json"
    path.write_text(basis_to_json(B))
    return path


@pytest.fixture
def noneuclid_basis_file(tmp_path):
    xi = RING5.xi
    B = ComplexBasis(np.array([[2 + 3 * xi, 8 + xi], [2 + xi, 2 + 0 * xi]]), RING5)
    path = tmp_path / "basis5.json"
    path.write_text(basis_to_json(B))
    return path


class TestExperiments:
    def test_hermite_values_bounded(self):
        data = hermite_cdf([ring_new(1), ring_new(3)], trials=300, seed=9)
        for vals in data.values():
            assert vals.max() <= math.sqrt(2) + 1e-9
            assert np.all(np.diff(vals) >= 0)  # sorted

    def test_hermite_deterministic(self):
        a = hermite_cdf_rows([ring_new(1)], trials=120, seed=3)
        b = hermite_cdf_rows([ring_new(1)], trials=120, seed=3)
        assert a == b

    def test_hermite_trials_validation(self):
        with pytest.raises(ValueError):
            hermite_cdf([ring_new(1)], trials=0, seed=0)
        with pytest.raises(ValueError):
            hermite_cdf([ring_new(1)], trials=99, seed=0)

    def test_cf_experiment_schema_and_failures(self):
        rows = cf_experiment(
            ring_new(1), 2, [10.0, 25.0], trials=40, strategies=["alll", "best_single"], seed=5
        )
        assert len(rows) == 4
        by_key = {(r[0], r[1]): r for r in rows}
        # the unimodular scheme never rank-fails, over the ring or the field
        assert by_key[("alll", 10.0)][7] == 0.0
        assert by_key[("alll", 25.0)][8] == 0.0
        # stacked best equations do fail over F_5 at high SNR
        assert by_key[("best_single", 25.0)][8] > 0.0

    def test_cf_experiment_swap_ordering(self):
        rows = cf_experiment(
            ring_new(3), 8, [20.0], trials=6, strategies=["alll", "rlll"], seed=6
        )
        swaps = {r[0]: r[5] for r in rows}
        assert swaps["alll"] < swaps["rlll"]

    def test_cf_experiment_byte_identical(self):
        outs = []
        for _ in range(2):
            rows = cf_experiment(
                ring_new(1), 2, [15.0], trials=10, strategies=["alll"], seed=11
            )
            buf = io.StringIO()
            write_csv(rows, CF_CSV_HEADER, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_cf_experiment_no_field_columns_without_morphism(self):
        rows = cf_experiment(
            ring_new(5), 2, [10.0], trials=5, strategies=["best_single"], seed=7
        )
        assert rows[0][8] is None
        buf = io.StringIO()
        write_csv(rows, CF_CSV_HEADER, buf)
        assert buf.getvalue().splitlines()[1].endswith(",")


class TestCli:
    def test_reduce_gauss_golden(self, golden_basis_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "reduce", "--basis", str(golden_basis_file), "--algorithm", "gauss",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["norms_squared_exact"] == [16, 28]
        assert report["events"] == ["swap", "size_reduction", "swap"]

    def test_reduce_alll_identity_zero_swaps(self, tmp_path):
        B = ComplexBasis(np.eye(2, dtype=complex), ring_new(1))
        path = tmp_path / "id.json"
        path.write_text(basis_to_json(B))
        out = tmp_path / "r.json"
        code = main(["reduce", "--basis", str(path), "--algorithm", "alll", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["swaps"] == 0

    @pytest.mark.parametrize("scale", (1e80, 1e-150))
    def test_reduce_rescaled_basis_passes_its_checks(self, tmp_path, scale):
        """|det B| overflowed or underflowed here, so od_bound read NaN and
        the exit code was 2."""
        rng = np.random.default_rng(0)
        m = math.sqrt(0.5) * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        path = tmp_path / "scaled.json"
        path.write_text(basis_to_json(ComplexBasis(m * scale, ring_new(1))))
        out = tmp_path / "r.json"
        code = main(["reduce", "--basis", str(path), "--algorithm", "alll", "--out", str(out)])
        checks = json.loads(out.read_text())["bound_checks"]
        assert code == 0
        assert all(c["passed"] and 0.0 < c["rhs"] < math.inf for c in checks.values())

    def test_reduce_noneuclidean_warning_exit_code(self, noneuclid_basis_file, tmp_path):
        out = tmp_path / "r5.json"
        code = main([
            "reduce", "--basis", str(noneuclid_basis_file), "--algorithm", "gauss",
            "--out", str(out),
        ])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["norms_squared_exact"] == [58, 61]
        assert report["warnings"]

    def test_reduce_ring_mismatch(self, golden_basis_file):
        assert main([
            "reduce", "--basis", str(golden_basis_file), "--ring", "d=1",
        ]) == 1

    def test_reduce_missing_file(self, tmp_path):
        assert main(["reduce", "--basis", str(tmp_path / "nope.json")]) == 1

    def test_reduce_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ring": "d=3"}')
        assert main(["reduce", "--basis", str(bad)]) == 1

    def test_svp_golden(self, noneuclid_basis_file, tmp_path):
        out = tmp_path / "svp.json"
        code = main(["svp", "--basis", str(noneuclid_basis_file), "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        assert res["norm_squared"] == pytest.approx(20.0, abs=1e-6)

    def test_hermite_cdf_csv(self, tmp_path):
        out = tmp_path / "h.csv"
        code = main([
            "hermite-cdf", "--ring", "d=1", "--ring", "eisenstein",
            "--trials", "120", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ring,index,hermite_factor"
        assert len(lines) == 241
        assert all(float(l.split(",")[2]) <= math.sqrt(2) + 1e-9 for l in lines[1:])

    def test_hermite_cdf_zero_trials(self):
        assert main(["hermite-cdf", "--ring", "d=1", "--trials", "0", "--seed", "1"]) == 1

    def test_hermite_cdf_repeated_ring(self, tmp_path, capsys):
        """d=1 and gaussian are one ring; its second block would overwrite
        the first and drop half the rows."""
        out = tmp_path / "h.csv"
        code = main([
            "hermite-cdf", "--ring", "d=1", "--ring", "gaussian",
            "--trials", "100", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert "only once" in capsys.readouterr().err
        assert not out.exists()

    def test_cf_rate(self, tmp_path):
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps({"h": [[-0.4001, 1.0937], [-0.9278, 1.8151]]}))
        out = tmp_path / "rate.json"
        code = main([
            "cf-rate", "--channel", str(ch), "--ring", "gaussian",
            "--snr-db", "25", "--strategy", "alll", "--out", str(out),
        ])
        assert code == 0
        res = json.loads(out.read_text())
        assert res["rates"][0] == pytest.approx(5.5085, abs=1e-3)

    def test_cf_experiment_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ring": "d=1", "n": 2, "snr_db": [10, 20], "trials": 8,
            "strategies": ["alll"], "seed": 123,
        }))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["cf-experiment", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rank_failure_cmd(self, tmp_path):
        out = tmp_path / "rf.csv"
        code = main([
            "rank-failure", "--ring", "gaussian", "--n", "2", "--snr-db", "25",
            "--trials", "60", "--seed", "4", "--strategy", "alll", "--out", str(out),
        ])
        assert code == 0
        line = out.read_text().splitlines()[1].split(",")
        assert float(line[3]) == 0.0 and float(line[4]) == 0.0

    @pytest.mark.parametrize(
        "command, flag, content, extra, says",
        [
            ("reduce", "--basis", {"ring": "d=1", "n": 1, "columns": [[5]]}, [], "basis"),
            ("svp", "--basis", {"ring": "d=1", "n": 1, "columns": [[["a", "b"]]]}, [], "basis"),
            ("cf-rate", "--channel", {"h": 5}, ["--ring", "d=1", "--snr-db", "10"], "channel"),
            (
                "cf-rate", "--channel", {"h": [[1, 0], [0, 1]]},
                ["--ring", "d=1", "--snr-db", "4000"], "4000",
            ),
            ("cf-experiment", "--config", {**CONFIG, "n": None}, [], "config"),
            ("cf-experiment", "--config", {**CONFIG, "strategies": "alll"}, [], "'strategies'"),
            ("cf-experiment", "--config", {**CONFIG, "strategies": [["alll"]]}, [], "'strategies'"),
            ("cf-experiment", "--config", {**CONFIG, "modulus": 5}, [], "malformed config: 'modulus'"),
            (
                "cf-experiment", "--config", {**CONFIG, "modulus": ["a", 1]}, [],
                "malformed config: 'modulus'",
            ),
            ("cf-experiment", "--config", {**CONFIG, "strategies": ["alll", "alll"]}, [], "only once"),
            ("cf-experiment", "--config", {**CONFIG, "strategies": []}, [], "at least one strategy"),
            ("cf-experiment", "--config", {**CONFIG, "snr_db": []}, [], "at least one SNR point"),
            ("cf-experiment", "--config", {**CONFIG, "out": 5}, [], "malformed config: 'out'"),
            ("cf-experiment", "--config", {**CONFIG, "out": ["x"]}, [], "malformed config: 'out'"),
            (
                "reduce", "--basis", '{"ring": "d=1", "n": 1e400, "columns": [[[1, 0]]]}', [],
                "malformed basis file",
            ),
            (
                "reduce", "--basis", {"ring": "d=1", "n": 1, "columns": [[[10**400, 0]]]}, [],
                "malformed basis file",
            ),
            ("reduce", "--basis", {"ring": "d=1", "n": 1, "columns": [[[1]]]}, [], "malformed basis file"),
            ("cf-rate", "--channel", {"h": [[10**400, 0]]}, ["--ring", "d=1", "--snr-db", "10"],
             "malformed channel file"),
            ("cf-rate", "--channel", {"h": {"a": 1}}, ["--ring", "d=1", "--snr-db", "10"],
             "malformed channel file"),
            ("cf-experiment", "--config", json.dumps(CONFIG).replace('"n": 2', '"n": 1e400'), [],
             "malformed config"),
            ("cf-experiment", "--config", json.dumps(CONFIG).replace('"seed": 1', '"seed": 1e400'), [],
             "malformed config"),
        ],
        ids=["basis-bare-number", "basis-string-pair", "channel-not-a-list", "snr-overflow",
             "config-null-n", "config-strategies-string", "config-strategies-nested",
             "config-modulus-number", "config-modulus-string-entry",
             "config-strategies-repeated", "config-strategies-empty", "config-snr-empty",
             "config-out-number", "config-out-list", "basis-n-1e400", "basis-entry-10**400",
             "basis-short-pair", "channel-entry-10**400", "channel-dict", "config-n-1e400",
             "config-seed-1e400"],
    )
    def test_malformed_input_is_an_error(self, tmp_path, capsys, command, flag, content, extra, says):
        """Malformed files and values end in 'error: ...' and exit 1, not a
        traceback.  A str content is the file's text as it stands."""
        path = tmp_path / "input.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        assert main([command, flag, str(path), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err

    @pytest.mark.parametrize(
        "command, flag, content, key",
        [
            ("reduce", "--basis", {"ring": "d=1", "n": 1.9, "columns": [[[1, 0]]]}, "'n'"),
            ("reduce", "--basis", {"ring": "d=1", "n": True, "columns": [[[1, 0]]]}, "'n'"),
            ("reduce", "--basis", {"ring": "d=1", "n": 1.0, "columns": [[[1, 0]]]}, "'n'"),
            ("cf-experiment", "--config", {**CONFIG, "n": 2.9}, "'n'"),
            ("cf-experiment", "--config", {**CONFIG, "trials": 1.9}, "'trials'"),
            ("cf-experiment", "--config", {**CONFIG, "seed": 1.5}, "'seed'"),
            ("cf-experiment", "--config", {**CONFIG, "n": 2.9, "trials": 1.9, "seed": 1.5}, "'n'"),
            ("cf-experiment", "--config", {**CONFIG, "trials": True}, "'trials'"),
            ("cf-experiment", "--config", {**CONFIG, "seed": False}, "'seed'"),
        ],
        ids=["basis-n-float", "basis-n-bool", "basis-n-integral-float", "config-n-float",
             "config-trials-float", "config-seed-float", "config-all-float",
             "config-trials-bool", "config-seed-bool"],
    )
    def test_non_integer_count_is_malformed(self, tmp_path, capsys, command, flag, content, key):
        """A count or seed that is not a JSON integer is refused, not
        truncated: a float n of 1.9 was read as 1, and true as 1."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        assert main([command, flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and key in err and err.count("\n") == 1

    @pytest.mark.parametrize("algorithm", ("alll", "rlll"))
    def test_reduce_nan_delta_is_an_error(self, golden_basis_file, capsys, algorithm):
        code = main([
            "reduce", "--basis", str(golden_basis_file), "--algorithm", algorithm,
            "--delta", "nan",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: delta must be in")

    def test_rank_failure_no_relays(self, capsys):
        code = main([
            "rank-failure", "--ring", "gaussian", "--n", "0", "--snr-db", "25",
            "--trials", "2", "--seed", "4",
        ])
        assert code == 1
        assert "n must be >= 1" in capsys.readouterr().err

    def test_invalid_strategy_ring_combo(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ring": "d=1", "n": 2, "snr_db": [10], "trials": 2,
            "strategies": ["bkz"], "seed": 1,
        }))
        assert main(["cf-experiment", "--config", str(cfg)]) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ring", ("d=1", "d=3"))
def test_reduce_huge_entry(tmp_path, capsys, ring):
    """Over d = 3 the exact-entry check raised OverflowError and reduce
    ended in a traceback; over d = 1 the norm read inf and first_vs_det
    failed (exit 2).  The drift check's tolerance overflowed here too."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ring": ring, "n": 1, "columns": [[[0.0, 1.6e308]]]}))
    out = tmp_path / "r.json"
    assert main(["reduce", "--basis", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["norms"] == [1.6e308] and report["norms_squared"] == [math.inf]
    assert all(c["passed"] for c in report["bound_checks"].values())
    assert "error" not in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reduce_rlll_huge_entries_are_silent(tmp_path):
    """rlll printed "overflow encountered in dot" when a squared column norm
    of the reduced embedding overflowed; inf is the value written."""
    cols = [[[1e200, 0.0], [0.0, 3e199]], [[2e199, 1e199], [1e200, 0.0]]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ring": "d=1", "n": 2, "columns": cols}))
    out = tmp_path / "r.json"
    assert main(["reduce", "--basis", str(path), "--algorithm", "rlll", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["norms_squared"] == [math.inf] * 4 and report["swaps"] == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_svp_huge_basis(tmp_path):
    """The norm read inf above about 1.3e154, and its square raised
    OverflowError once it was finite, so svp ended in a traceback."""
    cols = [[[1.0, 0.0], [0.0, 0.3]], [[0.2, 0.1], [1.0, 0.0]]]
    norms = []
    for scale in (1.0, 2.0**680):
        path = tmp_path / "b.json"
        scaled = [[[x * scale for x in z] for z in col] for col in cols]
        path.write_text(json.dumps({"ring": "d=1", "n": 2, "columns": scaled}))
        out = tmp_path / "s.json"
        assert main(["svp", "--basis", str(path), "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        norms.append((res["norm"], res["norm_squared"], res["enumerated_nodes"]))
    (n1, sq1, nodes1), (n2, sq2, nodes2) = norms
    assert (n2, sq2, nodes2) == (n1 * 2.0**680, math.inf, nodes1)


@pytest.mark.parametrize("scale", (1.0, 1e200, 1e-200))
def test_drift_check_refuses_a_tampered_basis(scale):
    """The tolerance 1e-8 * ||B|| overflowed to inf above ||B|| ~ 1.3e154,
    so the check passed whatever the drift."""
    rng = np.random.default_rng(8)
    m = scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    basis = ComplexBasis(m, RING3)
    report = alll_reduce(basis)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report.verify()
        tampered = report.reduced.matrix.copy()
        tampered[0, 0] += 1e-6 * abs(tampered[0, 0])
        bad = dataclasses.replace(report, reduced=ComplexBasis(tampered, RING3))
        with pytest.raises(RuntimeError, match="drifted"):
            bad.verify()


@pytest.mark.parametrize(
    "args, code, says",
    [
        (
            ["rank-failure", "--ring", "gaussian", "--n", "2", "--snr-db", "25", "--trials", "1",
             "--seed", "1", "--modulus", "1000000000,3"],
            0, "best_single,25,1,",
        ),
        (
            ["hermite-cdf", "--ring", "d=1000000000000000000000000000001", "--trials", "100",
             "--seed", "1"],
            1, "error: bad ring spec",
        ),
    ],
    ids=["prime-modulus-norm-1e18", "ring-d-1e30"],
)
def test_searches_on_user_input_end(args, code, says):
    """The modulus norm 10^18 + 9 was tested for primality by trial division,
    and d = 10^30 + 1 for square-freeness: neither ended within 10 s.  Each
    now takes well under a second; the subprocess timeout is generous."""
    src = str(Path(alglat.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "alglat.cli", *args],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == code
    assert says in (out.stdout if code == 0 else out.stderr)
    assert "Traceback" not in out.stderr


HUGE = str(10**400)


@pytest.mark.parametrize(
    "args, config, says",
    [
        (["cf-experiment", "--config"], {"trials": 10**400}, "points x trials must be at most"),
        (["cf-experiment", "--config"], {"n": 10**6}, "n must be at most"),
        (
            ["rank-failure", "--ring", "gaussian", "--n", "2", "--snr-db", "25", "--trials", HUGE,
             "--seed", "1"],
            None, "points x trials must be at most",
        ),
        (
            ["hermite-cdf", "--ring", "d=1", "--trials", HUGE, "--seed", "1"],
            None, "points x trials must be at most",
        ),
    ],
    ids=["config-trials-1e400", "config-n-1e6", "rank-failure-trials-1e400", "hermite-trials-1e400"],
)
def test_huge_counts_are_refused_at_once(args, config, says, tmp_path, capsys):
    """A config "trials" of 10**400 ran without end, and "n": 10**6 drew
    n**2 channel gains per trial; the harnesses now refuse counts above
    their ceilings before drawing, with one error line, within a second."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**CONFIG, **config}))
        args = [*args, str(path)]
    t0 = time.perf_counter()
    code = main(args)
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert says in err
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# malformed input files, as a property

#: JSON values no input field accepts at any depth: null, objects, non-finite
#: floats and integers beyond the float range
BAD_LEAVES = (
    st.none()
    | st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=2)
    | st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -(10**400)])
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
#: a bad leaf, or a list with a poisoned value among any JSON values
POISONED = st.recursive(
    BAD_LEAVES,
    lambda inner: st.builds(
        lambda bad, rest, at: rest[:at] + [bad] + rest[at:],
        inner, st.lists(JSON_VALUES, max_size=2), st.integers(0, 2),
    ),
    max_leaves=4,
)
#: a valid document of each input file, and the command line that reads it
VALID_INPUTS = {
    "basis": (
        {"ring": "d=1", "n": 1, "columns": [[[1.0, 0.5]]]},
        ["reduce", "--algorithm", "rlll", "--basis"], [],
    ),
    "channel": (
        {"h": [[1.0, 0.0], [0.5, -0.5]]},
        ["cf-rate", "--channel"], ["--ring", "d=1", "--snr-db", "10"],
    ),
    "config": (CONFIG, ["cf-experiment", "--config"], []),
}


def node_paths(value, path=()):
    """The path, as keys and list indices, of every node of a JSON value."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for k, v in items:
        yield from node_paths(v, path + (k,))


@st.composite
def malformed_inputs(draw):
    """A valid document with one node, at any depth, poisoned or (a field)
    deleted, or a poisoned value that is not an object in its place; and
    the command line that reads it."""
    valid, command, extra = VALID_INPUTS[draw(st.sampled_from(sorted(VALID_INPUTS)))]
    path = draw(st.sampled_from(list(node_paths(valid))))
    if not path:
        return draw(POISONED.filter(lambda v: not isinstance(v, dict))), command, extra
    doc = copy.deepcopy(valid)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    elif path[-1] == "seed":
        # a seed beyond the float range is still a valid seed
        parent[path[-1]] = draw(POISONED.filter(lambda v: v != 10**400))
    else:
        parent[path[-1]] = draw(POISONED)
    return doc, command, extra


@settings(max_examples=300, deadline=None)
@given(malformed_inputs())
def test_malformed_json_is_one_error_line(case):
    """main returns 1 and prints one 'error:' line, and no exception escapes
    it, for any malformed basis, channel or config file."""
    doc, command, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*command, str(path), *extra])
    assert code == 1
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
