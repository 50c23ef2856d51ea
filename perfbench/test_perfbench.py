"""Self-test of the benchmark: corrupted outputs are counted as failed, work
counts repeat for a seed, and BENCHMARK.json names the metrics run.py prints.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def ready(name, seed=0):
    w = workloads.WORKLOADS[name](seed)
    w.setup(w.make_input(workloads.WARMUP_INDEX))
    return w


def tally_with(w, index, corrupt):
    """Run one call through the benchmark loop with its output corrupted."""
    call = w.call
    w.call = lambda x: corrupt(call(x))
    tally = run.Tally()
    run.run_call(w, index, tally)
    w.call = call
    return tally


def test_alll_non_unimodular_transform_is_failed():
    w = ready("alll-reduce")
    x = w.make_input(0)
    rep = w.call(x)
    assert w.check(x, rep) == []

    def double_first_column(rep):
        cols = rep.transform.columns()
        cols[0] = tuple(2 * e for e in cols[0])
        bad = type(rep.transform).from_columns(cols, rep.transform.ring)
        return dataclasses.replace(rep, transform=bad)

    assert any("not unimodular" in r for r in w.check(x, double_first_column(rep)))
    tally = tally_with(w, 0, double_first_column)
    assert (tally.attempted, tally.failed, tally.items) == (1, 1, 0)


def test_alll_exact_norm_mismatch_is_failed():
    w = ready("alll-reduce")
    x = w.make_input(3)  # every fourth basis of rank 8 or 16 has exact entries
    assert x[2] is not None
    rep = w.call(x)
    assert w.check(x, rep) == []
    bad = dataclasses.replace(rep, norms_squared_exact=[v + 1 for v in rep.norms_squared_exact])
    assert any("exact norms" in r for r in w.check(x, bad))


def test_hermite_factor_above_sqrt2_is_failed():
    w = ready("hermite-rank2")
    seed = w.make_input(0)
    out = w.call(seed)
    assert w.check(seed, out) == []

    def inflate(out):
        out = {ring: np.array(v) for ring, v in out.items()}
        first = next(iter(out))
        out[first][-1] = np.sqrt(2.0) + 1e-6
        return out

    assert any("> sqrt(2)" in r for r in w.check(seed, inflate(out)))
    tally = tally_with(w, 0, inflate)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_hermite_means_out_of_order_fail_the_run():
    from alglat import ring_new

    assert checks.hermite_means([0.93, 0.81, 0.64, 0.62, 0.56]) == []
    assert checks.hermite_means([0.93, 0.81, 0.60, 0.62, 0.56])
    w = workloads.HermiteRank2(0)
    w.rings = [ring_new(d) for d in w.D]
    tally = run.Tally()
    tally.attempted, tally.done = 3, [500] * 3
    run.fail_run(w, tally)  # nothing pooled: the run fails as a whole
    assert tally.failed == 3 and tally.items == 0


@pytest.mark.parametrize("column", [7, 8])
def test_cf_alll_rank_failure_is_failed(column):
    w = ready("cf-network")
    seed = w.make_input(0)
    rows = w.call(seed)
    assert w.check(seed, rows) == []

    def alll_loses_rank(rows):
        rows = [list(r) for r in rows]
        for r in rows:
            if r[0] == "alll":
                r[column] = 1.0
        return rows

    assert any("alll rank failure" in r for r in w.check(seed, alll_loses_rank(rows)))
    tally = tally_with(w, 0, alll_loses_rank)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_cf_svp_below_alll_is_failed():
    w = ready("cf-network")
    seed = w.make_input(1)
    rows = [list(r) for r in w.call(seed)]
    for r in rows:
        if r[0] == "svp":
            r[3] = -1.0
    assert any("svp rate" in r for r in w.check(seed, rows))


@pytest.mark.parametrize("name,prefix", [("alll-reduce", 6), ("cf-network", 2)])
def test_work_counts_repeat_for_a_seed(name, prefix):
    def counts(seed):
        w = workloads.WORKLOADS[name](seed)
        w.prefix = prefix
        tally, metrics, notes, _ = run.traced_run(w, 1)
        assert tally.failed == 0
        return notes["work_counts"], {k: v["value"] for k, v in metrics.items() if "calls" in k}

    first = counts(5)
    assert first[0] and first == counts(5)
    assert first != counts(6)


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_restores_the_library():
    import alglat.cf
    import alglat.reduction
    from alglat.rings import RingElem

    before = (alglat.cf.alll_reduce, alglat.reduction.quantize, RingElem.__mul__)
    tracer = spans.Tracer()
    tracer.install()
    assert alglat.cf.alll_reduce is not before[0]
    assert alglat.cf.alll_reduce is alglat.svp.alll_reduce is alglat.reduction.alll_reduce
    tracer.uninstall()
    assert (alglat.cf.alll_reduce, alglat.reduction.quantize, RingElem.__mul__) == before
