"""The benchmark workloads.

A workload turns the run seed into a deterministic input for each call index,
does the library's one-time set-up, makes the call being timed, checks its
output and renders the output for the digest.  Inputs depend only on (seed,
index), so a run of any length sees the same inputs in the same order.

Calls go through the library's module attributes (``experiments.hermite_cdf``,
``reduction.alll_reduce``) at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

import checks

#: call index whose input feeds the warm-up call in set-up
WARMUP_INDEX = 2**31 - 1
DELTA = 0.99


def _fmt(x) -> str:
    """Float format of the library's CSV writer, so digests ignore last-bit noise."""
    return format(x, ".10g") if isinstance(x, float) else str(x)


def _quiet_non_euclidean():
    from alglat.reduction import NonEuclideanRingWarning

    warnings.simplefilter("ignore", NonEuclideanRingWarning)


class Workload:
    name: str
    #: work units per call: Hermite trials, bases or network trials
    items_per_call: int
    #: calls in one cycle of the input mix
    cycle: int
    #: size of the fixed input set a timed run passes over; a whole number of
    #: cycles, and at least 100 so that ten calls lie beyond p90
    inputs: int
    #: calls whose outputs form the digest and the traced run's input set
    prefix: int

    def __init__(self, seed: int):
        self.seed = seed

    def _child_seed(self, index: int) -> int:
        return int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def setup(self, warm_input) -> None:
        """Library set-up: imports, rings, then one warm-up call."""
        raise NotImplementedError

    def make_input(self, index: int):
        raise NotImplementedError

    def call(self, x):
        raise NotImplementedError

    def check(self, x, out) -> list[str]:
        raise NotImplementedError

    def digest_line(self, x, out) -> str:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks on the whole run's outputs; a failure fails every call."""
        return []

    def layer_extras(self) -> dict:
        """Per-layer metrics read from outputs rather than spans."""
        return {}


class HermiteRank2(Workload):
    """Acceptance criterion 7: Hermite factors of random rank-2 lattices.

    One call runs the harness on one ring; calls cycle through the rings.
    """

    name = "hermite-rank2"
    D = (1, 2, 3, 7, 11)
    TRIALS = 100  # the harness minimum; one call is 100 rank-2 reductions
    items_per_call = TRIALS
    cycle = len(D)
    inputs = 30 * len(D)
    prefix = 20 * len(D)

    def __init__(self, seed):
        super().__init__(seed)
        self._sums = {d: 0.0 for d in self.D}
        self._counts = {d: 0 for d in self.D}

    def setup(self, warm_input):
        from alglat import experiments, rings

        self.experiments = experiments
        self.rings = [rings.ring_new(d) for d in self.D]
        self.call(warm_input)

    def make_input(self, index):
        return index % self.cycle, self._child_seed(index)

    def call(self, x):
        pos, seed = x
        return self.experiments.hermite_cdf([self.rings[pos]], self.TRIALS, seed)

    def check(self, x, out):
        reasons = checks.hermite_call(out, (self.D[x[0]],), self.TRIALS)
        if not reasons:
            for ring, vals in out.items():
                self._sums[ring.d] += float(np.sum(vals))
                self._counts[ring.d] += len(vals)
        return reasons

    def finish(self):
        # ring means are separated by ~0.03 with a per-trial spread of ~0.2, so
        # the order is tested on the pooled trials of the run, not per call
        by_phi = sorted(self.rings, key=lambda r: r.det_phi)
        if any(self._counts[r.d] == 0 for r in by_phi):
            return ["no checked trials to pool"]
        return checks.hermite_means(self._sums[r.d] / self._counts[r.d] for r in by_phi)

    def digest_line(self, x, out):
        return ";".join(
            f"d={ring.d}:" + ",".join(_fmt(float(v)) for v in vals) for ring, vals in out.items()
        )


class AlllReduce(Workload):
    """One algebraic LLL reduction per generated basis at delta = 0.99.

    A cycle of 80 bases holds 62 of rank 8, 17 of rank 16 and 1 of rank 32,
    so the latency median lies well inside the rank-8 group (positions
    0-77.5%) and p90 near the middle of the rank-16 group (77.5-98.75%),
    where the latencies are dense enough for the quantiles to hold still
    from seed to seed.  Every fourth basis of rank 8 and 16 has exact ring
    entries; d cycles through {1, 3, 5}.
    """

    name = "alll-reduce"
    D = (1, 3, 5)
    RANKS = (8,) * 62 + (16,) * 17 + (32,)
    EXACT_COORD = 3  # exact entries have coordinates in [-3, 3]
    items_per_call = 1
    cycle = len(RANKS)
    inputs = 6 * cycle  # every position of the cycle twice with each d
    prefix = cycle

    def setup(self, warm_input):
        from alglat import lattices, reduction, rings

        _quiet_non_euclidean()
        self.lattices, self.reduction = lattices, reduction
        self.rings = {d: rings.ring_new(d) for d in self.D}
        self.call(warm_input)

    def make_input(self, index):
        pos, cyc = index % self.cycle, index // self.cycle
        n = self.RANKS[pos]
        d = self.D[(pos + cyc) % len(self.D)]
        exact = n < 32 and pos % 4 == 3
        rng = np.random.default_rng([self.seed, index])
        if not exact:
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return d, math.sqrt(0.5) * z, None
        xi = checks.ring_constants(d)[0]
        while True:
            a = rng.integers(-self.EXACT_COORD, self.EXACT_COORD + 1, size=(n, n))
            b = rng.integers(-self.EXACT_COORD, self.EXACT_COORD + 1, size=(n, n))
            m = a + xi * b
            # a singular draw spans no rank-n lattice; redraw it
            if np.linalg.matrix_rank(m) == n:
                return d, m, (a.astype(object), b.astype(object))

    def call(self, x):
        d, m, _ = x
        basis = self.lattices.ComplexBasis(m, self.rings[d])
        return self.reduction.alll_reduce(basis, DELTA)

    def check(self, x, rep):
        d, m, exact = x
        return checks.alll_output(m, d, DELTA, rep, exact)

    def digest_line(self, x, rep):
        d, m, exact = x
        norms = np.sum(np.abs(rep.reduced.matrix) ** 2, axis=0)
        line = f"d={d},n={m.shape[0]}:" + ",".join(_fmt(float(v)) for v in norms)
        if exact is not None:
            line += ":" + ",".join(map(str, rep.norms_squared_exact))
        return line


class CfNetwork(Workload):
    """Compute-and-forward trials over Z[i] with four relays and its F_5 map.

    One call is one network trial at one point of the SNR grid; calls cycle
    through the grid.  All four strategies see the same channels.
    """

    name = "cf-network"
    D = 1
    N_RELAYS = 4
    SNR_DB = (10.0, 30.0, 50.0)
    STRATEGIES = ("alll", "rlll", "svp", "best_single")
    items_per_call = 1
    cycle = len(SNR_DB)
    inputs = 40 * cycle
    prefix = 20 * cycle

    def __init__(self, seed):
        super().__init__(seed)
        self._field_ok = {s: [] for s in self.STRATEGIES}

    def setup(self, warm_input):
        from alglat import experiments, rings

        _quiet_non_euclidean()
        self.experiments = experiments
        self.ring = rings.ring_new(self.D)
        self.call(warm_input)

    def make_input(self, index):
        return self.SNR_DB[index % self.cycle], self._child_seed(index)

    def call(self, x):
        snr, seed = x
        return self.experiments.cf_experiment(
            self.ring, self.N_RELAYS, (snr,), 1, self.STRATEGIES, seed
        )

    def check(self, x, rows):
        reasons = checks.cf_rows(rows, (x[0],), self.STRATEGIES)
        if not reasons:
            for r in rows:
                self._field_ok[r[0]].append(1.0 - r[8])
        return reasons

    def layer_extras(self):
        return {
            f"cf.full_rank_ratio.{s}": float(np.mean(v)) if v else 0.0
            for s, v in self._field_ok.items()
        }

    def digest_line(self, x, rows):
        return ";".join(",".join(_fmt(v) for v in r) for r in rows)


WORKLOADS = {w.name: w for w in (HermiteRank2, AlllReduce, CfNetwork)}
