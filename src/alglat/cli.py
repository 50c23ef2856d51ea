"""Command-line front end.

Subcommands: reduce, svp, hermite-cdf, cf-rate, cf-experiment, rank-failure.
Exit codes: 0 success, 1 error, 2 completed with failed bound checks (the
non-Euclidean warning mode).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import experiments
from .cf import STRATEGIES, Channel, design_relay
from .lattices import ComplexBasis, _complex_pair, basis_from_json, basis_to_json, embed
from .reduction import _quiet, alll_reduce, gauss_reduce, real_lll
from .rings import morphism_new, parse_ring
from .svp import EnumerationBudgetError, shortest_vector

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAIL = 2


def _json_dump(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _load_basis(path: str, ring_arg: str | None) -> ComplexBasis:
    with open(path) as f:
        basis = basis_from_json(f.read())
    if ring_arg is not None:
        ring = parse_ring(ring_arg)
        if ring != basis.ring:
            raise ValueError(
                f"ring mismatch: file says d={basis.ring.d}, flag says d={ring.d}"
            )
    return basis


def _cmd_reduce(args) -> int:
    basis = _load_basis(args.basis, args.ring)
    with _quiet():
        if args.algorithm == "gauss":
            report = gauss_reduce(basis)
        elif args.algorithm == "alll":
            report = alll_reduce(basis, delta=args.delta)
        else:
            reduced, transform, swaps = real_lll(embed(basis), delta=args.delta)
            # a squared norm beyond the float range is written as inf
            with np.errstate(over="ignore"):
                norms2 = [float(np.dot(col, col)) for col in reduced.T]
            payload = {
                "algorithm": "rlll",
                "ring": f"d={basis.ring.d}",
                "delta": args.delta,
                "norms_squared": norms2,
                "swaps": swaps,
                "transform": [[int(v) for v in row] for row in transform],
            }
            _json_dump(payload, args.out)
            return EXIT_OK
    report.verify()
    payload = report.as_dict()
    payload["algorithm"] = args.algorithm
    payload["ring"] = f"d={basis.ring.d}"
    payload["reduced_basis"] = json.loads(basis_to_json(report.reduced))
    payload["transform"] = report.transform._pairs()
    _json_dump(payload, args.out)
    if report.bounds_ok() and not report.warnings:
        return EXIT_OK
    return EXIT_BOUND_FAIL


def _cmd_svp(args) -> int:
    basis = _load_basis(args.basis, args.ring)
    res = shortest_vector(basis)
    _json_dump(
        {
            "coefficient": [[e.a, e.b] for e in res.coefficient],
            "norm": res.norm,
            "norm_squared": res.norm_squared,
            "enumerated_nodes": res.enumerated_nodes,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_hermite_cdf(args) -> int:
    rings = [parse_ring(r) for r in args.ring]
    rows = experiments.hermite_cdf_rows(rings, args.trials, args.seed)
    experiments.write_csv(rows, experiments.HERMITE_CSV_HEADER, args.out or sys.stdout)
    return EXIT_OK


def _cmd_cf_rate(args) -> int:
    ring = parse_ring(args.ring)
    with open(args.channel) as f:
        data = json.load(f)
    try:
        h = [_complex_pair(pair) for pair in data["h"]]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed channel file: {exc}") from exc
    ch = Channel.from_db(np.array(h), args.snr_db)
    design = design_relay(ch, ring, args.strategy, delta=args.delta)
    _json_dump(
        {
            "strategy": args.strategy,
            "snr_db": args.snr_db,
            "rates": design.rates,
            "vectors": [[[e.a, e.b] for e in v] for v in design.vectors],
            "swaps": design.swaps,
        },
        args.out,
    )
    return EXIT_OK


def _config_list(cfg: dict, key: str, kinds: tuple) -> list:
    """cfg[key], which must be a JSON list of kinds: a string would iterate
    as characters, and a JSON boolean (a Python bool is an int) is none of
    them."""
    value = cfg[key]
    if not isinstance(value, list) or any(type(v) is bool or not isinstance(v, kinds) for v in value):
        names = " or ".join(k.__name__ for k in kinds)
        raise TypeError(f"{key!r} must be a list of {names}, got {value!r}")
    return value


def _config_int(cfg: dict, key: str) -> int:
    """cfg[key], which must be a JSON integer: int() would truncate a float
    and take a bool as 0 or 1."""
    value = cfg[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def _cmd_cf_experiment(args) -> int:
    with open(args.config) as f:
        cfg = json.load(f)
    try:
        ring = parse_ring(cfg["ring"])
        n, trials, seed = (_config_int(cfg, key) for key in ("n", "trials", "seed"))
        snr_db_list = _config_list(cfg, "snr_db", (int, float))
        strategies = _config_list(cfg, "strategies", (str,))
        modulus = cfg.get("modulus")
        if modulus is not None and not (
            isinstance(modulus, list)
            and len(modulus) == 2
            and all(type(c) is int for c in modulus)
        ):
            raise TypeError(f"'modulus' must be a list of two ints, got {modulus!r}")
        out = cfg.get("out")
        if out is not None and not isinstance(out, str):
            raise TypeError(f"'out' must be a string, got {out!r}")
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    rows = experiments.cf_experiment(
        ring, n, snr_db_list, trials, strategies, seed, modulus=modulus
    )
    experiments.write_csv(rows, experiments.CF_CSV_HEADER, args.out or out or sys.stdout)
    return EXIT_OK


def _cmd_rank_failure(args) -> int:
    ring = parse_ring(args.ring)
    if args.modulus:
        try:
            a, b = (int(x) for x in args.modulus.split(","))
        except ValueError:
            raise ValueError(f"--modulus takes two integers as 'a,b', not {args.modulus!r}") from None
        morphism = morphism_new(ring, ring.elem(a, b))
    else:
        from .cf import default_morphism

        morphism = default_morphism(ring)
    rows = experiments.rank_failure_rows(
        ring, morphism, args.n, args.snr_db, args.trials, args.strategy, args.seed
    )
    experiments.write_csv(rows, experiments.RANK_CSV_HEADER, args.out or sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="alglat",
        description="Lattice reduction over imaginary quadratic integer rings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    red = sub.add_parser("reduce", help="reduce a basis from a JSON file")
    red.add_argument("--basis", required=True, help="basis JSON file")
    red.add_argument("--ring", help="ring spec, must match the file if given")
    red.add_argument("--algorithm", choices=("gauss", "alll", "rlll"), default="alll")
    red.add_argument("--delta", type=float, default=0.99)
    red.add_argument("--out", help="report JSON path (stdout if omitted)")
    red.set_defaults(func=_cmd_reduce)

    svp = sub.add_parser("svp", help="exact shortest vector of a basis file")
    svp.add_argument("--basis", required=True)
    svp.add_argument("--ring")
    svp.add_argument("--out")
    svp.set_defaults(func=_cmd_svp)

    hc = sub.add_parser("hermite-cdf", help="empirical Hermite factor distribution")
    hc.add_argument("--ring", action="append", required=True, help="repeatable")
    hc.add_argument("--trials", type=int, required=True)
    hc.add_argument("--seed", type=int, required=True)
    hc.add_argument("--out")
    hc.set_defaults(func=_cmd_hermite_cdf)

    cr = sub.add_parser("cf-rate", help="design coefficients for one channel")
    cr.add_argument("--channel", required=True, help="JSON file with {\"h\": [[re,im],...]}")
    cr.add_argument("--ring", required=True)
    cr.add_argument("--snr-db", type=float, required=True)
    cr.add_argument("--strategy", choices=STRATEGIES, default="alll")
    cr.add_argument("--delta", type=float, default=0.99)
    cr.add_argument("--out")
    cr.set_defaults(func=_cmd_cf_rate)

    ce = sub.add_parser("cf-experiment", help="rate/complexity/failure sweep from a config")
    ce.add_argument("--config", required=True, help="experiment config JSON")
    ce.add_argument("--out")
    ce.set_defaults(func=_cmd_cf_experiment)

    rf = sub.add_parser("rank-failure", help="rank failure probability over ring and field")
    rf.add_argument("--ring", required=True)
    rf.add_argument("--n", type=int, required=True)
    rf.add_argument("--snr-db", type=float, required=True)
    rf.add_argument("--trials", type=int, required=True)
    rf.add_argument("--seed", type=int, required=True)
    rf.add_argument("--strategy", choices=STRATEGIES, default="best_single")
    rf.add_argument("--modulus", help="prime-norm modulus as 'a,b'")
    rf.add_argument("--out")
    rf.set_defaults(func=_cmd_rank_failure)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
