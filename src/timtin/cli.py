"""Command-line front end.

Every command reads JSON files (see docs/file-formats.md), writes one JSON
document to stdout, and is byte-deterministic for identical inputs and
seeds.  Exit codes: 0 success, 1 domain error (JSON {"error": ...} on
stdout), 2 usage error (argparse message on stderr).

``main`` reuses one parser per process, built (handlers bound) on first
use: it must never be mutated, and its defaults are immutable.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import decomp, evaluator, tin
from .model import (
    DomainError,
    MalformedDocument,
    document_list,
    dumps,
    emit_decomposition_map,
    emit_scheme,
    format_rational,
    link_list,
    loads,
    parse_links,
    parse_scheme,
    parse_topology,
    to_fraction,
    validate_scheme,
)
from .tim import TimTopology, tim_solve


def _fractions(values) -> list[str]:
    return [format_rational(v) for v in values]


def _load_topology(path: str):
    return parse_topology(Path(path).read_text())


def _load_scheme(path: str, channel):
    return validate_scheme(parse_scheme(Path(path).read_text()), channel)


def _power_list(text: str) -> list[float]:
    values = [float(p) for p in text.split(",") if p]
    if not 1 <= len(values) <= 2:
        raise ValueError("expected one or two power values")
    return values


def _rational_list(text: str) -> list[Fraction]:
    return [to_fraction(p) for p in text.split(",") if p]


def _load_links(path: str) -> frozenset:
    doc = loads(Path(path).read_text())
    return parse_links(doc.get("links") if isinstance(doc, dict) else doc, "links")


def _load_frontier_tuples(path: str) -> list[list[Fraction]]:
    report = loads(Path(path).read_text())
    entries = document_list(report.get("frontier") if isinstance(report, dict) else None, "frontier")
    if not all(isinstance(entry, dict) for entry in entries):
        raise MalformedDocument("frontier entries must be objects")
    try:
        return [[to_fraction(x) for x in document_list(e.get("verified"), "verified")] for e in entries]
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"verified: {exc}") from None


def _cmd_report(args) -> dict:
    """``eval``, and ``sc`` with the per-stream split added."""
    channel = _load_topology(args.topology)
    report = evaluator.gdof_report(_load_scheme(args.scheme, channel), channel)
    doc = {
        "gdof": _fractions(report.gdof),
        "combined_exp": _fractions(u.combined_exp for u in report.users),
        "interference_exp": _fractions(u.interference_exp for u in report.users),
    }
    if args.command == "sc":
        doc["per_stream"] = [_fractions(row) for row in report.per_stream]
    return doc


def _cmd_oracle(args) -> dict:
    channel = _load_topology(args.topology)
    scheme = _load_scheme(args.scheme, channel)
    rates = [evaluator.finite_p_rate(scheme, channel, p, args.seed) for p in args.powers]
    doc = {"P": args.powers, "seed": args.seed, "rates": rates, "slopes": None}
    if len(args.powers) == 2:
        doc["slopes"] = evaluator.slopes_from_rates(args.powers, rates)
    return doc


def _cmd_tin(args) -> dict:
    channel = _load_topology(args.topology)
    heard = tin.Heard.of(channel)
    if args.target is not None:
        if len(args.target) != channel.K:
            raise DomainError(f"expected {channel.K} targets, got {len(args.target)}")
        solution = tin.tin_feasible(channel, tin.Scaled.of(channel, args.target), heard)
        return {
            "target": _fractions(args.target),
            "feasible": solution.feasible,
            "r": _fractions(solution.r) if solution.feasible else None,
        }
    sym = tin.tin_symmetric(channel, heard)
    return {
        "d_sym": format_rational(sym.t),
        "feasible": sym.solution.feasible,
        "r": _fractions(sym.solution.r),
    }


def _cmd_tim(args) -> dict:
    channel = _load_topology(args.topology)
    if args.links is not None:
        links = _load_links(args.links)
    else:
        links = frozenset(
            (k, i) for k, i in channel.cross_links() if channel.alpha[k][i] >= args.threshold
        )
    solution = tim_solve(TimTopology(channel.K, links))
    return {
        "fractions": _fractions(solution.fractions),
        "method": solution.method,
        "n": solution.n,
        "directions": [
            [_fractions(vec) for vec in user_dirs] for user_dirs in solution.directions
        ],
    }


def _result_doc(result: decomp.DecompositionResult) -> dict:
    return {
        "tim_links": link_list(result.map.tim_links),
        "tin_links": link_list(result.map.tin_links),
        "tin_fractions": _fractions(result.tin_fractions),
        "tim_fractions": _fractions(result.tim_fractions),
        "products": _fractions(result.products),
        "verified": _fractions(result.verified),
        "verdict": result.verdict,
        "tim_method": result.tim_method,
        "power_exponents": _fractions(result.power_exponents),
    }


def _cmd_decompose(args) -> dict:
    channel = _load_topology(args.topology)
    report = decomp.search(channel, decomp.SearchBudget(exhaustive_cap=args.exhaustive_cap))
    doc = {
        "cross_links": link_list(channel.cross_links()),
        "evaluated": report.evaluated,
        "frontier": [_result_doc(r) for r in report.frontier],
        "failed": [_result_doc(r) for r in report.failed],
    }
    if args.emit_schemes:
        out = Path(args.emit_schemes)
        out.mkdir(parents=True, exist_ok=True)
        for idx, r in enumerate(report.frontier):
            scheme_path = out / f"scheme_{idx:03d}.json"
            scheme_path.write_text(emit_scheme(r.scheme))
            map_path = out / f"map_{idx:03d}.json"
            map_path.write_text(emit_decomposition_map(r.map))
            doc["frontier"][idx]["scheme_file"] = scheme_path.name
    return doc


def _cmd_timeshare(args) -> dict:
    mixed = decomp.time_share(_load_frontier_tuples(args.report), args.weights)
    return {"gdof": _fractions(mixed)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timtin",
        description="GDoF evaluation and TIM-TIN decomposition for interference networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def topo_scheme(p):
        p.add_argument("-t", "--topology", required=True, help="topology JSON file")
        p.add_argument("-s", "--scheme", required=True, help="scheme JSON file")

    p = sub.add_parser("eval", help="GDoF of a scheme on a topology")
    topo_scheme(p)
    p.set_defaults(run=_cmd_report)

    p = sub.add_parser("sc", help="eval plus per-stream successive-cancellation split")
    topo_scheme(p)
    p.set_defaults(run=_cmd_report)

    p = sub.add_parser("oracle", help="finite-power rates and slope estimate")
    topo_scheme(p)
    p.add_argument("-P", "--powers", type=_power_list, default=(1e6, 1e10),
                   help="one or two power values, e.g. 1e6,1e10")
    p.add_argument("--seed", type=int, default=0,
                   help="echoed in the document; does not change the rates yet")
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("tin", help="symmetric GDoF (or target feasibility) under power control")
    p.add_argument("-t", "--topology", required=True)
    p.add_argument("--target", type=_rational_list, default=None,
                   help="per-user GDoF targets, e.g. 0.3,0.3,0.5")
    p.set_defaults(run=_cmd_tin)

    p = sub.add_parser("tim", help="signal-space fractions on a binary topology")
    p.add_argument("-t", "--topology", required=True)
    p.add_argument("--threshold", type=to_fraction, default=Fraction(0),
                   help="links with strength >= threshold form the topology (default: all present)")
    p.add_argument("--links", default=None,
                   help='explicit link list file: {"links": [[k,i], ...]} (1-based)')
    p.set_defaults(run=_cmd_tim)

    p = sub.add_parser("decompose", help="search decompositions and report the verified frontier")
    p.add_argument("-t", "--topology", required=True)
    p.add_argument("--exhaustive-cap", type=int, default=16,
                   help=f"exhaustive up to 2^CAP maps, CAP in 0..{decomp.MAX_EXHAUSTIVE_CAP}")
    p.add_argument("--emit-schemes", default=None, metavar="DIR",
                   help="write scheme/map JSON per frontier point into DIR")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("timeshare", help="convex combination of a report's frontier tuples")
    p.add_argument("-r", "--report", required=True, help="decompose report JSON")
    p.add_argument("-w", "--weights", type=_rational_list, required=True,
                   help="weights summing to 1, e.g. 1/2,1/2")
    p.set_defaults(run=_cmd_timeshare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.run(args)
    except (DomainError, OSError, ValueError, KeyError) as exc:
        sys.stdout.write(dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    sys.stdout.write(dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
