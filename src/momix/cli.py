"""Command-line front end: model files in, tables/CSV/JSON/DOT out.

Every subcommand is a thin adapter over the library; results are identical
to direct calls.  Exit codes: 0 success, 1 domain-negative result (target
not achievable, validation violations, ...) or stdout closed by its reader
(nothing is printed to stderr then), 2 usage error, 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import beliefs, evaluate, geometry, model as model_mod, montecarlo, payoffs, strategies, synthesis
from .errors import (DimensionMismatch, DisabledAction, EmptySupport, InfeasibleApproximation,
                     MomixError, NotAchievable, ParseError, PoolTooLarge, SchemaError,
                     UnknownState, UnsupportedKind)
from .rationals import ExtRealVector, format_rational, parse_ext, parse_rational

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3


def _fmt(value) -> str:
    """Rational next to its decimal rendering."""
    text = str(value)
    try:
        dec = float(Fraction(text))
        return f"{text} ({dec:.6g})"
    except (ValueError, ZeroDivisionError, OverflowError):
        return text


def _load_problem(path, checked=True):
    """The model and payoffs of a file; unless `checked` is False, a model
    that `validate` rejects is an input error naming its first violation."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            mdl, dims = payoffs.load_problem(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if checked:
        model_mod.require_valid(mdl)
    return mdl, dims


def _load_payoffs(path):
    """The valid model of a file and its payoffs, which it must declare."""
    mdl, dims = _load_problem(path)
    if not dims:
        raise SchemaError("the model file declares no payoffs")
    return mdl, dims


def _load_pool_problem(args):
    """The model, payoffs and `--skeleton` skeleton of a pool command."""
    mdl, dims = _load_payoffs(args.model)
    arg = args.skeleton
    if arg == "memoryless":
        return mdl, dims, strategies.memoryless(mdl)
    if arg.startswith("counter:") and arg.split(":", 1)[1].isdigit():
        return mdl, dims, strategies.counter(mdl, int(arg.split(":", 1)[1]))
    if arg.startswith("file:"):
        loaded = strategies.load_strategy_file(arg.split(":", 1)[1], mdl)
        if isinstance(loaded, strategies.FiniteMixture):
            raise SchemaError("a mixture file cannot serve as a skeleton")
        return mdl, dims, loaded.skeleton
    raise SchemaError(f"bad skeleton spec {arg!r} (memoryless|counter:<H>, H >= 0|file:<path>)")


def _in_memory(what: str, build, *args):
    """`build(*args)`: a pool or a simulation that does not fit in memory is an input error."""
    try:
        return build(*args)
    except MemoryError as exc:
        raise SchemaError(f"the {what} does not fit in memory: {exc}") from None


def _target_vector(text: str, dims) -> ExtRealVector:
    target = ExtRealVector([parse_ext(part.strip()) for part in text.split(",")])
    if len(target) != len(dims):
        raise DimensionMismatch(f"--target has {len(target)} components for {len(dims)} payoffs")
    return target


def _emit(args, payload: dict, human_lines):
    """The payload as JSON under `--json`, else the lines `human_lines()` builds only then."""
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines():
            print(line)


def _write_out(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# -- subcommands ------------------------------------------------------------------


def _cmd_validate(args):
    mdl, _ = _load_problem(args.model, checked=False)
    report = model_mod.validate(mdl)
    payload = {"ok": report.ok,
               "violations": [list(v) for v in report.violations]}
    _emit(args, payload, lambda: ["ok" if report.ok else "violations:"]
          + [f"  [{rule}] {loc}: {msg}" for rule, loc, msg in report.violations])
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_evaluate(args):
    mdl, dims = _load_payoffs(args.model)
    loaded = strategies.load_strategy_file(args.strategy, mdl)
    if isinstance(loaded, strategies.FiniteMixture):
        vec = evaluate.mixed_expected_payoff(mdl, loaded, args.state, dims)
    else:
        vec = evaluate.expected_payoff(mdl, loaded, args.state, dims)
    payload = {"ok": True, "vector": vec.serialize()}
    _emit(args, payload, lambda: ["expected payoff: " + "  ".join(_fmt(c) for c in vec)])
    return EXIT_OK


def _cmd_frontier(args):
    mdl, dims, skeleton = _load_pool_problem(args)
    pool = _in_memory("pool", evaluate.pure_payoff_set, mdl, args.state, dims, skeleton)
    distinct = [pool[i][1] for i in synthesis.distinct_members(pool)]
    pareto = set(geometry.pareto_frontier(distinct))
    finite = [v.to_fractions() for v in distinct if v.is_finite]
    vertex_set = set()
    if finite and len(finite) == len(distinct):
        vertex_set = {distinct[i] for i in geometry.extreme_points(finite)}
    rows = []
    for i, v in enumerate(distinct):
        rows.append({
            "vector": v.serialize(),
            "pareto": i in pareto,
            "vertex": v in vertex_set,
        })
    payload = {"ok": True, "pool_size": pool.size, "distinct": rows}

    def lines():
        yield f"pool size {pool.size}, {len(distinct)} distinct vectors"
        for row in rows:
            marks = ("P" if row["pareto"] else " ") + ("V" if row["vertex"] else " ")
            yield f"  [{marks}] " + "  ".join(_fmt(c) for c in row["vector"])
    _emit(args, payload, lines)
    if args.out:
        header = "pareto,vertex," + ",".join(f"dim{j}" for j in range(len(dims)))
        body = [header]
        for row in rows:
            body.append(",".join([str(int(row["pareto"])), str(int(row["vertex"]))]
                                 + list(row["vector"])))
        _write_out(args.out, "\n".join(body) + "\n")
    return EXIT_OK


def _emit_certificate(args, cert: synthesis.MixtureCertificate, human_lines):
    """Print a certificate, and write it to `--out` when asked."""
    certificate = {
        "relation": [x if isinstance(x, str) else format_rational(x) for x in cert.relation],
        "target": cert.target.serialize(),
        "realized": cert.realized.serialize(),
        "support": len(cert.mixture.support),
        "weights": [format_rational(w) for w in cert.mixture.weights],
        "mixture": strategies.mixture_to_dict(cert.mixture),
        "pool": args.skeleton,
    }
    _emit(args, {"ok": True, "certificate": certificate}, human_lines)
    if args.out:
        _write_out(args.out, json.dumps(certificate, indent=2))
    return EXIT_OK


def _cmd_achieve(args):
    mdl, dims, skeleton = _load_pool_problem(args)
    target = _target_vector(args.target, dims)
    if not target.is_finite:
        raise SchemaError("achieve needs a finite target; use approx")
    pool = _in_memory("pool", evaluate.pure_payoff_set, mdl, args.state, dims, skeleton)
    try:
        cert = synthesis.achieve(target, pool, mode=args.mode)
    except NotAchievable as exc:
        _emit(args, {"ok": False, "reason": str(exc)}, lambda: [f"not achievable: {exc}"])
        return EXIT_NEGATIVE
    return _emit_certificate(args, cert, lambda: [
        f"achievable ({args.mode}), support {len(cert.mixture.support)}",
        "realized: " + "  ".join(_fmt(c) for c in cert.realized),
        "weights:  " + "  ".join(format_rational(w) for w in cert.mixture.weights)])


def _cmd_approx(args):
    mdl, dims, skeleton = _load_pool_problem(args)
    target = _target_vector(args.target, dims)
    eps = parse_rational(args.eps)
    if eps <= 0:
        raise SchemaError(f"--eps must be positive, not {args.eps}")
    big_m = parse_rational(args.bigM)
    if big_m <= 0:
        raise SchemaError(f"--bigM must be positive, not {args.bigM}")
    pool = _in_memory("pool", evaluate.pure_payoff_set, mdl, args.state, dims, skeleton)
    try:
        cert = synthesis.approximate(target, eps, big_m, pool)
    except InfeasibleApproximation as exc:
        _emit(args, {"ok": False, "reason": str(exc)}, lambda: [f"infeasible: {exc}"])
        return EXIT_NEGATIVE
    return _emit_certificate(args, cert, lambda: [
        f"approximation found, support {len(cert.mixture.support)}",
        "realized: " + "  ".join(_fmt(c) for c in cert.realized)])


def _cmd_lexopt(args):
    mdl, dims, skeleton = _load_pool_problem(args)
    pool = _in_memory("pool", evaluate.pure_payoff_set, mdl, args.state, dims, skeleton)
    result = synthesis.lex_optimize(pool)
    payload = {"ok": True, "winner_index": result.winner_index,
               "vector": result.vector.serialize(), "pool_size": result.pool_size,
               "certified": result.certified}
    _emit(args, payload, lambda: [
        f"lexicographic optimum over {result.pool_size} pure strategies",
        "vector: " + "  ".join(_fmt(c) for c in result.vector),
    ])
    return EXIT_OK


def _cmd_classify(args):
    mdl, dims = _load_payoffs(args.model)
    verdicts = evaluate.classify_integrability(mdl, dims, args.state)
    payload = {"ok": True, "verdicts": [v.verdict for v in verdicts]}
    _emit(args, payload, lambda: [f"dim {j}: {v.verdict}" for j, v in enumerate(verdicts)])
    return EXIT_OK


def _cmd_belief_graph(args):
    mdl, _ = _load_problem(args.model)
    graph = beliefs.belief_graph(mdl, args.state)
    dot = graph.to_dot()
    payload = {"ok": True, "nodes": len(graph.nodes), "edges": len(graph.edges)}
    if args.out:
        _write_out(args.out, dot + "\n")
        _emit(args, payload,
              lambda: [f"{len(graph.nodes)} supports, {len(graph.edges)} edges -> {args.out}"])
    else:
        _emit(args, payload, lambda: [dot])
    return EXIT_OK


def _require_at_least(args, bounds):
    for option, least in bounds:
        if getattr(args, option) < least:
            raise SchemaError(f"--{option} must be at least {least}, not {getattr(args, option)}")


def _cmd_simulate(args):
    mdl, dims = _load_payoffs(args.model)
    loaded = strategies.load_strategy_file(args.strategy, mdl)
    _require_at_least(args, (("samples", 1), ("horizon", 1), ("seed", 0)))
    try:
        cfg = montecarlo.SampleConfig(samples=args.samples, horizon=args.horizon, seed=args.seed)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    est = _in_memory("simulation", montecarlo.estimate_expectation, mdl, loaded, args.state, dims, cfg)
    payload = {"ok": True, "mean": list(est.mean), "stderr": list(est.stderr),
               "censored": list(est.censored),
               "bias_bound": [None if b is None else format_rational(b) for b in est.bias_bound],
               "samples": est.samples, "seed": est.seed, "horizon": est.horizon}

    def lines():
        for j, bias in enumerate(payload["bias_bound"]):
            yield (f"dim {j}: mean {est.mean[j]:.6g}  stderr {est.stderr[j]:.3g}"
                   f"  censored {est.censored[j]}  bias_bound {bias}")
    _emit(args, payload, lines)
    if args.out:
        header = "dim,mean,stderr,bias_bound,censored,seed"
        rows = [header] + [
            f"{j},{est.mean[j]},{est.stderr[j]},{payload['bias_bound'][j]},{est.censored[j]},{est.seed}"
            for j in range(len(dims))
        ]
        _write_out(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_probe(args):
    mdl, dims = _load_payoffs(args.model)
    with open(args.family, "r", encoding="utf-8") as handle:
        doc = model_mod.read_json(handle.read())
    if not isinstance(doc, dict):
        raise SchemaError("a family file must hold a JSON object")
    family = []
    for entry in model_mod.require_field(doc, "family", list):
        try:
            index = int(entry["index"])
        except (TypeError, KeyError, ValueError):
            raise SchemaError(f"family entry {entry!r} needs an integer 'index'") from None
        family.append((index, strategies.strategy_from_dict(entry.get("strategy"), mdl)))
    limit = strategies.strategy_from_dict(doc.get("limit"), mdl)
    _require_at_least(args, (("horizon", 1),))
    table = montecarlo.convergence_probe(mdl, family, limit, args.state, dims, args.horizon)
    payload = {"ok": True,
               "limit": table.limit_vector.serialize(),
               "rows": [{"index": r.index, "vector": r.vector.serialize(),
                         "premetric_sq": format_rational(r.premetric_sq)} for r in table.rows]}
    _emit(args, payload, lambda: ["limit: " + "  ".join(_fmt(c) for c in table.limit_vector)]
          + [f"n={r.index}: " + "  ".join(_fmt(c) for c in r.vector)
             + f"  d^2={format_rational(r.premetric_sq)}" for r in table.rows])
    return EXIT_OK


# -- parser -------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each `parse_args` call starts a
    fresh namespace from the defaults, so calls share nothing else."""
    parser = argparse.ArgumentParser(prog="momix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state=True, out=False):
        p.add_argument("model", help="model JSON file")
        if state:
            p.add_argument("--state", required=True, help="initial state id")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if out:
            p.add_argument("--out", default=None, help="write result file")

    p = sub.add_parser("validate", help="check model invariants")
    common(p, state=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("evaluate", help="exact expected payoff of a strategy file")
    common(p)
    p.add_argument("--strategy", required=True, help="strategy or mixture JSON file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("frontier", help="pure payoff set with Pareto/vertex flags")
    common(p, out=True)
    p.add_argument("--skeleton", default="memoryless")
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("achieve", help="exact mixture for a finite target")
    common(p, out=True)
    p.add_argument("--skeleton", default="memoryless")
    p.add_argument("--target", required=True, help="comma-separated rationals")
    p.add_argument("--mode", choices=("equals", "dominates"), default="dominates")
    p.set_defaults(func=_cmd_achieve)

    p = sub.add_parser("approx", help="(eps, M)-approximation, +inf/-inf targets allowed")
    common(p, out=True)
    p.add_argument("--skeleton", default="memoryless")
    p.add_argument("--target", required=True, help="rationals with +inf/-inf sentinels")
    p.add_argument("--eps", required=True)
    p.add_argument("--bigM", required=True)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("lexopt", help="lexicographic optimum over a pure pool")
    common(p)
    p.add_argument("--skeleton", default="memoryless")
    p.set_defaults(func=_cmd_lexopt)

    p = sub.add_parser("classify", help="per-dimension integrability verdicts")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("belief-graph", help="belief-support graph as DOT")
    common(p, out=True)
    p.set_defaults(func=_cmd_belief_graph)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo estimate")
    common(p, out=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("probe", help="exact convergence table for a strategy family")
    common(p)
    p.add_argument("--family", required=True, help="JSON: {family: [{index, strategy}], limit}")
    p.add_argument("--horizon", type=int, default=4, help="premetric horizon")
    p.set_defaults(func=_cmd_probe)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader closed stdout (`momix ... | head`): Python docs, "Note on SIGPIPE".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_NEGATIVE
    except (ParseError, SchemaError, UnknownState, DimensionMismatch, DisabledAction,
            EmptySupport, PoolTooLarge, UnsupportedKind, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MomixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
