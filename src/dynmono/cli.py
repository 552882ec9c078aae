"""Command-line front end.

Exit codes: 0 success, 1 input error (including usage errors), 2 operation
precondition violation, 3 refused oversize exact search, 4 internal error (a
failed self-check: a bug, reported as one line).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bench as bench_mod
from .cascade import from_file, from_input, hull, parse_rho, parse_seed_set, proportional_thresholds, to_number
from .constructors import BUILDERS, GIRTH5_OPTIONS, check_count, check_epsilon, girth5_options, girth5_params
from .errors import InputFormatError, PreconditionError, SizeLimitError
from .exact import DEFAULT_SIZE_LIMIT, min_monopoly_exact
from .generators import FAMILIES, GeneratorSpec, generate
from .graphs import ACYCLIC, girth, parse_graph, serialize_graph


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; this tool reserves 2
    # for precondition violations, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def cmd_gen(args) -> int:
    spec = from_input(GeneratorSpec.read, vars(args))
    g = from_input(generate, spec)  # a size or probability no family takes is a bad flag
    Path(args.output).write_text(serialize_graph(g), encoding="utf-8")
    print(f"wrote {args.family} graph: n={g.n} m={g.m} -> {args.output}")
    return 0


def cmd_girth(args) -> int:
    value = girth(from_file(args.graph, "graph", parse_graph))
    print("acyclic" if value == ACYCLIC else int(value))
    return 0


def cmd_hull(args) -> int:
    g = from_file(args.graph, "graph", parse_graph)
    phi = proportional_thresholds(g, parse_rho(args.rho))
    result = hull(g, phi, from_file(args.seed_set, "seed", lambda text: parse_seed_set(text, g.n)))
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2))
    else:
        print(f"active {len(result.active)}/{g.n}")
        print(f"monopoly: {str(result.is_monopoly).lower()}")
        rounds = max(result.rounds.values(), default=0)
        print(f"rounds: {rounds}")
    return 0


def cmd_verify(args) -> int:
    g = from_file(args.graph, "graph", parse_graph)
    phi = proportional_thresholds(g, parse_rho(args.rho))
    result = hull(g, phi, from_file(args.seed_set, "seed", lambda text: parse_seed_set(text, g.n)))
    if result.is_monopoly:
        print("monopoly: true")
    else:
        print(f"monopoly: false ({g.n - len(result.active)} vertices remain inactive)")
    return 0


def cmd_solve(args) -> int:
    limit = from_input(lambda value: check_count(value, "limit"), args.limit)
    g = from_file(args.graph, "graph", parse_graph)
    phi = proportional_thresholds(g, parse_rho(args.rho))
    t0 = time.perf_counter()
    result = min_monopoly_exact(g, phi, limit=limit, force=args.force)
    record = {
        "h": result.h,
        "witness": sorted(result.witness),
        "nodes_explored": result.nodes_explored,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }
    print(json.dumps(record, indent=2))
    return 0


def cmd_construct(args) -> int:
    g = from_file(args.graph, "graph", parse_graph)
    options = from_input(girth5_options, {name: getattr(args, name) for name in GIRTH5_OPTIONS})
    rng_seed = from_input(lambda value: to_number(value, "rng_seed"), args.rng_seed)
    seed = BUILDERS[args.method](g, parse_rho(args.rho), rng_seed, **options)
    print(json.dumps(seed.to_json_dict(), indent=2))
    return 0


def cmd_params(args) -> int:
    params = girth5_params(from_input(check_epsilon, args.epsilon))
    print(f"epsilon  = {params.epsilon}")
    print(f"delta    = {params.delta:.9f}")
    print(f"rho_max  = {params.rho_max:.6e}")
    print(f"p2       = {params.p2:.6e}")
    return 0


def cmd_bench(args) -> int:
    config = bench_mod.load_config(args.config)
    output = args.output or config.output
    if output is None:
        raise InputFormatError("no output path: pass -o or set 'output' in the config")
    result = bench_mod.run_bench(config)
    bench_mod.write_csv(result.rows, output)
    print(f"wrote {output}")
    for line in bench_mod.summary_lines(result):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dynmono", description="Dynamic monopolies for degree-proportional thresholds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance and write its edge list")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", default=None, help="size (leaf count for star; ignored for petersen)")
    p.add_argument("--p", default=None, help="edge probability (random_girth5 only)")
    p.add_argument("--seed", default=0, help="generator RNG seed")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("girth", help="print the girth (or 'acyclic')")
    p.add_argument("-g", "--graph", required=True)
    p.set_defaults(func=cmd_girth)

    p = sub.add_parser("hull", help="run the cascade from a seed set")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--rho", required=True, help='threshold parameter, "P/Q" or decimal')
    p.add_argument("--seed-set", required=True, help="file of whitespace-separated vertex ids")
    p.add_argument("--json", action="store_true", help="emit the full cascade record as JSON")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("verify", help="check whether a seed set is a monopoly")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--seed-set", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="exact minimum monopoly by pruned search")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--limit", default=DEFAULT_SIZE_LIMIT)
    p.add_argument("--force", action="store_true", help="search even above the size limit")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("construct", help="build a monopoly seed")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--method", required=True, choices=list(BUILDERS))
    p.add_argument("--delta", default=None, help='girth5 slack in (0, 1/2], "P/Q" or decimal (default: see README)')
    p.add_argument("--epsilon", default=None, help="girth5 size budget 2+epsilon")
    p.add_argument("--rng-seed", default=0)
    p.add_argument("--max-rounds", default=None)
    p.add_argument("--max-restarts", default=None)
    p.add_argument("--allow-low-girth", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("params", help="derive girth5 parameters from epsilon")
    p.add_argument("--epsilon", required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("bench", help="run a benchmark sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", default=None, help="CSV path (overrides config)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
