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
from .cascade import (from_file, from_input, hull, is_monopoly, parse_rho, parse_seed_set, proportional_thresholds,
                      to_number)
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
    seed = from_file(args.seed_set, "seed", lambda text: parse_seed_set(text, g.n))
    if is_monopoly(g, phi, seed):
        print("monopoly: true")
    else:
        print(f"monopoly: false ({g.n - len(hull(g, phi, seed).active)} vertices remain inactive)")
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


_GRAPH = (("-g", "--graph"), {"required": True})
_RHO = (("--rho",), {"required": True})

# name -> (handler, help, arguments as (flags, add_argument keywords) pairs), in usage order
COMMANDS = {
    "gen": (cmd_gen, "generate an instance and write its edge list", (
        (("--family",), {"required": True, "choices": list(FAMILIES)}),
        (("--n",), {"default": None, "help": "size (leaf count for star; ignored for petersen)"}),
        (("--p",), {"default": None, "help": "edge probability (random_girth5 only)"}),
        (("--seed",), {"default": 0, "help": "generator RNG seed"}),
        (("-o", "--output"), {"required": True}),
    )),
    "girth": (cmd_girth, "print the girth (or 'acyclic')", (_GRAPH,)),
    "hull": (cmd_hull, "run the cascade from a seed set", (
        _GRAPH,
        (("--rho",), {"required": True, "help": 'threshold parameter, "P/Q" or decimal'}),
        (("--seed-set",), {"required": True, "help": "file of whitespace-separated vertex ids"}),
        (("--json",), {"action": "store_true", "help": "emit the full cascade record as JSON"}),
    )),
    "verify": (cmd_verify, "check whether a seed set is a monopoly",
               (_GRAPH, _RHO, (("--seed-set",), {"required": True}))),
    "solve": (cmd_solve, "exact minimum monopoly by pruned search", (
        _GRAPH, _RHO,
        (("--limit",), {"default": DEFAULT_SIZE_LIMIT}),
        (("--force",), {"action": "store_true", "help": "search even above the size limit"}),
    )),
    "construct": (cmd_construct, "build a monopoly seed", (
        _GRAPH, _RHO,
        (("--method",), {"required": True, "choices": list(BUILDERS)}),
        (("--delta",), {"default": None, "help": 'girth5 slack in (0, 1/2], "P/Q" or decimal (default: see README)'}),
        (("--epsilon",), {"default": None, "help": "girth5 size budget 2+epsilon"}),
        (("--rng-seed",), {"default": 0}),
        (("--max-rounds",), {"default": None}),
        (("--max-restarts",), {"default": None}),
        (("--allow-low-girth",), {"action": "store_true"}),
    )),
    "params": (cmd_params, "derive girth5 parameters from epsilon", ((("--epsilon",), {"required": True}),)),
    "bench": (cmd_bench, "run a benchmark sweep from a JSON config", (
        (("--config",), {"required": True}),
        (("-o", "--output"), {"default": None, "help": "CSV path (overrides config)"}),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command's parser, or ``command``'s alone (what ``main`` builds to run it).

    The one-command parser pins the subcommand metavar, so both print the same usage line; the full
    parser leaves it unset, so its unknown-command error still names the argument "command"."""
    parser = _Parser(prog="dynmono", description="Dynamic monopolies for degree-proportional thresholds")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        func, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
