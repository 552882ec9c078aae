#!/usr/bin/env python3
"""Benchmark of the dynmono CLI: closed-loop command passes, end to end and per layer.

One client in one process, no threads: each op calls ``dynmono.cli.main(argv)``
in-process with stdout captured, on files in a temp dir under
``perfbench/results/``, and the next op starts when the previous one has
returned.  So an op costs what the same ``dynmono`` command line costs,
minus interpreter start-up.  The package is imported from ``src/`` of the
checkout that holds this file.

    python3 perfbench/run.py --workload tree-ladder --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` reports the end-to-end metrics of untraced passes, with
times scaled to reference speed by the probe in ``probe.py``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with ``trace.overhead_frac`` the
traced median wall time over the untraced one, minus 1.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.  A full
record with provenance goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from probe import REFERENCE_S, Probe, at_reference_speed
from tracing import X2, Tracer
from workloads import SCALES, WORKLOADS, Checks, Op, digest, pass_ops, setup_files

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 9
COMMANDS = ("gen", "girth", "construct", "verify", "solve", "bench")

_S = "s"
_N = "count"
PER_LAYER = {
    "generators.prufer_decode.self_s": _S,
    "generators.prufer_decode.x2": "ratio",
    "generators.random_girth5.self_s": _S,
    "generators.random_girth5.x2": "ratio",
    "graphs.girth.self_s": _S,
    "graphs.girth.x2": "ratio",
    "graphs.girth_at_least_five.self_s": _S,
    "graphs.girth_at_least_five.calls": _N,
    "graphs.induced_subgraph.self_s": _S,
    "graphs.induced_subgraph.calls": _N,
    "constructors.tree_construct.self_s": _S,
    "constructors.tree_construct.x2": "ratio",
    "constructors.greedy_kernel.self_s": _S,
    "constructors.greedy_kernel.hull_calls": _N,
    "constructors.greedy_kernel.x2": "ratio",
    "constructors.girth5_construct.self_s": _S,
    "constructors.girth5_construct.hull_calls": _N,
    "constructors.girth5.rounds": _N,
    "constructors.girth5.attempts": _N,
    "constructors.abw_construct.self_s": _S,
    "constructors.v2_baseline.self_s": _S,
    "cascade.hull.calls": _N,
    "cascade.hull.self_s": _S,
    "cascade.hull.us_per_call": "us",
    "cascade.hull.vertices": _N,
    "cascade.check_thresholds.self_s": _S,
    "exact.min_monopoly_exact.self_s": _S,
    "exact.nodes_explored": _N,
    "exact.hull_calls": _N,
    "exact.abw_bound.self_s": _S,
    "bench.run_bench.self_s": _S,
    "bench.load_config.self_s": _S,
    "bench.write_csv.self_s": _S,
    "bench.cells": _N,
    "bench.skipped": _N,
    "bench.verify_s": _S,
    "graphs.parse_graph.self_s": _S,
    "graphs.parse_graph.calls": _N,
    "graphs.serialize_graph.self_s": _S,
    "graphs.from_edges.self_s": _S,
    "graphs.connected_components.self_s": _S,
    "graphs.connected_components.calls": _N,
    "cli.main.self_s": _S,
    "trace.overhead_frac": "ratio",
}


def x2_plan(workload: str, scale: str):
    """The rung pair of a workload's doubling ratios and the functions measured on it."""
    s = SCALES[scale]
    if workload == "tree-ladder":
        names = ("generators.prufer_decode", "graphs.girth", "constructors.tree_construct",
                 "constructors.greedy_kernel")
        return tuple(s["ladder"]), names
    if workload == "girth5-sweep":
        return tuple(n for n, _ in s["sweep_random"]), ("generators.random_girth5",)
    return None, ()


class Tally:
    """Runs ops and counts attempts, failures and output digests."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def run(self, cli, op: Op) -> float:
        """Run one op; return its wall seconds.  Any failure is counted, never raised."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except Exception as exc:  # a crash is a failed op, the run goes on
                code, error = None, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[-200:]}"
        if error is None:
            try:
                error = op.check(out.getvalue())
                if error is None:
                    got = digest(op.norm(out.getvalue()))
                    self.digests[op.label] = got
                    if self.reference is not None and self.reference.get(op.label) != got:
                        error = f"output digest {got} differs from reference {self.reference.get(op.label)}"
            except (ValueError, KeyError, OSError) as exc:
                error = f"output check failed: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.label}: {error}")
        return seconds


@dataclass
class Context:
    cli: object
    modules: dict
    tmp: Path
    ops: list[Op]


def setup(workload: str, seed: int, scale: str, tally: Tally) -> Context:
    """Import the package afresh, make the temp dir, write and gen the inputs."""
    for name in [m for m in sys.modules if m == "dynmono" or m.startswith("dynmono.")]:
        del sys.modules[name]
    cli = importlib.import_module("dynmono.cli")
    modules = {
        name.partition(".")[2] or "__init__": mod
        for name, mod in sys.modules.items()
        if name == "dynmono" or name.startswith("dynmono.")
    }
    lib = {
        "parse_graph": modules["graphs"].parse_graph,
        "proportional_thresholds": modules["cascade"].proportional_thresholds,
        "parse_rho": modules["cascade"].parse_rho,
        "hull": modules["cascade"].hull,
    }
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS))
    checks = Checks(tmp, lib)
    for op in setup_files(workload, seed, scale, checks):
        tally.run(cli, op)
    return Context(cli=cli, modules=modules, tmp=tmp, ops=pass_ops(workload, seed, scale, checks))


def one_pass(ctx: Context, tally: Tally) -> dict[str, float]:
    return {op.label: tally.run(ctx.cli, op) for op in ctx.ops}


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code when there is no git SHA."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dynmono").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, scale: str, seconds: float, trace: int, ops: list[Op]) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "ops_per_pass": dict(Counter(op.command for op in ops)),
    }


def median_by_key(rows: list[dict]) -> dict:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def measure_plain(workload: str, seed: int, scale: str, seconds: float, tally: Tally):
    """Untraced passes; end-to-end metrics at reference speed, raw seconds in the record."""
    probe = Probe()
    setups, setup_probes = [], [probe.sample()]
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = setup(workload, seed, scale, tally)
        setups.append(time.perf_counter() - t0)
        setup_probes.append(probe.sample())
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(ctx.tmp)
    passes, probes = [], [setup_probes[-1]]
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(one_pass(ctx, tally))
        probes.append(probe.sample())
        if time.perf_counter() >= deadline:
            break
    walls = [sum(p.values()) for p in passes]
    ran = [c for c in COMMANDS if any(op.command == c for op in ctx.ops)]
    by_command = {
        c: at_reference_speed([sum(t for op, t in zip(ctx.ops, p.values()) if op.command == c) for p in passes],
                              probes)
        for c in ran
    }
    metrics = {
        "setup_s": (statistics.median(at_reference_speed(setups, setup_probes)), "s"),
        "wall_s": (statistics.median(at_reference_speed(walls, probes)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    record = {
        "probe_median_s": {"setup": setup_probes, "passes": probes},
        "probe_samples_s": probe.samples,
        "raw_setup_s": setups,
        "raw_pass_wall_s": walls,
        "command_s": {f"{c}_s": statistics.median(v) for c, v in by_command.items()},
        "raw_op_median_s": median_by_key(passes),
    }
    return metrics, record, ctx


def measure_traced(workload: str, seed: int, scale: str, seconds: float, tally: Tally):
    """Alternating untraced and traced passes; per-layer metrics from the traced ones."""
    ctx = setup(workload, seed, scale, tally)
    pair, names = x2_plan(workload, scale)
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(sum(one_pass(ctx, tally).values()))
        if traced and time.perf_counter() >= deadline:
            break
        tracer.reset()
        tracer.install(ctx.modules)
        try:
            traced.append(sum(one_pass(ctx, tally).values()))
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics(pair, names))
        if time.perf_counter() >= deadline:
            break
    values = median_by_key(layers)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    record = {
        "raw_untraced_wall_s": untraced,
        "raw_traced_wall_s": traced,
        "x2_pairs": {f"{n}.x2": list(pair) if n in names else None for n in X2},
        "trace": tracer.dump(),
    }
    return metrics, record, ctx


def load_reference(workload: str, seed: int, scale: str) -> dict | None:
    """Reference digests apply to the default seed at full scale only."""
    if seed != DEFAULT_SEED or scale != "full":
        return None
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if workload not in refs:
        raise SystemExit(f"perfbench: {REFERENCE.name} has no digests for {workload}")
    return refs[workload]


def report(workload: str, metrics: dict, record: dict, tally: Tally) -> dict:
    """Print the human-readable lines; return the result object."""
    frac = tally.failed / tally.attempted
    print(f"workload {workload}: {record['passes']} passes, {tally.attempted} ops attempted, "
          f"{tally.failed} failed, ops_failed_frac {frac:g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    for name, value in record.get("command_s", {}).items():
        print(f"  {name:44s} {value:14.6f} s   (median per pass)")
    if "raw_pass_wall_s" in record:
        print(f"  times above are at reference speed (probe {REFERENCE_S * 1000:g} ms); raw: wall_s "
              f"{statistics.median(record['raw_pass_wall_s']):.6f} s, setup_s "
              f"{statistics.median(record['raw_setup_s']):.6f} s, probe median "
              f"{statistics.median(record['probe_median_s']['passes']) * 1000:.3f} ms")
    for line in tally.errors[:10]:
        print(f"  FAILED {line}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            print(f"perfbench: {workload} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def write_reference() -> int:
    """Record the output digests of one full-scale pass of every workload at the default seed."""
    refs = {}
    for workload in WORKLOADS:
        tally = Tally(None)
        ctx = setup(workload, DEFAULT_SEED, "full", tally)
        one_pass(ctx, tally)
        shutil.rmtree(ctx.tmp)
        if tally.failed:
            print("\n".join(tally.errors), file=sys.stderr)
            return 1
        refs[workload] = tally.digests
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measure passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full", help="toy is for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed output digests instead of measuring")
    args = parser.parse_args(argv)
    if not (SRC / "dynmono" / "cli.py").is_file():
        print(f"perfbench: no dynmono package under {SRC}; run from a dynmono checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    reference = load_reference(args.workload, args.seed, args.scale)
    tally = Tally(reference)
    measure = measure_traced if args.trace else measure_plain
    metrics, record, ctx = measure(args.workload, args.seed, args.scale, args.seconds, tally)
    shutil.rmtree(ctx.tmp)
    record["passes"] = len(record["raw_traced_wall_s"] if args.trace else record["raw_pass_wall_s"])
    record["provenance"] = provenance(args.workload, args.seed, args.scale, args.seconds, args.trace, ctx.ops)
    result = report(args.workload, metrics, record, tally)
    record.update(result=result, errors=tally.errors, digests=tally.digests)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
