"""Benchmark harness: sweep constructors over instances and tabulate every bound.

Each (instance, rho, method, trial) cell runs one construction with an RNG
seed derived by a stable hash of (base, family, n, rho, method, trial), so
adding cells to a config never perturbs existing cells.  A method whose seed
record has no ``rng_seed`` drew no random bits: its cell stops after one
trial.  The trials of a girth5 cell share one greedy kernel per (graph, rho,
delta), cached by ``greedy_kernel``; only the sampling rounds draw per trial.
Every emitted row is re-verified by ``is_monopoly`` on a fresh cascade from its
seed (``cascade`` says when that runs on a quotient); an invalid construction
aborts the run.  Cells whose preconditions fail are recorded as skipped, not errors.
``load_config`` checks every field once and refuses an unknown key:
``instances``, ``rhos`` and ``methods`` must be lists, a method entry becomes
its girth5 options, a ``path`` instance a ``GraphFile``: the file resolved
against the config's directory, labelled by the path as written.
"""

from __future__ import annotations

import csv
import json
import math
import time
from fractions import Fraction
from pathlib import Path
from typing import Mapping, NamedTuple

from .cascade import from_file, is_monopoly, parse_rho, proportional_thresholds, to_number
from .constructors import BUILDERS, EMPTY, GIRTH5_OPTIONS, girth5_options
from .errors import InputFormatError, PreconditionError
from .exact import abw_bound
from .generators import GeneratorSpec, generate
from .graphs import Graph, parse_graph
from .seeding import stable_seed

CSV_COLUMNS = [
    "family",
    "n",
    "m",
    "rho",
    "delta",
    "method",
    "trial",
    "seed_size",
    "bound_abw",
    "bound_583",
    "bound_492",
    "bound_2eps",
    "bound_rho_n",
    "valid",
    "rounds",
    "fallback",
    "runtime_ms",
]

CONST_583 = 2.0 * math.sqrt(2.0) + 3.0
CONST_492 = 4.92


class MethodSpec(NamedTuple):
    """A method and its girth5 options: what ``constructors.girth5_options`` returns, or any part of it."""

    name: str
    options: Mapping = EMPTY


class GraphFile(NamedTuple):
    """An edge-list instance: ``path`` resolved against the config's directory, and ``label``, the path as written
    there (``a/g.txt`` and ``b/g.txt`` differ), which fills the ``family`` column and keys the RNG seeds."""

    path: Path
    label: str


class BenchConfig(NamedTuple):
    instances: tuple[GeneratorSpec | GraphFile, ...]
    rhos: tuple[Fraction, ...]
    methods: tuple[MethodSpec, ...]
    trials: int = 1
    rng_seed_base: int = 0
    epsilon: float | None = None
    output: str | None = None


class BenchResult(NamedTuple):
    rows: list[dict]
    skipped: list[dict]
    summary: dict[str, dict]


def _known(entry: dict, keys, what: str) -> dict:
    """``entry`` when every key is one of ``keys``; InputFormatError naming the first other key otherwise."""
    for key in entry:
        if key not in keys:
            raise InputFormatError(f"unknown {what} key {key!r}; known: {', '.join(keys)}")
    return entry


def _parse_instance(entry, config_dir: Path) -> GeneratorSpec | GraphFile:
    if isinstance(entry, str):
        return GeneratorSpec(family=entry)
    if not isinstance(entry, dict):
        raise InputFormatError(f"instance entry must be a string or object, got {entry!r}")
    if "path" in entry:
        written = Path(str(_known(entry, ("path",), "path instance")["path"]))
        return GraphFile(config_dir / written, written.as_posix())
    if "family" not in entry:
        raise InputFormatError(f"instance entry needs 'family' or 'path': {entry!r}")
    return GeneratorSpec.read(_known(entry, ("family", "n", "p", "seed"), "instance"))


def _parse_method(entry) -> MethodSpec:
    if isinstance(entry, str):
        name, extra = entry, {}
    elif isinstance(entry, dict):
        if "method" not in entry:
            raise InputFormatError(f"method entry needs 'method': {entry!r}")
        name, extra = str(entry["method"]), _known(entry, ("method", *GIRTH5_OPTIONS), "method")
    else:
        raise InputFormatError(f"method entry must be a string or object, got {entry!r}")
    if name not in BUILDERS:
        raise InputFormatError(f"unknown method {name!r}; known: {', '.join(BUILDERS)}")
    return MethodSpec(name, girth5_options(extra))  # for every method: a bad value is a config error at load


def _list(raw: dict, name: str) -> list:
    value = raw.get(name, [])
    if not isinstance(value, list):
        raise InputFormatError(f"{name} must be a list, got {value!r}")
    return value


def load_config(path: str | Path) -> BenchConfig:
    """Read a JSON bench config; see README for the schema."""
    text = from_file(path, "config", str)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, or nesting past the stack
        raise InputFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputFormatError(f"{path}: config must be a JSON object")
    try:  # a ValueError here is a bad field (InputFormatError and PreconditionError are ValueErrors)
        _known(raw, BenchConfig._fields, "config")
        config = BenchConfig(
            instances=tuple(_parse_instance(e, Path(path).parent) for e in _list(raw, "instances")),
            rhos=tuple(parse_rho(r) for r in _list(raw, "rhos")),
            methods=tuple(_parse_method(e) for e in _list(raw, "methods")),
            trials=to_number(raw.get("trials", 1), "trials"),
            rng_seed_base=to_number(raw.get("rng_seed_base", 0), "rng_seed_base"),
            epsilon=girth5_options({"epsilon": raw.get("epsilon")})["epsilon"],
            output=str(raw["output"]) if raw.get("output") is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    if config.trials < 1:
        raise InputFormatError(f"{path}: trials must be at least 1")
    return config


def _load_instance(inst: GeneratorSpec | GraphFile) -> tuple[str, Graph]:
    if isinstance(inst, GraphFile):
        return inst.label, from_file(inst.path, "graph", parse_graph)
    try:
        return inst.label(), generate(inst)
    except PreconditionError as exc:  # a size or family no generator takes is a bad config entry
        raise InputFormatError(f"instance {inst.label()}: {exc}") from None


def run_bench(config: BenchConfig) -> BenchResult:
    result = BenchResult([], [], {})
    ratios: dict[str, list[float]] = {}
    for inst in config.instances:
        family, g = _load_instance(inst)
        for rho in config.rhos:
            phi = proportional_thresholds(g, rho)  # the cached profile: every check of it below is an identity test
            bound_abw = float(abw_bound(g, phi))
            rho_n = float(rho) * g.n
            for method in config.methods:
                cell_epsilon = method.options.get("epsilon") or config.epsilon  # a checked epsilon is above 0
                options = {**method.options, "epsilon": cell_epsilon}
                for trial in range(config.trials):
                    rng_seed = stable_seed(
                        config.rng_seed_base, family, g.n, str(rho), method.name, trial
                    )
                    t0 = time.perf_counter()
                    try:
                        ms = BUILDERS[method.name](g, rho, rng_seed, **options)
                    except PreconditionError as exc:
                        result.skipped.append(
                            {"family": family, "rho": str(rho), "method": method.name, "reason": str(exc)}
                        )
                        break
                    runtime_ms = int((time.perf_counter() - t0) * 1000)
                    if not is_monopoly(g, phi, ms.seed):
                        raise AssertionError(
                            f"bench integrity failure: {method.name} seed on {family} is not a monopoly"
                        )
                    row = {
                        "family": family,
                        "n": g.n,
                        "m": g.m,
                        "rho": str(rho),
                        "delta": ms.params["delta"] if ms.trace else "",  # the trace and delta are girth5's
                        "method": method.name,
                        "trial": trial,
                        "seed_size": ms.size,
                        "bound_abw": f"{bound_abw:.6f}",
                        "bound_583": f"{CONST_583 * rho_n:.6f}",
                        "bound_492": f"{CONST_492 * rho_n:.6f}",
                        "bound_2eps": f"{(2.0 + cell_epsilon) * rho_n:.6f}" if cell_epsilon is not None else "",
                        "bound_rho_n": f"{rho_n:.6f}",
                        "valid": "true",
                        "rounds": str(len(ms.trace.rounds)) if ms.trace else "",
                        "fallback": str(ms.trace.fallback_used).lower() if ms.trace else "",
                        "runtime_ms": runtime_ms,
                    }
                    result.rows.append(row)
                    if rho_n > 0:
                        ratios.setdefault(method.name, []).append(ms.size / rho_n)
                    if "rng_seed" not in ms.params:  # no random bits drawn: every further trial repeats this one
                        break
    for name, values in sorted(ratios.items()):
        result.summary[name] = {
            "cells": len(values),
            "mean_ratio": sum(values) / len(values),
            "max_ratio": max(values),
        }
    return result


def write_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def summary_lines(result: BenchResult) -> list[str]:
    lines = [f"{len(result.rows)} rows, {len(result.skipped)} skipped cells"]
    for name, stats in result.summary.items():
        lines.append(
            f"  {name}: {stats['cells']} cells, seed_size/(rho*n) mean {stats['mean_ratio']:.3f}"
            f" max {stats['max_ratio']:.3f}"
        )
    for skip in result.skipped:
        lines.append(
            f"  skipped {skip['method']} on {skip['family']} (rho={skip['rho']}): {skip['reason']}"
        )
    return lines
