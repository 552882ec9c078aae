"""The three workloads: set-up files, the CLI commands of one pass, and their output checks.

Every generator seed, construct RNG seed and bench ``rng_seed_base`` is
derived from the workload seed, so one workload seed fixes every input.
Each op is one ``dynmono`` command line.  Its check returns an error string
(or None) and may leave a file behind for a later op, such as the seed set
that ``construct`` printed and ``verify`` reads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("tree-ladder", "girth5-sweep", "exact-small")

# "full" is the benchmark proper; "toy" runs the same ops at sizes the smoke
# test can afford.  The ladder rungs double, so t(2n)/t(n) is measurable.
SCALES = {
    "full": {
        "ladder": (1000, 2000),
        "sweep_random": ((1000, 0.006), (2000, 0.003)),
        "sweep_cycle": 2000,
        "sweep_complete": 60,
        "sweep_trials": 10,
        "exact_fixed": 18,
        "exact_complete": 14,
        "exact_random": 16,
    },
    "toy": {
        "ladder": (60, 120),
        "sweep_random": ((60, 0.1), (120, 0.05)),
        "sweep_cycle": 40,
        "sweep_complete": 8,
        "sweep_trials": 2,
        "exact_fixed": 8,
        "exact_complete": 6,
        "exact_random": 8,
    },
}

LADDER_RHO = "1/3"
SWEEP_RHOS = ("1/2", "1/4", "1/8")
SWEEP_EPSILON = 0.568
CONSTRUCT_METHODS = ("tree", "girth5", "abw", "v2")


def derive(seed: int, *labels: object) -> int:
    """A 31-bit RNG seed for one input, derived from the workload seed and a label."""
    text = "|".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big") >> 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Op:
    """One CLI command; ``norm`` turns its stdout into the text the reference digest covers."""

    label: str
    command: str
    argv: list[str]
    norm: Callable[[str], str]
    check: Callable[[str], str | None]


class Checks:
    """Output checks that hold for every workload seed.

    ``lib`` holds the package functions the checks call (parse_graph,
    proportional_thresholds, parse_rho, hull), taken before any tracing is
    installed so that checking never shows up in a layer's numbers.
    """

    def __init__(self, tmp: Path, lib: dict):
        self.tmp = tmp
        self.lib = lib

    def strip_tmp(self, text: str) -> str:
        return text.replace(str(self.tmp), "<tmp>")

    def expect(self, wanted: str) -> Callable[[str], str | None]:
        def check(out: str) -> str | None:
            return None if out.strip() == wanted else f"expected {wanted!r}, got {out.strip()[:80]!r}"

        return check

    def save_seed(self, path: Path) -> Callable[[str], str | None]:
        """Check a construct record and write its seed set for the verify op."""

        def check(out: str) -> str | None:
            record = json.loads(out)
            if record.get("verified") is not True or not record.get("seed"):
                return "construct returned an unverified or empty seed"
            path.write_text(" ".join(map(str, record["seed"])) + "\n", encoding="utf-8")
            return None

        return check

    def solve_witness(self, graph: Path, rho: str) -> Callable[[str], str | None]:
        """The witness must have h vertices and its hull must cover the graph."""

        def check(out: str) -> str | None:
            record = json.loads(out)
            lib = self.lib
            g = lib["parse_graph"](graph.read_text(encoding="utf-8"))
            phi = lib["proportional_thresholds"](g, lib["parse_rho"](rho))
            witness = record["witness"]
            if len(witness) != record["h"]:
                return f"witness has {len(witness)} vertices, h = {record['h']}"
            if not lib["hull"](g, phi, witness).is_monopoly:
                return "solve witness is not a monopoly"
            return None

        return check

    def bench_csv(self, path: Path) -> Callable[[str], str | None]:
        def check(out: str) -> str | None:
            rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
            if not rows:
                return "bench wrote no rows"
            if any(row["valid"] != "true" for row in rows):
                return "bench wrote an invalid row"
            return None

        return check

    def solve_norm(self, out: str) -> str:
        record = json.loads(out)
        record.pop("runtime_ms", None)
        return json.dumps(record, sort_keys=True)

    def bench_norm(self, path: Path) -> Callable[[str], str]:
        def norm(out: str) -> str:
            rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
            drop = rows[0].index("runtime_ms") if rows and "runtime_ms" in rows[0] else None
            kept = [",".join(c for i, c in enumerate(row) if i != drop) for row in rows]
            return self.strip_tmp(out) + "\n" + "\n".join(kept)

        return norm


def setup_files(workload: str, seed: int, scale: str, checks: Checks) -> list[Op]:
    """Write the workload's input files; return the gen ops set-up must run."""
    s = SCALES[scale]
    tmp = checks.tmp
    if workload == "girth5-sweep":
        (n1, p1), (n2, p2) = s["sweep_random"]
        config = {
            "instances": [
                {"family": "random_girth5", "n": n1, "p": p1, "seed": derive(seed, "sweep", n1)},
                {"family": "random_girth5", "n": n2, "p": p2, "seed": derive(seed, "sweep", n2)},
                "petersen",
                {"family": "cycle", "n": s["sweep_cycle"]},
                {"family": "complete", "n": s["sweep_complete"]},
            ],
            "rhos": list(SWEEP_RHOS),
            "methods": ["v2", "abw", "tree", {"method": "girth5", "delta": "1/5", "max_restarts": 2}],
            "trials": s["sweep_trials"],
            "rng_seed_base": derive(seed, "sweep", "base"),
            "epsilon": SWEEP_EPSILON,
        }
        (tmp / "sweep.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        return []
    if workload != "exact-small":
        return []
    k, kc, kr = s["exact_fixed"], s["exact_complete"], s["exact_random"]
    gens = [
        ("cycle", ["--family", "cycle", "--n", str(k)]),
        ("path", ["--family", "path", "--n", str(k)]),
        ("tree", ["--family", "random_tree", "--n", str(kr), "--seed", str(derive(seed, "exact", "tree"))]),
        ("girth5", ["--family", "random_girth5", "--n", str(kr), "--p", "0.2",
                    "--seed", str(derive(seed, "exact", "girth5"))]),
        ("complete", ["--family", "complete", "--n", str(kc)]),
        ("petersen", ["--family", "petersen"]),
    ]
    return [
        Op(f"setup/gen-{name}", "gen", ["gen", *extra, "-o", str(tmp / f"{name}.txt")],
           norm=checks.strip_tmp, check=lambda out: None)
        for name, extra in gens
    ]


EXACT_SOLVES = (
    ("cycle", "1"),
    ("path", "1"),
    ("tree", "1"),
    ("tree", "2/3"),
    ("girth5", "1"),
    ("girth5", "2/3"),
    ("complete", "1"),
    ("petersen", "1"),
)


def pass_ops(workload: str, seed: int, scale: str, checks: Checks) -> list[Op]:
    """The ops of one timed pass, in order."""
    s = SCALES[scale]
    tmp = checks.tmp
    strip = checks.strip_tmp
    ops: list[Op] = []
    if workload == "tree-ladder":
        for n in s["ladder"]:
            tree = tmp / f"tree_{n}.txt"
            ops.append(Op(f"n{n}/gen", "gen",
                          ["gen", "--family", "random_tree", "--n", str(n),
                           "--seed", str(derive(seed, "tree", n)), "-o", str(tree)],
                          norm=strip, check=lambda out: None))
            ops.append(Op(f"n{n}/girth", "girth", ["girth", "-g", str(tree)],
                          norm=strip, check=checks.expect("acyclic")))
            for method in CONSTRUCT_METHODS:
                argv = ["construct", "-g", str(tree), "--rho", LADDER_RHO, "--method", method]
                if method == "girth5":
                    argv += ["--max-restarts", "2", "--rng-seed", str(derive(seed, "girth5", n))]
                elif method == "abw":
                    argv += ["--rng-seed", str(derive(seed, "abw", n))]
                ops.append(Op(f"n{n}/construct-{method}", "construct", argv,
                              norm=strip, check=checks.save_seed(tmp / f"seed_{n}_{method}.txt")))
            for method in CONSTRUCT_METHODS:
                argv = ["verify", "-g", str(tree), "--rho", LADDER_RHO,
                        "--seed-set", str(tmp / f"seed_{n}_{method}.txt")]
                ops.append(Op(f"n{n}/verify-{method}", "verify", argv,
                              norm=strip, check=checks.expect("monopoly: true")))
    elif workload == "girth5-sweep":
        out = tmp / "sweep.csv"
        ops.append(Op("bench", "bench", ["bench", "--config", str(tmp / "sweep.json"), "-o", str(out)],
                      norm=checks.bench_norm(out), check=checks.bench_csv(out)))
    elif workload == "exact-small":
        for name, rho in EXACT_SOLVES:
            graph = tmp / f"{name}.txt"
            ops.append(Op(f"solve-{name}-{rho}", "solve", ["solve", "-g", str(graph), "--rho", rho],
                          norm=checks.solve_norm, check=checks.solve_witness(graph, rho)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
