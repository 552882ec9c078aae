"""Guard for the benchmark's bindings into the package.

``perfbench/run.py`` looks package names up by attribute (``cascade.parse_rho``
and every traced layer function), so renaming one breaks the benchmark.  One
toy-scale traced pass of every workload makes such a rename fail here too.
It asserts no wall-clock bound.  The pass runs on a copy of ``perfbench/``,
``src/`` and ``BENCHMARK.json``, so its records do not land in the
checkout's ``perfbench/results/``.  Every op's command line is read whole by
its command's own parser, so no benchmark op builds the parser of all commands.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from dynmono.cli import command_parser

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_toy_pass_is_correct(tmp_path):
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--scale", "toy",
            "--seconds", "0.2", "--trace", "1", "--seed", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0, proc.stdout


def test_every_benchmark_op_is_read_without_a_parser(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads  # perfbench's op tables; stdlib imports only
    checks = workloads.Checks(tmp_path, {})
    for workload in workloads.WORKLOADS:
        for scale in workloads.SCALES:
            ops = workloads.setup_files(workload, 0, scale, checks) + workloads.pass_ops(workload, 0, scale, checks)
            assert ops
            for op in ops:
                args, stray = command_parser(op.argv[0]).parse_known_args(op.argv[1:])
                assert args.command == op.argv[0] and stray == [], (workload, scale, op.argv)
