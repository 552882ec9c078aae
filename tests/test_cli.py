from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dynmono
from dynmono import constructors
from dynmono.cli import COMMANDS, build_parser, command_parser, main


def run_cli(capsys, *argv):
    capsys.readouterr()  # drop output from setup calls
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def petersen_file(tmp_path):
    path = tmp_path / "pet.txt"
    assert main(["gen", "--family", "petersen", "-o", str(path)]) == 0
    return path


def test_gen_and_girth(capsys, petersen_file):
    code, out, _ = run_cli(capsys, "girth", "-g", str(petersen_file))
    assert code == 0
    assert out.strip().splitlines()[-1] == "5"


def test_gen_random_girth5(capsys, tmp_path):
    path = tmp_path / "g5.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "random_girth5", "--n", "40", "--p", "0.08",
        "--seed", "3", "-o", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "girth", "-g", str(path))
    assert code == 0
    value = out.strip().splitlines()[-1]
    assert value == "acyclic" or int(value) >= 5


def test_bad_generator_size_is_an_input_error(capsys, tmp_path):
    # a size or probability no family takes is a bad flag or config entry: exit 1, one line, no output
    out_path = tmp_path / "g.txt"
    for flags, message in (
        (["--family", "path", "--n", "-5"], "error: path needs at least one vertex"),
        (["--family", "random_girth5", "--n", "20", "--p", "2"],
         "error: edge probability must lie strictly between 0 and 1"),
        (["--family", "random_girth5", "--n", "5", "--p", "1e-17"],
         "error: edge probability p=1e-17 is too small: 1 - p rounds to 1"),
    ):
        code, out, err = run_cli(capsys, "gen", *flags, "-o", str(out_path))
        assert (code, out, err) == (1, "", message + "\n")
        assert not out_path.exists()
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"instances": [{"family": "path", "n": -5}], "rhos": ["1/2"], "methods": ["v2"]}))
    code, out, err = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(tmp_path / "o.csv"))
    assert (code, out, err) == (1, "", "error: instance path:-5: path needs at least one vertex\n")


def test_oversize_generator_is_an_input_error(capsys, monkeypatch, tmp_path):
    # a graph above the module's cap, here lowered to 10, is refused before it is built: a bad flag or config entry
    monkeypatch.setattr(dynmono.graphs, "MAX_VERTICES", 10)
    out_path, cfg_path = tmp_path / "g.txt", tmp_path / "bench.json"
    message = "complete with n=6 has 15 edges, above the limit 10"
    code, out, err = run_cli(capsys, "gen", "--family", "complete", "--n", "6", "-o", str(out_path))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_path.exists()
    cfg_path.write_text(json.dumps({"instances": [{"family": "complete", "n": 6}], "rhos": ["1/2"], "methods": ["v2"]}))
    code, out, err = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(tmp_path / "o.csv"))
    assert (code, out, err) == (1, "", f"error: instance complete:6: {message}\n")
    code, out, err = run_cli(capsys, "gen", "--family", "path", "--n", "11", "-o", str(out_path))
    assert (code, out, err) == (1, "", "error: path with n=11 has 11 vertices, above the limit 10\n")
    code, out, err = run_cli(capsys, "gen", "--family", "random_girth5", "--n", "10", "--p", "0.5", "-o", str(out_path))
    assert (code, out, err) == (1, "", "error: random_girth5 with n=10, p=0.5 expects 22.5 edges, above the limit 10\n")
    assert not out_path.exists()
    assert run_cli(capsys, "gen", "--family", "complete", "--n", "5", "-o", str(out_path))[0] == 0


def test_cli_numbers_read_like_bench_numbers(capsys, tmp_path, petersen_file):
    # gen --n/--p/--seed and a bench generator instance share one reader: exit 1, the same line, no usage block
    out_path, cfg_path = tmp_path / "g.txt", tmp_path / "bench.json"
    flags = {"n": "20", "p": "0.1", "seed": "3"}
    for key, value, message in (
        ("n", "2.5", "n must be an integer, got 2.5"),
        ("p", "abc", "p must be a number, got abc"),
        ("seed", "x", "seed must be an integer, got x"),
        ("seed", "-7", "seed must be non-negative, got -7"),  # CPython would seed -7 as 7
    ):
        entry = {**flags, key: value}
        argv = [arg for name, text in entry.items() for arg in (f"--{name}", text)]
        code, out, err = run_cli(capsys, "gen", "--family", "random_girth5", *argv, "-o", str(out_path))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_path.exists()
        cfg_path.write_text(json.dumps({"instances": [{"family": "random_girth5", **entry}], "rhos": ["1/2"]}))
        code, out, err = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(tmp_path / "o.csv"))
        assert (code, out, err) == (1, "", f"error: {cfg_path}: {message}\n")
    for argv, message in (
        (["construct", "--method", "abw", "--rng-seed", "1.5"], "rng_seed must be an integer, got 1.5"),
        (["construct", "--method", "tree", "--rng-seed", "-9"], "rng_seed must be non-negative, got -9"),
        (["solve", "--limit", "2.5"], "limit must be an integer, got 2.5"),
    ):
        code, out, err = run_cli(capsys, *argv, "-g", str(petersen_file), "--rho", "1/2")
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_bench_path_instance_error_names_the_file(capsys, tmp_path):
    # a malformed instance file is reported as every file command reports it: the path, then the line
    graph_path = tmp_path / "loop.txt"
    graph_path.write_text("3 2\n0 1\n1 1\n")
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"instances": [{"path": "loop.txt"}], "rhos": ["1/2"], "methods": ["v2"]}))
    code, out, err = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(tmp_path / "o.csv"))
    assert (code, out, err) == (1, "", f"error: {graph_path}: line 3: self-loop at vertex 1\n")
    assert run_cli(capsys, "girth", "-g", str(graph_path)) == (1, "", err)


def test_oversize_header_is_an_input_error(capsys, monkeypatch, tmp_path):
    # the CLI reads graphs under the module's cap, here lowered to 10
    monkeypatch.setattr(dynmono.graphs, "MAX_VERTICES", 10)
    graph_path = tmp_path / "big.txt"
    graph_path.write_text("11 0\n")
    expected = (1, "", f"error: {graph_path}: line 1: vertex count 11 exceeds the limit 10\n")
    assert run_cli(capsys, "girth", "-g", str(graph_path)) == expected
    graph_path.write_text("10 0\n")
    assert run_cli(capsys, "girth", "-g", str(graph_path)) == (0, "acyclic\n", "")


@pytest.mark.parametrize("what", ["graph", "seed", "config"])
def test_undecodable_file_is_an_input_error(capsys, tmp_path, petersen_file, what):
    # a file that is not UTF-8 gets the one line a missing file gets, never a traceback
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff 1\n")
    argv = {
        "graph": ["girth", "-g", str(bad)],
        "seed": ["hull", "-g", str(petersen_file), "--rho", "1/2", "--seed-set", str(bad)],
        "config": ["bench", "--config", str(bad), "-o", str(tmp_path / "o.csv")],
    }[what]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {what} file {bad}: ") and err.count("\n") == 1
    bad.unlink()  # a missing file reads the same way
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith(f"error: cannot read {what} file {bad}: ")


def test_girth_acyclic(capsys, tmp_path):
    path = tmp_path / "t.txt"
    main(["gen", "--family", "random_tree", "--n", "12", "--seed", "3", "-o", str(path)])
    code, out, _ = run_cli(capsys, "girth", "-g", str(path))
    assert code == 0
    assert out.strip().splitlines()[-1] == "acyclic"


def test_hull_and_verify(capsys, petersen_file, tmp_path):
    seeds = tmp_path / "seed.txt"
    seeds.write_text("0\n")
    code, out, _ = run_cli(
        capsys, "hull", "-g", str(petersen_file), "--rho", "1/3", "--seed-set", str(seeds), "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["active"] == list(range(10))
    assert record["is_monopoly"] is True
    assert record["rounds"]["0"] == 0 and record["rounds"]["9"] >= 1

    # without --json: the active count, the verdict and the last activation round
    for rho, text in (("1/3", "active 10/10\nmonopoly: true\nrounds: 2\n"),
                      ("1", "active 1/10\nmonopoly: false\nrounds: 0\n")):
        argv = ["hull", "-g", str(petersen_file), "--rho", rho, "--seed-set", str(seeds)]
        assert run_cli(capsys, *argv) == (0, text, "")

    code, out, _ = run_cli(
        capsys, "verify", "-g", str(petersen_file), "--rho", "1/3", "--seed-set", str(seeds)
    )
    assert code == 0 and "monopoly: true" in out

    code, out, _ = run_cli(
        capsys, "verify", "-g", str(petersen_file), "--rho", "1", "--seed-set", str(seeds)
    )
    assert code == 0 and "monopoly: false" in out


def test_solve(capsys, tmp_path):
    path = tmp_path / "c5.txt"
    main(["gen", "--family", "cycle", "--n", "5", "-o", str(path)])
    code, out, _ = run_cli(capsys, "solve", "-g", str(path), "--rho", "1")
    assert code == 0
    record = json.loads(out)
    assert record["h"] == 3
    assert record["witness"] == [0, 1, 3]
    assert record["nodes_explored"] >= 1 and "runtime_ms" in record


def test_solve_size_limit(capsys, tmp_path):
    path = tmp_path / "p30.txt"
    main(["gen", "--family", "path", "--n", "30", "-o", str(path)])
    code, out, err = run_cli(capsys, "solve", "-g", str(path), "--rho", "1/2")
    # the refusal names the flags that lift it, not the library's keyword
    assert (code, out, err) == (3, "", "refused: exact search on 30 vertices exceeds --limit 24; pass --force to override\n")
    code, _, err = run_cli(capsys, "solve", "-g", str(path), "--rho", "1/2", "--limit", "29")
    assert code == 3 and err == "refused: exact search on 30 vertices exceeds --limit 29; pass --force to override\n"
    code, out, _ = run_cli(capsys, "solve", "-g", str(path), "--rho", "1/2", "--force")
    assert code == 0 and json.loads(out)["h"] == 1
    code, out, err = run_cli(capsys, "solve", "-g", str(path), "--rho", "1/2", "--limit", "-1")
    assert code == 1 and out == "" and err.strip() == "error: limit must be non-negative, got -1"


def test_construct_all_methods(capsys, petersen_file, tmp_path):
    for method, extra in (
        ("abw", []),
        ("v2", []),
        ("girth5", ["--delta", "0.5", "--rng-seed", "4"]),
    ):
        code, out, _ = run_cli(
            capsys, "construct", "-g", str(petersen_file), "--rho", "1/3", "--method", method, *extra
        )
        assert code == 0
        record = json.loads(out)
        assert record["method"] == method
        assert record["verified"] is True
        assert record["size"] == len(record["seed"])

    tree_file = tmp_path / "t.txt"
    main(["gen", "--family", "random_tree", "--n", "20", "--seed", "5", "-o", str(tree_file)])
    code, out, _ = run_cli(capsys, "construct", "-g", str(tree_file), "--rho", "1/4", "--method", "tree")
    assert code == 0
    record = json.loads(out)
    assert record["size"] <= 5


def test_construct_epsilon_derives_delta(capsys, petersen_file):
    code, out, _ = run_cli(
        capsys,
        "construct", "-g", str(petersen_file), "--rho", "1/100",
        "--method", "girth5", "--epsilon", "0.568",
    )
    # rho=1/100 puts max degree 3 below 1/rho: precondition exit
    assert code == 2

    code, out, _ = run_cli(
        capsys,
        "construct", "-g", str(petersen_file), "--rho", "1/3",
        "--method", "girth5", "--epsilon", "7.0",
    )
    assert code == 0
    record = json.loads(out)
    assert record["params"]["delta"] == "1/2"
    assert record["params"]["theory"]["growth_within_budget"] is True

    code, out, err = run_cli(
        capsys, "construct", "-g", str(petersen_file), "--rho", "1/3", "--method", "girth5", "--epsilon", "nan"
    )
    assert code == 1 and out == "" and "epsilon" in err


def test_construct_precondition_exit(capsys, tmp_path):
    path = tmp_path / "c4.txt"
    main(["gen", "--family", "cycle", "--n", "4", "-o", str(path)])
    code, _, err = run_cli(capsys, "construct", "-g", str(path), "--rho", "1/2", "--method", "girth5")
    assert code == 2 and "precondition" in err
    code, _, _ = run_cli(
        capsys, "construct", "-g", str(path), "--rho", "1/2", "--method", "girth5", "--allow-low-girth"
    )
    assert code == 0
    pet = tmp_path / "pet.txt"
    main(["gen", "--family", "petersen", "-o", str(pet)])
    code, out, err = run_cli(
        capsys, "construct", "-g", str(pet), "--rho", "1/3", "--method", "girth5", "--max-restarts", "-1"
    )
    assert code == 1 and out == "" and "max_restarts must be non-negative" in err


def test_params_output(capsys):
    code, out, _ = run_cli(capsys, "params", "--epsilon", "0.568")
    assert code == 0
    assert "delta    = 0.099996" in out
    assert "rho_max  = 2.73" in out
    assert "p2" in out
    code, out, err = run_cli(capsys, "params", "--epsilon", "nan")
    assert code == 1 and out == "" and "epsilon" in err


def test_construct_and_bench_share_delta_rule(capsys, petersen_file, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct", "-g", str(petersen_file), "--rho", "1/3", "--method", "girth5", "--epsilon", "0.568"
    )
    assert code == 0
    delta = json.loads(out)["params"]["delta"]
    assert delta != "1/2"
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"instances": ["petersen"], "rhos": ["1/3"], "methods": ["girth5"], "epsilon": 0.568}))
    code, _, _ = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(tmp_path / "o.csv"))
    assert code == 0
    with open(tmp_path / "o.csv", newline="") as handle:
        assert {row["delta"] for row in csv.DictReader(handle)} == {delta}


BAD_OPTIONS = (  # (construct flags, bench method keys): each one bad girth5 option value
    (["--delta", "3/2"], {"delta": "3/2"}),
    (["--epsilon", "-3"], {"epsilon": -3}),
    (["--delta", "1/5", "--epsilon", "-3"], {"delta": "1/5", "epsilon": -3}),
    (["--epsilon", "nan"], {"epsilon": float("nan")}),
    (["--max-rounds", "-1"], {"max_rounds": -1}),
    (["--max-restarts", "-1"], {"max_restarts": -1}),
    (["--max-rounds", "2.5"], {"max_rounds": 2.5}),
)


def test_construct_and_bench_share_option_checks(capsys, petersen_file, tmp_path):
    # one verdict per value wherever it enters: exit 1 and the same line, the bench's only naming the config
    cfg_path = tmp_path / "bench.json"
    for flags, keys in BAD_OPTIONS:
        code, out, err = run_cli(
            capsys, "construct", "-g", str(petersen_file), "--rho", "1/3", "--method", "girth5", *flags
        )
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        cfg_path.write_text(
            json.dumps({"instances": ["petersen"], "rhos": ["1/3"], "methods": [{"method": "girth5", **keys}]})
        )
        code, out, bench_err = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(tmp_path / "o.csv"))
        assert code == 1 and out == ""
        assert bench_err == err.replace("error: ", f"error: {cfg_path}: ", 1)
    # the options are checked whatever the method
    code, out, err = run_cli(
        capsys, "construct", "-g", str(petersen_file), "--rho", "1/3", "--method", "tree", "--max-restarts", "-1"
    )
    assert code == 1 and out == "" and "max_restarts must be non-negative" in err


def test_input_error_exits(capsys, tmp_path, petersen_file):
    code, _, err = run_cli(capsys, "girth", "-g", str(tmp_path / "missing.txt"))
    assert code == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run_cli(capsys, "girth", "-g", str(bad))
    assert code == 1 and "self-loop" in err

    code, _, _ = run_cli(capsys, "nosuchcommand")
    assert code == 1
    code, _, _ = run_cli(capsys, "girth", "--bogus-flag")
    assert code == 1
    code, _, err = run_cli(capsys, "hull", "-g", str(bad))  # missing required flags
    assert code == 1

    # a bad --delta is an input error naming delta, like a bad --rho; 1e-400, whose float is 0, is refused where
    # it enters, with or without a round count, not left to fail in the float code; so is a value past the
    # int-string digit limit, which no record could print
    for method, *extra in (
        ["girth5", "--rho", "1/3", "--delta", "abc"], ["girth5", "--rho", "1/3", "--delta", "3/2"],
        ["girth5", "--rho", "abc"], ["girth5", "--rho", "1e-5000"], ["girth5", "--rho", "1/3", "--delta", "1e-400"],
        ["girth5", "--rho", "1/3", "--max-rounds", "3", "--delta", "1e-400"], ["girth5", "--rho", "1e4300"],
        ["girth5", "--rho", "12e4299"], ["girth5", "--rho", "1e-4300"], ["girth5", "--rho", "1/3", "--delta", "1e4300"],
        ["v2", "--rho", "1e-4300"],
    ):
        code, out, err = run_cli(capsys, "construct", "-g", str(petersen_file), "--method", method, *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and extra[-2][2:] in err


def test_a_long_value_out_of_range_is_named_by_its_size(capsys, tmp_path, petersen_file):
    # the largest value the digit rule takes is refused by range in one short line, not printed digit by digit
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0\n")
    digits = sys.get_int_max_str_digits()
    for rho, shown in ((f"1e{digits - 1}", f"a value above 1 written in {digits} characters"),
                       (f"-1e{digits - 1}", f"a value below 0 written in {digits + 1} characters"),
                       ("1" + "0" * 60 + "/3", "a value above 1 written in 63 characters"),
                       ("1e50", "a value above 1 written in 51 characters"), ("1e49", "1" + "0" * 49),
                       ("-1e48", "-1" + "0" * 48), ("3/2", "3/2")):
        code, out, err = run_cli(capsys, "verify", "-g", str(petersen_file), f"--rho={rho}", "--seed-set", str(seeds))
        assert (code, out) == (1, "") and err == f"error: rho must lie in (0, 1], got {shown}\n"


def test_bench_end_to_end(capsys, tmp_path):
    tree_path = tmp_path / "tree.txt"
    main(["gen", "--family", "random_tree", "--n", "12", "--seed", "2", "-o", str(tree_path)])
    config = {
        "instances": ["petersen", {"path": "tree.txt"}, {"family": "star", "n": 4}],
        "rhos": ["1/3", "1/5"],
        "methods": ["v2", "abw", {"method": "girth5", "delta": "0.5"}, "tree"],
        "trials": 2,
        "rng_seed_base": 9,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))
    out_csv = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(out_csv))
    assert code == 0
    assert "skipped" in out

    with open(out_csv, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    from dynmono.bench import CSV_COLUMNS

    assert list(rows[0].keys()) == CSV_COLUMNS
    assert all(row["valid"] == "true" for row in rows)

    # rerun: identical apart from runtime_ms
    out_csv2 = tmp_path / "out2.csv"
    code, _, _ = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(out_csv2))
    assert code == 0
    with open(out_csv2, newline="") as handle:
        rows2 = list(csv.DictReader(handle))

    def strip(rs):
        return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rs]

    assert strip(rows) == strip(rows2)


def test_bench_needs_output(capsys, tmp_path):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"instances": [], "rhos": [], "methods": []}))
    code, _, err = run_cli(capsys, "bench", "--config", str(cfg_path))
    assert code == 1 and "output" in err


@pytest.mark.parametrize("key", ["trials", "rng_seed_base", "epsilon"])
def test_bench_bad_integer_field_exits_1(capsys, tmp_path, key):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"instances": [], "rhos": [], "methods": [], key: "abc"}))
    code, _, err = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(tmp_path / "o.csv"))
    assert code == 1
    kind = "a number" if key == "epsilon" else "an integer"
    assert err.strip().count("\n") == 0 and f"{key} must be {kind}" in err


def test_bench_config_past_the_parser_limits_exits_1(capsys, tmp_path):
    # an int past the digit limit, nesting past the stack, or a rho no record could print: one line naming the file
    cfg_path = tmp_path / "bench.json"
    digits = sys.get_int_max_str_digits()
    for text, message in (
        (f'{{"trials": {"1" * (digits + 1)}}}', "not valid JSON: Exceeds the limit"),
        ("[" * 100_000, "not valid JSON: maximum recursion depth exceeded"),
        ('{"instances": ["petersen"], "rhos": ["1e-4300"], "methods": ["v2"]}',
         "cannot interpret rho '1e-4300' as a rational"),
    ):
        cfg_path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(tmp_path / "o.csv"))
        assert (code, out) == (1, "") and err.startswith(f"error: {cfg_path}: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


def test_internal_error_exits_4(capsys, monkeypatch, petersen_file):
    def broken(*args, **kwargs):
        raise AssertionError("v2 produced a non-monopoly seed")

    monkeypatch.setitem(constructors.BUILDERS, "v2", broken)
    code, out, err = run_cli(capsys, "construct", "-g", str(petersen_file), "--rho", "1/3", "--method", "v2")
    assert code == 4 and out == ""
    assert err == "internal error: v2 produced a non-monopoly seed\n"


def usage_cases():
    """Argument lists that end in help or a usage error: one set per command in COMMANDS, and the bare program."""
    yield from ([], ["-h"], ["nosuchcommand"])
    for name, (_, _, arguments) in COMMANDS.items():
        required = {flags[-1]: keywords.get("choices", ["x"])[0] for flags, keywords in arguments
                    if keywords.get("required")}

        def argv(values):
            return [name, *(arg for item in values.items() for arg in item)]

        yield from ([name, "-h"], [name], argv(required) + ["extra"])
        for flags, keywords in arguments:
            if "choices" in keywords:
                yield argv({**required, flags[-1]: "nosuch"})
    # an abbreviated flag, an ambiguous one, a `--` separator, a repeated flag, and a bad flag before -h
    yield from (["verify", "--rh", "1"], ["construct", "--max", "1"], ["girth", "-g", "x", "--", "extra"],
                ["solve", "--rho", "1", "--rho", "2"], ["solve", "--bogus", "-h"])


def test_cli_text_matches_the_full_parser(capsys, monkeypatch):
    # every help, usage line and error main prints is the full parser's, at two terminal widths
    def outcome(parse, argv):
        capsys.readouterr()
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return argv, code, captured.out, captured.err

    for columns in ("150", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in usage_cases():
            full = outcome(lambda args: build_parser().parse_args(args), argv)
            code = 0 if "-h" in argv else 1
            assert full[1] == code and (full[2] if code == 0 else full[3].startswith("usage: dynmono"))
            assert outcome(main, argv) == full
    # the top-level text both parsers share
    usage = "usage: dynmono [-h] {gen,girth,hull,verify,solve,construct,params,bench} ...\n"
    choices = ", ".join(map(repr, COMMANDS))
    assert outcome(main, ["nosuchcommand"])[3] == (
        f"{usage}dynmono: error: argument command: invalid choice: 'nosuchcommand' (choose from {choices})\n"
    )
    assert outcome(main, ["girth", "-g", "x", "extra"])[3] == f"{usage}dynmono: error: unrecognized arguments: extra\n"


def test_a_run_reads_the_namespace_of_the_full_parser(monkeypatch):
    # every flag set, and only the required ones: main hands its command the namespace of build_parser(),
    # func and command included
    for name, (func, help_text, arguments) in COMMANDS.items():
        every, required = [name], [name]
        for i, (flags, keywords) in enumerate(arguments):
            value = [] if keywords.get("action") == "store_true" else [keywords.get("choices", [f"v{i}"])[-1]]
            every += [flags[i % len(flags)], *value]
            required += [flags[0], *value] if keywords.get("required") else []
        for argv in (every, required):
            expected = vars(build_parser().parse_args(argv))
            assert expected["func"] is func and expected["command"] == name
            read = []

            def record(args):
                read.append(vars(args))
                return 0

            monkeypatch.setitem(COMMANDS, name, (record, help_text, arguments))
            assert main(argv) == 0
            monkeypatch.setitem(COMMANDS, name, (func, help_text, arguments))
            assert read == [{**expected, "func": record}]


VALUES = ("1", "1/3", "0.5", "x.txt", "", "a b", "=", "h")  # values that start with no "-", the empty one too


def well_formed_line(name, rng):
    """Each required flag and some optional ones, once each, in any order, in the table's spellings."""
    groups = []
    for flags, keywords in COMMANDS[name][2]:
        if keywords.get("required") or rng.random() < 0.5:
            value = [] if keywords.get("action") else [rng.choice(keywords.get("choices", VALUES))]
            groups.append([rng.choice(flags), *value])
    rng.shuffle(groups)
    return [name, *(token for group in groups for token in group)]


def garbled_line(name, rng):
    """A well-formed line with one to three edits: abbreviations, repeats, ``--``, help, stray or dropped tokens."""
    argv = well_formed_line(name, rng)
    flags = [flag for names, _ in COMMANDS[name][2] for flag in names]
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(1, len(argv))
        edit = rng.randrange(9)
        if edit == 0:  # an abbreviation, or a prefix that fits more than one flag
            flag = rng.choice([flag for flag in flags if flag.startswith("--")])
            argv.insert(at, flag[:rng.randint(2, len(flag) - 1)])
            argv.insert(at + 1, rng.choice(VALUES))
        elif edit == 1:  # any value for a flag: it may miss the flag's choices, or repeat the flag
            flag, value = rng.choice(flags), rng.choice(VALUES)
            if flag in argv[:-1]:
                argv[argv.index(flag) + 1] = value
            else:
                argv[at:at] = [flag, value]
        elif edit == 2:
            argv.insert(at, f"{rng.choice(flags)}={rng.choice(VALUES)}")
        elif edit == 3:
            argv.insert(at, "--")
        elif edit == 4:
            argv.insert(at, rng.choice(["-h", "--help"]))
        elif edit == 5:  # a stray positional, or an empty one
            argv.insert(at, rng.choice(["extra", ""]))
        elif edit == 6:  # a value that starts with "-"
            argv[at:at] = [rng.choice(flags), rng.choice(["-1", "-", "-x", "--rho", "-g"])]
        elif edit == 7 and len(argv) > 1:  # a dropped token: a flag, or a flag's value
            del argv[rng.randrange(1, len(argv))]
        elif edit == 8:
            argv.insert(at, rng.choice(["--nope", "-o", "-gx", "--json"]))
    return argv


def test_a_well_formed_line_reads_as_argparse_reads_it():
    # a command's own parser on the rest of the line ends as the full parser does: the same help or error, or the
    # same namespace and the same arguments left over; every well-formed spelling is read with none left over
    rng, parser = random.Random(29), build_parser()
    command_parser.cache_clear()  # a parser cached while a test swapped a handler keeps that handler as its default

    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args, stray = parse(argv)
            return vars(args), stray
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()

    for name in COMMANDS:
        for i in range(1000):
            argv = well_formed_line(name, rng) if i % 2 else garbled_line(name, rng)
            read = outcome(command_parser(name).parse_known_args, argv[1:])
            assert read == outcome(parser.parse_known_args, argv), argv
            if i % 2:
                assert read[1] == [], argv


def test_a_declined_line_builds_the_full_parser_once(monkeypatch, tmp_path):
    path = tmp_path / "c5.txt"
    assert main(["gen", "--family", "cycle", "--n", "5", "-o", str(path)]) == 0
    command_parser.cache_clear()
    built = []
    init, add_subparsers = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_subparsers

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    def counting_add_subparsers(self, **kwargs):
        built.append("subparsers")
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting_add_subparsers)
    solve = ["solve", "-g", str(path)]
    for argv, code in (([*solve, "--rho", "1"], 0), ([*solve, "--rh", "1"], 0), ([*solve, "--rho=1"], 0),
                       ([*solve, "--rho", "1", "--rho", "1"], 0), ([*solve, "--rho", "1", "--limit", "-1"], 1)):
        assert main(argv) == code
        assert built == ["dynmono solve"], argv  # built by the first line, kept for the rest
    built.clear()
    for argv in (["nosuchcommand"], [*solve, "--rho", "1", "extra"]):
        assert main(argv) == 1
        assert built == ["dynmono", "subparsers", *(f"dynmono {name}" for name in COMMANDS)], argv
        built.clear()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_reader_that_leaves_early_gets_exit_1_and_no_message(tmp_path, unbuffered):
    # the hull record (about 0.3 MB) outgrows the 64 KiB pipe buffer, so the write fails inside the command;
    # params' few lines and help's fail at main's flush, or at once when unbuffered
    graph, seed = tmp_path / "p.txt", tmp_path / "seed.txt"
    assert main(["gen", "--family", "path", "--n", "10000", "-o", str(graph)]) == 0
    seed.write_text("0\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(dynmono.__file__).resolve().parents[1]), "PYTHONUNBUFFERED": unbuffered}
    for argv, read in ((["hull", "-g", str(graph), "--rho", "1/2", "--seed-set", str(seed), "--json"], 1),
                       (["params", "--epsilon", "0.5"], 0), (["-h"], 0), (["solve", "-h"], 0)):
        proc = subprocess.Popen([sys.executable, "-m", "dynmono", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")


def test_console_entry_reads_sys_argv(capsys, tmp_path):
    # `python -m dynmono` and the `dynmono` script call main() with no argv
    path = tmp_path / "c5.txt"
    main(["gen", "--family", "cycle", "--n", "5", "-o", str(path)])
    env = {**os.environ, "PYTHONPATH": str(Path(dynmono.__file__).resolve().parents[1])}

    def without_clock(out):
        return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out)

    for argv in (["params", "--epsilon", "0.5"], ["solve", "-g", str(path), "--rho", "1"],
                 ["solve", "-g", str(path), "--rho", "1e4300"]):  # a value past the digit limit: one line, no traceback
        proc = subprocess.run([sys.executable, "-m", "dynmono", *argv], capture_output=True, text=True, env=env,
                              check=False)
        code, out, err = run_cli(capsys, *argv)
        assert (proc.returncode, without_clock(proc.stdout), proc.stderr) == (code, without_clock(out), err)
        assert code == 0 and out or (code, out, err) == (1, "", "error: cannot interpret rho '1e4300' as a rational\n")
