from __future__ import annotations

import csv
import json

import pytest

from dynmono import constructors
from dynmono.cli import main


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
    ):
        code, out, err = run_cli(capsys, "gen", *flags, "-o", str(out_path))
        assert (code, out, err) == (1, "", message + "\n")
        assert not out_path.exists()
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"instances": [{"family": "path", "n": -5}], "rhos": ["1/2"], "methods": ["v2"]}))
    code, out, err = run_cli(capsys, "bench", "--config", str(cfg_path), "-o", str(tmp_path / "o.csv"))
    assert (code, out, err) == (1, "", "error: instance path:-5: path needs at least one vertex\n")


def test_cli_numbers_read_like_bench_numbers(capsys, tmp_path, petersen_file):
    # gen --n/--p/--seed and a bench generator instance share one reader: exit 1, the same line, no usage block
    out_path, cfg_path = tmp_path / "g.txt", tmp_path / "bench.json"
    flags = {"n": "20", "p": "0.1", "seed": "3"}
    for key, value, message in (
        ("n", "2.5", "n must be an integer, got 2.5"),
        ("p", "abc", "p must be a number, got abc"),
        ("seed", "x", "seed must be an integer, got x"),
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
    code, _, err = run_cli(capsys, "solve", "-g", str(path), "--rho", "1/2")
    assert code == 3 and "refused" in err
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

    # a bad --delta is an input error naming delta, like a bad --rho
    for extra in (
        ["--rho", "1/3", "--delta", "abc"], ["--rho", "1/3", "--delta", "3/2"], ["--rho", "abc"], ["--rho", "1e-5000"]
    ):
        code, out, err = run_cli(capsys, "construct", "-g", str(petersen_file), "--method", "girth5", *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and extra[-2][2:] in err


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


def test_internal_error_exits_4(capsys, monkeypatch, petersen_file):
    def broken(*args, **kwargs):
        raise AssertionError("v2 produced a non-monopoly seed")

    monkeypatch.setitem(constructors.BUILDERS, "v2", broken)
    code, out, err = run_cli(capsys, "construct", "-g", str(petersen_file), "--rho", "1/3", "--method", "v2")
    assert code == 4 and out == ""
    assert err == "internal error: v2 produced a non-monopoly seed\n"
