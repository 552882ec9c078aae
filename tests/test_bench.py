from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from dynmono import InputFormatError, is_monopoly, load_config, proportional_thresholds, run_bench, serialize_graph
from dynmono import write_csv
from dynmono.bench import CSV_COLUMNS, BenchConfig, GraphFile, MethodSpec
from dynmono.cli import main
from dynmono.constructors import MonopolySeed
from dynmono import GeneratorSpec, generate, girth5_params
from dynmono import bench as bench_mod
from dynmono import cascade as cascade_mod
from dynmono import constructors as constructors_mod
from dynmono import graphs as graphs_mod
from dynmono.seeding import stable_seed


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_config_full(tmp_path):
    path = _write_config(
        tmp_path,
        {
            "instances": ["petersen", {"family": "star", "n": 4}, {"path": "g.txt"}],
            "rhos": ["1/3", "0.5"],
            "methods": ["v2", {"method": "girth5", "delta": "0.5", "max_restarts": 2}],
            "trials": 3,
            "rng_seed_base": 11,
            "epsilon": 0.7,
        },
    )
    config = load_config(path)
    assert len(config.instances) == 3
    assert config.instances[2] == GraphFile(tmp_path / "g.txt", "g.txt")  # resolved against the config's directory
    assert config.rhos == (Fraction(1, 3), Fraction(1, 2))
    assert config.methods[1].options["delta"] == Fraction(1, 2)  # checked at load, not kept as written
    assert config.methods[1].options["max_restarts"] == 2
    assert config.trials == 3 and config.rng_seed_base == 11
    assert config.epsilon == 0.7


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputFormatError):
        load_config(bad)
    with pytest.raises(InputFormatError):
        load_config(_write_config(tmp_path, {"methods": ["mystery"]}))
    with pytest.raises(InputFormatError):
        load_config(_write_config(tmp_path, {"rhos": ["5/3"]}))
    with pytest.raises(InputFormatError):
        load_config(_write_config(tmp_path, {"trials": 0}))
    # a bad girth5 option or an unknown family is an error at load that names the config, not a failed cell
    for field, payload in (
        ("unknown family 'bogus'; known: star, path, ", {"instances": ["petersen", "bogus"]}),
        ("unknown family 'bogus'; known: star, path, ", {"instances": [{"family": "bogus", "n": 5}]}),
        ("delta", {"methods": [{"method": "girth5", "delta": "abc"}]}),
        ("delta", {"methods": [{"method": "girth5", "delta": "3/2"}]}),
        ("delta", {"methods": [{"method": "girth5", "delta": 0}]}),
        ("epsilon", {"methods": [{"method": "girth5", "epsilon": -1}]}),
        ("epsilon", {"methods": [{"method": "girth5", "epsilon": float("nan")}]}),
        ("epsilon", {"epsilon": -1}),
        ("epsilon", {"epsilon": float("nan")}),
        ("epsilon", {"epsilon": 0}),
        ("epsilon", {"epsilon": float("inf")}),
        ("epsilon", {"methods": [{"method": "girth5", "epsilon": float("inf")}]}),
        ("max_rounds", {"methods": [{"method": "girth5", "max_rounds": -1}]}),
        ("max_restarts", {"methods": [{"method": "girth5", "max_restarts": -1}]}),
        ("max_restarts", {"methods": [{"method": "abw", "max_restarts": -1}]}),
        ("allow_low_girth", {"methods": [{"method": "girth5", "allow_low_girth": "false"}]}),
        ("allow_low_girth", {"methods": [{"method": "girth5", "allow_low_girth": "yes"}]}),
        ("allow_low_girth", {"methods": [{"method": "girth5", "allow_low_girth": 1}]}),
        # a string or an object where a list belongs is refused whole, not read one character or key at a time
        ("instances must be a list", {"instances": "petersen"}),
        ("rhos must be a list", {"rhos": "1/2"}),
        ("methods must be a list", {"methods": "v2"}),
        ("methods must be a list", {"methods": {"method": "v2"}}),
        ("rhos must be a list", {"rhos": None}),
        # a misspelt key is refused, not silently ignored, at the top level, in an instance and in a method
        ("unknown config key 'instance'; known: instances, rhos, methods, ", {"instance": ["petersen"]}),
        ("unknown instance key 'sed'; known: family, n, p, seed", {"instances": [{"family": "petersen", "sed": 5}]}),
        ("unknown path instance key 'family'; known: path", {"instances": [{"path": "g.txt", "family": "x"}]}),
        ("unknown method key 'detla'; known: method, delta, epsilon, ",
         {"methods": [{"method": "girth5", "detla": "1/5", "max_restart": 3}]}),
    ):
        path = _write_config(tmp_path, payload)
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}: .*{field}"):
            load_config(path)


NUMBER_FIELDS = {"trials": "an integer", "rng_seed_base": "an integer", "epsilon": "a number"}


@pytest.mark.parametrize("key", list(NUMBER_FIELDS))
@pytest.mark.parametrize("value", ["abc", None, [3], 2.5, True])
def test_load_config_rejects_non_integer(tmp_path, key, value):
    path = _write_config(tmp_path, {key: value})
    if key == "epsilon" and value is None:
        assert load_config(path).epsilon is None  # null leaves epsilon unset
        return
    if key == "epsilon" and value == 2.5:
        assert load_config(path).epsilon == 2.5  # any positive number is an epsilon
        return
    with pytest.raises(InputFormatError, match=f"{key} must be {NUMBER_FIELDS[key]}"):
        load_config(path)


NESTED_INTEGER_FIELDS = {
    "n": lambda v: {"instances": [{"family": "star", "n": v}]},
    "seed": lambda v: {"instances": [{"family": "random_tree", "n": 5, "seed": v}]},
    "max_rounds": lambda v: {"methods": [{"method": "girth5", "max_rounds": v}]},
    "max_restarts": lambda v: {"methods": [{"method": "girth5", "max_restarts": v}]},
}


@pytest.mark.parametrize("key", list(NESTED_INTEGER_FIELDS))
@pytest.mark.parametrize("value", ["abc", [3], 2.5, True, float("inf")])
def test_load_config_rejects_non_integer_entry_field(tmp_path, key, value):
    path = _write_config(tmp_path, NESTED_INTEGER_FIELDS[key](value))
    with pytest.raises(InputFormatError, match=f"{key} must be an integer"):
        load_config(path)
    assert load_config(_write_config(tmp_path, NESTED_INTEGER_FIELDS[key](4.0))) is not None  # 4.0 is 4


def test_petersen_row_count():
    # a method whose record has no rng_seed (v2) emits one row per cell, randomized ones one per trial
    config = BenchConfig(
        instances=(GeneratorSpec("petersen"),),
        rhos=(Fraction(1, 3),),
        methods=(MethodSpec("v2"), MethodSpec("abw"), MethodSpec("girth5")),
        trials=5,
        rng_seed_base=1,
    )
    result = run_bench(config)
    assert len(result.rows) == 1 + 5 + 5
    assert not result.skipped
    assert all(row["valid"] == "true" for row in result.rows)
    assert {row["method"] for row in result.rows} == {"v2", "abw", "girth5"}
    v2_rows = [r for r in result.rows if r["method"] == "v2"]
    assert len(v2_rows) == 1
    assert v2_rows[0]["seed_size"] == 10
    assert v2_rows[0]["bound_rho_n"] == f"{10 / 3:.6f}"


def test_tightness_row():
    config = BenchConfig(
        instances=(GeneratorSpec("star", 4),),
        rhos=(Fraction(1, 5),),
        methods=(MethodSpec("tree"),),
        trials=1,
    )
    result = run_bench(config)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row["seed_size"] == 1
    assert row["bound_rho_n"] == "1.000000"
    assert row["valid"] == "true"


def test_girth5_cell_delta_follows_epsilon():
    # no delta: the cell's epsilon (the method's, else the config's) picks it, as in girth5_construct
    derived = str(Fraction(repr(girth5_params(0.568).delta)))  # about 1/10
    for method, epsilon, delta in (
        (MethodSpec("girth5"), None, "1/2"),
        (MethodSpec("girth5"), 0.568, derived),
        (MethodSpec("girth5", {"epsilon": 0.568}), None, derived),
        (MethodSpec("girth5", {"epsilon": 0.568}), 7.0, derived),
        (MethodSpec("girth5", {"delta": Fraction(1, 5)}), 0.568, "1/5"),
    ):
        config = BenchConfig(
            instances=(GeneratorSpec("petersen"),),
            rhos=(Fraction(1, 3),),
            methods=(method,),
            epsilon=epsilon,
        )
        row = run_bench(config).rows[0]
        assert row["delta"] == delta
        cell_epsilon = method.options.get("epsilon", epsilon)
        assert row["bound_2eps"] == (f"{(2 + cell_epsilon) * 10 / 3:.6f}" if cell_epsilon else "")


def test_girth5_scan_runs_once_per_instance(monkeypatch):
    # every girth5 cell asks girth_at_least_five and is_connected, and every trial wants the greedy kernel:
    # the answers are cached on the graph, so one search each per instance and one kernel per (instance, rho)
    scans, searches, kernels = [], [], []
    scan = graphs_mod._short_cycle_free
    monkeypatch.setattr(graphs_mod, "_short_cycle_free", lambda g: scans.append(g.n) or scan(g))
    components = graphs_mod.connected_components
    monkeypatch.setattr(graphs_mod, "connected_components", lambda g: searches.append(g.n) or components(g))
    kernel = constructors_mod.greedy_kernel
    monkeypatch.setattr(constructors_mod, "greedy_kernel", lambda g, r, d: kernels.append(r) or kernel(g, r, d))
    config = BenchConfig(
        instances=(GeneratorSpec("random_girth5", 200, p=0.03, rng_seed=4),),
        rhos=(Fraction(1, 2), Fraction(1, 4)),
        methods=(MethodSpec("girth5", {"max_restarts": 2}),),
        trials=3,
    )
    result = run_bench(config)
    assert len(result.rows) == 6 and not result.skipped
    assert len(scans) == 1
    assert len(searches) == 1
    assert kernels == [Fraction(1, 2), Fraction(1, 4)]


def test_rows_are_checked_by_is_monopoly(monkeypatch):
    # each row's seed goes through the checked entry once, and a builder's non-monopoly still aborts the sweep
    checks = []
    check = bench_mod.is_monopoly
    monkeypatch.setattr(bench_mod, "is_monopoly", lambda g, phi, seed: checks.append(len(seed)) or check(g, phi, seed))
    config = BenchConfig(
        instances=(GeneratorSpec("petersen"), GeneratorSpec("path", 9)),
        rhos=(Fraction(1, 3), Fraction(1, 2)),
        methods=(MethodSpec("v2"), MethodSpec("abw")),
        trials=3,
    )
    result = run_bench(config)
    assert len(result.rows) == 2 * 2 * (1 + 3)
    assert checks == [row["seed_size"] for row in result.rows]
    monkeypatch.setitem(constructors_mod.BUILDERS, "v2", lambda g, rho, rng_seed, **_: MonopolySeed("v2", ()))
    config = BenchConfig(instances=(GeneratorSpec("petersen"),), rhos=(Fraction(1, 3),), methods=(MethodSpec("v2"),))
    with pytest.raises(AssertionError, match="^bench integrity failure: v2 seed on petersen is not a monopoly$"):
        run_bench(config)
    assert checks[-1] == 0
    # and so it does once abw's trials have built the profile's quotient (petersen at rho 1/3: one class of ten)
    builds = []
    quotient = cascade_mod._quotient
    monkeypatch.setattr(cascade_mod, "_quotient", lambda g, phi: builds.append(g.n) or quotient(g, phi))
    config = BenchConfig(instances=(GeneratorSpec("petersen"),), rhos=(Fraction(1, 3),),
                         methods=(MethodSpec("abw"), MethodSpec("v2")), trials=2)
    with pytest.raises(AssertionError, match="^bench integrity failure: v2 seed on petersen is not a monopoly$"):
        run_bench(config)
    assert builds == [10] and checks[-1] == 0


def test_quotients_are_built_on_a_second_check_only(monkeypatch, tmp_path, capsys):
    # one-shot construct and verify build none, a sweep at most one per (instance, rho), a list profile never
    builds = []
    quotient = cascade_mod._quotient
    monkeypatch.setattr(cascade_mod, "_quotient", lambda g, phi: builds.append((g, phi)) or quotient(g, phi))
    pet, tree = tmp_path / "pet.txt", tmp_path / "tree.txt"
    pet.write_text(serialize_graph(generate(GeneratorSpec("petersen"))))
    tree.write_text(serialize_graph(generate(GeneratorSpec("random_tree", 40, rng_seed=2))))
    for path, method in ((pet, "v2"), (pet, "abw"), (pet, "girth5"), (tree, "tree"), (tree, "abw")):
        assert main(["construct", "-g", str(path), "--rho", "1/3", "--method", method]) == 0
        seed_path = tmp_path / "seed.txt"
        seed_path.write_text(" ".join(map(str, json.loads(capsys.readouterr().out)["seed"])))
        assert main(["verify", "-g", str(path), "--rho", "1/3", "--seed-set", str(seed_path)]) == 0
        assert capsys.readouterr().out == "monopoly: true\n"
    assert builds == []
    config = BenchConfig(
        instances=(GeneratorSpec("random_girth5", 60, p=0.1, rng_seed=1), GeneratorSpec("random_girth5", 120, p=0.05),
                   GeneratorSpec("petersen"), GeneratorSpec("cycle", 40), GeneratorSpec("complete", 8)),
        rhos=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)),
        methods=(MethodSpec("v2"), MethodSpec("abw"), MethodSpec("tree"),
                 MethodSpec("girth5", {"delta": Fraction(1, 5), "max_restarts": 2})),
        trials=2, epsilon=0.568,
    )
    assert run_bench(config).rows
    assert 0 < len(builds) == len({(id(g), id(phi)) for g, phi in builds}) <= 5 * 3
    g = builds[0][0]
    phi = list(proportional_thresholds(g, Fraction(1, 8)))
    for _ in range(3):
        assert is_monopoly(g, phi, range(g.n)) and is_monopoly(g, tuple(phi), range(g.n))
    assert len(builds) == len({(id(g), id(phi)) for g, phi in builds})


def test_path_instances_are_keyed_by_the_path_as_written(monkeypatch, tmp_path):
    # a/g.txt and b/g.txt of equal order are two instances, each with its own label and RNG streams; a file next to
    # the config is labelled by its name, as before, however it is written
    text = serialize_graph(generate(GeneratorSpec("random_tree", 12, rng_seed=3)))
    for rel in ("g.txt", "a/g.txt", "b/g.txt"):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text(text)
    absolute = str(tmp_path / "a" / "g.txt")
    written = ["g.txt", "./g.txt", "a/g.txt", "b/g.txt", absolute]
    payload = {"instances": [{"path": p} for p in written], "rhos": ["1/3"], "methods": ["abw"], "rng_seed_base": 5}
    config = load_config(_write_config(tmp_path, payload))
    labels = ["g.txt", "g.txt", "a/g.txt", "b/g.txt", absolute]
    assert [inst.label for inst in config.instances] == labels
    assert [inst.path for inst in config.instances] == [tmp_path / p for p in ("g.txt", "g.txt", *written[2:])]
    seeds = []
    abw = constructors_mod.BUILDERS["abw"]
    monkeypatch.setitem(constructors_mod.BUILDERS, "abw", lambda g, rho, rng_seed, **kw: seeds.append(rng_seed)
                        or abw(g, rho, rng_seed, **kw))
    rows = run_bench(config).rows
    assert [row["family"] for row in rows] == labels
    assert seeds == [stable_seed(5, label, 12, "1/3", "abw", 0) for label in labels]
    assert len(set(seeds)) == 4


def test_skipped_cells_record_reason():
    config = BenchConfig(
        instances=(GeneratorSpec("star", 4),),
        rhos=(Fraction(1, 5),),
        methods=(MethodSpec("girth5"),),  # max degree 4 < 5 = 1/rho
        trials=2,
    )
    result = run_bench(config)
    assert not result.rows
    assert len(result.skipped) == 1
    assert "degree" in result.skipped[0]["reason"]


def test_allow_low_girth_false_skips_c4(tmp_path):
    methods = [{"method": "girth5", "allow_low_girth": flag} for flag in (False, None, True)]
    payload = {"instances": [{"family": "cycle", "n": 4}], "rhos": ["1/2"], "methods": methods}
    result = run_bench(load_config(_write_config(tmp_path, payload)))
    assert len(result.skipped) == 2 and all("cycle of length 3 or 4" in s["reason"] for s in result.skipped)
    assert len(result.rows) == 1 and result.rows[0]["valid"] == "true"  # only true runs on C4


def test_empty_config_produces_header_only_csv(tmp_path):
    config = BenchConfig(instances=(), rhos=(), methods=())
    result = run_bench(config)
    out = tmp_path / "empty.csv"
    write_csv(result.rows, out)
    assert out.read_text(encoding="utf-8") == ",".join(CSV_COLUMNS) + "\n"


def test_determinism_excluding_runtime(tmp_path):
    gpath = tmp_path / "tree.txt"
    gpath.write_text(serialize_graph(generate(GeneratorSpec("random_tree", 15, rng_seed=4))))
    config_payload = {
        "instances": ["petersen", {"path": "tree.txt"}],
        "rhos": ["1/3"],
        "methods": ["v2", "abw", {"method": "girth5", "delta": "0.5"}, "tree"],
        "trials": 3,
        "rng_seed_base": 42,
        "epsilon": 0.8,
    }
    path = _write_config(tmp_path, config_payload)
    r1 = run_bench(load_config(path))
    r2 = run_bench(load_config(path))

    def strip(rows):
        return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]

    assert strip(r1.rows) == strip(r2.rows)
    assert r1.skipped == r2.skipped  # tree on petersen is skipped identically
    assert r1.summary == r2.summary
    # 2eps column filled from the config-level epsilon
    assert all(row["bound_2eps"] != "" for row in r1.rows)


def test_rows_cross_checked_against_exact_oracle():
    from fractions import Fraction as F

    from dynmono import min_monopoly_exact, proportional_thresholds

    tree = generate(GeneratorSpec("random_tree", 10, rng_seed=5))
    config = BenchConfig(
        instances=(
            GeneratorSpec("petersen"),
            GeneratorSpec("random_tree", 10, rng_seed=5),
            GeneratorSpec("star", 9),
        ),
        rhos=(F(1, 3), F(1, 10)),
        methods=(MethodSpec("v2"), MethodSpec("abw"), MethodSpec("tree"), MethodSpec("girth5")),
        trials=2,
        rng_seed_base=3,
    )
    result = run_bench(config)
    graphs = {
        "petersen": generate(GeneratorSpec("petersen")),
        "random_tree:10:5": tree,
        "star:9": generate(GeneratorSpec("star", 9)),
    }
    assert result.rows
    for row in result.rows:
        g = graphs[row["family"]]
        rho = F(row["rho"])
        h = min_monopoly_exact(g, proportional_thresholds(g, rho)).h
        assert row["seed_size"] >= h
        if row["method"] == "tree":
            assert row["seed_size"] <= (g.n * rho.numerator) // rho.denominator


def test_bound_columns_and_epsilon_empty():
    config = BenchConfig(
        instances=(GeneratorSpec("cycle", 5),),
        rhos=(Fraction(1),),
        methods=(MethodSpec("abw"),),
        trials=1,
    )
    row = run_bench(config).rows[0]
    assert row["bound_abw"] == f"{10 / 3:.6f}"
    assert row["bound_583"] == f"{(2 * 2 ** 0.5 + 3) * 5:.6f}"
    assert row["bound_492"] == f"{4.92 * 5:.6f}"
    assert row["bound_2eps"] == ""
    assert row["rounds"] == "" and row["fallback"] == ""
