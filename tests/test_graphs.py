from __future__ import annotations

import random
import re
import sys

import pytest

from dynmono import (
    Graph,
    InputFormatError,
    PreconditionError,
    from_edges,
    generate,
    GeneratorSpec,
    girth,
    girth5_construct,
    parse_graph,
    random_girth5,
    random_tree,
    serialize_graph,
)
from dynmono import graphs as graphs_mod
from dynmono.generators import FAMILIES, petersen
from dynmono.graphs import ACYCLIC, connected_components, girth_at_least_five, induced_subgraph, is_tree
from instances import gnp
from oracles import girth_by_enumeration, parse_graph_reference, short_cycle_free_reference


def test_parse_path_example():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.degrees == (1, 2, 1)


def test_parse_isolated_vertex():
    g = parse_graph("1 0")
    assert g.n == 1 and g.m == 0


def test_parse_comments_and_blanks():
    text = "# a graph\n\n3 2\n0 1  # first edge\n# middle comment\n1 2\n"
    g = parse_graph(text)
    assert g.degrees == (1, 2, 1)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2 1\n0 0", "line 2: self-loop"),
        ("3 2\n0 1\n1 0", "line 3: duplicate edge"),
        ("2 1\n0 5", "line 2: vertex id out of range"),
        ("2 1\n0 -1", "line 2: vertex id out of range"),
        ("x y\n", "line 1"),
        ("2 1\n0 1\n1 0\n", "line 3"),
        ("2 2\n0 1\n", "expected 2 edges, found 1"),
        ("", "missing 'n m' header"),
        ("2 1\n0 1 2\n", "line 2"),
        ("3 3\n0 1\n1 2\n2 1", "line 4: duplicate edge"),
        ("3 1\n0 0\n0 1\n1 2\n", "line 2: self-loop"),  # the bad edge comes before the surplus lines
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(InputFormatError) as excinfo:
        parse_graph(text)
    assert fragment in str(excinfo.value)


def test_serialize_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(0, 20)
        g = gnp(n, 0.3, rng)
        h = parse_graph(serialize_graph(g))
        assert h == g and hash(h) == hash(g) and {g: "entry"}[h] == "entry"  # graphs compare and hash by (n, adj)
    path = from_edges(3, [(0, 1), (1, 2)])
    assert path != from_edges(3, [(0, 1)]) and path != from_edges(4, [(0, 1), (1, 2)])


def test_serialize_edge_order():
    g = from_edges(4, [(3, 1), (0, 2), (1, 0)])
    assert serialize_graph(g) == "4 3\n0 1\n0 2\n1 3\n"


def test_from_edges_rejects_bad_input():
    with pytest.raises(PreconditionError):
        from_edges(3, [(0, 0)])
    with pytest.raises(PreconditionError):
        from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(PreconditionError):
        from_edges(2, [(0, 5)])
    # an id or a count that is not an int is refused by name, so no bool or float reaches adj or serialize_graph
    for n, edges, message in ((2, [(0, True)], "got edge (0,True)"), (2, [(1.0, 0)], "got edge (1.0,0)"),
                              (3, [(0, 1), (1, "2")], "got edge (1,'2')"), (2.0, [], "got 2.0"), (True, [], "got True")):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            from_edges(n, edges)


def test_from_edges_refuses_a_vertex_count_above_the_cap(monkeypatch):
    # the cap is read at call time and tested small: a count over it is refused before any edge is read
    assert graphs_mod.MAX_VERTICES == 10**7
    monkeypatch.setattr(graphs_mod, "MAX_VERTICES", 10)
    assert from_edges(10, [(0, 9)]).n == 10

    def unread():
        raise AssertionError("an edge was read")
        yield

    with pytest.raises(PreconditionError, match="^vertex count 11 exceeds the limit 10$"):
        from_edges(11, unread())


def _outcome(build, *args) -> str:
    """The built graph's repr, or the exception's type and message: what a caller can observe."""
    try:
        return repr(build(*args))
    except Exception as exc:  # the exception itself is the outcome compared
        return f"{type(exc).__name__}: {exc}"


def _fuzz_token(x: int | str, rng: random.Random) -> str:
    """An id as a document may spell it: mostly plain, else in another form int() reads (a str is kept as is)."""
    text = str(x)
    form = rng.random()
    if isinstance(x, str) or form < 0.8:
        return text
    if form < 0.87:
        return "+" + text
    if form < 0.94:
        return text.replace("-", "-0") if x < 0 else "0" + text
    return text[:-1] + "_" + text[-1] if len(text.lstrip("-")) > 1 else text


def _fuzz_document(rng: random.Random) -> str:
    """A small edge-list document, valid or with up to three faults of the kinds a file can have."""
    n = rng.randint(0, 12)
    edges = [[u, v] if rng.random() < 0.5 else [v, u] for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
    rng.shuffle(edges)
    header, rows = [n, len(edges)], [list(edge) for edge in edges]
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        fault = rng.randrange(7)
        at = rng.randint(0, len(rows))
        if fault == 0 and edges:  # a duplicate edge, either orientation, counted in the header or not
            u, v = rng.choice(edges)
            rows.insert(at, [u, v] if rng.random() < 0.5 else [v, u])
            header[1] += rng.random() < 0.8
        elif fault == 1:  # a self-loop
            u = rng.randrange(max(n, 1))
            rows.insert(at, [u, u])
            header[1] += rng.random() < 0.8
        elif fault == 2 and rows:  # an endpoint just or far out of range
            row = rng.choice(rows)
            if row:
                row[rng.randrange(len(row))] = rng.choice([-1, n, n + 1, -n - 1])
        elif fault == 3:  # surplus or missing edge lines, or a negative count
            header[1] = max(0, header[1] + rng.choice([-1, 1])) if rng.random() < 0.9 else -1
        elif fault == 4:  # a header vertex count that misses the ids
            header[0] = rng.choice([-1, 0, max(n - 1, 0), n + 1])
        elif fault == 5:  # a line with one or three tokens
            row = rng.choice(rows + [header])
            row.pop() if row is not header and row and rng.random() < 0.5 else row.append(rng.randrange(n + 1))
        elif fault == 6:  # a stray line holding the header again
            rows.insert(at, list(header))
    if rng.random() < 0.15:  # a token int() does not read
        row = rng.choice(rows + [header])
        if row:
            row[rng.randrange(len(row))] = rng.choice(["x", "1.0", "1__0", "_1", "0x1", "--1", "2#"])
    sep = rng.choice([" ", " ", "  ", "\t", "\xa0"])
    lines = [sep.join(_fuzz_token(x, rng) for x in row) for row in [header] + rows]
    for _ in range(rng.choice([0, 0, 1, 2])):  # blank, whitespace and comment lines, and trailing comments
        extra = rng.choice(["", "   ", "# a comment", "#", "  # 0 1"])
        if extra.startswith(" ") and extra.strip():
            lines[rng.randrange(len(lines))] += extra
        else:
            lines.insert(rng.randint(0, len(lines)), extra)
    newline = rng.choice(["\n", "\n", "\r\n", "\r", "\x0c", "\u2028"])
    return newline.join(lines) + rng.choice(["", newline])


def test_parse_graph_matches_the_line_walk_on_fuzzed_documents():
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(3000):
        text = _fuzz_document(rng)
        got, expected = _outcome(parse_graph, text), _outcome(parse_graph_reference, text)
        assert got == expected, text
        accepted += expected.startswith("Graph(")
    assert 500 < accepted < 2500  # both the accepting and the error-naming side are exercised


def test_parse_graph_refuses_a_header_above_the_cap(monkeypatch):
    # the cap is tested small: a document over it reaches neither the builtin build nor the edge walk
    assert graphs_mod.MAX_VERTICES == 10**7
    monkeypatch.setattr(graphs_mod, "MAX_VERTICES", 10)
    assert parse_graph("10 1\n0 9") == from_edges(10, [(0, 9)])
    monkeypatch.setattr(graphs_mod, "_simple_graph", None)
    monkeypatch.setattr(graphs_mod, "from_edges", None)
    for text, message in (
        ("11 0", "line 1: vertex count 11 exceeds the limit 10"),
        ("11 1\n0 1", "line 1: vertex count 11 exceeds the limit 10"),
        ("# big\n\n12 1\n0 x", "line 3: vertex count 12 exceeds the limit 10"),
    ):
        with pytest.raises(InputFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "3 2\r\n0 1\r\n1 2\r\n",
        "\n\n3 2\n\n0 1\n   \n1 2\n\n",
        "# c\n3 2\n0 1 # e\n1 2",
        "3 2\n0 1\n1 2\n# 0 2",
        "+3 +2\n+0 01\n1 02",
        "11 1\n0 1_0",
        "3 2\n0 1\n1 -2",
        "3 1\n0 1\n1 2",
        "3 3\n0 1\n1 2",
        "3 2\n0 1\n0 1",
        "3 2\n0 1\n1 0",
        "3 2\n0 1\n2 2",
        "3 2\n0 1\n1 3",
        "3 2\n0 1 # 1 2\n1 2",
        "3 2\r0 1\r1 2",
        "0 0",
        "3 0\n",
        "3\n0 1",
        "3 1 1\n0 1",
        "3 1\n0\n1",
        "3 2\n0 01\n1 2\n",  # each of these looks like serialize_graph's output but must reach the walk
        "3 2\n0  1\n1 2\n",
        "3 2\n0 1\n1 2\n\n",
        "3 2\n0\t 1\n1 2\n",
        "3 0",
        "0 0\n",
        pytest.param("1" * (getattr(sys, "get_int_max_str_digits", lambda: 4300)() + 1) + " 0\n",
                     id="header-past-the-digit-limit"),
    ],
)
def test_parse_graph_matches_the_line_walk_on_named_cases(text):
    assert _outcome(parse_graph, text) == _outcome(parse_graph_reference, text)


def test_every_serialized_family_takes_the_builtin_path_in_order(monkeypatch):
    specs = [GeneratorSpec(family, n, 0.3, seed) for family in FAMILIES for n in (3, 5, 12) for seed in (0, 1)]
    graphs = [generate(spec) for spec in specs] + [generate(GeneratorSpec(family, 1)) for family in ("path", "star")]
    texts = [serialize_graph(g) for g in graphs]
    assert "1 0\n" in texts and len({g.m for g in graphs}) > 10
    monkeypatch.setattr(graphs_mod, "from_edges", None)  # the line walk cannot run
    for g, text in zip(graphs, texts):
        assert parse_graph(text) == g and parse_graph(text.rstrip("\n")) == g
        assert parse_graph(text.replace(" ", "\t")) == g


def test_edges_out_of_serialize_order_take_the_line_walk():
    g = gnp(9, 0.5, random.Random(3))
    header, *rows = serialize_graph(g).splitlines()
    u, v = rows[-1].split()
    bad = [rows + [rows[-1]], rows + [f"{v} {u}"], rows + [f"{u} {u}"], rows[:-1] + [rows[0]], rows[:-1] + [f"{v} {v}"]]
    for text in (f"{g.n} {len(body)}\n" + "\n".join(body) + "\n" for body in bad):  # repeats and self-loops
        expected = _outcome(parse_graph_reference, text)
        assert expected.startswith("InputFormatError: line ") and _outcome(parse_graph, text) == expected
    reordered = ["\n".join([header, rows[1], rows[0]] + rows[2:]) + "\n",
                 "\n".join([header, " ".join(rows[0].split()[::-1])] + rows[1:]) + "\n"]
    assert [parse_graph(text) for text in reordered] == [g, g]


def _as_generator(pairs):
    return (pair for pair in pairs)


# (n, pairs, outcome): the graph, or the first bad edge named as the edge walk meets it
FROM_EDGES_CASES = [
    (4, [(0, 1), (2, 1), (3, 0)], "Graph(n=4, adj=((1, 3), (0, 2), (1,), (0,)))"),
    (4, [(0, 1), (1, 0)], "PreconditionError: duplicate edge (0,1)"),
    (4, [(0, 1), (2, 2)], "PreconditionError: self-loop at vertex 2"),
    (4, [(0, 4)], "PreconditionError: vertex id out of range 0..3 in edge (0,4)"),
    (4, [(-1, 2)], "PreconditionError: vertex id out of range 0..3 in edge (-1,2)"),
    (3, [(True, 2), (0, 2)], "PreconditionError: vertex ids must be integers, got edge (True,2)"),
    (3, [(True, 1), (0, 1)], "PreconditionError: vertex ids must be integers, got edge (True,1)"),
    (3, [(1.0, 2), (0, 1)], "PreconditionError: vertex ids must be integers, got edge (1.0,2)"),
    (3, [(1.5, 2)], "PreconditionError: vertex ids must be integers, got edge (1.5,2)"),
    (3, [("1", 2)], "PreconditionError: vertex ids must be integers, got edge ('1',2)"),
    (3, [(0, 1, 2)], "ValueError: too many values to unpack (expected 2)"),
    (3, [(0, 1), (1,)], "ValueError: not enough values to unpack (expected 2, got 1)"),
    (3, [[0, 1], [1, 2]], "Graph(n=3, adj=((1,), (0, 2), (1,)))"),
    (3, [(0, 1), [1, 2], (2, 1)], "PreconditionError: duplicate edge (1,2)"),
    (0, [], "Graph(n=0, adj=())"),
    (-1, [], "PreconditionError: vertex count must be a non-negative integer, got -1"),
]


@pytest.mark.parametrize("wrap", [list, _as_generator, tuple])
@pytest.mark.parametrize("n, pairs, expected", FROM_EDGES_CASES,
                         ids=[f"{n}-pairs{i}" for i, (n, _, _) in enumerate(FROM_EDGES_CASES)])
def test_from_edges_matches_the_edge_walk(n, pairs, expected, wrap):
    assert _outcome(from_edges, n, wrap(pairs)) == expected


def test_girth_classics():
    assert girth(petersen()) == 5
    assert girth(generate(GeneratorSpec("cycle", 7))) == 7
    assert girth(generate(GeneratorSpec("cycle", 20_000))) == 20_000  # walked once, then peeled: O(n)
    assert girth(generate(GeneratorSpec("cycle", 4))) == 4
    assert girth(generate(GeneratorSpec("complete", 4))) == 3
    assert girth(generate(GeneratorSpec("path", 6))) == ACYCLIC
    assert girth(generate(GeneratorSpec("random_tree", 30, rng_seed=2))) == ACYCLIC
    assert girth(from_edges(0, [])) == ACYCLIC
    assert not girth_at_least_five(generate(GeneratorSpec("cycle", 4)))
    assert girth_at_least_five(generate(GeneratorSpec("cycle", 5)))
    assert girth_at_least_five(petersen())
    assert not girth_at_least_five(generate(GeneratorSpec("complete", 60)))


def test_girth_against_enumeration():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randint(0, 8)
        g = gnp(n, rng.uniform(0.05, 0.7), rng)
        expected = girth_by_enumeration(n, g.edges())
        got = girth(g)
        if expected is None:
            assert got == ACYCLIC
        else:
            assert got == expected
        # the girth-5 test runs the search with its own cut-off: checked here against the oracle
        assert girth_at_least_five(g) == (expected is None or expected >= 5)


def test_girth_matches_networkx_on_larger_graphs():
    # the enumeration oracle stops at 8 vertices: networkx's girth checks the BFS cut-off and level rule beyond it
    import networkx as nx

    rng = random.Random(2024)
    graphs = [gnp(n, rng.uniform(0.5, 4) / n, rng) for n in (rng.randint(1, 60) for _ in range(300))]
    graphs += [random_girth5(300, 0.02, seed) for seed in range(10)]
    for g in graphs:
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        assert girth(g) == nx.girth(h), sorted(g.edges())
    assert {girth(g) for g in graphs} >= {3, 4, 5, 6, ACYCLIC}


def _agrees_with_the_girth_search(g) -> bool:
    """The set-disjointness reference, the girth-5 test and the full girth search agree; returns the answer."""
    expected = short_cycle_free_reference(g)
    assert girth_at_least_five(g) == (girth(g) >= 5) == expected
    return expected


def test_girth_at_least_five_matches_the_girth_search_on_the_atlas():
    import networkx as nx

    answers = [_agrees_with_the_girth_search(from_edges(a.number_of_nodes(), a.edges())) for a in nx.graph_atlas_g()]
    assert len(answers) == 1253 and 0 < answers.count(False) < 1253


def test_girth_at_least_five_on_forests():
    rng = random.Random(8)
    for seed in range(20):
        trees = [generate(GeneratorSpec("random_tree", rng.randint(1, 60), rng_seed=seed + 100 * k)) for k in range(3)]
        edges, offset = [], 0
        for t in trees:
            edges.extend((u + offset, v + offset) for u, v in t.edges())
            offset += t.n
        forest = from_edges(offset + rng.randint(0, 3), edges)  # a few isolated vertices too
        assert _agrees_with_the_girth_search(forest)
    for family in ("path", "star"):
        assert _agrees_with_the_girth_search(generate(GeneratorSpec(family, 40)))


def test_girth_at_least_five_answers_a_tree_from_its_counts(monkeypatch):
    # a connected graph with m < n is a tree: the test answers from the counts and never starts the cycle search
    def no_search(g, below):
        raise AssertionError("the cycle search ran on a tree")

    monkeypatch.setattr(graphs_mod, "_shortest_cycle", no_search)
    trees = [generate(GeneratorSpec(family, 40)) for family in ("path", "star")]
    trees += [random_tree(n, seed) for n in (1, 2, 3, 60, 500) for seed in range(3)]
    for t in trees:
        assert t.m < t.n and girth_at_least_five(t)


def _pair_at_distance(t: Graph, d: int) -> tuple[int, int]:
    """The first (root, v) with v at distance d from root in t, roots in id order."""
    for root in range(t.n):
        dist, queue = {root: 0}, [root]
        for u in queue:  # BFS: the queue grows in level order as it is walked
            if dist[u] == d:
                return root, u
            for v in t.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    raise ValueError(f"no two vertices at distance {d}")


def test_a_tree_plus_a_short_cycle_edge_fails_the_girth_five_test():
    # one edge more than a tree (m = n) runs the search: a closed 3- or 4-cycle still fails, and girth5 refuses it
    trees = [generate(GeneratorSpec("path", 12))] + [random_tree(60, seed) for seed in range(8)]
    for t in trees:
        for length in (3, 4, 5):
            u, v = _pair_at_distance(t, length - 1)
            g = from_edges(t.n, [*t.edges(), (u, v)])
            assert g.m == g.n and g.is_connected and girth(g) == length
            assert girth_at_least_five(g) == (length == 5)
            if length < 5:
                with pytest.raises(PreconditionError, match="^graph has a cycle of length 3 or 4; pass allow_low_girth"
                                                            " to proceed$"):
                    girth5_construct(g, "1/3")


def test_girth_at_least_five_with_planted_short_cycles():
    # a girth-5 graph with a 3-, 4- or 5-cycle planted on random vertices: the first two always fail the test,
    # a 5-cycle may close a shorter one through the graph's edges
    rng = random.Random(21)
    verdicts = {3: set(), 4: set(), 5: set()}
    for seed in range(30):
        n = rng.randint(40, 120)
        g = generate(GeneratorSpec("random_girth5", n, p=rng.choice((3, 8)) / n, rng_seed=seed))
        assert _agrees_with_the_girth_search(g)
        for length in (3, 4, 5):
            ring = rng.sample(range(g.n), length)
            planted = {(min(u, v), max(u, v)) for u, v in zip(ring, ring[1:] + ring[:1])}
            h = from_edges(g.n, set(g.edges()) | planted)
            verdicts[length].add(_agrees_with_the_girth_search(h))
    assert verdicts == {3: {False}, 4: {False}, 5: {True, False}}


def test_girth_acyclic_inputs():
    assert girth(from_edges(1, [])) == ACYCLIC
    assert girth(generate(GeneratorSpec("star", 9))) == ACYCLIC
    forest = from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (4, 6)])
    assert girth(forest) == ACYCLIC
    for seed in range(5):
        assert girth(generate(GeneratorSpec("random_tree", 300, rng_seed=seed))) == ACYCLIC


def _path_edges(start: int, length: int, anchor: int) -> list[tuple[int, int]]:
    """Edges of a path start..start+length-1 hung from ``anchor``."""
    ids = [anchor] + list(range(start, start + length))
    return list(zip(ids, ids[1:]))


def test_girth_cycle_with_pendant_trees():
    # C_length on 0..length-1; two long pendant paths and a small tree hang off it: n = 75, then n = 20,000
    for length, hang in ((6, (40, 25)), (10_000, (6_000, 3_996))):
        edges = [(i, (i + 1) % length) for i in range(length)]
        edges += _path_edges(length, hang[0], 0)
        edges += _path_edges(length + hang[0], hang[1], length // 2)
        t = length + sum(hang)
        edges += [(2, t), (t, t + 1), (t, t + 2), (t + 2, t + 3)]
        g = from_edges(t + 4, edges)
        assert girth(g) == length and girth_at_least_five(g)


def _joined_cycles(a: int, b: int, inner: int) -> Graph:
    """C_a on 0..a-1 and C_b on a..a+b-1, joined by a path 0 ~ a through ``inner`` more vertices."""
    edges = [(i, (i + 1) % a) for i in range(a)]
    edges += [(a + i, a + (i + 1) % b) for i in range(b)]
    ids = [0] + list(range(a + b, a + b + inner)) + [a]
    edges += list(zip(ids, ids[1:]))
    return from_edges(a + b + inner, edges)


def test_girth_two_cycles_joined_by_a_long_path():
    # the path vertices stay in the 2-core but lie on no cycle: n = 41, then 20,000
    for a, b, inner in ((7, 5, 29), (9_000, 8_000, 3_000)):
        g = _joined_cycles(a, b, inner)
        assert girth(g) == min(a, b) and girth_at_least_five(g)


def _row_reads(search, g: Graph) -> int:
    """How many adjacency rows ``search`` reads on a fresh copy of ``g``."""
    reads = []

    class CountedAdj(tuple):
        def __getitem__(self, u):
            reads.append(u)
            return tuple.__getitem__(self, u)

    search(Graph(n=g.n, adj=CountedAdj(g.adj)))
    return len(reads)


def test_girth_walks_a_long_cycle_once():
    # each BFS root leaves the 2-core and the peel follows, so a long cycle costs O(n) adjacency reads, not n^2
    for g in (generate(GeneratorSpec("cycle", 2_000)), _joined_cycles(1_000, 800, 200)):
        for search in (girth, girth_at_least_five):
            reads = _row_reads(search, g)
            assert 0 < reads <= 3 * g.n, (search.__name__, reads)


def test_girth_five_test_stops_at_its_first_short_cycle():
    # K(30, 30): the first BFS meets a 4-cycle and ends the search, so the girth-5 test reads about n/2 rows, not
    # one BFS's worth per vertex
    k = from_edges(60, [(i, 30 + j) for i in range(30) for j in range(30)])
    reads = _row_reads(girth_at_least_five, k)
    assert 0 < reads <= k.n and not girth_at_least_five(k), reads
    # C4 on 0..3, a bridge 2-4, a triangle on 4..6: the BFS from 0 meets the 4-cycle first and the girth-5 test
    # stops there, while the full search goes on to the triangle
    g = from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (4, 5), (5, 6), (4, 6)])
    assert graphs_mod._shortest_cycle(g, 5) == 4
    assert girth(g) == 3 and not girth_at_least_five(g)


def test_girth_tree_component_and_cycle_component():
    tree = [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)]
    cycle = [(6 + i, 6 + (i + 1) % 8) for i in range(8)]
    assert girth(from_edges(14, tree + cycle)) == 8
    # the same with the cycle placed first in id order
    cycle = [(i, (i + 1) % 8) for i in range(8)]
    tree = [(8, 9), (9, 10), (10, 11), (10, 12), (12, 13)]
    assert girth(from_edges(14, cycle + tree)) == 8


def test_components():
    g = parse_graph("3 2\n0 1\n1 2")
    assert connected_components(g) == [[0, 1, 2]]
    g = from_edges(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [[0, 1], [2, 3]]
    assert connected_components(from_edges(0, [])) == []
    assert from_edges(0, []).is_connected


def test_components_of_a_mask_match_the_induced_subgraph():
    # a mask gives the components of the subgraph the kept vertices induce, in g's ids, ordered by smallest member
    rng = random.Random(17)
    assert connected_components(from_edges(0, []), []) == []
    for _ in range(200):
        g = gnp(rng.randint(1, 16), rng.choice((0.1, 0.25, 0.5)), rng)
        for mask in ([False] * g.n, [True] * g.n, [rng.random() < 0.6 for _ in range(g.n)]):
            kept = [u for u in range(g.n) if mask[u]]
            h, idmap = induced_subgraph(g, kept)
            back = {new: old for old, new in idmap.items()}
            assert connected_components(g, mask) == [[back[u] for u in block] for block in connected_components(h)]
        assert connected_components(g, [True] * g.n) == connected_components(g)


def test_induced_subgraph():
    star = generate(GeneratorSpec("star", 4))
    sub, idmap = induced_subgraph(star, [0, 2])
    assert sub.n == 2 and sub.m == 1
    assert idmap == {0: 0, 2: 1}

    c5 = generate(GeneratorSpec("cycle", 5))
    sub, idmap = induced_subgraph(c5, [0, 1, 2, 3])
    # enumerated by hand: the surviving edges form the path 0-1-2-3
    assert sorted(sub.edges()) == [(0, 1), (1, 2), (2, 3)]

    sub, idmap = induced_subgraph(c5, range(5))
    assert sub == c5
    assert idmap == {u: u for u in range(5)}

    with pytest.raises(PreconditionError):
        induced_subgraph(c5, [0, 7])


def test_degree_after_vertex_removal():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 12)
        g = gnp(n, 0.4, rng)
        v = rng.randrange(n)
        sub, idmap = induced_subgraph(g, [u for u in range(n) if u != v])
        for old, new in idmap.items():
            drop = 1 if v in g.adj[old] else 0
            assert sub.degrees[new] == g.degrees[old] - drop


def test_is_tree():
    assert is_tree(generate(GeneratorSpec("path", 5)))
    assert not is_tree(generate(GeneratorSpec("cycle", 5)))
    assert not is_tree(from_edges(4, [(0, 1), (2, 3)]))
    assert is_tree(from_edges(1, []))
    assert not is_tree(from_edges(0, []))
