from __future__ import annotations

import random
import tracemalloc
import warnings

import pytest
from conftest import small_random
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvalues import graph
from graphvalues.generate import gen_ktree
from graphvalues.graph import (
    DIMACS_MAX_NODES,
    Edge,
    ParseError,
    WeightedDigraph,
    component_has_cycle,
    induced_subgraph,
    parse_any,
    parse_graph,
    tarjan_scc,
    to_dimacs,
    to_edgelist,
)


def _rows(g: WeightedDigraph) -> list[tuple[int, int, int, int]]:
    return list(zip(g.src, g.dst, g.wt, g.wtp))


def test_edge_validation():
    with pytest.raises(ValueError, match="out of range"):
        WeightedDigraph(2, [Edge(0, 2, 1)])
    with pytest.raises(ValueError, match="wtp"):
        WeightedDigraph(2, [Edge(0, 1, 1, 0)])
    with pytest.raises(ValueError, match="wtp"):
        WeightedDigraph(2, [Edge(0, 1, 1, -3)])
    with pytest.raises(ValueError):
        WeightedDigraph(2, [Edge(0, 1, 1), Edge(0, 1, 2)])  # duplicate pair
    with pytest.raises(ValueError, match="labels"):
        WeightedDigraph(2, [Edge(0, 1, 1)], labels=["a"])


def test_from_edges_dedups_keeping_minimum():
    with pytest.warns(UserWarning):
        g = WeightedDigraph.from_edges(2, [(0, 1, 5), (0, 1, 2), (0, 1, 7)])
    assert g.m == 1
    assert g.wt[0] == 2


def test_basic_accessors(five_chain):
    g = five_chain
    assert g.n == 5 and g.m == 5
    assert g.max_abs_weight() == 3
    assert g.label_id("w") == 2
    with pytest.raises(KeyError):
        g.label_id("nope")
    assert [v for u, v in zip(g.src, g.dst) if u == 1] == [2]
    assert [g.dst[i] for i in g.out[1]] == [2]
    assert sorted(g.src[i] for i in g.inc[1]) == [0, 4]
    assert [g.wt[i] for i in g.out[2] if g.dst[i] == 3] == [3]


def test_negated_and_unit_wtp(ratio_pair):
    neg = ratio_pair.negated()
    assert neg.wt == [-1, -2]
    assert neg.wtp == [1, 1]
    # originals untouched
    assert ratio_pair.wt == [1, 2]


def test_dimacs_round_trip(five_chain):
    text = to_dimacs(five_chain)
    back = parse_graph(text, "dimacs")
    assert back.n == five_chain.n
    assert _rows(back) == _rows(five_chain)


def test_dimacs_round_trip_with_wtp(ratio_pair):
    back = parse_graph(to_dimacs(ratio_pair), "dimacs")
    assert list(zip(back.wt, back.wtp)) == [(1, 1), (2, 1)]


def test_edgelist_round_trip(two_gadget):
    text = to_edgelist(two_gadget)
    back = parse_graph(text, "edgelist")
    assert back.n == two_gadget.n
    assert list(zip(back.src, back.dst, back.wt)) == list(
        zip(two_gadget.src, two_gadget.dst, two_gadget.wt)
    )


def test_parse_dot_subset():
    g = parse_graph('digraph { a -> b [label="3"]; b -> a [label=-1]; }', "dot")
    assert g.n == 2 and g.m == 2
    assert sorted(g.wt) == [-1, 3]
    assert g.labels == ["a", "b"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph("p mrc 2 1\na 1\n", "dimacs")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_graph("a 1 2 3\n", "dimacs")  # missing problem line
    with pytest.raises(ParseError) as exc:
        parse_graph("0 1 not_an_int\n", "edgelist")
    assert exc.value.line == 1


def test_dimacs_node_count_cap():
    with pytest.raises(ParseError, match="node count") as exc:
        parse_graph(f"c too big\np mrc {DIMACS_MAX_NODES + 1} 0\n", "dimacs")
    assert exc.value.line == 2
    with pytest.raises(ParseError, match="node count"):
        parse_any("p mrc 10000000000 0\n")
    g = parse_graph("p mrc 3 1\na 1 3 -4\n", "dimacs")
    assert (g.n, g.m, g.labels) == (3, 1, ["1", "2", "3"])


# Tokens of all three formats, plus some that none accepts.
_TOKENS = [
    "p", "mrc", "a", "c", "#", "digraph", "G", "{", "}", "->", ";", "[", "]", "label", "=", '"',
    "0", "1", "2", "3", "-1", "-7", "12", "x", "y_2", "1.5", "abc", str(DIMACS_MAX_NODES + 1), "9" * 5000,
]


@settings(max_examples=400)
@given(st.lists(st.tuples(st.sampled_from(_TOKENS), st.sampled_from([" ", "\n", "", "\t"])), max_size=40))
def test_parse_any_returns_a_graph_or_raises_parse_error(pieces):
    text = "".join(tok + sep for tok, sep in pieces)
    try:
        g = parse_any(text)
    except ParseError:
        return
    assert isinstance(g, WeightedDigraph)


def test_dot_weight_too_long_for_int_is_a_parse_error():
    with pytest.raises(ParseError, match="bad weight"):
        parse_any("digraph { a -> b [label=" + "9" * 5000 + "]; }")


def test_parse_any_sniffs_all_three_formats(five_chain):
    assert parse_any(to_dimacs(five_chain)).m == 5
    assert parse_any(to_edgelist(five_chain)).m == 5
    assert parse_any('digraph { x -> y [label="1"]; }').m == 1


def test_self_loop_is_parsed_and_counted():
    g = parse_graph("p mrc 2 2\na 1 1 -4\na 1 2 1\n", "dimacs")
    assert any(u == v for u, v in zip(g.src, g.dst))
    scc = tarjan_scc(g)
    loop_comp = scc.comp_of[0]
    assert component_has_cycle(g, scc, loop_comp)


def _reachability(g: WeightedDigraph) -> list[list[bool]]:
    reach = [[False] * g.n for _ in range(g.n)]
    for u in range(g.n):
        reach[u][u] = True
    for u, v in zip(g.src, g.dst):
        reach[u][v] = True
    for k in range(g.n):
        for i in range(g.n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(g.n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def test_tarjan_matches_mutual_reachability():
    for seed in range(80):
        g = small_random(seed)
        scc = tarjan_scc(g)
        reach = _reachability(g)
        for u in range(g.n):
            for v in range(g.n):
                same = scc.comp_of[u] == scc.comp_of[v]
                assert same == (reach[u][v] and reach[v][u]), (seed, u, v)


def test_condensation_is_acyclic_and_consistent():
    for seed in range(40):
        g = small_random(seed)
        scc = tarjan_scc(g)
        for ci, members in enumerate(scc.components):
            for u in members:
                assert scc.comp_of[u] == ci
        # emission order is reverse topological: every edge between two
        # components leads to an earlier one, so the condensation is acyclic
        for u, v in zip(g.src, g.dst):
            assert scc.comp_of[u] >= scc.comp_of[v], (seed, u, v)


def test_induced_subgraph_remaps_edges():
    g = WeightedDigraph.from_edges(5, [(0, 1, 1), (1, 4, 2), (4, 0, 3), (2, 3, 9)])
    sub, old = induced_subgraph(g, [0, 1, 4])
    assert sub.n == 3 and sub.m == 3
    assert sorted(old) == [0, 1, 4]
    back = {(old[u], old[v]): w for u, v, w in zip(sub.src, sub.dst, sub.wt)}
    assert back == {(0, 1): 1, (1, 4): 2, (4, 0): 3}
    # several components whose edges are interleaved in g, each node list
    # in another order than its ids: every subgraph keeps g's edge order
    rng = random.Random(7)
    raw = [(u, (u + 4) % 12, rng.randint(-9, 9), rng.randint(1, 3)) for u in range(12)]
    raw += [(u, u + 1, rng.randint(-9, 9)) for u in range(0, 9, 3)]
    rng.shuffle(raw)
    g = WeightedDigraph.from_edges(12, raw)
    comps = tarjan_scc(g).components
    assert len(comps) == 4 and all(len(c) > 1 for c in comps)
    for nodes in comps + [[11, 2, 7, 3]]:
        sub, old = induced_subgraph(g, nodes)
        new = {u: i for i, u in enumerate(old)}
        assert _rows(sub) == [
            (new[u], new[v], w, wp)
            for u, v, w, wp in _rows(g)
            if u in new and v in new
        ]


def test_induced_subgraph_keeps_labels(five_chain):
    sub, old = induced_subgraph(five_chain, [1, 2])
    assert sorted(sub.labels) == ["v", "w"]


def test_induced_subgraph_equals_the_checked_constructors_copy():
    rng = random.Random(3)
    for seed in range(60):
        g = small_random(seed)
        nodes = rng.sample(range(g.n), rng.randint(1, g.n))
        new = {u: i for i, u in enumerate(nodes)}
        edges = [(new[u], new[v], w, wp) for u, v, w, wp in _rows(g) if u in new and v in new]
        want = WeightedDigraph(len(nodes), edges, [g.labels[u] for u in nodes])
        sub, old = induced_subgraph(g, nodes)
        assert old == nodes
        for attr in ("n", "src", "dst", "wt", "wtp", "labels", "out", "inc"):
            assert getattr(sub, attr) == getattr(want, attr), (seed, attr)


def test_large_parse_is_strict_about_header_count():
    with pytest.raises(ParseError):
        parse_graph("p mrc 3 2\na 1 2 0\n", "dimacs")  # promised 2 arcs, gave 1


# -- the DIMACS contract -----------------------------------------------------------


@pytest.mark.parametrize(
    "fields, what",
    [
        ("x 2 1", "source id"),
        ("1 2.0 1", "target id"),
        ("1 2 one", "weight"),
        ("1 2 1 1e3", "secondary weight"),
    ],
)
def test_dimacs_bad_field_names_the_field_and_line(fields, what):
    text = f"c arcs\np mrc 2 2\na 2 1 0\na {fields}\n"
    with pytest.raises(ParseError, match=f"^line 4: bad {what} ") as exc:
        parse_graph(text, "dimacs")
    assert exc.value.line == 4


@pytest.mark.parametrize(
    "arc, line, message",
    [
        ("a 1 2", 3, "edge line must be"),
        ("a 1 2 3 4 5", 3, "edge line must be"),
        ("a 1 3 0", 3, "out of range"),
        ("a 0 2 0", 3, "out of range"),
        ("a 1 2 0 0", 3, "secondary weight must be >= 1"),
        ("a 1 2 0 -2", 3, "secondary weight must be >= 1"),
        ("a 1 2 0\na 2 1 0", None, "declares 2 edges, found 3"),
    ],
)
def test_dimacs_arc_violations_raise_parse_error(arc, line, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_graph(f"p mrc 2 2\na 2 1 0\n{arc}\n", "dimacs")
    assert exc.value.line == line


def test_dimacs_duplicates_keep_the_minimum_in_first_appearance_order():
    text = "p mrc 3 6\na 2 3 4\na 1 2 5 2\na 2 3 4 1\na 1 2 5 1\na 3 1 0\na 1 2 7 1\n"
    with pytest.warns(UserWarning) as record:
        g = parse_graph(text, "dimacs")
    assert [str(w.message) for w in record] == [
        "3 duplicate edge(s) dropped, keeping minimum weight"
    ]
    assert _rows(g) == [(1, 2, 4, 1), (0, 1, 5, 1), (2, 0, 0, 1)]


def test_dimacs_long_weights():
    g = parse_graph(f"p mrc 2 1\na 1 2 -{'9' * 4300} 7\n", "dimacs")
    assert g.wt[0] == -(10**4300 - 1) and g.wtp[0] == 7
    # Past Python's default limit on int() of a decimal string.
    with pytest.raises(ParseError, match="^line 2: bad weight") as exc:
        parse_graph(f"p mrc 2 1\na 1 2 {'9' * 5000}\n", "dimacs")
    assert exc.value.line == 2


# -- one edge store, whichever way the edges come in ------------------------------


def _store(g: WeightedDigraph):
    return (g.n, g.src, g.dst, g.wt, g.wtp, g.out, g.inc)


def _parity_edges(seed: int, unit_wtp: bool) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Distinct edges on nodes 0..n-1, listed so that the nodes first appear
    in id order (the edge-list and dot parsers number nodes that way)."""
    rng = random.Random(seed)
    n = 9
    rows = [(u, u + 1, rng.randint(-9, 9), 1 if unit_wtp else rng.randint(1, 4)) for u in range(n - 1)]
    pairs = {(u, v) for u, v, _, _ in rows}
    for _ in range(20):
        u, v = rng.randrange(n), rng.randrange(n)
        if (u, v) not in pairs:
            pairs.add((u, v))
            rows.append((u, v, rng.randint(-10**30, 10**30), 1 if unit_wtp else rng.randint(1, 4)))
    return n, rows


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("unit_wtp", [True, False])
def test_every_constructor_path_builds_the_same_store(seed, unit_wtp):
    n, rows = _parity_edges(seed, unit_wtp)
    want = WeightedDigraph(n, [Edge(*r) for r in rows])
    builds = {
        "tuples": WeightedDigraph(n, rows),
        "from_edges 4": WeightedDigraph.from_edges(n, rows),
        "dimacs": parse_graph(to_dimacs(want), "dimacs"),
        "edgelist": parse_graph(to_edgelist(want), "edgelist"),
    }
    if unit_wtp:
        builds["from_edges 3"] = WeightedDigraph.from_edges(n, [r[:3] for r in rows])
        stmts = "".join(f'n{u} -> n{v} [label="{w}"];\n' for u, v, w, _ in rows)
        builds["dot"] = parse_graph("digraph {\n" + stmts + "}\n", "dot")
    assert want.wt == [r[2] for r in rows] and want.m == len(rows)
    for name, g in builds.items():
        assert _store(g) == _store(want), name


def test_edge_is_a_plain_record():
    assert Edge(0, 1, 5).wtp == 1
    assert Edge(0, 1, 5) == (0, 1, 5, 1)
    assert Edge(2, 3, -4, 7) == (2, 3, -4, 7)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(0, 1, 1, 1), (0, 2, 1, 1)], "edge (0,2) out of range for n=2"),
        ([(0, 1, 1, 1), (-1, 1, 1, 1)], "edge (-1,1) out of range for n=2"),
        ([(0, 1, 1, 0)], "edge (0,1) has non-positive wtp=0"),
        ([(1, 0, 1, 1), (0, 1, 1, -3)], "edge (0,1) has non-positive wtp=-3"),
        ([(0, 1, 1, 1), (1, 1, 2, 1), (0, 1, 2, 1)], "duplicate edge (0,1)"),
        # the first bad edge in edge order names the error
        ([(0, 1, 1, 0), (0, 5, 1, 1)], "edge (0,1) has non-positive wtp=0"),
        ([(0, 1, 1, 1), (0, 1, 1, 1), (1, 7, 1, 1)], "duplicate edge (0,1)"),
        ([(1, 0, 1, 1), (1, 9, 1, 0), (1, 0, 1, 1)], "edge (1,9) out of range for n=2"),
    ],
)
def test_constructor_refusals_keep_their_messages(rows, message):
    for edges in (rows, [Edge(*r) for r in rows]):
        with pytest.raises(ValueError) as exc:
            WeightedDigraph(2, edges)
        assert str(exc.value) == message


def test_pairs_that_would_share_a_key_are_refused_as_out_of_range():
    # (1, 0) and (0, 2) give the same u * n + v for n = 2; the range test comes first.
    with pytest.raises(ValueError, match=r"^edge \(0,2\) out of range for n=2$"):
        WeightedDigraph(2, [(1, 0, 1, 1), (0, 2, 1, 1)])


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 1, 1)],
        [(0, 1, 1, 1), (1, 0, 1)],
        [(0, 1, 1), (1, 0, 1, 1)],
        [(0, 1, 1, 1, 1)],
    ],
)
def test_constructor_names_the_row_shape_it_needs(rows):
    with pytest.raises(ValueError, match=r"\(src, dst, wt, wtp\) rows.*from_edges"):
        WeightedDigraph(2, rows)
    assert WeightedDigraph.from_edges(2, [r[:4] for r in rows]).m == len(rows)


# -- DIMACS read by columns ------------------------------------------------------


def _outcome(parse, text):
    """What ``parse`` makes of text: its store, labels and warnings, or its
    ParseError message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = parse(text)
        except ParseError as exc:
            return "error", str(exc)
    return _store(g), g.labels, [str(w.message) for w in caught]


_MUTATIONS = [
    "drop a field",
    "add a duplicate",
    "id out of range",
    "wtp 0",
    "add a c line",
    "another edge count",
    "a token",
    "another arc tag",
]


@st.composite
def _mutated_dimacs(draw):
    """Well-formed DIMACS text (all arcs with four or all with five fields),
    then a few mutations that make it irregular or wrong."""
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), unique=True, max_size=10))
    five = draw(st.booleans())
    arcs = [
        ["a", str(u), str(v), str(draw(st.integers(-9, 9)))] + ([str(draw(st.integers(1, 4)))] if five else [])
        for u, v in pairs
    ]
    m, comments = len(arcs), []
    mutations = draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3))
    for mutation in mutations:
        at = draw(st.integers(0, len(arcs)))
        arc = arcs[at % len(arcs)] if arcs else None
        if mutation == "another edge count":
            m += draw(st.sampled_from([-1, 1]))
        elif mutation == "add a c line":
            comments.append((at, "c " + draw(st.sampled_from(_TOKENS))))
        elif arc is None:
            continue
        elif mutation == "drop a field":
            arc.pop(draw(st.integers(1, len(arc) - 1)))
        elif mutation == "add a duplicate":
            arcs.insert(at, list(arc))
            m += 1
        elif mutation == "id out of range":
            if len(arc) >= 3:  # dropped fields may have taken both ids
                arc[draw(st.integers(1, 2))] = draw(st.sampled_from(["0", "-1", str(n + 1)]))
        elif mutation == "wtp 0":
            arc[4:] = ["0"]
        elif mutation == "another arc tag":
            arc[0] = draw(st.sampled_from(["abc", "c", "p", "x"]))
        else:  # a token
            arc[draw(st.integers(0, len(arc) - 1))] = draw(st.sampled_from(_TOKENS))
    lines = [f"p mrc {n} {m}"] + [" ".join(arc) for arc in arcs]
    for at, line in comments:
        lines.insert(at, line)
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))  # "": no trailing newline
    # then join, split or break lines: a space or line break becomes another
    # separator; "move" keeps the number of line breaks and of tokens
    seps = ["move", "\n", " ", "\n\n", "\r", "\r\n", "\x0c", "\v", "\x1c", "\t"]
    for sep in draw(st.lists(st.sampled_from(seps), max_size=2)):
        if sep == "move" and "\n" in text:
            at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "\n"]))
            text = text[:at] + " " + text[at + 1 :]
            sep = "\n"
        at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch in " \n"]))
        text = text[:at] + sep + text[at + 1 :]
    return text


@settings(max_examples=500)
@given(st.one_of(_mutated_dimacs(), st.lists(st.sampled_from(_TOKENS), max_size=30).map(" ".join)))
def test_columns_and_lines_read_every_dimacs_text_alike(text):
    lines = _outcome(graph._dimacs_lines, text)
    assert _outcome(lambda t: parse_graph(t, "dimacs"), text) == lines
    if text.startswith(("p", "c", "a")):
        assert _outcome(parse_any, text) == lines


def _arcs_text(g: WeightedDigraph, wtp: bool, end: str = "\n") -> str:
    arcs = [f"a {u + 1} {v + 1} {w}" + (f" {wp}" if wtp else "") for u, v, w, wp in _rows(g)]
    return "\n".join([f"p mrc {g.n} {g.m}"] + arcs) + end


@pytest.mark.parametrize("seed", range(3))
def test_regular_dimacs_is_read_by_columns(seed):
    rng = random.Random(seed)
    g = small_random(seed, wt=(-10**20, 10**20))
    g = WeightedDigraph(g.n, [(u, v, w, rng.randint(1, 9)) for u, v, w, _ in _rows(g)])
    unit = WeightedDigraph(g.n, [(u, v, w, 1) for u, v, w, _ in _rows(g)])
    cases = [(g, to_dimacs(g)), (g, _arcs_text(g, True, "")), (unit, _arcs_text(unit, False))]
    cases += [(unit, _arcs_text(unit, False, "")), (WeightedDigraph(3, []), "p mrc 3 0\n")]
    for want, text in cases:
        h = graph._dimacs_columns(text)
        assert h is not None, text
        assert (_store(h), h.labels) == (_store(want), [str(i + 1) for i in range(want.n)])


@pytest.mark.parametrize(
    "text",
    [
        "p mrc 2 2\na 1 2 3 4 a\n2 1 3 4\n",  # tokens aligned, lines not
        "p mrc 2 2\na 1 2 3\n4 a 2 1 3 4\n",
        "p mrc 2 2\na 1 2 3 4\n\na 2 1 3 4\n",  # a blank line
        "\np mrc 2 1\na 1 2 3 4\n",
        "c hi\np mrc 2 1\na 1 2 3 4\n",
        "p mrc 2 2\na 1 2 3 4\na 2 1 3\n",  # four and five fields
        "p mrc 2 2\na 1 2 3 4\na 1 2 3 4\n",  # a pair twice
        "p mrc 2 1\na 1 3 3 4\n",
        "p mrc 2 1\na 0 2 3 4\n",
        "p mrc 2 1\na 1 2 3 0\n",
        "p mrc 2 1\r\na 1 2 3 4\r\n",
        "p mrc 2 2\na 1 2 3 4\x0ca 2 1 3 4\n",
        "p mrc 2 1\na 1 2\u20283 4\n",
        "p mrc 2 1\n a 1 2 3 4\n",
        "p mrc 2 1\na 1 2 3 4\n \n",
        "p mrc 2 1\na 1 2 x 4\n",
        "p sp 2 1\na 1 2 3 4\n",
        "p mrc 2 1\nab 1 2 3 4\n",
    ],
)
def test_irregular_dimacs_goes_to_the_line_parser(text):
    assert graph._dimacs_columns(text) is None


def test_parse_any_sniffs_without_holding_the_lines():
    # parse_any used to keep every line of the text alive while it parsed
    text = to_dimacs(gen_ktree(5000, 2, seed=1, ensure_sc=False))
    assert text.count("\n") > 10_000

    def peak(parse):
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_any) <= 1.05 * peak(lambda t: parse_graph(t, "dimacs"))
