"""Weighted directed graphs: construction, file formats, SCCs.

Every graph carries two integer weights per edge: the primary weight ``wt``
(arbitrary sign) and a secondary weight ``wtp`` that must be strictly
positive (it is the denominator weight of ratio objectives; plain mean
problems simply leave it at 1).

Edge i is (src[i], dst[i], wt[i], wtp[i]), four parallel plain lists (weights
may be bigints) that solvers index or zip and never write; out[u] and inc[v]
are exact-size tuples of the indices of u's outgoing and v's incoming edges
in edge order, whichever way the graph was built.
:class:`Edge` is only an input record: the constructor takes Edges or plain
(src, dst, wt, wtp) tuples alike and keeps neither.

Node ids are dense ints ``0..n-1``. Original input names are kept in
``labels`` so command-line output can echo them back.
"""
from __future__ import annotations

import functools
import gc
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

INF = float("inf")

# A DIMACS problem line declaring more nodes than this is refused: the parser
# builds one label per declared node before reading any edge.
DIMACS_MAX_NODES = 1_000_000


def _gc_paused(fn):
    """``fn`` run with Python's cyclic garbage collector disabled.

    The graph constructor and the solve pipeline build no reference cycles
    (tests/test_gc.py checks this under ``gc.DEBUG_SAVEALL``), so a
    collection during one of their stages frees nothing and only rescans
    the young lists and tuples. The
    collector is re-enabled afterwards only if it was enabled on entry, so
    nested stages and callers that disabled it themselves keep their state.
    """

    @functools.wraps(fn)
    def paused(*args, **kw):
        if not gc.isenabled():
            return fn(*args, **kw)
        gc.disable()
        try:
            return fn(*args, **kw)
        finally:
            gc.enable()

    return paused


class ParseError(ValueError):
    """Malformed graph input. Carries the 1-based input line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class InvariantError(RuntimeError):
    """An internal contract was violated; indicates a bug, not bad input."""


class Edge(NamedTuple):
    """One input edge of the constructor; a plain 4-tuple is the same input."""

    src: int
    dst: int
    wt: int
    wtp: int = 1


class WeightedDigraph:
    """A directed graph with integer edge weights, immutable by convention.

    At most one edge per (src, dst) pair; self-loops are allowed; nodes
    without outgoing edges are allowed.
    """

    __slots__ = ("n", "src", "dst", "wt", "wtp", "labels", "out", "inc")

    @_gc_paused
    def __init__(self, n: int, edges: Iterable[tuple], labels: Sequence[str] | None = None):
        if labels is None:
            labels = [str(i) for i in range(n)]
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} nodes")
        self.n = n
        self.labels = list(labels)
        try:
            src, dst, wt, wtp = [list(c) for c in zip(*edges, strict=True)] or [[], [], [], []]
        except ValueError:  # a row of another length
            raise ValueError("edges must be (src, dst, wt, wtp) rows; from_edges takes (src, dst, wt)") from None
        self.src, self.dst, self.wt, self.wtp = src, dst, wt, wtp
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        seen = set()  # u * n + v per edge; unique once u and v are in range
        for i, (u, v) in enumerate(zip(src, dst)):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if wtp[i] < 1:
                raise ValueError(f"edge ({u},{v}) has non-positive wtp={wtp[i]}")
            if (key := u * n + v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            out[u].append(i)
            inc[v].append(i)
        self.out, self.inc = [*map(tuple, out)], [*map(tuple, inc)]

    @classmethod
    def _of_columns(cls, n: int, src: list, dst: list, wt: list, wtp: list, labels: list):
        """A graph on checked columns: ids in 0..n-1, every wtp >= 1, no pair twice."""
        g = cls.__new__(cls)
        g.n, g.labels, g.src, g.dst, g.wt, g.wtp = n, labels, src, dst, wt, wtp
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for i, (u, v) in enumerate(zip(src, dst)):
            out[u].append(i)
            inc[v].append(i)
        g.out, g.inc = [*map(tuple, out)], [*map(tuple, inc)]
        return g

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        raw: Iterable[tuple],
        labels: Sequence[str] | None = None,
    ) -> "WeightedDigraph":
        """Build from (src, dst, wt[, wtp]) tuples.

        Duplicate (src, dst) pairs keep the smallest (wt, wtp) entry and emit
        a warning; edge order otherwise follows first appearance.
        """
        rows = [t if len(t) == 4 else (*t, 1) for t in raw]
        kept: dict[tuple[int, int], tuple] = {}  # in first-appearance order
        for row in rows:
            key = row[:2]
            old = kept.get(key)
            if old is None or row[2:] < old[2:]:
                kept[key] = row
        if len(kept) < len(rows):
            dups = len(rows) - len(kept)
            warnings.warn(f"{dups} duplicate edge(s) dropped, keeping minimum weight", stacklevel=2)
        return cls(n, kept.values(), labels)

    def negated(self) -> "WeightedDigraph":
        """Copy with every primary weight negated (wtp and labels kept)."""
        return WeightedDigraph(
            self.n, zip(self.src, self.dst, [-w for w in self.wt], self.wtp), self.labels
        )

    # -- simple accessors -----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.src)

    def max_abs_weight(self) -> int:
        """W = max |wt| over edges (0 for an edgeless graph)."""
        return max(map(abs, self.wt), default=0)

    def label_id(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no node labelled {label!r}") from None

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.n}, m={self.m})"


def induced_subgraph(g: WeightedDigraph, nodes: Sequence[int]) -> tuple[WeightedDigraph, list[int]]:
    """Subgraph on ``nodes`` with dense relabeling; returns (sub, old_ids).

    old_ids[i] is the original id of the subgraph's node i.
    """
    old_ids = list(nodes)
    new_id = {u: i for i, u in enumerate(old_ids)}
    # Only the nodes' own out-edges, put back in g's edge order: the columns
    # are valid by construction (dense new ids, g's own wtp, no pair twice).
    src, dst, wt, wtp = g.src, g.dst, g.wt, g.wtp
    kept = sorted(i for u in new_id for i in g.out[u] if dst[i] in new_id)
    sub = WeightedDigraph._of_columns(
        len(old_ids), [new_id[src[i]] for i in kept], [new_id[dst[i]] for i in kept],
        [wt[i] for i in kept], [wtp[i] for i in kept], [g.labels[u] for u in old_ids],
    )
    return sub, old_ids


# -- strongly connected components ---------------------------------------------


@dataclass
class SccPartition:
    """Tarjan output: components listed in reverse topological order
    (every component precedes the components that can reach it)."""

    comp_of: list[int]
    components: list[list[int]]

    def __len__(self) -> int:
        return len(self.components)


def tarjan_scc(g: WeightedDigraph) -> SccPartition:
    """Iterative Tarjan; safe for deep graphs (no recursion).

    A node's index is its DFS number while it is on the stack and n once its
    component is emitted, so one comparison with a low link stands for both
    the on-stack test and the update.
    """
    n = g.n
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    comp_of = [-1] * n
    components: list[list[int]] = []
    counter = 0
    dst, out = g.dst, g.out

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(out[root]))]  # frames: a node and its unread out-edges
        while work:
            v, edges = work[-1]
            lv = low[v]  # stored back only before descending
            for i in edges:
                w = dst[i]
                iw = index[w]
                if iw == -1:
                    low[v] = lv
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if iw < lv:
                    lv = iw
            else:
                work.pop()
                if lv == index[v]:
                    ci = len(components)
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp_of[w] = ci
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)
                elif lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv

    return SccPartition(comp_of, components)


def component_has_cycle(g: WeightedDigraph, scc: SccPartition, comp_id: int) -> bool:
    """A component contains a cycle iff it has >= 2 nodes or a self-loop."""
    comp = scc.components[comp_id]
    u = comp[0]
    return len(comp) > 1 or any(g.dst[i] == u for i in g.out[u])


# -- file formats ---------------------------------------------------------------

_DOT_EDGE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z_0-9]*|\d+)\s*->\s*([A-Za-z_][A-Za-z_0-9]*|\d+)"
    r"\s*\[\s*label\s*=\s*\"?(-?\d+)\"?\s*\]\s*$"
)


def _parse_int(tok: str, what: str, ln: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", ln) from None


@_gc_paused
def parse_graph(text: str, fmt: str = "dimacs") -> WeightedDigraph:
    """Parse one of the three supported formats.

    dimacs   -- 'p mrc <n> <m>' header, 'a <src> <dst> <wt> [<wtp>]' 1-based,
                'c ...' comment lines.
    edgelist -- '<src> <dst> <wt> [<wtp>]' per line, 0-based, '#' comments.
    dot      -- tiny digraph subset: 'a -> b [label="w"];' statements.
    """
    if fmt == "dimacs":
        return _parse_dimacs(text)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "dot":
        return _parse_dot(text)
    raise ValueError(f"unknown graph format {fmt!r}")


# Line breaks of str.splitlines other than "\n" that an ASCII text can hold.
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e"


def _parse_dimacs(text: str) -> WeightedDigraph:
    g = _dimacs_columns(text)
    return _dimacs_lines(text) if g is None else g


def _dimacs_columns(text: str) -> WeightedDigraph | None:
    """The graph of a regular DIMACS text, read by columns; None for any
    other text, which the line parser then reads (it words every error).

    Regular: the problem line first, then one 'a' line per edge, each with
    all four or all five fields, lines ended by "\n" (the last one may end
    the text instead), ids written as labels 1..n, every wt' >= 1 and no
    pair twice. The tokens that start with 'a' are then exactly the m
    field-0 tokens (any other one is no label and fails int()), so when
    each of them follows a "\n" and there are no other line breaks, every
    line holds exactly one record.
    """
    if not text.isascii() or any(map(text.__contains__, _OTHER_BREAKS)):
        return None
    toks = text.split()
    if len(toks) < 4 or toks[0] != "p" or toks[1] != "mrc":
        return None
    try:
        n, m = int(toks[2]), int(toks[3])
    except ValueError:
        return None
    if not (0 <= n <= DIMACS_MAX_NODES and m >= 0):
        return None
    width = 5 if len(toks) == 4 + 5 * m else 4
    if (
        len(toks) != 4 + width * m
        or toks[4::width].count("a") != m
        or text.count("\na") != m
        or text.count("\n") != m + text.endswith("\n")
    ):
        return None
    labels = [str(i + 1) for i in range(n)]
    node = dict(zip(labels, range(n)))  # one int object per node, shared by its edges
    try:
        src, dst = [list(map(node.__getitem__, toks[i::width])) for i in (5, 6)]
        wt = list(map(int, toks[7::width]))
        wtp = list(map(int, toks[8::5])) if width == 5 else [1] * m
    except (KeyError, ValueError):  # an id out of range or not written as gen writes it, a bad field
        return None
    del toks, node
    if m and min(wtp) < 1 or len({u * n + v for u, v in zip(src, dst)}) != m:
        return None  # a pair twice: the line parser keeps the least and warns
    return WeightedDigraph._of_columns(n, src, dst, wt, wtp, labels)


def _dimacs_lines(text: str) -> WeightedDigraph:
    n = m = None
    raw: list[tuple[int, int, int, int]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "c":
            continue
        if parts[0] == "a":
            if n is None:
                raise ParseError("edge line before problem line", ln)
            try:
                if len(parts) == 4:
                    u, v, w, wp = int(parts[1]), int(parts[2]), int(parts[3]), 1
                else:
                    u, v, w, wp = map(int, parts[1:])
            except ValueError:
                # Wrong count, or a bad field: name the first bad one.
                if len(parts) not in (4, 5):
                    raise ParseError("edge line must be 'a <src> <dst> <wt> [<wtp>]'", ln) from None
                u = _parse_int(parts[1], "source id", ln)
                v = _parse_int(parts[2], "target id", ln)
                w = _parse_int(parts[3], "weight", ln)
                wp = _parse_int(parts[4], "secondary weight", ln) if len(parts) == 5 else 1
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"node id out of range 1..{n}", ln)
            if wp < 1:
                raise ParseError(f"secondary weight must be >= 1, got {wp}", ln)
            raw.append((node[u - 1], node[v - 1], w, wp))
        elif parts[0] == "p":
            if n is not None:
                raise ParseError("second problem line", ln)
            if len(parts) != 4 or parts[1] != "mrc":
                raise ParseError("problem line must be 'p mrc <n> <m>'", ln)
            n = _parse_int(parts[2], "node count", ln)
            m = _parse_int(parts[3], "edge count", ln)
            if n < 0 or m < 0:
                raise ParseError("negative size in problem line", ln)
            if n > DIMACS_MAX_NODES:
                raise ParseError(f"node count {n} exceeds the limit of {DIMACS_MAX_NODES}", ln)
            node = list(range(n))  # one int object per node, shared by all its edges
        else:
            raise ParseError(f"unknown line type {parts[0]!r}", ln)
    if n is None:
        raise ParseError("missing 'p mrc' problem line")
    if len(raw) != m:
        raise ParseError(f"problem line declares {m} edges, found {len(raw)}")
    labels = [str(i + 1) for i in range(n)]
    return WeightedDigraph.from_edges(n, raw, labels)


def _parse_edgelist(text: str) -> WeightedDigraph:
    ids: dict[str, int] = {}
    labels: list[str] = []
    raw: list[tuple[int, int, int, int]] = []

    def intern(tok: str, ln: int) -> int:
        _parse_int(tok, "node id", ln)
        if int(tok) < 0:
            raise ParseError(f"negative node id {tok}", ln)
        if tok not in ids:
            ids[tok] = len(labels)
            labels.append(tok)
        return ids[tok]

    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError("edge line must be '<src> <dst> <wt> [<wtp>]'", ln)
        u = intern(parts[0], ln)
        v = intern(parts[1], ln)
        w = _parse_int(parts[2], "weight", ln)
        wp = _parse_int(parts[3], "secondary weight", ln) if len(parts) == 4 else 1
        if wp < 1:
            raise ParseError(f"secondary weight must be >= 1, got {wp}", ln)
        raw.append((u, v, w, wp))
    return WeightedDigraph.from_edges(len(labels), raw, labels)


def _parse_dot(text: str) -> WeightedDigraph:
    body = text.strip()
    mo = re.match(r"^\s*digraph\s*([A-Za-z_0-9]*)\s*\{(.*)\}\s*$", body, re.S)
    if not mo:
        raise ParseError("expected 'digraph [name] { ... }'")
    ids: dict[str, int] = {}
    labels: list[str] = []
    raw: list[tuple[int, int, int, int]] = []
    # Track line numbers by position of each statement in the braced body.
    head_lines = text[: text.index("{")].count("\n")
    pos = 0
    body_text = mo.group(2)
    for stmt in body_text.split(";"):
        start = pos
        pos += len(stmt) + 1
        if not stmt.strip():
            continue
        ln = head_lines + 1 + body_text[:start].count("\n")
        m2 = _DOT_EDGE.match(stmt)
        if not m2:
            raise ParseError(f"cannot parse edge statement {stmt.strip()!r}", ln)
        names = (m2.group(1), m2.group(2))
        for name in names:
            if name not in ids:
                ids[name] = len(labels)
                labels.append(name)
        raw.append((ids[names[0]], ids[names[1]], _parse_int(m2.group(3), "weight", ln), 1))
    return WeightedDigraph.from_edges(len(labels), raw, labels)


def to_dimacs(g: WeightedDigraph) -> str:
    ids = [*map(str, range(1, g.n + 1))]  # each node's label written once, not once per edge end
    lines = [f"p mrc {g.n} {g.m}"]
    lines += [f"a {ids[u]} {ids[v]} {w} {wp}" for u, v, w, wp in zip(g.src, g.dst, g.wt, g.wtp)]
    return "\n".join(lines) + "\n"


def to_edgelist(g: WeightedDigraph) -> str:
    lines = [f"{u} {v} {w} {wp}" for u, v, w, wp in zip(g.src, g.dst, g.wt, g.wtp)]
    return "\n".join(lines) + ("\n" if lines else "")


def load_graph(path: str) -> WeightedDigraph:
    """Read a graph file, picking the format from its first non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_any(text)


def parse_any(text: str) -> WeightedDigraph:
    """Parse text in the format its first non-blank line names (DIMACS when
    none does)."""
    s = text.lstrip()[:7]  # a copy only when text starts with whitespace
    if s.startswith("digraph"):
        return parse_graph(text, "dot")
    if s[:1] in ("#", "-") or s[:1].isdigit():
        return parse_graph(text, "edgelist")
    return parse_graph(text, "dimacs")
