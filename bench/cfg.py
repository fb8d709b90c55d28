"""Structured control-flow graphs: nested sequence / if / if-else / while.

Every statement is a single-entry single-exit region. A while loop has a
header h, a body and an exit block, with the back edge running from the
body's end to h, so each loop is one strongly connected region and loops
nest the way they do in a structured program. Thorup (All Structured
Programs have Small Tree-Width and Good Register Allocation, Inf. & Comp.
1998) bounds the treewidth of such graphs by a small constant, which is the
input the tree-decomposition solvers are built for. graphvalues' own
cfg-like generator is not used: its back edges jump to any earlier block.
"""
from __future__ import annotations

import random

P_IF, P_IF_ELSE, P_WHILE = 0.25, 0.25, 0.2  # else a basic block
MAX_DEPTH = 4
BODY_LEN = (1, 4)  # statements per branch or loop body


def structured_cfg(
    blocks: int, seed: int, wt: tuple[int, int] = (-10, 10)
) -> tuple[int, list[tuple[int, int, int]]]:
    """(n, [(src, dst, wt)]): a top-level statement sequence of about
    ``blocks`` blocks. Once the budget is spent every further statement is
    a basic block, so n exceeds ``blocks`` only by the joins and exits of
    regions still open."""
    rng = random.Random(seed)
    edges: list[tuple[int, int, int]] = []
    n = 0

    def block() -> int:
        nonlocal n
        n += 1
        return n - 1

    def edge(u: int, v: int) -> None:
        edges.append((u, v, rng.randint(*wt)))

    def sequence(depth: int) -> tuple[int, int]:
        entry, exit_ = statement(depth)
        for _ in range(rng.randint(*BODY_LEN) - 1):
            e, x = statement(depth)
            edge(exit_, e)
            exit_ = x
        return entry, exit_

    def statement(depth: int) -> tuple[int, int]:
        r = rng.random()
        if depth >= MAX_DEPTH or n >= blocks or r >= P_IF + P_IF_ELSE + P_WHILE:
            b = block()
            return b, b
        head = block()
        if r < P_IF:
            e, x = sequence(depth + 1)
            join = block()
            edge(head, e)
            edge(x, join)
            edge(head, join)
            return head, join
        if r < P_IF + P_IF_ELSE:
            e1, x1 = sequence(depth + 1)
            e2, x2 = sequence(depth + 1)
            join = block()
            edge(head, e1)
            edge(head, e2)
            edge(x1, join)
            edge(x2, join)
            return head, join
        e, x = sequence(depth + 1)
        out = block()
        edge(head, e)
        edge(x, head)
        edge(head, out)
        return head, out

    _, exit_ = statement(0)
    while n < blocks:
        e, x = statement(0)
        edge(exit_, e)
        exit_ = x
    return n, edges
