"""Synchronous product of an arena (under one labeling) with an objective DFA.

The product is a view over ``S x Q``: it keeps the arena, the DFA and one
automaton row per arena state, and computes a state's moves on demand.  A row
lists, for every automaton state, the index of the state reached on the arena
state's label; it comes from :meth:`Dfa.row`, so arena states with the same
label and both products share one list per label; the hypergame transition
system reads the two products' rows.  :meth:`ProductGame.solve` builds the
solver's predecessor index straight from the arena's predecessors and the
rows, without the edges out of the seeded ``S x F``, and returns regions that
keep the kernel's level list; the state-keyed views (``states``, ``owner``,
``transitions``, ``target``) are built only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .arena import Arena, StateId
from .reachsolver import Regions, _attractor, _predecessors
from .speclang import AlphabetError, Dfa, all_symbols

__all__ = ["ProductGame", "build_product"]

ProductState = tuple  # (s, q)


@dataclass(frozen=True)
class ProductGame:
    """Product game over ``S x Q``, computed on demand; the target is ``S x F``.

    ``which`` records the labeling used for the automaton updates (1 = true
    labeling, 2 = perceived labeling).  ``rows[i][k]`` is the index in
    ``dfa.states`` of the automaton state after entering arena state ``i``
    from automaton state ``k``; a state ``(s, q)`` has the int position
    ``s_index * |Q| + q_index``, the order of ``states``.
    :meth:`successors` gives one state's moves; ``states``, ``owner``,
    ``transitions`` and ``target`` are built on first access.
    """

    arena: Arena
    dfa: Dfa
    which: int
    rows: list[list[int]]
    initial: ProductState

    def index(self, s: StateId, q: str) -> int:
        """The int position of ``(s, q)``; ``KeyError`` or ``TypeError`` if it
        is no state of this product."""
        return self.arena.adjacency.where[s] * len(self.dfa.states) + self.dfa.index[q]

    def successors(self, v: ProductState) -> dict[str, ProductState]:
        s, q = v
        adj, qs = self.arena.adjacency, self.dfa.states
        i, k = adj.where[s], self.dfa.index[q]
        dsts, rows = self.arena.states, self.rows
        return {a: (dsts[d], qs[rows[d][k]]) for a, d in zip(adj.names[i], adj.succ[i])}

    @cached_property
    def states(self) -> tuple[ProductState, ...]:
        qs = self.dfa.states
        return tuple((s, q) for s in self.arena.states for q in qs)

    @cached_property
    def owner(self) -> dict[ProductState, int]:
        return {v: self.arena.owner[v[0]] for v in self.states}

    @cached_property
    def transitions(self) -> dict[ProductState, dict[str, ProductState]]:
        return {v: self.successors(v) for v in self.states}

    @cached_property
    def target(self) -> frozenset:
        return frozenset((s, q) for s in self.arena.states for q in self.dfa.accepting)

    def solve(self) -> Regions:
        """P1's attractor of the target ``S x F`` on the solver's kernel.

        The kernel reads a predecessor index built straight from the arena's
        predecessors and the rows, without the edges out of the seeded
        ``S x F``: position ``(d, rows[d][k])`` has the predecessor ``(s, k)``
        for each arena edge ``s -> d`` and each non-accepting ``k``.  The
        regions keep the kernel's level list and decode their state-keyed sets
        on first read; no strategy is derived here.
        """
        adj, rows = self.arena.adjacency, self.rows
        into, back, out_degree = _predecessors(adj.succ)  # of the arena
        nq = len(self.dfa.states)
        accepting = [self.dfa.index[q] for q in self.dfa.accepting]
        free = [k for k in range(nq) if k not in accepting]
        n = len(rows) * nq
        start = [0] * (n + 1)
        for d, row in enumerate(rows):
            m = into[d + 1] - into[d]
            for k in free:
                start[d * nq + row[k] + 1] += m
        start = list(accumulate(start))
        fill = start[:n]
        flat = [0] * start[n]
        entered = {k: [s * nq + k for s in back] for k in free}  # (s, k) for each arena edge
        for d, row in enumerate(rows):
            a, b = into[d], into[d + 1]
            for k in free:
                p = d * nq + row[k]
                at = fill[p]
                fill[p] = at + b - a
                flat[at:at + b - a] = entered[k][a:b]
        degree = [0] * n
        p1 = bytearray(n)
        for k in range(nq):
            degree[k::nq] = out_degree
            p1[k::nq] = adj.p1
        seeds = [i + k for i in range(0, n, nq) for k in accepting]
        return Regions(_attractor((start, flat, degree), p1, seeds), self)


def build_product(arena: Arena, which: int, d: Dfa) -> ProductGame:
    """Build the product game of ``arena`` under labeling ``which`` with ``d``.

    Only one shared automaton row per arena state is looked up here; the
    result is a view over the full ``S x Q`` space, not only the reachable
    part, because winning regions are defined over all of ``S x Q`` and the
    hypergame transition system needs arbitrary automaton-state combinations.
    """
    if which not in (1, 2):
        raise ValueError(f"which-labeling must be 1 or 2, got {which!r}")
    if d.ap != arena.ap or tuple(d.alphabet) != all_symbols(arena.ap):
        raise AlphabetError(
            f"DFA alphabet over AP {sorted(d.ap)} does not match arena AP {sorted(arena.ap)}"
        )
    # Entering s' consumes L(s').
    rows = [d.row(arena.label(s, which)) for s in arena.states]
    i0 = arena.adjacency.where[arena.initial]
    return ProductGame(
        arena=arena,
        dfa=d,
        which=which,
        rows=rows,
        initial=(arena.initial, d.states[rows[i0][d.index[d.initial]]]),
    )
