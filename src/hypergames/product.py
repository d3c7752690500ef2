"""Synchronous product of an arena (under one labeling) with an objective DFA.

The product is a view over ``S x Q``: it keeps the arena, the DFA and one
automaton row per arena state, and computes a state's moves on demand.  A row
lists, for every automaton state, the index of the state reached on the arena
state's label; it comes from :meth:`Dfa.row`, so arena states with the same
label, both products and the hypergame transition system share one list per
label.  The solver gets its int adjacency straight from the arena's shared int
adjacency (:attr:`Arena.adjacency`) and the rows, and :meth:`ProductGame.solve`
returns regions that keep the kernel's level list; the state-keyed views
(``states``, ``owner``, ``transitions``, ``target``) are built only when
something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arena import Arena, StateId
from .reachsolver import IndexedGame, Regions, solve_indexed
from .speclang import AlphabetError, Dfa, all_symbols

__all__ = ["ProductGame", "build_product", "label_rows"]

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

    def indexed(self) -> IndexedGame:
        """Int adjacency for the solver: ``(s, q)`` is ``s_index * |Q| + q_index``."""
        adj, rows = self.arena.adjacency, self.rows
        nq = len(self.dfa.states)
        # moved[d][k]: position of the product state entered at d from automaton state k
        moved = [[d * nq + r for r in row] for d, row in enumerate(rows)]
        no_moves = [()] * nq
        succ: list = []
        for out in adj.succ:
            # one tuple per automaton state k, of the positions entered from (s, k)
            succ.extend(zip(*[moved[d] for d in out]) if out else no_moves)
        p1 = bytearray(len(adj.p1) * nq)
        for k in range(nq):
            p1[k::nq] = adj.p1

        return IndexedGame(
            game=self,
            succ=succ,
            p1=bytes(p1),
            index=lambda v: self.index(*v),
            actions=lambda j: adj.names[j // nq],
        )

    def solve(self) -> Regions:
        """P1's attractor of the target on the solver's kernel.

        The regions keep the kernel's level list and decode their state-keyed
        sets on first read; no strategy is derived here.
        """
        nq = len(self.dfa.states)
        accepting = [self.dfa.index[q] for q in self.dfa.accepting]
        seeds = [i + k for i in range(0, len(self.arena.states) * nq, nq) for k in accepting]
        return solve_indexed(self.indexed(), seeds)


def label_rows(arena: Arena, d: Dfa, which: int) -> list[list[int]]:
    """The row of ``d`` for each arena state's label under labeling ``which``."""
    return [d.row(arena.label(s, which)) for s in arena.states]


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
    rows = label_rows(arena, d, which)
    i0 = arena.adjacency.where[arena.initial]
    return ProductGame(
        arena=arena,
        dfa=d,
        which=which,
        rows=rows,
        initial=(arena.initial, d.states[rows[i0][d.index[d.initial]]]),
    )
