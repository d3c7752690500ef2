"""Synchronous product of an arena (under one labeling) with an objective DFA.

The product is a view over ``S x Q``: it keeps the arena, the DFA and the
automaton step table, and computes a state's moves on demand.  The solver gets
its int adjacency straight from the arena's shared int adjacency
(:attr:`Arena.adjacency`) and the step table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arena import Arena, StateId
from .reachsolver import IndexedGame
from .speclang import AlphabetError, Dfa, all_symbols

__all__ = ["ProductGame", "build_product"]

ProductState = tuple  # (s, q)


@dataclass(frozen=True)
class ProductGame:
    """Product game over ``S x Q``, computed on demand; the target is ``S x F``.

    ``which`` records the labeling used for the automaton updates (1 = true
    labeling, 2 = perceived labeling); ``step[(q, s)]`` is the automaton state
    after entering arena state ``s`` from ``q``.  ``states`` lists ``S x Q``
    with the arena state outermost.  :meth:`successors` gives one state's
    moves; ``owner``, ``transitions`` and ``target`` are built on first access.
    """

    arena: Arena
    dfa: Dfa
    which: int
    step: dict[tuple[str, StateId], str]
    states: tuple[ProductState, ...]
    initial: ProductState

    def successors(self, v: ProductState) -> dict[str, ProductState]:
        s, q = v
        return {a: (dst, self.step[(q, dst)]) for a, dst in self.arena.transitions[s].items()}

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
        adj, qs = self.arena.adjacency, self.dfa.states
        nq = len(qs)
        q_index = {q: k for k, q in enumerate(qs)}
        # next_q[i][k]: index of the automaton state after entering s_i from q_k
        next_q = [[q_index[self.step[(q, s)]] for q in qs] for s in self.arena.states]
        succ: list[list[int]] = []
        for out in adj.succ:
            for k in range(nq):
                succ.append([d * nq + next_q[d][k] for d in out])

        def index(v: ProductState) -> int:
            s, q = v
            return adj.where[s] * nq + q_index[q]

        return IndexedGame(
            states=self.states,
            succ=succ,
            p1=bytes(owned for owned in adj.p1 for _q in qs),
            index=index,
            actions=lambda j: adj.names[j // nq],
        )


def build_product(arena: Arena, which: int, d: Dfa) -> ProductGame:
    """Build the product game of ``arena`` under labeling ``which`` with ``d``.

    Only the step table and the state list are built here; the result is a
    view over the full ``S x Q`` space, not only the reachable part, because
    winning regions are defined over all of ``S x Q`` and the hypergame
    transition system needs arbitrary automaton-state combinations.
    """
    if which not in (1, 2):
        raise ValueError(f"which-labeling must be 1 or 2, got {which!r}")
    if d.ap != arena.ap or tuple(d.alphabet) != all_symbols(arena.ap):
        raise AlphabetError(
            f"DFA alphabet over AP {sorted(d.ap)} does not match arena AP {sorted(arena.ap)}"
        )
    # Entering s' consumes L(s').
    step: dict[tuple[str, StateId], str] = {}
    for s in arena.states:
        label = arena.label(s, which)
        for q in d.states:
            step[(q, s)] = d.delta[(q, label)]
    return ProductGame(
        arena=arena,
        dfa=d,
        which=which,
        step=step,
        states=tuple((s, q) for s in arena.states for q in d.states),
        initial=(arena.initial, step[(d.initial, arena.initial)]),
    )
