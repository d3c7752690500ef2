"""Synchronous product of an arena (under one labeling) with an objective DFA."""

from __future__ import annotations

from dataclasses import dataclass

from .arena import Arena, StateId
from .speclang import AlphabetError, Dfa, all_symbols

__all__ = ["ProductGame", "build_product"]

ProductState = tuple  # (s, q)


@dataclass(frozen=True)
class ProductGame:
    """Full product over S x Q; the target is S x F.

    ``which`` records the labeling used for the automaton updates (1 = true
    labeling, 2 = perceived labeling).
    """

    arena: Arena
    dfa: Dfa
    which: int
    states: tuple[ProductState, ...]
    owner: dict[ProductState, int]
    transitions: dict[ProductState, dict[str, ProductState]]
    initial: ProductState
    target: frozenset


def build_product(arena: Arena, which: int, d: Dfa) -> ProductGame:
    """Build the product game of ``arena`` under labeling ``which`` with ``d``.

    The construction covers the full S x Q space, not only the reachable part:
    winning regions are defined over all of S x Q and the hypergame transition
    system needs arbitrary automaton-state combinations.
    """
    if which not in (1, 2):
        raise ValueError(f"which-labeling must be 1 or 2, got {which!r}")
    if d.ap != arena.ap or tuple(d.alphabet) != all_symbols(arena.ap):
        raise AlphabetError(
            f"DFA alphabet over AP {sorted(d.ap)} does not match arena AP {sorted(arena.ap)}"
        )
    # Per-arena-state automaton step tables; entering s' consumes L(s').
    step: dict[tuple[str, StateId], str] = {}
    for s in arena.states:
        label = arena.label(s, which)
        for q in d.states:
            step[(q, s)] = d.delta[(q, label)]

    states: list[ProductState] = []
    owner: dict[ProductState, int] = {}
    transitions: dict[ProductState, dict[str, ProductState]] = {}
    for s in arena.states:
        for q in d.states:
            v = (s, q)
            states.append(v)
            owner[v] = arena.owner[s]
            transitions[v] = {
                a: (dst, step[(q, dst)]) for a, dst in arena.transitions[s].items()
            }
    target = frozenset((s, q) for s in arena.states for q in d.accepting)
    initial = (arena.initial, step[(d.initial, arena.initial)])
    return ProductGame(
        arena=arena,
        dfa=d,
        which=which,
        states=tuple(states),
        owner=owner,
        transitions=transitions,
        initial=initial,
        target=target,
    )
