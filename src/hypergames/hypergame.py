"""Hypergame transition system and stealthy deceptive sure-winning synthesis.

The HTS tracks the arena state together with both automaton components:
``(s, q, p)`` where ``q`` follows the true labeling and ``p`` the labeling
perceived by the adversary.  Its moves are computed on demand, so a solve from
the initial triple explores only the fragment reachable from it.  P1 wins
deceptively by steering the play into the deception target while using only
actions the adversary considers rational in her own perceptual game; once
there he abandons stealth and follows his true winning strategy.

Two deliberate modeling choices (both match the worked example the golden
tests pin down):

* the restriction to subjectively-rationalizable actions is applied uniformly,
  at every state, rather than being lifted inside the deception target; inside
  the target the play is over for synthesis purposes, so this never changes
  the computed winning region, and it keeps the reachable fragment identical
  to the one the solved example enumerates;
* the deception target is the set of HTS states whose arena component is
  sure-winning for P1 in the true product game for *every* automaton state,
  so P1 can drop the deception there no matter how the play unfolded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arena import Arena, HypergameInput, StateId
from .product import ProductGame
from .reachsolver import Regions, Strategy, solve_reachability
from .speclang import Dfa

__all__ = [
    "Hts",
    "SrActionMap",
    "RestrictedGame",
    "sr_actions",
    "build_sr_map",
    "build_hts",
    "build_restricted_game",
    "solve_deceptive_sure",
]

HtsState = tuple  # (s, q, p)


def sr_actions(
    product2: ProductGame, regions2: Regions, state: tuple, player: int
) -> frozenset[str]:
    """Subjectively-rationalizable actions of ``player`` at L2-product state ``state``.

    If the state lies in the player's perceived winning region, only actions
    that stay inside that region are rationalizable; otherwise the player has
    already lost in the adversary's perception and any enabled action is.
    """
    if not (isinstance(state, tuple) and len(state) == 2):
        raise ValueError(f"unknown L2-product state {state!r}")
    s, q = state
    if (q, s) not in product2.step:
        raise ValueError(f"unknown L2-product state {state!r}")
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    succs = product2.arena.transitions[s]
    win = regions2.win1 if player == 1 else regions2.win2
    if state in win:
        step = product2.step
        return frozenset(a for a, dst in succs.items() if (dst, step[(q, dst)]) in win)
    return frozenset(succs)


@dataclass(frozen=True)
class SrActionMap:
    """Owner's subjectively-rationalizable action set at every L2-product state."""

    product2: ProductGame
    regions2: Regions
    by_state: dict[tuple, frozenset[str]]

    def owner_actions(self, s: StateId, p: str) -> frozenset[str]:
        return self.by_state[(s, p)]

    def for_player(self, player: int, s: StateId, p: str) -> frozenset[str]:
        return sr_actions(self.product2, self.regions2, (s, p), player)


def build_sr_map(product2: ProductGame, regions2: Regions) -> SrActionMap:
    """:func:`sr_actions` of the owner at every L2-product state, in ``states`` order.

    Reads the arena's adjacency and the product's step table directly; states
    whose every action is rationalizable share one action set.
    """
    arena, step = product2.arena, product2.step
    states, nq = product2.states, len(product2.dfa.states)
    by_state: dict[tuple, frozenset[str]] = {}
    for i, s in enumerate(arena.states):
        succs = arena.transitions[s]
        every = frozenset(succs)
        win = regions2.win1 if arena.owner[s] == 1 else regions2.win2
        for v in states[i * nq:(i + 1) * nq]:  # (s, q) for every q
            if v in win:
                q = v[1]
                keep = [a for a, dst in succs.items() if (dst, step[(q, dst)]) in win]
                by_state[v] = every if len(keep) == len(every) else frozenset(keep)
            else:
                by_state[v] = every
    return SrActionMap(product2=product2, regions2=regions2, by_state=by_state)


@dataclass(frozen=True)
class Hts:
    """Hypergame transition system over ``S x Q x Q``, computed on demand.

    ``step1[(q, s)]`` / ``step2[(q, s)]`` is the true / perceived automaton
    state after entering arena state ``s`` from ``q``.  :meth:`successors`
    gives one triple's moves; the whole-space views are built on first access.
    """

    arena: Arena
    dfa: Dfa
    step1: dict[tuple[str, StateId], str]
    step2: dict[tuple[str, StateId], str]
    initial: HtsState
    robust_win: frozenset  # arena states winning in the true product for every q

    def successors(self, v: HtsState) -> dict[str, HtsState]:
        s, q, p = v
        moves = self.arena.transitions[s].items()
        return {a: (dst, self.step1[(q, dst)], self.step2[(p, dst)]) for a, dst in moves}

    @cached_property
    def states(self) -> tuple[HtsState, ...]:
        qs = self.dfa.states
        return tuple((s, q, p) for s in self.arena.states for q in qs for p in qs)

    @cached_property
    def owner(self) -> dict[HtsState, int]:
        return {v: self.arena.owner[v[0]] for v in self.states}

    @cached_property
    def transitions(self) -> dict[HtsState, dict[str, HtsState]]:
        return {v: self.successors(v) for v in self.states}

    @cached_property
    def target(self) -> frozenset:
        return frozenset(v for v in self.states if v[0] in self.robust_win)

    @cached_property
    def reachable(self) -> frozenset:
        """Triples reachable from ``initial`` under every move, rational or not."""
        return frozenset(_forward_closure(self.initial, self.successors))


def _forward_closure(start: HtsState, moves) -> set:
    """States reachable from ``start``, where ``moves(v)`` maps actions to successors."""
    seen, stack = {start}, [start]
    while stack:
        for dst in moves(stack.pop()).values():
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def robust_winning_states(arena: Arena, dfa: Dfa, win11: Regions) -> frozenset:
    """Arena states ``s`` with ``(s, q)`` sure-winning for P1 for every DFA state."""
    return frozenset(
        s for s in arena.states if all((s, q) in win11.win1 for q in dfa.states)
    )


def build_hts(inp: HypergameInput, d: Dfa, win11: Regions) -> Hts:
    """Build the HTS of the level-2 hypergame; the work is linear in ``S x Q``.

    ``win11`` must be the solution of the true-labeling product of the same
    arena and DFA.  The target collects every triple whose arena component is
    robustly sure-winning in that product.
    """
    arena = inp.arena
    step1: dict[tuple[str, StateId], str] = {}
    step2: dict[tuple[str, StateId], str] = {}
    for s in arena.states:
        l1, l2 = arena.label(s, 1), arena.label(s, 2)
        for q in d.states:
            if (s, q) not in win11:
                raise ValueError(f"true-product regions do not cover {(s, q)!r}")
            step1[(q, s)] = d.delta[(q, l1)]
            step2[(q, s)] = d.delta[(q, l2)]
    s0 = arena.initial
    return Hts(
        arena=arena,
        dfa=d,
        step1=step1,
        step2=step2,
        initial=(s0, step1[(d.initial, s0)], step2[(d.initial, s0)]),
        robust_win=robust_winning_states(arena, d, win11),
    )


@dataclass(frozen=True)
class RestrictedGame:
    """HTS with both players confined to subjectively-rationalizable actions.

    Absent entries of ``transitions`` encode undefined moves; ``removed``
    keeps them for inspection and graph export.
    """

    hts: Hts
    states: tuple[HtsState, ...]
    owner: dict[HtsState, int]
    transitions: dict[HtsState, dict[str, HtsState]]
    removed: dict[HtsState, dict[str, HtsState]]
    initial: HtsState
    target: frozenset
    reachable_only: bool


def build_restricted_game(
    hts: Hts, sr: SrActionMap, reachable_only: bool = True
) -> RestrictedGame:
    """Restrict the HTS to subjectively-rationalizable actions of both players.

    By default one forward search expands only the fragment reachable from the
    initial state under the restricted dynamics, ordered as in ``hts.states``;
    ``reachable_only=False`` expands every state of ``S x Q x Q`` instead.
    """
    transitions: dict[HtsState, dict[str, HtsState]] = {}
    removed: dict[HtsState, dict[str, HtsState]] = {}

    def expand(v: HtsState) -> dict[str, HtsState]:
        moves = hts.successors(v)
        keep = sr.owner_actions(v[0], v[2])
        if len(keep) < len(moves):
            removed[v] = {a: dst for a, dst in moves.items() if a not in keep}
            moves = {a: dst for a, dst in moves.items() if a in keep}
        transitions[v] = moves
        return moves

    if reachable_only:
        seen = _forward_closure(hts.initial, expand)
        s_index = {s: i for i, s in enumerate(hts.arena.states)}
        q_index = {q: i for i, q in enumerate(hts.dfa.states)}
        states = tuple(sorted(seen, key=lambda v: (s_index[v[0]], q_index[v[1]], q_index[v[2]])))
    else:
        states = hts.states
        for v in states:
            expand(v)
    return RestrictedGame(
        hts=hts,
        states=states,
        owner={v: hts.arena.owner[v[0]] for v in states},
        transitions=transitions,
        removed=removed,
        initial=hts.initial,
        target=frozenset(v for v in states if v[0] in hts.robust_win),
        reachable_only=reachable_only,
    )


def solve_deceptive_sure(rg: RestrictedGame) -> tuple[Regions, Strategy]:
    """Stealthy deceptive sure-winning region and strategy for P1.

    The strategy decreases the attractor level outside the target and is
    undefined inside it, where P1 switches to his true winning strategy.
    """
    regions, strat1, _strat2 = solve_reachability(rg, rg.target)
    return regions, strat1
