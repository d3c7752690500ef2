"""Hypergame transition system and stealthy deceptive sure-winning synthesis.

The HTS tracks the arena state together with both automaton components:
``(s, q, p)`` where ``q`` follows the true labeling and ``p`` the labeling
perceived by the adversary.  Its moves are computed on demand, so a solve from
the initial triple explores only the fragment reachable from it.  P1 wins
deceptively by steering the play into the deception target while using only
actions the adversary considers rational in her own perceptual game; once
there he abandons stealth and follows his true winning strategy.

The HTS reads both products' rows and initial states and takes its target
from the true product's level list; the SR map works out a state's
rationalizable moves from the perceived product's levels the first time they
are asked for.  The restricted game comes out of one forward search over
int-coded triples as an int graph, its states numbered in the order the
search finds them; the sure solve, the almost-sure solve and the simulator
all read it, and the two solves share one predecessor index of it, without
the edges out of the target.  Nothing they compute depends on the
numbering.  Its state-keyed dicts are views built only when something reads
them.

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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Sequence

from .arena import Arena, StateId
from .product import ProductGame
from .reachsolver import Index, Regions, Strategy, _attractor, _predecessors, p1_strategy
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
    try:
        j = product2.index(*state)
    except (KeyError, TypeError):
        raise ValueError(f"unknown L2-product state {state!r}") from None
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    return frozenset(_rational_moves(product2, regions2.levels, j, player == 1)[0])


def _rational_moves(
    product2: ProductGame, levels: Sequence[int], j: int, for_p1: bool
) -> tuple[tuple[str, ...], list[int]]:
    """``(names, successor arena indices)`` of the moves at position ``j`` of
    the L2 product that are rationalizable for P1 (``for_p1``) or for P2,
    read from its level list: P1's perceived winning region is where the
    level is ``>= 0``, P2's the rest."""
    adj, rows = product2.arena.adjacency, product2.rows
    nq = len(product2.dfa.states)
    i, k = divmod(j, nq)
    names, dsts = adj.names[i], adj.succ[i]
    if (levels[j] >= 0) == for_p1:  # winning in the perception: stay there
        keep = [(levels[d * nq + rows[d][k]] >= 0) == for_p1 for d in dsts]
        if not all(keep):
            return tuple(compress(names, keep)), list(compress(dsts, keep))
    return names, dsts


@dataclass(frozen=True)
class SrActionMap:
    """The owner's subjectively-rationalizable moves at the L2-product states.

    Holds the perceived product and its regions, whose level list decides
    rationality; a state's moves are worked out the first time they are
    asked for.  :meth:`kept` gives the kept moves at an int position of the
    L2 product and :meth:`owner_actions` their names by state;
    ``by_state``, the action set of every L2-product state, is built on
    first access.
    """

    product2: ProductGame
    regions2: Regions
    _moves: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _actions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def kept(self, j: int) -> tuple[tuple[str, ...], list[int]]:
        """``(names, successor arena indices)`` of the owner's rationalizable
        moves at position ``j = i * |Q| + k`` of the L2 product (arena state
        ``i``, perceived automaton state ``k``), in arena order; the arena's
        own tuple and list when nothing is pruned."""
        moves = self._moves.get(j)
        if moves is None:
            product2 = self.product2
            owner_is_p1 = product2.arena.adjacency.p1[j // len(product2.dfa.states)]
            moves = self._moves[j] = _rational_moves(
                product2, self.regions2.levels, j, bool(owner_is_p1)
            )
        return moves

    def owner_actions(self, s: StateId, p: str) -> frozenset[str]:
        try:
            return self._actions[(s, p)]
        except KeyError:
            j = self.product2.index(s, p)
            out = self._actions[(s, p)] = frozenset(self.kept(j)[0])
            return out

    @cached_property
    def by_state(self) -> dict[tuple, frozenset[str]]:
        return {(s, p): self.owner_actions(s, p) for s, p in self.product2.states}


def build_sr_map(product2: ProductGame, regions2: Regions) -> SrActionMap:
    """The owner's :func:`sr_actions` at every L2-product state, computed on demand.

    Keeps ``regions2``'s level list; nothing is worked out until a state's
    moves are asked for.
    """
    return SrActionMap(product2=product2, regions2=regions2)


@dataclass(frozen=True)
class Hts:
    """Hypergame transition system over ``S x Q x Q``, computed on demand.

    A triple ``(s, q, p)`` has the int code ``i·|Q|² + j·|Q| + k``, where
    ``i``, ``j`` and ``k`` are the indices of ``s`` in ``arena.states`` and of
    ``q`` and ``p`` in ``dfa.states``; ``states`` lists the triples in code
    order.  ``next1[i][j]`` / ``next2[i][j]`` is the index of the true /
    perceived automaton state after entering arena state ``i`` from automaton
    state ``j``; they are the rows of the true and the perceived product, so arena
    states with the same label share one row.  :meth:`successors` gives one
    triple's moves; the whole-space views are built on first access.
    """

    arena: Arena
    dfa: Dfa
    next1: list[list[int]]
    next2: list[list[int]]
    initial: HtsState
    robust_win: frozenset  # arena states winning in the true product for every q

    def code(self, v: HtsState) -> int:
        """The int code of ``v``; ``KeyError``, ``TypeError`` or ``ValueError`` if
        ``v`` is no triple of this HTS."""
        s, q, p = v
        q_index = self.dfa.index
        nq = len(q_index)
        return (self.arena.adjacency.where[s] * nq + q_index[q]) * nq + q_index[p]

    def successors(self, v: HtsState) -> dict[str, HtsState]:
        s, q, p = v
        adj, qs = self.arena.adjacency, self.dfa.states
        i, j, k = adj.where[s], self.dfa.index[q], self.dfa.index[p]
        dsts = self.arena.states
        return {
            a: (dsts[d], qs[self.next1[d][j]], qs[self.next2[d][k]])
            for a, d in zip(adj.names[i], adj.succ[i])
        }

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
    """Arena states ``s`` with ``(s, q)`` sure-winning for P1 for every DFA state.

    Reads the true product's level list, where ``(s, q)`` has the position
    ``s_index * |Q| + q_index``.
    """
    levels, nq = win11.levels, len(dfa.states)
    firsts = range(0, len(levels), nq)  # position of (s, q0) for each s
    return frozenset(s for s, at in zip(arena.states, firsts) if -1 not in levels[at:at + nq])


def build_hts(product_true: ProductGame, product_perceived: ProductGame, win11: Regions) -> Hts:
    """Build the HTS of the level-2 hypergame; the work is linear in ``S x Q``.

    It joins the true- and the perceived-labeling product of one arena and
    one DFA, reading their rows and initial states.  ``win11`` must be the
    solution of ``product_true``; the target collects every triple whose arena
    component is robustly sure-winning there, read from its level list.
    """
    arena, d = product_true.arena, product_true.dfa
    if product_perceived.arena is not arena or product_perceived.dfa is not d:
        raise ValueError("the two products are not over one arena and one DFA")
    if (product_true.which, product_perceived.which) != (1, 2):
        raise ValueError("the products must be of the true (1) and perceived (2) labelings")
    if len(win11.levels) != len(arena.states) * len(d.states):
        raise ValueError("true-product regions do not cover S x Q")
    return Hts(
        arena=arena,
        dfa=d,
        next1=product_true.rows,
        next2=product_perceived.rows,
        initial=product_true.initial + product_perceived.initial[1:],
        robust_win=robust_winning_states(arena, d, win11),
    )


@dataclass(frozen=True)
class RestrictedGame:
    """HTS with both players confined to subjectively-rationalizable actions.

    The game is held as an int graph over the positions ``0..n-1`` of
    ``states``, numbered in the order the building search found them, and
    ``by_code`` maps each state's HTS code to its position: the kept actions
    ``names[i]`` of position ``i`` lead to the positions ``succ[i]``, ``p1[i]``
    is nonzero where P1 owns it and ``at_target[i]`` where it lies in
    ``target``.  Every solve reads this graph.  ``owner``, ``transitions`` and
    ``removed`` (the pruned moves, for inspection and graph export) are
    state-keyed views built on first access; absent entries of
    ``transitions`` encode undefined moves.
    """

    hts: Hts
    states: tuple[HtsState, ...]
    initial: HtsState
    target: frozenset
    by_code: dict[int, int]
    succ: list[list[int]]
    names: list[tuple[str, ...]]
    p1: bytes
    at_target: bytes

    def position(self, v: HtsState) -> int:
        """Index of ``v`` in ``states``; ``KeyError`` if it is not there."""
        try:
            return self.by_code[self.hts.code(v)]
        except (KeyError, TypeError, ValueError):
            raise KeyError(v) from None

    @cached_property
    def predecessors(self) -> Index:
        """The solves' predecessor index, without the edges out of target
        states: the sure solve and every round of the almost-sure solve seed
        the target, and a drop pass must not reach it.  Built on first read;
        :func:`almostsure.solve_asw`, which runs after the sure solve, releases
        it."""
        return _predecessors(self.succ, self.at_target)

    @cached_property
    def owner(self) -> dict[HtsState, int]:
        return {v: 1 if owned else 2 for v, owned in zip(self.states, self.p1)}

    @cached_property
    def transitions(self) -> dict[HtsState, dict[str, HtsState]]:
        states = self.states
        return {
            v: {a: states[j] for a, j in zip(names, out)}
            for v, names, out in zip(states, self.names, self.succ)
        }

    @cached_property
    def removed(self) -> dict[HtsState, dict[str, HtsState]]:
        adj = self.hts.arena.adjacency
        out: dict[HtsState, dict[str, HtsState]] = {}
        for v, kept in zip(self.states, self.names):
            if len(kept) < len(adj.names[adj.where[v[0]]]):
                moves = self.hts.successors(v).items()
                out[v] = {a: dst for a, dst in moves if a not in kept}
        return out


def build_restricted_game(
    hts: Hts, sr: SrActionMap, reachable_only: bool = True
) -> RestrictedGame:
    """Restrict the HTS to subjectively-rationalizable actions of both players.

    By default one forward search over HTS codes expands only the fragment
    reachable from the initial state under the restricted dynamics, and the
    states are numbered in the order it finds them, the initial state first;
    ``reachable_only=False`` expands every code of ``S x Q x Q`` instead, in
    code order, the order of ``hts.states``.  ``sr`` must be the SR map of the
    same arena and DFA, since its kept moves are looked up by index.
    """
    arena, qs = hts.arena, hts.dfa.states
    adj = arena.adjacency
    nq = len(qs)
    nq2 = nq * nq
    next1, next2 = hts.next1, hts.next2
    kept = sr.kept  # (names, successor arena indices) of the kept moves at i * |Q| + p_index

    order = [hts.code(hts.initial)] if reachable_only else list(range(len(arena.states) * nq2))
    found = {code: n for n, code in enumerate(order)}  # code -> position
    succ: list[list[int]] = []
    names: list[tuple[str, ...]] = []
    for code in order:  # grows while the search runs
        i, j, k = code // nq2, code // nq % nq, code % nq
        moves = kept(i * nq + k)
        out = []
        for d in moves[1]:
            dst = d * nq2 + next1[d][j] * nq + next2[d][k]
            n = found.get(dst)
            if n is None:
                n = found[dst] = len(order)
                order.append(dst)
            out.append(n)
        succ.append(out)
        names.append(moves[0])

    arena_index = [code // nq2 for code in order]
    states = tuple(
        (arena.states[i], qs[code // nq % nq], qs[code % nq])
        for i, code in zip(arena_index, order)
    )
    robust = bytes(s in hts.robust_win for s in arena.states)
    at_target = bytes(robust[i] for i in arena_index)
    return RestrictedGame(
        hts=hts,
        states=states,
        initial=hts.initial,
        target=frozenset(compress(states, at_target)),
        by_code=found,
        succ=succ,
        names=names,
        p1=bytes(adj.p1[i] for i in arena_index),
        at_target=at_target,
    )


def solve_deceptive_sure(rg: RestrictedGame) -> tuple[Regions, Strategy]:
    """Stealthy deceptive sure-winning region and strategy for P1.

    The strategy decreases the attractor level outside the target and is
    undefined inside it, where P1 switches to his true winning strategy.
    """
    levels = _attractor(rg.predecessors, rg.p1, compress(range(len(rg.states)), rg.at_target))
    return Regions(levels, rg).decode(), p1_strategy(rg.states, rg.names, rg.succ, rg.p1, levels)
