"""Attractor-based solver for two-player turn-based reachability/safety games.

Every solve runs on one private int kernel, :func:`_attractor`: states are the
indices ``0..n-1``, ``p1[i]`` is nonzero where P1 owns ``i``, and the search
runs backward from the seed indices layer by layer, counting outstanding
successors of each P2 state.  It reads a predecessor index
``(start, flat, degree)``: ``flat[start[j]:start[j + 1]]`` lists every ``i``
with an edge to ``j``, once per edge, and ``degree[i]`` is the number of
``i``'s out-edges.  A seed sits at level 0 from the start, so the search never
reads the edges out of it, and an index may leave them out; every caller
builds its index that way, once per solve or per pair of solves.  A solve is
linear in the edges it indexes.

The CLI's arena shortcut, the product games and the restricted game call the
kernel on the int graphs they already hold.  :func:`solve_reachability` is
the entry for any graph exposing ``states``, ``owner`` (state -> 1 or 2) and
``transitions`` (state -> {action: successor}): it interns the graph once per
call, in ``states`` order.  The result keeps the kernel's level list:
:class:`Regions` decodes its state-keyed sets and ranks only when they are
first read, and :func:`p1_strategy` and :func:`p2_strategy` derive the
min-action strategies from the same levels and successor lists, each only for
a caller that keeps it.

The almost-sure solve runs both halves of its outer rounds on the same kernel
and index, and decodes its levels as the sure solve does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import Any, Hashable, Iterable, Sequence

__all__ = [
    "Regions",
    "Strategy",
    "p1_strategy",
    "p2_strategy",
    "solve_reachability",
]

State = Hashable


@dataclass(frozen=True, eq=False)
class Regions:
    """Determinacy partition with attractor ranks for the reaching player.

    ``levels[i]`` is the kernel's attractor level of position ``i`` of
    ``game``, whose ``states`` lists the state at each position, and ``-1``
    outside the attractor.  ``level`` (win1 state -> rank), ``win1`` and
    ``win2`` are decoded from it on first read.  Two partitions are equal when
    their decoded sets and ranks are.
    """

    levels: Sequence[int]
    game: Any

    @cached_property
    def level(self) -> dict:
        return {v: lv for v, lv in zip(self.game.states, self.levels) if lv >= 0}

    @cached_property
    def win1(self) -> frozenset:
        return frozenset(self.level)

    @cached_property
    def win2(self) -> frozenset:
        return frozenset(v for v, lv in zip(self.game.states, self.levels) if lv < 0)

    def decode(self) -> Regions:
        """Decode ``level``, ``win1`` and ``win2`` now rather than on first read."""
        self.win1, self.win2  # each read caches its value; win1 reads level
        return self

    def __contains__(self, state: State) -> bool:
        return state in self.win1 or state in self.win2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Regions):
            return NotImplemented
        return self.level == other.level and self.win2 == other.win2

    __hash__ = None  # type: ignore[assignment]


Strategy = dict  # state -> chosen action


Index = tuple  # (start, flat, degree), see the module docstring


def _predecessors(succ: Sequence[Sequence[int]], seeded: Sequence[int] | None = None) -> Index:
    """The predecessor index of ``succ``, without the edges out of any ``i``
    with ``seeded[i]`` nonzero.

    Two flat lists rather than one list per state keep the number of objects
    allocated, and so the garbage collector's work, independent of the
    number of states.
    """
    n = len(succ)
    sources = range(n) if seeded is None else [i for i, s in enumerate(seeded) if not s]
    start = [0] * (n + 1)
    for i in sources:
        for j in succ[i]:
            start[j + 1] += 1
    start = list(accumulate(start))
    fill = start[:n]
    flat = [0] * start[n]
    for i in sources:
        for j in succ[i]:
            flat[fill[j]] = i
            fill[j] += 1
    return start, flat, [len(out) for out in succ]


def _attractor(
    pred: Index, p1: bytes, seeds: Iterable[int], level: list[int] | None = None
) -> list[int]:
    """Attractor level of every state for P1, ``-1`` outside the attractor.

    ``level``, when given, is the list to fill in place of ``[-1] * n``: a
    state preset to anything but ``-1`` keeps its value and never joins.  A
    state whose out-edges the index leaves out joins only as a seed.
    """
    start, flat, degree = pred
    pending = list(degree)  # P2 successors not yet attracted
    if level is None:
        level = [-1] * len(degree)
    layer = list(seeds)
    for i in layer:
        level[i] = 0
    depth = 0
    while layer:
        depth += 1
        found = []
        for j in layer:
            for i in flat[start[j]:start[j + 1]]:
                if level[i] != -1:
                    continue
                if not p1[i]:
                    pending[i] -= 1
                    if pending[i]:
                        continue
                level[i] = depth
                found.append(i)
        layer = found
    return level


def solve_reachability(game: Any, target: Iterable[State]) -> tuple[Regions, Strategy, Strategy]:
    """Solve the reachability game for P1 with the given target set.

    ``game`` exposes ``states``, ``owner`` and ``transitions``; it is interned
    once per call.  Returns the determinacy partition together with memoryless
    strategies: P1's strategy decreases the attractor level at every win1
    state outside the target; P2's strategy stays inside win2 at every win2
    state she owns.  Ties are broken by the lexicographically smallest action
    identifier.
    """
    states = tuple(game.states)
    where = {v: i for i, v in enumerate(states)}
    moves = [game.transitions[v] for v in states]
    names = [tuple(m) for m in moves]
    succ = [[where[dst] for dst in m.values()] for m in moves]
    p1 = bytes(game.owner[v] == 1 for v in states)
    seeded = bytearray(len(states))
    unknown = []
    for v in target:
        try:
            seeded[where[v]] = 1
        except (KeyError, TypeError):  # TypeError: unhashable
            unknown.append(v)
    if unknown:
        raise ValueError(f"target contains unknown states: {sorted(map(repr, unknown))[:3]}")
    levels = _attractor(_predecessors(succ, seeded), p1, compress(range(len(seeded)), seeded))
    return (
        Regions(levels, game),
        p1_strategy(states, names, succ, p1, levels),
        p2_strategy(states, names, succ, p1, levels),
    )


def p1_strategy(
    states: Sequence[State],
    names: Sequence[Sequence[str]],
    succ: Sequence[Sequence[int]],
    p1: bytes,
    levels: Sequence[int],
) -> Strategy:
    """At every P1 state of win1 outside the target, the smallest action whose
    successor has a lower level.  The k-th action ``names[i][k]`` of position
    ``i`` leads to ``succ[i][k]``, and ``states[i]`` keys the result."""
    return {
        states[i]: min(a for a, j in zip(names[i], succ[i]) if 0 <= levels[j] < lv)
        for i, lv in enumerate(levels)
        if lv > 0 and p1[i]
    }


def p2_strategy(
    states: Sequence[State],
    names: Sequence[Sequence[str]],
    succ: Sequence[Sequence[int]],
    p1: bytes,
    levels: Sequence[int],
) -> Strategy:
    """At every P2 state of win2 with a move, the smallest action that stays in
    win2; the arguments are those of :func:`p1_strategy`."""
    return {
        states[i]: min(a for a, j in zip(names[i], succ[i]) if levels[j] < 0)
        for i, lv in enumerate(levels)
        if lv < 0 and not p1[i] and succ[i]
    }
