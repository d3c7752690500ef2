"""Almost-sure deceptive winning via a one-player stochastic game.

When the adversary cannot reconstruct the full hypergame she is assumed to
randomize, with positive probability, over her subjectively-rationalizable
actions.  P1's choice states keep their (possibly restricted) actions, the
adversary's states become probabilistic with known support only, and the
deception target is absorbing.  The almost-sure winning region is computed by
the classic almost-sure reachability algorithm for MDPs (de Alfaro 1997;
Chatterjee & Henzinger, SODA 2011), an alternation of two attractors on the
reachability solver's kernel: each outer round finds what reaches the target
with positive probability inside the candidate region ``X``, then a drop pass
removes from ``X`` the adversary's attractor of what the round missed.  Every
round and pass reads one predecessor index of the restricted game, built once
without the edges out of the absorbing target; a state out of ``X`` keeps its
edges in the index and is preset in the level list of each later round.
Each round and pass is linear in the indexed edges, and the search layer of a
state in the last round is its level.  The game is a view of the restricted
game.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable

from .hypergame import Hts, HtsState, RestrictedGame
from .reachsolver import Regions, _attractor, p1_strategy

__all__ = ["StochasticGame", "AswResult", "build_stochastic_game", "pre_step", "solve_asw"]


@dataclass(frozen=True)
class StochasticGame:
    """One-player stochastic game over HTS states, a view of a restricted game.

    P1's non-target states are choice states; the adversary's non-target
    states are chance states, whose probabilities are known only to be
    positive, so just the support matters; target states are absorbing.  The
    solve and the simulator read the restricted game's int graph.  The
    state-keyed views ``choice_actions`` (P1's moves at his choice states),
    ``chance_actions`` (the adversary's rationalizable moves at her chance
    states) and ``support`` (successors of a chance state, a synthetic
    self-loop at a target state) are built on first access and share the
    restricted game's move dicts.
    """

    restricted: RestrictedGame

    @property
    def hts(self) -> Hts:
        return self.restricted.hts

    @property
    def states(self) -> tuple[HtsState, ...]:
        return self.restricted.states

    @property
    def initial(self) -> HtsState:
        return self.restricted.initial

    @property
    def target(self) -> frozenset:
        return self.restricted.target

    def _moves(self, owned_by_p1: bool) -> dict[HtsState, dict[str, HtsState]]:
        rg = self.restricted
        return {
            v: rg.transitions[v]
            for v, owned, goal in zip(rg.states, rg.p1, rg.at_target)
            if bool(owned) == owned_by_p1 and not goal
        }

    @cached_property
    def choice_actions(self) -> dict[HtsState, dict[str, HtsState]]:
        return self._moves(True)

    @cached_property
    def chance_actions(self) -> dict[HtsState, dict[str, HtsState]]:
        return self._moves(False)

    @cached_property
    def support(self) -> dict[HtsState, frozenset]:
        rg = self.restricted
        out: dict[HtsState, frozenset] = {}
        for v, owned, goal in zip(rg.states, rg.p1, rg.at_target):
            if goal:
                out[v] = frozenset({v})  # sink
            elif not owned:
                out[v] = frozenset(rg.transitions[v].values())
        return out


def build_stochastic_game(rg: RestrictedGame) -> StochasticGame:
    """View the restricted game as a one-player stochastic game, in O(1).

    The state space is the restricted game's own (its reachable fragment, or
    the full S x Q x Q space when it was built that way).
    """
    return StochasticGame(restricted=rg)


def pre_step(Y: Iterable[HtsState], X: Iterable[HtsState], g: StochasticGame) -> set:
    """States that reach ``Y`` with positive probability while staying in ``X``
    with probability one.

    For a P1 state this needs some action into ``Y``; for a probabilistic
    state the whole support must lie in ``X`` and meet ``Y``.
    """
    Y, X = set(Y), set(X)
    out = set()
    for v, actions in g.choice_actions.items():
        if v in X and any(dst in Y for dst in actions.values()):
            out.add(v)
    for v, sup in g.support.items():
        if v in X and sup <= X and sup & Y:
            out.add(v)
    return out


@dataclass(frozen=True)
class AswResult:
    """Almost-sure region, per-state level and the extracted strategy.

    ``level[v]`` is the backward-search layer of ``v`` in the last round: 0
    for the target, ``i`` for a state that first reaches level ``i - 1``.
    Its keys are exactly ``x_star``.
    """

    x_star: frozenset
    level: dict[HtsState, int]
    strategy: dict

    @property
    def levels(self) -> tuple[frozenset, ...]:
        """Cumulative level sets ``Y_0 ⊆ Y_1 ⊆ ...``, derived on each access:
        |X*| times the depth states, quadratic on a deep game; no report reads it."""
        layers: list[list[HtsState]] = [
            [] for _ in range(max(self.level.values(), default=0) + 1)
        ]
        for v, i in self.level.items():
            layers[i].append(v)
        out: list[frozenset] = []
        below: set = set()
        for layer in layers:
            below.update(layer)
            out.append(frozenset(below))
        return tuple(out)


def solve_asw(g: StochasticGame) -> AswResult:
    """Almost-sure winning region by alternating two attractors.

    Both halves of each outer round are calls of the attractor kernel on the
    restricted game's predecessor index, which has no edges out of the
    target, so the target is absorbing.  The round searches backward from the
    target inside the candidate region ``X``, every state joining on any edge
    into the found set; a state out of ``X`` is preset to ``-2`` in the level
    list the round fills, so it never joins.  While the round misses part of
    ``X``, the drop pass takes out of ``X`` the adversary's attractor of what
    it missed: a chance state with a successor dropped, a choice state with
    all of its successors dropped.  So every chance state left in ``X`` has
    its whole support there, and each round and pass is one kernel call,
    linear in the edges.  The strategy maps every P1 choice state of ``X``
    outside the target to the lexicographically smallest action whose
    successor has a lower level; inside the target it is undefined, P1 having
    switched to his true winning strategy.  The levels are decoded as the sure
    solve's are, after the index is dropped from the restricted game: the
    sure solve runs first and shares it, and a later solve builds it again.
    """
    rg = g.restricted
    pred, succ, p1 = rg.predecessors, rg.succ, rg.p1
    n = len(succ)
    targets = list(compress(range(n), rg.at_target))
    anyone = b"\x01" * n  # in a round every state chooses
    chance = bytes(not owned for owned in p1)  # in a drop pass only chance states do
    level = _attractor(pred, anyone, targets)
    while -1 in level:  # the round missed part of X
        missed = [i for i, lv in enumerate(level) if lv < 0]
        # the drop pass, then a round with every state out of X preset
        out_of_x = [-2 if lv >= 0 else -1 for lv in _attractor(pred, chance, missed)]
        level = _attractor(pred, anyone, targets, out_of_x)

    del pred  # the last reader of the index
    vars(rg).pop("predecessors", None)

    x = Regions(level, rg)
    return AswResult(x.win1, x.level, p1_strategy(rg.states, rg.names, succ, p1, level))
