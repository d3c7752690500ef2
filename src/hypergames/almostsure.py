"""Almost-sure deceptive winning via a one-player stochastic game.

When the adversary cannot reconstruct the full hypergame she is assumed to
randomize, with positive probability, over her subjectively-rationalizable
actions.  P1's choice states keep their (possibly restricted) actions, the
adversary's states become probabilistic with known support only, and the
deception target is absorbing.  The almost-sure winning region is computed by
the classic almost-sure reachability algorithm for MDPs (de Alfaro 1997;
Chatterjee & Henzinger, SODA 2011): each outer round runs one backward
breadth-first search from the target over the candidate region ``X`` and
shrinks ``X`` to what it found.  A round is linear in the edges of the
restricted game, and the search layer of a state is its level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .hypergame import Hts, HtsState, RestrictedGame

__all__ = ["StochasticGame", "AswResult", "build_stochastic_game", "pre_step", "solve_asw"]


@dataclass(frozen=True)
class StochasticGame:
    """One-player stochastic game over HTS states.

    ``choice_actions`` holds P1's available actions at his non-target states;
    ``chance_actions`` holds the adversary's rationalizable actions at her
    non-target states (probabilities are known only to be positive, so just
    the support matters).  Target states are absorbing and carry a synthetic
    self-loop support.
    """

    hts: Hts
    states: tuple[HtsState, ...]
    choice_actions: dict[HtsState, dict[str, HtsState]]
    chance_actions: dict[HtsState, dict[str, HtsState]]
    support: dict[HtsState, frozenset]
    initial: HtsState
    target: frozenset

    def is_choice(self, v: HtsState) -> bool:
        return v in self.choice_actions


def build_stochastic_game(rg: RestrictedGame) -> StochasticGame:
    """View the restricted game as a one-player stochastic game.

    The state space is the restricted game's own (its reachable fragment, or
    the full S x Q x Q space when it was built that way).  The action maps
    are the restricted game's move dicts, shared rather than copied; neither
    side mutates them.
    """
    choice_actions: dict[HtsState, dict[str, HtsState]] = {}
    chance_actions: dict[HtsState, dict[str, HtsState]] = {}
    support: dict[HtsState, frozenset] = {}
    for v in rg.states:
        moves = rg.transitions[v]
        if v in rg.target:
            support[v] = frozenset({v})  # sink
        elif rg.owner[v] == 1:
            choice_actions[v] = moves
        else:
            chance_actions[v] = moves
            support[v] = frozenset(moves.values())
    return StochasticGame(
        hts=rg.hts,
        states=rg.states,
        choice_actions=choice_actions,
        chance_actions=chance_actions,
        support=support,
        initial=rg.initial,
        target=rg.target,
    )


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
        """Cumulative level sets ``Y_0 ⊆ Y_1 ⊆ ...``, derived on each access."""
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
    """Almost-sure winning region by repeated backward search.

    Each outer round searches backward from the target inside the candidate
    region ``X``: a choice state is admitted on any edge into the found set,
    a chance state only if its whole support lies in ``X``.  ``X`` shrinks to
    the found set until a round finds all of it.  The strategy maps every P1
    choice state of ``X`` outside the target to the lexicographically
    smallest action whose successor has a lower level; inside the target it
    is undefined, P1 having switched to his true winning strategy.
    """
    preds: dict[HtsState, list[HtsState]] = {}
    for v, actions in g.choice_actions.items():
        for dst in actions.values():
            preds.setdefault(dst, []).append(v)
    for v in g.chance_actions:
        for dst in g.support[v]:
            preds.setdefault(dst, []).append(v)

    x = set(g.states)
    # Chance states with part of their support outside x; x only shrinks.
    blocked = {v for v in g.chance_actions if not g.support[v] <= x}
    while True:
        level = {v: 0 for v in g.target if v in x}
        frontier = list(level)
        depth = 0
        while frontier:
            depth += 1
            found = []
            for u in frontier:
                for v in preds.get(u, ()):
                    if v not in level and v in x and v not in blocked:
                        level[v] = depth
                        found.append(v)
            frontier = found
        if len(level) == len(x):
            break
        dropped = x.difference(level)
        x.difference_update(dropped)
        for u in dropped:
            blocked.update(v for v in preds.get(u, ()) if v in g.chance_actions)

    strategy: dict[HtsState, str] = {}
    for v, actions in g.choice_actions.items():
        rank = level.get(v)
        if rank:  # in X and outside the target
            strategy[v] = min(a for a, dst in actions.items() if level.get(dst, rank) < rank)
    return AswResult(x_star=frozenset(x), level=level, strategy=strategy)
