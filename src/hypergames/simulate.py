"""Validation of synthesized strategies.

* :func:`verify_sure` exhaustively explores every adversary reply in the
  restricted game's int graph and confirms (or refutes, with a
  counterexample play) that P1's strategy forces the target within a step
  bound.
* :func:`simulate_asw` Monte-Carlo-samples the one-player stochastic game with
  the adversary drawing rationalizable actions at random.  Each trial is a
  walk over positions of the restricted game's int graph that records no
  trace: a position's move is worked out the first time a trial reaches it,
  together with one static stealth bit for P1's move there, and reused by
  every later trial of the call.  Each trial's random stream is derived
  solely from ``(seed, trial index)``, so runs are reproducible regardless of
  ordering.
* :func:`audit_stealth` checks a single trace against the rationalizable
  action sets; it is the stealth oracle for plays recorded elsewhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator

from .almostsure import StochasticGame
from .hypergame import HtsState, RestrictedGame, SrActionMap
from .reachsolver import Strategy

__all__ = [
    "Trace",
    "SimulationStats",
    "VerificationReport",
    "verify_sure",
    "simulate_asw",
    "audit_stealth",
]


@dataclass(frozen=True)
class Trace:
    """An alternating state/action record of one play."""

    states: tuple[HtsState, ...]
    actions: tuple[str, ...]
    reached_target: bool


@dataclass(frozen=True)
class VerificationReport:
    verified: bool
    counterexample: Trace | None
    states_explored: int
    bound: int


def _p1_move(state: HtsState, moves: Collection[str], strat: Strategy) -> str:
    # Outside the winning region the strategy may be undefined; extend it
    # deterministically so exploration and counterexamples stay reproducible.
    action = strat.get(state)
    if action is None:
        action = min(moves)
    elif action not in moves:
        raise ValueError(f"strategy action {action!r} not available at {state!r}")
    return action


def verify_sure(
    rg: RestrictedGame, strat: Strategy, start: HtsState, bound: int | None = None
) -> VerificationReport:
    """Exhaustively check that ``strat`` forces the target from ``start``.

    All adversary choices in the restricted game are explored, walking its int
    graph; the report is verified iff every play reaches the target within
    ``bound`` steps (default: the number of states of the restricted game).
    Otherwise the first failing play, a cycle or an over-long path, is
    returned as a counterexample.
    """
    try:
        i = rg.position(start)
    except KeyError:
        raise ValueError(f"start state {start!r} is not in the restricted game") from None
    if bound is None:
        bound = len(rg.states)

    states, succ, names, p1, at_target = rg.states, rg.succ, rg.names, rg.p1, rg.at_target
    verified = bytearray(len(states))
    on_path = bytearray(len(states))
    explored = 0
    # Depth-first search with an explicit stack: frames[n] holds the position
    # path[n] and the indices of its moves still to try, and acts[n] is the
    # action taken from path[n] towards the position being visited.
    path: list[int] = []
    acts: list[str] = []
    frames: list[tuple[int, Iterator[int]]] = []
    counterexample: Trace | None = None
    while True:
        explored += 1
        if not at_target[i] and not verified[i]:
            here = names[i]
            if on_path[i] or len(path) >= bound or not here:
                visited = tuple(states[j] for j in path) + (states[i],)
                counterexample = Trace(visited, tuple(acts), reached_target=False)
                break
            if p1[i]:
                chosen = [here.index(_p1_move(states[i], here, strat))]
            else:
                chosen = sorted(range(len(here)), key=here.__getitem__)
            path.append(i)
            acts.append("")
            on_path[i] = 1
            frames.append((i, iter(chosen)))
        while frames:
            j, pending = frames[-1]
            move = next(pending, None)
            if move is not None:
                acts[-1] = names[j][move]
                i = succ[j][move]
                break
            frames.pop()
            acts.pop()
            path.pop()
            on_path[j] = 0
            verified[j] = 1
        else:
            break

    return VerificationReport(
        verified=counterexample is None,
        counterexample=counterexample,
        states_explored=explored,
        bound=bound,
    )


@dataclass(frozen=True)
class SimulationStats:
    trials: int
    wins: int
    losses_by_cap: int
    win_rate: float | None
    stealth_violations: int
    seed: int


def _trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def simulate_asw(
    g: StochasticGame,
    strat: Strategy,
    start: HtsState,
    trials: int,
    cap: int,
    seed: int,
    sr: SrActionMap,
    weights: Callable[[list[str]], list[float]] | None = None,
) -> SimulationStats:
    """Monte-Carlo validation of an almost-sure strategy from ``start``.

    At adversary states an action is sampled from the rationalizable support,
    uniformly unless ``weights`` supplies another positive distribution (the
    almost-sure property is distribution-free, so uniform is the
    least-assumption default).  A trial wins when the target is reached within
    ``cap`` steps.  It violates stealth when, before reaching the target, P1
    plays an action that ``sr`` does not find rationalizable for him: the
    count :func:`audit_stealth` would give on every trial's trace.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if trials < 0:
        raise ValueError("trials must be at least 0")
    if trials == 0:
        return SimulationStats(0, 0, 0, None, 0, seed)
    rg = g.restricted
    first = rg.position(start)
    walk = _walker(rg, strat, sr, weights)
    at_target = rg.at_target
    wins = 0
    violations = 0
    for index in range(trials):
        end, _steps, stealthy = walk(first, cap, _trial_rng(seed, index))
        wins += at_target[end]
        violations += not stealthy
    return SimulationStats(
        trials=trials,
        wins=wins,
        losses_by_cap=trials - wins,
        win_rate=wins / trials,
        stealth_violations=violations,
        seed=seed,
    )


def _walker(
    rg: RestrictedGame,
    strat: Strategy,
    sr: SrActionMap,
    weights: Callable[[list[str]], list[float]] | None,
) -> Callable[[int, int, random.Random], tuple[int, int, bool]]:
    """A function playing one trial on the restricted game's int graph.

    ``walk(start, cap, rng)`` moves from position ``start`` until the target
    or ``cap`` moves and returns ``(end position, moves made, stealthy)``.
    The adversary draws from her actions in sorted name order with ``rng``,
    one ``randrange`` (or ``choices``) per move, so a trial's draws are those
    of the play it stands for.  Each position's move is worked out on the
    first visit and kept for every later trial of this walker.  A strategy
    action that is not available, or a dead end, raises ``ValueError`` there.
    """
    states, succ, names, p1, at_target = rg.states, rg.succ, rg.names, rg.p1, rg.at_target
    owner = sr.product2.arena.owner
    # moves[i], None until position i is first reached: at a P1 position the
    # successor, complemented (~j) when P1's action there is not rationalizable
    # in his perception; at an adversary position the successors in the sorted
    # order of their actions, whose names ordered[i] keeps for ``weights``.
    moves: list = [None] * len(states)
    ordered: dict[int, tuple[str, ...]] = {}

    def learn(i: int):
        here = names[i]
        if p1[i]:
            state = states[i]
            action = _p1_move(state, here, strat)
            move = succ[i][here.index(action)]
            s, _q, p = state
            if owner[s] == 1 and action not in sr.owner_actions(s, p):
                move = ~move
        elif not here:
            raise ValueError(f"adversary state {states[i]!r} has no moves")
        else:
            rank = sorted(range(len(here)), key=here.__getitem__)
            move = tuple(succ[i][k] for k in rank)
            ordered[i] = tuple(here[k] for k in rank)
        moves[i] = move
        return move

    def walk(i: int, cap: int, rng: random.Random) -> tuple[int, int, bool]:
        draw = rng.randrange
        stealthy = True
        for step in range(cap):
            if at_target[i]:
                return i, step, stealthy
            move = moves[i]
            if move is None:
                move = learn(i)
            if p1[i]:
                if move < 0:
                    stealthy = False
                    move = ~move
                i = move
            elif weights is None:
                i = move[draw(len(move))]
            else:
                i = move[rng.choices(range(len(move)), weights=weights(list(ordered[i])))[0]]
        return i, cap, stealthy

    return walk


def audit_stealth(trace: Trace, sr: SrActionMap, target: Iterable[HtsState]) -> bool:
    """True iff every P1 action taken before first entering ``target`` is
    subjectively rationalizable for P1 at the corresponding perceived state."""
    if not isinstance(target, (set, frozenset)):
        target = set(target)
    arena = sr.product2.arena
    for state, action in zip(trace.states, trace.actions):
        if state in target:
            break
        s, _q, p = state
        if arena.owner[s] != 1:
            continue
        if action not in sr.owner_actions(s, p):
            return False
    return True
