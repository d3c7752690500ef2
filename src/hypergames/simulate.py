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
  every later trial of the call.  A run of fixed moves (P1's, and the
  adversary's where she has one rationalizable action) is worked out whole
  when a trial enters it, and later trials jump over it, so a trial costs
  one step per draw and per run it enters, not one per move.  Each trial's
  random stream is derived solely from ``(seed, trial index)``, so runs are
  reproducible regardless of ordering.
* :func:`audit_stealth` checks a single trace against the rationalizable
  action sets; it is the stealth oracle for plays recorded elsewhere.

The trial streams are SplitMix64 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014), so a trial can be replayed
outside Python.  All arithmetic is modulo 2^64.  With ``G =
0x9E3779B97F4A7C15``, the generator seeded with ``x`` outputs, for ``n = 1,
2, ...``, ``mix(x + n*G)``, where ``mix(z)`` is::

    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

* Trial ``i`` (from 0) of a call with ``seed`` has the key
  ``mix(seed + (i + 1)*G)``: the ``(i + 1)``-th output of the generator
  seeded with ``seed mod 2^64``.  Its draws are the outputs ``z`` of the
  generator seeded with that key, one after another.
* An adversary position with one move draws nothing (and ``weights`` is not
  called there).  With ``m >= 2`` moves, in sorted name order:

  - uniformly, move ``(z*m) >> 64``, the high word of the 128-bit product,
    drawing again while its low word ``(z*m) mod 2^64`` is below ``2^64 mod
    m`` (Lemire's multiply-shift with rejection, which keeps the choice
    exactly uniform);
  - by ``weights``, the first move whose cumulative weight exceeds
    ``u * total`` (the last move if none does), with ``u = (z >> 11) *
    2^-53``, as ``random.choices`` takes it.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite
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


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64's output function of a 64-bit state."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _trial_key(seed: int, index: int) -> int:
    """The stream key of trial ``index`` of a call with ``seed``."""
    return _mix((seed + (index + 1) * _GAMMA) & _MASK)


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
    count :func:`audit_stealth` would give on every trial's trace.  Trial
    ``i`` draws from the SplitMix64 stream keyed by ``seed`` and ``i``, as the
    module docstring defines it.
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
        end, _steps, stealthy = walk(first, cap, _trial_key(seed, index))
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


def _reject(state: int, product: int, m: int) -> tuple[int, int]:
    """Lemire's rejection step for a uniform draw among ``m`` moves.

    ``product`` is ``z * m`` for the output ``z`` that brought the stream to
    ``state``.  Draw again while its low word is below ``2^64 mod m``; return
    the stream's state and the product accepted.
    """
    floor = (1 << 64) % m
    while product & _MASK < floor:
        state = (state + _GAMMA) & _MASK
        product = _mix(state) * m
    return state, product


def _weighted(names: tuple[str, ...], weights: Callable[[list[str]], list[float]], z: int) -> int:
    """The index ``random.choices`` would pick among ``names`` by
    ``weights(names)`` for the 53-bit float ``(z >> 11) * 2^-53``, with its
    ``ValueError`` for a wrong number of weights or a bad total."""
    cum = list(accumulate(weights(list(names))))
    if len(cum) != len(names):
        raise ValueError("The number of weights does not match the population")
    total = cum[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not isfinite(total):
        raise ValueError("Total of weights must be finite")
    return bisect(cum, (z >> 11) * 2.0**-53 * total, 0, len(names) - 1)


def _walker(
    rg: RestrictedGame,
    strat: Strategy,
    sr: SrActionMap,
    weights: Callable[[list[str]], list[float]] | None,
) -> Callable[[int, int, int], tuple[int, int, bool]]:
    """A function playing one trial on the restricted game's int graph.

    ``walk(start, cap, key)`` moves from position ``start`` until the target
    or ``cap`` moves and returns ``(end position, moves made, stealthy)``.
    The adversary draws from her actions in sorted name order on the
    SplitMix64 stream seeded with ``key``, one output per draw (the module
    docstring gives the rule), stepped inline on a local int.

    Each position's move is worked out on the first visit and kept for every
    later trial of this walker.  A position whose move is fixed (P1's, or an
    adversary's with one move) starts a run: the fixed moves that follow it,
    learnt at once, up to a target position, a draw, a position learnt
    before, the run's own path or the trial's cap, so that the memo grows
    only with the positions trials reach.  Every position of a run with two
    or more moves left keeps a jump to the run's end, which a trial takes
    whole when it fits before ``cap`` and otherwise by its first move, so
    that a trial costs one step per draw and per run it enters, not one per
    move (path compression, Tarjan 1975).  A strategy action that is not
    available, or a dead end, raises ``ValueError`` when a trial reaches it
    within its cap.
    """
    states, succ, names, p1, at_target = rg.states, rg.succ, rg.names, rg.p1, rg.at_target
    # moves[i], set when position i is learnt: an int where the move is
    # fixed, complemented (~j) when it is P1's and his action there is not
    # rationalizable in his perception; where two or more fixed moves follow,
    # a jump (end position, number of moves, stealthy, the int of the first
    # move); at an adversary position with two or more moves, the list of
    # successors in the sorted order of their actions, whose names
    # ordered[i] keeps for ``weights``.
    moves: dict[int, int | tuple[int, int, bool, int] | list[int]] = {}
    ordered: dict[int, tuple[str, ...]] = {}

    def move_at(i: int) -> int | list[int]:
        here = names[i]
        if p1[i]:
            state = states[i]
            action = _p1_move(state, here, strat)
            move = succ[i][here.index(action)]
            s, _q, p = state
            if action not in sr.owner_actions(s, p):
                move = ~move
            return move
        if not here:
            raise ValueError(f"adversary state {states[i]!r} has no moves")
        if len(here) == 1:
            return succ[i][0]
        rank = sorted(range(len(here)), key=here.__getitem__)
        ordered[i] = tuple(here[k] for k in rank)
        return [succ[i][k] for k in rank]

    def learn(i: int, budget: int):
        move = moves[i] = move_at(i)
        if move.__class__ is not int:
            return move
        # the run of fixed moves from i, in order, up to its end j; a
        # position already in moves is learnt before or on the run's path.
        # The trial reaches every position of the run within its cap, so
        # one whose move cannot be worked out raises as it would there.
        run = [i]
        j = ~move if move < 0 else move
        while len(run) < budget and not at_target[j] and j not in moves:
            move = moves[j] = move_at(j)
            if move.__class__ is not int:
                break
            run.append(j)
            j = ~move if move < 0 else move
        length = 0
        stealthy = True
        for k in reversed(run):
            move = moves[k]
            length += 1
            stealthy = stealthy and move >= 0
            if length > 1:
                moves[k] = (j, length, stealthy, move)
        return moves[i]

    def walk(i: int, cap: int, key: int) -> tuple[int, int, bool]:
        stealthy = True
        step = 0
        while step < cap:
            if at_target[i]:
                return i, step, stealthy
            try:
                move = moves[i]
            except KeyError:
                move = learn(i, cap - step)
            if move.__class__ is tuple:
                end, length, clean, move = move
                if step + length <= cap:
                    i = end
                    step += length
                    stealthy = stealthy and clean
                    continue
                # the run does not fit before the cap: its first move only
            step += 1
            if move.__class__ is int:
                if move < 0:
                    stealthy = False
                    move = ~move
                i = move
                continue
            # the next output: _mix of the stepped state, inlined
            key = (key + _GAMMA) & _MASK
            z = ((key ^ (key >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if weights is None:
                m = len(move)
                z *= m
                if z & _MASK < m:  # 2^64 mod m < m, so only then can it be rejected
                    key, z = _reject(key, z, m)
                i = move[z >> 64]
            else:
                i = move[_weighted(ordered[i], weights, z)]
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
