"""Independent reference implementations used to cross-check the solvers.

Everything here is deliberately written in a different style from the package
code (naive fixed points, explicit enumeration, direct recursion on the
syntax tree) so that agreement is meaningful evidence.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from types import SimpleNamespace
from typing import Iterable, Sequence

from hypergames.almostsure import StochasticGame, pre_step
from hypergames.reachsolver import Regions
from hypergames.simulate import Trace
from hypergames.speclang import (
    And,
    Atom,
    Bottom,
    Eventually,
    Formula,
    Next,
    NotAtom,
    Or,
    Top,
    Until,
)

Word = Sequence[frozenset]


def eps(f: Formula) -> bool:
    """Satisfaction of ``f`` by the empty (exhausted) word suffix."""
    if isinstance(f, Top):
        return True
    if isinstance(f, (Bottom, Atom, NotAtom, Next)):
        return False
    if isinstance(f, And):
        return all(eps(g) for g in f.operands)
    if isinstance(f, Or):
        return any(eps(g) for g in f.operands)
    if isinstance(f, Until):
        return eps(f.rhs)
    if isinstance(f, Eventually):
        return eps(f.sub)
    raise TypeError(f)


def sat(f: Formula, w: Word, i: int = 0) -> bool:
    """Finite-word satisfaction at position ``i`` (strong semantics; a word may
    end while an eventuality is still pending, which counts as unsatisfied
    unless the pending obligation is already vacuous)."""
    n = len(w)
    if i == n:
        return eps(f)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return f.name in w[i]
    if isinstance(f, NotAtom):
        return f.name not in w[i]
    if isinstance(f, And):
        return all(sat(g, w, i) for g in f.operands)
    if isinstance(f, Or):
        return any(sat(g, w, i) for g in f.operands)
    if isinstance(f, Next):
        return sat(f.sub, w, i + 1)
    if isinstance(f, Eventually):
        return any(sat(f.sub, w, j) for j in range(i, n + 1))
    if isinstance(f, Until):
        return any(
            sat(f.rhs, w, j) and all(sat(f.lhs, w, k) for k in range(i, j))
            for j in range(i, n + 1)
        )
    raise TypeError(f)


def attractor_oracle(game, target: Iterable) -> frozenset:
    """P1 attractor by naive iteration to a fixed point."""
    attr = set(target)
    while True:
        added = False
        for s in game.states:
            if s in attr:
                continue
            succs = list(game.transitions[s].values())
            if not succs:
                continue
            if game.owner[s] == 1:
                ok = any(d in attr for d in succs)
            else:
                ok = all(d in attr for d in succs)
            if ok:
                attr.add(s)
                added = True
        if not added:
            return frozenset(attr)


def dict_attractor_oracle(game, target: Iterable) -> tuple[Regions, dict, dict]:
    """``(regions, strat1, strat2)`` by a worklist attractor over state-keyed dicts.

    A predecessor list and a pending count of P2 successors per state, in
    dicts keyed by the states themselves; P1 decreases the level outside the
    target and P2 stays in win2, both with the smallest action.
    """
    state_set = set(game.states)
    target = set(target)
    unknown = target - state_set
    if unknown:
        raise ValueError(f"target contains unknown states: {sorted(map(repr, unknown))[:3]}")

    preds: dict = {s: [] for s in game.states}
    out_count: dict = {}
    for s in game.states:
        succs = game.transitions[s]
        out_count[s] = len(succs)
        for a, dst in succs.items():
            preds[dst].append((s, a))

    level = {s: 0 for s in target}
    attractor = set(target)
    pending = dict(out_count)
    queue = deque((s, 0) for s in target)
    while queue:
        v, lv = queue.popleft()
        for s, _a in preds[v]:
            if s in attractor:
                continue
            if game.owner[s] == 1:
                attractor.add(s)
                level[s] = lv + 1
                queue.append((s, lv + 1))
            else:
                pending[s] -= 1
                if pending[s] == 0:
                    attractor.add(s)
                    level[s] = lv + 1
                    queue.append((s, lv + 1))

    win1 = frozenset(attractor)
    win2 = frozenset(state_set - attractor)
    strat1 = {}
    for s in win1 - target:
        if game.owner[s] != 1:
            continue
        strat1[s] = min(
            a for a, dst in game.transitions[s].items()
            if dst in win1 and level[dst] < level[s]
        )
    strat2 = {}
    for s in win2:
        if game.owner[s] != 2 or not game.transitions[s]:
            continue
        strat2[s] = min(a for a, dst in game.transitions[s].items() if dst in win2)
    # Packed as the solver's result type, whose level list follows ``game.states``.
    regions = Regions(levels=[level.get(s, -1) for s in game.states], game=game)
    assert regions.win1 == win1 and regions.win2 == win2
    return regions, strat1, strat2


def successor_list_attractor(
    succ: Sequence[Sequence[int]], p1: bytes, seeds: Iterable[int]
) -> list[int]:
    """Attractor levels by the reachability kernel as it once read successor
    lists: it indexes the predecessors of every edge, the edges out of seeds
    included, and counts a P2 state's pending successors from its list.

    ``succ[i]`` lists the successor indices of ``i``, ``p1[i]`` is nonzero
    where P1 owns ``i``; ``-1`` marks a state outside the attractor.
    """
    n = len(succ)
    start = [0] * (n + 1)
    for out in succ:
        for j in out:
            start[j + 1] += 1
    start = list(itertools.accumulate(start))
    fill = start[:n]
    flat = [0] * start[n]
    for i, out in enumerate(succ):
        for j in out:
            flat[fill[j]] = i
            fill[j] += 1
    pending = [len(out) for out in succ]
    level = [-1] * n
    layer = list(seeds)
    for i in layer:
        level[i] = 0
    depth = 0
    while layer:
        depth += 1
        found = []
        for j in layer:
            for i in flat[start[j]:start[j + 1]]:
                if level[i] >= 0:
                    continue
                if not p1[i]:
                    pending[i] -= 1
                    if pending[i]:
                        continue
                level[i] = depth
                found.append(i)
        layer = found
    return level


def reachable_oracle(transitions, start) -> frozenset:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for d in transitions[v].values():
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return frozenset(seen)


def asw_oracle(g: StochasticGame) -> frozenset:
    """Almost-sure region by enumerating pure memoryless P1 strategies.

    For each strategy the induced support graph is a Markov chain skeleton; a
    state wins iff the target stays reachable from everything reachable from
    it.  The region is the union over all strategies.
    """
    choice_states = sorted(g.choice_actions, key=repr)
    menus = [sorted(g.choice_actions[v]) for v in choice_states]
    winning: set = set()
    for combo in itertools.product(*menus) if choice_states else [()]:
        pick = dict(zip(choice_states, combo))
        succ: dict = {}
        for v in g.states:
            if v in g.target:
                succ[v] = [v]
            elif v in g.choice_actions:
                succ[v] = [g.choice_actions[v][pick[v]]]
            else:
                succ[v] = list(g.chance_actions[v].values())
        # backward: states that can reach the target
        can_reach = set(g.target)
        while True:
            grew = False
            for v in g.states:
                if v not in can_reach and any(d in can_reach for d in succ[v]):
                    can_reach.add(v)
                    grew = True
            if not grew:
                break
        for v in g.states:
            if v in winning:
                continue
            # forward closure from v
            seen = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for d in succ[u]:
                    if d not in seen:
                        seen.add(d)
                        stack.append(d)
            if seen <= can_reach:
                winning.add(v)
    return frozenset(winning)


def nested_fixed_point_oracle(g: StochasticGame) -> tuple[frozenset, tuple[frozenset, ...], dict]:
    """X*, cumulative level sets and strategy by the plain nested fixed point.

    Outer loop: shrink the candidate region ``X`` to the states that can keep
    reaching the target inside ``X``.  Inner loop: grow level sets from the
    target with one full ``pre_step`` sweep per level.  The strategy maps
    every P1 choice state of ``Y_i \\ Y_{i-1}`` to the smallest action whose
    successor lies in ``Y_{i-1}``.  Quadratic in the depth; small games only.
    """
    X = set(g.states)
    levels: list[set] = []
    while True:
        levels = [set(v for v in g.target if v in X)]
        while True:
            nxt = pre_step(levels[-1], X, g) | levels[-1]
            if nxt == levels[-1]:
                break
            levels.append(nxt)
        Y = levels[-1]
        if Y == X:
            break
        X = Y

    strategy: dict = {}
    for i in range(1, len(levels)):
        for v in levels[i] - levels[i - 1]:
            if v in g.choice_actions:
                strategy[v] = min(
                    a for a, dst in g.choice_actions[v].items() if dst in levels[i - 1]
                )
    return frozenset(X), tuple(frozenset(level) for level in levels), strategy


class TrialStream:
    """SplitMix64, transcribed from the published reference ``splitmix64.c``
    (Steele, Lea & Flood, OOPSLA 2014), with the two draws the simulator
    makes from it written out the long way."""

    def __init__(self, key: int):
        self.x = key % 2**64

    def next(self) -> int:
        self.x = (self.x + 0x9E3779B97F4A7C15) % 2**64
        z = self.x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def randrange(self, m: int) -> int:
        """Uniform on ``range(m)``; ``m == 1`` draws nothing.  Lemire,
        "Fast random integer generation in an interval", TOMACS 2019: the
        high word of ``z * m``, rejected while its low word falls below
        ``2^64 mod m``."""
        if m < 1:
            raise ValueError("empty range")
        if m == 1:
            return 0
        while True:
            high, low = divmod(self.next() * m, 2**64)
            if low >= 2**64 % m:
                return high

    def choices(self, population, weights):
        """One element, by the weights ``weights(list(population))``, on the
        53-bit float of one output as ``random.choices`` takes it; one
        element draws nothing and does not call ``weights``."""
        if len(population) == 1:
            return population[0]
        cumulative = []
        running = 0
        for w in weights(list(population)):
            running = running + w
            cumulative.append(running)
        if len(cumulative) != len(population):
            raise ValueError("The number of weights does not match the population")
        total = float(running)
        if total <= 0.0:
            raise ValueError("Total of weights must be greater than zero")
        if total == float("inf") or total != total:
            raise ValueError("Total of weights must be finite")
        point = (self.next() >> 11) / 2**53 * total
        for element, bound in zip(population[:-1], cumulative):
            if point < bound:
                return element
        return population[-1]


def trial_keys(seed: int, count: int) -> list[int]:
    """The stream keys of trials ``0 .. count - 1`` of a simulation with
    ``seed``: the first ``count`` outputs of SplitMix64 seeded with it."""
    stream = TrialStream(seed)
    return [stream.next() for _ in range(count)]


def dict_trial_oracle(g: StochasticGame, strat, start, cap, key, weights):
    """One simulated play as a ``Trace``, walking the stochastic game's dict views.

    P1 plays ``strat`` (the smallest action where it is undefined); the
    adversary draws from her sorted actions on ``TrialStream(key)``,
    uniformly or by ``weights``, exactly as the simulator does.
    """
    rng = TrialStream(key)
    states = [start]
    actions = []
    state = start
    for _ in range(cap):
        if state in g.target:
            return Trace(tuple(states), tuple(actions), reached_target=True)
        if state in g.choice_actions:
            moves = g.choice_actions[state]
            action = strat.get(state)
            if action is None:
                action = min(moves)
            elif action not in moves:
                raise ValueError(f"strategy action {action!r} not available at {state!r}")
        else:
            moves = g.chance_actions[state]
            names = sorted(moves)
            if weights is None:
                action = names[rng.randrange(len(names))]
            else:
                action = rng.choices(names, weights)
        state = moves[action]
        actions.append(action)
        states.append(state)
    return Trace(tuple(states), tuple(actions), reached_target=state in g.target)


def exact_win_probability(rg, strat, start, cap, weights=None) -> float:
    """The probability that a trial from ``start`` reaches the target within
    ``cap`` moves, by ``cap`` rounds of backward value iteration on the
    restricted game's int graph.

    The target counts 1.  P1 follows ``strat`` (its smallest action where it
    is undefined); the adversary's value is the mean over her moves, or their
    mean weighted by ``weights`` of her sorted action names.
    """
    n = len(rg.states)
    plans = []  # per position: [(successor, probability)]
    for i in range(n):
        here = dict(zip(rg.names[i], rg.succ[i]))
        if rg.p1[i]:
            action = strat.get(rg.states[i], min(here) if here else None)
            plans.append([(here[action], 1.0)] if action is not None else [])
        else:
            order = sorted(here)
            w = [1.0] * len(order) if weights is None or len(order) < 2 else weights(list(order))
            plans.append([(here[a], x / sum(w)) for a, x in zip(order, w)])
    value = [float(t) for t in rg.at_target]
    for _ in range(cap):
        value = [
            1.0 if rg.at_target[i] else sum(p * value[j] for j, p in plans[i])
            for i in range(n)
        ]
    return value[rg.position(start)]


def recursive_verify_oracle(rg, strat, start, bound):
    """``(verified, counterexample states, counterexample actions, states
    explored)`` by the plain recursive depth-first search, in the same order
    as ``verify_sure``: P1 follows ``strat`` (the smallest action where it is
    undefined), the adversary's moves are tried in sorted order, and a state
    is settled once every play through it reached the target."""
    settled: set = set()
    explored = 0

    def explore(state, path, acts):
        nonlocal explored
        explored += 1
        if state in rg.target or state in settled:
            return None
        moves = rg.transitions[state]
        if state in path or len(path) >= bound or not moves:
            return (tuple(path + [state]), tuple(acts))
        if rg.owner[state] == 1:
            chosen = [strat.get(state, min(moves))]
        else:
            chosen = sorted(moves)
        for action in chosen:
            bad = explore(moves[action], path + [state], acts + [action])
            if bad is not None:
                return bad
        settled.add(state)
        return None

    bad = explore(start, [], [])
    if bad is None:
        return True, None, None, explored
    return False, bad[0], bad[1], explored


def eager_restricted_game_oracle(inp, dfa, win11, sr, reachable_only=True):
    """``(hts, restricted)`` built eagerly, as plain namespaces.

    The HTS enumerates all of ``S x Q x Q`` with an owner and a successor dict
    for every triple, then finds its reachable set by breadth-first search.
    The restricted game runs a second breadth-first search over the
    rationalizable moves and keeps the HTS states it found, in HTS order.
    """
    arena = inp.arena
    step1, step2 = {}, {}
    for s in arena.states:
        for q in dfa.states:
            step1[(q, s)] = dfa.delta[(q, arena.label(s, 1))]
            step2[(q, s)] = dfa.delta[(q, arena.label(s, 2))]
    states, owner, transitions = [], {}, {}
    for s in arena.states:
        for q in dfa.states:
            for p in dfa.states:
                v = (s, q, p)
                states.append(v)
                owner[v] = arena.owner[s]
                transitions[v] = {
                    a: (dst, step1[(q, dst)], step2[(p, dst)])
                    for a, dst in arena.transitions[s].items()
                }
    s0 = arena.initial
    initial = (s0, step1[(dfa.initial, s0)], step2[(dfa.initial, s0)])
    robust = {s for s in arena.states if all((s, q) in win11.win1 for q in dfa.states)}
    target = frozenset(v for v in states if v[0] in robust)

    def bfs(moves_of):
        seen = {initial}
        queue = deque([initial])
        while queue:
            for dst in moves_of(queue.popleft()).values():
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return seen

    hts = SimpleNamespace(
        states=tuple(states), owner=owner, transitions=transitions, initial=initial,
        target=target, reachable=frozenset(bfs(transitions.__getitem__)), robust_win=robust,
    )

    def kept(v):
        allowed = sr.owner_actions(v[0], v[2])
        return {a: dst for a, dst in transitions[v].items() if a in allowed}

    if reachable_only:
        seen = bfs(kept)
        rg_states = tuple(v for v in states if v in seen)
    else:
        rg_states = tuple(states)
    rg_transitions, removed = {}, {}
    for v in rg_states:
        rg_transitions[v] = kept(v)
        dropped = {a: dst for a, dst in transitions[v].items() if a not in rg_transitions[v]}
        if dropped:
            removed[v] = dropped
    restricted = SimpleNamespace(
        states=rg_states,
        owner={v: owner[v] for v in rg_states},
        transitions=rg_transitions,
        removed=removed,
        initial=initial,
        target=frozenset(v for v in rg_states if v in target),
    )
    return hts, restricted


def _json_order():
    """A sort key that orders report states as their ``json.dumps`` texts do.

    The key is that text itself, joined from the encodings of a state's
    components; one key encodes each distinct component once.  Components are
    memoised by value, which is exact because a report's states come from one
    arena, whose ids are distinct as dict keys, and one DFA.
    """
    encode_one = json.JSONEncoder(default=str).encode  # json.dumps(v, default=str)
    memo: dict = {}

    def encode(c):
        text = memo.get(c)
        if text is None:
            text = memo[c] = encode_one(c)
        return text

    def key(v):
        if isinstance(v, (tuple, list)):
            return "[" + ", ".join(map(encode, v)) + "]"
        return encode(v)

    return key


def _sorted_states(states, key) -> list:
    return sorted((list(v) if isinstance(v, tuple) else v for v in states), key=key)


def _rows(mapping, field: str, key) -> list[dict]:
    """A ``{field: value, "state": state}`` row per item of ``mapping``, sorted
    by the states' compact JSON texts."""
    rows = [
        {"state": list(v) if isinstance(v, tuple) else v, field: value}
        for v, value in mapping.items()
    ]
    return sorted(rows, key=lambda row: key(row["state"]))


def report_oracle(bundle, mode: str) -> dict:
    """A region mode's report as a dict, every array of states sorted by its
    states' compact JSON texts; ``json.dumps(..., indent=2, sort_keys=True)``
    of it is the report's text."""
    order = _json_order()

    def states(collection) -> list:
        return _sorted_states(collection, order)

    if mode == "perceptual":
        return {
            "mode": mode,
            "arena_level": {
                "true": {
                    "win1": states(bundle.arena_regions_true.win1),
                    "win2": states(bundle.arena_regions_true.win2),
                },
                "perceived": {
                    "win1": states(bundle.arena_regions_perceived.win1),
                    "win2": states(bundle.arena_regions_perceived.win2),
                },
            },
            "product_level": {
                "true": {
                    "win1": states(bundle.regions_true.win1),
                    "win2": states(bundle.regions_true.win2),
                },
                "perceived": {
                    "win1": states(bundle.regions_perceived.win1),
                    "win2": states(bundle.regions_perceived.win2),
                },
            },
        }
    if mode == "sure":
        return {
            "mode": mode,
            "target": states(bundle.restricted.target),
            "region": states(bundle.sure_regions.win1),
            "strategy": _rows(bundle.sure_strategy, "action", order),
        }
    if mode == "asw":
        return {
            "mode": mode,
            "x_star": states(bundle.asw.x_star),
            "level": _rows(bundle.asw.level, "level", order),
            "strategy": _rows(bundle.asw.strategy, "action", order),
        }
    raise ValueError(f"no report for mode {mode!r}")
