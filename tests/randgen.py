"""Random instance generators for the property suites."""

from __future__ import annotations

import random
from math import prod

from hypergames.arena import Arena, HypergameInput
from hypergames.speclang import (
    TOP,
    BOTTOM,
    And,
    Atom,
    Dfa,
    Eventually,
    Formula,
    Next,
    NotAtom,
    Or,
    Until,
    all_symbols,
    parse_formula,
)


def random_arena(
    rng: random.Random,
    max_states: int = 50,
    max_branch: int = 4,
    ap: tuple[str, ...] = ("a", "b"),
    min_states: int = 2,
) -> Arena:
    n = rng.randint(min_states, max_states)
    states = tuple(range(n))
    owner = {s: rng.choice((1, 2)) for s in states}
    transitions: dict = {}
    for s in states:
        k = rng.randint(1, max_branch)
        dests = rng.sample(states, min(k, n))
        transitions[s] = {f"{s}->{d}": d for d in dests}
    props = frozenset(ap)

    def labeling() -> dict:
        out = {}
        for s in states:
            if rng.random() < 0.35:
                chosen = frozenset(p for p in ap if rng.random() < 0.6)
                if chosen:
                    out[s] = chosen
        return out

    return Arena(
        states=states,
        owner=owner,
        transitions=transitions,
        initial=0,
        ap=props,
        label_true=labeling(),
        label_perceived=labeling(),
    )


def random_dfa(rng: random.Random, ap, max_states: int = 5) -> Dfa:
    """A random total DFA over 2^AP whose accepting states are absorbing."""
    ap = frozenset(ap)
    nq = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(nq))
    accepting = frozenset(q for q in states if rng.random() < 0.3)
    alphabet = all_symbols(ap)
    delta = {}
    acc = sorted(accepting)
    for q in states:
        for sigma in alphabet:
            pool = acc if q in accepting else states
            delta[(q, sigma)] = rng.choice(pool)
    return Dfa(
        ap=ap,
        states=states,
        alphabet=alphabet,
        delta=delta,
        initial="q0",
        accepting=accepting,
    )


def random_formula(rng: random.Random, ap: tuple[str, ...], depth: int = 3) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            return Atom(rng.choice(ap))
        if kind == 1:
            return NotAtom(rng.choice(ap))
        return TOP if kind == 2 else BOTTOM
    kind = rng.randrange(5)
    if kind == 0:
        return And((random_formula(rng, ap, depth - 1), random_formula(rng, ap, depth - 1)))
    if kind == 1:
        return Or((random_formula(rng, ap, depth - 1), random_formula(rng, ap, depth - 1)))
    if kind == 2:
        return Next(random_formula(rng, ap, depth - 1))
    if kind == 3:
        return Until(random_formula(rng, ap, depth - 1), random_formula(rng, ap, depth - 1))
    return Eventually(random_formula(rng, ap, depth - 1))


_SMALL_OBJECTIVES = ("F a", "b U a", "F (a & b)", "X F a", "F a & F b", "a | F b")


def small_hypergame_input(rng: random.Random) -> HypergameInput:
    """A hypergame instance small enough for the enumeration oracle.

    Keeps resampling until the reachable restricted fragment has at most 12
    states and the number of pure memoryless P1 strategies on it is at most
    512.
    """
    from hypergames.cli import synthesize

    while True:
        arena = random_arena(rng, max_states=5, max_branch=3, ap=("a", "b"))
        text = rng.choice(_SMALL_OBJECTIVES)
        inp = HypergameInput(
            arena=arena, objective=parse_formula(text, arena.ap), objective_text=text
        )
        bundle = synthesize(inp)
        g = bundle.stochastic
        if len(g.states) > 12:
            continue
        if prod((len(moves) for moves in g.choice_actions.values()), start=1) > 512:
            continue
        return inp


def corridor_input(n: int) -> HypergameInput:
    """A corridor of ``n`` (even) states alternating P1/P2, plus a trap sink.

    Position 0 is the initial state and position ``n - 1`` the goal, which
    carries the true ``a`` and loops on itself.  Every P2 position but the
    goal may also escape to the trap (state ``n``), which carries the
    perceived ``a`` only.  Escaping looks irrational to P2, so P1 wins ``F a``
    only by deception: the restricted game is the ``n``-state chain, its
    target the last two positions and its ASW levels ``n - 1``.
    """
    trap, goal = n, n - 1
    owner = {i: 1 if i % 2 == 0 else 2 for i in range(n - 1)}
    owner[goal], owner[trap] = 2, 1
    transitions: dict = {}
    for i in range(n - 1):
        transitions[i] = {f"{i}->{i + 1}": i + 1}
        if owner[i] == 2:
            transitions[i][f"{i}->{trap}"] = trap
    transitions[goal] = {f"{goal}->{goal}": goal}
    transitions[trap] = {f"{trap}->{trap}": trap}
    arena = Arena(
        states=tuple(range(n + 1)),
        owner=owner,
        transitions=transitions,
        initial=0,
        ap=frozenset({"a"}),
        label_true={goal: frozenset({"a"})},
        label_perceived={trap: frozenset({"a"})},
    )
    return HypergameInput(arena=arena, objective=parse_formula("F a", arena.ap), objective_text="F a")


def oracle_cases(running_input: HypergameInput):
    """The running example, 60 ``small_hypergame_input`` seeds and a 200-state corridor."""
    yield running_input
    for seed in range(60):
        yield small_hypergame_input(random.Random(seed))
    yield corridor_input(200)


def product_cases(running_input: HypergameInput):
    """The running example and 20 random arenas with ``F a & F b`` (|Q| = 4)."""
    yield running_input
    for seed in range(20):
        arena = random_arena(random.Random(seed), max_states=30)
        text = "F a & F b"
        yield HypergameInput(arena, parse_formula(text, arena.ap), text)
