"""Checks of the program's outputs against computations made apart from it.

Each function returns a list of problems; an empty list means the outputs
passed.  The attractor oracle of the test suite, a naive fixed point, stands
in for the worklist solver; pruning, X* and the strategies are checked
against the game's own definitions rather than against stored outputs.
"""

from __future__ import annotations

import json
from collections import deque

from oracles import attractor_oracle


def _rational(product, regions, state, action) -> bool:
    """Whether ``action`` is subjectively rationalizable for the owner of L2-product ``state``."""
    win = regions.win1 if product.owner[state] == 1 else regions.win2
    return state not in win or product.transitions[state][action] in win


def restricted_shape(bundle) -> dict:
    rg = bundle.restricted
    return {
        "restricted_states": len(rg.states),
        "target": len(rg.target),
        "pruned_edges": sum(len(moves) for moves in rg.removed.values()),
        "sure_region": len(bundle.sure_regions.win1),
        "sure_depth": max(bundle.sure_regions.level.values()),
        "x_star": len(bundle.asw.x_star),
        "asw_levels": len(bundle.asw.levels),
    }


def check_products(bundle) -> list[str]:
    """Product regions partition S x Q and agree with the naive attractor."""
    problems = []
    arena, dfa = bundle.inp.arena, bundle.dfa
    space = {(s, q) for s in arena.states for q in dfa.states}
    for name, product, regions in (
        ("true", bundle.product_true, bundle.regions_true),
        ("perceived", bundle.product_perceived, bundle.regions_perceived),
    ):
        if set(product.states) != space:
            problems.append(f"{name} product does not span S x Q")
        if regions.win1 & regions.win2 or regions.win1 | regions.win2 != space:
            problems.append(f"{name} product regions do not partition S x Q")
        if attractor_oracle(product, product.target) != regions.win1:
            problems.append(f"{name} product win1 differs from the attractor oracle")
    return problems


def check_restricted(bundle) -> list[str]:
    """Pruning, sure region, X* and both strategies, checked from their definitions."""
    problems = []
    rg, asw = bundle.restricted, bundle.asw
    p2, r2 = bundle.product_perceived, bundle.regions_perceived
    states = set(rg.states)
    for v in rg.states:
        s, _q, p = v
        full = bundle.hts.transitions[v]
        keep = {a for a in full if _rational(p2, r2, (s, p), a)}
        if set(rg.transitions[v]) != keep or set(rg.removed.get(v, {})) != set(full) - keep:
            problems.append(f"restricted moves at {v!r} are not the rationalizable ones")
            break
    sure = bundle.sure_regions.win1
    if not (rg.target <= sure <= asw.x_star <= states):
        problems.append("target <= sure region <= X* <= restricted states does not hold")
    if rg.initial in rg.target or rg.initial not in asw.x_star:
        problems.append("the initial state is not in X* outside the target")
    for name, strategy in (("sure", bundle.sure_strategy), ("asw", asw.strategy)):
        for v, a in strategy.items():
            if rg.owner[v] != 1 or a not in rg.transitions[v]:
                problems.append(f"{name} strategy plays {a!r} at {v!r}, not a P1 restricted move")
                break
    x = asw.x_star
    succ_under_strategy: dict = {}
    for v in x - rg.target:
        moves = rg.transitions[v]
        if rg.owner[v] == 2:
            if not set(moves.values()) <= x:
                problems.append(f"X* is not closed at chance state {v!r}")
                break
            succ_under_strategy[v] = list(moves.values())
        else:
            if not any(d in x for d in moves.values()):
                problems.append(f"X* choice state {v!r} has no action into X*")
                break
            a = asw.strategy.get(v)
            if a is None or moves.get(a) not in x:
                problems.append(f"ASW strategy at {v!r} does not stay in X*")
                break
            succ_under_strategy[v] = [moves[a]]
    preds: dict = {}
    for v, ds in succ_under_strategy.items():
        for d in ds:
            preds.setdefault(d, []).append(v)
    reached = set(rg.target & x)
    queue = deque(reached)
    while queue:
        for v in preds.get(queue.popleft(), ()):
            if v not in reached:
                reached.add(v)
                queue.append(v)
    if reached != set(x):
        problems.append(f"{len(x) - len(reached)} X* states cannot reach the target under the ASW strategy")
    return problems


def almost_sure_oracle(rg) -> tuple[frozenset, int]:
    """X* of the restricted game by a naive nested fixed point, with the
    number of level sets of its last inner loop.

    Inner loop: from the target inside ``x``, add in each sweep every state
    of ``x`` that steps into the current set, a P1 state by some move and a
    P2 state by some move while all her moves stay in ``x``.  Outer loop:
    ``x`` becomes the inner fixed point until it no longer shrinks.
    """
    x = set(rg.states)
    while True:
        y = set(rg.target) & x
        levels = 1
        while True:
            added = set()
            for v in x - y:
                succs = list(rg.transitions[v].values())
                if rg.owner[v] == 1:
                    ok = any(d in y for d in succs)
                else:
                    ok = all(d in x for d in succs) and any(d in y for d in succs)
                if ok:
                    added.add(v)
            if not added:
                break
            y |= added
            levels += 1
        if y == x:
            return frozenset(x), levels
        x = y


def check_random(bundle, max_hts_share: float = 1.0) -> list[str]:
    """The checks of every workload, both oracles, and the workload's shape:
    some edge pruned, and at most ``max_hts_share`` of S x Q x Q reachable in
    the HTS."""
    problems = check_products(bundle) + check_restricted(bundle)
    rg = bundle.restricted
    if attractor_oracle(rg, rg.target) != bundle.sure_regions.win1:
        problems.append("sure region differs from the attractor oracle")
    x_star, levels = almost_sure_oracle(rg)
    if x_star != bundle.asw.x_star:
        problems.append(f"X* has {len(bundle.asw.x_star)} states, the nested fixed point "
                        f"{len(x_star)}")
    if levels != len(bundle.asw.levels):
        problems.append(f"ASW has {len(bundle.asw.levels)} level sets, the nested fixed point "
                        f"{levels}")
    if not rg.removed:
        problems.append("no edge was pruned")
    space = len(bundle.inp.arena.states) * len(bundle.dfa.states) ** 2
    if len(bundle.hts.reachable) > max_hts_share * space:
        problems.append(f"{len(bundle.hts.reachable)} of {space} HTS states are reachable")
    return problems


def check_corridor(bundle, n: int) -> list[str]:
    """The closed forms a corridor of ``n`` states has by construction."""
    problems = check_restricted(bundle)
    expected = {
        "restricted_states": n,
        "target": 2,
        "pruned_edges": n // 2 - 1,
        "sure_region": n,
        "sure_depth": n - 2,
        "x_star": n,
        "asw_levels": n - 1,
    }
    got = restricted_shape(bundle)
    for key, want in expected.items():
        if got[key] != want:
            problems.append(f"corridor {key} is {got[key]}, expected {want}")
    return problems


def check_cli_report(path, bundle) -> list[str]:
    """The CLI's sure report holds the library's target, region and strategy."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)

    def states(rows):
        return {tuple(v) for v in rows}

    problems = []
    if states(report["target"]) != bundle.restricted.target:
        problems.append("CLI target differs from the library result")
    if states(report["region"]) != bundle.sure_regions.win1:
        problems.append("CLI sure region differs from the library result")
    strategy = {tuple(row["state"]): row["action"] for row in report["strategy"]}
    if strategy != bundle.sure_strategy:
        problems.append("CLI sure strategy differs from the library result")
    return problems


def check_verify(outcome, bundle, start) -> list[str]:
    """``verify_sure`` accepts exactly the sure region, with a real play as counterexample."""
    rg = bundle.restricted
    if outcome.verified != (start in bundle.sure_regions.win1):
        return [f"verify_sure says {outcome.verified} at {start!r}"]
    trace = outcome.counterexample
    if trace is None:
        return []
    if trace.states[0] != start or any(v in rg.target for v in trace.states):
        return ["counterexample does not start at the start state or enters the target"]
    for v, a, d in zip(trace.states, trace.actions, trace.states[1:]):
        if rg.transitions[v].get(a) != d:
            return [f"counterexample step {v!r} --{a}--> {d!r} is not a restricted move"]
    return []


def check_simulation(stats) -> list[str]:
    if stats.wins < 0.99 * stats.trials or stats.stealth_violations:
        return [f"simulation won {stats.wins}/{stats.trials} with "
                f"{stats.stealth_violations} stealth violations"]
    return []
