"""End-to-end acceptance gate.

Each test prints exactly one ``[criterion N] PASS/FAIL`` line; run with
``pytest -s tests/test_acceptance.py`` to see them inline.
"""

import itertools
import random
import time

import pytest

from hypergames.arena import HypergameInput, load_arena_file
from hypergames.cli import synthesize
from hypergames.hypergame import (
    build_hts,
    build_restricted_game,
    build_sr_map,
    solve_deceptive_sure,
)
from hypergames.product import build_product
from hypergames.reachsolver import solve_reachability
from hypergames.simulate import simulate_asw, verify_sure
from hypergames.speclang import accepts, all_symbols, compile_to_dfa, parse_formula

from conftest import SCENARIO
from oracles import asw_oracle, sat
from randgen import random_arena, random_dfa, random_formula, small_hypergame_input

GOLDEN_SURE = {
    (5, "q1", "q0"),
    (6, "q1", "q0"),
    (7, "q1", "q0"),
    (4, "q1", "q0"),
    (4, "q0", "q0"),
}

GOLDEN_LEVEL_DELTAS = [
    {(5, "q1", "q0"), (6, "q1", "q0"), (7, "q1", "q0")},
    {(4, "q1", "q0"), (4, "q0", "q0")},
    {(1, "q0", "q0")},
    {(0, "q0", "q0")},
]


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def suite4_bundles():
    bundles = []
    for seed in range(200):
        rng = random.Random(1000 + seed)
        arena = random_arena(rng, max_states=50, max_branch=4)
        dfa = random_dfa(rng, arena.ap, max_states=5)
        bundles.append(synthesize(HypergameInput(arena=arena, objective=dfa)))
    return bundles


@pytest.fixture(scope="module")
def suite5_bundles():
    bundles = []
    for seed in range(50):
        rng = random.Random(2000 + seed)
        bundles.append(synthesize(small_hypergame_input(rng)))
    return bundles


def test_criterion_1_golden_perceptual_solve():
    started = time.perf_counter()
    inp = load_arena_file(SCENARIO)
    arena = inp.arena
    dfa = compile_to_dfa(inp.objective, arena.ap)
    regions = {}
    for which in (1, 2):
        target = {
            s
            for s in arena.states
            if dfa.delta[(dfa.initial, arena.label(s, which))] in dfa.accepting
        }
        regions[which], _, _ = solve_reachability(arena, target)
    elapsed = time.perf_counter() - started
    ok = (
        regions[1].win1 == {5, 6, 7}
        and regions[1].win2 == {0, 1, 2, 3, 4}
        and regions[2].win1 == {2, 3}
        and regions[2].win2 == {0, 1, 4, 5, 6, 7}
        and elapsed < 1.0
    )
    _report(1, ok, f"({elapsed * 1000:.1f} ms)")


def test_criterion_2_golden_sure_region(running_bundle):
    ok = running_bundle.sure_regions.win1 == GOLDEN_SURE
    _report(2, ok, f"region={sorted(running_bundle.sure_regions.win1)}")


def test_criterion_3_golden_asw_levels(running_bundle):
    levels = running_bundle.asw.levels
    expected = set()
    ok = len(levels) == 4
    for i, delta in enumerate(GOLDEN_LEVEL_DELTAS):
        expected |= delta
        ok = ok and i < len(levels) and levels[i] == expected
    ok = ok and running_bundle.asw.x_star == expected
    _report(3, ok, f"{len(levels)} levels, |X*|={len(running_bundle.asw.x_star)}")


def test_criterion_4_determinacy_partition(suite4_bundles):
    violations = 0
    for bundle in suite4_bundles:
        for prod in (bundle.product_true, bundle.product_perceived):
            regions = (
                bundle.regions_true
                if prod is bundle.product_true
                else bundle.regions_perceived
            )
            full = set(prod.states)
            if regions.win1 | regions.win2 != full or regions.win1 & regions.win2:
                violations += 1
    _report(4, violations == 0, f"{len(suite4_bundles)} arenas, {violations} violations")


def test_criterion_5_asw_oracle_equivalence(suite5_bundles):
    started = time.perf_counter()
    mismatches = sum(
        1 for b in suite5_bundles if b.asw.x_star != asw_oracle(b.stochastic)
    )
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(5, ok, f"{len(suite5_bundles)} instances, {mismatches} mismatches, {elapsed:.1f} s")


def test_criterion_6_sure_verification(running_bundle):
    rg = running_bundle.restricted
    bound = len(running_bundle.restricted.states)
    ok = all(
        verify_sure(rg, running_bundle.sure_strategy, v, bound=bound).verified
        for v in running_bundle.sure_regions.win1
    )
    outside = verify_sure(rg, running_bundle.sure_strategy, (1, "q0", "q0"), bound=bound)
    ok = ok and not outside.verified and outside.counterexample is not None
    _report(6, ok, f"bound={bound}")


def test_criterion_7_simulation_and_stealth(running_bundle):
    g = running_bundle.stochastic
    worst = 1.0
    violations = 0
    reproducible = True
    for start in sorted(running_bundle.asw.x_star, key=repr):
        kwargs = dict(trials=10_000, cap=800, seed=12345, sr=running_bundle.sr)
        stats = simulate_asw(g, running_bundle.asw.strategy, start, **kwargs)
        again = simulate_asw(g, running_bundle.asw.strategy, start, **kwargs)
        reproducible = reproducible and stats == again
        worst = min(worst, stats.win_rate)
        violations += stats.stealth_violations
    ok = worst >= 0.999 and violations == 0 and reproducible
    _report(7, ok, f"worst win rate {worst:.4f}, {violations} stealth violations")


def test_criterion_8_compiler_oracle():
    ap = ("a", "b", "c")
    symbols = all_symbols(ap)
    words = [
        list(w)
        for length in range(5)
        for w in itertools.product(symbols, repeat=length)
    ]
    mismatches = 0
    for seed in range(20):
        f = random_formula(random.Random(3000 + seed), ap, depth=3)
        dfa = compile_to_dfa(f, ap)
        for w in words:
            if accepts(dfa, w) != sat(f, w):
                mismatches += 1
    _report(8, mismatches == 0, f"20 formulas x {len(words)} words, {mismatches} mismatches")


def test_criterion_9_containment(suite4_bundles, suite5_bundles):
    violations = 0
    for bundle in suite4_bundles + suite5_bundles:
        sure = bundle.sure_regions.win1
        if not bundle.restricted.target <= sure:
            violations += 1
        if not sure <= bundle.asw.x_star:
            violations += 1
    _report(9, violations == 0, f"{len(suite4_bundles) + len(suite5_bundles)} instances")


def test_criterion_10_scaling():
    rng = random.Random(77)
    arena = random_arena(rng, max_states=10_000, min_states=10_000, max_branch=4, ap=("a",))
    objective = parse_formula("F a", arena.ap)
    inp = HypergameInput(arena=arena, objective=objective, objective_text="F a")
    started = time.perf_counter()
    dfa = compile_to_dfa(objective, arena.ap)
    assert len(dfa.states) == 2
    product_true = build_product(arena, 1, dfa)
    product_perceived = build_product(arena, 2, dfa)
    regions_true, _, _ = solve_reachability(product_true, product_true.target)
    regions_perceived, _, _ = solve_reachability(
        product_perceived, product_perceived.target
    )
    hts = build_hts(product_true, product_perceived, regions_true)
    sr = build_sr_map(product_perceived, regions_perceived)
    restricted = build_restricted_game(hts, sr)
    regions, strategy = solve_deceptive_sure(restricted)
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0 and len(hts.states) == 40_000
    _report(10, ok, f"|S|=10000, sure synthesis in {elapsed:.2f} s, |win|={len(regions.win1)}")
