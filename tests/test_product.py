import random

import pytest

from hypergames.arena import HypergameInput
from hypergames.cli import synthesize
from hypergames.product import build_product
from hypergames.speclang import AlphabetError, Dfa, all_symbols, compile_to_dfa, parse_formula

from oracles import dict_attractor_oracle, successor_list_attractor
from randgen import oracle_cases, product_cases, random_arena, random_dfa


def test_full_space_and_target(running_bundle):
    p1 = running_bundle.product_true
    assert len(p1.states) == 8 * 2
    assert p1.target == {(s, "q1") for s in range(8)}
    assert p1.owner[(4, "q0")] == 2
    assert p1.owner[(5, "q1")] == 1


def test_initial_consumes_initial_label(running_bundle):
    # state 0 is unlabeled in both labelings, so the automaton stays at q0
    assert running_bundle.product_true.initial == (0, "q0")
    assert running_bundle.product_perceived.initial == (0, "q0")


def test_true_vs_perceived_updates(running_bundle):
    t1 = running_bundle.product_true.transitions
    t2 = running_bundle.product_perceived.transitions
    # entering 5 flips the automaton only under the true labeling
    assert t1[(4, "q0")]["4->5"] == (5, "q1")
    assert t2[(4, "q0")]["4->5"] == (5, "q0")
    # entering 2 flips it only under the perceived labeling
    assert t1[(1, "q0")]["1->2"] == (2, "q0")
    assert t2[(1, "q0")]["1->2"] == (2, "q1")


def test_alphabet_mismatch_rejected(running_input):
    d = compile_to_dfa(parse_formula("F x", {"x"}), {"x"})
    with pytest.raises(AlphabetError):
        build_product(running_input.arena, 1, d)


def test_which_validated(running_bundle):
    with pytest.raises(ValueError):
        build_product(running_bundle.inp.arena, 3, running_bundle.dfa)


@pytest.mark.parametrize("seed", range(5))
def test_product_transitions_mirror_arena(seed):
    rng = random.Random(seed)
    arena = random_arena(rng, max_states=12)
    d = random_dfa(rng, arena.ap)
    for which in (1, 2):
        prod = build_product(arena, which, d)
        assert len(prod.states) == len(arena.states) * len(d.states)
        for (s, q), moves in prod.transitions.items():
            assert set(moves) == set(arena.transitions[s])
            for a, (s2, q2) in moves.items():
                assert arena.transitions[s][a] == s2
                assert d.delta[(q, arena.label(s2, which))] == q2


@pytest.mark.parametrize("seed", range(5))
def test_views_match_eager_build(seed):
    rng = random.Random(seed)
    arena = random_arena(rng, max_states=12)
    d = random_dfa(rng, arena.ap)
    for which in (1, 2):
        prod = build_product(arena, which, d)
        states = [(s, q) for s in arena.states for q in d.states]
        step = {
            (q, s): d.delta[(q, arena.label(s, which))] for s in arena.states for q in d.states
        }
        assert prod.states == tuple(states)  # order included
        assert prod.owner == {(s, q): arena.owner[s] for s, q in states}
        assert prod.transitions == {
            (s, q): {a: (dst, step[(q, dst)]) for a, dst in arena.transitions[s].items()}
            for s, q in states
        }
        assert prod.target == {(s, q) for s, q in states if q in d.accepting}
        assert prod.initial == (arena.initial, step[(d.initial, arena.initial)])


def test_regions_and_true_strategy_match_dict_oracle(running_input):
    # the level lists kept by the product solves, decoded on read, against
    # the state-keyed worklist solver on the products' dict views
    for inp in product_cases(running_input):
        bundle = synthesize(inp)
        assert len(bundle.dfa.states) >= 3 or inp is running_input
        for prod, regions in (
            (bundle.product_true, bundle.regions_true),
            (bundle.product_perceived, bundle.regions_perceived),
        ):
            expected, strat1, _ = dict_attractor_oracle(prod, prod.target)
            assert regions.level == expected.level
            assert regions.win1 == expected.win1
            assert regions.win2 == expected.win2
            if prod is bundle.product_true:
                assert bundle.true_strategy == strat1


def test_rows_match_dfa_delta(running_input):
    for inp in product_cases(running_input):
        bundle = synthesize(inp)
        d, arena = bundle.dfa, inp.arena
        for prod in (bundle.product_true, bundle.product_perceived):
            for s, row in zip(arena.states, prod.rows):
                for k, q in enumerate(d.states):
                    assert d.states[row[k]] == d.delta[(q, arena.label(s, prod.which))]


def test_synthesize_builds_no_product_dicts():
    rng = random.Random(3)
    arena = random_arena(rng, max_states=300, min_states=300, ap=("a", "b", "c"))
    text = "F a & F b & F c"
    bundle = synthesize(HypergameInput(arena, parse_formula(text, arena.ap), text))
    assert len(bundle.dfa.states) == 8
    for prod in (bundle.product_true, bundle.product_perceived):
        # a cached view is stored in the instance dict on first access
        assert not {"states", "owner", "transitions", "target"} & set(vars(prod))


def _two_goal_dfa(ap) -> Dfa:
    """``F a | F b`` with one accepting state for each goal; the accepting
    states are listed first and last, around the one that is not."""
    states = ("qa", "q0", "qb")
    step = {}
    for symbol in all_symbols(ap):
        step[("q0", symbol)] = "qa" if "a" in symbol else "qb" if "b" in symbol else "q0"
        step[("qa", symbol)], step[("qb", symbol)] = "qa", "qb"
    return Dfa(frozenset(ap), states, all_symbols(ap), step, "q0", frozenset({"qa", "qb"}))


def _solved_products(running_input):
    """Products of every oracle case, and of random arenas with random DFAs
    and with the two-goal DFA, under both labelings."""
    for inp in oracle_cases(running_input):
        bundle = synthesize(inp)
        yield bundle.product_true
        yield bundle.product_perceived
    for seed in range(40):
        rng = random.Random(seed)
        arena = random_arena(rng, max_states=20)
        for d in (random_dfa(rng, arena.ap), _two_goal_dfa(arena.ap)):
            for which in (1, 2):
                yield build_product(arena, which, d)


def test_solve_matches_successor_list_kernel_and_dict_oracle(running_input):
    # the predecessor index built from the arena's predecessors and the rows,
    # without the edges out of S x F, gives the levels of the kernel that read
    # the full successor lists, and those of the state-keyed worklist solver
    accepting_counts = set()
    for prod in _solved_products(running_input):
        levels = prod.solve().levels
        where = {v: i for i, v in enumerate(prod.states)}
        succ = [[where[dst] for dst in prod.transitions[v].values()] for v in prod.states]
        p1 = bytes(prod.owner[v] == 1 for v in prod.states)
        seeds = [where[v] for v in prod.target]
        assert levels == successor_list_attractor(succ, p1, seeds)
        expected, _, _ = dict_attractor_oracle(prod, prod.target)
        assert levels == expected.levels
        accepting_counts.add(min(len(prod.dfa.accepting), 2))
        if len(prod.dfa.accepting) == len(prod.dfa.states):
            accepting_counts.add("all")
    assert accepting_counts == {0, 1, 2, "all"}
