import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergames.cli import synthesize
from hypergames.hypergame import build_hts, build_restricted_game
from hypergames.reachsolver import solve_reachability

from oracles import attractor_oracle, dict_attractor_oracle
from randgen import oracle_cases, random_arena


def test_running_example_true_target(running_input, running_bundle):
    arena = running_input.arena
    dfa = running_bundle.dfa
    target = {s for s in arena.states if dfa.delta[("q0", arena.label(s, 1))] == "q1"}
    assert target == {5}
    regions, strat1, strat2 = solve_reachability(arena, target)
    assert regions.win1 == {5, 6, 7}
    assert regions.win2 == {0, 1, 2, 3, 4}
    assert regions.level[5] == 0
    assert strat1[6] == "6->5"
    # P2 at 4 must avoid 5
    assert strat2[4] == "4->3"


def test_unknown_target_rejected(running_input):
    with pytest.raises(ValueError, match="unknown"):
        solve_reachability(running_input.arena, {99})


def test_target_already_winning(running_input):
    regions, strat1, _ = solve_reachability(
        running_input.arena, set(running_input.arena.states)
    )
    assert regions.win1 == set(running_input.arena.states)
    assert strat1 == {}


@given(seed=st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_matches_naive_fixed_point(seed):
    rng = random.Random(seed)
    arena = random_arena(rng, max_states=25)
    target = {s for s in arena.states if rng.random() < 0.2}
    regions, _, _ = solve_reachability(arena, target)
    assert regions.win1 == attractor_oracle(arena, target)
    assert regions.win1 | regions.win2 == set(arena.states)
    assert not regions.win1 & regions.win2


@given(seed=st.integers(0, 100_000))
@settings(max_examples=75, deadline=None)
def test_strategies_are_winning_and_spoiling(seed):
    rng = random.Random(seed)
    arena = random_arena(rng, max_states=20)
    target = {s for s in arena.states if rng.random() < 0.15}
    regions, strat1, strat2 = solve_reachability(arena, target)
    # P1's choice strictly decreases the attractor rank
    for s, a in strat1.items():
        dst = arena.transitions[s][a]
        assert dst in regions.win1
        assert regions.level[dst] < regions.level[s]
    # every P2 move from win1 stays in win1 (that is why the rank argument closes)
    for s in regions.win1 - target:
        if arena.owner[s] == 2:
            assert all(d in regions.win1 for d in arena.transitions[s].values())
    # P2's strategy never enters win1
    for s, a in strat2.items():
        assert arena.transitions[s][a] in regions.win2
    # and P1 has no escape from win2
    for s in regions.win2:
        if arena.owner[s] == 1:
            assert all(d in regions.win2 for d in arena.transitions[s].values())


def _assert_same_solution(game, target):
    regions, strat1, strat2 = solve_reachability(game, target)
    expected, exp1, exp2 = dict_attractor_oracle(game, target)
    assert regions.win1 == expected.win1
    assert regions.win2 == expected.win2
    assert regions.level == expected.level
    assert strat1 == exp1
    assert strat2 == exp2


class TestAgainstDictOracle:
    """The int kernel and its decode against the state-keyed worklist solver."""

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_random_arenas(self, seed):
        rng = random.Random(seed)
        arena = random_arena(rng, max_states=25)
        target = {s for s in arena.states if rng.random() < 0.2}
        _assert_same_solution(arena, target)

    def test_products(self, running_input):
        for inp in oracle_cases(running_input):
            bundle = synthesize(inp)
            for product in (bundle.product_true, bundle.product_perceived):
                _assert_same_solution(product, product.target)

    @pytest.mark.parametrize("reachable_only", [True, False])
    def test_restricted_games(self, running_input, reachable_only):
        for inp in oracle_cases(running_input):
            bundle = synthesize(inp)
            hts = build_hts(bundle.product_true, bundle.product_perceived, bundle.regions_true)
            rg = build_restricted_game(hts, bundle.sr, reachable_only=reachable_only)
            _assert_same_solution(rg, rg.target)

    def test_parallel_edges_and_dead_ends(self):
        # P2 at "b" has two actions into the target and must wait for both;
        # "c" (P2) and "d" (P1) have no moves and are never attracted.
        game = SimpleNamespace(
            states=("a", "b", "c", "d", "t"),
            owner={"a": 1, "b": 2, "c": 2, "d": 1, "t": 1},
            transitions={
                "a": {"x": "b", "y": "d"},
                "b": {"x": "t", "y": "t"},
                "c": {},
                "d": {},
                "t": {"x": "c"},
            },
        )
        _assert_same_solution(game, {"t"})
        regions, strat1, strat2 = solve_reachability(game, {"t"})
        assert regions.level == {"t": 0, "b": 1, "a": 2}
        assert strat1 == {"a": "x"}
        assert strat2 == {}

    def test_unknown_product_target_rejected(self, running_bundle):
        product = running_bundle.product_true
        for bad in ((99, "q0"), (0, "q9"), 0, (0, "q0", "q0"), [0, "q0"]):
            with pytest.raises(ValueError, match="unknown"):
                solve_reachability(product, [bad])
