import random

import pytest

from hypergames import almostsure
from hypergames.almostsure import build_stochastic_game, pre_step, solve_asw
from hypergames.arena import Arena, HypergameInput
from hypergames.cli import synthesize
from hypergames.reachsolver import _attractor
from hypergames.simulate import _walker, audit_stealth, simulate_asw
from hypergames.speclang import parse_formula

from oracles import (
    asw_oracle,
    dict_attractor_oracle,
    dict_trial_oracle,
    nested_fixed_point_oracle,
    trial_keys,
)
from randgen import corridor_input, random_arena, random_dfa, small_hypergame_input

GOLDEN_LEVELS = [
    {(5, "q1", "q0"), (6, "q1", "q0"), (7, "q1", "q0")},
    {(4, "q1", "q0"), (4, "q0", "q0")},
    {(1, "q0", "q0")},
    {(0, "q0", "q0")},
]


class TestStochasticGame:
    def test_partition_of_fragment(self, running_bundle):
        g = running_bundle.stochastic
        assert set(g.choice_actions) | set(g.chance_actions) | set(g.target) == set(
            g.states
        )
        assert not set(g.choice_actions) & set(g.chance_actions)
        assert not (set(g.choice_actions) | set(g.chance_actions)) & g.target

    def test_target_absorbing_support(self, running_bundle):
        g = running_bundle.stochastic
        for v in g.target:
            assert g.support[v] == {v}

    def test_built_from_restricted_game(self, running_bundle):
        rg = running_bundle.restricted
        g = build_stochastic_game(rg)
        assert g.states == rg.states and g.target == rg.target
        for v, moves in {**g.choice_actions, **g.chance_actions}.items():
            assert moves is rg.transitions[v]

    def test_chance_support_matches_rationalizable_moves(self, running_bundle):
        g = running_bundle.stochastic
        v = (1, "q0", "q0")
        assert set(g.chance_actions[v]) == {"1->0", "1->4"}
        assert g.support[v] == {(0, "q0", "q0"), (4, "q0", "q0")}


class TestPreStep:
    def test_choice_needs_one_edge_into_y(self, running_bundle):
        g = running_bundle.stochastic
        x = set(g.states)
        # (0,q0,q0) is the only non-target choice state; its single edge goes
        # to (1,q0,q0)
        assert (0, "q0", "q0") in pre_step({(1, "q0", "q0")}, x, g)
        assert (0, "q0", "q0") not in pre_step({(4, "q0", "q0")}, x, g)

    def test_chance_states_flow_through_support(self, running_bundle):
        g = running_bundle.stochastic
        x = set(g.states)
        out = pre_step({(5, "q1", "q0")}, x, g)
        # both 4-states have 4->5 as their only rationalizable move
        assert (4, "q1", "q0") in out and (4, "q0", "q0") in out

    def test_chance_needs_support_inside_x(self, running_bundle):
        g = running_bundle.stochastic
        v = (1, "q0", "q0")
        y = {(4, "q0", "q0")}
        assert v in pre_step(y, set(g.states), g)
        # shrinking X below the support kills the move
        assert v not in pre_step(y, y | {v}, g)


class TestSolveAsw:
    def test_golden_levels(self, running_bundle):
        levels = running_bundle.asw.levels
        assert len(levels) == 4
        expected = set()
        for i, delta in enumerate(GOLDEN_LEVELS):
            expected |= delta
            assert levels[i] == expected

    def test_x_star_is_whole_fragment(self, running_bundle):
        assert running_bundle.asw.x_star == set(running_bundle.stochastic.states)

    def test_strategy(self, running_bundle):
        # the only non-target choice state below the top level is the initial one
        assert running_bundle.asw.strategy == {(0, "q0", "q0"): "0->1"}

    def test_strategy_descends_levels(self, running_bundle):
        levels = running_bundle.asw.levels
        g = running_bundle.stochastic
        for v, a in running_bundle.asw.strategy.items():
            rank = min(i for i, lv in enumerate(levels) if v in lv)
            dst = g.choice_actions[v][a]
            assert dst in levels[rank - 1]

    def test_level_index_derives_levels(self, running_bundle):
        asw = running_bundle.asw
        assert set(asw.level) == asw.x_star
        for v, i in asw.level.items():
            assert v in asw.levels[i] and (i == 0 or v not in asw.levels[i - 1])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_oracle(self, seed, running_bundle):
        rng = random.Random(seed)
        inp = small_hypergame_input(rng)
        bundle = synthesize(inp)
        assert bundle.asw.x_star == asw_oracle(bundle.stochastic)

    def test_oracle_agrees_on_running_example(self, running_bundle):
        assert asw_oracle(running_bundle.stochastic) == running_bundle.asw.x_star


def _suite4_games(full_space=False):
    for seed in range(200):
        rng = random.Random(1000 + seed)
        arena = random_arena(rng, max_states=50, max_branch=4)
        dfa = random_dfa(rng, arena.ap, max_states=5)
        inp = HypergameInput(arena=arena, objective=dfa)
        yield synthesize(inp, full_space=full_space).stochastic


def _small_games(full_space=False):
    for seed in [*range(8), *range(2000, 2050)]:
        inp = small_hypergame_input(random.Random(seed))
        yield synthesize(inp, full_space=full_space).stochastic


class TestAgainstNestedFixedPoint:
    """The linear solve gives exactly what the nested fixed point gives."""

    @pytest.mark.parametrize("games", [_suite4_games, _small_games])
    def test_same_region_levels_and_strategy(self, games):
        self._compare(games())

    @pytest.mark.parametrize("games", [_suite4_games, _small_games])
    def test_same_on_full_space(self, games):
        self._compare(games(full_space=True))

    @staticmethod
    def _compare(stochastic_games):
        compared = 0
        for g in stochastic_games:
            x_star, levels, strategy = nested_fixed_point_oracle(g)
            asw = solve_asw(g)
            assert asw.x_star == x_star
            assert asw.levels == levels
            assert asw.strategy == strategy
            compared += 1
        assert compared >= 50

    def test_long_chain_has_one_level_per_step(self):
        # P1/P2 corridor of n states: the target is its last two states, so
        # the backward search takes n - 2 layers above it
        n = 4000
        g = synthesize(corridor_input(n)).stochastic
        asw = solve_asw(g)
        assert len(g.states) == n and len(g.target) == 2
        assert asw.x_star == set(g.states)
        assert sorted(set(asw.level.values())) == list(range(n - 1))
        assert len(asw.strategy) == n // 2 - 1

    def test_drop_chain_takes_two_rounds(self, monkeypatch):
        # One drop pass removes the whole chain, however long: the solve runs
        # a round, a drop pass and a round, not one round per chain state.
        n = 2000
        g = synthesize(_drop_chain_input(n)).stochastic
        assert len(g.states) == n + 2
        calls = []

        def counted(*args):
            calls.append(args)
            return _attractor(*args)

        monkeypatch.setattr(almostsure, "_attractor", counted)
        asw = solve_asw(g)
        targets = sorted(g.restricted.position(v) for v in g.target)
        rounds = [args for args in calls if args[2] == targets]  # a round seeds the target
        assert len(rounds) == 2 and len(calls) == 3
        assert asw.x_star == g.target and len(g.target) == 1
        assert (asw.x_star, asw.levels, asw.strategy) == nested_fixed_point_oracle(g)


def _count_kernel_calls(monkeypatch) -> list:
    """The arguments of every later kernel call of the almost-sure solve."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _attractor(*args)

    monkeypatch.setattr(almostsure, "_attractor", counted)
    return calls


def _edge_input(owner, transitions, label_true, label_perceived):
    states = tuple(sorted(owner))
    arena = Arena(
        states=states,
        owner=owner,
        transitions=transitions,
        initial=states[0],
        ap=frozenset({"a"}),
        label_true={s: frozenset({"a"}) for s in label_true},
        label_perceived={s: frozenset({"a"}) for s in label_perceived},
    )
    return HypergameInput(arena, parse_formula("F a", arena.ap), "F a")


def _dead_end_input():
    # 2 (P1) and 3 (P2) have no moves and lie outside the target {6}.  P1
    # perceives himself as losing at 0, so every move there looks rational;
    # the adversary perceives entering 4 as his win, so she plays 1->3.
    return _edge_input(
        owner={0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1},
        transitions={
            0: {"0->1": 1, "0->2": 2, "0->5": 5},
            1: {"1->3": 3, "1->4": 4},
            2: {},
            3: {},
            4: {"4->6": 6},
            5: {"5->6": 6, "5->0": 0},
            6: {"6->6": 6},
        },
        label_true={6},
        label_perceived={4},
    )


def _all_target_input():
    # every arena state is truly labelled a, so every triple is in the target
    return _edge_input(
        owner={0: 1, 1: 2},
        transitions={0: {"0->1": 1}, 1: {"1->0": 0, "1->1": 1}},
        label_true={0, 1},
        label_perceived=set(),
    )


def _drop_chain_input(n):
    # Adversary states 0..n-1, each moving to the next or to the goal n; the
    # last moves to the goal or to the trap n + 1, which loops on itself.  The
    # adversary perceives both the goal and the trap as P1's win, so every
    # move looks rational to her, and no state but the goal wins almost surely.
    goal, trap = n, n + 1
    owner = {i: 2 for i in range(n)}
    owner[goal] = owner[trap] = 1
    transitions = {i: {f"{i}->{i + 1}": i + 1, f"{i}->{goal}": goal} for i in range(n - 1)}
    transitions[n - 1] = {f"{n - 1}->{trap}": trap, f"{n - 1}->{goal}": goal}
    transitions[goal] = {f"{goal}->{goal}": goal}
    transitions[trap] = {f"{trap}->{trap}": trap}
    return _edge_input(owner, transitions, label_true={goal}, label_perceived={goal, trap})


def _target_exit_input():
    # The adversary at 2 is the target: its one move enters 3, labelled a, so
    # the true objective holds however the play arrived.  3 leads only to the
    # trap 4, which the first round misses.  The adversary's states 0 and 1
    # each move to 2 or to the other, so both reach 2 almost surely; every
    # state is labelled a in her perception, so every move looks rational.
    return _edge_input(
        owner={0: 2, 1: 2, 2: 2, 3: 1, 4: 1},
        transitions={
            0: {"0->2": 2, "0->1": 1},
            1: {"1->2": 2, "1->0": 0},
            2: {"2->3": 3},
            3: {"3->4": 4},
            4: {"4->4": 4},
        },
        label_true={3},
        label_perceived={0, 1, 2, 3, 4},
    )


def _late_drop_input():
    # 9 is the goal and 10 the trap.  The first round misses the trap, and the
    # drop pass removes the adversary's 3, which may enter it.  The second
    # round then misses 4 and 5, which reached the goal only through 3, and
    # the second drop pass removes the adversary's 6, which may enter 4, and
    # P1's 1, whose moves lead to 3 and 6.  P1's 2 keeps its move to the
    # adversary's 7, which with 8 reaches the goal almost surely, so 2 stays
    # although its other move leads to 3, dropped a round before.
    return _edge_input(
        owner={0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2, 9: 1, 10: 1},
        transitions={
            0: {"0->1": 1, "0->2": 2},
            1: {"1->3": 3, "1->6": 6},
            2: {"2->3": 3, "2->7": 7},
            3: {"3->9": 9, "3->10": 10},
            4: {"4->3": 3, "4->5": 5},
            5: {"5->4": 4},
            6: {"6->9": 9, "6->4": 4},
            7: {"7->9": 9, "7->8": 8},
            8: {"8->9": 9, "8->7": 7},
            9: {"9->9": 9},
            10: {"10->10": 10},
        },
        label_true={9},
        label_perceived=set(range(11)),
    )


class TestEdgeGraphs:
    """Dead ends outside the target, and a fragment that is all target."""

    @pytest.mark.parametrize("full_space", [False, True])
    def test_dead_ends_match_oracles(self, full_space):
        bundle = synthesize(_dead_end_input(), full_space=full_space)
        rg, g = bundle.restricted, bundle.stochastic
        dead = [v for v in rg.states if not rg.transitions[v] and v not in rg.target]
        assert {rg.owner[v] for v in dead} == {1, 2}
        regions, strat1, _ = dict_attractor_oracle(rg, rg.target)
        assert bundle.sure_regions == regions
        assert bundle.sure_strategy == strat1
        x_star, levels, strategy = nested_fixed_point_oracle(g)
        assert bundle.asw.x_star == x_star and bundle.asw.levels == levels
        assert bundle.asw.strategy == strategy
        assert not set(dead) & bundle.asw.x_star
        for weights in (None, lambda names: [1.0] * len(names)):
            walk = _walker(rg, bundle.asw.strategy, bundle.sr, weights)
            (key,) = trial_keys(0, 1)
            for v in rg.states:
                try:
                    expected = dict_trial_oracle(g, bundle.asw.strategy, v, 10, key, weights)
                except (ValueError, IndexError):  # a play reaches a dead end
                    with pytest.raises(ValueError):
                        walk(rg.position(v), 10, key)
                    continue
                got = walk(rg.position(v), 10, key)
                stealthy = audit_stealth(expected, bundle.sr, rg.target)
                assert got == (rg.position(expected.states[-1]), len(expected.actions), stealthy)
                assert bool(rg.at_target[got[0]]) == expected.reached_target

    def test_target_with_a_move_out_of_x_stays(self, monkeypatch):
        g = synthesize(_target_exit_input()).stochastic
        rg = g.restricted
        (t,) = g.target
        assert t[0] == 2 and set(rg.transitions[t].values()) == {(3, "q1", "q1")}
        calls = _count_kernel_calls(monkeypatch)
        asw = solve_asw(g)
        assert len(calls) == 3  # a round misses 3 and 4, a drop pass, a round
        assert t in asw.x_star
        assert asw.x_star == {t, (0, "q0", "q1"), (1, "q0", "q1")}
        assert (asw.x_star, asw.levels, asw.strategy) == nested_fixed_point_oracle(g)

    def test_choice_into_earlier_drops_keeps_its_pending_count(self, monkeypatch):
        g = synthesize(_late_drop_input()).stochastic
        calls = _count_kernel_calls(monkeypatch)
        asw = solve_asw(g)
        assert len(calls) == 5  # round, drop pass, round, drop pass, round
        assert {v[0] for v in asw.x_star} == {0, 2, 7, 8, 9}
        assert (asw.x_star, asw.levels, asw.strategy) == nested_fixed_point_oracle(g)

    def test_all_target_fragment(self):
        bundle = synthesize(_all_target_input())
        rg = bundle.restricted
        assert rg.target == set(rg.states)
        assert bundle.sure_regions.win1 == rg.target
        assert set(bundle.sure_regions.level.values()) == {0}
        assert bundle.sure_strategy == {}
        assert bundle.asw.x_star == rg.target
        assert bundle.asw.levels == (rg.target,)
        assert bundle.asw.strategy == {}
        assert nested_fixed_point_oracle(bundle.stochastic)[0] == rg.target
        stats = simulate_asw(
            bundle.stochastic, {}, rg.initial, trials=5, cap=3, seed=0, sr=bundle.sr
        )
        assert stats.wins == 5

