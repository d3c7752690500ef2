import math
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest

from hypergames.arena import Arena, HypergameInput
from hypergames.cli import synthesize
from hypergames.simulate import (
    Trace,
    _trial_key,
    _walker,
    audit_stealth,
    simulate_asw,
    verify_sure,
)
from hypergames.speclang import parse_formula

from oracles import (
    TrialStream,
    dict_trial_oracle,
    exact_win_probability,
    recursive_verify_oracle,
    trial_keys,
)
from randgen import (
    corridor_input,
    oracle_cases,
    random_arena,
    random_dfa,
    small_hypergame_input,
)


class TestVerifySure:
    def test_passes_from_sure_region(self, running_bundle):
        rg = running_bundle.restricted
        for v in running_bundle.sure_regions.win1:
            report = verify_sure(rg, running_bundle.sure_strategy, v)
            assert report.verified, v
            assert report.counterexample is None

    def test_counterexample_from_outside(self, running_bundle):
        rg = running_bundle.restricted
        report = verify_sure(rg, running_bundle.sure_strategy, (1, "q0", "q0"))
        assert not report.verified
        trace = report.counterexample
        assert trace is not None
        assert not trace.reached_target
        assert len(trace.states) == len(trace.actions) + 1
        # the adversary can shuttle between 1 and 0 forever
        assert trace.states[-1] in trace.states[:-1]

    def test_bound_exhaustion(self, running_bundle):
        rg = running_bundle.restricted
        report = verify_sure(
            rg, running_bundle.sure_strategy, (4, "q0", "q0"), bound=0
        )
        assert not report.verified

    def test_unknown_start_rejected(self, running_bundle):
        with pytest.raises(ValueError):
            verify_sure(running_bundle.restricted, {}, (9, "q0", "q0"))

    def test_bad_strategy_action_rejected(self, running_bundle):
        rg = running_bundle.restricted
        with pytest.raises(ValueError, match="not available"):
            verify_sure(rg, {(0, "q0", "q0"): "0->9"}, (0, "q0", "q0"))

    def test_long_chain_without_recursion(self):
        # a 3998-step sure strategy, deeper than the interpreter's recursion limit
        bundle = synthesize(corridor_input(4000))
        rg = bundle.restricted
        assert max(bundle.sure_regions.level.values()) > sys.getrecursionlimit()
        report = verify_sure(rg, bundle.sure_strategy, rg.initial)
        assert report.verified
        assert report.states_explored == len(rg.states) - 1

    def test_matches_recursive_search(self):
        # same verdict, counterexample and explored count as the plain
        # recursive search, from every state of every restricted game
        for seed in range(40):
            rng = random.Random(1000 + seed)
            arena = random_arena(rng, max_states=50, max_branch=4)
            dfa = random_dfa(rng, arena.ap, max_states=5)
            bundle = synthesize(HypergameInput(arena=arena, objective=dfa))
            rg = bundle.restricted
            for start in rg.states:
                for bound in (3, len(rg.states)):
                    report = verify_sure(rg, bundle.sure_strategy, start, bound=bound)
                    trace = report.counterexample
                    got = (
                        report.verified,
                        None if trace is None else trace.states,
                        None if trace is None else trace.actions,
                        report.states_explored,
                    )
                    assert got == recursive_verify_oracle(rg, bundle.sure_strategy, start, bound)

    def test_matches_recursive_search_on_oracle_suites(self, running_input):
        # the running example, the small suite and a 200-state corridor, from
        # every state; verify_sure walks the int graph and builds no view
        for inp in oracle_cases(running_input):
            bundle = synthesize(inp)
            rg = bundle.restricted
            runs = [
                (start, bound, verify_sure(rg, bundle.sure_strategy, start, bound=bound))
                for start in rg.states
                for bound in (3, len(rg.states))
            ]
            assert not {"transitions", "owner"} & set(vars(rg))
            for start, bound, report in runs:
                trace = report.counterexample
                got = (
                    report.verified,
                    None if trace is None else trace.states,
                    None if trace is None else trace.actions,
                    report.states_explored,
                )
                assert got == recursive_verify_oracle(rg, bundle.sure_strategy, start, bound)
                assert report.bound == bound


class TestSimulateAsw:
    def test_wins_from_initial(self, running_bundle):
        g = running_bundle.stochastic
        stats = simulate_asw(
            g,
            running_bundle.asw.strategy,
            g.initial,
            trials=500,
            cap=800,
            seed=1,
            sr=running_bundle.sr,
        )
        assert stats.trials == 500
        assert stats.wins == 500
        assert stats.win_rate == 1.0
        assert stats.stealth_violations == 0

    def test_seed_reproducibility(self, running_bundle):
        g = running_bundle.stochastic
        args = dict(trials=200, cap=100, seed=42, sr=running_bundle.sr)
        a = simulate_asw(g, running_bundle.asw.strategy, g.initial, **args)
        b = simulate_asw(g, running_bundle.asw.strategy, g.initial, **args)
        assert a == b

    def test_different_seeds_may_differ(self, running_bundle):
        # only a smoke test that the seed actually feeds the sampler: the
        # per-trial streams must differ
        assert _trial_key(0, 1) != _trial_key(1, 1)
        assert _trial_key(0, 1) != _trial_key(0, 2)

    def test_call_allocates_with_the_positions_reached(self):
        # one trial from one move before the target learns one position, and
        # one from the start with a cap of 10 learns at most 10 of the chain;
        # the call's allocation must not grow with the 4000-state game
        bundle = synthesize(corridor_input(4000))
        rg = bundle.restricted
        near = next(
            v for i, v in enumerate(rg.states)
            if not rg.at_target[i] and any(rg.at_target[j] for j in rg.succ[i])
        )
        for start, wins in ((near, 1), (rg.initial, 0)):
            args = (bundle.stochastic, bundle.asw.strategy, start, 1, 10, 0, bundle.sr)
            tracemalloc.start()
            try:
                stats = simulate_asw(*args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert stats.wins == wins
            assert peak < 8 * 1024

    def test_zero_trials(self, running_bundle):
        g = running_bundle.stochastic
        stats = simulate_asw(
            g, {}, g.initial, trials=0, cap=10, seed=0, sr=running_bundle.sr
        )
        assert stats.trials == 0
        assert stats.win_rate is None

    def test_cap_validated(self, running_bundle):
        g = running_bundle.stochastic
        with pytest.raises(ValueError):
            simulate_asw(g, {}, g.initial, trials=1, cap=0, seed=0, sr=running_bundle.sr)

    def test_negative_trials_rejected(self, running_bundle):
        g = running_bundle.stochastic
        with pytest.raises(ValueError, match="trials"):
            simulate_asw(g, {}, g.initial, trials=-5, cap=10, seed=0, sr=running_bundle.sr)

    def test_weights_override(self, running_bundle):
        g = running_bundle.stochastic
        # bias the adversary fully toward the lexicographically first action;
        # from (1,q0,q0) that is 1->0, so the play cycles and the cap bites
        stats = simulate_asw(
            g,
            running_bundle.asw.strategy,
            (1, "q0", "q0"),
            trials=20,
            cap=50,
            seed=3,
            sr=running_bundle.sr,
            weights=lambda names: [1.0] + [0.0] * (len(names) - 1),
        )
        assert stats.wins == 0
        assert stats.losses_by_cap == 20
        assert stats.stealth_violations == 0

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0], "number of weights"),
            ([0.0, 0.0], "greater than zero"),
            ([1.0, float("inf")], "finite"),
            ([1.0, float("nan")], "finite"),
        ],
    )
    def test_bad_weights_rejected(self, running_bundle, weights, message):
        # the errors random.choices gives, raised where the adversary first draws
        g, strat, sr = running_bundle.stochastic, running_bundle.asw.strategy, running_bundle.sr
        with pytest.raises(ValueError, match=message):
            simulate_asw(g, strat, g.initial, 1, 5, 0, sr, weights=lambda names: weights)
        with pytest.raises(ValueError, match=message):
            dict_trial_oracle(g, strat, g.initial, 5, 0, lambda names: weights)


class _DroppingSr:
    """An SR map that disagrees with the game: it finds the ``dropped``
    actions irrational wherever the real map ``sr`` kept them."""

    def __init__(self, sr, dropped):
        self.sr = sr
        self.product2 = sr.product2
        self.dropped = frozenset(dropped)

    def owner_actions(self, s, p):
        return self.sr.owner_actions(s, p) - self.dropped


def _reversed_actions(inp):
    """``inp`` with every state's actions listed in reverse order, so that the
    restricted game's ``names`` are not in sorted order."""
    arena = inp.arena
    transitions = {s: dict(reversed(moves.items())) for s, moves in arena.transitions.items()}
    return replace(inp, arena=replace(arena, transitions=transitions))


def _oracle_outcome(rg, trace, sr):
    """What the walk must return for the play ``trace``: its end position,
    its number of moves and the per-trace audit's verdict."""
    return rg.position(trace.states[-1]), len(trace.actions), audit_stealth(trace, sr, rg.target)


class TestTrialAgainstDictWalk:
    """The int-graph walk against the walk over the stochastic game's dicts."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_same_traces(self, running_input, weighted):
        # one walker per game, so later trials reuse the moves earlier ones
        # learnt; the weights depend on the names, so their order matters
        def by_name(names):
            return [len(a) + i + ord(a[-1]) for i, a in enumerate(names)]

        weights = by_name if weighted else None
        inputs = [running_input, _reversed_actions(running_input), corridor_input(200)]
        inputs += [small_hypergame_input(random.Random(seed)) for seed in range(5)]
        for inp in inputs:
            bundle = synthesize(inp)
            g, rg = bundle.stochastic, bundle.restricted
            walk = _walker(rg, bundle.asw.strategy, bundle.sr, weights)
            cap = 3 * len(rg.states)
            for seed in range(20):
                for index, key in enumerate(trial_keys(seed, 10)):
                    start = rg.states[(seed * 10 + index) % len(rg.states)]
                    got = walk(rg.position(start), cap, key)
                    trace = dict_trial_oracle(g, bundle.asw.strategy, start, cap, key, weights)
                    assert got == _oracle_outcome(rg, trace, bundle.sr)
                    assert bool(rg.at_target[got[0]]) == trace.reached_target

    @pytest.mark.parametrize("weighted", [False, True])
    def test_violations_equal_per_trace_audit(self, running_input, weighted):
        # an SR map that drops some of the strategy's actions: every trial
        # that plays one before the target is a violation, as its trace's audit says
        weights = (lambda names: [1.0 + i for i in range(len(names))]) if weighted else None
        inputs = [running_input, corridor_input(60)]
        inputs += [small_hypergame_input(random.Random(seed)) for seed in range(10)]
        counts = []
        for inp in inputs:
            bundle = synthesize(inp)
            g, rg, strat = bundle.stochastic, bundle.restricted, bundle.asw.strategy
            sr = _DroppingSr(bundle.sr, sorted(set(strat.values()))[::2])
            cap = 2 * len(rg.states)
            for start in rg.states:
                try:
                    traces = [
                        dict_trial_oracle(g, strat, start, cap, key, weights)
                        for key in trial_keys(4, 30)
                    ]
                except (ValueError, IndexError):  # a play reaches a dead end
                    with pytest.raises(ValueError):
                        simulate_asw(g, strat, start, 30, cap, 4, sr, weights=weights)
                    continue
                stats = simulate_asw(g, strat, start, 30, cap, 4, sr, weights=weights)
                expected = sum(not audit_stealth(trace, sr, rg.target) for trace in traces)
                assert stats.stealth_violations == expected
                assert stats.wins == sum(trace.reached_target for trace in traces)
                counts.append(expected)
        assert any(0 < n < 30 for n in counts)

    def test_running_example_violations(self, running_bundle):
        # dropping P1's only strategy action 0->1: a trial from 1 violates
        # stealth iff the adversary sends the play back to 0 before the target
        g, rg = running_bundle.stochastic, running_bundle.restricted
        sr = _DroppingSr(running_bundle.sr, {"0->1"})
        strat = running_bundle.asw.strategy
        stats = simulate_asw(g, strat, (1, "q0", "q0"), 200, 50, 0, sr)
        back = sum(
            "1->0" in dict_trial_oracle(g, strat, (1, "q0", "q0"), 50, key, None).actions
            for key in trial_keys(0, 200)
        )
        assert 0 < stats.stealth_violations == back < 200
        assert simulate_asw(g, strat, g.initial, 20, 50, 0, sr).stealth_violations == 20
        # a trial cut before P1 moves again has not violated stealth
        assert simulate_asw(g, strat, (1, "q0", "q0"), 200, 1, 0, sr).stealth_violations == 0

    def test_weights_get_a_fresh_sorted_list(self, running_bundle):
        g, strat, sr = running_bundle.stochastic, running_bundle.asw.strategy, running_bundle.sr
        seen = []

        def spoiling(names):
            seen.append(list(names))
            out = [1.0 + len(n) + i for i, n in enumerate(names)]
            names.clear()
            return out

        def plain(names):
            return [1.0 + len(n) + i for i, n in enumerate(names)]

        for start in running_bundle.restricted.states:
            a = simulate_asw(g, strat, start, 40, 30, 2, sr, weights=spoiling)
            assert a == simulate_asw(g, strat, start, 40, 30, 2, sr, weights=plain)
        assert seen and all(names == sorted(names) and names for names in seen)

    def test_simulation_reads_no_dict_view(self, running_input):
        bundle = synthesize(running_input)
        g = bundle.stochastic
        simulate_asw(g, bundle.asw.strategy, g.initial, trials=50, cap=100, seed=0, sr=bundle.sr)
        views = {"choice_actions", "chance_actions", "support"}
        assert not views & set(vars(g))
        assert not {"owner", "transitions", "removed"} & set(vars(bundle.restricted))

    def test_unknown_start_rejected(self, running_bundle):
        g = running_bundle.stochastic
        for bad in ((9, "q0", "q0"), (0, "q9", "q0"), (2, "q0", "q1"), "junk"):
            with pytest.raises(KeyError):
                simulate_asw(g, {}, bad, trials=1, cap=5, seed=0, sr=running_bundle.sr)


def _with_moves(inp, moves):
    """``inp`` with the arena states in ``moves`` given those moves instead."""
    arena = inp.arena
    return replace(inp, arena=replace(arena, transitions={**arena.transitions, **moves}))


def _chain(rg):
    """The positions of the restricted game's one play from its initial
    position, up to its first target position, where every move is fixed."""
    chain = [rg.position(rg.initial)]
    while not rg.at_target[chain[-1]]:
        (successor,) = rg.succ[chain[-1]]
        chain.append(successor)
    return chain


def _cycle_input():
    """P1's fixed moves 0 -> 1 -> 2 -> 3 -> 4 -> 1, with 3 the adversary's
    one move, in a game whose goal 5 no play reaches: X* is empty, and at 2
    P1 plays the smaller of ``2->3`` and ``2->9``, which goes back to 0."""
    arena = Arena(
        states=(0, 1, 2, 3, 4, 5),
        owner={0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 2},
        transitions={
            0: {"0->1": 1}, 1: {"1->2": 2}, 2: {"2->9": 0, "2->3": 3},
            3: {"3->4": 4}, 4: {"4->1": 1}, 5: {"5->5": 5},
        },
        initial=0,
        ap=frozenset({"a"}),
        label_true={5: frozenset({"a"})},
        label_perceived={5: frozenset({"a"})},
    )
    formula = parse_formula("F a", arena.ap)
    return HypergameInput(arena=arena, objective=formula, objective_text="F a")


def _ladder_input():
    """``corridor_input(60)`` where every tenth adversary position, from 5
    on, may also send the play five positions back: runs of fixed moves
    between draws, entered at their start and in their middle."""
    inp = corridor_input(60)
    moves = inp.arena.transitions
    return _with_moves(inp, {i: {**moves[i], f"{i}->{i - 5}": i - 5} for i in range(5, 59, 10)})


def _learnt_id(learnt):
    return "fresh" if learnt is None else "from{}-cap{}".format(*learnt)


@pytest.fixture(scope="module")
def corridor200():
    return synthesize(corridor_input(200))


class TestRunsOfFixedMoves:
    """The walker learns a run of fixed moves at once and later trials jump
    over it; every trial must still end as the move-by-move walk over the
    stochastic game's dicts ends."""

    @staticmethod
    def _check(bundle, walk, start, cap, key=0, strat=None, sr=None, weights=None):
        strat = bundle.asw.strategy if strat is None else strat
        sr = bundle.sr if sr is None else sr
        rg = bundle.restricted
        trace = dict_trial_oracle(bundle.stochastic, strat, rg.states[start], cap, key, weights)
        got = walk(start, cap, key)
        assert got == _oracle_outcome(rg, trace, sr)
        return got

    @pytest.mark.parametrize(
        "learnt", [None, (0, 500), (60, 500), (150, 500), (0, 30), (45, 20)], ids=_learnt_id
    )
    def test_cap_around_a_run(self, corridor200, learnt):
        # from the start and from the middle of the 198-move chain, a cap one
        # short of the run's length L loses with L - 1 moves, and L or L + 1
        # wins with L; the walker has first learnt nothing, or what a trial
        # from a position of the chain with a cap learnt
        bundle = corridor200
        rg = bundle.restricted
        chain = _chain(rg)
        assert len(chain) == 199
        for p in (0, 1, 59, 60, 61, 150, 196):
            length = len(chain) - 1 - p
            for cap in (length - 1, length, length + 1):
                walk = _walker(rg, bundle.asw.strategy, bundle.sr, None)
                if learnt is not None:
                    walk(chain[learnt[0]], learnt[1], 0)
                for _ in range(2):  # learning, then from the memo
                    end, moves, stealthy = self._check(bundle, walk, chain[p], cap)
                    assert moves == min(cap, length) and stealthy
                    assert bool(rg.at_target[end]) == (cap >= length)

    def test_corridor_cap_one_short_loses_every_trial(self, corridor200):
        g, strat, sr = corridor200.stochastic, corridor200.asw.strategy, corridor200.sr
        assert simulate_asw(g, strat, g.initial, 50, 197, 0, sr).losses_by_cap == 50
        assert simulate_asw(g, strat, g.initial, 50, 198, 0, sr).wins == 50

    @pytest.mark.parametrize(
        "dropped", [(), ("4->1",), ("0->1", "2->3")], ids=["none", "4->1", "0->1,2->3"]
    )
    def test_cycle_ends_by_cap(self, dropped):
        # the run from 0 closes on itself at 1; every trial ends by the cap,
        # at the position, move count and stealth verdict of the plain walk
        bundle = synthesize(_cycle_input())
        rg = bundle.restricted
        assert not bundle.asw.x_star and len(rg.states) == 5
        sr = _DroppingSr(bundle.sr, dropped)
        learnt = _walker(rg, bundle.asw.strategy, sr, None)
        learnt(0, 13, 0)
        for start in range(5):
            for cap in range(1, 14):
                fresh = _walker(rg, bundle.asw.strategy, sr, None)
                for walk in (fresh, fresh, learnt):
                    end, moves, stealthy = self._check(bundle, walk, start, cap, sr=sr)
                    assert moves == cap

    def test_unavailable_action_past_the_cap(self, corridor200):
        # the run learnt from the start stops before the bad position, and
        # only a trial that reaches it within its cap raises
        rg = corridor200.restricted
        chain = _chain(rg)
        strat = dict(corridor200.asw.strategy)
        strat[rg.states[chain[100]]] = "no such action"
        walk = _walker(rg, strat, corridor200.sr, None)
        for start, caps in ((0, (1, 99, 100)), (40, (59, 60)), (101, (97, 98, 500))):
            for cap in caps:
                self._check(corridor200, walk, chain[start], cap, strat=strat)
        g = corridor200.stochastic
        for start, cap in ((0, 101), (0, 500), (40, 61)):
            with pytest.raises(ValueError, match="not available"):
                walk(chain[start], cap, 0)
            with pytest.raises(ValueError, match="not available"):
                dict_trial_oracle(g, strat, rg.states[chain[start]], cap, 0, None)
        self._check(corridor200, walk, chain[0], 100, strat=strat)

    def test_dead_end_past_the_cap(self):
        # P1's state 100 has no move: the restricted game is the chain to it
        bundle = synthesize(_with_moves(corridor_input(200), {100: {}}))
        rg = bundle.restricted
        assert not bundle.asw.x_star and len(rg.states) == 101
        dead = rg.position((100, "q0", "q0"))
        assert not rg.names[dead]
        walk = _walker(rg, bundle.asw.strategy, bundle.sr, None)
        for cap in (1, 50, 100):
            assert self._check(bundle, walk, 0, cap) == ((dead if cap == 100 else cap), cap, True)
        for cap in (101, 300):
            with pytest.raises(ValueError):
                walk(0, cap, 0)
            with pytest.raises(ValueError):
                dict_trial_oracle(bundle.stochastic, {}, rg.states[0], cap, 0, None)
        with pytest.raises(ValueError):
            simulate_asw(bundle.stochastic, {}, rg.states[0], 3, 101, 0, bundle.sr)

    @pytest.mark.parametrize(
        "learnt", [None, (0, 500), (100, 500), (101, 500), (0, 100), (50, 60)], ids=_learnt_id
    )
    def test_flagged_move_inside_a_run(self, corridor200, learnt):
        # P1's move 100 -> 101 is not rationalizable for this SR map: a trial
        # through it violates stealth, and one cut off before it does not
        rg = corridor200.restricted
        chain = _chain(rg)
        sr = _DroppingSr(corridor200.sr, {"100->101"})
        for start, caps in ((0, (99, 100, 101, 102, 198)), (50, (49, 50, 51, 148)), (101, (1, 97))):
            for cap in caps:
                walk = _walker(rg, corridor200.asw.strategy, sr, None)
                if learnt is not None:
                    walk(chain[learnt[0]], learnt[1], 0)
                for _ in range(2):
                    _end, moves, stealthy = self._check(corridor200, walk, chain[start], cap, sr=sr)
                    assert stealthy == (not start <= 100 < start + moves)
        g, strat = corridor200.stochastic, corridor200.asw.strategy
        assert simulate_asw(g, strat, g.initial, 20, 100, 0, sr).stealth_violations == 0
        assert simulate_asw(g, strat, g.initial, 20, 101, 0, sr).stealth_violations == 20

    @pytest.mark.parametrize("weighted", [False, True])
    def test_runs_between_draws(self, weighted):
        # the ladder's trials draw, enter runs at their start or in their
        # middle and jump or step through them; one walker serves every trial
        weights = (lambda names: [1.0 + 3 * i for i in range(len(names))]) if weighted else None
        for dropped in ((), ("10->11", "34->35")):
            bundle = synthesize(_ladder_input())
            rg = bundle.restricted
            sr = _DroppingSr(bundle.sr, dropped)
            walk = _walker(rg, bundle.asw.strategy, sr, weights)
            for start in range(len(rg.states)):
                for cap in (1, 4, 9, 10, 11, 30, 300):
                    for key in trial_keys(start + cap, 3):
                        self._check(bundle, walk, start, cap, key, sr=sr, weights=weights)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_running_example_every_state(self, running_bundle, weighted):
        def by_name(names):
            return [2.0 + len(a) + i for i, a in enumerate(names)]

        weights = by_name if weighted else None
        rg = running_bundle.restricted
        walk = _walker(rg, running_bundle.asw.strategy, running_bundle.sr, weights)
        for start in range(len(rg.states)):
            for cap in range(1, 25):
                for key in trial_keys(cap, 4):
                    self._check(running_bundle, walk, start, cap, key, weights=weights)


REJECTED_KEY = -0x9E3779B97F4A7C15 % 2**64


class TestTrialStream:
    """The reference SplitMix64 stream the walker's inlined draws are checked against."""

    def test_known_answers(self):
        # the first outputs of the reference splitmix64.c seeded with 1234567
        stream = TrialStream(1234567)
        assert [stream.next() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_trial_keys_distinct_and_as_documented(self):
        keys = {seed: trial_keys(seed, 1000) for seed in range(10)}
        assert len({k for ks in keys.values() for k in ks}) == 10 * 1000
        assert all(
            _trial_key(seed, index) == key
            for seed, ks in keys.items()
            for index, key in enumerate(ks)
        )
        # the seed is taken modulo 2^64
        assert _trial_key(-1, 3) == trial_keys(2**64 - 1, 4)[3] == _trial_key(2**64 - 1, 3)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_randrange_uniform(self, m):
        # chi-square over 60,000 draws from fixed keys, against the 0.9999
        # quantile of the distribution with m - 1 degrees of freedom
        counts = [0] * m
        for key in range(6):
            stream = TrialStream(key)
            for _ in range(10_000):
                counts[stream.randrange(m)] += 1
        expected = 60_000 / m
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < {2: 15.14, 3: 18.42, 4: 21.11, 5: 23.51}[m]

    def test_one_move_draws_nothing(self):
        stream = TrialStream(7)
        assert stream.randrange(1) == 0
        assert stream.choices(["only"], weights=None) == "only"
        assert stream.next() == TrialStream(7).next()

    def test_rejection_redraws(self):
        # this key's first output is mix(0) = 0, whose product with 3 has the
        # low word 0 < 2^64 mod 3 and is drawn again; the second output,
        # 0xE220A8397B1DCDAF, gives 2 where the first would have given 0
        stream = TrialStream(REJECTED_KEY)
        assert stream.next() == 0
        assert stream.next() == 0xE220A8397B1DCDAF
        assert TrialStream(REJECTED_KEY).randrange(3) == 2
        assert TrialStream(REJECTED_KEY).randrange(4) == 0  # 2^64 mod 4 = 0: no rejection

    def test_walker_rejects_as_the_reference(self):
        # an adversary position with three moves, whose first draw falls in
        # the rejection zone: the walker draws again and plays her third action
        bundle = synthesize(small_hypergame_input(random.Random(1)))
        g, rg = bundle.stochastic, bundle.restricted
        start = next(v for v in g.chance_actions if len(g.chance_actions[v]) == 3)
        walk = _walker(rg, bundle.asw.strategy, bundle.sr, None)
        trace = dict_trial_oracle(g, bundle.asw.strategy, start, 6, REJECTED_KEY, None)
        assert trace.actions[0] == sorted(g.chance_actions[start])[2]
        assert walk(rg.position(start), 6, REJECTED_KEY) == _oracle_outcome(rg, trace, bundle.sr)


class TestExactWinProbability:
    """The Monte-Carlo win rate against the exact finite-horizon probability."""

    TRIALS = 20_000

    def _within_4_sigma(self, bundle, start, cap, weights=None):
        exact = exact_win_probability(bundle.restricted, bundle.asw.strategy, start, cap, weights)
        stats = simulate_asw(
            bundle.stochastic, bundle.asw.strategy, start, self.TRIALS, cap, 0, bundle.sr,
            weights=weights,
        )
        sigma = math.sqrt(exact * (1 - exact) / self.TRIALS)
        assert abs(stats.win_rate - exact) <= 4 * sigma
        return exact

    def test_running_example(self, running_bundle):
        rg = running_bundle.restricted
        assert exact_win_probability(rg, running_bundle.asw.strategy, rg.initial, 5) == 0.75
        self._within_4_sigma(running_bundle, rg.initial, 5)
        weighted = self._within_4_sigma(
            running_bundle, rg.initial, 5, lambda names: [1.0 + i for i in range(len(names))]
        )
        assert weighted == pytest.approx(8 / 9)

    def test_corridor_with_weights(self):
        bundle = synthesize(corridor_input(60))
        rg = bundle.restricted
        weights = lambda names: [1.0 + i for i in range(len(names))]  # noqa: E731
        assert self._within_4_sigma(bundle, rg.initial, 57, weights) == 0.0
        assert self._within_4_sigma(bundle, rg.initial, 58, weights) == 1.0

    @pytest.mark.parametrize("seed", [33, 54])
    def test_small_games(self, seed):
        bundle = synthesize(small_hypergame_input(random.Random(seed)))
        values = [
            self._within_4_sigma(bundle, start, 3, weights)
            for start in bundle.restricted.states
            for weights in (None, lambda names: [1.0 + len(n) + i for i, n in enumerate(names)])
        ]
        assert any(0 < p < 1 for p in values)


class TestAuditStealth:
    def test_rational_play_passes(self, running_bundle):
        trace = Trace(
            states=((0, "q0", "q0"), (1, "q0", "q0"), (4, "q0", "q0"), (5, "q1", "q0")),
            actions=("0->1", "1->4", "4->5"),
            reached_target=True,
        )
        assert audit_stealth(trace, running_bundle.sr, running_bundle.hts.target)

    def test_irrational_p1_move_flagged(self, running_bundle):
        # at arena state 3 only 3->2 is subjectively rationalizable for P1
        trace = Trace(
            states=((3, "q0", "q0"), (4, "q0", "q0")),
            actions=("3->4",),
            reached_target=False,
        )
        assert not audit_stealth(trace, running_bundle.sr, running_bundle.hts.target)

    def test_moves_inside_target_ignored(self, running_bundle):
        # 6->7 leaves P1's perceived-losing... any action after entering the
        # target no longer needs to look rational
        trace = Trace(
            states=((5, "q1", "q0"), (6, "q1", "q0"), (7, "q1", "q0")),
            actions=("5->6", "6->7"),
            reached_target=True,
        )
        assert audit_stealth(trace, running_bundle.sr, running_bundle.hts.target)

    def test_target_given_as_iterator(self, running_bundle):
        # the irrational 3->4 comes after entering the given target; a
        # one-shot iterator must be read once, not consumed by the first lookup
        trace = Trace(
            states=((4, "q0", "q0"), (3, "q0", "q0"), (4, "q0", "q0")),
            actions=("4->3", "3->4"),
            reached_target=False,
        )
        assert audit_stealth(trace, running_bundle.sr, iter([(3, "q0", "q0")]))
        assert not audit_stealth(trace, running_bundle.sr, iter([]))

    def test_adversary_moves_not_audited(self, running_bundle):
        # 4 belongs to the adversary; her own deviation is not P1's stealth leak
        trace = Trace(
            states=((4, "q0", "q0"), (3, "q0", "q0")),
            actions=("4->3",),
            reached_target=False,
        )
        assert audit_stealth(trace, running_bundle.sr, running_bundle.hts.target)
