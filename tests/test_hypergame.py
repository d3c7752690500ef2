import random

import pytest

from hypergames.hypergame import (
    build_hts,
    build_restricted_game,
    build_sr_map,
    robust_winning_states,
    solve_deceptive_sure,
    sr_actions,
)
from hypergames import cli, hypergame, reachsolver
from hypergames.almostsure import build_stochastic_game, solve_asw
from hypergames.cli import RunConfig, build_report, synthesize
from hypergames.arena import HypergameInput, load_arena_file
from hypergames.product import build_product
from hypergames.speclang import compile_to_dfa, parse_formula

from conftest import SCENARIO
from oracles import eager_restricted_game_oracle
from randgen import oracle_cases, product_cases, random_arena

GOLDEN_FRAGMENT = {
    (0, "q0", "q0"),
    (1, "q0", "q0"),
    (4, "q0", "q0"),
    (4, "q1", "q0"),
    (5, "q1", "q0"),
    (6, "q1", "q0"),
    (7, "q1", "q0"),
}

GOLDEN_SURE = {
    (4, "q0", "q0"),
    (4, "q1", "q0"),
    (5, "q1", "q0"),
    (6, "q1", "q0"),
    (7, "q1", "q0"),
}


class TestSrActions:
    def test_adversary_examples(self, running_bundle):
        p2, r2 = running_bundle.product_perceived, running_bundle.regions_perceived
        # at 1 the adversary thinks she is winning toward 2 and just must not
        # hand the play over: both 1->0 and 1->4 keep her inside her region
        assert sr_actions(p2, r2, (1, "q0"), 2) == {"1->0", "1->4"}
        # at 4 she is the safety player and believes she is winning, but
        # 4->3 would hand P1 his perceived region, so only 4->5 survives
        assert sr_actions(p2, r2, (4, "q0"), 2) == {"4->5"}
        assert sr_actions(p2, r2, (3, "q0"), 1) == {"3->2"}

    def test_owner_map_matches_pointwise(self, running_bundle):
        sr = running_bundle.sr
        p2, r2 = running_bundle.product_perceived, running_bundle.regions_perceived
        for s, p in p2.states:
            assert sr.owner_actions(s, p) == sr_actions(p2, r2, (s, p), p2.owner[(s, p)])

    def test_unknown_state_rejected(self, running_bundle):
        with pytest.raises(ValueError):
            sr_actions(
                running_bundle.product_perceived,
                running_bundle.regions_perceived,
                (99, "q0"),
                1,
            )
        with pytest.raises(ValueError):
            sr_actions(
                running_bundle.product_perceived, running_bundle.regions_perceived, (1, "q0"), 3
            )

    def test_by_state_matches_pointwise_and_definition(self, running_input):
        for inp in product_cases(running_input):
            bundle = synthesize(inp)
            p2, r2, sr = bundle.product_perceived, bundle.regions_perceived, bundle.sr
            for v in p2.states:
                owner = p2.owner[v]
                assert sr.by_state[v] == sr_actions(p2, r2, v, owner)
                # the definition, on the decoded regions and the product's dicts
                win = r2.win1 if owner == 1 else r2.win2
                moves = p2.transitions[v]
                expected = {a for a, dst in moves.items() if v not in win or dst in win}
                assert sr.by_state[v] == expected
                assert sr.owner_actions(*v) == expected

    def test_kept_moves_follow_arena_order(self, running_input):
        for inp in product_cases(running_input):
            bundle = synthesize(inp)
            adj, sr = inp.arena.adjacency, bundle.sr
            for (s, p) in bundle.product_perceived.states:
                i = adj.where[s]
                names, dsts = sr.kept(bundle.product_perceived.index(s, p))
                expected = [(a, d) for a, d in zip(adj.names[i], adj.succ[i])
                            if a in sr.owner_actions(s, p)]
                assert list(zip(names, dsts)) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_never_empty(self, seed):
        # a player in their perceived winning region always has a region-
        # preserving action, so the restriction never strands a state
        rng = random.Random(seed)
        arena = random_arena(rng, max_states=15, ap=("a",))
        inp = HypergameInput(arena, parse_formula("F a", arena.ap), "F a")
        bundle = synthesize(inp)
        for v in bundle.product_perceived.states:
            assert bundle.sr.by_state[v]


class TestHts:
    def test_dimensions_and_initial(self, running_bundle):
        hts = running_bundle.hts
        assert len(hts.states) == 8 * 2 * 2
        assert hts.initial == (0, "q0", "q0")
        assert hts.owner[(4, "q1", "q0")] == 2

    def test_components_update_independently(self, running_bundle):
        hts = running_bundle.hts
        # entering 5: true component advances, perceived stays
        assert hts.transitions[(4, "q0", "q0")]["4->5"] == (5, "q1", "q0")
        # entering 2: perceived component advances, true stays
        assert hts.transitions[(1, "q0", "q0")]["1->2"] == (2, "q0", "q1")

    def test_raw_reachable_count(self, running_bundle):
        assert len(running_bundle.hts.reachable) == 22

    def test_robust_states_and_target(self, running_bundle):
        hts = running_bundle.hts
        assert hts.robust_win == {5, 6, 7}
        assert hts.target == {v for v in hts.states if v[0] in {5, 6, 7}}
        assert robust_winning_states(
            hts.arena, hts.dfa, running_bundle.regions_true
        ) == {5, 6, 7}

    def test_rows_shared_with_products(self, running_input):
        for inp in product_cases(running_input):
            bundle = synthesize(inp)
            arena, hts = inp.arena, bundle.hts
            for i in range(len(arena.states)):
                assert hts.next1[i] is bundle.product_true.rows[i]
                assert hts.next2[i] is bundle.product_perceived.rows[i]
            # one row per distinct label, over both labelings
            labels = {arena.label(s, which) for s in arena.states for which in (1, 2)}
            rows = bundle.product_true.rows + bundle.product_perceived.rows
            assert len({id(row) for row in rows}) == len(labels)

    def test_incomplete_regions_rejected(self, running_bundle):
        from hypergames.reachsolver import Regions

        empty = Regions(levels=[], game=running_bundle.product_true)
        with pytest.raises(ValueError, match="cover"):
            build_hts(running_bundle.product_true, running_bundle.product_perceived, empty)

    def test_mismatched_products_rejected(self, running_input, running_bundle):
        true, perceived = running_bundle.product_true, running_bundle.product_perceived
        regions = running_bundle.regions_true
        arena, dfa = running_input.arena, running_bundle.dfa
        other_dfa = compile_to_dfa(running_input.objective, arena.ap)
        other_arena = load_arena_file(SCENARIO).arena
        for pair in (
            (perceived, true),  # swapped
            (true, true),
            (true, build_product(arena, 2, other_dfa)),
            (build_product(arena, 1, other_dfa), perceived),
            (true, build_product(other_arena, 2, dfa)),
            (build_product(other_arena, 1, dfa), perceived),
        ):
            with pytest.raises(ValueError):
                build_hts(*pair, regions)

    def test_initial_triple(self, running_input):
        # the HTS starts where the DFA's initial state goes on the initial
        # arena state's label under each labeling
        for inp in oracle_cases(running_input):
            bundle = synthesize(inp)
            arena, dfa = inp.arena, bundle.dfa
            s0 = arena.initial
            assert bundle.hts.initial == (
                s0,
                dfa.delta[(dfa.initial, arena.label(s0, 1))],
                dfa.delta[(dfa.initial, arena.label(s0, 2))],
            )


class TestRestrictedGame:
    def test_reachable_fragment(self, running_bundle):
        assert set(running_bundle.restricted.states) == GOLDEN_FRAGMENT

    def test_removed_edges_tracked(self, running_bundle):
        rg = running_bundle.restricted
        # the adversary's irrational move 1 -> 2 is cut at (1, q0, q0)
        assert rg.removed[(1, "q0", "q0")] == {"1->2": (2, "q0", "q1")}
        assert "1->2" not in rg.transitions[(1, "q0", "q0")]

    def test_full_space_agrees_on_fragment(self, running_bundle):
        hts = running_bundle.hts
        full = build_restricted_game(hts, running_bundle.sr, reachable_only=False)
        assert set(full.states) == set(hts.states)
        regions_full, _ = solve_deceptive_sure(full)
        # the fragment is closed under the restricted dynamics, so the
        # fragment solve is the full solve restricted to it
        assert regions_full.win1 & GOLDEN_FRAGMENT == GOLDEN_SURE

    def test_sure_region_golden(self, running_bundle):
        assert running_bundle.sure_regions.win1 == GOLDEN_SURE
        assert (1, "q0", "q0") not in running_bundle.sure_regions.win1

    def test_sure_strategy_only_outside_target(self, running_bundle):
        for v in running_bundle.sure_strategy:
            assert v not in running_bundle.restricted.target
            assert running_bundle.restricted.owner[v] == 1


class TestAgainstEagerBuild:
    """The lazy HTS and the one-search restricted game against the eager build."""

    @pytest.mark.parametrize("reachable_only", [True, False])
    def test_same_restricted_game(self, running_input, reachable_only):
        for inp in oracle_cases(running_input):
            bundle = synthesize(inp)
            hts = build_hts(bundle.product_true, bundle.product_perceived, bundle.regions_true)
            rg = build_restricted_game(hts, bundle.sr, reachable_only=reachable_only)
            # the views are built after both solves have read the int graph
            solve_deceptive_sure(rg)
            g = build_stochastic_game(rg)
            solve_asw(g)
            _, expected = eager_restricted_game_oracle(
                inp, bundle.dfa, bundle.regions_true, bundle.sr, reachable_only
            )
            if reachable_only:
                # numbered in search order: the initial state first, and each
                # later state found from an earlier one
                assert tuple(sorted(rg.states, key=hts.code)) == expected.states
                assert rg.states[0] == rg.initial
                earliest = {}  # position -> smallest position of a predecessor
                for i, out in enumerate(rg.succ):
                    for j in out:
                        earliest.setdefault(j, i)
                assert all(earliest.get(n, n) < n for n in range(1, len(rg.states)))
            else:
                assert rg.states == expected.states  # code order
            assert rg.owner == expected.owner
            assert rg.transitions == expected.transitions
            assert rg.removed == expected.removed
            assert rg.target == expected.target
            assert rg.initial == expected.initial
            choice, chance, support = eager_stochastic_views(expected)
            assert g.states == rg.states and g.target == expected.target
            assert g.choice_actions == choice
            assert g.chance_actions == chance
            assert g.support == support
            for i, v in enumerate(rg.states):
                assert rg.position(v) == i

    def test_same_whole_space_views(self, running_input):
        for inp in oracle_cases(running_input):
            bundle = synthesize(inp)
            expected, _ = eager_restricted_game_oracle(
                inp, bundle.dfa, bundle.regions_true, bundle.sr
            )
            hts = bundle.hts
            assert hts.initial == expected.initial
            assert hts.robust_win == expected.robust_win
            assert hts.states == expected.states
            assert hts.owner == expected.owner
            assert hts.transitions == expected.transitions
            assert hts.target == expected.target
            assert hts.reachable == expected.reachable


def eager_stochastic_views(rg):
    """``(choice_actions, chance_actions, support)`` of a restricted game's dicts."""
    choice, chance, support = {}, {}, {}
    for v in rg.states:
        moves = rg.transitions[v]
        if v in rg.target:
            support[v] = frozenset({v})
        elif rg.owner[v] == 1:
            choice[v] = moves
        else:
            chance[v] = moves
            support[v] = frozenset(moves.values())
    return choice, chance, support


class TestNoFullEnumeration:
    """Synthesis from the initial state never builds a whole-space HTS view."""

    VIEWS = ("states", "owner", "transitions", "target", "reachable")

    def _conj_input(self):
        rng = random.Random(3)
        arena = random_arena(rng, max_states=300, min_states=300, ap=("a", "b", "c"))
        text = "F a & F b & F c"
        return HypergameInput(arena, parse_formula(text, arena.ap), text)

    def test_synthesize_reads_no_whole_space_view(self):
        inp = self._conj_input()
        bundle = synthesize(inp)
        assert len(bundle.dfa.states) == 8
        # a cached view is stored in the instance dict on first access
        assert not set(self.VIEWS) & set(vars(bundle.hts))
        assert len(bundle.restricted.states) < len(inp.arena.states) * 8 * 8

    def test_synthesize_builds_the_graph_once(self, monkeypatch):
        def fail(game, target):
            raise AssertionError("synthesize re-interned a game graph")

        monkeypatch.setattr(reachsolver, "solve_reachability", fail)
        monkeypatch.setattr(cli, "solve_reachability", fail)
        bundle = synthesize(self._conj_input())
        # the solves read the restricted game's int graph; no state-keyed view
        # of it, or of the stochastic game over it, is built
        assert not {"owner", "transitions", "removed"} & set(vars(bundle.restricted))
        stochastic_views = {"choice_actions", "chance_actions", "support"}
        assert not stochastic_views & set(vars(bundle.stochastic))

    def test_synthesize_decodes_no_product_result(self):
        bundle = synthesize(self._conj_input())
        build_report(bundle, RunConfig("unused.json", "sure"))
        # a cached view is stored in the instance dict on first access
        for prod in (bundle.product_true, bundle.product_perceived):
            assert "step" not in vars(prod)
        for regions in (bundle.regions_true, bundle.regions_perceived):
            assert not {"level", "win1", "win2"} & set(vars(regions))
        assert "true_strategy" not in vars(bundle)
        assert "by_state" not in vars(bundle.sr)
        # the sure solve returns its result decoded
        assert {"level", "win1", "win2"} <= set(vars(bundle.sure_regions))

    def test_synthesize_indexes_each_game_once(self, monkeypatch):
        # the product solves build no state-keyed view of S x Q, the two
        # solves on the restricted game share one predecessor index, released
        # after them, and the HTS reuses the products' rows
        built = []
        build = hypergame._predecessors

        def counted_build(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(hypergame, "_predecessors", counted_build)
        bundle = synthesize(self._conj_input())
        for prod in (bundle.product_true, bundle.product_perceived):
            # a cached view is stored in the instance dict on first access
            assert not {"states", "owner", "transitions"} & set(vars(prod))
        assert len(built) == 1 and built[0][0] is bundle.restricted.succ
        assert "predecessors" not in vars(bundle.restricted)
        assert bundle.hts.next1 is bundle.product_true.rows
        assert bundle.hts.next2 is bundle.product_perceived.rows

    def test_full_space_solves_every_triple(self):
        inp = self._conj_input()
        full = synthesize(inp, full_space=True)
        fragment = synthesize(inp)
        assert len(full.restricted.states) == len(inp.arena.states) * 8 * 8
        # the fragment is closed under the restricted moves, so its solves are
        # the full-space solves cut down to it
        states = set(fragment.restricted.states)
        assert full.sure_regions.win1 & states == fragment.sure_regions.win1
        assert full.asw.x_star & states == fragment.asw.x_star
