import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergames.arena import Arena, HypergameInput, load_arena
from hypergames.cli import (
    RunConfig,
    _Components,
    _texts,
    build_report,
    export_dot,
    main,
    report_pieces,
    run,
    synthesize,
)
from hypergames.reachsolver import solve_reachability
from hypergames.speclang import parse_formula

from conftest import SCENARIO
from oracles import attractor_oracle, report_oracle
from randgen import corridor_input, random_arena, random_dfa
from test_acceptance import GOLDEN_LEVEL_DELTAS

GOLDEN = Path(__file__).parent / "golden"
CORRIDOR = GOLDEN / "generated_corridor.json"  # corridor_input(200)

GOLDEN_SURE_ROWS = [
    [4, "q0", "q0"],
    [4, "q1", "q0"],
    [5, "q1", "q0"],
    [6, "q1", "q0"],
    [7, "q1", "q0"],
]


def test_sure_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([str(SCENARIO), "--mode", "sure", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "sure"
    assert report["region"] == GOLDEN_SURE_ROWS
    assert report["strategy"] == []


def test_perceptual_report_stdout(capsys):
    assert main([str(SCENARIO), "--mode", "perceptual"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["arena_level"]["true"]["win1"] == [5, 6, 7]
    assert report["arena_level"]["perceived"]["win1"] == [2, 3]
    assert report["arena_level"]["perceived"]["win2"] == [0, 1, 4, 5, 6, 7]


def test_asw_report(capsys):
    assert main([str(SCENARIO), "--mode", "asw"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["level", "mode", "strategy", "x_star"]
    assert [row["state"] for row in report["level"]] == report["x_star"]
    # each cumulative level set Y_i is the states of level at most i
    assert max(row["level"] for row in report["level"]) == len(GOLDEN_LEVEL_DELTAS) - 1
    expected = set()
    for i, delta in enumerate(GOLDEN_LEVEL_DELTAS):
        expected |= delta
        assert {tuple(row["state"]) for row in report["level"] if row["level"] <= i} == expected
    assert len(report["x_star"]) == 7
    assert report["strategy"] == [{"state": [0, "q0", "q0"], "action": "0->1"}]


def test_simulate_reproducible(capsys):
    args = [str(SCENARIO), "--mode", "simulate", "--trials", "100", "--seed", "9"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["wins"] == 100


def test_verify_counterexample_exit_code(capsys):
    # the initial state lies outside the deceptive sure region, so exhaustive
    # verification from it must fail with exit status 2
    assert main([str(SCENARIO), "--mode", "verify"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["verified"]
    assert report["counterexample"]["states"][0] == [0, "q0", "q0"]


def test_missing_file_exit_code(capsys):
    assert main(["/nonexistent.json", "--mode", "sure"]) == 1


def test_bad_schema_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"states": []}))
    assert main([str(p), "--mode", "sure"]) == 1


def test_dfa_cap_exit_code(capsys):
    assert main([str(SCENARIO), "--mode", "sure", "--dfa-cap", "1"]) == 3


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_bad_dfa_cap_exit_code(capsys, cap):
    # a DFA cap below 1 is a bad argument (exit 1), not a cap exceeded (exit 3)
    status = main([str(SCENARIO), "--mode", "sure", "--dfa-cap", cap])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error: ")
    assert "--dfa-cap must be at least 1" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_memory_error_exit_code(monkeypatch, capsys):
    # Running out of memory in synthesis is a resource cap (exit 3), not a
    # traceback; the stub raises without allocating anything.
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("hypergames.cli.synthesize", out_of_memory)
    status = main([str(SCENARIO), "--mode", "sure"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_dot_output_deterministic(tmp_path):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    assert main([str(SCENARIO), "--mode", "sure", "--out", str(tmp_path / "r.json"), "--dot", str(a)]) == 0
    assert main([str(SCENARIO), "--mode", "sure", "--out", str(tmp_path / "r.json"), "--dot", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("digraph game {")
    assert "style=dashed, color=red" in text  # pruned irrational move


def test_dot_shapes_and_fills(running_bundle):
    text = export_dot(
        running_bundle.inp.arena,
        {
            "true_win": running_bundle.arena_regions_true.win1,
            "perceived_win": running_bundle.arena_regions_perceived.win1,
        },
    )
    assert '"4" [label="4", shape=box]' in text
    assert "fillcolor=lightblue" in text
    assert "fillcolor=lightcoral" in text


def test_dot_marks_unreachable(running_bundle):
    from hypergames.hypergame import build_restricted_game

    full = build_restricted_game(
        running_bundle.hts, running_bundle.sr, reachable_only=False
    )
    text = export_dot(full, running_bundle.sure_regions)
    assert "dashed" in text


def test_dot_bytes_pinned(running_bundle):
    from hypergames.hypergame import build_restricted_game

    full = build_restricted_game(running_bundle.hts, running_bundle.sr, reachable_only=False)
    arena_regions = {
        "true_win": running_bundle.arena_regions_true.win1,
        "perceived_win": running_bundle.arena_regions_perceived.win1,
    }
    for graph, regions, name in (
        (running_bundle.inp.arena, arena_regions, "running_example_arena.dot"),
        (running_bundle.stochastic, None, "running_example_stochastic.dot"),
        (full, running_bundle.sure_regions, "running_example_full_restricted.dot"),
        (running_bundle.restricted, running_bundle.sure_regions, "running_example_sure.dot"),
    ):
        assert export_dot(graph, regions) == (GOLDEN / name).read_text(encoding="utf-8")


_DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_dot_quotes_backslashes_and_quotes():
    # an id or action that ends in a backslash must not escape its closing
    # quote, and distinct ids must stay distinct node names
    ids = ["a\\", 'b"', 'c\\"']
    document = {
        "states": [{"id": s, "player": 1 + k % 2} for k, s in enumerate(ids)],
        "init": ids[0],
        "ap": ["A"],
        "edges": [{"from": s, "to": d} for s in ids for d in ids] + [
            {"from": ids[0], "to": ids[1], "action": "x\\"}
        ],
        "label_true": {ids[2]: ["A"]},
        "label_perceived": {ids[1]: ["A"]},
        "objective": {"formula": "F A"},
    }
    bundle = synthesize(load_arena(document))
    for graph in (bundle.inp.arena, bundle.restricted, bundle.stochastic):
        text = export_dot(graph)
        # every quote opens or closes one well-formed DOT string
        assert '"' not in _DOT_STRING.sub("", text)
        nodes = []
        for line in text.splitlines()[2:2 + len(graph.states)]:  # one line per node
            name = _DOT_STRING.match(line, 2)
            assert name and line[name.end():].startswith(" [label=" + name.group() + ",")
            nodes.append(name.group())
        assert len(set(nodes)) == len(nodes)
        unquoted = {re.sub(r"\\(.)", r"\1", node[1:-1]) for node in nodes}
        labels = {_tuple_label(v) if isinstance(v, tuple) else v for v in graph.states}
        assert unquoted == labels


def _tuple_label(v):
    # the parts joined by commas, a part with a comma or a quote as its JSON string
    parts = map(str, v)
    return ",".join(json.dumps(p, ensure_ascii=False) if "," in p or '"' in p else p for p in parts)


def test_dot_tuple_parts_with_commas_stay_apart():
    # joined with bare commas, ("x", "a,b", "a,b") and ("x,a", "b", "a,b")
    # would both be the node x,a,b,a,b
    document = {
        "states": [{"id": "x", "player": 1}, {"id": "x,a", "player": 2}],
        "init": "x",
        "ap": ["g"],
        "edges": [
            {"from": "x", "to": "x,a"}, {"from": "x", "to": "x"}, {"from": "x,a", "to": "x,a"}
        ],
        "label_true": {"x,a": ["g"]},
        "label_perceived": {},
        "objective": {"dfa": {
            "states": ["a", "b", "a,b"],
            "initial": "a",
            "accepting": ["b"],
            "transitions": [
                {"from": q, "symbol": symbol, "to": "b" if symbol or q == "b" else "a,b"}
                for q in ("a", "b", "a,b")
                for symbol in ([], ["g"])
            ],
        }},
    }
    bundle = synthesize(load_arena(document))
    assert set(bundle.restricted.states) == {("x", "a,b", "a,b"), ("x,a", "b", "a,b")}
    for graph in (bundle.restricted, bundle.stochastic):
        lines = export_dot(graph).splitlines()
        nodes = [_DOT_STRING.match(line, 2).group() for line in lines[2:4]]
        assert nodes == [r'"x,\"a,b\",\"a,b\""', r'"\"x,a\",b,\"a,b\""']


REPORT_GOLDENS = [
    (SCENARIO, "running_example", "sure", [], 0),
    (SCENARIO, "running_example", "asw", [], 0),
    (SCENARIO, "running_example", "perceptual", [], 0),
    (SCENARIO, "running_example", "verify", [], 2),
    (SCENARIO, "running_example", "simulate", ["--trials", "200"], 0),
    # wins 139 of 200, so the bytes depend on every trial's draws
    (SCENARIO, "running_example_cap5", "simulate", ["--trials", "200", "--cap", "5"], 0),
    # the 200-state corridor: every trial walks its 198-move chain to the
    # target, and one move short of it every trial is lost by the cap
    (CORRIDOR, "generated_corridor", "simulate", ["--trials", "200"], 0),
    (CORRIDOR, "generated_corridor_cap197", "simulate", ["--trials", "200", "--cap", "197"], 0),
] + [
    (GOLDEN / f"generated_{ids}_ids.json", f"generated_{ids}_ids", mode, [], 0)
    for ids in ("int", "str")  # 15 int ids; string ids with quotes, a backslash and non-ASCII
    for mode in ("sure", "asw", "perceptual")
]


@pytest.mark.parametrize(
    "scenario, name, mode, extra, status",
    REPORT_GOLDENS,
    ids=[f"{name}-{mode}" for _, name, mode, _, _ in REPORT_GOLDENS],
)
def test_report_bytes_pinned(tmp_path, scenario, name, mode, extra, status):
    # the lazily decoded regions and the report's sort order must not move a byte
    out = tmp_path / "report.json"
    assert main([str(scenario), "--mode", mode, *extra, "--out", str(out)]) == status
    assert out.read_bytes() == (GOLDEN / f"{name}_{mode}.json").read_bytes()


# Each of these shuffles puts the running example's edge 1 -> 4 before 1 -> 0,
# the one adversary choice its verify and simulate reports depend on; seeds
# 0, 1 and 2 keep those two edges in file order.
@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize(
    "scenario, name, mode, extra, status",
    REPORT_GOLDENS,
    ids=[f"{name}-{mode}" for _, name, mode, _, _ in REPORT_GOLDENS],
)
def test_reports_ignore_document_order(tmp_path, scenario, name, mode, extra, status, seed):
    # The state and edge order of a document numbers the arena, the products
    # and the restricted game; no report may depend on that numbering.  DOT
    # is left out: it lists nodes in arena order.
    document = json.loads(Path(scenario).read_text())
    rng = random.Random(seed)
    rng.shuffle(document["states"])
    rng.shuffle(document["edges"])
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(document))
    out = tmp_path / "report.json"
    assert main([str(shuffled), "--mode", mode, *extra, "--out", str(out)]) == status
    assert out.read_bytes() == (GOLDEN / f"{name}_{mode}.json").read_bytes()


# P1's state 0 has two actions that both lead one level down, to adversary
# states that reach the goal 3 by "on" or escape to the trap 4 by "off";
# escaping looks irrational to her, as the trap carries the perceived "a"
# only.  "up" comes first in the document, so a first-found tie-break would
# pick it over "down".
_TIE_DOCUMENT = {
    "states": [{"id": i, "player": 1 if i in (0, 4) else 2} for i in range(5)],
    "init": 0,
    "ap": ["a"],
    "edges": [
        {"from": 0, "to": 1, "action": "up"},
        {"from": 0, "to": 2, "action": "down"},
        {"from": 1, "to": 3, "action": "on"},
        {"from": 1, "to": 4, "action": "off"},
        {"from": 2, "to": 3, "action": "on"},
        {"from": 2, "to": 4, "action": "off"},
        {"from": 3, "to": 3, "action": "stay"},
        {"from": 4, "to": 4, "action": "stay"},
    ],
    "label_true": {"3": ["a"]},
    "label_perceived": {"4": ["a"]},
    "objective": {"formula": "F a"},
}


def test_tie_break_ignores_edge_order(tmp_path):
    # the sure and asw strategies take the smallest descending action, so
    # neither they nor the reports depend on the order of the edges
    def outcome(document):
        path = tmp_path / "tie.json"
        path.write_text(json.dumps(document))
        bundle = synthesize(load_arena(document))
        out = tmp_path / "report.json"
        reports = []
        for mode in ("sure", "asw"):
            assert main([str(path), "--mode", mode, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        first = [e["action"] for e in document["edges"] if e["from"] == 0]
        return bundle.sure_strategy, bundle.asw.strategy, reports, first

    sure, asw, reports, first = outcome(_TIE_DOCUMENT)
    (start,) = (v for v in sure if v[0] == 0)
    assert sure[start] == asw[start] == "down"
    bundle = synthesize(load_arena(_TIE_DOCUMENT))
    rg, level = bundle.restricted, bundle.asw.level
    assert [level[rg.states[j]] for j in rg.succ[rg.position(start)]] == [level[start] - 1] * 2
    orders = {tuple(first)}
    for seed in (0, 1, 2):
        document = json.loads(json.dumps(_TIE_DOCUMENT))
        random.Random(seed).shuffle(document["edges"])
        shuffled = outcome(document)
        assert shuffled[:3] == (sure, asw, reports)
        orders.add(tuple(shuffled[3]))
    assert orders == {("up", "down"), ("down", "up")}


# numbers that prefix one another, strings with quotes, a comma, a backslash,
# non-ASCII and nothing at all
TRICKY_IDS = [
    9, 10, -1, 1.5, 0, 100, -10, "9", "10", 'say "hi"', "a, b", "café", "ω", "a\\b", "Zed", ""
]


def test_report_order_is_json_text_order():
    # Sorting the laid-out texts orders states as their compact JSON texts
    # do, for bare ids of any kind and for tuples whose last component is a
    # string; each text is the encoder's layout of the state at its depth.
    pairs = [(s, q) for s in TRICKY_IDS for q in ("q0", "q10", "q2")]
    triples = [(s, q, p) for s in TRICKY_IDS for q in ("q1", "q10") for p in ("q0", "q9")]
    for states in (TRICKY_IDS, pairs, triples):
        for depth in (1, 3):
            texts = _texts(states, depth, _Components())
            for v, text in zip(states, texts):
                assert text == json.dumps(v, indent=2).replace("\n", "\n" + "  " * depth)
            by_text = [v for _, v in sorted(zip(texts, states))]
            assert by_text == sorted(states, key=json.dumps)


def _relabelled(arena, ids):
    """``arena`` with state ``i`` renamed ``ids[i]``."""
    name = dict(zip(arena.states, ids))
    return Arena(
        states=tuple(name[s] for s in arena.states),
        owner={name[s]: p for s, p in arena.owner.items()},
        transitions={
            name[s]: {a: name[d] for a, d in moves.items()}
            for s, moves in arena.transitions.items()
        },
        initial=name[arena.initial],
        ap=arena.ap,
        label_true={name[s]: ps for s, ps in arena.label_true.items()},
        label_perceived={name[s]: ps for s, ps in arena.label_perceived.items()},
    )


_OBJECTIVES = ("F a", "b U a", "F a & F b", "X F a", "F (a & b)")


@pytest.mark.parametrize("ids", ["int", "str", "tricky"])
def test_report_matches_dict_oracle(ids):
    # Every region report is byte for byte the indented, key-sorted dump of
    # the dict the reports were once built as, on random arenas.
    strategy_rows = 0
    for seed in range(40):
        rng = random.Random(seed)
        arena = random_arena(rng, max_states=len(TRICKY_IDS), max_branch=3)
        names = {
            "int": arena.states,
            "str": [f"s{i}" for i in arena.states],
            "tricky": TRICKY_IDS,
        }[ids]
        arena = _relabelled(arena, names)
        text = _OBJECTIVES[seed % len(_OBJECTIVES)]
        bundle = synthesize(HypergameInput(arena, parse_formula(text, arena.ap), text))
        for mode in ("perceptual", "sure", "asw"):
            expected = json.dumps(report_oracle(bundle, mode), indent=2, sort_keys=True)
            assert build_report(bundle, RunConfig("unused.json", mode)) == expected
        strategy_rows += len(bundle.sure_strategy) + len(bundle.asw.strategy)
    assert strategy_rows > 0


def test_asw_report_is_linear():
    # The corridor is won in n - 1 levels, so its cumulative level sets hold
    # about n * n / 2 states; one level row per state of X* keeps the report
    # linear in |X*|, and each row is a piece of its own.
    for n in (600, 2000):
        bundle = synthesize(corridor_input(n))
        assert len(bundle.asw.x_star) == n
        assert len(bundle.asw.levels) == n - 1
        pieces = list(report_pieces(bundle, "asw"))
        assert len(pieces) > n
        assert len("".join(pieces).encode()) < 300 * n


def test_unbounded_residuals_exit_code(tmp_path, capsys):
    # Nested U makes the residuals grow without bound until progression
    # overflows the stack; that is a resource cap (exit 3), not a traceback.
    # A lower recursion limit makes the same overflow arrive sooner.
    document = json.loads(SCENARIO.read_text())
    document["objective"] = {"formula": "(F A) U (F A)"}
    scenario = tmp_path / "nested_until.json"
    scenario.write_text(json.dumps(document))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        status = main([str(scenario), "--mode", "sure"])
    finally:
        sys.setrecursionlimit(limit)
    captured = capsys.readouterr()
    assert status == 3
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_deep_formula_exit_code(tmp_path, capsys):
    # A formula nested past the parser's cap is an input error (exit 1), not
    # a RecursionError traceback from the recursive-descent parser.
    document = json.loads(SCENARIO.read_text())
    document["objective"] = {"formula": "X " * 2000 + "A"}
    scenario = tmp_path / "deep_next.json"
    scenario.write_text(json.dumps(document))
    status = main([str(scenario), "--mode", "sure"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error: ")
    assert "nests deeper" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["--mode", "simulate", "--cap", "-3"], "--cap must be at least 1"),
        (["--mode", "simulate", "--cap", "0"], "--cap must be at least 1"),
        (["--mode", "simulate", "--trials", "-5"], "--trials must be at least 0"),
        (["--mode", "verify", "--cap", "-2"], "--cap must be at least 0"),
    ],
)
def test_bad_trials_or_cap_exit_code(capsys, args, message):
    status = main([str(SCENARIO), *args])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_zero_cap_is_not_the_default(capsys):
    # --cap 0 is a bound of 0, not an unset cap replaced by the default
    assert main([str(SCENARIO), "--mode", "verify", "--cap", "0"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["bound"] == 0
    assert report["verified"] is False
    assert main([str(SCENARIO), "--mode", "simulate", "--trials", "0", "--cap", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["trials"], report["win_rate"], report["cap"]) == (0, None, 1)


_EXPLICIT_DFA = {
    "states": ["q0", "q1"],
    "initial": "q0",
    "accepting": ["q1"],
    "transitions": [
        {"from": "q0", "symbol": [], "to": "q0"},
        {"from": "q0", "symbol": ["A"], "to": "q1"},
        {"from": "q1", "symbol": [], "to": "q1"},
        {"from": "q1", "symbol": ["A"], "to": "q1"},
    ],
}


def _with_dfa(document, **change):
    document["objective"] = {"dfa": {**json.loads(json.dumps(_EXPLICIT_DFA)), **change}}


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d["objective"].update(formula=5), "objective.formula"),
        (lambda d: d.update(label_true=[]), "'label_true'"),
        (lambda d: d.update(label_perceived=5), "'label_perceived'"),
        (lambda d: d["label_true"].update({"5": [["A"]]}), "label_true['5']"),
        (lambda d: d.update(init=[0]), "'init'"),
        (lambda d: d.update(init={"id": 0}), "'init'"),
        (lambda d: d["states"][3].update(id=[3]), "'id'"),
        (lambda d: d["edges"][2].update({"from": [1]}), "'from'"),
        (lambda d: d["edges"][2].update({"to": {"id": 2}}), "'to'"),
        (lambda d: d["edges"][2].update(action=[1]), "'action'"),
        # action names are strings: an int, a float or a bool is no name
        pytest.param(lambda d: d["edges"][2].update(action=1), "'action'", id="action-int"),
        pytest.param(lambda d: d["edges"][2].update(action=1.5), "'action'", id="action-float"),
        pytest.param(lambda d: d["edges"][2].update(action=True), "'action'", id="action-bool"),
        pytest.param(
            lambda d: [e.update(action=k) for k, e in enumerate(d["edges"])],
            "'action'",
            id="action-all-int",
        ),
        # labels name states by the text of their ids; init and edge ends by
        # value and JSON type, where Python has 0.0 == 0 and True == 1
        pytest.param(
            lambda d: d["states"].append({"id": "5", "player": 1}),
            "5 and '5'",
            id="ids-same-text",
        ),
        pytest.param(lambda d: d.update(init=0.0), "'init'", id="init-float"),
        pytest.param(lambda d: d["edges"][0].update({"to": True}), "'to'", id="to-bool"),
        pytest.param(lambda d: d["edges"][2].update({"from": 1.0}), "'from'", id="from-float"),
        (lambda d: d.update(edges=5), "'edges'"),
        (lambda d: d.update(edges={"from": 0, "to": 1}), "'edges'"),
        (lambda d: d.update(objective={"dfa": []}), "objective.dfa"),
        (lambda d: _with_dfa(d, transitions=5), "objective.dfa.transitions"),
        (lambda d: _with_dfa(d, transitions=[5]), "objective.dfa transition"),
        (
            lambda d: _with_dfa(d, transitions=[{"from": "q0", "symbol": "A", "to": "q1"}]),
            "objective.dfa transition",
        ),
        (
            lambda d: _with_dfa(d, transitions=[{"from": "q0", "symbol": [["A"]], "to": "q1"}]),
            "objective.dfa transition",
        ),
    ],
)
def test_malformed_document_exit_code(tmp_path, capsys, mutate, field):
    # values of the wrong JSON type are input errors naming their field, not tracebacks
    document = json.loads(SCENARIO.read_text())
    mutate(document)
    scenario = tmp_path / "malformed.json"
    scenario.write_text(json.dumps(document))
    status = main([str(scenario), "--mode", "sure"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error: ")
    assert field in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("player", ["true", "2.0", "1.0"])
def test_non_int_player_exit_code(tmp_path, capsys, player):
    document = json.loads(SCENARIO.read_text())
    document["states"][1]["player"] = json.loads(player)
    scenario = tmp_path / "player.json"
    scenario.write_text(json.dumps(document))
    status = main([str(scenario), "--mode", "sure"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error: state 1: player must be 1 or 2")
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--out", "--dot"])
def test_unwritable_output_exit_code(tmp_path, capsys, flag):
    # a report or DOT path in a missing directory is an input error, not a traceback
    missing = tmp_path / "missing" / "file"
    status = main([str(SCENARIO), "--mode", "sure", flag, str(missing)])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error: ")
    assert str(missing) in captured.err
    assert "Traceback" not in captured.err
    assert not missing.parent.exists()


def _values(value, path=()):
    """Every value in a JSON document with its path, the root's included."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _values(child, (*path, key))


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 8)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(["F A", "G A", "!A", "A U"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def _mutated_documents(draw):
    """The running example with one or two of its values changed, deleted or
    retyped.  A value is often swapped for a scalar the document holds, which
    keeps it valid often enough for the pipeline behind the loader to run."""
    document = json.loads(SCENARIO.read_text())
    for _ in range(draw(st.integers(1, 2))):
        # a field first, so that the long state and edge lists take no more
        # than their share of the mutations
        field = draw(st.sampled_from(sorted(document)))
        *head, key = draw(st.sampled_from([p for p, _ in _values(document[field], (field,))]))
        parent = document
        for step in head:
            parent = parent[step]
        kind = draw(st.sampled_from(["swap", "swap", "change", "delete", "retype"]))
        if kind == "delete":
            del parent[key]
        elif kind == "swap":
            held = [v for _, v in _values(document) if not isinstance(v, (list, dict))]
            parent[key] = draw(st.sampled_from(held))
        elif kind == "change":
            parent[key] = draw(_JSON_VALUES)
        else:
            old = parent[key]
            parent[key] = draw(st.sampled_from([str(old), [old], {"id": old}, None, 1.5, True]))
    return document


@given(document=_mutated_documents())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mutated_documents_never_raise(tmp_path_factory, document):
    # Any document, however malformed, ends in an exit status, never a traceback.
    scenario = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    scenario.write_text(json.dumps(document))
    for mode in ("perceptual", "sure", "asw", "simulate", "verify"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main([str(scenario), "--mode", mode, "--trials", "20"])
        assert status in (0, 1, 2, 3)


def test_arena_regions_solved_on_demand(running_input):
    bundle = synthesize(running_input)
    build_report(bundle, RunConfig(str(SCENARIO), "sure"))
    lazy = {"arena_regions_true", "arena_regions_perceived"}
    # a cached property is stored in the instance dict on first access
    assert not lazy & set(vars(bundle))
    report = json.loads(build_report(bundle, RunConfig(str(SCENARIO), "perceptual")))
    assert lazy <= set(vars(bundle))
    assert report["arena_level"]["true"]["win1"] == [5, 6, 7]


def test_arena_regions_match_naive_fixed_point():
    # the shortcut's target: arena states whose label alone drives the DFA
    # from its initial state into acceptance, under each labeling
    nontrivial = 0
    for seed in range(40):
        rng = random.Random(seed)
        arena = random_arena(rng, max_states=20)
        dfa = random_dfa(rng, arena.ap)
        bundle = synthesize(HypergameInput(arena, dfa))
        shortcut = {1: bundle.arena_regions_true, 2: bundle.arena_regions_perceived}
        for which, regions in shortcut.items():
            target = {
                s for s in arena.states
                if dfa.delta[(dfa.initial, arena.label(s, which))] in dfa.accepting
            }
            expected = attractor_oracle(arena, target)
            assert regions.win1 == expected
            assert regions.win2 == set(arena.states) - expected
            assert regions == solve_reachability(arena, target)[0]  # ranks too
            nontrivial += target != set() and expected != target
    assert nontrivial >= 10


def test_full_space_flag(tmp_path, capsys):
    assert main([str(SCENARIO), "--mode", "sure", "--full-space"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the full-space region contains the fragment's golden region
    region = [tuple(v) for v in report["region"]]
    for row in GOLDEN_SURE_ROWS:
        assert tuple(row) in region


def test_run_config_roundtrip():
    config = RunConfig(input_path=str(SCENARIO), mode="asw")
    assert run(config) == 0


def test_unknown_mode_rejected():
    with pytest.raises(SystemExit):
        main([str(SCENARIO), "--mode", "bogus"])
