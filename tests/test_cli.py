import json
import sys
from pathlib import Path

import pytest

from hypergames.cli import (
    RunConfig,
    _json_order,
    _sorted_states,
    _strategy_rows,
    build_report,
    export_dot,
    main,
    run,
    synthesize,
)

from conftest import SCENARIO

GOLDEN = Path(__file__).parent / "golden"

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
    assert report["levels"][0] == [[5, "q1", "q0"], [6, "q1", "q0"], [7, "q1", "q0"]]
    assert len(report["levels"]) == 4
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
    ):
        assert export_dot(graph, regions) == (GOLDEN / name).read_text(encoding="utf-8")


REPORT_GOLDENS = [
    (SCENARIO, "running_example", "sure", [], 0),
    (SCENARIO, "running_example", "asw", [], 0),
    (SCENARIO, "running_example", "perceptual", [], 0),
    (SCENARIO, "running_example", "verify", [], 2),
    (SCENARIO, "running_example", "simulate", ["--trials", "200"], 0),
    # wins 149 of 200, so the bytes depend on every trial's draws
    (SCENARIO, "running_example_cap5", "simulate", ["--trials", "200", "--cap", "5"], 0),
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


def test_report_order_is_json_text_order():
    ids = [9, 10, -1, 1.5, 0, 100, -10, "9", "10", 'say "hi"', "café", "ω", "a\\b", "Zed", ""]
    pairs = [(s, q) for s in ids for q in ("q0", "q10", "q2")]
    triples = [(s, q, p) for s in ids for q in ("q1", "q10") for p in ("q0", "q9")]

    def dumps(v):
        return json.dumps(v, default=str)

    for states in (ids, pairs, triples):
        key = _json_order()
        for v in states:
            assert key(v) == dumps(v)
        expected = sorted((list(v) if isinstance(v, tuple) else v for v in states), key=dumps)
        assert _sorted_states(states, _json_order()) == expected
        strategy = {v: f"a{n}" for n, v in enumerate(states)}
        rows = _strategy_rows(strategy, _json_order())
        assert rows == sorted(rows, key=lambda row: dumps(row["state"]))
        assert [row["state"] for row in rows] == expected


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


def test_arena_regions_solved_on_demand(running_input):
    bundle = synthesize(running_input)
    build_report(bundle, RunConfig(str(SCENARIO), "sure"))
    lazy = {"arena_regions_true", "arena_regions_perceived"}
    # a cached property is stored in the instance dict on first access
    assert not lazy & set(vars(bundle))
    report = build_report(bundle, RunConfig(str(SCENARIO), "perceptual"))
    assert lazy <= set(vars(bundle))
    assert report["arena_level"]["true"]["win1"] == [5, 6, 7]


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
