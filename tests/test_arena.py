import copy
import json

import pytest

from hypergames.arena import (
    ArenaFormatError,
    enabled_actions,
    load_arena,
    load_arena_file,
    to_document,
)
from hypergames.speclang import Dfa, Eventually, Atom

from conftest import SCENARIO


@pytest.fixture()
def doc():
    return json.loads(SCENARIO.read_text())


def test_load_running_example(doc):
    inp = load_arena(doc)
    arena = inp.arena
    assert arena.states == tuple(range(8))
    assert arena.initial == 0
    assert {s for s in arena.states if arena.owner[s] == 2} == {1, 4, 7}
    assert sum(len(t) for t in arena.transitions.values()) == 15
    assert arena.label(5, 1) == {"A"}
    assert arena.label(5, 2) == frozenset()
    assert arena.label(2, 2) == {"A"}
    assert inp.objective == Eventually(Atom("A"))
    assert inp.objective_text == "F A"


def test_default_action_names(doc):
    arena = load_arena(doc).arena
    assert arena.transitions[1] == {"1->0": 0, "1->2": 2, "1->4": 4}


def test_enabled_actions(doc):
    arena = load_arena(doc).arena
    assert enabled_actions(arena, 0) == {"0->1"}
    with pytest.raises(ArenaFormatError):
        enabled_actions(arena, 99)


def test_round_trip(doc):
    inp = load_arena(doc)
    again = load_arena(to_document(inp))
    assert again.arena == inp.arena
    assert again.objective == inp.objective


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("states"), "missing required field"),
        (lambda d: d.pop("init"), "missing required field"),
        (lambda d: d["states"].append({"id": 0, "player": 1}), "duplicate state id"),
        (lambda d: d["states"].append({"id": 9, "player": 3}), "player must be 1 or 2"),
        (lambda d: d.update(init=42), "not a declared state"),
        (lambda d: d["edges"].append({"from": 99, "to": 0}), "unknown state"),
        (lambda d: d["edges"].append({"from": 0, "to": 99}), "unknown state"),
        (
            lambda d: d["edges"].append({"from": 0, "to": 2, "action": "0->1"}),
            "nondeterminism",
        ),
        (lambda d: d["label_true"].update({"5": ["Z"]}), "undeclared proposition"),
        (lambda d: d["label_true"].update({"99": ["A"]}), "unknown state"),
        (lambda d: d.update(objective={}), "'objective' needs"),
        (lambda d: d.update(objective={"formula": "F ("}), "bad objective formula"),
        (lambda d: d.update(objective={"formula": "F Z"}), "bad objective formula"),
    ],
)
def test_schema_violations(doc, mutate, fragment):
    bad = copy.deepcopy(doc)
    mutate(bad)
    with pytest.raises(ArenaFormatError, match=fragment):
        load_arena(bad)


@pytest.mark.parametrize("player", [True, 2.0, 1.0], ids=["true", "2.0", "1.0"])
def test_non_int_player_rejected(doc, player):
    # equal to 1 or 2, but not a JSON integer: the owner map would hold it
    bad = copy.deepcopy(doc)
    sid = bad["states"][0]["id"]
    bad["states"][0]["player"] = player
    with pytest.raises(ArenaFormatError, match=f"state {sid!r}: player must be 1 or 2"):
        load_arena(bad)


def test_state_without_actions_rejected(doc):
    bad = copy.deepcopy(doc)
    bad["states"].append({"id": 9, "player": 1})
    with pytest.raises(ArenaFormatError, match="no enabled action"):
        load_arena(bad)


def test_explicit_dfa_objective(doc):
    doc["objective"] = {
        "dfa": {
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
    }
    inp = load_arena(doc)
    assert isinstance(inp.objective, Dfa)
    assert inp.objective_text is None
    assert inp.objective.accepting == {"q1"}


def test_explicit_dfa_must_be_total_and_absorbing(doc):
    base = {
        "states": ["q0", "q1"],
        "initial": "q0",
        "accepting": ["q1"],
        "transitions": [
            {"from": "q0", "symbol": [], "to": "q0"},
            {"from": "q0", "symbol": ["A"], "to": "q1"},
            {"from": "q1", "symbol": [], "to": "q1"},
            {"from": "q1", "symbol": ["A"], "to": "q0"},  # escapes acceptance
        ],
    }
    doc["objective"] = {"dfa": base}
    with pytest.raises(ArenaFormatError, match="absorbing"):
        load_arena(doc)
    partial = copy.deepcopy(base)
    partial["transitions"] = partial["transitions"][:3]
    partial["transitions"][-1] = {"from": "q1", "symbol": [], "to": "q1"}
    doc["objective"] = {"dfa": partial}
    with pytest.raises(ArenaFormatError):
        load_arena(doc)


def test_load_arena_file_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ArenaFormatError, match="not valid JSON"):
        load_arena_file(p)
