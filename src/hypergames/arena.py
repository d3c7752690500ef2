"""Turn-based deterministic two-player arenas with true and perceived labelings.

The input document is a JSON object::

    {
      "states": [{"id": 0, "player": 1}, ...],
      "init": 0,
      "ap": ["A"],
      "edges": [{"from": 0, "to": 1, "action": "0->1"?}, ...],
      "label_true": {"5": ["A"]},
      "label_perceived": {"2": ["A"]},
      "objective": {"formula": "F A"}   # or {"dfa": {...}}
    }

Unlisted states default to the empty label in both labelings.  Action
identifiers are strings and default to ``"src->dst"`` when omitted; a
number, a boolean or ``null`` is rejected.

Labels name states by the text of their ids, so two ids with one text, such
as ``9`` and ``"9"``, are rejected.  ``init`` and the edge ends name states by
value and JSON type: ``0.0`` or ``true`` does not name the state ``0`` or ``1``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any

from . import speclang
from .speclang import Dfa, Formula

__all__ = [
    "Adjacency",
    "Arena",
    "HypergameInput",
    "ArenaFormatError",
    "load_arena",
    "load_arena_file",
    "enabled_actions",
]

P1 = 1
P2 = 2

StateId = Any  # JSON scalar (int or str)

_TYPED = " (ids match by value and JSON type, so 0.0 is not 0 and true is not 1)"


class ArenaFormatError(ValueError):
    """Schema or structural violation in an arena document."""


@dataclass(frozen=True)
class Adjacency:
    """An arena's moves over the state indices ``0..|S|-1`` of ``Arena.states``.

    ``where`` maps a state to its index; the k-th action ``names[i][k]`` of
    state ``i`` leads to ``succ[i][k]``; ``p1[i]`` is nonzero where P1 owns
    ``i``.
    """

    where: dict[StateId, int]
    succ: list[list[int]]
    names: list[tuple[str, ...]]
    p1: bytes


@dataclass(frozen=True)
class Arena:
    states: tuple[StateId, ...]
    owner: dict[StateId, int]
    transitions: dict[StateId, dict[str, StateId]]
    initial: StateId
    ap: frozenset[str]
    label_true: dict[StateId, frozenset[str]]
    label_perceived: dict[StateId, frozenset[str]]

    def label(self, s: StateId, which: int) -> frozenset[str]:
        table = self.label_true if which == P1 else self.label_perceived
        return table.get(s, frozenset())

    @cached_property
    def adjacency(self) -> Adjacency:
        """The int adjacency, built once per arena and shared by every game over it."""
        where = {s: i for i, s in enumerate(self.states)}
        moves = [self.transitions[s] for s in self.states]
        return Adjacency(
            where=where,
            succ=[[where[dst] for dst in m.values()] for m in moves],
            names=[tuple(m) for m in moves],
            p1=bytes(self.owner[s] == P1 for s in self.states),
        )


@dataclass(frozen=True)
class HypergameInput:
    arena: Arena
    objective: Formula | Dfa
    objective_text: str | None = None


def enabled_actions(arena: Arena, s: StateId) -> frozenset[str]:
    """Actions with a defined transition at ``s``."""
    if s not in arena.transitions:
        raise ArenaFormatError(f"unknown state {s!r}")
    return frozenset(arena.transitions[s])


def _require(document: Mapping[str, Any], key: str) -> Any:
    if key not in document:
        raise ArenaFormatError(f"missing required field {key!r}")
    return document[key]


def _not_scalar(where: str, entry: Mapping[str, Any], keys: tuple[str, ...]) -> ArenaFormatError:
    """The error for an ``entry`` in which one of ``keys`` holds an array or
    an object where a state id belongs; it names the first such key."""
    key = next(k for k in keys if isinstance(entry.get(k), (list, dict)))
    return ArenaFormatError(
        f"{where} {entry!r}: {key!r} must be a string or a number, not {entry[key]!r}"
    )


def _parse_labels(
    raw: Any, by_repr: Mapping[str, StateId], ap: frozenset[str], field: str
) -> dict[StateId, frozenset[str]]:
    if not isinstance(raw, Mapping):
        raise ArenaFormatError(f"{field!r} must be an object mapping state ids to arrays")
    labels: dict[StateId, frozenset[str]] = {}
    try:  # a proposition that is an array or object: see the states loop
        for key, props in raw.items():
            if key not in by_repr:
                raise ArenaFormatError(f"{field} refers to unknown state {key!r}")
            if not isinstance(props, list):
                raise ArenaFormatError(f"{field}[{key!r}] must be an array of proposition names")
            for p in props:
                if p not in ap:
                    raise ArenaFormatError(f"{field}[{key!r}] uses undeclared proposition {p!r}")
            labels[by_repr[key]] = frozenset(props)
    except TypeError:
        raise ArenaFormatError(f"{field}[{key!r}] uses undeclared proposition {p!r}") from None
    return labels


def _parse_explicit_dfa(raw: Any, ap: frozenset[str]) -> Dfa:
    if not isinstance(raw, Mapping):
        raise ArenaFormatError("objective.dfa must be an object")
    for key in ("states", "initial", "accepting", "transitions"):
        if key not in raw:
            raise ArenaFormatError(f"objective.dfa is missing field {key!r}")
    for key in ("states", "accepting", "transitions"):
        if not isinstance(raw[key], list):
            raise ArenaFormatError(f"objective.dfa.{key} must be an array")
    states = tuple(str(q) for q in raw["states"])
    if len(set(states)) != len(states):
        raise ArenaFormatError("objective.dfa has duplicate states")
    initial = str(raw["initial"])
    accepting = frozenset(str(q) for q in raw["accepting"])
    if initial not in states or not accepting <= set(states):
        raise ArenaFormatError("objective.dfa initial/accepting not among states")
    alphabet = speclang.all_symbols(ap)
    delta: dict[tuple[str, frozenset[str]], str] = {}
    for entry in raw["transitions"]:
        try:
            src, dst, symbol = str(entry["from"]), str(entry["to"]), entry["symbol"]
            symbol = frozenset(symbol) if isinstance(symbol, list) else None
        except (KeyError, TypeError):  # not an object, or an array or object in the symbol
            symbol = None
        if symbol is None:
            raise ArenaFormatError(
                f"bad objective.dfa transition {entry!r}; need {{from, symbol: [...], to}}"
            )
        if src not in states or dst not in states:
            raise ArenaFormatError(f"objective.dfa transition uses unknown state {entry!r}")
        if not symbol <= ap:
            raise ArenaFormatError(f"objective.dfa symbol {sorted(symbol)} not over AP")
        if (src, symbol) in delta:
            raise ArenaFormatError(f"objective.dfa duplicate transition ({src}, {sorted(symbol)})")
        delta[(src, symbol)] = dst
    dfa = Dfa(
        ap=ap,
        states=states,
        alphabet=alphabet,
        delta=delta,
        initial=initial,
        accepting=accepting,
    )
    try:
        dfa.validate()
    except speclang.AlphabetError as exc:
        raise ArenaFormatError(f"objective.dfa is not a valid total absorbing DFA: {exc}") from exc
    return dfa


def load_arena(document: Mapping[str, Any]) -> HypergameInput:
    """Validate a document and build a :class:`HypergameInput`."""
    raw_states = _require(document, "states")
    if not isinstance(raw_states, list) or not raw_states:
        raise ArenaFormatError("'states' must be a non-empty array")
    states: list[StateId] = []
    owner: dict[StateId, int] = {}
    # An id that is a JSON array or object fails the dict lookups with
    # TypeError; it is caught once around the loop rather than tested per entry.
    try:
        for entry in raw_states:
            if not isinstance(entry, Mapping) or "id" not in entry or "player" not in entry:
                raise ArenaFormatError(f"bad state entry {entry!r}; need {{id, player}}")
            sid, player = entry["id"], entry["player"]
            if sid in owner:
                raise ArenaFormatError(f"duplicate state id {sid!r}")
            # a bool or a float equal to 1 or 2 would pass the membership test
            if type(player) is not int or player not in (P1, P2):
                raise ArenaFormatError(f"state {sid!r}: player must be 1 or 2, got {player!r}")
            states.append(sid)
            owner[sid] = player
    except TypeError:
        raise _not_scalar("state", entry, ("id",)) from None
    by_repr = {str(s): s for s in states}
    if len(by_repr) < len(states):  # of two ids with one text, the later is kept
        s = next(s for s in states if by_repr[str(s)] is not s)
        raise ArenaFormatError(f"state ids {s!r} and {by_repr[str(s)]!r} have the same label key")
    kind = {s: type(s) for s in states}  # references match ids by value and type

    init = _require(document, "init")
    if isinstance(init, (list, dict)) or kind.get(init) is not type(init):
        raise ArenaFormatError(f"initial state 'init' {init!r} is not a declared state{_TYPED}")

    raw_ap = _require(document, "ap")
    if not isinstance(raw_ap, list) or not all(isinstance(p, str) for p in raw_ap):
        raise ArenaFormatError("'ap' must be an array of proposition names")
    ap = frozenset(raw_ap)

    raw_edges = _require(document, "edges")
    if not isinstance(raw_edges, list):
        raise ArenaFormatError("'edges' must be an array")
    transitions: dict[StateId, dict[str, StateId]] = {s: {} for s in states}
    try:  # an end or action that is an array or object: see the states loop
        for entry in raw_edges:
            if not isinstance(entry, Mapping) or "from" not in entry or "to" not in entry:
                raise ArenaFormatError(f"bad edge entry {entry!r}; need {{from, to}}")
            src, dst = entry["from"], entry["to"]
            if kind.get(src) is not type(src):
                raise ArenaFormatError(f"edge 'from' names unknown state {src!r}{_TYPED}")
            if kind.get(dst) is not type(dst):
                raise ArenaFormatError(f"edge 'to' names unknown state {dst!r}{_TYPED}")
            action = entry.get("action", f"{src}->{dst}")
            if not isinstance(action, str):
                raise ArenaFormatError(f"edge {entry!r}: 'action' must be a string, not {action!r}")
            if action in transitions[src]:
                raise ArenaFormatError(
                    f"nondeterminism: duplicate (state, action) pair ({src!r}, {action!r})"
                )
            transitions[src][action] = dst
    except TypeError:
        raise _not_scalar("edge", entry, ("from", "to")) from None
    for s in states:
        if not transitions[s]:
            raise ArenaFormatError(f"state {s!r} has no enabled action; games are infinite-duration")

    label_true = _parse_labels(document.get("label_true", {}), by_repr, ap, "label_true")
    label_perceived = _parse_labels(
        document.get("label_perceived", {}), by_repr, ap, "label_perceived"
    )

    arena = Arena(
        states=tuple(states),
        owner=owner,
        transitions=transitions,
        initial=init,
        ap=ap,
        label_true=label_true,
        label_perceived=label_perceived,
    )

    raw_objective = _require(document, "objective")
    if not isinstance(raw_objective, Mapping):
        raise ArenaFormatError("'objective' must be an object")
    if "formula" in raw_objective:
        if not isinstance(raw_objective["formula"], str):
            raise ArenaFormatError("objective.formula must be a string")
        try:
            objective: Formula | Dfa = speclang.parse_formula(raw_objective["formula"], ap)
        except speclang.FormulaError as exc:
            raise ArenaFormatError(f"bad objective formula: {exc}") from exc
        text = raw_objective["formula"]
    elif "dfa" in raw_objective:
        objective = _parse_explicit_dfa(raw_objective["dfa"], ap)
        text = None
    else:
        raise ArenaFormatError("'objective' needs either a 'formula' or a 'dfa'")
    return HypergameInput(arena=arena, objective=objective, objective_text=text)


def load_arena_file(path: str | Path) -> HypergameInput:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ArenaFormatError(f"{path}: not valid JSON: {exc}") from exc
    return load_arena(document)


def to_document(inp: HypergameInput) -> dict[str, Any]:
    """Serialize back to the input schema (round-trips through :func:`load_arena`)."""
    arena = inp.arena
    doc: dict[str, Any] = {
        "states": [{"id": s, "player": arena.owner[s]} for s in arena.states],
        "init": arena.initial,
        "ap": sorted(arena.ap),
        "edges": [
            {"from": s, "to": dst, "action": a}
            for s in arena.states
            for a, dst in sorted(arena.transitions[s].items())
        ],
        "label_true": {str(s): sorted(ps) for s, ps in arena.label_true.items() if ps},
        "label_perceived": {
            str(s): sorted(ps) for s, ps in arena.label_perceived.items() if ps
        },
    }
    if inp.objective_text is not None:
        doc["objective"] = {"formula": inp.objective_text}
    else:
        dfa = inp.objective
        assert isinstance(dfa, Dfa)
        doc["objective"] = {
            "dfa": {
                "states": list(dfa.states),
                "initial": dfa.initial,
                "accepting": sorted(dfa.accepting),
                "transitions": [
                    {"from": q, "symbol": sorted(sigma), "to": dfa.delta[(q, sigma)]}
                    for q in dfa.states
                    for sigma in dfa.alphabet
                ],
            }
        }
    return doc
