"""Command-line front end: ingestion, pipeline orchestration, reports, DOT export.

Modes
-----
``perceptual``
    Winning regions of both perceptual games (arena-level shortcut and the
    full product solves).
``sure``
    Stealthy deceptive sure-winning region and strategy.
``asw``
    Almost-sure region X*, each state's level and the strategy; the level set
    ``Y_i`` is the states of level at most ``i``.
``simulate``
    Monte-Carlo validation of the almost-sure strategy from the initial state.
``verify``
    Exhaustive check of the sure strategy from the initial state (exit 2 with
    a counterexample when it fails).

The ``perceptual``, ``sure`` and ``asw`` reports are streamed: rendered in
pieces, each state's text joined once, and written to ``--out`` or stdout as
they come, byte for byte what ``json.dumps(report, indent=2, sort_keys=True)``
would write; each is linear in the states it lists.  ``simulate`` and
``verify`` dump their few fields with ``json.dumps``.

Exit codes: 0 success, 1 input/schema error (or an ``--out`` or ``--dot`` path
that cannot be written), 2 verification failure, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Any, Iterable, Iterator

from . import almostsure, hypergame, simulate as sim
from .arena import Arena, ArenaFormatError, HypergameInput, load_arena_file
from .product import ProductGame, build_product
from .reachsolver import Regions, Strategy, _attractor, _predecessors, solve_reachability
from .speclang import Dfa, DfaSizeError, Formula, FormulaError, compile_to_dfa

__all__ = ["RunConfig", "SynthesisBundle", "synthesize", "run", "export_dot", "main"]


@dataclass
class RunConfig:
    input_path: str
    mode: str
    out: str | None = None
    dot: str | None = None
    trials: int = 10_000
    cap: int | None = None
    seed: int = 0
    full_space: bool = False
    dfa_cap: int = 10_000


@dataclass
class SynthesisBundle:
    """All artifacts of one end-to-end synthesis run."""

    inp: HypergameInput
    dfa: Dfa
    product_true: ProductGame
    product_perceived: ProductGame
    regions_true: Regions
    regions_perceived: Regions
    hts: hypergame.Hts
    sr: hypergame.SrActionMap
    restricted: hypergame.RestrictedGame
    sure_regions: Regions
    sure_strategy: Strategy
    stochastic: almostsure.StochasticGame
    asw: almostsure.AswResult

    @cached_property
    def true_strategy(self) -> Strategy:
        """P1's min-action attractor strategy in the true product, solved on
        first read."""
        return solve_reachability(self.product_true, self.product_true.target)[1]

    # The arena-level shortcut regions are read only by the perceptual report
    # and its DOT rendering, so they are solved on first access.
    @cached_property
    def arena_regions_true(self) -> Regions:
        return _arena_shortcut_regions(self.inp.arena, self.dfa, 1)

    @cached_property
    def arena_regions_perceived(self) -> Regions:
        return _arena_shortcut_regions(self.inp.arena, self.dfa, 2)


def _arena_shortcut_regions(arena: Arena, dfa: Dfa, which: int) -> Regions:
    # Target-marking shortcut: arena states whose label alone drives the
    # automaton from its initial state into acceptance.  Exact for plain
    # reachability automata; reported alongside the product-level solves.
    seeded = bytes(
        dfa.delta[(dfa.initial, arena.label(s, which))] in dfa.accepting for s in arena.states
    )
    adj = arena.adjacency
    seeds = compress(range(len(seeded)), seeded)
    return Regions(_attractor(_predecessors(adj.succ, seeded), adj.p1, seeds), arena)


def synthesize(inp: HypergameInput, dfa_cap: int = 10_000, full_space: bool = False) -> SynthesisBundle:
    """Run the whole pipeline on a validated input."""
    if isinstance(inp.objective, Dfa):
        dfa = inp.objective
    else:
        dfa = compile_to_dfa(inp.objective, inp.arena.ap, max_states=dfa_cap)
    product_true = build_product(inp.arena, 1, dfa)
    product_perceived = build_product(inp.arena, 2, dfa)
    regions_true = product_true.solve()
    regions_perceived = product_perceived.solve()
    hts = hypergame.build_hts(product_true, product_perceived, regions_true)
    sr = hypergame.build_sr_map(product_perceived, regions_perceived)
    restricted = hypergame.build_restricted_game(hts, sr, reachable_only=not full_space)
    sure_regions, sure_strategy = hypergame.solve_deceptive_sure(restricted)
    stochastic = almostsure.build_stochastic_game(restricted)
    asw = almostsure.solve_asw(stochastic)
    return SynthesisBundle(
        inp=inp,
        dfa=dfa,
        product_true=product_true,
        product_perceived=product_perceived,
        regions_true=regions_true,
        regions_perceived=regions_perceived,
        hts=hts,
        sr=sr,
        restricted=restricted,
        sure_regions=sure_regions,
        sure_strategy=sure_strategy,
        stochastic=stochastic,
        asw=asw,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


# A report is laid out as ``json.dumps(report, indent=2, sort_keys=True)``
# would lay it out, without building it as a dict: with ``indent`` set that
# encoder runs in pure Python and holds every chunk before joining them.  Each
# state's text is joined once from memoised component encodings, the texts are
# sorted as strings, and the report is written in pieces.

_encode = json.JSONEncoder(default=str).encode  # json.dumps(v, default=str)


def _pad(depth: int) -> str:
    """The line break and indent that precede an item at nesting ``depth``."""
    return "\n" + "  " * depth


class _Components(dict):
    """Compact JSON encodings of state components, memoised by value.

    That is exact because a report's states come from one arena, whose ids
    are distinct as dict keys, and one DFA, whose state names are strings.
    Row values, levels and action names, have their own instance per mapping:
    the action ``true`` and the id ``1`` are equal as keys but encode
    differently.
    """

    def __missing__(self, c: Any) -> str:
        text = self[c] = _encode(c)
        return text


def _texts(states: Iterable, depth: int, encodings: _Components) -> list[str]:
    """The texts of ``states``, in their order, laid out at nesting ``depth``.

    A tuple state is an array with one component a line.  Components, and a
    state that is not a tuple, are JSON scalars, as a document's ids are; their
    compact encoding is their indented one.

    Sorted as strings, texts of tuples of one length keep the order of their
    compact texts, the order reports use, as long as the last component
    encodes as a JSON string: every other component is followed by a comma in
    both layouts, and no JSON string is a prefix of another.  A DFA state name
    is a string (the compiler names states ``q<n>``, the explicit-DFA loader
    applies ``str``).  A numeric last component breaks the order: compactly
    ``[9, 100]`` sorts before ``[9, 10]``, laid out here after it.
    """
    pad = _pad(depth + 1)
    head, sep, tail = "[" + pad, "," + pad, _pad(depth) + "]"
    get = encodings.__getitem__
    return [
        head + sep.join(map(get, v)) + tail if isinstance(v, tuple) else get(v) for v in states
    ]


def _array(items: Iterable[str], depth: int) -> str:
    """A JSON array at nesting ``depth`` of item texts laid out one level deeper."""
    pad = _pad(depth + 1)
    body = ("," + pad).join(items)
    return "[" + pad + body + _pad(depth) + "]" if body else "[]"


def _object(fields: dict[str, str | Iterable[str]], depth: int) -> Iterator[str]:
    """The pieces of a JSON object at nesting ``depth``, its keys sorted.

    Each value is a finished text or an iterable of the pieces of one.
    """
    pad = _pad(depth + 1)
    opening = "{"
    for key in sorted(fields):
        yield opening + pad + _encode(key) + ": "
        value = fields[key]
        if isinstance(value, str):
            yield value
        else:
            yield from value
        opening = ","
    yield _pad(depth) + "}"


def _rows(mapping: dict, key: str, encodings: _Components) -> Iterator[str]:
    """The pieces of a mapping from states as a top-level field: a
    ``{key: value, "state": state}`` object per state, in the states' order,
    one object a piece.  ``key`` must sort before ``"state"``."""
    pad = _pad(3)
    head, tail, close = "{" + pad + _encode(key) + ": ", "," + pad + '"state": ', _pad(2) + "}"
    values = _Components()  # exact: the values are all int levels or all string actions
    opening, sep = "[" + _pad(2), "," + _pad(2)
    for state, value in sorted(zip(_texts(mapping, 3, encodings), mapping.values())):
        yield f"{opening}{head}{values[value]}{tail}{state}{close}"
        opening = sep
    yield _pad(1) + "]" if mapping else "[]"


def report_pieces(bundle: SynthesisBundle, mode: str) -> Iterator[str]:
    """The report of a region mode (``perceptual``, ``sure`` or ``asw``) in pieces.

    Joined, they are the report's ``json.dumps(..., indent=2, sort_keys=True)``
    text, with every array of states, and every array of strategy or level
    rows, in the order of their states' compact JSON texts (see :func:`_texts`).
    Rows come one a piece.
    """
    encodings = _Components()

    def states(collection, depth: int) -> str:
        return _array(sorted(_texts(collection, depth + 1, encodings)), depth)

    def solved(true: Regions, perceived: Regions) -> Iterator[str]:
        return _object(
            {
                label: _object(
                    {"win1": states(regions.win1, 3), "win2": states(regions.win2, 3)}, 2
                )
                for label, regions in (("true", true), ("perceived", perceived))
            },
            1,
        )

    fields: dict[str, str | Iterable[str]]
    if mode == "perceptual":
        fields = {
            "arena_level": solved(bundle.arena_regions_true, bundle.arena_regions_perceived),
            "product_level": solved(bundle.regions_true, bundle.regions_perceived),
        }
    elif mode == "sure":
        fields = {
            "target": states(bundle.restricted.target, 1),
            "region": states(bundle.sure_regions.win1, 1),
            "strategy": _rows(bundle.sure_strategy, "action", encodings),
        }
    elif mode == "asw":
        fields = {
            "x_star": states(bundle.asw.x_star, 1),
            "level": _rows(bundle.asw.level, "level", encodings),  # its keys are exactly X*
            "strategy": _rows(bundle.asw.strategy, "action", encodings),
        }
    else:
        raise ValueError(f"no report for mode {mode!r}")
    fields["mode"] = _encode(mode)
    return _object(fields, 0)


def build_report(bundle: SynthesisBundle, config: RunConfig) -> str:
    """The report text of a region mode, as :func:`run` writes it, without the
    final newline."""
    return "".join(report_pieces(bundle, config.mode))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_quote(text: str) -> str:
    # the backslash first, so that a trailing one cannot escape the closing quote
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_label(v: Any) -> str:
    # A tuple's parts joined by commas, each part that holds a comma or a
    # quote written as its JSON string, so that no two tuples share a label.
    if isinstance(v, tuple):
        parts = (str(part) for part in v)
        return ",".join(
            json.dumps(part, ensure_ascii=False) if "," in part or '"' in part else part
            for part in parts
        )
    return str(v)


def export_dot(graph, regions=None, path: str | Path | None = None) -> str:
    """Render a game graph as deterministic DOT text.

    Node shape follows the owner (ellipse for P1, box for P2).  ``regions``
    may be a :class:`Regions` (win1 filled) or a mapping with keys
    ``true_win`` / ``perceived_win`` for the two-coloring of an arena.
    Restricted-game edges removed from the HTS are drawn dashed red and
    states unreachable from the initial state are dashed.  Nodes come in the
    order of the graph's states; a restricted game's come in HTS code order,
    whatever order its search numbered them in.
    """
    absorbing = None
    if isinstance(graph, almostsure.StochasticGame):
        # Drawn as its restricted game with the target absorbing and the
        # adversary's other states marked as chance nodes.
        graph, absorbing = graph.restricted, graph.target
    states = graph.states
    if isinstance(graph, hypergame.RestrictedGame):
        states = sorted(states, key=graph.hts.code)
    owner = graph.owner
    transitions = graph.transitions
    initial = graph.initial
    if absorbing is None:
        removed = getattr(graph, "removed", {})
        chance: frozenset = frozenset()
    else:
        transitions = {v: {} if v in absorbing else transitions[v] for v in states}
        removed = {}
        chance = frozenset(v for v in states if owner[v] == 2 and v not in absorbing)

    fills: dict[Any, str] = {}
    if isinstance(regions, Regions):
        for v in regions.win1:
            fills[v] = "lightblue"
    elif isinstance(regions, dict):
        for v in regions.get("true_win", ()):
            fills[v] = "lightblue"
        for v in regions.get("perceived_win", ()):
            fills[v] = "lightcoral"

    seen = hypergame._forward_closure(initial, transitions.__getitem__)

    lines = ["digraph game {", "  rankdir=LR;"]
    for v in states:
        attrs = [f"label={_dot_quote(_node_label(v))}"]
        attrs.append("shape=" + ("box" if owner[v] == 2 else "ellipse"))
        style = []
        if v in fills:
            style.append("filled")
            attrs.append(f"fillcolor={fills[v]}")
        if v not in seen:
            style.append("dashed")
        if v in chance:
            attrs.append("peripheries=1")
        if style:
            attrs.append(f'style="{",".join(style)}"')
        lines.append(f"  {_dot_quote(_node_label(v))} [{', '.join(attrs)}];")
    for v in states:
        for a in sorted(transitions[v]):
            dst = transitions[v][a]
            lines.append(
                f"  {_dot_quote(_node_label(v))} -> {_dot_quote(_node_label(dst))}"
                f" [label={_dot_quote(a)}];"
            )
        for a in sorted(removed.get(v, {})):
            dst = removed[v][a]
            lines.append(
                f"  {_dot_quote(_node_label(v))} -> {_dot_quote(_node_label(dst))}"
                f" [label={_dot_quote(a)}, style=dashed, color=red];"
            )
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _argument_error(config: RunConfig) -> str | None:
    """Why ``config``'s DFA cap, trial count or step cap is invalid, if it is."""
    if config.dfa_cap < 1:
        return f"--dfa-cap must be at least 1, got {config.dfa_cap}"
    if config.mode == "simulate":
        if config.trials < 0:
            return f"--trials must be at least 0, got {config.trials}"
        if config.cap is not None and config.cap < 1:
            return f"--cap must be at least 1 in simulate mode, got {config.cap}"
    elif config.mode == "verify" and config.cap is not None and config.cap < 0:
        return f"--cap must be at least 0 in verify mode, got {config.cap}"
    return None


def run(config: RunConfig) -> int:
    """Execute one CLI invocation; returns the process exit status."""
    problem = _argument_error(config)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    try:
        inp = load_arena_file(config.input_path)
    except (OSError, ArenaFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        bundle = synthesize(inp, dfa_cap=config.dfa_cap, full_space=config.full_space)
    except DfaSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except FormulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    status = 0
    if config.mode in ("perceptual", "sure", "asw"):
        pieces = report_pieces(bundle, config.mode)
    elif config.mode == "simulate":
        cap = 100 * len(bundle.restricted.states) if config.cap is None else config.cap
        stats = sim.simulate_asw(
            bundle.stochastic,
            bundle.asw.strategy,
            bundle.stochastic.initial,
            trials=config.trials,
            cap=cap,
            seed=config.seed,
            sr=bundle.sr,
        )
        report = {
            "mode": "simulate",
            "start": list(bundle.stochastic.initial),
            "in_almost_sure_region": bundle.stochastic.initial in bundle.asw.x_star,
            "trials": stats.trials,
            "wins": stats.wins,
            "losses_by_cap": stats.losses_by_cap,
            "win_rate": stats.win_rate,
            "stealth_violations": stats.stealth_violations,
            "seed": stats.seed,
            "cap": cap,
        }
        pieces = [json.dumps(report, indent=2, sort_keys=True)]
    elif config.mode == "verify":
        outcome = sim.verify_sure(
            bundle.restricted, bundle.sure_strategy, bundle.restricted.initial, bound=config.cap
        )
        report = {
            "mode": "verify",
            "start": list(bundle.restricted.initial),
            "verified": outcome.verified,
            "bound": outcome.bound,
            "states_explored": outcome.states_explored,
            "counterexample": (
                None
                if outcome.counterexample is None
                else {
                    "states": [list(v) for v in outcome.counterexample.states],
                    "actions": list(outcome.counterexample.actions),
                }
            ),
        }
        if not outcome.verified:
            status = 2
        pieces = [json.dumps(report, indent=2, sort_keys=True)]
    else:
        print(f"error: unknown mode {config.mode!r}", file=sys.stderr)
        return 1

    try:
        target = open(config.out, "w", encoding="utf-8") if config.out else nullcontext(sys.stdout)
        with target as handle:
            handle.writelines(pieces)
            handle.write("\n")
        if config.dot:
            if config.mode == "perceptual":
                export_dot(
                    bundle.inp.arena,
                    {
                        "true_win": bundle.arena_regions_true.win1,
                        "perceived_win": bundle.arena_regions_perceived.win1,
                    },
                    config.dot,
                )
            elif config.mode == "asw":
                export_dot(bundle.stochastic, None, config.dot)
            else:
                export_dot(bundle.restricted, bundle.sure_regions, config.dot)
    except OSError as exc:  # an --out or --dot path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypergames",
        description="Synthesize and validate stealthy deceptive winning strategies.",
    )
    parser.add_argument("input_path", metavar="input", help="arena/objective document (JSON)")
    parser.add_argument(
        "--mode",
        required=True,
        choices=["perceptual", "sure", "asw", "simulate", "verify"],
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--dot", help="write a DOT rendering of the relevant graph")
    parser.add_argument("--trials", type=int, default=RunConfig.trials)
    parser.add_argument("--cap", type=int, help="step cap (simulate) or bound (verify)")
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument(
        "--full-space",
        action="store_true",
        help="solve over the full S x Q x Q space instead of the reachable fragment",
    )
    parser.add_argument("--dfa-cap", type=int, default=RunConfig.dfa_cap)
    config = RunConfig(**vars(parser.parse_args(argv)))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
