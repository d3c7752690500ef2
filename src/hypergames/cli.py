"""Command-line front end: ingestion, pipeline orchestration, reports, DOT export.

Modes
-----
``perceptual``
    Winning regions of both perceptual games (arena-level shortcut and the
    full product solves).
``sure``
    Stealthy deceptive sure-winning region and strategy.
``asw``
    Almost-sure region with the inner level sets and strategy.
``simulate``
    Monte-Carlo validation of the almost-sure strategy from the initial state.
``verify``
    Exhaustive check of the sure strategy from the initial state (exit 2 with
    a counterexample when it fails).

Exit codes: 0 success, 1 input/schema error, 2 verification failure, 3
resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

from . import almostsure, hypergame, simulate as sim
from .arena import Arena, ArenaFormatError, HypergameInput, load_arena_file
from .product import ProductGame, build_product
from .reachsolver import Regions, Strategy, p1_strategy, solve_reachability
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
        """P1's min-action attractor strategy in the true product, derived from
        its level list on first read."""
        return p1_strategy(self.product_true.indexed(), self.regions_true.levels)

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
    target = {
        s for s in arena.states if dfa.delta[(dfa.initial, arena.label(s, which))] in dfa.accepting
    }
    regions, _s1, _s2 = solve_reachability(arena, target)
    return regions


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
    hts = hypergame.build_hts(inp, dfa, regions_true)
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


_encode = json.JSONEncoder(default=str).encode  # json.dumps(v, default=str)


def _json_order() -> Callable[[Any], str]:
    """A sort key that orders report states as their ``json.dumps`` texts do.

    The key is that text itself, joined from the encodings of a state's
    components; one key encodes each distinct component once.  Components are
    memoised by value, which is exact because a report's states come from one
    arena, whose ids are distinct as dict keys, and one DFA.
    """
    memo: dict = {}

    def encode(c: Any) -> str:
        text = memo.get(c)
        if text is None:
            text = memo[c] = _encode(c)
        return text

    def key(v: Any) -> str:
        if isinstance(v, (tuple, list)):
            return "[" + ", ".join(map(encode, v)) + "]"
        return encode(v)

    return key


def _sorted_states(states, key: Callable[[Any], str]) -> list:
    return sorted((list(v) if isinstance(v, tuple) else v for v in states), key=key)


def _strategy_rows(strategy: Strategy, key: Callable[[Any], str]) -> list[dict[str, Any]]:
    rows = [
        {"state": list(v) if isinstance(v, tuple) else v, "action": a}
        for v, a in strategy.items()
    ]
    return sorted(rows, key=lambda row: key(row["state"]))


def build_report(bundle: SynthesisBundle, config: RunConfig) -> dict[str, Any]:
    mode = config.mode
    order = _json_order()

    def states(collection) -> list:
        return _sorted_states(collection, order)

    if mode == "perceptual":
        return {
            "mode": mode,
            "arena_level": {
                "true": {
                    "win1": states(bundle.arena_regions_true.win1),
                    "win2": states(bundle.arena_regions_true.win2),
                },
                "perceived": {
                    "win1": states(bundle.arena_regions_perceived.win1),
                    "win2": states(bundle.arena_regions_perceived.win2),
                },
            },
            "product_level": {
                "true": {
                    "win1": states(bundle.regions_true.win1),
                    "win2": states(bundle.regions_true.win2),
                },
                "perceived": {
                    "win1": states(bundle.regions_perceived.win1),
                    "win2": states(bundle.regions_perceived.win2),
                },
            },
        }
    if mode == "sure":
        return {
            "mode": mode,
            "target": states(bundle.restricted.target),
            "region": states(bundle.sure_regions.win1),
            "strategy": _strategy_rows(bundle.sure_strategy, order),
        }
    if mode == "asw":
        return {
            "mode": mode,
            "x_star": states(bundle.asw.x_star),
            "levels": [states(level) for level in bundle.asw.levels],
            "strategy": _strategy_rows(bundle.asw.strategy, order),
        }
    raise ValueError(f"no report for mode {mode!r}")


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _dot_quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def _node_label(v: Any) -> str:
    if isinstance(v, tuple):
        return ",".join(str(part) for part in v)
    return str(v)


def export_dot(graph, regions=None, path: str | Path | None = None) -> str:
    """Render a game graph as deterministic DOT text.

    Node shape follows the owner (ellipse for P1, box for P2).  ``regions``
    may be a :class:`Regions` (win1 filled) or a mapping with keys
    ``true_win`` / ``perceived_win`` for the two-coloring of an arena.
    Restricted-game edges removed from the HTS are drawn dashed red and
    states unreachable from the initial state are dashed.
    """
    absorbing = None
    if isinstance(graph, almostsure.StochasticGame):
        # Drawn as its restricted game with the target absorbing and the
        # adversary's other states marked as chance nodes.
        graph, absorbing = graph.restricted, graph.target
    states = graph.states
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
    """Why ``config``'s trial count or step cap is invalid for its mode, if it is."""
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
        report = build_report(bundle, config)
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
    elif config.mode == "verify":
        bound = len(bundle.restricted.states) if config.cap is None else config.cap
        outcome = sim.verify_sure(
            bundle.restricted, bundle.sure_strategy, bundle.restricted.initial, bound=bound
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
    else:
        print(f"error: unknown mode {config.mode!r}", file=sys.stderr)
        return 1

    text = json.dumps(report, indent=2, sort_keys=True)
    if config.out:
        Path(config.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)

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
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypergames",
        description="Synthesize and validate stealthy deceptive winning strategies.",
    )
    parser.add_argument("input", help="arena/objective document (JSON)")
    parser.add_argument(
        "--mode",
        required=True,
        choices=["perceptual", "sure", "asw", "simulate", "verify"],
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--dot", help="write a DOT rendering of the relevant graph")
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--cap", type=int, help="step cap (simulate) or bound (verify)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full-space",
        action="store_true",
        help="solve over the full S x Q x Q space instead of the reachable fragment",
    )
    parser.add_argument("--dfa-cap", type=int, default=10_000)
    args = parser.parse_args(argv)
    config = RunConfig(
        input_path=args.input,
        mode=args.mode,
        out=args.out,
        dot=args.dot,
        trials=args.trials,
        cap=args.cap,
        seed=args.seed,
        full_space=args.full_space,
        dfa_cap=args.dfa_cap,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
