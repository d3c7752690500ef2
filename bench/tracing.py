"""Spans and counters recorded around the package's public functions.

:func:`install` replaces each traced function by a wrapper in every loaded
``hypergames`` module that holds it, so calls made through names another
module imported (``cli`` and ``hypergame`` calling ``solve_reachability``,
``almostsure`` calling ``hypergame.build_restricted_game``) are traced too.
Spans stay in memory as ``(name, start, end, parent)``, in CPU seconds, until
the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

# (module, function, span name or None for a count-only wrapper,
#  count name or None, how to count a result or None to count calls)
TRACED: tuple[tuple[str, str, str | None, str | None, Callable[[Any], int] | None], ...] = (
    ("cli", "synthesize", "cli.synthesize", None, None),
    ("speclang", "compile_to_dfa", "speclang.compile", "speclang.dfa_transitions",
     lambda dfa: len(dfa.delta)),
    ("product", "build_product", "product.build", "product.states", lambda g: len(g.states)),
    ("reachsolver", "solve_reachability", "reachsolver.solve", "reachsolver.calls", None),
    ("hypergame", "build_hts", "hypergame.build_hts", "hypergame.hts_states",
     lambda hts: len(hts.states)),
    ("hypergame", "build_sr_map", "hypergame.build_sr_map", None, None),
    ("hypergame", "build_restricted_game", "hypergame.build_restricted_game",
     "hypergame.build_restricted_game_calls", None),
    ("hypergame", "solve_deceptive_sure", "hypergame.solve_deceptive_sure", None, None),
    ("almostsure", "build_stochastic_game", "almostsure.build_stochastic_game", None, None),
    ("almostsure", "solve_asw", "almostsure.solve_asw", None, None),
    # pre_step runs once per inner round of solve_asw; it is counted but has
    # no span, so its time stays in solve_asw's self time.
    ("almostsure", "pre_step", None, "almostsure.pre_step_calls", None),
    ("simulate", "simulate_asw", "simulate.simulate_asw", None, None),
    ("simulate", "audit_stealth", "simulate.audit_stealth", "simulate.audit_stealth_calls", None),
    ("simulate", "verify_sure", "simulate.verify_sure", "simulate.verify_states_explored",
     lambda report: report.states_explored),
    ("cli", "build_report", "cli.build_report", None, None),
)

# Functions whose tracemalloc peak is taken, only in the allocation pass.
ALLOC = {"hypergame.build_hts": "hypergame.build_hts_alloc_mb",
         "almostsure.solve_asw": "almostsure.solve_asw_alloc_mb"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    alloc_mb: dict[str, float] = field(default_factory=dict)
    alloc: bool = False
    _stack: list[int] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, fn: Callable, span: str | None, count: str | None,
             measure: Callable[[Any], int] | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None and measure is None:
                self.counts[count] += 1
            if span is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = Span(span, time.process_time(), 0.0, parent)
            self.spans.append(record)
            self._stack.append(index)
            peak = self.alloc and span in ALLOC
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak:
                    self.alloc_mb[ALLOC[span]] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
                record.end = time.process_time()
            if count is not None and measure is not None:
                self.counts[count] += measure(result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Each span name's summed duration minus the time of its child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - child[i]
        return dict(out)

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap every function of :data:`TRACED` wherever a ``hypergames`` module holds it."""
    import hypergames  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "hypergames" or name.startswith("hypergames."))]
    for module_name, fn_name, span, count, measure in TRACED:
        original = getattr(sys.modules[f"hypergames.{module_name}"], fn_name)
        wrapped = tracer.wrap(original, span, count, measure)
        for m in modules:
            if getattr(m, fn_name, None) is original:
                setattr(m, fn_name, wrapped)
