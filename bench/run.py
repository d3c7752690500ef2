#!/usr/bin/env python3
"""Benchmark of the synthesis pipeline, one workload per process.

Usage, from the repository root::

    python3 bench/run.py --workload random-sparse --seed 1 --seconds 25 --trace 0

The workload is generated from ``--seed`` and written as a scenario file; the
program only reads that file.  The run then repeats whole rounds until
``--seconds`` of rounds have been measured.  A round is:

* ``SETUP_LOADS`` calls of ``load_arena_file`` on the scenario (``setup_s``);
* one ``synthesize`` of the loaded input (``solve_s``);
* one ``hypergames --mode sure`` child process (``cli_sure_s``,
  ``cli_peak_rss_mb``);
* ``SIM_CALLS`` calls of ``simulate_asw`` from the initial state, each with
  its own simulation seed (``simulate_trials_per_s``, one sample per call);
* one ``verify_sure`` from the initial state.

The initial state lies in X* outside the target on every workload (the
checks require it), so both calls have work to do from it.

Every call is one attempted operation.  On ``corridor`` the ``verify_sure``
call fails every time with ``RecursionError``, as ``verify_sure`` recurses once
per step; it is counted in ``failed``.  The first round's outputs are checked
by ``checks.py``; later rounds must reproduce them.

Times are CPU seconds (``process_time``, and the child's user and system time
from ``wait4``), put at the reference speed: the machine's speed drifts by up
to 2x over seconds to minutes, in CPU time as in wall time, so a :func:`probe`
is taken between groups of operations and each sample is scaled by
``PROBE_REFERENCE_S`` over the probes nearest to it (see :meth:`Run.scaled`).
Each end-to-end metric is the median of the run's scaled samples.

``--trace 1`` runs three rounds instead: an untraced one, one with spans
around the package's public functions (per-layer self times and counts), and
one that also takes tracemalloc peaks.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hypergames import cli, simulate  # noqa: E402
from hypergames.arena import load_arena_file  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LOADS = 5
SIM_CALLS = 16
# Trials per simulate_asw call, so that a round's simulation takes about half a second.
TRIALS_PER_CALL = {"random-sparse": 40, "random-conj": 128, "corridor": 16}
# random-conj is defined by a reachable HTS under a tenth of S x Q x Q.
MAX_HTS_SHARE = {"random-sparse": 1.0, "random-conj": 0.1}

# The reference task of :func:`probe`, and the CPU seconds it takes on the
# reference machine in its fast phase; times are reported at that speed.
PROBE_INSERTS = 150_000
PROBE_DOCUMENT = json.dumps([{"id": i, "player": 1 + i % 2, "to": [i + 1, 7 * i % 1000]}
                             for i in range(40_000)])
PROBE_REFERENCE_S = 0.07

# name -> (unit, whether higher is better)
END_TO_END = {
    "setup_s": ("s", False),
    "solve_s": ("s", False),
    "cli_sure_s": ("s", False),
    "cli_peak_rss_mb": ("MB", False),
    "simulate_trials_per_s": ("trials/s", True),
}
SELF_TIMES = (
    "speclang.compile", "product.build", "reachsolver.solve", "hypergame.build_hts",
    "hypergame.build_sr_map", "hypergame.build_restricted_game",
    "hypergame.solve_deceptive_sure", "almostsure.build_stochastic_game",
    "almostsure.solve_asw", "simulate.simulate_asw", "simulate.audit_stealth",
    "simulate.verify_sure", "cli.build_report",
)
COUNTS = (
    "speclang.dfa_transitions", "product.states", "reachsolver.calls", "hypergame.hts_states",
    "hypergame.build_restricted_game_calls", "almostsure.pre_step_calls",
    "simulate.audit_stealth_calls", "simulate.verify_states_explored",
)


def timed(fn, *args, **kwargs):
    """``fn``'s result and the CPU seconds it took."""
    start = time.process_time()
    result = fn(*args, **kwargs)
    return result, time.process_time() - start


def probe() -> float:
    """CPU seconds of a fixed reference task made of the two kinds of work the
    pipeline spends most time in: tuple-keyed dict inserts, as in its graph
    builds, and a JSON parse, as in loading a scenario.  It calls nothing of
    the package.  Taken between groups of operations, it measures how fast
    the machine runs at that moment."""
    gc.collect()
    # With the collector off the probe's time does not depend on how many
    # objects the run holds.
    gc.disable()
    try:
        start = time.process_time()
        table = {}
        for i in range(PROBE_INSERTS):
            table[(i, "q")] = i
        json.loads(PROBE_DOCUMENT)
        return time.process_time() - start
    finally:
        gc.enable()


def run_cli(scenario: Path, report: Path) -> tuple[bool, float, float]:
    """Run ``hypergames --mode sure`` as a child; returns (ok, CPU seconds, peak RSS in MB).

    The child runs the CLI through ``cli_peak.py``, which writes its own peak
    RSS; the CPU seconds are the child's user and system time from ``wait4``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    peak = report.with_suffix(".peak")
    command = [sys.executable, str(BENCH / "cli_peak.py"), str(peak), str(scenario),
               "--mode", "sure", "--out", str(report)]
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = int(peak.read_text(encoding="ascii")) / 1024
    peak.unlink()
    return child.returncode == 0, usage.ru_utime + usage.ru_stime, rss_mb


def fingerprint(bundle) -> str:
    """Digest of the outputs every round must reproduce."""
    parts = (
        sorted(bundle.restricted.target, key=repr),
        sorted(bundle.sure_regions.win1, key=repr),
        sorted(bundle.sure_strategy.items(), key=repr),
        sorted(bundle.asw.x_star, key=repr),
        sorted(bundle.asw.strategy.items(), key=repr),
        len(bundle.asw.levels),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def shape(name: str, bundle) -> dict:
    arena, dfa, hts = bundle.inp.arena, bundle.dfa, bundle.hts
    return {
        "workload": name,
        "states": len(arena.states),
        "ap": len(arena.ap),
        "dfa_states": len(dfa.states),
        "hts_full": len(hts.states),
        "hts_reachable": len(hts.reachable),
        **checks.restricted_shape(bundle),
        "x_star_outside_target": len(bundle.asw.x_star - bundle.restricted.target),
    }


class Run:
    """Rounds of operations on one workload, with their samples and checks."""

    def __init__(self, workload: str, scenario: Path, report: Path):
        self.workload = workload
        self.scenario = scenario
        self.report = report
        # Each sample as measured; each group of speed-bound samples as
        # (metric, values, index of the probe taken just before the group).
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.groups: list[tuple[str, list[float], int]] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected: str | None = None

    def record(self, name: str, values: list[float]) -> None:
        """Add the speed-bound ``values`` measured since the last probe, and
        take a new probe."""
        self.samples[name] += values
        self.groups.append((name, values, len(self.probes) - 1))
        self.probes.append(probe())

    def scaled(self) -> dict[str, list[float]]:
        """Every sample at reference speed.

        A group's speed factor is the reference probe time over the median of
        the four probes nearest to it, two taken before the group and two
        after (fewer at the ends of the run).  Consecutive probes differ by a
        median of 12%, part of it the probe's own noise; the median of four
        reads steadier than the two probes around the group alone.
        """
        scaled = {name: [] for name in END_TO_END}
        for name, values, before in self.groups:
            nearest = self.probes[max(0, before - 1):before + 3]
            factor = PROBE_REFERENCE_S / statistics.median(nearest)
            higher = END_TO_END[name][1]
            scaled[name] += [v / factor if higher else v * factor for v in values]
        scaled["cli_peak_rss_mb"] = list(self.samples["cli_peak_rss_mb"])
        return scaled

    def round(self, report_layer: bool = False) -> float:
        """One round; returns the CPU seconds its operations took.

        ``report_layer`` also builds the sure report in process, outside the
        counted operations, so that a traced round can time that layer.
        """
        spent = 0.0
        if not self.probes:
            self.probes.append(probe())
        # A full collection before each group of calls keeps earlier garbage
        # out of their time.
        loads = []
        for _ in range(SETUP_LOADS):
            gc.collect()
            inp, seconds = timed(load_arena_file, self.scenario)
            self.attempted += 1
            loads.append(seconds)
        spent += sum(loads)
        self.record("setup_s", loads)

        gc.collect()
        bundle, seconds = timed(cli.synthesize, inp)
        self.attempted += 1
        spent += seconds
        self.record("solve_s", [seconds])

        ok, seconds, rss = run_cli(self.scenario, self.report)
        self.attempted += 1
        spent += seconds
        if ok:
            self.record("cli_sure_s", [seconds])
            self.samples["cli_peak_rss_mb"].append(rss)
            self.problems += checks.check_cli_report(self.report, bundle)
        else:
            self.failed += 1

        start = bundle.restricted.initial
        trials = TRIALS_PER_CALL[self.workload]
        rates = []
        gc.collect()
        for sim_seed in range(SIM_CALLS):
            stats, seconds = timed(
                simulate.simulate_asw, bundle.stochastic, bundle.asw.strategy, start,
                trials=trials, cap=10 * len(bundle.restricted.states),
                seed=sim_seed, sr=bundle.sr,
            )
            self.attempted += 1
            rates.append(trials / seconds)
            spent += seconds
            self.problems += checks.check_simulation(stats)
        self.record("simulate_trials_per_s", rates)

        self.attempted += 1
        gc.collect()
        try:
            outcome, seconds = timed(
                simulate.verify_sure, bundle.restricted, bundle.sure_strategy, start
            )
            spent += seconds
            self.problems += checks.check_verify(outcome, bundle, start)
        except RecursionError:
            self.failed += 1
        if report_layer:
            cli.build_report(bundle, cli.RunConfig(str(self.scenario), "sure"))

        if self.expected is None:
            self.expected = fingerprint(bundle)
            if self.workload == "corridor":
                self.problems += checks.check_corridor(bundle, workloads.CORRIDOR_STATES)
            else:
                self.problems += checks.check_random(bundle, MAX_HTS_SHARE[self.workload])
            print(json.dumps(shape(self.workload, bundle)), file=sys.stderr)
        elif fingerprint(bundle) != self.expected:
            self.problems.append("a later round's outputs differ from the first round's")
        return spent

    def result(self, metrics: dict) -> dict:
        print(json.dumps({"samples": self.samples, "scaled": self.scaled(),
                          "probes": self.probes}), file=sys.stderr)
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def end_to_end(run: Run, seconds: float) -> dict:
    measured = 0.0
    while measured < seconds:
        measured += run.round()
    scaled = run.scaled()
    return {
        name: {"value": statistics.median(scaled[name]), "unit": unit}
        for name, (unit, _higher) in END_TO_END.items()
    }


def per_layer(run: Run, spans_path: Path) -> dict:
    run.round()
    untraced = run.scaled()["solve_s"][-1]

    tracer = tracing.Tracer()
    tracing.install(tracer)
    run.round(report_layer=True)
    traced = run.scaled()["solve_s"][-1]
    self_times = tracer.self_times()
    counts = dict(tracer.counts)
    spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")

    tracer.reset()
    tracer.alloc = True
    run.round()

    metrics = {f"{name}_s": {"value": self_times.get(name, 0.0), "unit": "s"}
               for name in SELF_TIMES}
    metrics.update({name: {"value": counts.get(name, 0), "unit": "count"} for name in COUNTS})
    metrics.update({name: {"value": value, "unit": "MB"}
                    for name, value in sorted(tracer.alloc_mb.items())})
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}"
    scenario = out / f"{stem}-{os.getpid()}.json"
    report = out / f"{stem}-{os.getpid()}-report.json"
    try:
        document = workloads.GENERATORS[args.workload](args.seed)
        scenario.write_text(json.dumps(document), encoding="utf-8")
        del document
        run = Run(args.workload, scenario, report)
        if args.trace:
            metrics = per_layer(run, out / f"{stem}-spans.json")
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        scenario.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        report.with_suffix(".peak").unlink(missing_ok=True)
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
