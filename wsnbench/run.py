#!/usr/bin/env python3
"""Simulator-speed benchmark for the Agilla WSN reproduction.

Run from the repository root::

    python3 wsnbench/run.py --workload dense-flood --seed 1 --seconds 20 --trace 0
    python3 wsnbench/run.py --smoke          # every workload, shortened, traced

The simulator is driven only through its public entry points:
``Scenario.from_spec(spec).build()`` / ``.run()`` for single-process
workloads and ``repro.run(spec)`` for the sharded one.  Each repeat is one
operation: build the workload's scenario, run it, check its output.  The
repeats take the ``SPECS_PER_RUN`` inputs made from ``--seed`` in turn and
continue until ``--seconds`` have passed (at least ``MIN_REPEATS``).

``--workload`` takes the names in ``specs.WORKLOADS``.  ``BENCHMARK.json``
lists all but ``shard-ribbon``: two process-mode workers on a two-core host
spread too widely from run to run for a regression bound, so that workload is
run by name when shard sync is the subject.

A shared host's speed drifts by a fifth or more within a minute, and the
drift slows the simulator and other interpreter-bound, memory-hungry code
alike.  Each untraced repeat therefore times a fixed calibration loop
(``calibrate``) before its build and after its run, and its timings are
scaled by those loops to a reference host on which the loop takes
``CALIBRATION_NOMINAL_S``: a run during which the loop took twice as long
counts as having run twice as fast.  The calibration code is the
benchmark's own, so a change to the simulator moves the scaled figures by
the same factor as the wall-clock ones.

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over the repeats:

* ``sim_x_ref`` - simulated seconds per host wall second of the run phase,
  scaled to the reference host (for the sharded workload, of the whole
  ``repro.run`` call, since its workers build inside it);
* ``setup_s`` - host seconds to build the deployment, scaled to the
  reference host (for the sharded workload, the slowest worker's build);
* ``peak_rss_mb`` - peak resident memory of this process or of any shard
  worker it reaped, the calibration loop's fixed entries included.

With ``--trace 1`` the untraced repeats are followed by one traced repeat
(see ``tracing.py``) and the last line reports the per-layer metrics, with
the unscaled median ``sim_x_real`` and the calibration loop's median time
``host.calibration_s`` beside them.

A repeat fails when it raises, when a workload check fails (flood coverage,
the chaser's survival, shard supervisor restarts), or when any deterministic
counter differs from the first repeat's of the same input; the traced
repeat must match too, which shows that the wrappers do not perturb the
simulation.  The line before the last records the environment, the specs
and every sample.

Confirm a claimed gain on ``CONFIRM_SEED`` as well as on the seeds the change
was written against.
"""

from __future__ import annotations

import argparse
import functools
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A seed held back for confirming claims, not for writing changes.
CONFIRM_SEED = 20051

#: Inputs one run measures in turn, each made from its own seed derived
#: from ``--seed`` (``run_specs``).  A field's cost varies with its seed (a
#: random topology's connectivity, a flood's reach), so a run over several
#: inputs varies less from seed to seed than a run over one.
SPECS_PER_RUN = 4
MIN_REPEATS = SPECS_PER_RUN
#: The smoke mode's share of each workload's simulated duration.
SMOKE_SCALE = 0.2

#: Entries of the calibration loop's heap, the passes the loop makes over
#: them, and its time on the reference host that the end-to-end timings are
#: scaled to.
CALIBRATION_ENTRIES = 50_000
CALIBRATION_PASSES = 2
CALIBRATION_NOMINAL_S = 0.1

UNITS = {"sim_x_ref": "s/s", "sim_x_real": "s/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _load_program() -> None:
    """Put the checkout's ``src`` on the path, or stop: there is nothing to time."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"wsnbench: simulator source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MiB.

    It includes the calibration entries (about 6 MiB), which are resident
    throughout, so they add the same amount to every run of every version.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@functools.cache
def _calibration_entries() -> tuple[tuple[int, int], ...]:
    """The calibration heap's entries, made once and kept for the whole run."""
    return tuple((i * 7919 % 10_007, i) for i in range(CALIBRATION_ENTRIES))


def calibrate() -> float:
    """Host seconds for a fixed loop of heap and dict work.

    The mix is the simulator's own (an event heap of tuples, dict lookups),
    and the entries span several MB, so the loop slows with the host's
    caches and memory as the simulator does.  The entries are made once, so
    the loop's memory is a fixed part of ``peak_rss_mb`` rather than a peak
    of its own.  The collector is off meanwhile, so that a collection cannot
    time the size of other objects.
    """
    entries = _calibration_entries()
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        heap: list[tuple[int, int]] = []
        counts: dict[int, int] = {}
        for _ in range(CALIBRATION_PASSES):
            for entry in entries:
                heapq.heappush(heap, entry)
                counts[entry[1] & 1023] = counts.get(entry[1] & 1023, 0) + 1
            while heap:
                heapq.heappop(heap)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_kb"):
        return "kB"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


class Repeat:
    """One build-and-run of a workload, timed and checked.

    With ``calibrated`` the calibration loop is timed before the build and,
    once the deployment is released, after the run.
    """

    def __init__(self, workload, spec: dict, tracer=None, calibrated: bool = False):
        import repro
        from repro.scenarios.spec import Scenario
        from repro.shard.runner import TIMING_KEYS

        self.spec = spec
        self.scenario_run = None
        self.result = None
        self.build_spans: dict[str, float] = {}
        before = calibrate() if calibrated else None
        if workload.sharded:
            started = time.perf_counter()
            self.result = repro.run(spec)
            self.run_s = time.perf_counter() - started
            self.setup_s = max(stats["build_s"] for stats in self.result.per_shard)
            self.counters = dict(self.result.counters)
            self.supervision = dict(self.result.supervision)
        else:
            started = time.perf_counter()
            self.scenario_run = Scenario.from_spec(spec).build()
            self.setup_s = time.perf_counter() - started
            if tracer is not None:
                self.build_spans = tracer.build_metrics()
                tracer.reset()
            started = time.perf_counter()
            row = self.scenario_run.run()
            self.run_s = time.perf_counter() - started
            self.counters = {k: v for k, v in row.items() if k not in TIMING_KEYS}
            self.supervision = {}
        self.sim_x_real = spec["duration_s"] / self.run_s
        self.problems = workload.check(self.counters, self.supervision)
        #: The calibration loop's time just before the build, and its mean
        #: time before and after the repeat; ``None`` when not calibrated.
        self.setup_calibration_s = before
        self.calibration_s = None
        if calibrated:
            self.scenario_run = self.result = None
            gc.collect()
            self.calibration_s = (before + calibrate()) / 2

    def scaled(self) -> dict[str, float]:
        """This repeat's end-to-end timings on the reference host."""
        return {
            "sim_x_ref": self.sim_x_real * self.calibration_s / CALIBRATION_NOMINAL_S,
            "setup_s": self.setup_s * CALIBRATION_NOMINAL_S / self.setup_calibration_s,
        }


def _differences(counters: dict, reference: dict) -> list[str]:
    keys = sorted(set(counters) | set(reference))
    return [
        f"{key}: {counters.get(key)!r} != first repeat's {reference.get(key)!r}"
        for key in keys
        if counters.get(key) != reference.get(key)
    ]


def run_specs(workload, seed: int, scale: float = 1.0) -> list[dict]:
    """The ``SPECS_PER_RUN`` inputs that one run with ``seed`` measures."""
    return [workload.make_spec(seed * SPECS_PER_RUN + i, scale) for i in range(SPECS_PER_RUN)]


def measure(workload, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, min_repeats: int = MIN_REPEATS) -> dict:
    """Repeat ``workload`` for ``seconds`` (and once traced) and summarize.

    The repeats take the run's inputs in turn; the traced repeat takes the
    first.  Each repeat is checked against the first repeat of its input.
    """
    from tracing import Tracer, layer_metrics

    specs = run_specs(workload, seed, scale)
    repeats: list[Repeat] = []
    problems: list[str] = []
    attempted = failed = 0
    references: dict[int, dict] = {}
    # A traced run spends half its budget on the untraced repeats that the
    # traced one is checked and compared against.
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)

    def attempt(index: int, tracer=None) -> Repeat | None:
        nonlocal attempted, failed
        attempted += 1
        gc.collect()
        try:
            repeat = Repeat(workload, specs[index], tracer, calibrated=tracer is None)
        except Exception:  # a raising repeat is a failed operation, not a crash
            failed += 1
            problems.append(traceback.format_exc(limit=3))
            return None
        reference = references.setdefault(index, repeat.counters)
        found = repeat.problems + _differences(repeat.counters, reference)
        if found:
            failed += 1
            label = "traced repeat" if tracer is not None else f"repeat {attempted}"
            problems.extend(f"{label}: {problem}" for problem in found)
        return repeat

    while True:
        started = time.perf_counter()
        repeat = attempt(attempted % len(specs))
        if repeat is not None:
            repeat.scenario_run = repeat.result = None  # keep one network alive at a time
            repeats.append(repeat)
        now = time.perf_counter()
        if attempted >= min_repeats and (now + (now - started) > deadline or not repeats):
            break

    scaled = [r.scaled() for r in repeats]
    samples = {
        "sim_x_ref": [s["sim_x_ref"] for s in scaled],
        "setup_s": [s["setup_s"] for s in scaled],
        "sim_x_real": [r.sim_x_real for r in repeats],
        "setup_wall_s": [r.setup_s for r in repeats],
        "calibration_s": [r.calibration_s for r in repeats],
    }
    metrics = None
    if repeats and trace:
        untraced_s = statistics.median(r.run_s for r in repeats if r.spec is specs[0])
        tracer = Tracer()
        with tracer:
            traced = attempt(0, tracer)
        if traced is not None:
            metrics = layer_metrics(traced, tracer, untraced_s)
            metrics["sim_x_real"] = statistics.median(samples["sim_x_real"])
            metrics["host.calibration_s"] = statistics.median(samples["calibration_s"])
    elif repeats:
        metrics = {name: statistics.median(samples[name]) for name in ("sim_x_ref", "setup_s")}
        metrics["peak_rss_mb"] = peak_rss_mb()
    return {"attempted": attempted, "failed": failed, "repeats": len(repeats),
            "problems": problems, "specs": specs, "samples": samples, "metrics": metrics}


def result_line(summary: dict) -> dict:
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in summary["metrics"].items()
        },
    }


def _smoke(seed: int) -> int:
    from specs import WORKLOADS

    ok = True
    for name, workload in WORKLOADS.items():
        summary = measure(workload, seed, 0.0, True, scale=SMOKE_SCALE, min_repeats=1)
        passed = summary["metrics"] is not None and summary["failed"] == 0
        ok &= passed
        print(json.dumps({"workload": name, "passed": passed,
                          "attempted": summary["attempted"],
                          "problems": summary["problems"]}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, traced, and check it")
    args = parser.parse_args(argv)

    _load_program()
    from specs import WORKLOADS

    if args.smoke:
        return _smoke(args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    summary = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(),
              **{k: v for k, v in summary.items() if k != "metrics"}}
    print(json.dumps(detail))
    if summary["metrics"] is None:
        print("wsnbench: no metrics: the repeats they need failed", file=sys.stderr)
        return 1
    print(json.dumps(result_line(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
