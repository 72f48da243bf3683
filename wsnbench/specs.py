"""The benchmark's workloads: plain scenario specs built from a seed.

Each workload is a spec dict of the kind ``Scenario.from_spec`` accepts,
owned here so that a change to the library's builtin battery cannot move the
benchmark.  Every seed in a spec, including the random topology's own, is the
benchmark's ``--seed``, so one argument fixes every input.

A flood grows from one hub, so how far it has spread by a given time, and
with it the work of a run, swings with the seed.  The flood workloads
therefore beacon faster than the library default (10 s): steady per-node
beacon traffic, summed over hundreds of nodes, then carries most of the
radio load, and the work of a run varies by a few percent across seeds
instead of by a factor of two.

``scale`` shortens the simulated duration for the smoke mode only; measured
runs always use ``scale=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def dense_flood(seed: int, scale: float = 1.0) -> dict:
    # 25x40 grid at 22 m under a 100 m radio: ~59 hearers per transmitter, so
    # every delivery takes the vectorized fan-out and the link cache is
    # read-only.  The 1,000-node build gives setup_s a real network to time.
    return {
        "name": "dense-flood",
        "topology": {"kind": "grid", "width": 25, "height": 40},
        "workload": {"kind": "flood"},
        "duration_s": 30.0 * scale,
        "seed": seed,
        "spacing_m": 22.0,
        "beacon_period_s": 4.0,
    }


def mobile_flood(seed: int, scale: float = 1.0) -> dict:
    # The builtin mobile-flood-400 field: mean degree ~5.6 keeps fan-out on
    # the scalar path, and ~800 moves per run re-key the spatial hash and
    # invalidate the link cache beside the reads.  Sparse fields let the
    # flood's reach vary most from seed to seed, hence the fastest beacons.
    return {
        "name": "mobile-flood",
        "topology": {"kind": "random", "count": 400, "seed": seed},
        "workload": {"kind": "flood"},
        "dynamics": {
            "mobility": {"model": "random_waypoint", "speed": [0.5, 2.0], "pause_s": 2.0},
            "mobile_fraction": 0.1,
            "tick_s": 1.0,
        },
        "duration_s": 20.0 * scale,
        "seed": seed,
        "spacing_m": 45.0,
        "beacon_period_s": 1.0,
    }


def agent_tracker(seed: int, scale: float = 1.0) -> dict:
    # The builtin mobile-tracker field: samplers on all 64 nodes and a chaser
    # that strong-migrates after the intruder.  Agilla, TinyOS tasks and
    # timers dominate; the radio is a few percent of the run.
    return {
        "name": "agent-tracker",
        "topology": {"kind": "grid", "width": 8, "height": 8},
        "workload": {"kind": "tracker"},
        "dynamics": {
            "mobility": {"model": "random_waypoint", "speed": [0.5, 2.0], "pause_s": 2.0},
            "mobile_fraction": 0.25,
            "tick_s": 1.0,
        },
        "duration_s": 60.0 * scale,
        "seed": seed,
        "spacing_m": 60.0,
    }


def shard_ribbon(seed: int, scale: float = 1.0) -> dict:
    # The builtin sharded-ribbon field cut into two process-mode workers (one
    # per core), with the flood crossing the seam: shard sync dominates.
    return {
        "name": "shard-ribbon",
        "topology": {"kind": "grid", "width": 16, "height": 4},
        "workload": {"kind": "flood"},
        "duration_s": 20.0 * scale,
        "seed": seed,
        "spacing_m": 60.0,
        "beacon_period_s": 2.0,
        "shards": 2,
    }


def _flood_covers(counters: dict, supervision: dict) -> list[str]:
    coverage = counters.get("coverage", 0)
    return [] if coverage > 1 else [f"flood coverage {coverage} is not above 1"]


def _chaser_lives(counters: dict, supervision: dict) -> list[str]:
    alive = counters.get("chaser_alive")
    return [] if alive == 1 else [f"chaser_alive is {alive}, expected 1"]


def _shard_healthy(counters: dict, supervision: dict) -> list[str]:
    problems = _flood_covers(counters, supervision)
    if supervision.get("restarts") or supervision.get("degraded"):
        problems.append(f"shard supervisor intervened: {supervision}")
    return problems


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to make its spec and how to check a run."""

    name: str
    make_spec: Callable[..., dict]
    #: ``check(counters, supervision) -> problems``; an empty list passes.
    check: Callable[[dict, dict], list[str]]
    #: Sharded workloads run through ``repro.run``; the rest build and run a
    #: ``Scenario`` so that build and run can be timed apart.
    sharded: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dense-flood", dense_flood, _flood_covers),
        Workload("mobile-flood", mobile_flood, _flood_covers),
        Workload("agent-tracker", agent_tracker, _chaser_lives),
        Workload("shard-ribbon", shard_ribbon, _shard_healthy, sharded=True),
    )
}
