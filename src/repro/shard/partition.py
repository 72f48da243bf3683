"""Spatial partitioning of a deployment into shard regions.

The cut is one-dimensional: nodes are sorted by physical x position and
sliced into ``shards`` contiguous strips of near-equal population, with each
cut snapped to the widest x-gap near the balance point so partition-friendly
layouts (clustered fields, ribbons with corridors) get cut *between* clusters
rather than through them.  A gap wider than the radio range plus the
topology's neighbor reach yields an empty seam — zero ghosts, zero rounds of
lookahead traffic.

Two motes end up mirrored across a seam when they could interact:

* **audibility** — their physical positions are within ``range_m`` of each
  other (carrier sense and collisions at the seam must see the foreign
  transmitter), or
* **topology adjacency** — the deployment's neighbor relation links them
  (receive filters accept the foreign sender even if the physical check is
  marginal).

Both relations are symmetric, so the mirror sets are symmetric by
construction: if ``a`` of region *i* is mirrored into region *j*, some node
of *j* is within reach of ``a`` and is mirrored into *i* — the two regions
are *seam neighbors* and exchange lookahead rounds.

Everything here is a pure function of (topology, shards, spacing, range), so
every worker — and every re-run — derives the identical partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.location import Location
from repro.radio.linkmodels import MICA2_RANGE_M
from repro.topology import Topology


class PartitionError(ValueError):
    """The requested decomposition is impossible (e.g. more shards than nodes)."""


@dataclass(frozen=True)
class Region:
    """One shard's slice of the deployment.

    ``locations`` preserves the full topology's enumeration order, so a
    region-local network attaches motes in the same relative order as the
    single-process build.
    """

    index: int
    locations: tuple[Location, ...]
    mote_ids: frozenset[int]

    def __len__(self) -> int:
        return len(self.locations)


@dataclass(frozen=True)
class Partition:
    """A complete decomposition: regions plus the seam mirror sets.

    ``ghosts[i][j]`` lists the motes of region *j* mirrored read-only into
    region *i* (as ``(mote_id, location)`` pairs in region *j*'s enumeration
    order).  Regions *i* and *j* are seam neighbors iff ``ghosts[i][j]`` is
    non-empty, and the relation is symmetric.
    """

    topology: Topology
    spacing_m: float
    range_m: float
    regions: tuple[Region, ...]
    ghosts: dict[int, dict[int, tuple[tuple[int, Location], ...]]] = field(repr=False)

    @property
    def shards(self) -> int:
        return len(self.regions)

    def seam_neighbors(self, index: int) -> tuple[int, ...]:
        """Regions that exchange lookahead rounds with ``index``."""
        return tuple(sorted(self.ghosts.get(index, {})))

    def mirrored_into(self, index: int) -> int:
        """Total ghost motes hosted by region ``index``."""
        return sum(len(v) for v in self.ghosts.get(index, {}).values())


class RegionTopology(Topology):
    """A region of a base topology, preserving global mote ids.

    ``build_locations`` yields only the region's locations (in global
    enumeration order) and ``build_neighbors`` intersects the base neighbor
    relation with the region — cross-seam adjacency is restored at the
    network layer by widening boundary receive filters, not by the topology.
    ``directory`` is overridden so mote ids match the full deployment: mote
    17 in the sharded run is mote 17 in the single-process run.
    """

    name = "region"

    def __init__(self, base: Topology, region: Region):
        super().__init__()
        self.base = base
        self.region = region

    def __len__(self) -> int:
        return len(self.region.locations)

    def build_locations(self) -> list[Location]:
        return list(self.region.locations)

    def build_neighbors(
        self, locations: list[Location]
    ) -> dict[Location, frozenset[Location]]:
        present = set(locations)
        return {
            loc: frozenset(n for n in self.base.neighbors(loc) if n in present)
            for loc in locations
        }

    def directory(self) -> dict[int, Location]:
        if self._directory is None:
            self._directory = {
                self.base.mote_id(loc): loc for loc in self.locations()
            }
            self._ids = {loc: mid for mid, loc in self._directory.items()}
        return self._directory

    def position(self, location: Location, spacing_m: float = 1.0):
        return self.base.position(location, spacing_m)


def _snap_cut(xs: list[float], target: int, window: int) -> int:
    """Index ``c`` near ``target`` maximizing the gap ``xs[c] - xs[c-1]``.

    The strip boundary falls *between* ``xs[c-1]`` and ``xs[c]``.  Ties and
    near-ties prefer the balance point (smallest distance to ``target``).
    """
    lo = max(1, target - window)
    hi = min(len(xs) - 1, target + window)
    best = target
    best_key = (-1.0, 0)
    for c in range(lo, hi + 1):
        gap = xs[c] - xs[c - 1]
        key = (gap, -abs(c - target))
        if key > best_key:
            best_key = key
            best = c
    return best


def partition_topology(
    topology: Topology,
    shards: int,
    *,
    spacing_m: float,
    range_m: float = MICA2_RANGE_M,
) -> Partition:
    """Cut ``topology`` into ``shards`` x-strips and compute the mirror sets."""
    locations = topology.locations()
    n = len(locations)
    if shards < 1:
        raise PartitionError(f"shards must be >= 1, got {shards}")
    if shards > n:
        raise PartitionError(f"cannot cut {n} nodes into {shards} shards")

    def pos(loc: Location) -> tuple[float, float]:
        return topology.position(loc, spacing_m)

    # Sort by physical x (Location order tiebreak keeps this deterministic).
    order = sorted(locations, key=lambda loc: (pos(loc)[0], loc))
    xs = [pos(loc)[0] for loc in order]

    # Cut indices near the population quantiles, snapped to the widest gap in
    # a +/- n/(4*shards) window so natural corridors attract the seam.
    window = max(1, n // (4 * shards))
    cuts: list[int] = []
    for k in range(1, shards):
        target = k * n // shards
        floor = (cuts[-1] + 1) if cuts else 1
        c = _snap_cut(xs, target, window)
        cuts.append(max(c, floor))
    if cuts and (len(set(cuts)) != len(cuts) or cuts[-1] >= n):
        # Snapping collapsed two cuts (tiny or degenerate layouts): fall back
        # to plain quantile cuts, which are strictly increasing for shards<=n.
        cuts = [k * n // shards for k in range(1, shards)]

    assignment: dict[Location, int] = {}
    bounds = [0, *cuts, n]
    for i in range(shards):
        for loc in order[bounds[i] : bounds[i + 1]]:
            assignment[loc] = i

    regions = tuple(
        Region(
            index=i,
            locations=tuple(loc for loc in locations if assignment[loc] == i),
            mote_ids=frozenset(
                topology.mote_id(loc) for loc in locations if assignment[loc] == i
            ),
        )
        for i in range(shards)
    )

    # --- mirror sets ------------------------------------------------------
    # Spatial hash with cell == range_m: audible pairs share a cell or touch
    # neighboring cells (the same bound the RadioField's hearer index uses).
    cell = max(range_m, 1e-9)
    buckets: dict[tuple[int, int], list[Location]] = {}
    for loc in locations:
        x, y = pos(loc)
        buckets.setdefault((int(x // cell), int(y // cell)), []).append(loc)

    def audible(a: Location, b: Location) -> bool:
        (ax, ay), (bx, by) = pos(a), pos(b)
        return (ax - bx) ** 2 + (ay - by) ** 2 <= range_m * range_m

    # mirror_pairs[(i, j)] = set of region-j motes mirrored into region i.
    mirror_pairs: dict[tuple[int, int], set[Location]] = {}

    def mirror(host: int, foreign: Location) -> None:
        mirror_pairs.setdefault((host, assignment[foreign]), set()).add(foreign)

    for loc in locations:
        i = assignment[loc]
        x, y = pos(loc)
        cx, cy = int(x // cell), int(y // cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in buckets.get((cx + dx, cy + dy), ()):
                    j = assignment[other]
                    if j != i and audible(loc, other):
                        mirror(i, other)
        for neighbor in topology.neighbors(loc):
            if assignment[neighbor] != i:
                mirror(i, neighbor)

    ghosts: dict[int, dict[int, tuple[tuple[int, Location], ...]]] = {
        i: {} for i in range(shards)
    }
    for (host, src), locs in sorted(mirror_pairs.items()):
        src_order = regions[src].locations
        ghosts[host][src] = tuple(
            (topology.mote_id(loc), loc) for loc in src_order if loc in locs
        )

    return Partition(
        topology=topology,
        spacing_m=spacing_m,
        range_m=range_m,
        regions=regions,
        ghosts=ghosts,
    )
