"""Synthetic physical environments.

The paper's deployments sense real phenomena (fire, wildlife, intruders).  We
substitute spatial fields sampled by :class:`repro.mote.sensors.SensorBoard`:
each sensor type maps to a field giving a 10-bit reading as a function of
location and time.  The fire-spread field drives the Section 5 case study
(FIREDETECTOR fires when temperature > 200).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Protocol

from repro.location import Location
from repro.sim.units import US_PER_S


class Field(Protocol):
    """A scalar field over (location, time)."""

    def sample(self, location: Location, now: int) -> float:  # pragma: no cover
        ...


class ConstantField:
    """The same reading everywhere, always."""

    def __init__(self, value: float):
        self.value = value

    def sample(self, location: Location, now: int) -> float:
        return self.value


class HotspotField:
    """A static radial hotspot: ``peak`` at the center decaying to ``background``.

    The reading falls off linearly with distance, reaching background level at
    ``radius`` grid units.
    """

    def __init__(
        self,
        center: Location,
        peak: float = 900.0,
        background: float = 60.0,
        radius: float = 3.0,
    ):
        self.center = center
        self.peak = peak
        self.background = background
        self.radius = radius

    def sample(self, location: Location, now: int) -> float:
        distance = location.distance_to(self.center)
        if distance >= self.radius:
            return self.background
        fraction = 1.0 - distance / self.radius
        return self.background + (self.peak - self.background) * fraction

class FireField:
    """A fire igniting at a point and spreading radially over time.

    Inside the burning radius the temperature reads ``burn_value`` (well above
    the FIREDETECTOR threshold of 200); ahead of the front it decays steeply
    to ambient, modelling radiated heat.  The fire starts at ``ignition_time``
    and its radius grows at ``spread_rate`` grid units per second, optionally
    capped by ``max_radius``.
    """

    def __init__(
        self,
        ignition_point: Location,
        ignition_time: int = 0,
        spread_rate: float = 0.2,
        burn_value: float = 800.0,
        ambient: float = 70.0,
        max_radius: float | None = None,
    ):
        self.ignition_point = ignition_point
        self.ignition_time = ignition_time
        self.spread_rate = spread_rate
        self.burn_value = burn_value
        self.ambient = ambient
        self.max_radius = max_radius

    def radius_at(self, now: int) -> float:
        """Current radius of the burning region, in grid units."""
        if now < self.ignition_time:
            return 0.0
        elapsed_s = (now - self.ignition_time) / US_PER_S
        radius = self.spread_rate * elapsed_s
        if self.max_radius is not None:
            radius = min(radius, self.max_radius)
        return radius

    def burning(self, location: Location, now: int) -> bool:
        """True if ``location`` is inside the burning region."""
        if now < self.ignition_time:
            return False
        return location.distance_to(self.ignition_point) <= self.radius_at(now)

    def sample(self, location: Location, now: int) -> float:
        if now < self.ignition_time:
            return self.ambient
        distance = location.distance_to(self.ignition_point)
        radius = self.radius_at(now)
        if distance <= radius:
            return self.burn_value
        # Radiated heat: exponential decay ahead of the fire front.
        return self.ambient + (self.burn_value - self.ambient) * math.exp(
            -(distance - radius) / 0.5
        )


class MovingTargetField:
    """A target moving through the field; readings decay with distance.

    Models the magnetometer signature of an intruder/vehicle: ``peak`` on top
    of the target, linear decay to zero at ``reach`` grid units.  The target's
    position is given by ``path(now) -> (x, y)`` in continuous grid
    coordinates.
    """

    def __init__(
        self,
        path: Callable[[int], tuple[float, float]],
        peak: float = 1000.0,
        reach: float = 2.5,
    ):
        self.path = path
        self.peak = peak
        self.reach = reach

    def position(self, now: int) -> tuple[float, float]:
        return self.path(now)

    def sample(self, location: Location, now: int) -> float:
        x, y = self.path(now)
        distance = math.hypot(location.x - x, location.y - y)
        if distance >= self.reach:
            return 0.0
        return self.peak * (1.0 - distance / self.reach)


def waypoint_path(
    waypoints: list[tuple[float, float]], speed: float
) -> Callable[[int], tuple[float, float]]:
    """Build a path function visiting ``waypoints`` at ``speed`` units/second.

    The target stops at the final waypoint.
    """
    if not waypoints:
        raise ValueError("waypoint_path requires at least one waypoint")
    if speed <= 0:
        raise ValueError("speed must be positive")

    # Precompute cumulative arrival time (seconds) at each waypoint.
    arrivals = [0.0]
    for (x0, y0), (x1, y1) in zip(waypoints, waypoints[1:]):
        arrivals.append(arrivals[-1] + math.hypot(x1 - x0, y1 - y0) / speed)

    def path(now: int) -> tuple[float, float]:
        t = now / US_PER_S
        if t >= arrivals[-1]:
            return waypoints[-1]
        for i in range(len(waypoints) - 1):
            if arrivals[i] <= t < arrivals[i + 1]:
                span = arrivals[i + 1] - arrivals[i]
                frac = 0.0 if span == 0 else (t - arrivals[i]) / span
                x0, y0 = waypoints[i]
                x1, y1 = waypoints[i + 1]
                return (x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac)
        return waypoints[-1]

    return path


class NoisyField:
    """Wraps a field with additive Gaussian noise (deterministic stream)."""

    def __init__(self, base: Field, sigma: float, rng: random.Random):
        self.base = base
        self.sigma = sigma
        self.rng = rng

    def sample(self, location: Location, now: int) -> float:
        return self.base.sample(location, now) + self.rng.gauss(0.0, self.sigma)


class Environment:
    """Maps sensor types to fields; the single source of physical truth.

    Sensor types without an explicit field read a quiet ambient value.
    """

    DEFAULT_AMBIENT = 50.0

    def __init__(self, fields: dict[int, Field] | None = None):
        self._fields: dict[int, Field] = dict(fields or {})

    def field(self, sensor_type: int) -> Field | None:
        return self._fields.get(sensor_type)

    def sample(self, sensor_type: int, location: Location, now: int) -> float:
        field = self._fields.get(sensor_type)
        if field is None:
            return self.DEFAULT_AMBIENT
        return field.sample(location, now)
