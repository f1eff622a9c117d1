"""Random relational tables and bulk cases for the schema property tests.

`random_tables` deliberately emits orphans, overlapping segments and routes
with no segments at all, for the join oracles; `severity_cases` makes
minimal cases in bulk for downsampling counts.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

from crashlens.schema import (
    CrashCase,
    CrashRecord,
    PersonRecord,
    RoadSegment,
    Severity,
    TableSet,
    VehicleRecord,
)


def random_tables(
    rng: random.Random,
    n_crashes: int = 8,
    n_segments: int = 6,
    n_vehicles: int = 12,
    n_persons: int = 16,
) -> TableSet:
    """Random relational tables with orphans and overlaps, for join oracles."""
    routes = ["A", "B", "C"]
    crashes = [
        CrashRecord(
            caseno=f"K{i}",
            occurred_at=datetime(2022, 1, 1, 6, 0) + timedelta(hours=3 * i),
            county="Testvale",
            route_id=rng.choice(routes + ["Z"]),  # Z never has segments
            milepost=round(rng.uniform(0.0, 12.0), 1),
            weather="1",
            lighting="1",
            surface_condition="1",
            latitude=None,
            longitude=None,
            hit_and_run=bool(rng.getrandbits(1)),
            severity=rng.choice(list(Severity)),
        )
        for i in range(n_crashes)
    ]
    segments = []
    for _ in range(n_segments):
        start = round(rng.uniform(0.0, 10.0), 1)
        segments.append(
            RoadSegment(
                route_id=rng.choice(routes),
                from_measure=start,
                to_measure=round(start + rng.uniform(0.5, 6.0), 1),
                lane_count=rng.randint(1, 4),
                lane_width=None,
                left_shoulder_width=None,
                right_shoulder_width=None,
                speed_limit=None,
                surface_type="1",
                aadt=rng.randint(100, 40000),
                locale="rural",
            )
        )
    vehicles = [
        VehicleRecord(
            caseno=f"K{rng.randrange(n_crashes + 2)}",  # ids past n_crashes are orphans
            unit_id=rng.randint(1, 3),
            make="Make",
            model="Model",
            model_year=None,
            maneuver="1",
        )
        for _ in range(n_vehicles)
    ]
    persons = [
        PersonRecord(
            caseno=f"K{rng.randrange(n_crashes + 2)}",
            unit_id=rng.randint(1, 4),
            role="driver",
            age=None,
            sex="M",
            restraint="1",
            airbag="1",
            sobriety="1",
        )
        for _ in range(n_persons)
    ]
    return TableSet(crashes, segments, vehicles, persons, [])


def severity_cases(n_minor: int, n_severe: int) -> list[CrashCase]:
    """Minimal cases in bulk for downsampling count checks."""
    cases = []
    for i, severity in enumerate([Severity.MINOR] * n_minor + [Severity.SEVERE] * n_severe):
        crash = CrashRecord(
            caseno=f"S{i:06d}",
            occurred_at=datetime(2022, 1, 1, 0, 0),
            county="Bulk",
            route_id="A",
            milepost=0.0,
            weather="1",
            lighting="1",
            surface_condition="1",
            latitude=None,
            longitude=None,
            hit_and_run=False,
            severity=severity,
        )
        cases.append(CrashCase(crash=crash, segment=None, units=[]))
    return cases
