"""Relational crash tables: loading, hierarchical integration, class balancing.

Four CSV tables (crash, road segment, vehicle, person) are joined into nested
CrashCase records keyed by case number. Segment linkage is a 1-D interval
lookup on milepost; no geospatial machinery.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field, fields
from datetime import datetime
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, Optional, Sequence

from .util import ParseError, is_null, read_jsonl  # deserialize_cases raises ParseError

MODEL_YEAR_MIN = 1900
MODEL_YEAR_MAX = datetime.now().year + 1
AGE_MAX = 120

# Default CSV header -> field mapping, overridable via config.
DEFAULT_COLUMNS: dict[str, dict[str, str]] = {
    "crash": {
        "caseno": "CASENO",
        "date": "DATE",
        "time": "TIME",
        "county": "COUNTY",
        "route_id": "ROUTE_ID",
        "milepost": "MILEPOST",
        "weather": "WEATHER",
        "lighting": "LIGHTING",
        "surface_condition": "SURFACE_COND",
        "latitude": "LATITUDE",
        "longitude": "LONGITUDE",
        "hit_and_run": "HIT_AND_RUN",
        "severity": "SEVERITY",
    },
    "segment": {
        "route_id": "ROUTE_ID",
        "from_measure": "FROM_MEASURE",
        "to_measure": "TO_MEASURE",
        "lane_count": "LANE_COUNT",
        "lane_width": "LANE_WIDTH",
        "left_shoulder_width": "LEFT_SHOULDER",
        "right_shoulder_width": "RIGHT_SHOULDER",
        "speed_limit": "SPEED_LIMIT",
        "surface_type": "SURFACE_TYPE",
        "aadt": "AADT",
        "locale": "LOCALE",
    },
    "vehicle": {
        "caseno": "CASENO",
        "unit_id": "UNIT_ID",
        "make": "MAKE",
        "model": "MODEL",
        "model_year": "MODEL_YEAR",
        "maneuver": "MANEUVER",
    },
    "person": {
        "caseno": "CASENO",
        "unit_id": "UNIT_ID",
        "role": "ROLE",
        "age": "AGE",
        "sex": "SEX",
        "restraint": "RESTRAINT",
        "airbag": "AIRBAG",
        "sobriety": "SOBRIETY",
    },
}

_TRUE_TOKENS = {"1", "y", "yes", "true", "t"}
_FALSE_TOKENS = {"0", "n", "no", "false", "f", ""}


class SchemaError(Exception):
    """Base error for table loading and integration."""


class MissingColumnError(SchemaError):
    def __init__(self, table: str, column: str):
        super().__init__(f"table {table!r} is missing required column {column!r}")
        self.table = table
        self.column = column


class DuplicateKeyError(SchemaError):
    def __init__(self, key: str):
        super().__init__(f"duplicate caseno {key!r} in crash table")
        self.key = key


class InsufficientMajorityError(SchemaError):
    def __init__(self, requested: int, available: int):
        super().__init__(
            f"downsampling needs {requested} majority cases but only {available} exist"
        )
        self.requested = requested
        self.available = available


class Severity(enum.Enum):
    MINOR = "NoApparentOrMinor"
    SEVERE = "SeriousOrFatal"

    @property
    def phrase(self) -> str:
        if self is Severity.MINOR:
            return "No apparent or minor injury"
        return "Serious injury or fatal"

    @classmethod
    def parse(cls, text: str) -> "Severity":
        t = text.strip().lower()
        for sev in cls:
            if t in (sev.value.lower(), sev.phrase.lower()):
                return sev
        raise ValueError(f"unknown severity label {text!r}")


@dataclass(frozen=True)
class CrashRecord:
    caseno: str
    occurred_at: datetime
    county: str
    route_id: str
    milepost: float
    weather: str
    lighting: str
    surface_condition: str
    latitude: Optional[float]
    longitude: Optional[float]
    hit_and_run: bool
    severity: Severity
    extra: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class RoadSegment:
    route_id: str
    from_measure: float
    to_measure: float
    lane_count: int
    lane_width: Optional[float]
    left_shoulder_width: Optional[float]
    right_shoulder_width: Optional[float]
    speed_limit: Optional[int]
    surface_type: str
    aadt: int
    locale: str


@dataclass(frozen=True)
class VehicleRecord:
    caseno: str
    unit_id: int
    make: str
    model: str
    model_year: Optional[int]
    maneuver: str
    extra: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class PersonRecord:
    caseno: str
    unit_id: int
    role: str
    age: Optional[int]
    sex: str
    restraint: str
    airbag: str
    sobriety: str


@dataclass
class CrashCase:
    crash: CrashRecord
    segment: Optional[RoadSegment]
    units: list[tuple[VehicleRecord, list[PersonRecord]]]


@dataclass
class RejectedRow:
    table: str
    line: int
    reason: str
    row: dict[str, str]


@dataclass
class TableSet:
    crashes: list[CrashRecord]
    segments: list[RoadSegment]
    vehicles: list[VehicleRecord]
    persons: list[PersonRecord]
    rejects: list[RejectedRow] = field(default_factory=list)


@dataclass
class IntegrationReport:
    orphan_vehicles: list[VehicleRecord] = field(default_factory=list)
    orphan_persons: list[PersonRecord] = field(default_factory=list)
    ambiguous_links: list[str] = field(default_factory=list)


@dataclass
class IntegrationResult:
    cases: list[CrashCase]
    report: IntegrationReport


def _opt_float(raw: str) -> Optional[float]:
    raw = raw.strip()
    if not raw:
        return None
    return float(raw)


def _opt_int(raw: str) -> Optional[int]:
    raw = raw.strip()
    if not raw:
        return None
    return int(raw)


def _parse_bool(raw: str) -> bool:
    t = raw.strip().lower()
    if t in _TRUE_TOKENS:
        return True
    if t in _FALSE_TOKENS:
        return False
    raise ValueError(f"not a boolean flag: {raw!r}")


def _read_rows(path: str | Path, table: str, required: Iterable[str]) -> list[dict[str, str]]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{table} table not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in required:
            if col not in header:
                raise MissingColumnError(table, col)
        return [dict(row) for row in reader]


def load_tables(
    crash_path: str | Path,
    segment_path: str | Path,
    vehicle_path: str | Path,
    person_path: str | Path,
    column_maps: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> TableSet:
    """Load the four crash CSVs into typed rows.

    Rows that fail type coercion land in the rejects report instead of being
    dropped silently. A duplicate caseno in the crash table is fatal.
    """
    maps = {t: dict(DEFAULT_COLUMNS[t]) for t in DEFAULT_COLUMNS}
    if column_maps:
        for table, overrides in column_maps.items():
            if table not in maps:
                raise SchemaError(f"unknown table in column map: {table!r}")
            maps[table].update(overrides)

    rejects: list[RejectedRow] = []

    def coerce(table: str, rows: list[dict[str, str]], builder) -> list:
        out = []
        for i, row in enumerate(rows):
            line = i + 2  # header is line 1
            try:
                out.append(builder(row))
            except (ValueError, KeyError) as exc:
                rejects.append(RejectedRow(table, line, str(exc), row))
        return out

    cm = maps["crash"]

    def build_crash(row: dict[str, str]) -> CrashRecord:
        caseno = row[cm["caseno"]].strip()
        if not caseno:
            raise ValueError("empty caseno")
        occurred_at = datetime.strptime(
            f"{row[cm['date']].strip()} {row[cm['time']].strip()}", "%Y-%m-%d %H:%M"
        )
        milepost = float(row[cm["milepost"]])
        if milepost < 0:
            raise ValueError(f"negative milepost {milepost}")
        mapped = set(cm.values())
        extra = {k: v for k, v in row.items() if k not in mapped}
        return CrashRecord(
            caseno=caseno,
            occurred_at=occurred_at,
            county=row[cm["county"]].strip(),
            route_id=row[cm["route_id"]].strip(),
            milepost=milepost,
            weather=row[cm["weather"]].strip(),
            lighting=row[cm["lighting"]].strip(),
            surface_condition=row[cm["surface_condition"]].strip(),
            latitude=_opt_float(row[cm["latitude"]]),
            longitude=_opt_float(row[cm["longitude"]]),
            hit_and_run=_parse_bool(row[cm["hit_and_run"]]),
            severity=Severity.parse(row[cm["severity"]]),
            extra=extra,
        )

    sm = maps["segment"]

    def build_segment(row: dict[str, str]) -> RoadSegment:
        from_measure = float(row[sm["from_measure"]])
        to_measure = float(row[sm["to_measure"]])
        if not from_measure < to_measure:
            raise ValueError(f"from_measure {from_measure} must be < to_measure {to_measure}")
        lane_count = int(row[sm["lane_count"]])
        if lane_count < 1:
            raise ValueError(f"lane_count {lane_count} must be >= 1")
        aadt = int(row[sm["aadt"]])
        if aadt < 0:
            raise ValueError(f"negative aadt {aadt}")
        return RoadSegment(
            route_id=row[sm["route_id"]].strip(),
            from_measure=from_measure,
            to_measure=to_measure,
            lane_count=lane_count,
            lane_width=_opt_float(row[sm["lane_width"]]),
            left_shoulder_width=_opt_float(row[sm["left_shoulder_width"]]),
            right_shoulder_width=_opt_float(row[sm["right_shoulder_width"]]),
            speed_limit=_opt_int(row[sm["speed_limit"]]),
            surface_type=row[sm["surface_type"]].strip(),
            aadt=aadt,
            locale=row[sm["locale"]].strip(),
        )

    vm = maps["vehicle"]

    def build_vehicle(row: dict[str, str]) -> VehicleRecord:
        raw_year = row[vm["model_year"]]
        if is_null(raw_year):
            model_year = None
        else:
            model_year = int(raw_year)
            if not MODEL_YEAR_MIN <= model_year <= MODEL_YEAR_MAX:
                raise ValueError(f"model_year {model_year} outside [{MODEL_YEAR_MIN}, {MODEL_YEAR_MAX}]")
        mapped = set(vm.values())
        extra = {k: v for k, v in row.items() if k not in mapped}
        return VehicleRecord(
            caseno=row[vm["caseno"]].strip(),
            unit_id=int(row[vm["unit_id"]]),
            make=row[vm["make"]].strip(),
            model=row[vm["model"]].strip(),
            model_year=model_year,
            maneuver=row[vm["maneuver"]].strip(),
            extra=extra,
        )

    pm = maps["person"]

    def build_person(row: dict[str, str]) -> PersonRecord:
        raw_age = row[pm["age"]]
        if is_null(raw_age):
            age = None
        else:
            age = int(raw_age)
            if not 0 <= age <= AGE_MAX:
                raise ValueError(f"age {age} outside [0, {AGE_MAX}]")
        return PersonRecord(
            caseno=row[pm["caseno"]].strip(),
            unit_id=int(row[pm["unit_id"]]),
            role=row[pm["role"]].strip(),
            age=age,
            sex=row[pm["sex"]].strip(),
            restraint=row[pm["restraint"]].strip(),
            airbag=row[pm["airbag"]].strip(),
            sobriety=row[pm["sobriety"]].strip(),
        )

    crashes = coerce("crash", _read_rows(crash_path, "crash", [cm["caseno"], cm["severity"]]), build_crash)
    segments = coerce(
        "segment",
        _read_rows(segment_path, "segment", [sm["route_id"], sm["from_measure"], sm["to_measure"]]),
        build_segment,
    )
    vehicles = coerce("vehicle", _read_rows(vehicle_path, "vehicle", [vm["caseno"], vm["unit_id"]]), build_vehicle)
    persons = coerce("person", _read_rows(person_path, "person", [pm["caseno"], pm["unit_id"]]), build_person)

    seen: set[str] = set()
    for crash in crashes:
        if crash.caseno in seen:
            raise DuplicateKeyError(crash.caseno)
        seen.add(crash.caseno)

    return TableSet(crashes, segments, vehicles, persons, rejects)


def link_segment(
    crash: CrashRecord,
    segments: Sequence[RoadSegment],
    report: Optional[IntegrationReport] = None,
) -> Optional[RoadSegment]:
    """Find the segment covering the crash milepost on its route.

    Matching is half-open: from_measure <= milepost < to_measure. Among true
    overlaps the segment with the smallest from_measure wins and an ambiguity
    warning is recorded on the report when one is given.
    """
    matches = [
        seg
        for seg in segments
        if seg.route_id == crash.route_id and seg.from_measure <= crash.milepost < seg.to_measure
    ]
    if not matches:
        return None
    matches.sort(key=lambda seg: seg.from_measure)
    if len(matches) > 1 and report is not None:
        report.ambiguous_links.append(
            f"caseno {crash.caseno}: milepost {crash.milepost} on route {crash.route_id} "
            f"matches {len(matches)} segments; kept from_measure {matches[0].from_measure}"
        )
    return matches[0]


def integrate(tables: TableSet) -> IntegrationResult:
    """Nest vehicles and persons under their crash, linking road segments.

    Orphan vehicles (unknown caseno) and orphan persons (unknown caseno or
    unit) are excluded from the cases and listed in the report.
    """
    report = IntegrationReport()

    crash_ids = {c.caseno for c in tables.crashes}
    vehicles_by_case: dict[str, list[VehicleRecord]] = {}
    for veh in tables.vehicles:
        if veh.caseno not in crash_ids:
            report.orphan_vehicles.append(veh)
            continue
        vehicles_by_case.setdefault(veh.caseno, []).append(veh)

    vehicle_keys = {(v.caseno, v.unit_id) for vs in vehicles_by_case.values() for v in vs}
    persons_by_unit: dict[tuple[str, int], list[PersonRecord]] = {}
    for per in tables.persons:
        key = (per.caseno, per.unit_id)
        if key not in vehicle_keys:
            report.orphan_persons.append(per)
            continue
        persons_by_unit.setdefault(key, []).append(per)

    cases: list[CrashCase] = []
    for crash in tables.crashes:
        units = []
        for veh in sorted(vehicles_by_case.get(crash.caseno, []), key=lambda v: v.unit_id):
            units.append((veh, persons_by_unit.get((veh.caseno, veh.unit_id), [])))
        segment = link_segment(crash, tables.segments, report)
        cases.append(CrashCase(crash=crash, segment=segment, units=units))
    return IntegrationResult(cases, report)


def stratified_downsample(
    cases: Sequence[CrashCase], target_ratio: float, seed: int
) -> list[CrashCase]:
    """Rebalance classes: keep every minority case, subsample the majority.

    round(target_ratio * |minority|) majority cases are drawn uniformly
    without replacement with the seeded generator; input order is preserved
    among survivors.
    """
    if target_ratio <= 0:
        raise ValueError("target_ratio must be positive")
    by_class: dict[Severity, list[int]] = {Severity.MINOR: [], Severity.SEVERE: []}
    for i, case in enumerate(cases):
        by_class[case.crash.severity].append(i)

    # SEVERE is the designated minority on a tie.
    if len(by_class[Severity.MINOR]) < len(by_class[Severity.SEVERE]):
        minority, majority = Severity.MINOR, Severity.SEVERE
    else:
        minority, majority = Severity.SEVERE, Severity.MINOR

    n_keep = round(target_ratio * len(by_class[minority]))
    majority_idx = by_class[majority]
    if n_keep > len(majority_idx):
        raise InsufficientMajorityError(n_keep, len(majority_idx))

    rng = Random(seed)
    kept = set(rng.sample(majority_idx, n_keep)) | set(by_class[minority])
    return [case for i, case in enumerate(cases) if i in kept]


# --- JSONL serialization: one object per record, keys in field order ---


def _fields_dict(record: object) -> dict:
    # shallow on purpose: dataclasses.asdict deep-copies every nested value
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _from_fields(cls: type, d: dict, **converted: object):
    """cls from the values of its fields in d; `converted` replaces some."""
    return cls(**{f.name: d[f.name] for f in fields(cls)} | converted)


def case_to_dict(case: CrashCase) -> dict:
    crash = _fields_dict(case.crash)
    crash["occurred_at"] = case.crash.occurred_at.strftime("%Y-%m-%dT%H:%M")
    crash["severity"] = case.crash.severity.value
    return {
        "crash": crash,
        "segment": _fields_dict(case.segment) if case.segment else None,
        "units": [
            {"vehicle": _fields_dict(v), "persons": [_fields_dict(p) for p in persons]}
            for v, persons in case.units
        ],
    }


def case_from_dict(d: dict) -> CrashCase:
    cd = d["crash"]
    crash = _from_fields(
        CrashRecord,
        cd,
        occurred_at=datetime.strptime(cd["occurred_at"], "%Y-%m-%dT%H:%M"),
        severity=Severity(cd["severity"]),
        extra=dict(cd["extra"]),
    )
    segment = _from_fields(RoadSegment, d["segment"]) if d["segment"] else None
    units = []
    for unit in d["units"]:
        vd = unit["vehicle"]
        vehicle = _from_fields(VehicleRecord, vd, extra=dict(vd["extra"]))
        units.append((vehicle, [_from_fields(PersonRecord, pd) for pd in unit["persons"]]))
    return CrashCase(crash=crash, segment=segment, units=units)


def deserialize_cases(path: str | Path) -> list[CrashCase]:
    return read_jsonl(path, case_from_dict)
