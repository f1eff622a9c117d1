"""Relational crash tables: loading, hierarchical integration, class balancing.

Four CSV tables (crash, road segment, vehicle, person) are joined into nested
CrashCase records keyed by case number. Segment linkage is a 1-D interval
lookup on milepost; no geospatial machinery.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from datetime import datetime
from pathlib import Path
from random import Random
from typing import Callable, Mapping, Optional, Sequence

from .records import Severity  # re-exported
from .util import CrashlensError, ParseError, is_null, read_jsonl  # deserialize_cases raises ParseError

MODEL_YEAR_MIN = 1900
MODEL_YEAR_MAX = datetime.now().year + 1
AGE_MAX = 120

_TRUE_TOKENS = {"1", "y", "yes", "true", "t"}
_FALSE_TOKENS = {"0", "n", "no", "false", "f"}


class SchemaError(CrashlensError):
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
    def __init__(self, requested: float, available: int):
        super().__init__(
            f"downsampling needs {requested:g} majority cases but only {available} exist"
        )
        self.requested = requested
        self.available = available


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
    hit_and_run: Optional[bool]
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


Parser = Callable[[str], object]


def optional(parse: Parser) -> Parser:
    """`parse`, except that a null cell (`util.is_null`) reads as None: the one
    null policy of every optional column."""

    def parse_optional(raw: str) -> object:
        return None if is_null(raw) else parse(raw)

    return parse_optional


def _text(raw: str) -> str:
    return raw.strip()


def _caseno(raw: str) -> str:
    caseno = raw.strip()
    if not caseno:
        raise ValueError("must not be empty")
    return caseno


def _number(kind: type, lo: float = -math.inf, hi: float = math.inf) -> Parser:
    """A finite `kind` (int or float) within [lo, hi]."""

    def parse(raw: str) -> object:
        value = kind(raw)
        # NaN fails the comparison; an int, however large, is never infinite
        if not lo <= value <= hi or abs(value) == math.inf:
            raise ValueError(f"{raw.strip()!r} is not a finite number within [{lo}, {hi}]")
        return value

    return parse


def _parse_bool(raw: str) -> bool:
    t = raw.strip().lower()
    if t in _TRUE_TOKENS:
        return True
    if t in _FALSE_TOKENS:
        return False
    raise ValueError(f"not a boolean flag: {raw!r}")


def _occurred_at(values: dict) -> None:
    stamp = f"{values.pop('date')} {values.pop('time')}"
    values["occurred_at"] = datetime.strptime(stamp, "%Y-%m-%d %H:%M")


def _measures_ordered(values: dict) -> None:
    if not values["from_measure"] < values["to_measure"]:
        raise ValueError(
            f"from_measure {values['from_measure']} must be < to_measure {values['to_measure']}"
        )


@dataclass(frozen=True)
class TableSpec:
    """One CSV table: each field's default column and cell parser, the record
    the fields build, and the check of fields against each other."""

    record: type
    columns: dict[str, tuple[str, Parser]]  # field -> (default CSV column, cell parser)
    combine: Callable[[dict], None] = lambda values: None

    @property
    def header(self) -> list[str]:
        """The default CSV columns, in field order."""
        return [column for column, _ in self.columns.values()]


_float = _number(float)
_int = _number(int)

TABLES: dict[str, TableSpec] = {
    "crash": TableSpec(
        CrashRecord,
        {
            "caseno": ("CASENO", _caseno),
            "date": ("DATE", _text),
            "time": ("TIME", _text),
            "county": ("COUNTY", _text),
            "route_id": ("ROUTE_ID", _text),
            "milepost": ("MILEPOST", _number(float, lo=0)),
            "weather": ("WEATHER", _text),
            "lighting": ("LIGHTING", _text),
            "surface_condition": ("SURFACE_COND", _text),
            "latitude": ("LATITUDE", optional(_float)),
            "longitude": ("LONGITUDE", optional(_float)),
            "hit_and_run": ("HIT_AND_RUN", optional(_parse_bool)),
            "severity": ("SEVERITY", Severity.parse),
        },
        _occurred_at,
    ),
    "segment": TableSpec(
        RoadSegment,
        {
            "route_id": ("ROUTE_ID", _text),
            "from_measure": ("FROM_MEASURE", _float),
            "to_measure": ("TO_MEASURE", _float),
            "lane_count": ("LANE_COUNT", _number(int, lo=1)),
            "lane_width": ("LANE_WIDTH", optional(_float)),
            "left_shoulder_width": ("LEFT_SHOULDER", optional(_float)),
            "right_shoulder_width": ("RIGHT_SHOULDER", optional(_float)),
            "speed_limit": ("SPEED_LIMIT", optional(_int)),
            "surface_type": ("SURFACE_TYPE", _text),
            "aadt": ("AADT", _number(int, lo=0)),
            "locale": ("LOCALE", _text),
        },
        _measures_ordered,
    ),
    "vehicle": TableSpec(
        VehicleRecord,
        {
            "caseno": ("CASENO", _text),
            "unit_id": ("UNIT_ID", _int),
            "make": ("MAKE", _text),
            "model": ("MODEL", _text),
            "model_year": ("MODEL_YEAR", optional(_number(int, MODEL_YEAR_MIN, MODEL_YEAR_MAX))),
            "maneuver": ("MANEUVER", _text),
        },
    ),
    "person": TableSpec(
        PersonRecord,
        {
            "caseno": ("CASENO", _text),
            "unit_id": ("UNIT_ID", _int),
            "role": ("ROLE", _text),
            "age": ("AGE", optional(_number(int, 0, AGE_MAX))),
            "sex": ("SEX", _text),
            "restraint": ("RESTRAINT", _text),
            "airbag": ("AIRBAG", _text),
            "sobriety": ("SOBRIETY", _text),
        },
    ),
}


def _parse_row(spec: TableSpec, columns: Mapping[str, str], row: dict[str, str]) -> object:
    """The record of one CSV row, read through `columns` (field -> CSV column);
    a cell that does not parse raises ValueError naming its field."""
    values = {}
    for name, (_, parse) in spec.columns.items():
        try:
            values[name] = parse(row[columns[name]])
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    spec.combine(values)
    if "extra" in spec.record.__dataclass_fields__:
        mapped = set(columns.values())
        values["extra"] = {k: v for k, v in row.items() if k not in mapped}
    return spec.record(**values)


def _load_table(
    path: str | Path, table: str, columns: Mapping[str, str], rejects: list[RejectedRow]
) -> list:
    """Typed records of one CSV; a row that does not parse, or whose cell
    count differs from the header's, lands in `rejects` with its line number."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{table} table not found: {path}")
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            for column in columns.values():
                if column not in header:
                    raise MissingColumnError(table, column)
            for cells in reader:
                if not cells:
                    continue  # a blank line holds no row
                row = dict(zip(header, cells))
                try:
                    if len(cells) != len(header):
                        raise ValueError(f"{len(cells)} cells where the header has {len(header)}")
                    records.append(_parse_row(TABLES[table], columns, row))
                except ValueError as exc:
                    rejects.append(RejectedRow(table, reader.line_num, str(exc), row))
        except csv.Error as exc:
            raise SchemaError(f"{table} table {path} line {reader.line_num}: {exc}") from None
    return records


def load_tables(
    crash_path: str | Path,
    segment_path: str | Path,
    vehicle_path: str | Path,
    person_path: str | Path,
    column_maps: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> TableSet:
    """Load the four crash CSVs into typed rows.

    `column_maps` renames the CSV column of a field per table. Every mapped
    column must be in the header. Rows that fail type coercion, or hold more
    or fewer cells than the header, land in the rejects report instead of
    being dropped silently. A duplicate caseno in the crash table is fatal.
    """
    maps = {table: dict(zip(spec.columns, spec.header)) for table, spec in TABLES.items()}
    for table, overrides in (column_maps or {}).items():
        if table not in maps:
            raise SchemaError(f"unknown table in column map: {table!r}")
        for name in overrides:
            if name not in maps[table]:
                raise SchemaError(f"unknown field in column map for table {table!r}: {name!r}")
        maps[table].update(overrides)

    rejects: list[RejectedRow] = []
    paths = (crash_path, segment_path, vehicle_path, person_path)
    crashes, segments, vehicles, persons = (
        _load_table(path, table, maps[table], rejects) for path, table in zip(paths, TABLES)
    )

    seen: set[str] = set()
    for crash in crashes:
        if crash.caseno in seen:
            raise DuplicateKeyError(crash.caseno)
        seen.add(crash.caseno)

    return TableSet(crashes, segments, vehicles, persons, rejects)


def link_segment(
    crash: CrashRecord, segments: Sequence[RoadSegment], report: IntegrationReport
) -> Optional[RoadSegment]:
    """Find the segment covering the crash milepost on its route.

    Matching is half-open: from_measure <= milepost < to_measure. Among true
    overlaps the segment with the smallest from_measure wins and an ambiguity
    warning is recorded on `report`.
    """
    matches = [
        seg
        for seg in segments
        if seg.route_id == crash.route_id and seg.from_measure <= crash.milepost < seg.to_measure
    ]
    if not matches:
        return None
    matches.sort(key=lambda seg: seg.from_measure)
    if len(matches) > 1:
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


def check_target_ratio(target_ratio: float) -> None:
    if not (math.isfinite(target_ratio) and target_ratio > 0):
        raise ValueError(f"target_ratio must be a finite positive number, not {target_ratio}")


def stratified_downsample(
    cases: Sequence[CrashCase], target_ratio: float, seed: int
) -> list[CrashCase]:
    """Rebalance classes: keep every minority case, subsample the majority.

    round(target_ratio * |minority|) majority cases are drawn uniformly
    without replacement with the seeded generator; input order is preserved
    among survivors. The ratio must be finite and positive, and the product
    at most |majority|.
    """
    check_target_ratio(target_ratio)
    by_class: dict[Severity, list[int]] = {Severity.MINOR: [], Severity.SEVERE: []}
    for i, case in enumerate(cases):
        by_class[case.crash.severity].append(i)

    # SEVERE is the designated minority on a tie.
    if len(by_class[Severity.MINOR]) < len(by_class[Severity.SEVERE]):
        minority, majority = Severity.MINOR, Severity.SEVERE
    else:
        minority, majority = Severity.SEVERE, Severity.MINOR

    # compared before rounding: the product of a finite ratio can still be inf
    wanted = target_ratio * len(by_class[minority])
    majority_idx = by_class[majority]
    if wanted > len(majority_idx):
        raise InsufficientMajorityError(wanted, len(majority_idx))

    rng = Random(seed)
    kept = set(rng.sample(majority_idx, round(wanted))) | set(by_class[minority])
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
