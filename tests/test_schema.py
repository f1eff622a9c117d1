from __future__ import annotations

import math
import random
from datetime import datetime

import pytest

from crashlens.schema import (
    CrashRecord,
    DuplicateKeyError,
    InsufficientMajorityError,
    MissingColumnError,
    ParseError,
    RoadSegment,
    Severity,
    case_from_dict,
    case_to_dict,
    deserialize_cases,
    integrate,
    link_segment,
    load_tables,
    stratified_downsample,
)
from conftest import corpus_path
from tablegen import random_tables, severity_cases
from crashlens.util import atomic_write_jsonl


def _segment(route: str, lo: float, hi: float) -> RoadSegment:
    return RoadSegment(
        route_id=route,
        from_measure=lo,
        to_measure=hi,
        lane_count=2,
        lane_width=12.0,
        left_shoulder_width=4.0,
        right_shoulder_width=6.0,
        speed_limit=60,
        surface_type="1",
        aadt=1000,
        locale="rural",
    )


def _crash(caseno: str, route: str, milepost: float, severity=Severity.MINOR) -> CrashRecord:
    return CrashRecord(
        caseno=caseno,
        occurred_at=datetime(2022, 6, 29, 20, 0),
        county="Chelan",
        route_id=route,
        milepost=milepost,
        weather="1",
        lighting="3",
        surface_condition="1",
        latitude=None,
        longitude=None,
        hit_and_run=False,
        severity=severity,
    )


def test_bundled_corpus_loads_clean(tables):
    assert len(tables.crashes) == 50
    assert tables.rejects == []
    assert all(isinstance(c.severity, Severity) for c in tables.crashes)
    by_id = {c.caseno: c for c in tables.crashes}
    showcase = by_id["C0001"]
    assert showcase.occurred_at == datetime(2022, 6, 29, 20, 0)
    assert showcase.milepost == 22.4
    assert showcase.latitude == 47.9512 and showcase.longitude == -120.6626
    assert showcase.hit_and_run is True


CRASH_HEADER = (
    "CASENO,DATE,TIME,COUNTY,ROUTE_ID,MILEPOST,WEATHER,LIGHTING,SURFACE_COND,"
    "LATITUDE,LONGITUDE,HIT_AND_RUN,SEVERITY\n"
)
SEGMENT_HEADER = (
    "ROUTE_ID,FROM_MEASURE,TO_MEASURE,LANE_COUNT,LANE_WIDTH,LEFT_SHOULDER,"
    "RIGHT_SHOULDER,SPEED_LIMIT,SURFACE_TYPE,AADT,LOCALE\n"
)
VEHICLE_HEADER = "CASENO,UNIT_ID,MAKE,MODEL,MODEL_YEAR,MANEUVER\n"
PERSON_HEADER = "CASENO,UNIT_ID,ROLE,AGE,SEX,RESTRAINT,AIRBAG,SOBRIETY\n"
NULLS = ["nan", "unknown", "N/A", ""]


def test_null_markers_become_none(tmp_path):
    """Every optional numeric column reads each null marker as None."""
    rows = {
        "c.csv": [f'X{i},2022-01-02,08:30,King,005,1.5,1,1,1,{m},{m},"0",NoApparentOrMinor' for i, m in enumerate(NULLS)],
        "s.csv": [f"005,{i},{i + 1},2,{m},{m},{m},{m},1,500,rural" for i, m in enumerate(NULLS)],
        "v.csv": [f"X0,{i},Ford,F-150,{m},1" for i, m in enumerate(NULLS)],
        "p.csv": [f"X0,{i},driver,{m},M,1,1,1" for i, m in enumerate(NULLS)],
    }
    headers = {"c.csv": CRASH_HEADER, "s.csv": SEGMENT_HEADER, "v.csv": VEHICLE_HEADER, "p.csv": PERSON_HEADER}
    for name, lines in rows.items():
        (tmp_path / name).write_text(headers[name] + "".join(line + "\n" for line in lines))
    tables = load_tables(*(tmp_path / name for name in rows))
    assert tables.rejects == []
    nones = [None] * len(NULLS)
    assert [c.latitude for c in tables.crashes] == [c.longitude for c in tables.crashes] == nones
    assert [v.model_year for v in tables.vehicles] == [p.age for p in tables.persons] == nones
    for name in ("lane_width", "left_shoulder_width", "right_shoulder_width", "speed_limit"):
        assert [getattr(s, name) for s in tables.segments] == nones, name


def test_bad_numeric_rejects_row_with_line(tmp_path):
    crashes = tmp_path / "c.csv"
    crashes.write_text(
        CRASH_HEADER
        + "X1,2022-01-02,08:30,King,005,abc,1,1,1,,,0,NoApparentOrMinor\n"
        + "X2,2022-01-02,08:30,King,005,2.0,1,1,1,,,0,NoApparentOrMinor\n"
        + "X3,2022-01-02,08:30,King,005,inf,1,1,1,,,0,NoApparentOrMinor\n"
        + "X4,2022-01-02,08:30,King,005,nan,1,1,1,,,0,NoApparentOrMinor\n"
        + "C9999,2022-01-01,08:00\n"
        + "X5,2022-01-02,08:30,King,005,2.0,1,1,1,,,0,NoApparentOrMinor,extra\n"
    )
    empty_v = tmp_path / "v.csv"
    empty_v.write_text(VEHICLE_HEADER)
    persons = tmp_path / "p.csv"
    persons.write_text(PERSON_HEADER + "X2,1,driver\n")
    segments = tmp_path / "s.csv"
    segments.write_text(
        SEGMENT_HEADER
        + "005,nan,10,2,,,,,1,500,rural\n"
        + "005,-inf,10,2,,,,,1,500,rural\n"
        + "005,0,10,2,,,,,1,500,rural\n"
    )
    tables = load_tables(crashes, segments, empty_v, persons)
    assert [c.caseno for c in tables.crashes] == ["X2"]
    assert [s.from_measure for s in tables.segments] == [0.0]
    assert tables.persons == []
    # header is line 1, so the first data row is line 2
    assert [(r.table, r.line) for r in tables.rejects] == [
        ("crash", 2), ("crash", 4), ("crash", 5), ("crash", 6), ("crash", 7),
        ("segment", 2), ("segment", 3),
        ("person", 2),
    ]


def test_duplicate_caseno_is_fatal(tmp_path):
    crashes = tmp_path / "c.csv"
    crashes.write_text(
        CRASH_HEADER
        + "X1,2022-01-02,08:30,King,005,1.0,1,1,1,,,0,NoApparentOrMinor\n"
        + "X1,2022-01-03,09:30,King,005,2.0,1,1,1,,,0,NoApparentOrMinor\n"
    )
    for name, header in [("v.csv", VEHICLE_HEADER), ("p.csv", PERSON_HEADER), ("s.csv", SEGMENT_HEADER)]:
        (tmp_path / name).write_text(header)
    with pytest.raises(DuplicateKeyError):
        load_tables(crashes, tmp_path / "s.csv", tmp_path / "v.csv", tmp_path / "p.csv")


def test_missing_column_is_fatal(tmp_path):
    crashes = tmp_path / "c.csv"
    crashes.write_text("CASENO,DATE\nX1,2022-01-02\n")
    with pytest.raises(MissingColumnError):
        load_tables(crashes, crashes, crashes, crashes)


def test_synth_reproduces_the_bundled_corpus(tmp_path):
    """`python -m crashlens.synth` regenerates the committed corpus, headers
    (derived from the table specs) included."""
    from crashlens import synth

    written = synth.write_corpus(tmp_path)
    assert sorted(written) == ["crashes", "persons", "segments", "vehicles"]
    for name, path in written.items():
        assert path.read_bytes() == corpus_path(name).read_bytes(), name


def test_segment_match_is_half_open():
    from crashlens.schema import IntegrationReport

    segments = [_segment("A", 0.0, 10.0), _segment("A", 10.0, 20.0)]
    report = IntegrationReport()
    assert link_segment(_crash("k", "A", 0.0), segments, report).to_measure == 10.0
    # exactly at the shared boundary: the upper segment owns it
    assert link_segment(_crash("k", "A", 10.0), segments, report).from_measure == 10.0
    assert link_segment(_crash("k", "A", 20.0), segments, report) is None
    assert link_segment(_crash("k", "B", 5.0), segments, report) is None
    assert report.ambiguous_links == []  # adjacent segments do not overlap


def test_overlapping_segments_pick_smallest_start_and_warn():
    from crashlens.schema import IntegrationReport

    segments = [_segment("A", 3.0, 30.0), _segment("A", 0.0, 10.0)]
    report = IntegrationReport()
    chosen = link_segment(_crash("k9", "A", 5.0), segments, report)
    assert chosen.from_measure == 0.0
    assert len(report.ambiguous_links) == 1
    assert "k9" in report.ambiguous_links[0]


def test_integrate_matches_bruteforce_join():
    rng = random.Random(42)
    for _ in range(20):
        tables = random_tables(rng)
        result = integrate(tables)

        crash_ids = {c.caseno for c in tables.crashes}
        kept_vehicles = [v for v in tables.vehicles if v.caseno in crash_ids]
        vehicle_keys = {(v.caseno, v.unit_id) for v in kept_vehicles}

        assert [c.crash.caseno for c in result.cases] == [c.caseno for c in tables.crashes]
        for case in result.cases:
            expected_units = sorted(
                (v for v in kept_vehicles if v.caseno == case.crash.caseno),
                key=lambda v: v.unit_id,
            )
            assert [u[0] for u in case.units] == expected_units
            for veh, persons in case.units:
                expected = [
                    p
                    for p in tables.persons
                    if (p.caseno, p.unit_id) == (veh.caseno, veh.unit_id)
                ]
                assert persons == expected
            matches = [
                s
                for s in tables.segments
                if s.route_id == case.crash.route_id
                and s.from_measure <= case.crash.milepost < s.to_measure
            ]
            if matches:
                assert case.segment == min(matches, key=lambda s: s.from_measure)
            else:
                assert case.segment is None

        orphan_v = [v for v in tables.vehicles if v.caseno not in crash_ids]
        orphan_p = [p for p in tables.persons if (p.caseno, p.unit_id) not in vehicle_keys]
        assert result.report.orphan_vehicles == orphan_v
        assert result.report.orphan_persons == orphan_p


def test_downsample_keeps_minority_and_rounds():
    cases = severity_cases(n_minor=10, n_severe=4)
    out = stratified_downsample(cases, target_ratio=1.6, seed=3)
    kept_minor = [c for c in out if c.crash.severity is Severity.MINOR]
    kept_severe = [c for c in out if c.crash.severity is Severity.SEVERE]
    # round(1.6 * 4) = 6 majority cases survive, every minority case stays
    assert len(kept_minor) == 6
    assert len(kept_severe) == 4
    assert out == [c for c in cases if c in out], "input order is preserved"
    assert stratified_downsample(cases, 1.6, seed=3) == out
    assert stratified_downsample(cases, 1.6, seed=4) != out


def test_downsample_tie_treats_severe_as_minority():
    cases = severity_cases(n_minor=6, n_severe=6)
    out = stratified_downsample(cases, target_ratio=0.5, seed=0)
    assert sum(c.crash.severity is Severity.SEVERE for c in out) == 6
    assert sum(c.crash.severity is Severity.MINOR for c in out) == 3


def test_downsample_rejects_impossible_ratio():
    """A ratio must be finite and positive, and its product with the minority
    count, taken before rounding, at most the majority count; 1e308 * 2
    overflows to inf."""
    cases = severity_cases(n_minor=4, n_severe=2)
    for ratio, error in [
        (5.0, InsufficientMajorityError),
        (2.1, InsufficientMajorityError),
        (1e308, InsufficientMajorityError),
        (0.0, ValueError),
        (math.inf, ValueError),
        (-math.inf, ValueError),
        (math.nan, ValueError),
    ]:
        with pytest.raises(Exception) as err:
            stratified_downsample(cases, target_ratio=ratio, seed=0)
        assert type(err.value) is error, ratio
    assert stratified_downsample(cases, target_ratio=2.0, seed=0) == cases


def test_case_serialization_round_trip(cases, tmp_path):
    path = tmp_path / "cases.jsonl"
    atomic_write_jsonl(path, [case_to_dict(c) for c in cases])
    back = deserialize_cases(path)
    assert back == cases


def test_case_dict_round_trip(cases):
    for case in cases[:5]:
        assert case_from_dict(case_to_dict(case)) == case


def test_deserialize_reports_bad_line(tmp_path, cases):
    path = tmp_path / "cases.jsonl"
    atomic_write_jsonl(path, [case_to_dict(c) for c in cases[:2]])
    with path.open("a") as fh:
        fh.write('{"not": "a case"}\n')
    with pytest.raises(ParseError) as err:
        deserialize_cases(path)
    assert err.value.line == 3
