from __future__ import annotations

import copy
import dataclasses

import pytest

from crashlens.narrator import (
    Clause,
    MissingRequiredSlotError,
    NarrativePair,
    NarrativeTemplate,
    _article,
    _fmt_time,
    _ordinal,
    _render_sentence,
    load_lexicon,
    load_templates,
    normalize,
    read_pairs,
    render,
)
from crashlens.records import pair_to_dict
from crashlens.schema import Severity
from crashlens.util import ParseError, atomic_write_jsonl, is_null
from oracles import fact_values

SHOWCASE_OPENING = (
    "On June 29, 2022, at 8:00 PM, a traffic accident occurred on "
    "Alternate Route 097ARi in Chelan, Washington."
)


@pytest.fixture(scope="module")
def showcase(pairs):
    return next(p for p in pairs if p.caseno == "C0001")


def test_showcase_opening_sentence(showcase):
    assert showcase.descriptive.startswith(SHOWCASE_OPENING)


def test_showcase_voices_every_designed_fact(showcase):
    text = showcase.descriptive
    for phrase in [
        "It was a Wednesday.",
        "clear weather",
        "dry road surface",
        "under dusk conditions",
        "milepost 22.4",
        "(47.9512, -120.6626)",
        "rural two-lane road",
        "speed limit of 60 mph",
        "bituminous surface treatment",
        "AADT of 4,800",
        "hit-and-run",
        "2005 Ford F-150 pickup",
        "improperly passing",
        "1995 Toyota Camry sedan",
        "36-year-old male",
        "no evidence of alcohol involvement",
    ]:
        assert phrase in text, f"missing {phrase!r}"


def test_outcome_is_separate_from_descriptive(showcase):
    assert showcase.label is Severity.SEVERE
    assert "serious injuries or a fatality" in showcase.outcome
    # the descriptive half never gives the answer away, in any wording
    for phrase in (Severity.SEVERE.phrase, Severity.MINOR.phrase, "fatality", "injury"):
        assert phrase.lower() not in showcase.descriptive.lower()


def test_no_null_markers_leak(pairs):
    for pair in pairs:
        lowered = f" {pair.descriptive.lower()} "
        for marker in ("nan", "unknown", "n/a", "none"):
            assert f" {marker} " not in lowered, pair.caseno
            assert f" {marker}." not in lowered, pair.caseno


def test_every_nonnull_fact_is_voiced(cases):
    lexicon = load_lexicon()
    templates = load_templates()
    for case in cases:
        normalized = normalize(case, lexicon)
        pair = render(normalized, templates)
        narrative = f"{pair.descriptive}\n{pair.outcome}"
        for value in fact_values(normalized):
            assert value in narrative, f"{case.crash.caseno}: {value!r} unvoiced"


def test_normalize_drops_one_sided_coordinates(cases):
    lexicon = load_lexicon()
    case = cases[0]
    lopsided = type(case)(
        crash=dataclasses.replace(case.crash, latitude=47.0, longitude=None),
        segment=case.segment,
        units=case.units,
    )
    normalized = normalize(lopsided, lexicon)
    assert "latitude" not in normalized.fields
    assert "longitude" not in normalized.fields


NULL_FORMS = ["", "nan", " Unknown ", "N/A"]

# Every text fact `normalize` reads, with the record that holds it, the slot
# it fills and that slot's text when the fact is null (None: no slot). A null
# role drops the whole person, so it has no slot of its own.
NULLABLE_FACTS = [
    ("crash", "county", "county", None),
    ("crash", "weather", "weather", None),
    ("crash", "surface_condition", "surface_condition", None),
    ("crash", "lighting", "lighting", None),
    ("extra", "TRAFFIC_CONTROL", "traffic_control", None),
    ("extra", "WORK_ZONE", None, None),  # unrendered: only ever a warning
    ("segment", "locale", "road_description", "a two-lane road"),
    ("segment", "surface_type", "surface_type", None),
    ("vehicle", "make", "description", "a 2005 F-150 pickup"),
    ("vehicle", "model", "description", "a 2005 Ford"),
    ("vehicle", "maneuver", "maneuver", None),
    ("person", "role", None, None),
    ("person", "sex", "profile", "a 36-year-old person"),
    ("person", "restraint", "restraint", None),
    ("person", "airbag", "airbag", None),
    ("person", "sobriety", "sobriety", None),
]


def _with_fact(case, record, name, value):
    """`case` with one raw fact of its first vehicle or person replaced."""
    crash, segment, units = case.crash, case.segment, case.units
    if record == "crash":
        crash = dataclasses.replace(crash, **{name: value})
    elif record == "extra":
        crash = dataclasses.replace(crash, extra={**crash.extra, name: value})
    elif record == "segment":
        segment = dataclasses.replace(segment, **{name: value})
    elif record == "vehicle":
        veh, persons = units[0]
        units = [(dataclasses.replace(veh, **{name: value}), persons), *units[1:]]
    else:
        veh, (per, *others) = units[0]
        units = [(veh, [dataclasses.replace(per, **{name: value}), *others]), *units[1:]]
    return type(case)(crash=crash, segment=segment, units=units)


@pytest.mark.parametrize("null", NULL_FORMS)
@pytest.mark.parametrize("record, name, slot, null_text", NULLABLE_FACTS)
def test_null_fact_is_dropped_without_warning(cases, record, name, slot, null_text, null):
    lexicon = load_lexicon()
    base_case = _with_fact(cases[0], "extra", "WORK_ZONE", "Y")
    base = normalize(base_case, lexicon)
    got = normalize(_with_fact(base_case, record, name, null), lexicon)

    expected = copy.deepcopy(base)
    first = expected.vehicles[0]
    holder = {"vehicle": first.fields, "person": first.persons[0]}.get(record, expected.fields)
    if record == "person" and slot is None:
        del first.persons[0]
    elif slot is not None:
        assert slot in holder, "the fact must be voiced when present"
        del holder[slot]
        if null_text is not None:
            holder[slot] = null_text
    assert got.fields == expected.fields
    assert got.vehicles == expected.vehicles
    # only the warnings that name the nulled fact go
    assert got.warnings == [w for w in base.warnings if name not in w]
    if record == "extra" and slot is None:
        assert any(name in w for w in base.warnings)


def test_case_phrase_already_voiced_is_kept_once(cases):
    lexicon = load_lexicon()
    fields = {**lexicon.fields, "traffic_control": {"1": lexicon.fields["weather"]["1"]}}
    case = _with_fact(_with_fact(cases[0], "crash", "weather", "1"), "extra", "TRAFFIC_CONTROL", "1")
    normalized = normalize(case, dataclasses.replace(lexicon, fields=fields))
    assert normalized.fields["weather"] == "clear"
    assert "traffic_control" not in normalized.fields


def test_unknown_code_passes_through_with_warning():
    lexicon = load_lexicon()
    phrase, warning = lexicon.lookup("weather", "99")
    assert phrase == "99"
    assert "99" in warning
    phrase, warning = lexicon.lookup("weather", "1")
    assert phrase == "clear"
    assert warning is None


def test_null_marker_detection():
    for raw in ("", "  ", "nan", "Unknown", "N/A"):
        assert is_null(raw), raw
    assert not is_null("0")


def test_required_slot_failure_names_case():
    template = NarrativeTemplate(
        section="descriptive",
        scope="case",
        clauses=(Clause(text="On {date} it happened.", required=True),),
    )
    with pytest.raises(MissingRequiredSlotError) as err:
        _render_sentence(template, {}, caseno="C0099")
    assert "C0099" in str(err.value)
    assert "date" in str(err.value)


def test_optional_clause_elides_and_empty_sentence_drops():
    template = NarrativeTemplate(
        section="descriptive",
        scope="case",
        clauses=(Clause(text="The crash happened"), Clause(text=" in {weather} weather"), Clause(text=".")),
    )
    assert _render_sentence(template, {"weather": "clear"}, "k") == "The crash happened in clear weather."
    # no slot voiced anywhere: the sentence disappears instead of printing filler
    assert _render_sentence(template, {}, "k") is None


def test_time_formatting():
    assert _fmt_time(20, 0) == "8:00 PM"
    assert _fmt_time(0, 5) == "12:05 AM"
    assert _fmt_time(12, 0) == "12:00 PM"
    assert _fmt_time(9, 30) == "9:30 AM"


def test_ordinal_and_article():
    assert _ordinal(1) == "first"
    assert _ordinal(2) == "second"
    assert _article("apple pie") == "an"
    assert _article("Ford") == "a"
    assert _article("18-year-old driver") == "an"
    assert _article("36-year-old male") == "a"
    assert _article("8:00 PM start") == "an"


def test_pairs_round_trip(tmp_path, pairs):
    path = tmp_path / "pairs.jsonl"
    atomic_write_jsonl(path, [pair_to_dict(p) for p in pairs])
    assert read_pairs(path) == pairs


def test_pair_fields():
    pair = NarrativePair(caseno="Z", descriptive="d", outcome="o", label=Severity.MINOR)
    assert pair.label.phrase == "No apparent or minor injury"


@pytest.mark.parametrize(
    "line, detail",
    [
        ("{not json", "Expecting property name"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"caseno": "C1", "descriptive": "d", "label": "SeriousOrFatal"}', "missing key 'outcome'"),
        ('{"caseno": "C1", "descriptive": "d", "outcome": "o", "label": "Fatal"}', "'Fatal' is not a valid Severity"),
        ('{"caseno": "C1", "descriptive": 5, "outcome": "o", "label": "SeriousOrFatal"}', "'descriptive' is not a string"),
    ],
)
def test_read_pairs_reports_bad_line(tmp_path, pairs, line, detail):
    path = tmp_path / "pairs.jsonl"
    atomic_write_jsonl(path, [pair_to_dict(p) for p in pairs[:2]])
    with path.open("a") as fh:
        fh.write("\n" + line + "\n")
    with pytest.raises(ParseError) as err:
        read_pairs(path)
    assert err.value.line == 4
    assert detail in err.value.detail
