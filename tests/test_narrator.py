from __future__ import annotations

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
    pair_to_dict,
    read_pairs,
    render,
)
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
