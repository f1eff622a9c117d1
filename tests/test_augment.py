from __future__ import annotations

import random

import pytest
from conftest import ORIGINAL, ReplyClient
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crashlens import augment as augment_module
from crashlens.augment import SYSTEM_PROMPT, ConstraintKind, augment_batch, verify_preservation
from crashlens.augment import _canonical_times, _proper_noun_runs
from crashlens.util import StubChatClient


def _failures(report):
    return {f.kind for f in report.failures}


def test_identity_rewrite_passes_all_constraints():
    report = verify_preservation(ORIGINAL, ORIGINAL)
    assert report.passed
    assert report.failures == []


def test_faithful_paraphrase_passes():
    paraphrase = (
        "A traffic accident took place on Alternate Route 097ARi in Chelan, "
        "Washington on June 29, 2022, at 8:00 PM. It happened at milepost 22.4, "
        "where the posted limit is 60 mph. The road was cleared by 9:15 PM."
    )
    report = verify_preservation(ORIGINAL, paraphrase)
    assert report.passed, [f"{f.kind}: {f.offending}" for f in report.failures]


def test_dropped_number_is_caught():
    mangled = ORIGINAL.replace("milepost 22.4", "that milepost")
    report = verify_preservation(ORIGINAL, mangled)
    assert ConstraintKind.NUMBERS in _failures(report)
    offending = next(f for f in report.failures if f.kind is ConstraintKind.NUMBERS).offending
    assert "22.4" in offending


def test_changed_date_is_caught():
    mangled = ORIGINAL.replace("June 29, 2022", "June 30, 2022")
    report = verify_preservation(ORIGINAL, mangled)
    assert ConstraintKind.DATES_TIMES in _failures(report)


def test_24_hour_clock_restatement_is_accepted():
    restated = ORIGINAL.replace("8:00 PM", "20:00").replace("9:15 PM", "21:15")
    report = verify_preservation(ORIGINAL, restated)
    assert ConstraintKind.DATES_TIMES not in _failures(report)
    assert ConstraintKind.CHRONOLOGY not in _failures(report)


def test_clock_time_with_seconds_is_one_time():
    text = "at 12:30:45 PM the car stopped"
    times, residual = _canonical_times(text)
    assert times == ["T12:30:45"]
    assert not any(c.isdigit() for c in residual)  # no stray `12` left as a number
    assert oracles._canonical_times_scans(text) == (times, residual)
    assert _canonical_times("cleared by 21:05:09.")[0] == ["T21:05:09"]
    # no clock pattern starts right after a `:`, so a malformed minute or
    # seconds field is read as plain numbers, not as an hour
    for text, times in (("at 12:3 PM the car", []), ("at 12:30:4 PM the car", ["T12:30"])):
        assert _canonical_times(text)[0] == times
        assert oracles._canonical_times_scans(text)[0] == times


def test_rewrite_of_a_time_with_seconds():
    text = "The car stopped at 12:30:45 PM near Chelan."
    assert verify_preservation(text, text.replace("12:30:45 PM", "12:30:45")).passed
    dropped = verify_preservation(text, text.replace("12:30:45 PM", "12:30 PM"))
    assert _failures(dropped) == {ConstraintKind.DATES_TIMES}
    assert dropped.failures[0].offending == ["T12:30:45"]


def test_meridiem_is_never_part_of_a_proper_noun_run():
    text = "The crash happened at 8:00 PM Tuesday near Chelan."
    assert _proper_noun_runs(text) == ["Tuesday", "Chelan"]
    assert oracles.proper_noun_runs_scans(text) == ["Tuesday", "Chelan"]
    report = verify_preservation(text, text.replace("8:00 PM", "20:00"))
    assert ConstraintKind.PROPER_NOUNS not in _failures(report)


def test_dropped_proper_noun_is_caught():
    mangled = ORIGINAL.replace("Chelan, Washington", "the county")
    report = verify_preservation(ORIGINAL, mangled)
    assert ConstraintKind.PROPER_NOUNS in _failures(report)
    offending = next(
        f for f in report.failures if f.kind is ConstraintKind.PROPER_NOUNS
    ).offending
    assert any("Chelan" in run for run in offending)


def test_injected_null_marker_is_caught():
    mangled = ORIGINAL + " The driver age is unknown."
    report = verify_preservation(ORIGINAL, mangled)
    assert ConstraintKind.NO_NULL_MARKERS in _failures(report)
    mangled2 = ORIGINAL + " Weather: N/A."
    assert ConstraintKind.NO_NULL_MARKERS in _failures(verify_preservation(ORIGINAL, mangled2))


def test_reordered_times_break_chronology():
    swapped = (
        "By 9:15 PM the road had been cleared after a crash on Alternate Route "
        "097ARi in Chelan, Washington at milepost 22.4 on June 29, 2022, at "
        "8:00 PM, where the posted speed limit was 60 mph."
    )
    report = verify_preservation(ORIGINAL, swapped)
    assert ConstraintKind.CHRONOLOGY in _failures(report)


def test_system_prompt_lists_requirements():
    prompt = SYSTEM_PROMPT
    assert prompt.startswith("You are a professional editor")
    assert "Requirements:" in prompt
    for line in (
        "Keep every numeric value",
        "Keep all dates and times",
        "proper nouns verbatim",
        "Never write placeholder values",
        "same chronological order",
    ):
        assert line in prompt


def test_stub_echo_round_trip():
    [(text, report)] = augment_batch([ORIGINAL], StubChatClient(), 0.1, jobs=1)
    assert text == ORIGINAL
    assert report.passed and report.error is None


def test_batch_falls_back_to_byte_identical_original():
    def adversary(user: str) -> str:
        return user.replace("60 mph", "65 mph").replace("22.4", "23")

    results = augment_batch([ORIGINAL], ReplyClient(adversary), 0.1, jobs=1)
    text, report = results[0]
    assert text == ORIGINAL
    assert not report.passed
    assert ConstraintKind.NUMBERS in _failures(report)


def test_batch_preserves_order_and_mixes_outcomes():
    good = ORIGINAL
    other = "On July 1, 2022, at 7:00 AM, a crash occurred on Route 002 at milepost 3.0."

    def adversary(user: str) -> str:
        if "July" in user:
            return user.replace("milepost 3.0", "milepost 4.0")
        return user

    results = augment_batch([good, other], ReplyClient(adversary), 0.1, jobs=1)
    assert results[0][0] == good and results[0][1].passed
    assert results[1][0] == other and not results[1][1].passed


def test_batch_parallel_matches_serial(pairs):
    texts = [p.descriptive for p in pairs[:8]]
    serial = augment_batch(texts, StubChatClient(), 0.1, jobs=1)
    parallel = augment_batch(texts, StubChatClient(), 0.1, jobs=4)
    assert [t for t, _ in serial] == [t for t, _ in parallel]


def test_empty_completion_rejected():
    for completion in ("", "   "):
        [(text, report)] = augment_batch([ORIGINAL], ReplyClient(lambda _: completion), 0.1, jobs=1)
        assert (text, report.results) == (ORIGINAL, [])
        assert report.error == "EmptyCompletionError: model returned an empty completion"


def test_blank_narrative_falls_back_without_a_request():
    sent = []
    results = augment_batch([ORIGINAL, " \t\n", ORIGINAL], ReplyClient(lambda u: sent.append(u) or u), 0.1, jobs=1)
    assert [text for text, _ in results] == [ORIGINAL, " \t\n", ORIGINAL]
    assert sent == [ORIGINAL, ORIGINAL]
    blank = results[1][1]
    assert not blank.passed and blank.results == [] and blank.error == "ValueError: narrative is empty"
    assert results[0][1].passed and results[2][1].passed


# Texts made of what the verifier reads: clock forms (one inside a word,
# one with seconds), dates in both forms, numbers, null markers in any case
# and with punctuation, and capitalized words with leading or trailing
# punctuation, a non-ASCII capital, a capital that is not a letter and a
# sentence end glued to the next word; between them, any whitespace.
_FACT_FRAGMENTS = [
    "8:00 PM", "12:30:45 PM", "9:15pm", "10:05 a.m.", "a7:30", "7:30", "0:00", "99:99", "8 PM", "11AM", "5 p.m",
    "June 29, 2022", "May  3,\t2021", "Mayday 3, 2021", "October 5, 2021", "August 1, 1999", "xMarch 2, 2002", "2022-06-29", "x2022-06-29", "12022-06-29",
    "22.4", "1,234.5", "60", "007", "\u0663\u0660",
    "N/A", "n/a.", "(N/A)", "UNKNOWN", "unknown,", "nan", "NaN", "nano",
    "Route", "Ford", "Ford Focus.", "(Ford)", "(Ford", "Ford)", "'O'Brien", "\"Smith\"", "Élan", "élan", "ÉTAT",
    "\u216b", "_Ford", "U.S.", "St. Mary", "Chelan,", "Washington", "The", "A", "AM", "PM", "Mr.",
    "on", "the", "milepost", "Ford.Focus", "?", ".", "!", "(", "",
]
_SPACES = [" ", " ", "  ", "\t", "\n", " \n ", "\u00a0", ""]
_texts = st.lists(st.tuples(st.sampled_from(_FACT_FRAGMENTS), st.sampled_from(_SPACES)), max_size=24).map(
    lambda parts: "".join(f + w for f, w in parts)
)


@settings(max_examples=400, deadline=None)
@given(_texts, st.one_of(st.none(), _texts))
def test_verify_preservation_matches_the_scan_oracle(original, rewrite):
    """The whole report, kinds and offending lists in order; `None` stands
    for a rewrite equal to its original."""
    augmented = original if rewrite is None else rewrite
    assert verify_preservation(original, augmented) == oracles.verify_preservation_scans(original, augmented)


@settings(max_examples=400, deadline=None)
@given(_texts)
def test_proper_noun_runs_match_the_sentence_split_oracle(text):
    assert _proper_noun_runs(text) == oracles.proper_noun_runs_scans(text)


_pattern_text = st.lists(
    st.one_of(
        st.text(st.sampled_from("0123456789\u0663:-., \t\naApPmM_xé/"), min_size=1, max_size=8),
        st.sampled_from(_FACT_FRAGMENTS + ["Jun", "NAN", "n/a/b", "xnan", "unknownx"]),
        st.sampled_from(augment_module._MONTHS.split("|")).map(lambda month: f"{month} 9, 2020"),
    ),
    max_size=16,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_pattern_text)
def test_rewritten_patterns_find_what_their_word_boundary_forms_find(text):
    for name, original in oracles.SCAN_PATTERNS.items():
        rewritten = getattr(augment_module, name)
        got = [(m.span(), m.groups()) for m in rewritten.finditer(text)]
        assert got == [(m.span(), m.groups()) for m in original.finditer(text)], name


@pytest.fixture(scope="module")
def synth_narratives(tmp_path_factory):
    """The descriptive texts of the seed-1 200-case synth corpus."""
    from crashlens import narrator, schema, synth

    corpus = tmp_path_factory.mktemp("synth") / "corpus"
    synth.write_corpus(corpus, n_cases=200, seed=1)
    tables = schema.load_tables(*(corpus / f"{t}.csv" for t in ("crashes", "segments", "vehicles", "persons")))
    lexicon, templates = narrator.load_lexicon(), narrator.load_templates()
    return [narrator.render(narrator.normalize(c, lexicon), templates).descriptive for c in schema.integrate(tables).cases]


def _mutated(text: str, rng: random.Random) -> str:
    """PM spelled p.m., a word with a digit dropped, a capitalized word
    lowered and, now and then, a null marker added."""
    words = text.replace("PM", "p.m.").split(" ")
    del words[rng.choice([i for i, w in enumerate(words) if any(c.isdigit() for c in w)])]
    i = rng.choice([i for i, w in enumerate(words) if w[:1].isupper()])
    words[i] = words[i].lower()
    if rng.random() < 0.2:
        words.insert(rng.randrange(len(words)), "N/A")
    return " ".join(words)


def test_synth_narratives_verify_as_the_scan_oracle_does(synth_narratives):
    rng = random.Random(1)
    assert len(synth_narratives) == 200
    failed = set()
    for text in synth_narratives:
        for augmented in (text, _mutated(text, rng)):
            report = verify_preservation(text, augmented)
            assert report == oracles.verify_preservation_scans(text, augmented)
            failed.update(r.kind for r in report.failures)
    assert failed == set(ConstraintKind)  # the mutations reach every check
