from __future__ import annotations

import json
import random

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crashlens import augment as augment_module
from crashlens.augment import (
    SYSTEM_PROMPT,
    ConstraintKind,
    EmptyCompletionError,
    HttpChatClient,
    StubChatClient,
    UnavailableError,
    augment,
    augment_batch,
    verify_preservation,
)
from crashlens.augment import _proper_noun_runs

ORIGINAL = (
    "On June 29, 2022, at 8:00 PM, a traffic accident occurred on Alternate "
    "Route 097ARi in Chelan, Washington. The crash site was at milepost 22.4. "
    "The posted speed limit was 60 mph. By 9:15 PM the road had been cleared."
)


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
    out = augment(ORIGINAL, StubChatClient(), 0.1)
    assert out == ORIGINAL


def test_batch_falls_back_to_byte_identical_original():
    def adversary(user: str) -> str:
        return user.replace("60 mph", "65 mph").replace("22.4", "23")

    results = augment_batch([ORIGINAL], StubChatClient(transform=adversary), 0.1)
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

    results = augment_batch([good, other], StubChatClient(transform=adversary), 0.1)
    assert results[0][0] == good and results[0][1].passed
    assert results[1][0] == other and not results[1][1].passed


def test_batch_parallel_matches_serial(pairs):
    texts = [p.descriptive for p in pairs[:8]]
    serial = augment_batch(texts, StubChatClient(), 0.1, jobs=1)
    parallel = augment_batch(texts, StubChatClient(), 0.1, jobs=4)
    assert [t for t, _ in serial] == [t for t, _ in parallel]


ENDPOINT = "http://localhost:9/v1/chat/completions"


def _reply(status: int, body: bytes) -> requests.Response:
    resp = requests.Response()
    resp.status_code = status
    resp._content = body
    return resp


def _completion(text: str) -> requests.Response:
    return _reply(200, json.dumps({"choices": [{"message": {"content": text}}]}).encode())


class ScriptedSession:
    """Stands in for requests.Session. Each POST takes the next scripted outcome
    (a response, or an exception to raise), then `rest` for every later POST;
    without `rest` it answers by echoing the user turn."""

    def __init__(self, outcomes=(), rest=None):
        self.outcomes = list(outcomes)
        self.rest = rest
        self.posts = 0

    def post(self, url, json, headers, timeout):
        self.posts += 1
        outcome = self.outcomes.pop(0) if self.outcomes else self.rest
        if outcome is None:
            return _completion(json["messages"][1]["content"])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def html_session() -> ScriptedSession:
    return ScriptedSession(rest=_reply(200, b"<html>busy</html>"))


def down_session() -> ScriptedSession:
    return ScriptedSession(rest=requests.ConnectionError("connection refused"))


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr("crashlens.augment.time.sleep", slept.append)
    return slept


def test_transport_retry_then_success(sleeps):
    session = ScriptedSession([requests.ConnectionError("boom"), _reply(503, b"busy")])
    client = HttpChatClient(endpoint=ENDPOINT, session=session)
    assert client.send("system", ORIGINAL, 0.0) == ORIGINAL
    assert session.posts == 3
    assert sleeps == [0.5, 1.0]


def test_client_gives_up_after_four_attempts(sleeps):
    session = down_session()
    client = HttpChatClient(endpoint=ENDPOINT, session=session)
    with pytest.raises(UnavailableError, match="after 4 attempts"):
        client.send("system", ORIGINAL, 0.0)
    assert session.posts == 4
    assert sleeps == [0.5, 1.0, 2.0]


def test_client_rejected_request_is_not_retried(sleeps):
    session = ScriptedSession([_reply(400, b"bad request")])
    client = HttpChatClient(endpoint=ENDPOINT, session=session)
    with pytest.raises(UnavailableError, match="request rejected: 400"):
        client.send("system", ORIGINAL, 0.0)
    assert session.posts == 1
    assert sleeps == []


def test_transport_exhaustion_is_flagged_not_raised_in_batch(sleeps):
    session = down_session()
    client = HttpChatClient(endpoint=ENDPOINT, session=session)
    results = augment_batch([ORIGINAL], client, 0.1)
    text, report = results[0]
    assert text == ORIGINAL
    assert report.error is not None
    assert "UnavailableError" in report.error
    assert session.posts == 4


def test_transport_exhaustion_raises_for_single_call(sleeps):
    client = HttpChatClient(endpoint=ENDPOINT, session=down_session())
    with pytest.raises(UnavailableError):
        augment(ORIGINAL, client, 0.1)


def test_non_json_reply_falls_back_without_retrying(sleeps):
    session = html_session()
    client = HttpChatClient(endpoint=ENDPOINT, session=session)
    results = augment_batch([ORIGINAL, ORIGINAL], client, 0.1)
    assert session.posts == 2
    assert sleeps == []
    for text, report in results:
        assert text == ORIGINAL
        assert "UnavailableError: malformed completion payload" in report.error


def test_empty_completion_rejected():
    with pytest.raises(EmptyCompletionError):
        augment(ORIGINAL, StubChatClient(transform=lambda _: "   "), 0.1)


def test_blank_narrative_falls_back_in_a_batch_but_raises_alone():
    results = augment_batch([ORIGINAL, " \t\n", ORIGINAL], StubChatClient(), 0.1)
    assert [text for text, _ in results] == [ORIGINAL, " \t\n", ORIGINAL]
    blank = results[1][1]
    assert not blank.passed and blank.results == [] and "narrative is empty" in blank.error
    assert results[0][1].passed and results[2][1].passed
    with pytest.raises(ValueError, match="narrative is empty"):
        augment("   ", StubChatClient(), 0.1)


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
