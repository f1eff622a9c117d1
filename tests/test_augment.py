from __future__ import annotations

import base64
import random
import socket
import sys
import time

import pytest
from conftest import DROP
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


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr("crashlens.augment.time.sleep", slept.append)
    return slept


@pytest.fixture
def chat():
    """Makes HttpChatClients, closed at teardown."""
    clients = []

    def make(endpoint, **kwargs) -> HttpChatClient:
        clients.append(HttpChatClient(endpoint=endpoint, **kwargs))
        return clients[-1]

    yield make
    for client in clients:
        client.close()


@pytest.fixture
def down(scripted, monkeypatch):
    """An endpoint on a port that refuses connections, and the list of the
    connections tried (one per attempt); `scripted` clears the proxy
    variables."""
    tried = []
    real = socket.create_connection

    def create_connection(address, *args, **kwargs):
        tried.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", create_connection)
    with socket.socket() as sock:  # bound but not listening, so it refuses
        sock.bind(("127.0.0.1", 0))
        yield f"http://127.0.0.1:{sock.getsockname()[1]}/v1/chat/completions", tried


def test_transport_retry_then_success(chat, sleeps, scripted):
    server = scripted([DROP, (503, b"busy")])
    client = chat(server.url)
    assert client.send("system", ORIGINAL, 0.0) == ORIGINAL
    assert server.posts == 3
    assert sleeps == [0.5, 1.0]


def test_client_gives_up_after_four_attempts(chat, sleeps, down):
    endpoint, tried = down
    client = chat(endpoint)
    with pytest.raises(UnavailableError, match="after 4 attempts: ConnectionRefusedError"):
        client.send("system", ORIGINAL, 0.0)
    assert len(tried) == 4
    assert sleeps == [0.5, 1.0, 2.0]


def test_client_rejected_request_is_not_retried(chat, sleeps, scripted):
    server = scripted([(400, b"bad request")])
    client = chat(server.url)
    with pytest.raises(UnavailableError, match="request rejected: 400 bad request$"):
        client.send("system", ORIGINAL, 0.0)
    assert server.posts == 1
    assert sleeps == []


def test_rejected_body_is_cut_to_200_characters_and_decoded_with_replacement(chat, sleeps, scripted):
    server = scripted([(404, b"\xff" + "é".encode() * 300)])
    with pytest.raises(UnavailableError) as info:
        chat(server.url).send("system", ORIGINAL, 0.0)
    assert str(info.value) == "request rejected: 404 \ufffd" + "é" * 199


def test_transport_exhaustion_is_flagged_not_raised_in_batch(chat, sleeps, down):
    endpoint, tried = down
    client = chat(endpoint)
    results = augment_batch([ORIGINAL], client, 0.1)
    text, report = results[0]
    assert text == ORIGINAL
    assert report.error is not None
    assert "UnavailableError" in report.error
    assert len(tried) == 4


def test_transport_exhaustion_raises_for_single_call(chat, sleeps, down):
    client = chat(down[0])
    with pytest.raises(UnavailableError):
        augment(ORIGINAL, client, 0.1)


def test_non_json_reply_falls_back_without_retrying(chat, sleeps, scripted):
    server = scripted(rest=(200, b"<html>busy</html>"))
    client = chat(server.url)
    results = augment_batch([ORIGINAL, ORIGINAL], client, 0.1)
    assert server.posts == 2
    assert sleeps == []
    for text, report in results:
        assert text == ORIGINAL
        assert "UnavailableError: malformed completion payload" in report.error


def test_request_carries_the_payload_and_headers(chat, scripted):
    server = scripted()
    client = chat(server.url + "?api-version=1", api_key="k3y", model_name="m")
    assert client.send("sys", ORIGINAL, 0.25) == ORIGINAL
    assert server.targets == ["/v1/chat/completions?api-version=1"]
    headers = server.headers[0]
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer k3y"
    assert headers["Host"] == server.origin.removeprefix("http://")


@pytest.mark.parametrize("endpoint", ["localhost:9/v1", "ftp://host/x", "http:///v1", "http://host:port/v1"])
def test_endpoint_that_is_not_an_http_url_is_rejected_at_construction(endpoint):
    with pytest.raises(ValueError):
        HttpChatClient(endpoint=endpoint)


def test_sends_of_one_thread_share_one_connection(chat, scripted):
    server = scripted()
    client = chat(server.url)
    for i in range(5):
        assert client.send("system", f"text {i}", 0.0) == f"text {i}"
    assert (server.posts, server.connections) == (5, 1)


def test_batch_holds_at_most_one_connection_per_job(chat, scripted):
    server = scripted()
    texts = [f"{ORIGINAL} Case {i}." for i in range(12)]
    results = augment_batch(texts, chat(server.url), 0.1, jobs=2)
    assert [text for text, _ in results] == texts
    assert server.posts == 12
    assert 1 <= server.connections <= 2


def test_close_closes_the_connection_of_every_thread(scripted):
    server = scripted()
    client = HttpChatClient(endpoint=server.url)
    augment_batch([f"{ORIGINAL} Case {i}." for i in range(6)], client, 0.1, jobs=2)
    client.send("system", ORIGINAL, 0.0)
    opened = server.connections
    assert 2 <= opened <= 3 and server.closed == 0
    client.close()
    deadline = time.monotonic() + 5.0
    while server.closed < opened and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.closed == opened
    assert client.send("system", ORIGINAL, 0.0) == ORIGINAL  # on a new connection
    assert server.connections == opened + 1
    client.close()


def test_idle_close_by_the_server_is_resent_without_an_attempt(chat, sleeps, scripted):
    server = scripted(close_after_reply=True)
    client = chat(server.url)
    for i in range(3):
        assert client.send("system", f"text {i}", 0.0) == f"text {i}"
    assert sleeps == []
    assert (server.posts, server.connections) == (3, 3)


def test_dead_endpoint_trips_the_breaker(chat, sleeps, scripted):
    server = scripted(rest=(503, b"busy"))
    client = chat(server.url)
    results = augment_batch([f"{ORIGINAL} Case {i}." for i in range(10)], client, 0.1, jobs=1)
    assert server.posts == 4 * augment_module.BREAKER_AFTER == 12
    assert sleeps == [0.5, 1.0, 2.0] * 3
    errors = [report.error for _, report in results]
    assert all(error.startswith("UnavailableError: ") for error in errors)
    assert [e.startswith("UnavailableError: endpoint unavailable: ") for e in errors] == [False] * 3 + [True] * 7


def test_breaker_and_connections_hold_under_many_workers(chat, sleeps, scripted):
    """More workers than cores, switching threads often: once BREAKER_AFTER
    sends have used up their attempts, no send starts, so only those in
    flight then may add to them; and `close` finds every connection."""
    server = scripted(rest=(503, b"busy"))
    client, jobs = chat(server.url), 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = augment_batch([f"{ORIGINAL} Case {i}." for i in range(40)], client, 0.1, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    exhausted = sum(report.error.startswith("UnavailableError: transport failed") for _, report in results)
    assert augment_module.BREAKER_AFTER <= exhausted <= augment_module.BREAKER_AFTER + jobs - 1
    assert server.posts == 4 * exhausted
    client.close()
    deadline = time.monotonic() + 5.0
    while server.closed < server.connections and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.closed == server.connections


def test_only_sends_that_use_up_their_attempts_count_toward_the_breaker(chat, sleeps, scripted):
    busy = (503, b"busy")
    server = scripted([busy] * 8 + [None, (400, b"no"), (200, b"{}")] + [busy] * 12)
    client = chat(server.url)
    outcomes = []
    for _ in range(9):
        try:
            outcomes.append(client.send("system", ORIGINAL, 0.0) == ORIGINAL)
        except UnavailableError as exc:
            outcomes.append(str(exc).split(":")[0])
    exhausted = "transport failed after 4 attempts"
    # the success resets the count, and neither the 4xx nor the bad body adds to it
    assert outcomes == [exhausted] * 2 + [True, "request rejected", "malformed completion payload"] + [
        exhausted
    ] * 3 + ["endpoint unavailable"]
    assert server.posts == 23


def test_http_proxy_gets_the_absolute_url_and_the_credentials(chat, scripted, monkeypatch):
    proxy = scripted()
    monkeypatch.setenv("HTTP_PROXY", proxy.origin.replace("//", "//user:p%40ss@"))
    client = chat("http://chat.invalid:8080/v1/chat/completions")
    assert client.send("system", ORIGINAL, 0.0) == ORIGINAL
    assert proxy.targets == ["http://chat.invalid:8080/v1/chat/completions"]
    assert proxy.headers[0]["Host"] == "chat.invalid:8080"
    assert proxy.headers[0]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_https_endpoint_is_tunnelled_through_its_proxy(chat, sleeps, scripted, monkeypatch):
    proxy = scripted()
    monkeypatch.setenv("https_proxy", proxy.origin.replace("//", "//user:pw@"))
    client = chat("https://chat.invalid/v1/chat/completions", api_key="k3y")
    with pytest.raises(UnavailableError, match="after 4 attempts: OSError: Tunnel connection failed: 403"):
        client.send("system", ORIGINAL, 0.0)
    assert proxy.targets == ["chat.invalid:443"] * 4
    # the credentials go to the proxy, the key only inside the tunnel
    assert proxy.headers[0]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()
    assert "Authorization" not in proxy.headers[0]


def test_no_proxy_sends_direct(chat, scripted, monkeypatch):
    proxy, server = scripted(), scripted()
    monkeypatch.setenv("HTTP_PROXY", proxy.origin)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    assert chat(server.url).send("system", ORIGINAL, 0.0) == ORIGINAL
    assert (proxy.posts, server.targets) == (0, ["/v1/chat/completions"])


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
