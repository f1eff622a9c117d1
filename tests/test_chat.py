"""The live chat transport, `chat.HttpChatClient`, against a scripted
endpoint on 127.0.0.1."""

from __future__ import annotations

import base64
import socket
import sys
import time

import pytest
from conftest import DROP, ORIGINAL

from crashlens import chat as chat_module
from crashlens.augment import SYSTEM_PROMPT, augment_batch
from crashlens.chat import HttpChatClient
from crashlens.util import UnavailableError


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr("crashlens.chat.time.sleep", slept.append)
    return slept


@pytest.fixture
def chat():
    """Makes HttpChatClients, closed at teardown."""
    clients = []

    def make(endpoint: str, api_key: str = "") -> HttpChatClient:
        clients.append(HttpChatClient(endpoint, api_key))
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
    results = augment_batch([ORIGINAL], client, 0.1, jobs=1)
    text, report = results[0]
    assert text == ORIGINAL
    assert report.error is not None
    assert "UnavailableError" in report.error
    assert len(tried) == 4


def test_transport_exhaustion_error_is_the_record_error(chat, sleeps, down):
    """The UnavailableError a send raises is the record's `error`, word for word."""
    with pytest.raises(UnavailableError) as info:
        chat(down[0]).send(SYSTEM_PROMPT, ORIGINAL, 0.1)
    [(text, report)] = augment_batch([ORIGINAL], chat(down[0]), 0.1, jobs=1)
    assert (text, report.results, report.error) == (ORIGINAL, [], f"UnavailableError: {info.value}")


def test_non_json_reply_falls_back_without_retrying(chat, sleeps, scripted):
    server = scripted(rest=(200, b"<html>busy</html>"))
    client = chat(server.url)
    results = augment_batch([ORIGINAL, ORIGINAL], client, 0.1, jobs=1)
    assert server.posts == 2
    assert sleeps == []
    for text, report in results:
        assert text == ORIGINAL
        assert "UnavailableError: malformed completion payload" in report.error


def test_request_carries_the_payload_and_headers(chat, scripted):
    server = scripted()
    client = chat(server.url + "?api-version=1", api_key="k3y")
    assert client.send("sys", ORIGINAL, 0.25) == ORIGINAL
    assert server.targets == ["/v1/chat/completions?api-version=1"]
    headers = server.headers[0]
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer k3y"
    assert headers["Host"] == server.origin.removeprefix("http://")


@pytest.mark.parametrize("endpoint", ["", "localhost:9/v1", "ftp://host/x", "http:///v1", "http://host:port/v1"])
def test_endpoint_that_is_not_an_http_url_is_rejected_at_construction(endpoint):
    with pytest.raises(ValueError):
        HttpChatClient(endpoint, "")


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


def test_close_closes_every_idle_connection(scripted):
    server = scripted()
    client = HttpChatClient(server.url, "")
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
    assert server.posts == 4 * chat_module.BREAKER_AFTER == 12
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
    assert chat_module.BREAKER_AFTER <= exhausted <= chat_module.BREAKER_AFTER + jobs - 1
    assert server.posts == 4 * exhausted and server.connections <= jobs
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
