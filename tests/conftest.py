from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from pathlib import Path

import pytest

from crashlens.narrator import load_lexicon, load_templates, normalize, render
from crashlens.refmodel import BOS_ID, TinyLM, Tokenizer, TrainConfig, TrainingExample, train
from crashlens.schema import integrate, load_tables

FIXTURES = Path(__file__).parent / "fixtures"

# a report that voices every kind of fact the rewrite verifier checks
ORIGINAL = (
    "On June 29, 2022, at 8:00 PM, a traffic accident occurred on Alternate "
    "Route 097ARi in Chelan, Washington. The crash site was at milepost 22.4. "
    "The posted speed limit was 60 mph. By 9:15 PM the road had been cleared."
)

# separators that str.split() and re's \s both take for whitespace, ASCII and not
WHITESPACE = [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\u2028"]


def corpus_path(name: str) -> Path:
    return Path(resources.files("crashlens").joinpath(f"data/corpus/{name}.csv"))


@pytest.fixture(scope="session")
def tables():
    return load_tables(
        corpus_path("crashes"),
        corpus_path("segments"),
        corpus_path("vehicles"),
        corpus_path("persons"),
    )


@pytest.fixture(scope="session")
def cases(tables):
    return integrate(tables).cases


@pytest.fixture(scope="session")
def pairs(cases):
    lexicon = load_lexicon()
    templates = load_templates()
    return [render(normalize(case, lexicon), templates) for case in cases]


@pytest.fixture(scope="session")
def corpus_tokenizer(pairs):
    return Tokenizer.from_texts([p.descriptive for p in pairs])


@pytest.fixture(scope="session")
def reference_model(pairs, corpus_tokenizer):
    """Next-token model over the corpus narratives, one example per prefix of
    each; window covers the longest diagnostic sequence used by the
    attribution tests."""
    examples = []
    for pair in pairs:
        ids = (BOS_ID, *corpus_tokenizer.encode(pair.descriptive))
        examples.extend(TrainingExample(ids[:j], ids[j]) for j in range(1, len(ids)))
    model = TinyLM.init(corpus_tokenizer.size, dim=32, window=32, seed=7)
    return train(model, examples, TrainConfig(lr=0.01, epochs=5, seed=7))


@pytest.fixture(scope="session")
def chain_annotations(tmp_path_factory) -> dict[str, list[str]]:
    """The `annotated` texts of `attribute --method occlusion` after the
    offline chain at default settings, on the bundled corpus and on the
    seed-1 200-case synth corpus."""
    import json

    from crashlens import synth

    out = {}
    for name in ("bundled", "synth-seed1"):
        d = tmp_path_factory.mktemp(name)
        if name == "bundled":
            corpus = corpus_path("crashes").parent
        else:
            corpus = d / "corpus"
            synth.write_corpus(corpus, n_cases=200, seed=1)
        tables = [f"--{t}={corpus / f'{t}.csv'}" for t in ("crashes", "segments", "vehicles", "persons")]
        narratives = str(d / "narratives.jsonl")
        model = ["--model", str(d / "model.json"), "--tokenizer", str(d / "tok.json")]
        for argv in (
            ["ingest", *tables, "--out", str(d / "cases.jsonl")],
            ["narrate", "--cases", str(d / "cases.jsonl"), "--out", narratives],
            ["train-ref", "--narratives", narratives, "--out-model", model[1], "--out-tokenizer", model[3]],
            ["attribute", "--narratives", narratives, *model, "--method", "occlusion", "--out", str(d / "attr.jsonl")],
        ):
            assert run_cli(argv)[0] == 0, argv
        with open(d / "attr.jsonl", encoding="utf-8") as fh:
            out[name] = [json.loads(line)["annotated"] for line in fh]
    return out


def run_cli(args: list[str]) -> tuple[int, str]:
    """Invoke the CLI in-process; returns (exit code, stdout text)."""
    import contextlib
    import io

    from crashlens.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


class OverlapProbe:
    """Chat client wrapper that tells whether two requests were ever in flight
    at once: the first request waits up to 5 s for a second one to start."""

    def __init__(self, inner):
        self.inner = inner
        self.overlapped = False
        self._second = threading.Event()
        self._lock = threading.Lock()
        self._calls = 0

    def send(self, system: str, user: str, temperature: float) -> str:
        with self._lock:
            self._calls += 1
            nth = self._calls
        if nth == 1:
            self.overlapped = self._second.wait(timeout=5.0)
        elif nth == 2:
            self._second.set()
        return self.inner.send(system, user, temperature)


class ReplyClient:
    """Chat client whose completion is `reply(user)`; `reply` may raise
    UnavailableError for a request that fails."""

    def __init__(self, reply):
        self.reply = reply

    def send(self, system: str, user: str, temperature: float) -> str:
        return self.reply(user)


DROP = "drop"  # a scripted outcome: close the connection without replying


def completion_body(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def finish(self) -> None:
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        server = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.posts += 1
            server.targets.append(self.path)
            server.headers.append(dict(self.headers))
            outcome = server.outcomes.pop(0) if server.outcomes else server.rest
        if outcome == DROP:
            self.close_connection = True
            return
        status, body = outcome or (200, completion_body(payload["messages"][1]["content"]))
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        # a silent close: the reply said nothing of it
        self.close_connection = server.close_after_reply

    def do_CONNECT(self) -> None:  # noqa: N802
        """A proxy's tunnel request: kept, and refused."""
        with self.server.lock:
            self.server.targets.append(self.path)
            self.server.headers.append(dict(self.headers))
        self.send_response(403)
        self.send_header("Content-Length", "0")
        self.end_headers()
        self.close_connection = True

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass


class ScriptedServer(ThreadingHTTPServer):
    """A chat endpoint on 127.0.0.1. Each POST takes the next scripted
    outcome, then `rest` for every later POST: a (status, body) pair, or
    DROP. Without either it echoes the user turn as the completion. It
    counts the POSTs and the connections it accepted and saw closed, and
    keeps each request's target and headers; it refuses a CONNECT, after
    keeping its target and headers too."""

    daemon_threads = True

    def __init__(self, outcomes=(), rest=None, close_after_reply=False):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.outcomes = list(outcomes)
        self.rest = rest
        self.close_after_reply = close_after_reply
        self.lock = threading.Lock()
        self.posts = self.connections = self.closed = 0
        self.targets: list[str] = []
        self.headers: list[dict] = []
        threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True).start()

    @property
    def origin(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def url(self) -> str:
        return self.origin + "/v1/chat/completions"


@pytest.fixture
def scripted(monkeypatch):
    """Starts ScriptedServers, stopped at teardown; the `*_proxy`
    variables are cleared so that requests go to them direct."""
    import os

    for key in [k for k in os.environ if k.lower().endswith("_proxy")]:
        monkeypatch.delenv(key)
    servers = []

    def start(outcomes=(), rest=None, close_after_reply=False) -> ScriptedServer:
        servers.append(ScriptedServer(outcomes, rest, close_after_reply))
        return servers[-1]

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def python_cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "crashlens.cli", *args]
