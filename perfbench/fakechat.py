"""A local OpenAI-compatible chat endpoint whose every reply is known in advance.

The server is standard library only. Each request is answered after a fixed
service time (seeded jitter of +-20% around SERVICE_S), and the reply is a
pure function of (seed, request), so the output checks can recompute what
each stage must have produced from the same functions:

- augment (system prompt of the editor): the narrative is echoed back, except
  for a seeded share of narratives whose milepost number is dropped, so that
  exactly those records must fall back;
- eval (system prompt of the road safety engineer): one category phrase,
  chosen by a seeded hash of the narrative that ignores the gold label; a
  chain-of-thought prompt gets a line of reasoning that names the other
  category first and ends with the chosen one;
- analyze (system prompt of the road safety analyst): a factor JSON built from
  the word[score] pairs of the annotated narrative, each term put into an
  aspect by a seeded hash. A seeded share of first replies is prose, or a code
  fence behind a line of prose, so that the summarizer's repair request runs;
  a repair request always gets the clean JSON.

No request fails.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SERVICE_S = 0.030
AUGMENT_BREAK_SHARE = 0.2
ANALYZE_BROKEN_SHARE = 0.3

ASPECTS = ("environmental", "vehicle_occupant", "behavioral", "infrastructure", "unusual")
MINOR_PHRASE = "No apparent or minor injury"
SEVERE_PHRASE = "Serious injury or fatal"

_MILEPOST_RE = re.compile(r"(milepost )(\d+(?:\.\d+)?)")
_ANNOTATED_WORD_RE = re.compile(r"^(.*)\[(\d+\.\d{2})\]$", re.DOTALL)
_PUNCT = ".,;:!?()'\"[]"


def unit(seed: int, tag: str, text: str) -> float:
    """A uniform value in [0, 1) fixed by (seed, tag, text)."""
    digest = hashlib.sha256(f"{seed}\x00{tag}\x00{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def breaks_augment(seed: int, narrative: str) -> bool:
    return unit(seed, "augment", narrative) < AUGMENT_BREAK_SHARE and bool(
        _MILEPOST_RE.search(narrative)
    )


def augment_reply(seed: int, narrative: str) -> str:
    if breaks_augment(seed, narrative):
        return _MILEPOST_RE.sub(r"\1", narrative, count=1)
    return narrative


def eval_label(seed: int, narrative: str) -> str:
    """The phrase the server answers for `narrative`; blind to the gold label."""
    return SEVERE_PHRASE if unit(seed, "eval", narrative) < 0.5 else MINOR_PHRASE


def eval_reply(seed: int, narrative: str, chain_of_thought: bool) -> str:
    chosen = eval_label(seed, narrative)
    if not chain_of_thought:
        return chosen
    other = MINOR_PHRASE if chosen == SEVERE_PHRASE else SEVERE_PHRASE
    return f"At first sight this could be {other}, but weighing the report the answer is: {chosen}"


def factor_terms(seed: int, annotated: str) -> dict[str, list[tuple[str, float]]]:
    """Scored terms of an annotated narrative, bucketed per aspect in text order.

    A term is a word with its punctuation stripped; a repeated term keeps its
    first position and its highest score.
    """
    best: dict[str, float] = {}
    order: list[str] = []
    for token in annotated.split():
        m = _ANNOTATED_WORD_RE.match(token)
        if not m:
            continue
        term = m.group(1).strip(_PUNCT)
        if not term:
            continue
        score = float(m.group(2))
        if term not in best:
            order.append(term)
            best[term] = score
        else:
            best[term] = max(best[term], score)
    out: dict[str, list[tuple[str, float]]] = {a: [] for a in ASPECTS}
    for term in order:
        aspect = ASPECTS[int(unit(seed, "aspect", term.lower()) * len(ASPECTS))]
        out[aspect].append((term, best[term]))
    return out


def analyze_broken(seed: int, annotated: str) -> bool:
    return unit(seed, "analyze", annotated) < ANALYZE_BROKEN_SHARE


def analyze_reply(seed: int, annotated: str, repair: bool) -> str:
    terms = factor_terms(seed, annotated)
    doc = {
        aspect: {
            "summary": f"{len(items)} {aspect} terms.",
            "terms": [{"term": t, "score": s} for t, s in items],
        }
        for aspect, items in terms.items()
    }
    body = json.dumps(doc)
    if repair or not analyze_broken(seed, annotated):
        return body
    if unit(seed, "analyze-kind", annotated) < 0.5:
        return f"Here is the factor summary you asked for:\n```json\n{body}\n```"
    named = [t for items in terms.values() for t, _ in items[:1]]
    return f"The notable factors are {', '.join(named) or 'none'}."


def reply(seed: int, system: str, user: str) -> str:
    """The completion for one request; raises ValueError for an unknown prompt."""
    if "editor" in system:
        return augment_reply(seed, user)
    if "road safety analyst" in system:
        annotated, sep, _ = user.partition("\n\n")
        return analyze_reply(seed, annotated, repair=bool(sep))
    if "road safety engineer" in system:
        narrative = user.rsplit("\n\n", 1)[-1]
        return eval_reply(seed, narrative, chain_of_thought="careful reasoning" in user)
    raise ValueError("unrecognised system prompt")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; with Nagle on, the second one
    # waits for the client's delayed ACK (~40 ms) on every request
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        length = int(self.headers.get("Content-Length", "0"))
        seed = self.server.seed  # type: ignore[attr-defined]
        try:
            payload = json.loads(self.rfile.read(length))
            messages = {m["role"]: m["content"] for m in payload["messages"]}
            text = reply(seed, messages["system"], messages["user"])
            status = 200
            body = json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]})
            wait = SERVICE_S * (0.8 + 0.4 * unit(seed, "service", messages["user"]))
        except (ValueError, KeyError, TypeError) as exc:
            status, body, wait = 400, json.dumps({"error": str(exc)}), 0.0
        time.sleep(wait)
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass


class FakeChatServer:
    """Serves on 127.0.0.1 at an ephemeral port from a daemon thread."""

    def __init__(self, seed: int):
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.seed = seed  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "FakeChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
