"""Narrative rewriting through a chat-completion endpoint, with verification.

The rewrite itself is untrusted: every completion is checked against
mechanical preservation constraints (numbers, dates/times, proper nouns,
null markers, chronology) and a failing rewrite falls back to the original
text so factual integrity never regresses.
"""

from __future__ import annotations

import enum
import json
import os
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence, TypeVar
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from .util import NULL_MARKERS

T = TypeVar("T")
R = TypeVar("R")

# A pattern led by `\b` gives `re` no first character to skip ahead to, so
# each pattern below opens with a digit or a lookahead on its first letters.

# each null marker as a whole word; the empty one cannot show in a text
_MARKERS = sorted(m for m in NULL_MARKERS if m)
# equivalent: every alternative opens with one of the lookahead's letters
NULL_MARKER_RE = re.compile(
    "(?=[%s])(?:%s)"
    % ("".join(sorted({re.escape(m[0]) for m in _MARKERS})), "|".join(rf"\b{re.escape(m)}\b" for m in _MARKERS)),
    re.IGNORECASE,
)

_MONTHS = (
    "January|February|March|April|May|June|July|August|September|October|November|December"
)
# equivalent: every month opens with one of the lookahead's letters
_DATE_RE = re.compile(rf"(?=[ADFJMNOS])\b({_MONTHS})\s+(\d{{1,2}}),\s+(\d{{4}})\b")
# equivalent to `\b(\d{4})`: a digit is a word character, so `\b` before it means no word character does
_ISO_DATE_RE = re.compile(r"(\d(?<!\w\d)\d{3})-(\d{2})-(\d{2})\b")
# `(\d(?<!\w\d)\d?)` is `\b(\d{1,2})` in the three clock patterns, for the same reason
_CLOCK_AMPM_RE = re.compile(r"(\d(?<!\w\d)\d?):(\d{2})\s*([APap])\.?[Mm]\.?\b")
_CLOCK_RE = re.compile(r"(\d(?<!\w\d)\d?):(\d{2})\b")
_HOUR_AMPM_RE = re.compile(r"(\d(?<!\w\d)\d?)\s*([APap])\.?[Mm]\.?\b")
_NUMBER_RE = re.compile(r"\d+(?:,\d{3})*(?:\.\d+)?")
_MONTH_INDEX = {name: i + 1 for i, name in enumerate(_MONTHS.split("|"))}


class ConstraintKind(enum.Enum):
    NUMBERS = "NumbersPreserved"
    DATES_TIMES = "DatesTimesPreserved"
    PROPER_NOUNS = "ProperNounsPreserved"
    NO_NULL_MARKERS = "NoNullMarkers"
    CHRONOLOGY = "ChronologyPreserved"


SYSTEM_PROMPT = """\
You are a professional editor specializing in rewriting traffic accident \
reports. Rewrite the report you are given as a single fluent narrative, \
improving readability without adding, removing, or altering any fact.

Requirements:
- Keep every numeric value exactly as given (counts, measurements, coordinates, identifiers).
- Keep all dates and times; converting between 12-hour and 24-hour clock forms is acceptable.
- Keep all place names, route names, and other proper nouns verbatim.
- Never write placeholder values such as 'unknown', 'nan', or 'N/A'.
- Relate events in the same chronological order as the original report."""


class AugmentError(Exception):
    pass


class UnavailableError(AugmentError):
    pass


class EmptyCompletionError(AugmentError):
    pass


class ChatClient(Protocol):
    """`send` returns the completion or raises UnavailableError."""

    def send(self, system: str, user: str, temperature: float) -> str: ...


# HttpChatClient's transport retries: attempts, sleeping BACKOFF_BASE_S * 2**k between them
MAX_ATTEMPTS = 4
BACKOFF_BASE_S = 0.5
# after this many sends in a row used up their attempts, a client sends no more
BREAKER_AFTER = 3


class StubChatClient:
    """Deterministic offline client: the reply is `transform(user)`.

    Without a transform it echoes the user message, which by construction
    satisfies every preservation constraint.
    """

    def __init__(self, transform: Optional[Callable[[str], str]] = None):
        self.transform = transform

    def send(self, system: str, user: str, temperature: float) -> str:
        if self.transform is not None:
            return self.transform(user)
        return user


class HttpChatClient:
    """Minimal chat-completion client (system/user roles, temperature) over
    the standard library's `http.client`.

    Each thread keeps one keep-alive connection for all its sends, so a
    `bounded_map` over `jobs` threads holds at most `jobs` connections.
    Transport failures and 5xx replies are retried MAX_ATTEMPTS times in all;
    a 4xx reply or a malformed body fails at once, since a retry would get
    the same answer. A reused connection that the server closed while idle
    fails before any reply; the request then goes again at once on a fresh
    connection, and that is not an attempt. Once BREAKER_AFTER sends in a
    row have used up their attempts, the endpoint counts as dead and each
    later send fails at once; any reply below 500 ends a row. The
    `*_proxy` environment variables are honoured: an http endpoint is
    reached through its proxy in absolute form, an https one through a
    CONNECT tunnel.
    """

    def __init__(
        self,
        endpoint: Optional[str] = None,
        api_key: Optional[str] = None,
        model_name: str = "gpt-4o",
        timeout: float = 60.0,
    ):
        self.endpoint = endpoint or os.environ.get("CRASHLENS_CHAT_ENDPOINT", "")
        self.api_key = api_key or os.environ.get("CRASHLENS_CHAT_API_KEY", "")
        self.model_name = model_name
        self.timeout = timeout
        if not self.endpoint:
            raise ValueError("no chat endpoint configured (CRASHLENS_CHAT_ENDPOINT)")
        url = _split_url(self.endpoint, "chat endpoint", ("http", "https"))
        self._https = url.scheme == "https"
        self._address = (url.hostname, url.port)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._headers = {"Content-Type": "application/json"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        self._proxy = _proxy_for(url.scheme, url.hostname)
        self._tunnel_headers: dict[str, str] = {}
        if self._proxy is not None:
            auth = _proxy_auth(self._proxy)
            # an https request is tunnelled, so only the CONNECT may carry
            # the proxy's credentials; a plain one names its absolute URL
            (self._tunnel_headers if self._https else self._headers).update(auth)
            if not self._https:
                self._target = urlunsplit((url.scheme, url.netloc, url.path or "/", url.query, ""))
        self._local = threading.local()  # .conn: the thread's connection
        self._open: set = set()  # every thread's connection, for `close`
        self._lock = threading.Lock()
        self._exhausted = 0  # sends in a row that used up their attempts
        self._last_failure = ""

    def close(self) -> None:
        """Close the connection of every thread; call it with no send in
        flight. A later send opens a new one."""
        with self._lock:
            conns, self._open = self._open, set()
            self._local = threading.local()
        for conn in conns:
            conn.close()

    def _connect(self):
        """A new connection to the endpoint or to its proxy, this thread's from now on."""
        import http.client

        cls = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        if self._proxy is None:
            conn = cls(*self._address, timeout=self.timeout)
        else:
            conn = cls(self._proxy.hostname, self._proxy.port, timeout=self.timeout)
            if self._https:
                conn.set_tunnel(*self._address, headers=self._tunnel_headers)
        with self._lock:
            self._open.add(conn)
        self._local.conn = conn
        return conn

    def _drop(self, conn) -> None:
        conn.close()
        self._local.conn = None
        with self._lock:
            self._open.discard(conn)

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST on this thread's connection: (status, body). A transport
        error closes and drops the connection."""
        import http.client

        conn = getattr(self._local, "conn", None)
        reused = conn is not None
        if conn is None:
            conn = self._connect()
        try:
            try:
                conn.request("POST", self._target, body, self._headers)
                resp = conn.getresponse()
            # no status line came back (http.client.RemoteDisconnected is a
            # ConnectionResetError): on a reused connection the server closed
            # it while idle, so the request goes again on a fresh one
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                self._drop(conn)
                conn = self._connect()
                conn.request("POST", self._target, body, self._headers)
                resp = conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self._drop(conn)
            raise

    def send(self, system: str, user: str, temperature: float) -> str:
        import http.client

        if self._exhausted >= BREAKER_AFTER:
            raise UnavailableError(
                f"endpoint unavailable: {self._exhausted} requests in a row failed after "
                f"{MAX_ATTEMPTS} attempts (last: {self._last_failure})"
            )
        payload = {
            "model": self.model_name,
            "temperature": temperature,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        body = json.dumps(payload).encode("utf-8")
        failure = ""
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                failure = f"{type(exc).__name__}: {exc}"
                continue
            if status >= 500:
                failure = f"server error {status}"
                continue
            with self._lock:
                self._exhausted = 0
            if status >= 400:
                raise UnavailableError(f"request rejected: {status} {data.decode('utf-8', errors='replace')[:200]}")
            try:
                return json.loads(data)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise UnavailableError(f"malformed completion payload: {exc}") from exc
        with self._lock:
            self._exhausted += 1
            self._last_failure = failure
        raise UnavailableError(f"transport failed after {MAX_ATTEMPTS} attempts: {failure}")


def _split_url(text: str, what: str, schemes: tuple[str, ...]) -> SplitResult:
    """`text` split, if it is a URL of one of `schemes` with a host and a
    valid port; otherwise ValueError."""
    url = urlsplit(text)
    if url.scheme not in schemes or not url.hostname:
        forms = " or ".join(f"{scheme}://" for scheme in schemes)
        raise ValueError(f"{what} {text!r} is not an {forms} URL with a host")
    url.port  # raises ValueError for a port that is not a number in range
    return url


def _proxy_for(scheme: str, host: str) -> Optional[SplitResult]:
    """The http proxy that the `*_proxy` environment variables name for
    `scheme` and `host`, as `requests` picks it, or None."""
    # most environments set none, and then urllib.request is not imported
    if not any(key.lower().endswith("_proxy") for key in os.environ):
        return None
    from urllib.request import getproxies, proxy_bypass

    proxies = getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or proxy_bypass(host):
        return None
    return _split_url(proxy if "://" in proxy else "http://" + proxy, f"{scheme} proxy", ("http",))


def _proxy_auth(proxy: SplitResult) -> dict[str, str]:
    """The Proxy-Authorization header for the credentials in `proxy`'s URL, if any."""
    if proxy.username is None:
        return {}
    import base64

    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials.encode("latin-1")).decode("ascii")}


def _check_temperature(temperature: float) -> None:
    if not 0.0 <= temperature <= 2.0:
        raise ValueError(f"temperature {temperature} outside [0, 2]")


def augment(narrative: str, client: ChatClient, temperature: float) -> str:
    """One constrained rewrite; UnavailableError from the client passes through."""
    _check_temperature(temperature)
    if not narrative.strip():
        raise ValueError("narrative is empty")
    completion = client.send(SYSTEM_PROMPT, narrative, temperature)
    if not completion or not completion.strip():
        raise EmptyCompletionError("model returned an empty completion")
    return completion


@dataclass
class ConstraintResult:
    kind: ConstraintKind
    passed: bool
    offending: list[str] = field(default_factory=list)


@dataclass
class ConstraintReport:
    results: list[ConstraintResult]
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.results)

    @property
    def failures(self) -> list[ConstraintResult]:
        return [r for r in self.results if not r.passed]


def _canonical_times(text: str) -> tuple[list[str], str]:
    """Extract time expressions in order as canonical 24h tokens.

    Returns (tokens, residual text with times blanked out) so plain-number
    extraction does not double-count clock digits.
    """
    found: list[tuple[int, str]] = []
    out = text

    def grab(pattern: re.Pattern, to_token: Callable[[re.Match], str]) -> None:
        nonlocal out

        def blank(m: re.Match) -> str:
            found.append((m.start(), to_token(m)))
            # equal length, so offsets stay comparable across passes
            return " " * (m.end() - m.start())

        out = pattern.sub(blank, out)

    def ampm_token(m: re.Match) -> str:
        hour = int(m.group(1)) % 12
        if m.group(3).lower() == "p":
            hour += 12
        return f"T{hour:02d}:{m.group(2)}"

    grab(_CLOCK_AMPM_RE, ampm_token)
    grab(_CLOCK_RE, lambda m: f"T{int(m.group(1)):02d}:{m.group(2)}")

    def hour_token(m: re.Match) -> str:
        hour = int(m.group(1)) % 12
        if m.group(2).lower() == "p":
            hour += 12
        return f"T{hour:02d}:00"

    grab(_HOUR_AMPM_RE, hour_token)
    found.sort(key=lambda pair: pair[0])
    return [token for _, token in found], out


def _canonical_dates(text: str) -> list[str]:
    dates = [
        f"D{m.group(3)}-{_MONTH_INDEX[m.group(1)]:02d}-{int(m.group(2)):02d}"
        for m in _DATE_RE.finditer(text)
    ]
    dates.extend(
        f"D{m.group(1)}-{m.group(2)}-{m.group(3)}" for m in _ISO_DATE_RE.finditer(text)
    )
    return dates


@dataclass(frozen=True)
class _TextFacts:
    """What the constraints compare, extracted from one text once."""

    times: list[str]  # canonical clock tokens, in text order
    numbers: Counter  # plain numbers, plus the clock tokens
    dates_times: Counter


def _text_facts(text: str) -> _TextFacts:
    times, residual = _canonical_times(text)
    numbers = Counter(m.group(0).replace(",", "") for m in _NUMBER_RE.finditer(residual))
    numbers.update(times)
    return _TextFacts(times, numbers, Counter(_canonical_dates(text)) + Counter(times))


_MERIDIEMS = frozenset({"AM", "PM"})


_STRIP = ".,;:!?()'\""
# the whitespace before a token and the token, if its first character past
# leading punctuation may be a capital (`isupper` decides)
_CAP_TOKEN_RE = re.compile(rf"\s([{re.escape(_STRIP)}]*[^\W\d_a-z]\S*)")


def _starts_sentence(text: str, i: int) -> bool:
    """Whether the last non-space character before text[i] ends a
    sentence, or there is none."""
    while i > 0 and text[i - 1].isspace():
        i -= 1
    return i == 0 or text[i - 1] in ".!?"


def _proper_noun_runs(text: str) -> list[str]:
    """Capitalized runs and standalone capitalized words, skipping sentence
    starts. Meridiems are exempt: the clock-form constraint owns those.

    A run is capitalized tokens one character apart; trailing punctuation
    ends it.
    """
    runs: list[str] = []
    current: list[str] = []
    end = 0  # where the last token of `current` ends

    def flush() -> None:
        if len(current) >= 2:
            runs.append(" ".join(current))
        elif len(current) == 1 and current[0] not in _MERIDIEMS:
            runs.append(current[0])
        current.clear()

    padded = " " + text  # so the first token follows whitespace too
    for m in _CAP_TOKEN_RE.finditer(padded):
        word = m.group(1)
        start = m.start(1)
        if current and start != end + 1:
            flush()
        bare = word.strip(_STRIP)
        # the first word of a sentence is capitalized by convention, not meaning
        if not (bare[0].isalpha() and bare[0].isupper()) or _starts_sentence(padded, start):
            flush()
            continue
        current.append(bare)
        end = m.end()
        if word[-1] in _STRIP:
            flush()
    flush()
    return runs


def verify_preservation(original: str, augmented: str) -> ConstraintReport:
    """Mechanically check each constraint; report offending tokens per failure."""
    orig = _text_facts(original)
    # the facts are a function of the text, so an unchanged rewrite reuses them
    aug = orig if augmented == original else _text_facts(augmented)
    aug_times = iter(aug.times)
    offending = {
        ConstraintKind.NUMBERS: sorted((orig.numbers - aug.numbers).elements()),
        ConstraintKind.DATES_TIMES: sorted((orig.dates_times - aug.dates_times).elements()),
        ConstraintKind.PROPER_NOUNS: [r for r in _proper_noun_runs(original) if r not in augmented],
        ConstraintKind.NO_NULL_MARKERS: [m.group(0) for m in NULL_MARKER_RE.finditer(augmented)],
        # each original time must occur in the rewrite after the previous one's match
        ConstraintKind.CHRONOLOGY: [t for t in orig.times if not any(t == a for a in aug_times)],
    }
    return ConstraintReport([ConstraintResult(k, not offending[k], offending[k]) for k in ConstraintKind])


def bounded_map(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1) -> list[R]:
    """`[fn(x) for x in items]` on at most `jobs` threads, in input order."""
    workers = max(1, min(jobs, len(items)))
    if workers == 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def augment_batch(
    narratives: Sequence[str],
    client: ChatClient,
    temperature: float,
    jobs: int = 1,
) -> list[tuple[str, ConstraintReport]]:
    """Rewrite a batch, order-preserving.

    Any record whose rewrite fails verification (or whose request fails
    outright, or that is blank) comes back as the byte-identical original
    with the report flagging why. A temperature outside [0, 2] raises
    before any request.
    """
    _check_temperature(temperature)

    def one(narrative: str) -> tuple[str, ConstraintReport]:
        if not narrative.strip():  # `augment` rejects it; the rest of the batch goes on
            return narrative, ConstraintReport(results=[], error="ValueError: narrative is empty")
        try:
            completion = augment(narrative, client, temperature)
        except (UnavailableError, EmptyCompletionError) as exc:
            return narrative, ConstraintReport(results=[], error=f"{type(exc).__name__}: {exc}")
        report = verify_preservation(narrative, completion)
        return (completion, report) if report.passed else (narrative, report)

    return bounded_map(one, narratives, jobs)
