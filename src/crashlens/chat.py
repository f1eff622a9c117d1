"""The live chat transport: a chat-completion client over the standard
library's `http.client`.

Only a stage given a live endpoint loads this module; the chat contract
(`ChatClient`, `UnavailableError`, the offline stub and the temperature
check) lives in `util`, so `--help`, the offline stages and `build-sft`
never do.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import weakref
from typing import Optional
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from .util import UnavailableError

# HttpChatClient's transport retries: attempts, sleeping BACKOFF_BASE_S * 2**k between them
MAX_ATTEMPTS = 4
BACKOFF_BASE_S = 0.5
# after this many sends in a row used up their attempts, a client sends no more
BREAKER_AFTER = 3
# the model each request names, and each connection's socket timeout in seconds
MODEL_NAME = "gpt-4o"
TIMEOUT_S = 60.0


class HttpChatClient:
    """Minimal chat-completion client (system/user roles, temperature) over
    the standard library's `http.client`.

    A send takes an idle keep-alive connection or opens one, puts it back
    after a whole reply and closes it on a transport failure, so a
    `bounded_map` over `jobs` threads holds at most `jobs` connections;
    `close()`, the client's collection and the interpreter's exit close the
    idle ones. Transport failures and 5xx replies are retried MAX_ATTEMPTS
    times in all; a 4xx reply or a malformed body fails at once, since a
    retry would get the same answer. A reused connection that the server
    closed while idle fails before any reply; the request then goes again
    at once on a fresh connection, and that is not an attempt. Once
    BREAKER_AFTER sends in a row have used up their attempts, the endpoint
    counts as dead and each later send fails at once; any reply below 500
    ends a row. The `*_proxy` environment variables are honoured: an http
    endpoint is reached through its proxy in absolute form, an https one
    through a CONNECT tunnel. An empty `api_key` sends no Authorization
    header.
    """

    def __init__(self, endpoint: str, api_key: str):
        url = _split_url(endpoint, "chat endpoint", ("http", "https"))
        self._https = url.scheme == "https"
        self._address = (url.hostname, url.port)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._proxy = _proxy_for(url.scheme, url.hostname)
        self._tunnel_headers: dict[str, str] = {}
        if self._proxy is not None:
            auth = _proxy_auth(self._proxy)
            # an https request is tunnelled, so only the CONNECT may carry
            # the proxy's credentials; a plain one names its absolute URL
            (self._tunnel_headers if self._https else self._headers).update(auth)
            if not self._https:
                self._target = urlunsplit((url.scheme, url.netloc, url.path or "/", url.query, ""))
        self._idle: list = []  # keep-alive connections no send holds
        weakref.finalize(self, _close_all, self._idle)
        self._lock = threading.Lock()  # guards the breaker's count
        self._exhausted = 0  # sends in a row that used up their attempts
        self._last_failure = ""

    def close(self) -> None:
        """Close the idle connections; a later send opens a new one."""
        _close_all(self._idle)

    def _connect(self):
        """A new connection to the endpoint or to its proxy."""
        import http.client

        cls = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        if self._proxy is None:
            return cls(*self._address, timeout=TIMEOUT_S)
        conn = cls(self._proxy.hostname, self._proxy.port, timeout=TIMEOUT_S)
        if self._https:
            conn.set_tunnel(*self._address, headers=self._tunnel_headers)
        return conn

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST on an idle connection, or on a new one: (status, body).
        After the whole reply the connection is idle again; a transport
        error closes it."""
        import http.client

        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = self._connect(), False
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
                conn.close()
                conn = self._connect()
                conn.request("POST", self._target, body, self._headers)
                resp = conn.getresponse()
            reply = resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            raise
        self._idle.append(conn)
        return reply

    def send(self, system: str, user: str, temperature: float) -> str:
        import http.client

        if self._exhausted >= BREAKER_AFTER:
            raise UnavailableError(
                f"endpoint unavailable: {self._exhausted} requests in a row failed after "
                f"{MAX_ATTEMPTS} attempts (last: {self._last_failure})"
            )
        payload = {
            "model": MODEL_NAME,
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
                content = json.loads(data)["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"content is {type(content).__name__}, not a string")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise UnavailableError(f"malformed completion payload: {exc}") from exc
            return content
        with self._lock:
            self._exhausted += 1
            self._last_failure = failure
        raise UnavailableError(f"transport failed after {MAX_ATTEMPTS} attempts: {failure}")


def _close_all(conns: list) -> None:
    """Close and remove every connection in `conns`."""
    with contextlib.suppress(IndexError):  # a pop, unlike a test then a pop, is atomic
        while True:
            conns.pop().close()


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
