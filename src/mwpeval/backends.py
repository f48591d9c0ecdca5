"""Model backends: an HTTP chat-completions client and a scripted replay.

The HTTP backend speaks the common chat-completions wire format: POST
{endpoint}/chat/completions with a JSON body of model, messages,
temperature and max_tokens, reading the reply from the first choice's
message content. Credentials come only from the environment variable
named in the model spec: they never appear in config files or logs.

The scripted backend replays fixture responses keyed by prompt content
hash or by "<triplet_id>|<mode key>". An unmapped prompt raises, so a
fixture gap fails loudly instead of polluting results.
"""

from __future__ import annotations

import base64
import email.utils
import functools
import http.client
import json
import os
import random
import select
import socket
import ssl
import threading
import time
import types
import urllib.parse
import weakref
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Protocol

from ._schema import control_character, read_jsonl
from .errors import BackendError, ConfigurationError, DataError, ScriptedLookupError
from .prompting import GenerationParams, RenderedPrompt

if TYPE_CHECKING:
    import requests

SCRIPTED_PREFIX = "scripted:"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter for retryable failures."""

    max_attempts: int = 5
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 1:
            raise ConfigurationError("retry delays must be >= 0 and multiplier >= 1")

    def delay_before(self, attempt: int) -> float:
        """Upper jitter bound before retry number `attempt` (2-based)."""
        return min(self.base_delay * self.multiplier ** (attempt - 2), self.max_delay)


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to reach one model."""

    name: str
    endpoint: str
    auth_env: str | None = None
    params: GenerationParams = GenerationParams()
    timeout: float = 120.0
    retry: RetryPolicy = RetryPolicy()
    requests_per_second: float = 2.0

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ConfigurationError("model name must be non-empty")
        control = control_character(self.name)
        if control is not None:
            raise ConfigurationError(
                f"model name {self.name!r} holds the control character {control!r}"
            )
        if not self.endpoint.strip():
            raise ConfigurationError("model endpoint must be non-empty")
        if self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")
        if self.requests_per_second <= 0:
            raise ConfigurationError(
                f"requests_per_second must be > 0, got {self.requests_per_second}"
            )

    @property
    def scripted_path(self) -> Path | None:
        if self.endpoint.startswith(SCRIPTED_PREFIX):
            return Path(self.endpoint[len(SCRIPTED_PREFIX):])
        return None


@dataclass(frozen=True)
class CompletionResult:
    text: str
    latency_ms: float
    attempts: int
    usage: dict[str, Any] | None = None


class Backend(Protocol):
    def complete(self, prompt: RenderedPrompt) -> CompletionResult: ...


class RateLimiter:
    """Spaces acquisitions at least 1/rate seconds apart, across threads."""

    def __init__(
        self,
        rate_per_second: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if rate_per_second <= 0:
            raise ConfigurationError(f"rate must be > 0, got {rate_per_second}")
        self._interval = 1.0 / rate_per_second
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_free = float("-inf")

    def acquire(self) -> float:
        """Block until a slot is free; returns the slot time."""
        with self._lock:
            now = self._clock()
            slot = max(now, self._next_free)
            self._next_free = slot + self._interval
        if slot > now:
            self._sleep(slot - now)
        return slot


@dataclass(frozen=True)
class _ScriptedRow:
    key: str
    response: str


class ScriptedBackend:
    """Deterministic replay from a JSONL fixture of {key, response}."""

    def __init__(self, path: str | Path) -> None:
        self._responses: dict[str, str] = {}
        for lineno, row in read_jsonl(path, "scripted response", DataError, _ScriptedRow):
            if row.key in self._responses:
                raise DataError(f"{path} line {lineno}: duplicate key {row.key!r}")
            self._responses[row.key] = row.response
        self._path = path
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, prompt: RenderedPrompt) -> CompletionResult:
        with self._lock:
            self.calls += 1
        composite = f"{prompt.triplet_id}|{prompt.mode.key}"
        for key in (prompt.content_hash, composite):
            if key in self._responses:
                return CompletionResult(
                    text=self._responses[key], latency_ms=0.0, attempts=1
                )
        raise ScriptedLookupError(
            f"no scripted response in {self._path} for triplet "
            f"{prompt.triplet_id}; tried content hash {prompt.content_hash} "
            f"and key {composite!r}"
        )

    def close(self) -> None:
        """Nothing to release: the fixture is read when the backend is built."""


class HttpChatBackend:
    """Chat-completions client with retry, jitter and rate limiting.

    Retries 429, 5xx and transport failures with exponential backoff and
    full jitter, except that a 429 or 503 carrying a readable Retry-After
    waits what it asks, capped at the policy's max_delay; any other
    status is treated as permanent, a 3xx redirect included: redirects
    are not followed. Jitter only shifts timing, never content.

    Everything requests would merge into each call is read once, here,
    for the one URL the backend posts to, from the session (the caller's,
    or a fresh one) and the environment: the headers, cookies and auth of
    the session, `.netrc` when the session's `trust_env` is on, the
    proxies (`HTTP_PROXY`, `NO_PROXY` and the like), and verify and cert
    (`REQUESTS_CA_BUNDLE` and the like). Changing any of them later has
    no effect on this backend. A session the backend creates never reads
    `.netrc`, so the `auth_env` credential is the only one sent. A
    caller's session hooks, mounted adapters and the cookies its
    responses set do not apply.

    Requests then go over keep-alive connections that the backend owns,
    one per thread calling complete() at once; each is kept for the next
    call, so the backend never holds more connections than were ever in
    use at once. close(), or dropping the backend, closes them.
    `http.client` opens each connection (the proxy route, the CONNECT
    tunnel and TLS), and writes the request head once, here, with a
    stand-in length; each call then sends head, length and body in one
    write, and reads the reply itself (see _Connection). A reply framed
    by Content-Length or chunked leaves its connection for the next call;
    one that says `Connection: close`, comes from an HTTP/1.0 server, is
    ended by the server closing, or is followed by bytes no request asked
    for closes it.
    """

    def __init__(
        self,
        spec: ModelSpec,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        import requests  # loaded only by a command that builds this backend

        self._spec = spec
        headers = {"Content-Type": "application/json"}
        if spec.auth_env:
            secret = os.environ.get(spec.auth_env, "")
            if not secret:
                raise ConfigurationError(
                    f"environment variable {spec.auth_env} is not set; it must "
                    f"hold the credential for {spec.name}"
                )
            headers["Authorization"] = f"Bearer {secret}"
        url = spec.endpoint.rstrip("/") + "/chat/completions"
        own_session = session is None
        if own_session:
            session = requests.Session()
        try:
            settings = session.merge_environment_settings(url, {}, None, None, None)
            if own_session:
                session.trust_env = False  # so .netrc is not read
            # A body-less POST gives the header block every call sends.
            prepared = session.prepare_request(requests.Request("POST", url, headers=headers))
        except requests.RequestException as exc:
            raise ConfigurationError(f"{spec.name}: cannot send to {url}: {exc}") from exc
        finally:
            if own_session:
                session.close()
        headers = {
            name: value
            for name, value in prepared.headers.items()
            if name.lower() not in ("content-length", "transfer-encoding", "accept-encoding")
        }
        target, proxy_headers, connect = _route(spec, prepared, settings)
        headers.update(proxy_headers)
        self._head, self._head_end = _request_head(spec, connect, target, headers)
        self._pool = _ConnectionPool(connect)
        self._finalizer = weakref.finalize(self, self._pool.close)
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._limiter = RateLimiter(spec.requests_per_second)

    def close(self) -> None:
        """Close the idle connections. Calls made after this still work,
        each on a connection of its own."""
        self._finalizer()

    def complete(self, prompt: RenderedPrompt) -> CompletionResult:
        body = json.dumps(
            {
                "model": self._spec.name,
                "messages": [{"role": "user", "content": prompt.text}],
                "temperature": self._spec.params.temperature,
                "max_tokens": self._spec.params.max_tokens,
            }
        ).encode("utf-8")
        started = time.monotonic()
        last_failure = "no attempt made"
        policy = self._spec.retry
        asked: float | None = None  # the last response's Retry-After wait
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                if asked is None:
                    asked = self._rng.uniform(0.0, policy.delay_before(attempt))
                self._sleep(asked)
            asked = None
            self._limiter.acquire()
            try:
                reply = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_failure = f"transport failure: {exc.__class__.__name__}: {exc}"
                continue
            status = reply.status
            if status == 200:
                return self._parse(reply.body, attempt, started)
            if status == 429 or status >= 500:
                last_failure = f"HTTP {status}"
                if status in (429, 503):
                    asked = _retry_after(reply.headers.get("retry-after"), policy.max_delay)
                continue
            redirect = ""
            if 300 <= status < 400:
                redirect = f" (redirect to {reply.headers.get('location')!r} not followed)"
            raise BackendError(
                f"{self._spec.name}: permanent HTTP {status}{redirect}: "
                f"{_text(reply.body)[:200]}"
            )
        raise BackendError(
            f"{self._spec.name}: giving up after {policy.max_attempts} attempts; "
            f"last failure: {last_failure}"
        )

    def _post(self, body: bytes) -> _Reply:
        """One POST on a pooled connection, in one write, and its reply.
        A connection that fails, or that the reply ends, is closed, never
        pooled again."""
        connection = self._pool.take()
        try:
            reply = connection.exchange(b"%b%d%b%b" % (self._head, len(body), self._head_end, body))
        except BaseException:
            connection.close()
            raise
        if reply.keep_alive:
            self._pool.give(connection)
        else:
            connection.close()
        return reply

    def _parse(self, raw: bytes, attempts: int, started: float) -> CompletionResult:
        try:
            data = json.loads(_text(raw))
            text = data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(
                f"{self._spec.name}: malformed completion response "
                f"({exc.__class__.__name__}: {exc}); body starts "
                f"{_text(raw)[:200]!r}"
            ) from exc
        if not isinstance(text, str):
            raise BackendError(
                f"{self._spec.name}: malformed completion response: message "
                "content is not a string"
            )
        return CompletionResult(
            text=text,
            latency_ms=(time.monotonic() - started) * 1000.0,
            attempts=attempts,
            usage=data.get("usage") if isinstance(data.get("usage"), dict) else None,
        )


def _text(raw: bytes) -> str:
    return raw.decode("utf-8", "replace")


def _route(
    spec: ModelSpec, prepared: requests.PreparedRequest, settings: dict[str, Any]
) -> tuple[str, dict[str, str], Callable[[], http.client.HTTPConnection]]:
    """The request target, the proxy headers every request carries, and a
    maker of connections for prepared.url, routed as requests would: via
    the proxy select_proxy picks from the merged settings, in absolute
    form for http and through a CONNECT tunnel for https, over TLS as
    the merged verify and cert settings ask."""
    import requests

    url = urllib.parse.urlsplit(prepared.url)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ConfigurationError(
            f"{spec.name}: endpoint {spec.endpoint!r} is not an http:// or https:// URL"
        )
    host, port = url.hostname, url.port
    target = prepared.path_url
    proxy = requests.utils.select_proxy(prepared.url, settings["proxies"])
    proxy_headers: dict[str, str] = {}
    if proxy:
        proxy = proxy if "://" in proxy else "http://" + proxy
        via = urllib.parse.urlsplit(proxy)
        try:
            via_port = via.port
        except ValueError as exc:
            raise ConfigurationError(f"{spec.name}: bad proxy URL: {exc}") from None
        if via.scheme != "http" or not via.hostname:
            raise ConfigurationError(
                f"{spec.name}: proxy {via.scheme}://{via.hostname} for {spec.endpoint!r} "
                "is not supported; only http:// proxies are"
            )
        user, password = requests.utils.get_auth_from_url(proxy)
        if user:
            token = base64.b64encode(f"{user}:{password}".encode("latin-1")).decode("ascii")
            proxy_headers["Proxy-Authorization"] = f"Basic {token}"
        if url.scheme == "http":
            target = f"http://{url.netloc.rpartition('@')[2]}{target}"
        host, port = via.hostname, via_port
    timeout = spec.timeout
    if url.scheme == "http":
        return target, proxy_headers, functools.partial(
            http.client.HTTPConnection, host, port, timeout
        )
    context = _tls_context(spec, settings["verify"], settings["cert"])

    def connect() -> http.client.HTTPConnection:
        connection = http.client.HTTPSConnection(host, port, timeout=timeout, context=context)
        if proxy:
            connection.set_tunnel(url.hostname, url.port, proxy_headers)
        return connection

    return target, {}, connect


def _request_head(
    spec: ModelSpec,
    connect: Callable[[], http.client.HTTPConnection],
    target: str,
    headers: dict[str, str],
) -> tuple[bytes, bytes]:
    """The bytes http.client sends for a POST of target with headers,
    before and after the Content-Length value: the request line, Host,
    Accept-Encoding: identity and "Content-Length: ", then the rest of
    that line, headers in order and the blank line. They are written
    once, with a length of 0, into a stand-in socket, so putheader's
    checks run here and not per call."""
    written: list[bytes] = []
    connection = connect()
    connection.sock = types.SimpleNamespace(sendall=written.append)
    try:
        connection.request("POST", target, b"", headers)
    except UnicodeError:  # the message would quote the header
        raise ConfigurationError(
            f"{spec.name}: a request header holds a character latin-1 cannot encode"
        ) from None
    finally:
        connection.sock = None
    head, _, head_end = b"".join(written).partition(b"\r\nContent-Length: 0\r\n")
    return head + b"\r\nContent-Length: ", b"\r\n" + head_end


def _tls_context(spec: ModelSpec, verify: Any, cert: Any) -> ssl.SSLContext:
    """The TLS context requests builds from verify and cert: the CA
    bundle requests ships unless verify names a file or a directory, no
    checks when verify is false, and cert (a file, or a (cert, key)
    pair) loaded as the client certificate."""
    import requests

    try:
        if not verify:
            context = ssl.create_default_context()
            context.check_hostname = False
            context.verify_mode = ssl.CERT_NONE
        else:
            where = requests.utils.DEFAULT_CA_BUNDLE_PATH if verify is True else verify
            if os.path.isdir(where):
                context = ssl.create_default_context(capath=where)
            else:
                context = ssl.create_default_context(cafile=where)
        if cert:
            context.load_cert_chain(*((cert,) if isinstance(cert, str) else cert))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{spec.name}: cannot load the TLS settings: {exc}") from exc
    context.set_alpn_protocols(["http/1.1"])
    return context


_MAX_LINE = 65536  # http.client's limits on a reply line and its header count
_MAX_HEADERS = 100
_RECV_BYTES = 65536


class _Reply(NamedTuple):
    status: int
    headers: dict[str, str]  # lower-case names; a repeated header's values joined by ", "
    body: bytes
    keep_alive: bool  # whether the connection can carry the next request


class _Connection:
    """A keep-alive connection: a socket http.client opened (routing, the
    CONNECT tunnel and TLS stay http.client's), and the bytes received on
    it that no reply has used yet.

    exchange() sends a request and reads its HTTP/1.1 reply: a status
    line that does not start with "HTTP/" or has no status from 100 to
    999 is BadStatusLine, a line over 64 KiB is LineTooLong, 100 header
    lines are too many, a Content-Length that is not 1*DIGIT is an
    HTTPException, and a body short of its Content-Length is
    IncompleteRead. Bodies are framed by Content-Length, by chunked
    transfer coding (trailers read and dropped) or by the server closing
    the connection. The reply leaves the connection open for another
    request unless it is HTTP/1.0, says `Connection: close`, is ended by
    the close, or bytes follow it. Every failure is an OSError or an
    http.client.HTTPException.

    It departs from http.client on purpose: every 1xx reply is skipped,
    not only 100; an HTTP/1.0 reply is never kept; a repeated Connection
    header naming close is honoured; whitespace before a header's colon
    is tolerated; and an invalid Content-Length fails (see above).
    """

    __slots__ = ("sock", "_data", "_at")

    def __init__(self, connect: Callable[[], http.client.HTTPConnection]) -> None:
        opener = connect()
        try:
            opener.connect()
        except BaseException:
            opener.close()
            raise
        self.sock = opener.sock
        self._data = b""  # received bytes, of which those from _at on are unread
        self._at = 0

    def close(self) -> None:
        self.sock.close()

    def exchange(self, request: bytes) -> _Reply:
        self.sock.sendall(request)
        while True:
            line = self._line("status line")
            if not line:
                raise http.client.RemoteDisconnected(
                    "Remote end closed connection without response"
                )
            status, http11 = _status(line)
            headers = self._headers()
            if status >= 200:
                break
        keep_alive = http11 and "close" not in headers.get("connection", "").lower()
        if status in (204, 304):
            body = b""
        elif headers.get("transfer-encoding", "").lower() == "chunked":
            body = self._chunked()
        elif "content-length" in headers:
            # The first of repeated lengths is read. One that is not 1*DIGIT
            # is a framing error (RFC 9112 6.3): the caller closes the socket.
            length = headers["content-length"].partition(",")[0].strip()
            if not (length.isascii() and length.isdigit()):
                raise http.client.HTTPException(f"invalid Content-Length {length!r}")
            body = self._read(int(length))
        else:
            body, keep_alive = self._rest(), False
        return _Reply(status, headers, body, keep_alive and self._at == len(self._data))

    def _headers(self) -> dict[str, str]:
        headers: dict[str, str] = {}
        name = ""
        for _ in range(_MAX_HEADERS):
            line = self._line("header line").decode("latin-1")
            if line in ("\r\n", "\n", ""):
                return headers
            if line[0] in " \t":  # obs-fold: the previous value goes on
                if name:
                    headers[name] += " " + line.strip()
                continue
            field, colon, value = line.partition(":")
            if colon:
                name, value = field.strip().lower(), value.strip()
                headers[name] = f"{headers[name]}, {value}" if name in headers else value
        raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")

    def _line(self, what: str) -> bytes:
        """The next line, its line end included; at the end of input, what
        is left (b"" when nothing is)."""
        end = self._data.find(b"\n", self._at)
        while end < 0:
            if len(self._data) - self._at > _MAX_LINE:
                raise http.client.LineTooLong(what)
            data = self.sock.recv(_RECV_BYTES)
            if not data:
                line, self._data, self._at = self._data[self._at:], b"", 0
                return line
            searched = len(self._data) - self._at
            self._data, self._at = self._data[self._at:] + data, 0
            end = self._data.find(b"\n", searched)
        if end + 1 - self._at > _MAX_LINE:
            raise http.client.LineTooLong(what)
        line = self._data[self._at:end + 1]
        self._at = end + 1
        return line

    def _read(self, size: int) -> bytes:
        """The next size bytes; IncompleteRead if the input ends first."""
        start, self._at = self._at, self._at + size
        if self._at <= len(self._data):
            return self._data[start:self._at]
        parts, have = [self._data[start:]], len(self._data) - start
        self._data, self._at = b"", 0
        while have < size:
            data = self.sock.recv(min(size - have, _RECV_BYTES))
            if not data:
                raise http.client.IncompleteRead(b"".join(parts), size - have)
            parts.append(data)
            have += len(data)
        return b"".join(parts)

    def _rest(self) -> bytes:
        """Everything up to the end of input."""
        parts = [self._data[self._at:]]
        self._data, self._at = b"", 0
        while data := self.sock.recv(_RECV_BYTES):
            parts.append(data)
        return b"".join(parts)

    def _chunked(self) -> bytes:
        """A chunked body, its trailer read and dropped."""
        parts: list[bytes] = []
        try:
            while True:
                try:
                    size = int(self._line("chunk size").partition(b";")[0], 16)
                except ValueError:
                    size = -1
                if size < 0:
                    raise http.client.IncompleteRead(b"")
                if size == 0:
                    break
                parts.append(self._read(size))
                self._read(2)  # the CRLF after the chunk's data
        except http.client.IncompleteRead as exc:
            raise http.client.IncompleteRead(b"".join(parts)) from exc
        while self._line("trailer line") not in (b"\r\n", b"\n", b""):
            pass
        return b"".join(parts)


def _status(line: bytes) -> tuple[int, bool]:
    """The status a status line gives, and whether it is HTTP/1.1."""
    parts = line.split(None, 2)
    try:
        version = parts[0].decode("latin-1")
        status = int(parts[1])
    except (IndexError, ValueError):
        version, status = "", 0
    if not version.startswith("HTTP/") or not 100 <= status <= 999:
        raise http.client.BadStatusLine(line.decode("latin-1"))
    if version in ("HTTP/1.0", "HTTP/0.9"):
        return status, False
    if not version.startswith("HTTP/1."):
        raise http.client.UnknownProtocol(version)
    return status, True


class _ConnectionPool:
    """Idle keep-alive connections to one origin, shared by threads.

    take() hands out an idle connection, and opens a new one only when
    every connection the pool opened is in use; give() keeps it for the
    next caller until the pool is closed. So the pool never holds more
    connections than were in use at once. A kept connection whose socket
    has become readable has been closed by the server (or holds bytes no
    request asked for), so take() drops it instead of letting a request
    fail on it.
    """

    def __init__(self, connect: Callable[[], http.client.HTTPConnection]) -> None:
        self._connect = connect
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()
        self._closed = False

    def take(self) -> _Connection:
        while True:
            with self._lock:
                connection = self._idle.pop() if self._idle else None
            if connection is None:
                return _Connection(self._connect)
            if not _readable(connection.sock):
                return connection
            connection.close()

    def give(self, connection: _Connection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


def _readable(sock: socket.socket) -> bool:
    """Whether sock has input or EOF waiting, without blocking. poll,
    unlike select, takes a descriptor of any number."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _retry_after(value: str | None, cap: float) -> float | None:
    """Seconds a Retry-After header asks for (delta-seconds or an HTTP
    date), within [0, cap]; None when it is absent or does not parse."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        return min(float(value), cap)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:  # "-0000": UTC, with no claim about local time
        when = when.replace(tzinfo=timezone.utc)
    return min(max((when - datetime.now(timezone.utc)).total_seconds(), 0.0), cap)


def create_backend(spec: ModelSpec) -> ScriptedBackend | HttpChatBackend:
    """Scripted backend for scripted: endpoints, HTTP otherwise. The
    caller closes it."""
    scripted = spec.scripted_path
    if scripted is not None:
        return ScriptedBackend(scripted)
    return HttpChatBackend(spec)
