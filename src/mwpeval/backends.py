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

import email.utils
import os
import random
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Protocol

import requests
from requests.adapters import HTTPAdapter

from ._schema import dump, load, read_jsonl
from .errors import BackendError, ConfigurationError, DataError, ScriptedLookupError, UsageError
from .prompting import GenerationParams, RenderedPrompt, mode_for

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

    def to_dict(self) -> dict[str, float | int]:
        return dump(self)


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

    def to_dict(self) -> dict[str, Any]:
        return dump(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ModelSpec":
        return load(cls, payload, "model config", ConfigurationError)


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


def scripted_key(triplet_id: str, task: str, dop: str | None) -> str:
    mode = mode_for(task, dop)
    if mode is None:
        raise UsageError(f"(task, dop) pair {(task, dop)!r} names no mode")
    return f"{triplet_id}|{mode.key}"


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


class HttpChatBackend:
    """Chat-completions client with retry, jitter and rate limiting.

    Retries 429, 5xx and transport failures with exponential backoff and
    full jitter, except that a 429 or 503 carrying a readable Retry-After
    waits what it asks, capped at the policy's max_delay; any other
    status is treated as permanent. Jitter only shifts timing, never
    content. A session the backend creates keeps a connection pool of
    max(concurrency, 10), so `concurrency` threads calling complete() at
    once never discard connections, and never reads `.netrc`, so the
    `auth_env` credential is the only one sent; a session the caller
    supplies is used as given.

    The proxy and CA-bundle environment variables (`HTTP_PROXY`,
    `NO_PROXY`, `REQUESTS_CA_BUNDLE` and the like) are read once, here,
    for the one URL the backend posts to, together with the session's
    own proxies, verify, cert and stream; changing them later has no
    effect on this backend. Its headers, cookies, auth and hooks are
    still applied to every request.
    """

    def __init__(
        self,
        spec: ModelSpec,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        concurrency: int = 1,
    ) -> None:
        self._spec = spec
        self._headers = {"Content-Type": "application/json"}
        if spec.auth_env:
            secret = os.environ.get(spec.auth_env, "")
            if not secret:
                raise ConfigurationError(
                    f"environment variable {spec.auth_env} is not set; it must "
                    f"hold the credential for {spec.name}"
                )
            self._headers["Authorization"] = f"Bearer {secret}"
        own_session = session is None
        if own_session:
            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=max(concurrency, 10))
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self._url = spec.endpoint.rstrip("/") + "/chat/completions"
        # what Session.request would re-read from os.environ on every call
        self._send_settings = session.merge_environment_settings(self._url, {}, None, None, None)
        if own_session:
            session.trust_env = False  # so no request reads .netrc
        self._session = session
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._limiter = RateLimiter(spec.requests_per_second)

    def complete(self, prompt: RenderedPrompt) -> CompletionResult:
        payload = {
            "model": self._spec.name,
            "messages": [{"role": "user", "content": prompt.text}],
            "temperature": self._spec.params.temperature,
            "max_tokens": self._spec.params.max_tokens,
        }
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
                request = requests.Request("POST", self._url, headers=self._headers, json=payload)
                response = self._session.send(
                    self._session.prepare_request(request),
                    timeout=self._spec.timeout,
                    allow_redirects=True,
                    **self._send_settings,
                )
            except requests.RequestException as exc:
                last_failure = f"transport failure: {exc.__class__.__name__}: {exc}"
                continue
            if response.status_code == 200:
                return self._parse(response, attempt, started)
            if response.status_code == 429 or response.status_code >= 500:
                last_failure = f"HTTP {response.status_code}"
                if response.status_code in (429, 503):
                    asked = _retry_after(response.headers.get("Retry-After"), policy.max_delay)
                continue
            raise BackendError(
                f"{self._spec.name}: permanent HTTP {response.status_code}: "
                f"{response.text[:200]}"
            )
        raise BackendError(
            f"{self._spec.name}: giving up after {policy.max_attempts} attempts; "
            f"last failure: {last_failure}"
        )

    def _parse(
        self, response: requests.Response, attempts: int, started: float
    ) -> CompletionResult:
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(
                f"{self._spec.name}: malformed completion response "
                f"({exc.__class__.__name__}: {exc}); body starts "
                f"{response.text[:200]!r}"
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


def create_backend(spec: ModelSpec, concurrency: int = 1) -> Backend:
    """Scripted backend for scripted: endpoints, HTTP otherwise, sized
    for `concurrency` threads calling complete() at once."""
    scripted = spec.scripted_path
    if scripted is not None:
        return ScriptedBackend(scripted)
    return HttpChatBackend(spec, concurrency=concurrency)
