"""Backends: scripted replay, rate limiting, and the HTTP chat client."""

from __future__ import annotations

import base64
import contextlib
import gc
import json
import random
import re
import socket
import ssl
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests

from mwpeval import (
    BackendError,
    ConfigurationError,
    DataError,
    GenerationParams,
    HttpChatBackend,
    ModelSpec,
    RateLimiter,
    RetryPolicy,
    ScriptedBackend,
    ScriptedLookupError,
    create_backend,
    render,
)
from mwpeval._schema import dump, load
from mwpeval.prompting import CORRECTION_MODES, REASONING_MODE, DopLevel, TemplateRegistry

from conftest import make_triplet

REGISTRY = TemplateRegistry.load()


def prompt_for(triplet, mode=REASONING_MODE):
    return render(triplet, mode, registry=REGISTRY)


# scripted backend


def test_scripted_lookup_by_composite_key(fixture_dataset, scripted_path):
    backend = ScriptedBackend(scripted_path)
    t01 = fixture_dataset.by_id["t01"]
    result = backend.complete(prompt_for(t01))
    assert "224" in result.text
    assert backend.calls == 1
    result = backend.complete(prompt_for(t01, CORRECTION_MODES[DopLevel.SP]))
    assert "Final answer: 224" in result.text
    assert backend.calls == 2


def test_scripted_lookup_by_content_hash(tmp_path):
    triplet = make_triplet()
    prompt = prompt_for(triplet)
    path = tmp_path / "responses.jsonl"
    path.write_text(
        json.dumps({"key": prompt.content_hash, "response": "#### 24"}) + "\n",
        encoding="utf-8",
    )
    backend = ScriptedBackend(path)
    assert backend.complete(prompt).text == "#### 24"


def test_scripted_miss_raises_lookup_error(scripted_path):
    backend = ScriptedBackend(scripted_path)
    stranger = make_triplet(id="zz99")
    with pytest.raises(ScriptedLookupError, match="zz99"):
        backend.complete(prompt_for(stranger))


def test_scripted_duplicate_keys_rejected(tmp_path):
    path = tmp_path / "responses.jsonl"
    row = json.dumps({"key": "a|reasoning|-", "response": "x"})
    path.write_text(row + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate"):
        ScriptedBackend(path)


def test_scripted_schema_is_strict(tmp_path):
    path = tmp_path / "responses.jsonl"
    path.write_text(json.dumps({"key": "a", "text": "x"}) + "\n", encoding="utf-8")
    with pytest.raises(DataError):
        ScriptedBackend(path)


def test_scripted_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        ScriptedBackend(tmp_path / "absent.jsonl")


def test_create_backend_picks_scripted_for_scripted_endpoints(scripted_path):
    spec = ModelSpec(name="m", endpoint=f"scripted:{scripted_path}")
    backend = create_backend(spec)
    assert isinstance(backend, ScriptedBackend)


# rate limiter


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.slept: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


def test_rate_limiter_spaces_slots():
    clock = FakeClock()
    limiter = RateLimiter(2.0, clock=clock, sleep=clock.sleep)
    slots = [limiter.acquire() for _ in range(6)]
    diffs = [b - a for a, b in zip(slots, slots[1:])]
    assert all(abs(d - 0.5) < 1e-9 for d in diffs), diffs
    # no half-open 1 second window ever holds more than 2 slots
    for start in slots:
        inside = [s for s in slots if start <= s < start + 1.0]
        assert len(inside) <= 2


def test_rate_limiter_does_not_penalize_idle_time():
    clock = FakeClock()
    limiter = RateLimiter(2.0, clock=clock, sleep=clock.sleep)
    limiter.acquire()
    clock.now = 50.0
    slot = limiter.acquire()
    assert slot == 50.0
    assert clock.slept == []  # neither call had to wait


def test_rate_limiter_rejects_bad_rate():
    with pytest.raises(ConfigurationError):
        RateLimiter(0)


# http chat backend


def ok_payload(text: str) -> dict:
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"total_tokens": 11},
    }


@pytest.fixture()
def chat_server():
    """A throwaway chat-completions endpoint driven by a response script
    of (status, payload, *(header name, value)) entries."""
    state = {"script": [], "seen": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
            state["seen"].append(
                {
                    "path": self.path,
                    "body": body,
                    "auth": self.headers.get("Authorization"),
                }
            )
            if state["script"]:
                status, payload, *headers = state["script"].pop(0)
            else:
                status, payload, headers = 200, ok_payload("unscripted"), []
            raw = (
                payload.encode("utf-8")
                if isinstance(payload, str)
                else json.dumps(payload).encode("utf-8")
            )
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(raw)

        def log_message(self, fmt, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", state
    finally:
        server.shutdown()
        server.server_close()


def fast_spec(url: str, **overrides) -> ModelSpec:
    fields = dict(
        name="stub-model",
        endpoint=url,
        params=GenerationParams(temperature=0.25, max_tokens=64),
        timeout=5.0,
        retry=RetryPolicy(max_attempts=3, base_delay=1.0),
        requests_per_second=10_000.0,
    )
    fields.update(overrides)
    return ModelSpec(**fields)


def backend_for(spec: ModelSpec, seed: int = 0):
    sleeps: list[float] = []
    backend = HttpChatBackend(spec, sleep=sleeps.append, rng=random.Random(seed))
    return backend, sleeps


def test_http_happy_path_sends_the_documented_body(chat_server):
    url, state = chat_server
    state["script"].append((200, ok_payload("Final answer: 24")))
    backend, sleeps = backend_for(fast_spec(url))
    prompt = prompt_for(make_triplet())

    result = backend.complete(prompt)

    assert result.text == "Final answer: 24"
    assert result.attempts == 1
    assert result.usage == {"total_tokens": 11}
    assert sleeps == []
    request = state["seen"][0]
    assert request["path"] == "/chat/completions"
    assert request["body"] == {
        "model": "stub-model",
        "messages": [{"role": "user", "content": prompt.text}],
        "temperature": 0.25,
        "max_tokens": 64,
    }
    assert request["auth"] is None


def test_http_bearer_token_from_environment(chat_server, monkeypatch):
    url, state = chat_server
    monkeypatch.setenv("STUB_MODEL_KEY", "s3cret")
    backend, _ = backend_for(fast_spec(url, auth_env="STUB_MODEL_KEY"))
    backend.complete(prompt_for(make_triplet()))
    assert state["seen"][0]["auth"] == "Bearer s3cret"


def test_http_missing_credential_fails_at_construction(chat_server, monkeypatch):
    url, _ = chat_server
    monkeypatch.delenv("STUB_MODEL_KEY", raising=False)
    with pytest.raises(ConfigurationError, match="STUB_MODEL_KEY"):
        HttpChatBackend(fast_spec(url, auth_env="STUB_MODEL_KEY"))


def test_http_a_credential_latin_1_cannot_encode_fails_at_construction(monkeypatch):
    monkeypatch.setenv("STUB_MODEL_KEY", "s3cr\u2713t")
    with pytest.raises(ConfigurationError, match="latin-1") as raised:
        HttpChatBackend(fast_spec("http://127.0.0.1:9", auth_env="STUB_MODEL_KEY"))
    assert "s3cr" not in str(raised.value)


def test_http_retries_transient_statuses(chat_server):
    url, state = chat_server
    state["script"] += [
        (429, {"error": "slow down"}),
        (503, {"error": "busy"}),
        (200, ok_payload("#### 24")),
    ]
    backend, sleeps = backend_for(fast_spec(url))

    result = backend.complete(prompt_for(make_triplet()))

    assert result.text == "#### 24"
    assert result.attempts == 3
    assert len(state["seen"]) == 3
    # full jitter: each delay drawn from [0, base * multiplier^(n-2)]
    assert len(sleeps) == 2
    assert 0.0 <= sleeps[0] <= 1.0
    assert 0.0 <= sleeps[1] <= 2.0


@pytest.mark.parametrize(
    "status, header, waited",
    [
        (429, "3", 2.0),  # capped at max_delay
        (503, "3", 2.0),
        (429, "0", 0.0),
        (429, " 1 ", 1.0),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.0),  # a date in the past
        (429, "Wed, 21 Oct 2015 07:28:00 -0000", 0.0),  # the same, with no claim about local time
        (503, "Fri, 01 Jan 9999 00:00:00 GMT", 2.0),
    ],
)
def test_http_retry_after_sets_the_wait(chat_server, status, header, waited):
    url, state = chat_server
    state["script"] += [(status, {}, ("Retry-After", header)), (200, ok_payload("#### 24"))]
    backend, sleeps = backend_for(fast_spec(url, retry=RetryPolicy(max_attempts=3, max_delay=2.0)))
    assert backend.complete(prompt_for(make_triplet())).attempts == 2
    assert sleeps == [waited]


@pytest.mark.parametrize(
    "status, header",
    [(429, "soon"), (429, "1.5"), (429, "-1"), (429, "²"), (500, "0"), (502, "0")],
)
def test_http_unreadable_or_unhonoured_retry_after_keeps_the_jitter(chat_server, status, header):
    url, state = chat_server
    state["script"] += [(status, {}, ("Retry-After", header)), (200, ok_payload("#### 24"))]
    spec = fast_spec(url, retry=RetryPolicy(max_attempts=3, base_delay=1.0, max_delay=2.0))
    backend, sleeps = backend_for(spec, seed=7)
    backend.complete(prompt_for(make_triplet()))
    assert sleeps == [random.Random(7).uniform(0.0, spec.retry.delay_before(2))]


def test_http_retry_after_holds_for_one_retry_only(chat_server):
    url, state = chat_server
    state["script"] += [
        (429, {}, ("Retry-After", "0")),
        (500, {}),
        (200, ok_payload("#### 24")),
    ]
    spec = fast_spec(url, retry=RetryPolicy(max_attempts=3, base_delay=1.0))
    backend, sleeps = backend_for(spec, seed=3)
    backend.complete(prompt_for(make_triplet()))
    assert sleeps == [0.0, random.Random(3).uniform(0.0, spec.retry.delay_before(3))]


def test_http_gives_up_after_max_attempts(chat_server):
    url, state = chat_server
    state["script"] += [(500, {}), (500, {}), (500, {})]
    backend, _ = backend_for(fast_spec(url))
    with pytest.raises(BackendError, match="giving up after 3 attempts"):
        backend.complete(prompt_for(make_triplet()))
    assert len(state["seen"]) == 3


def test_http_other_4xx_is_permanent(chat_server):
    url, state = chat_server
    state["script"].append((400, {"error": "bad request"}))
    backend, _ = backend_for(fast_spec(url))
    with pytest.raises(BackendError, match="permanent HTTP 400"):
        backend.complete(prompt_for(make_triplet()))
    assert len(state["seen"]) == 1  # no retry

def test_http_malformed_success_body_is_an_error(chat_server):
    url, state = chat_server
    state["script"].append((200, {"unexpected": "shape"}))
    backend, _ = backend_for(fast_spec(url))
    with pytest.raises(BackendError, match="malformed"):
        backend.complete(prompt_for(make_triplet()))
    assert len(state["seen"]) == 1


def test_http_non_string_content_is_an_error(chat_server):
    url, state = chat_server
    state["script"].append((200, {"choices": [{"message": {"content": 42}}]}))
    backend, _ = backend_for(fast_spec(url))
    with pytest.raises(BackendError, match="not a string"):
        backend.complete(prompt_for(make_triplet()))


def test_http_transport_failures_retry_then_give_up():
    # nothing listens on port 1; every attempt is a connection error
    spec = fast_spec("http://127.0.0.1:1", retry=RetryPolicy(max_attempts=2))
    backend, sleeps = backend_for(spec)
    with pytest.raises(BackendError, match="transport failure"):
        backend.complete(prompt_for(make_triplet()))
    assert len(sleeps) == 1


def test_http_keeps_a_session_the_caller_supplies(chat_server):
    url, _ = chat_server
    session = requests.Session()
    adapters = dict(session.adapters)
    backend = HttpChatBackend(fast_spec(url), session=session)
    assert dict(session.adapters) == adapters
    assert backend.complete(prompt_for(make_triplet())).text == "unscripted"


def test_http_reads_the_proxy_environment_once_at_construction(chat_server, monkeypatch):
    url, state = chat_server
    scans = []
    get_environ_proxies = requests.sessions.get_environ_proxies

    def counted(*args, **kwargs):
        scans.append(args)
        return get_environ_proxies(*args, **kwargs)

    monkeypatch.setattr(requests.sessions, "get_environ_proxies", counted)
    backend, sleeps = backend_for(fast_spec(url))
    assert len(scans) == 1
    state["script"].append((429, {}))
    for _ in range(3):
        assert backend.complete(prompt_for(make_triplet())).text == "unscripted"
    assert len(state["seen"]) == 4 and len(sleeps) == 1
    assert len(scans) == 1


def unset_proxy_bypass(monkeypatch):
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)


def test_http_honours_the_environment_proxy(chat_server, monkeypatch):
    url, state = chat_server
    unset_proxy_bypass(monkeypatch)
    # nothing listens on port 1, so a request that goes through the proxy fails
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.setenv(name, "http://127.0.0.1:1")
    proxied, _ = backend_for(fast_spec(url, retry=RetryPolicy(max_attempts=2)))
    with pytest.raises(BackendError, match="transport failure"):
        proxied.complete(prompt_for(make_triplet()))
    assert state["seen"] == []

    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    bypassed, _ = backend_for(fast_spec(url))
    assert bypassed.complete(prompt_for(make_triplet())).text == "unscripted"


def test_http_ignores_proxy_variables_set_after_construction(chat_server, monkeypatch):
    url, _ = chat_server
    unset_proxy_bypass(monkeypatch)
    backend, _ = backend_for(fast_spec(url))
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.setenv(name, "http://127.0.0.1:1")
    assert backend.complete(prompt_for(make_triplet())).text == "unscripted"


@pytest.mark.parametrize("auth_env", ["STUB_MODEL_KEY", None])
def test_http_never_reads_netrc(chat_server, monkeypatch, tmp_path, auth_env):
    url, state = chat_server
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password pw\n", encoding="utf-8")
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.setenv("STUB_MODEL_KEY", "s3cret")
    backend, _ = backend_for(fast_spec(url, auth_env=auth_env))
    backend.complete(prompt_for(make_triplet()))
    assert state["seen"][0]["auth"] == ("Bearer s3cret" if auth_env else None)


def test_jitter_shifts_timing_never_content(chat_server):
    url, state = chat_server
    results = []
    timings = []
    for seed in (1, 2):
        state["script"] += [(429, {}), (200, ok_payload("Final answer: 7"))]
        backend, sleeps = backend_for(fast_spec(url), seed=seed)
        results.append(backend.complete(prompt_for(make_triplet())).text)
        timings.append(tuple(sleeps))
    assert results[0] == results[1] == "Final answer: 7"
    assert timings[0] != timings[1]


# retry policy and model spec


def test_retry_policy_delay_schedule():
    policy = RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=2.0, max_delay=60.0)
    assert [policy.delay_before(n) for n in (2, 3, 4, 5)] == [1.0, 2.0, 4.0, 8.0]
    capped = RetryPolicy(base_delay=40.0, multiplier=2.0, max_delay=60.0)
    assert capped.delay_before(3) == 60.0


def test_model_spec_round_trips_through_dict():
    spec = fast_spec("http://example.invalid", auth_env="KEY")
    assert load(ModelSpec, dump(spec), "model config", ConfigurationError) == spec


def test_model_spec_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown model config keys"):
        payload = {"name": "m", "endpoint": "x", "api_key": "nope"}
        load(ModelSpec, payload, "model config", ConfigurationError)


def test_model_spec_rejects_unknown_nested_keys():
    with pytest.raises(ConfigurationError, match="bad model config"):
        payload = {"name": "m", "endpoint": "x", "params": {"temp": 0.5}}
        load(ModelSpec, payload, "model config", ConfigurationError)


def test_model_spec_never_stores_secrets():
    spec = fast_spec("http://example.invalid", auth_env="KEY")
    assert "s3cret" not in json.dumps(dump(spec))


@pytest.mark.parametrize("name", ["a\nb", "x\x01y", "tab\there", "del\x7f", "c1\x85"])
def test_model_spec_refuses_a_control_character_in_the_name(name):
    with pytest.raises(ConfigurationError, match="control character"):
        fast_spec("http://example.invalid", name=name)


def test_model_spec_keeps_a_name_with_markup():
    assert fast_spec("http://example.invalid", name="R&D <7b>").name == "R&D <7b>"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("name", " ", "model name must be non-empty"),
        ("endpoint", "", "model endpoint must be non-empty"),
        ("timeout", 0.0, "timeout must be > 0, got 0.0"),
        ("timeout", -1.0, "timeout must be > 0, got -1.0"),
        ("requests_per_second", 0.0, "requests_per_second must be > 0, got 0.0"),
    ],
    ids=["blank-name", "empty-endpoint", "zero-timeout", "negative-timeout", "zero-rate"],
)
def test_model_spec_refuses_a_blank_name_or_endpoint_and_a_bound_not_above_0(
    field, value, message
):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        fast_spec("http://example.invalid", **{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("max_attempts", 0, "max_attempts must be >= 1, got 0"),
        ("base_delay", -1.0, "retry delays must be >= 0 and multiplier >= 1"),
        ("max_delay", -0.5, "retry delays must be >= 0 and multiplier >= 1"),
        ("multiplier", 0.5, "retry delays must be >= 0 and multiplier >= 1"),
    ],
    ids=["no-attempt", "negative-base-delay", "negative-max-delay", "shrinking-multiplier"],
)
def test_retry_policy_refuses_no_attempt_a_negative_delay_and_a_multiplier_below_1(
    field, value, message
):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        RetryPolicy(**{field: value})


# keep-alive connections, redirects, TLS and proxies

TLS_DIR = Path(__file__).parent / "data" / "tls"


@contextlib.contextmanager
def serving(handler, tls: ssl.SSLContext | None = None):
    """A threaded server for handler on 127.0.0.1, over TLS when given;
    yields the server. Closing it joins every handler thread, so no
    thread of one test is still running in the next."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = False
    server.socket.listen(64)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def keepalive_handler(state: dict):
    """An HTTP/1.1 keep-alive chat endpoint that counts the connections
    it accepts and the ones still open. A barrier in state["gate"] holds
    each reply until that many requests are open at once; with
    state["hang_up"] set, the server closes the connection after the
    reply, as an idle timeout would."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 10  # an idle connection a client never closes ends here

        def setup(self):
            super().setup()
            with state["lock"]:
                state["accepted"] += 1
                state["open"] += 1

        def finish(self):
            super().finish()
            with state["lock"]:
                state["open"] -= 1

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", "0")))
            state["seen"].append({"requestline": self.requestline, "headers": self.headers})
            if state["gate"] is not None:
                state["gate"].wait()
            raw = json.dumps(ok_payload("kept")).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
            if state["hang_up"]:
                self.close_connection = True

        def log_message(self, fmt, *args):
            pass

    return Handler


def new_state() -> dict:
    return {
        "lock": threading.Lock(), "accepted": 0, "open": 0, "seen": [],
        "gate": None, "hang_up": False,
    }


@pytest.fixture()
def keepalive_server():
    state = new_state()
    with serving(keepalive_handler(state)) as server:
        yield f"http://127.0.0.1:{server.server_port}", state


def settles(state: dict, key: str, value: int) -> bool:
    """Whether state[key] reaches value within a few seconds: the server
    sees a client's close only when its handler thread next reads."""
    deadline = time.monotonic() + 5.0
    while state[key] != value and time.monotonic() < deadline:
        time.sleep(0.01)
    return state[key] == value


def test_http_sequential_calls_share_one_connection(keepalive_server):
    url, state = keepalive_server
    backend, _ = backend_for(fast_spec(url))
    try:
        for _ in range(20):
            assert backend.complete(prompt_for(make_triplet())).attempts == 1
    finally:
        backend.close()
    assert len(state["seen"]) == 20
    assert state["accepted"] == 1
    assert settles(state, "open", 0)


def gated_calls(backend, state: dict, callers: int, calls: int) -> list[str]:
    """The texts of `calls` complete() calls from each of `callers`
    threads, the server holding every reply until all callers have a
    request open."""
    state["gate"] = threading.Barrier(callers, timeout=10)
    prompt = prompt_for(make_triplet())
    texts = []

    def call():
        for _ in range(calls):
            texts.append(backend.complete(prompt).text)

    threads = [threading.Thread(target=call) for _ in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    state["gate"] = None
    return texts


def test_http_pool_is_sized_to_concurrency(keepalive_server):
    # Each of the 50 rounds holds 16 requests open at once; a pool that
    # closed a returned connection would open a new one the next round.
    url, state = keepalive_server
    backend = HttpChatBackend(fast_spec(url))
    assert gated_calls(backend, state, callers=16, calls=50) == ["kept"] * 800
    assert state["accepted"] == 16
    backend.close()
    assert settles(state, "open", 0)


@pytest.mark.parametrize("calls, callers", [(4, 10), (32, 32)])
def test_http_keeps_at_most_one_idle_connection_per_caller(keepalive_server, calls, callers):
    url, state = keepalive_server
    backend = create_backend(fast_spec(url))
    assert gated_calls(backend, state, callers, calls) == ["kept"] * (calls * callers)
    assert state["accepted"] == callers
    # one connection per caller stays open for the next calls, and no more are opened
    assert settles(state, "open", callers)
    assert backend.complete(prompt_for(make_triplet())).attempts == 1
    assert state["accepted"] == callers
    backend.close()
    backend.close()  # a second close does nothing
    assert settles(state, "open", 0)
    # a call after close works, on a connection that is then closed, not kept
    assert backend.complete(prompt_for(make_triplet())).text == "kept"
    assert state["accepted"] == callers + 1
    assert settles(state, "open", 0)


def test_http_a_connection_the_server_closed_is_replaced_without_a_retry(keepalive_server):
    url, state = keepalive_server
    backend, sleeps = backend_for(fast_spec(url))
    state["hang_up"] = True
    assert backend.complete(prompt_for(make_triplet())).attempts == 1
    assert settles(state, "open", 0)  # the kept connection is now closed
    state["hang_up"] = False
    result = backend.complete(prompt_for(make_triplet()))
    assert (result.attempts, result.text, sleeps) == (1, "kept", [])
    assert state["accepted"] == 2
    backend.close()


def test_http_a_dropped_backend_closes_its_connections(keepalive_server):
    url, state = keepalive_server
    backend, _ = backend_for(fast_spec(url))
    backend.complete(prompt_for(make_triplet()))
    assert state["open"] == 1
    del backend
    gc.collect()
    assert settles(state, "open", 0)


@pytest.mark.parametrize("status", [301, 307])
def test_http_a_redirect_is_permanent_and_not_followed(chat_server, status):
    url, state = chat_server
    state["script"].append((status, "moved", ("Location", f"{url}/elsewhere")))
    backend, sleeps = backend_for(fast_spec(url))
    with pytest.raises(BackendError) as raised:
        backend.complete(prompt_for(make_triplet()))
    assert f"permanent HTTP {status}" in str(raised.value)
    assert f"{url}/elsewhere" in str(raised.value)
    assert len(state["seen"]) == 1 and sleeps == []


def test_http_an_endpoint_that_is_not_http_is_refused_at_construction():
    with pytest.raises(ConfigurationError, match="not an http"):
        HttpChatBackend(fast_spec("ftp://127.0.0.1/v1"))


@pytest.fixture()
def tls_server(monkeypatch):
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        monkeypatch.delenv(name, raising=False)
    unset_proxy_bypass(monkeypatch)
    for name in ("https_proxy", "HTTPS_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(TLS_DIR / "cert.pem", TLS_DIR / "key.pem")
    state = new_state()
    with serving(keepalive_handler(state), tls) as server:
        yield f"https://127.0.0.1:{server.server_port}", state


def test_https_is_refused_by_default_verification(tls_server):
    url, state = tls_server
    backend, _ = backend_for(fast_spec(url, retry=RetryPolicy(max_attempts=1)))
    with pytest.raises(BackendError, match="transport failure.*CERTIFICATE_VERIFY_FAILED"):
        backend.complete(prompt_for(make_triplet()))
    assert state["seen"] == []


def test_https_is_accepted_with_the_ca_bundle_variable(tls_server, monkeypatch):
    url, state = tls_server
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(TLS_DIR / "cert.pem"))
    backend, _ = backend_for(fast_spec(url))
    for _ in range(3):
        assert backend.complete(prompt_for(make_triplet())).text == "kept"
    backend.close()
    assert state["accepted"] == 1


def test_https_is_accepted_by_a_session_that_does_not_verify(tls_server):
    url, _ = tls_server
    session = requests.Session()
    session.verify = False
    backend = HttpChatBackend(fast_spec(url), session=session)
    assert backend.complete(prompt_for(make_triplet())).text == "kept"
    backend.close()


def test_http_through_a_proxy_sends_absolute_form_and_proxy_credentials(
    keepalive_server, monkeypatch
):
    proxy, state = keepalive_server  # answers as the origin would
    unset_proxy_bypass(monkeypatch)
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.setenv(name, proxy.replace("http://", "http://user:pw@"))
    backend, _ = backend_for(fast_spec("http://127.0.0.1:9/v1"))
    assert backend.complete(prompt_for(make_triplet())).text == "kept"
    backend.close()
    (seen,) = state["seen"]
    assert seen["requestline"] == "POST http://127.0.0.1:9/v1/chat/completions HTTP/1.1"
    assert seen["headers"]["Proxy-Authorization"] == "Basic " + base64.b64encode(
        b"user:pw"
    ).decode("ascii")
    assert seen["headers"]["Host"] == "127.0.0.1:9"


def test_https_through_a_proxy_opens_a_tunnel_with_proxy_credentials(monkeypatch):
    seen = []

    class RefusingProxy(BaseHTTPRequestHandler):
        def do_CONNECT(self):
            seen.append((self.requestline, self.headers.get("Proxy-Authorization")))
            self.send_error(403)

        def log_message(self, fmt, *args):
            pass

    unset_proxy_bypass(monkeypatch)
    with serving(RefusingProxy) as proxy:
        for name in ("https_proxy", "HTTPS_PROXY"):
            monkeypatch.setenv(name, f"http://user:pw@127.0.0.1:{proxy.server_port}")
        spec = fast_spec("https://127.0.0.1:9/v1", retry=RetryPolicy(max_attempts=1))
        backend, _ = backend_for(spec)
        with pytest.raises(BackendError, match="transport failure.*403"):
            backend.complete(prompt_for(make_triplet()))
    credentials = "Basic " + base64.b64encode(b"user:pw").decode("ascii")
    assert seen == [("CONNECT 127.0.0.1:9 HTTP/1.0", credentials)]


# the request on the wire, and the reply reader, against a raw socket server


def reply_bytes(
    payload, status: str = "200 OK", version: str = "HTTP/1.1", headers: tuple = ()
) -> bytes:
    """A reply head, framed by Content-Length unless headers frame it, then the body."""
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
    head = [f"{version} {status}"]
    if not any(name.lower() in ("content-length", "transfer-encoding") for name, _ in headers):
        head.append(f"Content-Length: {len(body)}")
    head += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


OK_REPLY = reply_bytes(ok_payload("raw"))


def read_request(conn, pending: bytes) -> tuple[bytes | None, bytes]:
    """One request (head and Content-Length body) from conn, and the bytes
    read past it; None when the client closed the connection first."""
    while b"\r\n\r\n" not in pending:
        data = conn.recv(65536)
        if not data:
            return None, b""
        pending += data
    head, _, rest = pending.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(rest) < length:
        rest += conn.recv(65536)
    return head + b"\r\n\r\n" + rest[:length], rest[length:]


@contextlib.contextmanager
def raw_server(*script: bytes | tuple[bytes, bool]):
    """A one-thread HTTP server on 127.0.0.1 that answers the n-th request
    it reads with script[n], verbatim in one write, and OK_REPLY once the
    script is spent. An entry (reply, True) closes the connection after
    the reply. Yields (url, state): state["requests"] holds each request's
    bytes, state["accepted"] counts connections."""
    state = {"requests": [], "accepted": 0}
    replies = list(script)
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            state["accepted"] += 1
            with conn, contextlib.suppress(OSError):  # a client may close mid-reply
                conn.settimeout(10)
                pending = b""
                while True:
                    request, pending = read_request(conn, pending)
                    if request is None:
                        break
                    state["requests"].append(request)
                    reply = replies.pop(0) if replies else OK_REPLY
                    reply, hang_up = reply if isinstance(reply, tuple) else (reply, False)
                    conn.sendall(reply)
                    if hang_up:
                        break

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", state
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()


SHORT_PROMPT = types.SimpleNamespace(text="What is 6 * 4?")
SHORT_BODY = (
    b'{"model": "stub-model", "messages": [{"role": "user", "content": "What is 6 * 4?"}], '
    b'"temperature": 0.25, "max_tokens": 64}'
)


def test_http_request_bytes_are_pinned(monkeypatch):
    monkeypatch.setenv("STUB_MODEL_KEY", "s3cret")
    with raw_server() as (url, state):
        backend = HttpChatBackend(fast_spec(url + "/v1", auth_env="STUB_MODEL_KEY"))
        assert backend.complete(SHORT_PROMPT).text == "raw"
        backend.close()
    port = url.rpartition(":")[2]
    assert state["requests"] == [
        b"POST /v1/chat/completions HTTP/1.1\r\n"
        b"Host: 127.0.0.1:%s\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Content-Length: 123\r\n"
        b"User-Agent: %s\r\n"
        b"Accept: */*\r\n"
        b"Connection: keep-alive\r\n"
        b"Content-Type: application/json\r\n"
        b"Authorization: Bearer s3cret\r\n"
        b"\r\n" % (port.encode(), requests.utils.default_user_agent().encode())
        + SHORT_BODY
    ]


def test_http_request_bytes_through_a_proxy_are_pinned(monkeypatch):
    unset_proxy_bypass(monkeypatch)
    with raw_server() as (proxy, state):
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, proxy.replace("http://", "http://user:pw@"))
        backend = HttpChatBackend(fast_spec("http://127.0.0.1:9/v1"))
        assert backend.complete(SHORT_PROMPT).text == "raw"
        backend.close()
    assert state["requests"] == [
        b"POST http://127.0.0.1:9/v1/chat/completions HTTP/1.1\r\n"
        b"Host: 127.0.0.1:9\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Content-Length: 123\r\n"
        b"User-Agent: %s\r\n"
        b"Accept: */*\r\n"
        b"Connection: keep-alive\r\n"
        b"Content-Type: application/json\r\n"
        b"Proxy-Authorization: Basic dXNlcjpwdw==\r\n"
        b"\r\n" % requests.utils.default_user_agent().encode()
        + SHORT_BODY
    ]


def raw_calls(url: str, calls: int):
    """The results of `calls` complete() calls through one backend, seeded
    7, and its sleeps. The backend is closed after them."""
    backend, sleeps = backend_for(fast_spec(url), seed=7)
    try:
        return [backend.complete(SHORT_PROMPT) for _ in range(calls)], sleeps
    finally:
        backend.close()


def test_http_reads_a_chunked_reply_with_a_trailer():
    body = json.dumps(ok_payload("chunked")).encode("utf-8")
    chunks = b"a;name=value\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Checksum: 1\r\n\r\n" % (
        body[:10], len(body) - 10, body[10:]
    )
    reply = reply_bytes(chunks, headers=(("Transfer-Encoding", "chunked"),))
    with raw_server(reply) as (url, state):
        results, sleeps = raw_calls(url, 2)
    assert [(r.text, r.attempts) for r in results] == [("chunked", 1), ("raw", 1)]
    assert (state["accepted"], sleeps) == (1, [])


@pytest.mark.parametrize(
    "reply",
    [
        reply_bytes(ok_payload("closing"), headers=(("Connection", "close"),)),
        reply_bytes(ok_payload("closing"), version="HTTP/1.0"),
    ],
    ids=["connection-close", "http-1.0"],
)
def test_http_a_reply_that_ends_keep_alive_is_not_pooled(reply):
    # the server keeps its end open, so only the client can end the connection
    with raw_server(reply) as (url, state):
        results, sleeps = raw_calls(url, 2)
    assert [(r.text, r.attempts) for r in results] == [("closing", 1), ("raw", 1)]
    assert (state["accepted"], sleeps) == (2, [])


def test_http_skips_a_100_continue_before_the_reply():
    with raw_server(b"HTTP/1.1 100 Continue\r\n\r\n" + OK_REPLY) as (url, state):
        results, sleeps = raw_calls(url, 2)
    assert [(r.text, r.attempts) for r in results] == [("raw", 1), ("raw", 1)]
    assert (state["accepted"], sleeps) == (1, [])


def test_http_reads_a_body_the_server_ends_by_closing():
    head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n"
    with raw_server((head + json.dumps(ok_payload("to close")).encode(), True)) as (url, state):
        results, sleeps = raw_calls(url, 2)
    assert [(r.text, r.attempts) for r in results] == [("to close", 1), ("raw", 1)]
    assert (state["accepted"], sleeps) == (2, [])


CUT_BODY = json.dumps(ok_payload("cut")).encode("utf-8")


@pytest.mark.parametrize(
    "cut",
    [reply_bytes(CUT_BODY[:20], headers=(("Content-Length", str(len(CUT_BODY))),)), b""],
    ids=["short-body", "no-reply"],  # no-reply: RemoteDisconnected
)
def test_http_a_reply_the_server_cuts_short_is_retried_on_a_fresh_connection(cut):
    with raw_server((cut, True)) as (url, state):
        (result,), sleeps = raw_calls(url, 1)
    assert (result.text, result.attempts, len(sleeps)) == ("raw", 2, 1)
    assert state["accepted"] == 2


def test_http_a_204_without_a_length_is_permanent_at_once():
    # the server keeps its end open: a reader that waited for a body would time out
    with raw_server(b"HTTP/1.1 204 No Content\r\n\r\n") as (url, state):
        backend, sleeps = backend_for(fast_spec(url, timeout=30.0))
        started = time.monotonic()
        with pytest.raises(BackendError, match="permanent HTTP 204"):
            backend.complete(SHORT_PROMPT)
        elapsed = time.monotonic() - started
        backend.close()
    assert elapsed < 5.0
    assert (len(state["requests"]), sleeps) == (1, [])


def test_http_bytes_past_a_reply_drop_its_connection():
    with raw_server(OK_REPLY + b"HTTP/1.1 200 OK\r\n") as (url, state):
        results, sleeps = raw_calls(url, 2)
    assert [(r.text, r.attempts) for r in results] == [("raw", 1), ("raw", 1)]
    assert (state["accepted"], sleeps) == (2, [])


@pytest.mark.parametrize(
    "reply, failure",
    [
        (b"HTP/1.1 200 OK\r\n\r\n", "BadStatusLine"),
        (b"HTTP/1.1 20 OK\r\n\r\n", "BadStatusLine"),
        (b"HTTP/1.1 OK\r\n\r\n", "BadStatusLine"),
        (reply_bytes({}, headers=(("X-Long", "a" * 65536),)), "LineTooLong"),
        (reply_bytes({}, headers=tuple((f"X-{n}", "1") for n in range(101))), "got more than 100 headers"),
        # the server keeps its end open: read to close, each attempt would time out
        (reply_bytes(b"{}", headers=(("Content-Length", "+2"),)), "invalid Content-Length '+2'"),
        (reply_bytes(b"{}", headers=(("Content-Length", "0_2"),)), "invalid Content-Length '0_2'"),
        (b"HTTP/2 200\r\n\r\n", "UnknownProtocol: HTTP/2"),
        (reply_bytes(b"zz\r\n{}\r\n0\r\n\r\n", headers=(("Transfer-Encoding", "chunked"),)),
         "IncompleteRead"),
    ],
    ids=[
        "version",
        "status-too-low",
        "no-status",
        "long-header-line",
        "101-headers",
        "signed-length",
        "underscored-length",
        "http-2",
        "chunk-size-not-hex",
    ],
)
def test_http_a_malformed_reply_is_a_transport_failure(reply, failure):
    with raw_server(reply, reply, reply) as (url, state):
        backend, sleeps = backend_for(fast_spec(url))
        with pytest.raises(BackendError) as raised:
            backend.complete(SHORT_PROMPT)
        backend.close()
    message = str(raised.value)
    assert "giving up after 3 attempts; last failure: transport failure: " in message
    assert failure in message
    assert (state["accepted"], len(state["requests"]), len(sleeps)) == (3, 3, 2)


def test_http_reads_a_length_repeated_with_one_value():
    body = json.dumps(ok_payload("twice")).encode("utf-8")
    reply = reply_bytes(body, headers=(("Content-Length", str(len(body))),) * 2)
    with raw_server(reply) as (url, state):
        results, sleeps = raw_calls(url, 2)
    assert [(r.text, r.attempts) for r in results] == [("twice", 1), ("raw", 1)]
    assert (state["accepted"], sleeps) == (1, [])


def test_http_header_names_ignore_case_and_a_folded_value_is_one_line():
    refused = reply_bytes({}, "503 Service Unavailable", headers=(("rETRY-aFTER", "\r\n 1"),))
    with raw_server(refused) as (url, _):
        (result,), sleeps = raw_calls(url, 1)
    assert (result.text, result.attempts, sleeps) == ("raw", 2, [1.0])


def test_http_repeated_retry_after_headers_are_joined_and_do_not_parse():
    refused = reply_bytes({}, "429 Too Many Requests", headers=(("Retry-After", "0"),) * 2)
    with raw_server(refused) as (url, _):
        (result,), sleeps = raw_calls(url, 1)
    assert (result.text, result.attempts) == ("raw", 2)
    # "0, 0" is neither delta-seconds nor a date; the default policy's first bound is 1 s
    assert sleeps == [random.Random(7).uniform(0.0, 1.0)]
