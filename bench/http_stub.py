"""A local chat-completions server for the http-stub workload.

It runs in its own process, so its work does not share the benchmark's
interpreter lock. It speaks HTTP/1.1 with keep-alive and sends each
response in one write: a response split into a header write and a body
write meets the client's delayed ACK and caps a connection at about 25
requests per second.

Replies are looked up by the sha256 of the prompt text. The first time
an epoch sees a prompt, a seeded share of prompts get 429 with
Retry-After: 0 instead, so the client's retry path runs on a known set
of cells. The server counts requests, accepted connections and injected
429s per epoch. Only the standard library is used here.
"""

from __future__ import annotations

import hashlib
import json
import select
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

REPLY_TIMEOUT_S = 30.0


def prompt_key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def injects_429(seed: int, key: str, rate: float) -> bool:
    """Whether the first request for this prompt is refused with 429."""
    digest = hashlib.sha256(f"{seed}|429|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64 < rate


@dataclass(frozen=True)
class Counts:
    requests: int
    connections: int
    injected_429: int


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, replies: dict[str, str], seed: int, rate_429: float) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.replies = replies
        self.seed = seed
        self.rate_429 = rate_429
        self.lock = threading.Lock()
        self.counts = Counts(0, 0, 0)
        self.seen: set[str] = set()

    def reset(self) -> Counts:
        """Start a new epoch; returns the counts of the one that ended."""
        with self.lock:
            counts, self.counts, self.seen = self.counts, Counts(0, 0, 0), set()
        return counts

    def count(self, requests: int = 0, connections: int = 0, injected_429: int = 0) -> None:
        with self.lock:
            c = self.counts
            self.counts = Counts(
                c.requests + requests,
                c.connections + connections,
                c.injected_429 + injected_429,
            )

    def first_sighting(self, key: str) -> bool:
        with self.lock:
            if key in self.seen:
                return False
            self.seen.add(key)
            return True


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _Server

    def setup(self) -> None:
        super().setup()
        self.server.count(connections=1)

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.count(requests=1)
        try:
            text = json.loads(body)["messages"][0]["content"]
        except (ValueError, LookupError, TypeError):
            self._send(400, "Bad Request", {"error": "malformed request"})
            return
        key = prompt_key(text)
        reply = self.server.replies.get(key)
        if reply is None:
            self._send(404, "Not Found", {"error": "unknown prompt"})
            return
        if self.server.first_sighting(key) and injects_429(
            self.server.seed, key, self.server.rate_429
        ):
            self.server.count(injected_429=1)
            self._send(429, "Too Many Requests", {"error": "slow down"}, "Retry-After: 0\r\n")
            return
        self._send(
            200,
            "OK",
            {
                "object": "chat.completion",
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": reply},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {
                    "prompt_tokens": len(text) // 4,
                    "completion_tokens": len(reply) // 4,
                },
            },
        )

    def _send(self, status: int, phrase: str, payload: dict, extra: str = "") -> None:
        data = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {phrase}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n{extra}\r\n"
        )
        self.wfile.write(head.encode("ascii") + data)

    def log_message(self, format: str, *args) -> None:
        pass


def main(argv: list[str]) -> None:
    """Serve until stdin says stop or closes. Arguments: a JSON file
    mapping prompt keys to replies, the seed, the 429 rate. Prints the
    port, then answers each "take" line with the epoch's counts as JSON
    and starts a new epoch."""
    replies = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    server = _Server(replies, int(argv[1]), float(argv[2]))
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        print(server.server_address[1], flush=True)
        for line in sys.stdin:
            if line.strip() == "take":
                print(json.dumps(asdict(server.reset())), flush=True)
            elif line.strip() == "stop":
                break
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


class StubServer:
    """Runs the server in a child process and stops it on close."""

    def __init__(self, replies_path: Path, seed: int, rate_429: float) -> None:
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(replies_path), str(seed), str(rate_429)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.url = f"http://127.0.0.1:{int(self._read_line())}/v1"
        except BaseException:
            self.close()
            raise

    def _read_line(self) -> str:
        ready, _, _ = select.select([self._process.stdout], [], [], REPLY_TIMEOUT_S)
        line = self._process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("stub server did not answer")
        return line

    def take(self) -> Counts:
        """Counts since the last take; the next epoch injects 429s afresh."""
        self._process.stdin.write("take\n")
        self._process.stdin.flush()
        return Counts(**json.loads(self._read_line()))

    def close(self) -> None:
        if self._process.poll() is None:
            try:
                self._process.stdin.write("stop\n")
                self._process.stdin.flush()
            except OSError:
                pass
        try:
            self._process.wait(REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdin.close()
        self._process.stdout.close()


if __name__ == "__main__":
    main(sys.argv[1:])
