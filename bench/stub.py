"""Loopback chat-completion stub that measures the harness, not itself.

The stub answers ``POST`` requests in the chat-completion shape the
remote agent reads (``{"choices": [{"message": {"content": ...}}]}``),
looking the reply up by the prompt text, after a fixed delay.  A fixed
pool of ``capacity`` worker threads serves connections, so at most
``capacity`` requests are in service at once and the rest wait in the
accept queue.

Three choices keep the stub's own cost out of the measurement:

- the connection closes after each reply (HTTP/1.0), so no request waits
  behind an idle keep-alive connection held by another worker
- ``disable_nagle_algorithm`` is set: with Nagle on, the handler's separate
  header and body writes met the client's delayed ACK and added about
  45 ms to each call
- ``request_queue_size`` is raised: with the default backlog of 5, bursts
  turned into connection retries

Each request records three times (``time.perf_counter``): accept, start
(a worker picks the connection up) and reply (the response is written).
"""

from __future__ import annotations

import http.server
import json
import queue
import socketserver
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class StubEvent:
    accepted: float
    started: float
    replied: float
    status: int


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"
    disable_nagle_algorithm = True

    def do_POST(self):
        stub: ChatStub = self.server.stub
        length = int(self.headers.get("Content-Length", 0))
        try:
            prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            prompt = None
        reply = stub.replies.get(prompt)
        time.sleep(stub.delay_s)
        if reply is None:
            status, body = 404, b'{"error": "unknown prompt"}'
        else:
            status = 200
            body = json.dumps({"choices": [{"message": {"role": "assistant", "content": reply}}]})
            body = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        stub._record(status)

    def log_message(self, format, *args):  # keep request lines off stderr
        pass


class _Server(socketserver.TCPServer):
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(self, stub: "ChatStub"):
        self.stub = stub
        super().__init__(("127.0.0.1", 0), _Handler)

    def process_request(self, request, client_address):
        # Runs on the accept thread right after accept(); a worker serves it.
        self.stub._pending.put((request, client_address, time.perf_counter()))


class ChatStub:
    """Context manager: ``with ChatStub(replies, 0.02, 2) as stub: stub.url``."""

    def __init__(self, replies: dict, delay_s: float, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.replies = dict(replies)
        self.delay_s = float(delay_s)
        self.capacity = int(capacity)
        self.events: list[StubEvent] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pending: queue.Queue = queue.Queue()
        self._server = _Server(self)
        self._threads: list[threading.Thread] = []

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "ChatStub":
        acceptor = threading.Thread(target=self._server.serve_forever, name="stub-accept")
        workers = [
            threading.Thread(target=self._work, name=f"stub-worker-{i}")
            for i in range(self.capacity)
        ]
        self._threads = [acceptor, *workers]
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        for _ in range(self.capacity):
            self._pending.put(None)
        for thread in self._threads:
            thread.join(timeout=10)
        self._server.server_close()
        alive = [t.name for t in self._threads if t.is_alive()]
        if alive:
            raise RuntimeError(f"stub threads did not stop: {alive}")

    def _work(self) -> None:
        while True:
            item = self._pending.get()
            if item is None:
                return
            request, client_address, accepted = item
            self._local.times = (accepted, time.perf_counter())
            try:
                self._server.finish_request(request, client_address)
            except OSError:
                pass  # the client went away; the harness sees and counts the failure
            finally:
                self._server.shutdown_request(request)

    def _record(self, status: int) -> None:
        accepted, started = self._local.times
        event = StubEvent(accepted, started, time.perf_counter(), status)
        with self._lock:
            self.events.append(event)

    def events_between(self, start: float, end: float) -> list[StubEvent]:
        with self._lock:
            return [e for e in self.events if start <= e.started <= end]
