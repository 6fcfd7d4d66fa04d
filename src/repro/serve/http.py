"""The HTTP + WebSocket transport for ``tetra serve`` (stdlib only).

Endpoints (tenant = the ``X-Tetra-Tenant`` header, else ``anonymous``):

    GET  /healthz        liveness probe (503 + {"draining": true} while
                         a graceful drain is in progress)
    GET  /api/stats      pool / quota / dedup / overload / program-cache
                         statistics
    POST /api/check      static diagnostics only (no sandbox)
    POST /api/run        run to completion, JSON result
    POST /api/stream     run with live output as NDJSON lines
    POST /api/cancel     {"id": ...} — cancel a pending or running request
    POST /api/drain      begin a graceful drain (stop admissions, finish
                         in-flight runs, persist the cache, exit)
    GET  /api/ws         WebSocket: send one run request, receive streamed
                         {"type": "start"|"out"|"done"} messages; send
                         {"type": "cancel"} any time

``/api/run``'s HTTP status is the documented exit-code mapping
(:data:`repro.serve.protocol.EXIT_HTTP_STATUS`), unless the result
carries an explicit ``http_status`` override — conditions the uniform
exit codes cannot express (a 503 shed with ``Retry-After``, a 500
worker loss).  The body always carries the full result, including
``exit_code``, so clients never parse status text.  Streaming responses
are always ``200`` — the verdict travels in the final ``done`` event
instead.  A streaming client that vanishes — even while its run is
still *queued*, before any worker picked it up — is detected within a
poll tick and its request cancelled, releasing the quota slot.

Built on :class:`http.server.ThreadingHTTPServer`: one OS thread per
connection is plenty for a classroom-sized front door, and the actual
program execution never runs on these threads — it is dispatched to the
sandbox worker pool.
"""

from __future__ import annotations

import json
import queue as queue_mod
import select
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import __version__
from .protocol import ServeError, http_status_for_exit
from .service import ANONYMOUS, ExecutionService
from . import ws as ws_mod

#: Non-standard but widely understood (nginx): client cancelled/closed.
_STATUS_MESSAGES = {499: "Client Closed Request"}


class TetraServeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = f"tetra-serve/{__version__}"
    # TCP_NODELAY: writes that must stay separate (stream events,
    # WebSocket frames) leave at once, not after the client's next ACK.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; keep the server
    # quiet unless the operator asked for chatter.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------
    @property
    def service(self) -> ExecutionService:
        return self.server.service

    def _tenant(self) -> str:
        return self.headers.get("X-Tetra-Tenant", ANONYMOUS).strip() \
            or ANONYMOUS

    def _read_json(self) -> object:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ServeError(411, "Content-Length required")
        try:
            length = int(length)
        except ValueError:
            raise ServeError(400, "bad Content-Length") from None
        cap = self.service.config.max_source_bytes * 4 + 65536
        if length > cap:
            raise ServeError(413, f"request body exceeds {cap} bytes")
        body = self.rfile.read(length)
        try:
            return json.loads(body)
        except ValueError:
            raise ServeError(400, "request body is not valid JSON") \
                from None

    def _send_head(self, data: bytes) -> None:
        """End the buffered response head and send it together with
        ``data`` in one write.  A head and body sent apart let Nagle hold
        the body until the client's delayed ACK: about 40 ms per request
        on a keep-alive connection."""
        head = getattr(self, "_headers_buffer", [])
        if self.request_version != "HTTP/0.9":  # 0.9 replies have no head
            head.append(b"\r\n")
        self._headers_buffer = []
        self.wfile.write(b"".join(head) + data)

    def _send_json(self, status: int, payload: dict,
                   retry_after: float | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status,
                           _STATUS_MESSAGES.get(status))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{max(1, round(retry_after))}")
        self._send_head(body)

    def _send_error_json(self, exc: ServeError) -> None:
        self._send_json(exc.status, {"error": exc.message},
                        retry_after=exc.retry_after)

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/healthz":
                if self.service.draining:
                    self._send_json(503, {"ok": False, "draining": True,
                                          "version": __version__},
                                    retry_after=30.0)
                else:
                    self._send_json(200, {"ok": True,
                                          "version": __version__})
            elif self.path == "/api/stats":
                self._send_json(200, self.service.stats())
            elif self.path == "/api/ws":
                self._websocket_session()
            else:
                self._send_json(404, {"error": f"no route {self.path}"})
        except ServeError as exc:
            self._send_error_json(exc)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/api/run":
                self._run()
            elif self.path == "/api/stream":
                self._stream()
            elif self.path == "/api/check":
                self._send_json(200, self.service.check(self._read_json()))
            elif self.path == "/api/cancel":
                self._cancel()
            elif self.path == "/api/drain":
                self._drain()
            else:
                self._send_json(404, {"error": f"no route {self.path}"})
        except ServeError as exc:
            self._send_error_json(exc)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    # -- endpoints -----------------------------------------------------
    def _run(self) -> None:
        result = self.service.run(self._read_json(), self._tenant())
        status = result.get("http_status") \
            or http_status_for_exit(result["exit_code"])
        self._send_json(status, result,
                        retry_after=result.get("retry_after"))

    def _drain(self) -> None:
        self.service.begin_drain()
        server = self.server
        if hasattr(server, "begin_drain"):
            server.begin_drain()
        self._send_json(202, {"draining": True})

    def _cancel(self) -> None:
        payload = self._read_json()
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("id"), str):
            raise ServeError(400, "'id' must be a request id string")
        ok = self.service.cancel(payload["id"])
        self._send_json(200 if ok else 404,
                        {"cancelled": ok, "id": payload["id"]})

    def _client_vanished(self) -> bool:
        """True when the client closed its side of the connection.  A
        well-behaved streaming client sends nothing after its request,
        so a *readable* socket that peeks EOF means it hung up."""
        try:
            readable, _, _ = select.select([self.connection], [], [], 0)
            if not readable:
                return False
            return self.connection.recv(1, socket.MSG_PEEK) == b""
        except (OSError, ValueError):
            return True

    def _stream(self) -> None:
        handle = self.service.submit(self._read_json(), self._tenant())
        chaos = self.service.chaos
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")

        def line(event: dict) -> bytes:
            return json.dumps(event).encode("utf-8") + b"\n"

        start = {"type": "start", "id": handle.id}
        if handle.dedup:
            start["dedup"] = handle.dedup
        try:
            self._send_head(line(start))
            while True:
                try:
                    kind, payload = handle.events.get(timeout=0.25)
                except queue_mod.Empty:
                    # No event yet (possibly still *queued*, pre-
                    # dispatch): poll for a vanished client so a hung-up
                    # stream never holds its quota slot to the deadline.
                    if self._client_vanished():
                        raise BrokenPipeError from None
                    continue
                if kind == "out":
                    if chaos is not None and chaos.drop_client():
                        # Simulate the browser vanishing mid-stream.
                        try:
                            self.connection.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
                        raise BrokenPipeError
                    self.wfile.write(line({"type": "out", "text": payload}))
                else:
                    payload = dict(payload)
                    payload["id"] = handle.id
                    payload["http_status"] = payload.get("http_status") \
                        or http_status_for_exit(payload["exit_code"])
                    self.wfile.write(line({"type": "done", **payload}))
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            # The client hung up mid-stream: free its sandbox slot.
            self.service.cancel(handle.id, "client disconnected")

    # -- websocket -----------------------------------------------------
    def _websocket_session(self) -> None:
        if not ws_mod.is_upgrade(self.headers):
            raise ServeError(426, "this endpoint speaks WebSocket — "
                                  "send an Upgrade request")
        self.connection.sendall(ws_mod.handshake_response(self.headers))
        self.close_connection = True
        send = self._ws_send
        try:
            opcode, payload = ws_mod.read_frame(self.rfile)
        except ws_mod.WSError:
            return
        if opcode != ws_mod.OP_TEXT:
            send({"type": "error", "error": "expected a text frame "
                                            "with a run request"})
            return
        try:
            request = json.loads(payload.decode("utf-8"))
        except ValueError:
            send({"type": "error", "error": "run request is not JSON"})
            return
        try:
            handle = self.service.submit(request, self._tenant())
        except ServeError as exc:
            send({"type": "error", "status": exc.status,
                  "error": exc.message})
            return
        start = {"type": "start", "id": handle.id}
        if handle.dedup:
            start["dedup"] = handle.dedup
        send(start)
        try:
            self._ws_pump(handle, send)
        except (BrokenPipeError, ConnectionResetError, OSError):
            self.service.cancel(handle.id, "websocket client disconnected")

    def _ws_send(self, message: dict) -> None:
        data = json.dumps(message).encode("utf-8")
        self.connection.sendall(ws_mod.encode_frame(data))

    def _ws_pump(self, handle, send) -> None:
        """Interleave streaming run events out with watching the socket
        for a ``cancel`` message (or the client closing) coming in."""
        while True:
            readable, _, _ = select.select([self.connection], [], [], 0)
            if readable:
                try:
                    opcode, payload = ws_mod.read_frame(self.rfile)
                except ws_mod.WSError:
                    self.service.cancel(handle.id,
                                        "websocket client disconnected")
                    return
                if opcode == ws_mod.OP_CLOSE:
                    self.service.cancel(handle.id,
                                        "websocket client closed")
                    self.connection.sendall(
                        ws_mod.encode_frame(b"", ws_mod.OP_CLOSE))
                    return
                if opcode == ws_mod.OP_PING:
                    self.connection.sendall(
                        ws_mod.encode_frame(payload, ws_mod.OP_PONG))
                elif opcode == ws_mod.OP_TEXT:
                    try:
                        msg = json.loads(payload.decode("utf-8"))
                    except ValueError:
                        msg = {}
                    if msg.get("type") == "cancel":
                        self.service.cancel(handle.id,
                                            "cancelled over websocket")
            try:
                kind, payload = handle.events.get(timeout=0.05)
            except queue_mod.Empty:
                continue
            if kind == "out":
                send({"type": "out", "text": payload})
            else:
                payload = dict(payload)
                payload["id"] = handle.id
                payload["http_status"] = payload.get("http_status") \
                    or http_status_for_exit(payload["exit_code"])
                send({"type": "done", **payload})
                self.connection.sendall(
                    ws_mod.encode_frame(b"", ws_mod.OP_CLOSE))
                return


class TetraServer(ThreadingHTTPServer):
    """The listening server: one of these per ``tetra serve``."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default backlog of 5 drops the SYNs of a burst of
    # simultaneous connects, and the client retries only after 1 s.
    request_queue_size = 128

    def __init__(self, address, service: ExecutionService,
                 verbose: bool = False):
        super().__init__(address, TetraServeHandler)
        self.service = service
        self.verbose = verbose
        self._drain_watcher: threading.Thread | None = None

    def begin_drain(self) -> None:
        """Stop the accept loop once the service's drain completes.

        The listener stays up through the drain so ``/healthz`` keeps
        answering 503-draining (load balancers need it) and in-flight
        streams finish; idempotent.
        """
        if self._drain_watcher is not None:
            return
        self.service.begin_drain()

        def _watch():
            self.service.drained.wait()
            self.shutdown()

        self._drain_watcher = threading.Thread(
            target=_watch, name="tetra-serve-drain-watch", daemon=True)
        self._drain_watcher.start()


def serve(config=None, verbose: bool = False,
          ready=None) -> int:  # pragma: no cover - CLI loop (tests
    """Run the service until SIGINT.      drive TetraServer directly)

    SIGINT stops immediately (the operator's Ctrl-C); SIGTERM (what
    ``kill`` and process supervisors send) triggers a **graceful
    drain**: admissions stop, ``/healthz`` turns 503-draining, in-flight
    runs finish up to ``config.drain_grace`` seconds, the result cache
    is persisted, and the process exits 0.

    ``ready`` is an optional callback receiving the bound (host, port) —
    the CI smoke test uses it to learn an ephemeral port.
    """
    from .protocol import ServeConfig

    import signal

    config = config or ServeConfig()
    service = ExecutionService(config)
    server = TetraServer((config.host, config.port), service, verbose)
    host, port = server.server_address[:2]
    if ready is not None:
        ready((host, port))

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    def _drain(signum, frame):
        print("tetra serve: draining (SIGTERM) — finishing in-flight "
              f"runs, up to {config.drain_grace:g}s", file=sys.stderr)
        server.begin_drain()

    # A server launched from a script often arrives with SIGINT *ignored*
    # (`cmd &` in a non-interactive shell), which Python inherits — a
    # plain `kill -INT` would then be a silent no-op and the process
    # would outlive its operator.  Re-arm it; SIGTERM gets the graceful
    # drain instead of an abrupt stop.
    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _drain)
    print(f"tetra serve: listening on http://{host}:{port} "
          f"({config.workers} sandbox workers, "
          f"{config.rate:g} req/s per tenant)", file=sys.stderr)
    if service.chaos is not None:
        print(f"tetra serve: CHAOS armed "
              f"(seed {service.chaos.seed}) — do not use in production",
              file=sys.stderr)
    try:
        server.serve_forever(poll_interval=0.2)
        print("tetra serve: drained, exiting", file=sys.stderr)
    except KeyboardInterrupt:
        print("\ntetra serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
        service.shutdown()
    return 0
