"""Shared stdlib HTTP plumbing for the serving and metrics frontends.

The ``repro metrics --serve`` endpoint and the ``repro serve`` API both
need the same small server: route a handful of paths to handlers, speak
JSON (or Prometheus text), refuse oversized bodies, and shut down
cleanly on SIGINT/SIGTERM.  :class:`JsonHttpServer` packages that once,
on nothing but ``http.server`` — no third-party web stack.

A route is ``(method, compiled path regex, handler)``.  Handlers receive
the regex match and the decoded JSON body (``None`` for GET) and return
``(status, payload)`` or ``(status, payload, extra_headers)``; dict/list
payloads are JSON-encoded, strings pass through (used for the Prometheus
exposition).  A handler that declares a third parameter additionally
receives the parsed query string as ``{name: last value}`` (the telemetry
``/query`` endpoint reads ``?series=…&window=…`` this way; two-parameter
handlers never see query strings, so existing routes are untouched).
Handler exceptions become a 500 JSON error instead of a stack trace over
the socket.

The server binds ``port=0`` for an ephemeral port (tests, the ``--quick``
self-test), runs in the background via :meth:`start` or in the foreground
via :meth:`serve_forever`, which installs graceful signal handlers —
in-flight requests finish, the listener closes, handlers are restored.
"""

from __future__ import annotations

import inspect
import json
import re
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs

from repro.errors import ServingError

__all__ = [
    "JSON_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "JsonHttpServer",
    "Route",
]

JSON_CONTENT_TYPE = "application/json; charset=utf-8"
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``(method, path pattern, handler(match, body) -> (status, payload[, headers]))``
Route = tuple[str, re.Pattern, Callable]

#: Default ceiling on request bodies: far above any sane submit payload,
#: far below anything that could exhaust memory.
DEFAULT_MAX_BODY_BYTES = 1 << 20


def _sanitize(obj):
    """JSON-safe copy: non-finite floats become ``None`` (strict JSON has
    no NaN/Infinity, and clients should not have to parse them)."""
    if isinstance(obj, float):
        return obj if obj == obj and abs(obj) != float("inf") else None
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    return obj


def _wants_query(handler: Callable) -> bool:
    """Whether a route handler declares the third (query dict) parameter.

    Resolved once at server construction, so dispatch stays a plain
    positional call either way.  Unintrospectable callables (C-level,
    exotic partials) default to the classic two-parameter contract.
    """
    try:
        parameters = inspect.signature(handler).parameters.values()
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return False
    positional = [
        p
        for p in parameters
        if p.kind
        in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
    ]
    if any(
        p.kind == inspect.Parameter.VAR_POSITIONAL for p in parameters
    ):
        return True
    return len(positional) >= 3


class JsonHttpServer:
    """A small routed JSON/text HTTP server on the stdlib only."""

    def __init__(
        self,
        routes: list[Route],
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        quiet: bool = True,
    ) -> None:
        if max_body_bytes <= 0:
            raise ServingError("max_body_bytes must be positive")
        self.routes = list(routes)
        self.max_body_bytes = max_body_bytes
        self._route_wants_query = [
            _wants_query(handler) for _method, _pattern, handler in self.routes
        ]
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):  # noqa: D102 - stdlib hook
                if not quiet:  # pragma: no cover - manual debugging aid
                    BaseHTTPRequestHandler.log_message(self, *args)

            def _reply(self, status, payload, headers=None):
                if isinstance(payload, (dict, list)):
                    body = json.dumps(
                        _sanitize(payload), sort_keys=True
                    ).encode("utf-8")
                    content_type = JSON_CONTENT_TYPE
                elif isinstance(payload, str):
                    body = payload.encode("utf-8")
                    content_type = (headers or {}).pop(
                        "Content-Type", PROMETHEUS_CONTENT_TYPE
                    )
                else:
                    body = bytes(payload)
                    content_type = (headers or {}).pop(
                        "Content-Type", "application/octet-stream"
                    )
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, str(value))
                self.end_headers()
                self.wfile.write(body)

            def _read_body(self):
                length = self.headers.get("Content-Length")
                if length is None:
                    return None, (411, {"error": "Content-Length required"})
                try:
                    length = int(length)
                except ValueError:
                    return None, (400, {"error": "bad Content-Length"})
                if length > outer.max_body_bytes:
                    return None, (
                        413,
                        {
                            "error": "request body too large",
                            "max_body_bytes": outer.max_body_bytes,
                        },
                    )
                raw = self.rfile.read(length)
                if not raw:
                    return {}, None
                try:
                    return json.loads(raw.decode("utf-8")), None
                except (ValueError, UnicodeDecodeError):
                    return None, (400, {"error": "body is not valid JSON"})

            def _dispatch(self, method):
                path, _, query_string = self.path.partition("?")
                for index, (route_method, pattern, handler) in enumerate(
                    outer.routes
                ):
                    if route_method != method:
                        continue
                    match = pattern.match(path)
                    if match is None:
                        continue
                    body = None
                    if method == "POST":
                        body, error = self._read_body()
                        if error is not None:
                            self._reply(*error)
                            return
                    args = [match, body]
                    if outer._route_wants_query[index]:
                        args.append(
                            {
                                name: values[-1]
                                for name, values in parse_qs(
                                    query_string, keep_blank_values=True
                                ).items()
                            }
                        )
                    try:
                        result = handler(*args)
                    except Exception as exc:  # never leak a traceback
                        self._reply(
                            500,
                            {"error": f"{type(exc).__name__}: {exc}"},
                        )
                        return
                    self._reply(*result)
                    return
                self._reply(404, {"error": f"no route for {method} {path}"})

            def do_GET(self):
                self._dispatch("GET")

            def do_POST(self):
                self._dispatch("POST")

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one, when constructed with 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "JsonHttpServer":
        """Serve from a daemon background thread (tests, self-tests)."""
        if self._thread is not None:
            raise ServingError("server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def _shutdown(self) -> None:
        """``shutdown()`` plus a wake-up connection for a blocked accept.

        ``socketserver.shutdown()`` only sets a flag the serve loop checks
        between selector polls.  If the loop is already *inside* a
        blocking ``accept()`` — the selector can report the listener
        ready for a connection that is gone by the time ``accept()`` runs
        — the flag is never re-checked and shutdown deadlocks.  A no-op
        connection unblocks the ``accept()`` so the loop comes back
        around to the flag.
        """

        def wake():  # pragma: no cover - only fires on the accept race
            try:
                with socket.create_connection(
                    (self.host, self.port), timeout=1.0
                ):
                    pass
            except OSError:
                pass

        kicker = threading.Thread(target=wake, daemon=True)
        kicker.start()
        self._server.shutdown()
        kicker.join(timeout=2.0)

    def serve_forever(
        self,
        install_signal_handlers: bool = True,
        on_signal: Callable[[], None] | None = None,
    ) -> None:
        """Serve in the foreground until SIGINT/SIGTERM or Ctrl-C.

        ``on_signal`` — when given — runs *before* the listener shuts
        down: the graceful-drain hook (``repro serve`` stops admission
        and flushes in-flight requests there).  ``shutdown()`` must run
        off the serving thread, so the signal handler hands both to a
        helper thread; previous handlers are restored on exit.

        Refuses to run after :meth:`start`: two serve loops on one
        listener race on shutdown — socketserver's exiting loop resets
        the shutdown flag before the other loop checks it, and the
        survivor serves forever.
        """
        if self._thread is not None:
            raise ServingError(
                "serve_forever() after start(): already serving in the "
                "background"
            )
        previous = {}

        def drain_then_shutdown():  # pragma: no cover - signal path
            if on_signal is not None:
                try:
                    on_signal()
                except Exception:
                    pass  # drain best-effort; the listener must still close
            self._shutdown()

        def request_shutdown(_signum, _frame):  # pragma: no cover - signals
            threading.Thread(target=drain_then_shutdown).start()

        if install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous[signum] = signal.signal(
                        signum, request_shutdown
                    )
                except ValueError:  # pragma: no cover - non-main thread
                    pass
        try:
            self._server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - manual
            pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._server.server_close()

    def close(self) -> None:
        """Stop serving and release the listener (idempotent)."""
        if self._thread is not None:
            self._shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "JsonHttpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
