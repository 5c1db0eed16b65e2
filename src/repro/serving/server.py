"""The HTTP layer of ``repro serve``: sockets in, JSON out.

:class:`ReproServer` binds a :class:`http.server.ThreadingHTTPServer`
(one thread per connection, stdlib only -- the repo vendors nothing)
whose handler translates requests into
:meth:`~repro.serving.app.ServingApp.handle` calls.  All decisions --
routing, admission, locking, lifecycle -- live in the app; this module
only parses HTTP and writes responses, plus the two pieces of
lifecycle glue that genuinely belong at the socket layer:

* after the **drain** response is written, the app's ``on_drained``
  callback fires and the listener shuts down, so
  :meth:`ReproServer.wait` (and the ``repro serve`` process) returns;
* responses always carry ``Content-Length`` and the server speaks
  HTTP/1.1 keep-alive, so benchmark clients can reuse connections.

The client identity for per-client admission limits is the
``X-Repro-Client`` header when present, else the peer address.
"""

import http.server
import json
import threading
import urllib.parse

from repro.serving.app import ServingApp, load_serving_system

#: Header naming the admission-control client identity.
CLIENT_HEADER = "X-Repro-Client"

#: Debug-only header: hold the admitted slot for N seconds (honored
#: only when the app was built with ``debug=True``; tests use it to
#: fill the admission window deterministically).
TEST_DELAY_HEADER = "X-Repro-Test-Delay"

#: Cap on request bodies (64 MiB): a malformed or malicious
#: Content-Length must not make the handler allocate unbounded memory.
MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(http.server.BaseHTTPRequestHandler):
    """One connection; delegates everything to the bound app."""

    app = None  # bound by ReproServer via a subclass attribute
    protocol_version = "HTTP/1.1"
    timeout = 60

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr chatter; /metrics is the log."""

    def _client_id(self):
        header = self.headers.get(CLIENT_HEADER)
        if header:
            return header.strip()
        return self.client_address[0]

    def _read_body(self):
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                raise ValueError(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
        except ValueError:
            # The body stays unread on the socket: a keep-alive
            # connection would parse the next request out of its bytes.
            self.close_connection = True
            raise
        if length <= 0:
            return None
        raw = self.rfile.read(length)
        if not raw:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except RecursionError:
            self.close_connection = True
            raise ValueError("the JSON body nests too deeply") from None

    def _serve(self, method):
        split = urllib.parse.urlsplit(self.path)
        params = dict(urllib.parse.parse_qsl(split.query))
        try:
            body = self._read_body()
        except (ValueError, UnicodeDecodeError) as error:
            self._write(
                400, json.dumps({"error": f"bad request body: {error}"})
                .encode("utf-8"), "application/json",
                {"Connection": "close"} if self.close_connection else {},
            )
            return
        response = self.app.handle(
            method, split.path, body=body, client=self._client_id(),
            params=params,
            test_delay=self.headers.get(TEST_DELAY_HEADER),
        )
        data, content_type = response.body()
        self._write(response.status, data, content_type, response.headers)
        if self.app.state == "drained" and self.app.on_drained is not None:
            # The drain response is on the wire; stop the listener.
            # (Idempotent: on_drained disarms itself on first call.)
            callback, self.app.on_drained = self.app.on_drained, None
            self.close_connection = True
            callback()

    def _write(self, status, data, content_type, headers):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            if name.lower() == "connection":
                self.close_connection = True
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    # -- verbs ----------------------------------------------------------------

    def do_GET(self):
        self._serve("GET")

    def do_POST(self):
        self._serve("POST")


class ReproServer:
    """One listening server over a :class:`ServingApp`."""

    def __init__(self, app, host="127.0.0.1", port=0):
        self.app = app
        handler = type("BoundHandler", (_Handler,), {"app": app})
        self.httpd = http.server.ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread = None
        app.on_drained = self._shutdown_async

    # -- addresses ------------------------------------------------------------

    @property
    def host(self):
        return self.httpd.server_address[0]

    @property
    def port(self):
        return self.httpd.server_address[1]

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Serve in a background thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def wait(self, timeout=None):
        """Block until the listener stops (drain or :meth:`stop`).

        Returns ``True`` when it stopped, ``False`` on timeout.
        """
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def _shutdown_async(self):
        """Stop the listener from outside its own handler thread
        (``shutdown()`` deadlocks when called from one)."""
        threading.Thread(
            target=self._shutdown, name="repro-serve-shutdown", daemon=True
        ).start()

    def _shutdown(self):
        self.httpd.shutdown()
        self.httpd.server_close()

    def stop(self):
        """Hard stop: close the listener without draining.

        In-flight handler threads are daemons; the served system is
        untouched (anything acknowledged is already in the WAL).
        """
        self._shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)

    # -- context manager ------------------------------------------------------

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False

    def __repr__(self):
        return f"ReproServer({self.url}, app={self.app!r})"


def start_server(snapshot_path, host="127.0.0.1", port=0, **app_options):
    """Load ``snapshot_path`` and serve it; returns a started server.

    The one-call form the tests, benchmarks, and examples use::

        server = start_server("collection.snapshot")
        ... ServingClient(server.host, server.port) ...
        server.stop()   # or drain via the admin endpoint
    """
    app = ServingApp(
        load_serving_system(snapshot_path), snapshot_path, **app_options
    )
    return ReproServer(app, host=host, port=port).start()
