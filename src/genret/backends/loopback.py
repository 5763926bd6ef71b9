"""In-process HTTP test double serving any ScorerBackend over the wire.

Not a production server: it exists so the remote client can be exercised
end-to-end against a local backend without leaving the process.  Runs a
threaded stdlib HTTP server on an ephemeral localhost port and speaks the
wire protocol documented in remote.py.  Each /v1/score request is one
`score_sentences` call with all of its sentences (the oracle's trie walk,
or the base class's adapter for a backend that serves only distributions).
Each /v1/logprobs request is one `next_token_distributions` call with all
of its prefixes.  Each /v1/embed request that names an image_id is one
`embed_batch` call with all of its sentences (an image-only request is a
call with none, whose `texts` has shape [0, d], d the image's length); a
request naming no image embeds each sentence in `texts` with `embed_text`.

A 200 reply is framed: a JSON header, its byte length in the
`Genret-Header-Length` response header, then a binary tail holding each
ARRAY's little-endian float64 bytes, exact for every value, back to back in
header order.  A /v1/score reply frames `p` and `total` as the backend
answered them, once they pass `position_pair`; when the backend has a
terminal token and the request's `terminal` is false, each sentence's last
entry is left out.  A request whose `terminal` is true, to a backend with
no terminal token, gets 400 naming the backend.  A backend may serve one
object for many prefixes (the oracle keeps one per trie node), so a
/v1/logprobs reply lists each distinct object once, keyed by `id` while the
call's list holds them all, and each query's result is its index in that
list.  Every other reply is plain JSON, `{"error": ...}`.

Malformed fields (a region that is neither null nor 4 finite numbers, a
query that is not an object, a prefix, `sentences` or `texts` entry that is
not a list of strings, a `terminal` that is not true or false) and requests
the backend cannot serve (an embed request to a backend without a
contrastive side, a terminal asked of one without a terminal token, or a
token outside its vocabulary, among them) get 400, and so does a
Content-Length that is not an int >= 0, before any of the body is read.  A
fault of the backend itself gets 500, the message naming it: any other
exception it raises, and any answer the engine would reject by base.py's
answer rule (`check_served`, `position_pair`, `array_pair`,
`stacked_rows`), checked by the same functions; such a 500 carries
`"retry": false`, since the same request gets the same answer.  What
passes is framed as it is, with terminal_p as a float, so the client
scores what the engine would in process.

The server speaks HTTP/1.1, so a client keeps a connection open for its
next request (a `requests.Session` one per thread that posts through it),
and the server serves each connection in a thread of its own.  Every
reply other than a 200 carries `Connection: close`, so a request body left
unread by an error path is never parsed as the next request.  `stop()`
closes the connections still open once each answers the request it is
serving, and returns when every handler thread has ended.

    with LoopbackServer(backend) as url:
        remote = RemoteBackend(url, capabilities=backend.capabilities)
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import repeat

import numpy as np

from ..core import checked_region
from ..errors import ConfigurationError, GenretError, NormalizationError, SchemaError
from .base import (
    array_pair, check_served, position_pair, sentence_ends, served_distributions, stacked_rows
)
from .remote import HEADER_LENGTH


class _Frame:
    """A framed reply being built: the binary tail that holds its header's
    ARRAYs, filled in header order."""

    def __init__(self):
        self._chunks: list[bytes] = []

    def array(self, array: np.ndarray) -> dict:
        """The ARRAY entry of `array`, a checked float64 array, whose
        little-endian bytes in C order go at the end of the tail."""
        self._chunks.append(array.astype("<f8", copy=False).tobytes())
        return {"shape": list(array.shape)}

    def body(self, header: dict) -> tuple[bytes, int]:
        """The reply body, `header` as JSON and then the tail, and the
        header's byte length."""
        head = json.dumps(header).encode("utf-8")
        return b"".join([head, *self._chunks]), len(head)


def _logprobs_reply(request_id, prefixes: list, dists: list) -> tuple[bytes, int]:
    """The framed /v1/logprobs reply: each distinct object of `dists` once,
    checked at the first of `prefixes` it answers, and each query's index
    into them.  `dists` holds every object, so no id is reused meanwhile."""
    frame = _Frame()
    index: dict[int, int] = {}
    distributions, results = [], []
    for prefix, dist in zip(prefixes, dists):
        i = index.get(id(dist))
        if i is None:
            check_served(dist, prefix)
            i = index[id(dist)] = len(distributions)
            probs = np.array(list(dist.probs.values()), dtype=float)
            entry = {"tokens": list(dist.probs), "probs": frame.array(probs)}
            if dist.terminal_p is not None:
                entry["terminal_p"] = float(dist.terminal_p)
            distributions.append(entry)
        results.append(i)
    header = {"request_id": request_id, "distributions": distributions, "results": results}
    return frame.body(header)


def _score_reply(backend, request_id, image_id, region, sentences, terminal) -> tuple[bytes, int]:
    """The framed /v1/score reply: the backend's p and total for
    `sentences`, without each sentence's terminal entry unless `terminal`."""
    has_terminal = backend.capabilities.has_terminal_token
    if terminal and not has_terminal:
        # a request this backend cannot serve, as an embed request to a
        # backend without a contrastive side is: 400, not retried
        raise ConfigurationError(
            f"{type(backend).__name__} has no terminal token, and the request asks for one"
        )
    ends = sentence_ends(sentences, has_terminal)
    p, total = position_pair(backend.score_sentences(image_id, region, sentences), ends)
    if has_terminal and not terminal:
        last = [end - 1 for end in ends]  # int indices, none for no sentences
        p, total = np.delete(p, last), np.delete(total, last)
    frame = _Frame()
    return frame.body({"request_id": request_id, "p": frame.array(p), "total": frame.array(total)})


def _embed_reply(backend, request_id, image_id, region, sentences) -> tuple[bytes, int]:
    """The framed /v1/embed reply: the image's vector when the request names
    an image_id, and one row per sentence."""
    if image_id is None and not sentences:
        raise ValueError("an embed request needs an image_id or texts")
    frame = _Frame()
    header = {"request_id": request_id}
    if image_id is not None:
        image, texts = array_pair(
            backend.embed_batch(image_id, region, sentences), ("image", "texts"),
            (("d",), (len(sentences), "d")),
        )
        header["image"] = frame.array(image)
    else:
        texts = stacked_rows([backend.embed_text(s) for s in sentences])
    header["texts"] = frame.array(texts)
    return frame.body(header)


def _token_lists(value, what: str) -> list[tuple[str, ...]]:
    """A request's list of token lists (prefixes or texts), as tuples."""
    if isinstance(value, list) and all(
        isinstance(tokens, list) and all(map(isinstance, tokens, repeat(str))) for tokens in value
    ):
        return list(map(tuple, value))
    raise TypeError(f"{what} must be a list of token lists")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; with Nagle's algorithm on, the
    # body waits for the client's delayed ACK of the headers (about 40 ms)
    disable_nagle_algorithm = True

    def log_message(self, *args):  # keep test output clean
        pass

    def _reply(self, status: int, payload: dict):
        """A plain JSON reply, as every reply but a framed 200 is."""
        self._send(status, json.dumps(payload).encode("utf-8"))

    def _send(self, status: int, body: bytes, header_length: int | None = None):
        """Send `body`; a framed one names its header's byte length."""
        self.send_response(status)
        if header_length is None:
            self.send_header("Content-Type", "application/json")
        else:
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header(HEADER_LENGTH, str(header_length))
        self.send_header("Content-Length", str(len(body)))
        # an error path may leave the request body unread in the socket, and
        # a stopping server takes no further request
        if status != 200 or self.server.closing:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                # rfile.read(-1) would wait for the client to close
                raise ValueError(f"Content-Length of {length}")
            request = json.loads(self.rfile.read(length))
            request_id = request.get("request_id")
            image_id = request.get("image_id")
            region = checked_region(request.get("region"))
            queries = request.get("queries", [])
            if not isinstance(queries, list) or not all(isinstance(q, dict) for q in queries):
                raise TypeError("queries must be a list of objects")
            prefixes = _token_lists([q.get("prefix") for q in queries], "query prefixes")
            sentences = _token_lists(request.get("sentences", []), "sentences")
            texts = _token_lists(request.get("texts", []), "texts")
            terminal = request.get("terminal", False)
            if terminal is not True and terminal is not False:  # JSON 1 is no flag
                raise TypeError("terminal must be true or false")
        except (AttributeError, TypeError, ValueError, SchemaError) as exc:
            self._reply(400, {"error": f"malformed request: {exc}"})
            return
        if self.path not in ("/v1/score", "/v1/logprobs", "/v1/embed"):
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        backend = self.server.backend  # type: ignore[attr-defined]
        try:
            if self.path == "/v1/score":
                body, header_length = _score_reply(
                    backend, request_id, image_id, region, sentences, terminal
                )
            elif self.path == "/v1/logprobs":
                dists = served_distributions(backend, image_id, region, prefixes)
                body, header_length = _logprobs_reply(request_id, prefixes, dists)
            else:
                body, header_length = _embed_reply(backend, request_id, image_id, region, texts)
        except NormalizationError as exc:
            # base.py's checks of what the backend answered: asking again
            # gets the same answer
            self._reply(500, {"error": str(exc), "retry": False})
        except (GenretError, ValueError, TypeError) as exc:
            # the backend rejected what the request asked for
            self._reply(400, {"error": str(exc)})
        except Exception as exc:
            # answer rather than drop the connection, which reads as transient
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send(200, body, header_length)


class _Server(ThreadingHTTPServer):
    """A ThreadingHTTPServer that knows the connections it holds open and
    the thread serving each, so that close_connections can end them."""

    def __init__(self, handler, backend):
        super().__init__(("127.0.0.1", 0), handler)
        self.backend = backend
        self.closing = False
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()

    def process_request(self, request, client_address):
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request):
        with self._lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection and wait for its thread.  A handler
        waiting for a request reads end of file; one serving a request, or
        one a request reached first (Linux still delivers bytes that arrive
        after the read side is shut), answers it with `Connection: close`."""
        self.closing = True
        with self._lock:
            connections = dict(self._connections)
        for connection in connections:
            with suppress(OSError):  # the client already went away
                connection.shutdown(socket.SHUT_RD)
        for thread in connections.values():
            thread.join()


class LoopbackServer:
    def __init__(self, backend, handler=_Handler):
        self._backend = backend
        self._handler = handler
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None
        self.url: str | None = None

    def start(self) -> str:
        self._server = _Server(self._handler, self._backend)
        self._thread = threading.Thread(target=self._serve, args=(self._server,), daemon=True)
        self._thread.start()
        host, port = self._server.server_address[:2]
        self.url = f"http://{host}:{port}"
        return self.url

    def _serve(self, server: _Server) -> None:
        # handle_request sleeps in select until a connection arrives, so an
        # idle server costs no CPU; stop() wakes it with a connection of its own
        while self._server is server:
            server.handle_request()

    def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            socket.create_connection(server.server_address[:2]).close()
            self._thread.join()
            # no connection is accepted now; end the kept-alive ones, whose
            # daemon threads would otherwise serve on
            server.close_connections()
            server.server_close()

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
