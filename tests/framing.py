"""Framed wire replies written by hand, for tests that serve faults.

A test writes a reply as the JSON it means, with each ARRAY as
`wire(values)`: `{"shape": [...], "data": <float64 bytes>}`.  `frame`
moves each `data` to the end of the binary tail, in header order, and
leaves its entry `{"shape": [...]}`.  `framed_handler` serves such replies
through the loopback's handler.  `ThroughLogprobs` scores a remote backend
over /v1/logprobs, which the engine no longer asks for on its own.
"""

from __future__ import annotations

import json
import math

import numpy as np

from genret import ScorerBackend
from genret.backends.loopback import _Handler
from genret.backends.remote import HEADER_LENGTH


def wire(values, shape=None, data=None) -> dict:
    """The unframed ARRAY of `values`: their shape unless `shape` overrides
    it, and their little-endian float64 bytes, or `data` in their place."""
    array = np.asarray(values, dtype="<f8")
    return {
        "shape": list(array.shape) if shape is None else shape,
        "data": array.tobytes() if data is None else data,
    }


def frame(reply) -> tuple[dict, bytes]:
    """`reply` as a framed header and its tail."""
    tail = bytearray()

    def walk(value):
        if isinstance(value, list):
            return [walk(v) for v in value]
        if not isinstance(value, dict):
            return value
        if isinstance(value.get("data"), bytes):
            entry = dict(value)
            tail.extend(entry.pop("data"))
            return entry
        return {k: walk(v) for k, v in value.items()}

    return walk(reply), bytes(tail)


def unframe(resp) -> tuple[dict, bytes]:
    """A framed `requests` response's header, parsed, and its tail."""
    length = int(resp.headers[HEADER_LENGTH])
    return json.loads(resp.content[:length]), resp.content[length:]


def arrays(tail: bytes, entries) -> list[list[int]]:
    """The float64 bit patterns of each ARRAY entry of `entries`, which
    hold every ARRAY of the reply, in header order."""
    out, start = [], 0
    for entry in entries:
        end = start + 8 * math.prod(entry["shape"])
        out.append(np.frombuffer(tail[start:end], "<u8").tolist())
        start = end
    return out


def framed_handler(respond):
    """A handler answering every POST with `respond(request)`: a reply,
    framed here with its request_id echoed, or a reply framed by hand as
    (header text or bytes, tail, the header length to send, None for no
    length header)."""

    class Handler(_Handler):
        def do_POST(self):
            request = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            out = respond(request)
            if isinstance(out, dict):
                header, tail = frame({"request_id": request["request_id"], **out})
                text = json.dumps(header)
                out = text, tail, len(text.encode("utf-8"))
            head, tail, header_length = out
            if isinstance(head, str):
                head = head.encode("utf-8")
            self._send(200, head + tail, header_length)

    return Handler


class ThroughLogprobs(ScorerBackend):
    """`remote` reached through `next_token_distributions` alone, as a
    tracing proxy reaches it, so the base class's adapter scores it from
    /v1/logprobs replies."""

    def __init__(self, remote):
        self._remote = remote
        self.capabilities = remote.capabilities

    def next_token_distributions(self, image_id, region, prefixes):
        return self._remote.next_token_distributions(image_id, region, prefixes)
