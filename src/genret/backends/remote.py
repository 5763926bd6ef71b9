"""HTTP client for remote scorer services.

Wire protocol, all POST, JSON request bodies:

    /v1/score     {request_id, image_id, region?, sentences: [[tok, ...], ...],
                   terminal: bool}
        -> {request_id, p: ARRAY, total: ARRAY}
    /v1/logprobs  {request_id, image_id, region?, queries: [{prefix: [tok, ...]}]}
        -> {request_id, distributions: [{tokens: [tok, ...], probs: ARRAY,
                                         terminal_p?: number}, ...],
            results: [i, ...]}
    /v1/embed     {request_id, image_id?, region?, texts: [[tok, ...], ...]}
        -> {request_id, image?: ARRAY, texts: ARRAY}

A 200 reply is framed, in the manner of the KServe v2 binary tensor
extension: its body is the reply above as a UTF-8 JSON header, then a
binary tail, and the `Genret-Header-Length` response header gives the
header's byte length.  An ARRAY in the header is {shape: [dim, ...]}, and
its values are 8 * prod(shape) little-endian float64 bytes in C order, so
every value, NaN, the infinities, -0.0 and subnormals included, crosses
exactly.  The arrays' bytes sit back to back in the tail in header order
(a /v1/score reply's p, then its total; an embed reply's image, then its
texts; a /v1/logprobs reply's distributions in order), and the last ends
with the body.  Every other reply (an error, a 4xx or a 5xx) is plain
JSON.

A /v1/score reply is `score_sentences`' answer for the sentences: `p` and
`total` (shape [n] each) hold the realized token's probability and the
position's total mass at every position of every sentence in order, and
with `terminal` true each sentence's end-of-sentence entry after its last
token, so n = sum(len(s) + terminal).  `terminal` is the client's
has_terminal_token; a server whose model has an end-of-sentence token
leaves that entry out when the request says false (each position's total
still counts its mass), and one whose model has none answers true with a
400.

A /v1/logprobs reply lists distributions, and `results[j]` is the index in
`distributions` of query j's.  A server that serves one distribution for
many prefixes may list it once (the loopback server does); one that shares
nothing lists one per query.  Each distribution's `probs` (shape [n]) holds
the probability of `tokens[k]` at k, and `terminal_p`, when present, is the
end-of-sentence probability.  In an embed reply, `image` (shape [d]) is
present exactly when the request names an image_id, and `texts` (shape
[n, d]) holds one row per requested sentence, in order, so an image-only
request gets shape [0, d]; a request must ask for at least one of the two.

Only identifiers cross the wire; the server owns pixel storage.  Requests
are idempotent queries, so transient failures (connection errors, timeouts,
5xx) retry with exponential backoff up to `max_retries`.  A 5xx whose JSON
body carries `"retry": false` is a fault the same request meets again (the
loopback server marks so its backend's answers that fail base.py's answer
rule), and is not retried.  Non-retryable statuses, malformed replies and
request_id mismatches raise TransportError carrying the raw body, or a
framed reply's header text.  A framed reply is malformed when its header
length is missing, not an int >= 0 or past the body, or its header is not
a JSON object.

The client checks types and the engine checks values.  An ARRAY is well
formed when its shape is a list of ints >= 0 of the expected rank and the
tail holds its 8 bytes per value where the array before it ends (at 0 for
the first); it then holds float64s by construction.  Any other key of an
ARRAY is ignored.  No byte of the tail may follow the last array.  An embed
reply's shapes must match the sentences asked for, with non-empty vectors.
A /v1/score reply's `p` and `total` must have rank 1; the engine checks
their sizes against the positions it asked for, and their values.  In a
/v1/logprobs reply, `distributions` is a list, each entry's `tokens` a
list of distinct strings and its `probs` an ARRAY of shape [len(tokens)]
([0] for an empty distribution), each `terminal_p` passes core's wire
rule, `non_numbers` (a float, NaN and the infinities included, or an int
inside the float range), and `results` holds one int index (not a bool)
into `distributions` per query.  Anything else makes the reply malformed.
The scoring engine checks that each position's total and each
distribution sums to one and each embedding has unit norm, which NaN and
the infinities fail too.

The client is batch-first.  The engine's one `score_sentences` call per
instance is one /v1/score request with every sentence, whose two arrays
are returned as read, both writable; the server shares the work of common
prefixes, so no distribution crosses the wire.  `next_token_distributions`
is one /v1/logprobs request for many prefixes; each listed distribution
becomes one TokenDistribution, so one served for many prefixes is one
object, which the base class's adapter checks once.  It stays while it is
the abstract method: a proxy that forwards only it scores a remote backend
through the adapter, over /v1/logprobs.  One /v1/embed call embeds an
instance's image and all of its sentences (`embed_batch`), decoded into a
vector and one (n, d) array, both writable.  `embed_image` and `embed_text`
are single-item requests.  The caller's threads (batch_rank's
`parallelism`) bound requests in flight.

The client speaks HTTP/1.1 through one `requests.Session`, which keeps its
connections open for the next request and opens one only when every open
one is busy, so a batch uses one per thread that posts; the session and its
connections close when the backend is collected.  A server may close a connection after any reply
(the loopback server does after each non-200); the session then opens a new
one for the next request.

The endpoint is fixed, so what `requests` would read from the environment
for every request (the proxies, `NO_PROXY` honoured, the CA bundle, and
netrc auth) is read once, when the RemoteBackend is built.

`requests` is imported when a RemoteBackend is built, so a command that
never builds one does not pay for importing it.
"""

from __future__ import annotations

import json
import math
import time
import uuid
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core import check_parameter, is_int, non_numbers
from ..errors import TransportError
from .base import Capabilities, ScorerBackend, TokenDistribution

if TYPE_CHECKING:
    import requests

# the response header giving the byte length of a framed reply's JSON header
HEADER_LENGTH = "Genret-Header-Length"


class RemoteBackend(ScorerBackend):
    """The scorer behind `endpoint`, over the wire protocol above.

    `session` (a new `requests.Session` if None) carries every request.
    Its environment settings are resolved for the endpoint here, once: the
    proxies, with `NO_PROXY` honoured, and the CA bundle, merged with the
    session's own, and netrc auth when the session has no `auth`.  Then its
    `trust_env` is set to False, so a caller's session stops reading the
    environment too, and every request passes the resolved settings.
    """

    def __init__(
        self,
        endpoint: str,
        capabilities: Capabilities = Capabilities(),
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff: float = 0.25,
        session: requests.Session | None = None,
    ):
        import requests

        check_parameter("timeout", timeout, "a finite number > 0")
        check_parameter("max_retries", max_retries, "an int >= 0")
        check_parameter("backoff", backoff, "a finite number >= 0")
        self.endpoint = endpoint.rstrip("/")
        self.capabilities = capabilities
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._session = session = session or requests.Session()
        self._settings = session.merge_environment_settings(self.endpoint, {}, None, None, None)
        if session.trust_env and not session.auth:
            self._settings["auth"] = requests.utils.get_netrc_auth(self.endpoint)
        session.trust_env = False

    # -- transport -----------------------------------------------------

    def _post(self, path: str, payload: dict) -> tuple[dict, _Tail]:
        """POST `payload`, retrying transient failures; the framed reply's
        header, a JSON object echoing the request_id, and its tail."""
        import requests  # already imported by __init__

        url = f"{self.endpoint}{path}"
        delay = self.backoff
        last_error = last_status = last_body = None
        for attempt in range(self.max_retries + 1):
            try:
                resp = self._session.post(
                    url, json=payload, timeout=self.timeout, **self._settings
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                if resp.status_code >= 500 and not _permanent(resp.text):
                    last_error = f"server error {resp.status_code}"
                    last_status, last_body = resp.status_code, resp.text
                elif resp.status_code != 200:
                    raise TransportError(
                        f"{url} returned {resp.status_code}",
                        status=resp.status_code,
                        body=resp.text,
                    )
                else:
                    return _unframe(url, resp, payload["request_id"])
            if attempt < self.max_retries:
                time.sleep(delay)
                delay *= 2
        raise TransportError(
            f"{url} failed after {self.max_retries + 1} attempts: {last_error}",
            status=last_status,
            body=last_body,
        )

    # -- generative ----------------------------------------------------

    def score_sentences(self, image_id, region, sentences) -> tuple[np.ndarray, np.ndarray]:
        """One /v1/score request: the p and total arrays the server framed,
        for the engine to judge."""
        payload = {
            "request_id": uuid.uuid4().hex,
            "image_id": image_id,
            "sentences": [list(s) for s in sentences],
            "terminal": bool(self.capabilities.has_terminal_token),
        }
        if region is not None:
            payload["region"] = list(region)
        data, tail = self._post("/v1/score", payload)
        try:
            p = tail.array(data.get("p"), "p", 1, min_width=0)
            total = tail.array(data.get("total"), "total", 1, min_width=0)
            tail.end()
        except ValueError as exc:
            raise TransportError(f"score response has {exc}", body=str(data)[:2000]) from None
        return p, total

    def next_token_distributions(
        self, image_id, region, prefixes: Sequence[tuple[str, ...]]
    ) -> list[TokenDistribution]:
        payload = {
            "request_id": uuid.uuid4().hex,
            "image_id": image_id,
            "queries": [{"prefix": list(p)} for p in prefixes],
        }
        if region is not None:
            payload["region"] = list(region)
        data, tail = self._post("/v1/logprobs", payload)
        try:
            entries = data.get("distributions")
            if not isinstance(entries, list):
                raise ValueError("no distributions list")
            dists = [_distribution(entry, k, tail) for k, entry in enumerate(entries)]
            tail.end()
            results = data.get("results")
            if not isinstance(results, list) or len(results) != len(prefixes):
                got = len(results) if isinstance(results, list) else type(results).__name__
                raise ValueError(f"{got} results for {len(prefixes)} prefixes")
            for j, i in enumerate(results):
                if not (is_int(i) and 0 <= i < len(dists)):
                    raise ValueError(
                        f"results[{j}] of {i!r}, not an index into {len(dists)} distribution(s)"
                    )
        except ValueError as exc:
            raise TransportError(f"logprobs response has {exc}", body=str(data)[:2000]) from None
        return [dists[i] for i in results]

    # -- contrastive ---------------------------------------------------

    def embed_image(self, image_id, region) -> np.ndarray:
        return self.embed_batch(image_id, region, [])[0]

    def embed_text(self, tokens) -> np.ndarray:
        return self.embed_batch(None, None, [tokens])[1][0]

    def embed_batch(self, image_id, region, sentences):
        """One /v1/embed request: the image's vector when image_id is given
        (else None), and the sentences' vectors as one (n, d) array."""
        payload: dict = {
            "request_id": uuid.uuid4().hex,
            "texts": [list(s) for s in sentences],
        }
        if image_id is not None:
            payload["image_id"] = image_id
        if region is not None:
            payload["region"] = list(region)
        data, tail = self._post("/v1/embed", payload)
        try:
            image = tail.array(data.get("image"), "image", 1) if image_id is not None else None
            texts = tail.array(data.get("texts"), "texts", 2)
            tail.end()
            if texts.shape[0] != len(sentences):
                raise ValueError(f"{texts.shape[0]} text rows, not the {len(sentences)} asked for")
        except ValueError as exc:
            raise TransportError(f"embed response has {exc}", body=str(data)[:2000]) from None
        return image, texts


def _permanent(body: str) -> bool:
    """Whether an error reply's body is a JSON object marked `"retry": false`."""
    try:
        reply = json.loads(body)
    except ValueError:
        return False
    return isinstance(reply, dict) and reply.get("retry") is False


def _unframe(url: str, resp, request_id) -> tuple[dict, _Tail]:
    """A framed 200 reply's header and tail; TransportError, carrying the
    header text (the whole body when no header length holds), names what
    is wrong."""
    content = resp.content
    length = resp.headers.get(HEADER_LENGTH)
    if length is None or not (length.isascii() and length.isdigit()):
        fault = "no header" if length is None else f"{length!r}, not an int >= 0"
        raise TransportError(
            f"{url} returned {HEADER_LENGTH} {fault}", body=content.decode("utf-8", "replace")
        )
    length = int(length)
    if length > len(content):
        raise TransportError(
            f"{url} returned {HEADER_LENGTH} {length}, past its {len(content)}-byte body",
            body=content.decode("utf-8", "replace"),
        )
    head = content[:length]
    try:
        text = head.decode("utf-8")
        data = json.loads(text)
    except ValueError as exc:  # UnicodeDecodeError included
        raise TransportError(
            f"{url} returned an unparseable JSON header: {exc}",
            body=head.decode("utf-8", "replace"),
        ) from exc
    if not isinstance(data, dict):
        raise TransportError(
            f"{url} returned {type(data).__name__}, not a JSON object", body=text
        )
    if data.get("request_id") != request_id:
        raise TransportError(f"{url} echoed wrong request_id", body=text)
    return data, _Tail(memoryview(content)[length:])


class _Tail:
    """A framed reply's binary tail, read one ARRAY at a time in header
    order, each where the one before it ends; ValueError names what is
    wrong."""

    def __init__(self, raw: memoryview):
        self._raw = raw
        self._read = 0  # where the next array starts
        self._last = None  # the field of the array read last

    def array(self, value, field: str, ndim: int, min_width: int = 1) -> np.ndarray:
        """`value`, the header's `field`, as a writable float64 array of
        `ndim` dimensions whose vectors hold at least `min_width` values."""
        shape = value.get("shape") if isinstance(value, dict) else None
        if not (
            isinstance(shape, list)
            and len(shape) == ndim
            and all(is_int(dim) and dim >= 0 for dim in shape)
            and shape[-1] >= min_width
        ):
            vectors = " with non-empty vectors" if min_width else ""
            raise ValueError(f"no {field} array of {ndim} dimension(s){vectors}")
        start = self._read
        end = start + 8 * math.prod(shape)
        if end > len(self._raw):
            raise ValueError(f"{len(self._raw) - start} bytes of {field} data for shape {shape}")
        self._read, self._last = end, field
        # a bytearray buffer keeps the array writable, like every backend's
        return np.frombuffer(bytearray(self._raw[start:end]), "<f8").reshape(shape)

    def end(self) -> None:
        """Check that no byte of the tail follows the last array read."""
        extra = len(self._raw) - self._read
        if extra:
            after = f"after {self._last}" if self._last else "that holds no array"
            raise ValueError(f"{extra} byte(s) of tail {after}")


def _distribution(entry, k: int, tail: _Tail) -> TokenDistribution:
    """Entry `k` of a /v1/logprobs reply's distributions, type-checked, its
    `probs` read from `tail`; ValueError names what is wrong."""
    if not isinstance(entry, dict):
        raise ValueError(f"distributions[{k}] that is not an object")
    tokens = entry.get("tokens")
    if not (isinstance(tokens, list) and all(map(isinstance, tokens, repeat(str)))):
        raise ValueError(f"distributions[{k}].tokens that is not a list of strings")
    values = tail.array(entry.get("probs"), f"distributions[{k}].probs", 1, min_width=0)
    if values.size != len(tokens):
        raise ValueError(f"distributions[{k}].probs of {values.size} for {len(tokens)} tokens")
    probs = dict(zip(tokens, values.tolist()))
    if len(probs) != len(tokens):
        raise ValueError(f"distributions[{k}].tokens with a repeated token")
    terminal = entry.get("terminal_p")
    if terminal is not None and non_numbers([terminal]):
        raise ValueError(f"distributions[{k}].terminal_p that is non-numeric: {terminal!r}")
    return TokenDistribution(probs=probs, terminal_p=terminal)
