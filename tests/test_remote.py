import base64
import json
import socket
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import requests

from genret import (
    AnchorKind,
    Capabilities,
    LoopbackServer,
    Method,
    OracleBackend,
    RankingInstance,
    RemoteBackend,
    TokenDistribution,
    UniformBackend,
    make_instances,
    parse_template,
    random_world,
    rank_instance,
    sample_scenes,
    write_instances,
)
from genret.backends.loopback import _Handler
from genret.cli import main
from genret.errors import NormalizationError, ParameterError, TransportError
from genret.scoring import contrastive_loss, generative_loss


@pytest.fixture(scope="module")
def setup():
    spec = random_world(seed=6, n_objects=6, n_attributes=14, attrs_per_object=4)
    scenes = sample_scenes(spec, [2, 2])
    backend = OracleBackend(spec, scenes)
    instances = make_instances(spec, scenes, 10, AnchorKind.OBJECT, seed=0)
    return spec, scenes, backend, instances


def remote_for(url, backend, **kw):
    kw.setdefault("backoff", 0.01)
    return RemoteBackend(url, capabilities=backend.capabilities, **kw)


# -- happy path ----------------------------------------------------------


def test_distributions_survive_the_wire_exactly(setup):
    _, _, backend, _ = setup
    with LoopbackServer(backend) as url:
        remote = remote_for(url, backend)
        prefixes = [(), ("obj00",), ("obj00", "is"), ("nowhere", "at", "all")]
        got = remote.next_token_distributions("scene-000000", None, prefixes)
        want = backend.next_token_distributions("scene-000000", None, prefixes)
        for g, w in zip(got, want):
            assert g.probs == w.probs  # JSON float round trip is exact
            assert g.terminal_p == w.terminal_p


def test_rankings_survive_the_wire_exactly(setup):
    _, _, backend, instances = setup
    template = parse_template("{O} is {A}")
    with LoopbackServer(backend) as url:
        remote = remote_for(url, backend)
        for inst in instances[:3]:
            for method in (Method.GENERATIVE, Method.CONTRASTIVE):
                near = rank_instance(backend, inst, template, method)
                far = rank_instance(remote, inst, template, method)
                assert far.scores == near.scores


def bits(array):
    """The float64 bit patterns of `array`: equal exactly when every value,
    -0.0 and NaN payloads included, is the same."""
    return np.asarray(array, dtype="<f8").view(np.uint64)


def assert_bit_equal(got, want):
    assert got.shape == np.shape(want)
    assert np.array_equal(bits(got), bits(want))
    assert got.flags.writeable  # like every backend's arrays


def test_embeddings_survive_the_wire(setup):
    _, _, backend, _ = setup
    with LoopbackServer(backend) as url:
        remote = remote_for(url, backend)
        assert_bit_equal(
            remote.embed_image("scene-000001", None), backend.embed_image("scene-000001", None)
        )
        assert_bit_equal(
            remote.embed_text(("obj00", "is")), backend.embed_text(("obj00", "is"))
        )
        sentences = [("obj00", "is"), ("is",)]
        image, texts = remote.embed_batch("scene-000001", None, sentences)
        want_image, want_texts = backend.embed_batch("scene-000001", None, sentences)
        assert_bit_equal(image, want_image)
        assert_bit_equal(texts, want_texts)
        # an image-only request gets no rows of the image's width
        image, texts = remote.embed_batch("scene-000001", None, [])
        assert_bit_equal(image, want_image)
        assert texts.shape == (0, len(want_image))


# values a JSON float list would print lossily or could not carry at all
SPECIAL_FLOATS = [-0.0, 5e-324, 1e308, -1e308, 0.1, float("nan"), float("inf"), float("-inf")]


class SpecialFloatBackend(UniformBackend):
    """Embeds through the base class's per-item default, with vectors of
    SPECIAL_FLOATS; embed_batch answers no sentences with []."""

    def embed_image(self, image_id, region):
        return np.array(SPECIAL_FLOATS)

    def embed_text(self, tokens):
        return np.roll(SPECIAL_FLOATS, len(tokens))


def test_every_float64_crosses_the_wire_bit_for_bit():
    backend = SpecialFloatBackend(["a"])
    with LoopbackServer(backend) as url:
        remote = remote_for(url, backend)
        image, texts = remote.embed_batch("x", None, [("a",), ("a", "a")])
        assert_bit_equal(image, backend.embed_image("x", None))
        want_texts = [backend.embed_text(("a",)), backend.embed_text(("a", "a"))]
        assert_bit_equal(texts, np.array(want_texts))
        assert_bit_equal(remote.embed_text(("a", "a")), backend.embed_text(("a", "a")))
        assert_bit_equal(remote.embed_image("x", None), backend.embed_image("x", None))
        image, texts = remote.embed_batch("x", None, [])
        assert texts.shape == (0, len(SPECIAL_FLOATS))


def test_terminal_p_is_optional_on_the_wire():
    backend = UniformBackend(["a", "b"])  # no terminal token
    with LoopbackServer(backend) as url:
        remote = remote_for(url, backend)
        dist = remote.next_token_distributions("x", None, [()])[0]
        assert dist.terminal_p is None
        assert dist.probs == {"a": 0.5, "b": 0.5}


class CountingHandler(_Handler):
    def do_POST(self):
        self.server.hits = getattr(self.server, "hits", 0) + 1
        super().do_POST()


def test_one_post_per_prefix_batch(setup):
    _, _, backend, _ = setup
    server = LoopbackServer(backend, handler=CountingHandler)
    with server as url:
        remote = remote_for(url, backend)
        remote.next_token_distributions("scene-000000", None, [(), ("obj00",), ("is",)])
        assert server._server.hits == 1


class CallCountingBackend(UniformBackend):
    """Records the prefixes of every next_token_distributions call."""

    def __init__(self, vocabulary):
        super().__init__(vocabulary)
        self.calls = []

    def next_token_distributions(self, image_id, region, prefixes):
        self.calls.append(list(prefixes))
        return super().next_token_distributions(image_id, region, prefixes)


def test_loopback_answers_a_post_with_one_backend_call():
    backend = CallCountingBackend(["a", "b"])
    prefixes = [(), ("a",), ("a", "b")]
    with LoopbackServer(backend) as url:
        remote = remote_for(url, backend)
        dists = remote.next_token_distributions("x", None, prefixes)
    assert len(dists) == 3
    assert backend.calls == [prefixes]


class EmbedCountingOracle(OracleBackend):
    """Records every embed_batch and embed_text call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.batches, self.texts = [], []

    def embed_batch(self, image_id, region, sentences):
        self.batches.append(list(sentences))
        return super().embed_batch(image_id, region, sentences)

    def embed_text(self, tokens):
        self.texts.append(tokens)
        return super().embed_text(tokens)


def test_loopback_answers_an_image_embed_with_one_embed_batch_call(setup):
    spec, scenes, _, _ = setup
    backend = EmbedCountingOracle(spec, scenes)
    sentences = [("obj00", "is"), ("is",), ("obj00",)]
    with LoopbackServer(backend) as url:
        remote = remote_for(url, backend)
        remote.embed_batch("scene-000000", None, sentences)
        assert backend.batches == [sentences] and backend.texts == []
        # a request naming no image embeds each sentence on its own
        backend.batches.clear()
        remote.embed_text(("obj00", "is"))
        assert backend.batches == [] and backend.texts == [("obj00", "is")]


def test_contrastive_request_to_a_server_without_it_is_a_400():
    # the server's backend refuses the contrastive side; the client sees its 400
    backend = UniformBackend(["a0", "cat", "is"])
    inst = RankingInstance(
        image_id="x",
        anchor_kind=AnchorKind.OBJECT,
        anchor="cat",
        candidates=("a0",),
        positives=frozenset({0}),
    )
    with LoopbackServer(backend) as url:
        remote = remote_for(url, backend)
        with pytest.raises(TransportError) as err:
            rank_instance(remote, inst, parse_template("{O} is {A}"), Method.CONTRASTIVE)
    assert err.value.status == 400
    assert "no contrastive support" in (err.value.body or "")


def test_one_post_per_contrastive_instance(setup):
    _, _, backend, instances = setup
    server = LoopbackServer(backend, handler=CountingHandler)
    with server as url:
        remote = remote_for(url, backend)
        rank_instance(remote, instances[0], parse_template("{O} is {A}"), Method.CONTRASTIVE)
        assert len(instances[0].candidates) > 1
        assert server._server.hits == 1


# -- faults ---------------------------------------------------------------


class FlakyHandler(_Handler):
    """Two transient 500s, then normal service."""

    def do_POST(self):
        self.server.hits = getattr(self.server, "hits", 0) + 1
        if self.server.hits <= 2:
            self._reply(500, {"error": "transient"})
            return
        super().do_POST()


def test_retries_ride_out_transient_500s(setup):
    _, _, backend, _ = setup
    server = LoopbackServer(backend, handler=FlakyHandler)
    with server as url:
        remote = remote_for(url, backend)
        dist = remote.next_token_distributions("scene-000000", None, [()])[0]
        assert abs(dist.total() - 1.0) < 1e-9
        assert server._server.hits == 3


def test_embed_retries_ride_out_transient_500s(setup):
    _, _, backend, _ = setup
    server = LoopbackServer(backend, handler=FlakyHandler)
    with server as url:
        remote = remote_for(url, backend)
        image, texts = remote.embed_batch("scene-000000", None, [("obj00",)])
        np.testing.assert_array_equal(image, backend.embed_image("scene-000000", None))
        np.testing.assert_array_equal(texts[0], backend.embed_text(("obj00",)))
        assert server._server.hits == 3


class AlwaysDownHandler(_Handler):
    def do_POST(self):
        self.server.hits = getattr(self.server, "hits", 0) + 1
        self._reply(500, {"error": "still broken"})


def test_persistent_500_raises_after_all_retries(setup):
    _, _, backend, _ = setup
    server = LoopbackServer(backend, handler=AlwaysDownHandler)
    with server as url:
        remote = remote_for(url, backend, max_retries=2)
        with pytest.raises(TransportError) as err:
            remote.next_token_distributions("scene-000000", None, [()])[0]
        assert server._server.hits == 3  # initial try plus two retries
        assert err.value.status == 500
        assert "still broken" in (err.value.body or "")


@pytest.mark.parametrize(
    "kw,name",
    [
        (dict(timeout=0), "timeout"),
        (dict(timeout=float("nan")), "timeout"),
        (dict(timeout=float("inf")), "timeout"),
        (dict(max_retries=-1), "max_retries"),
        (dict(max_retries=2.5), "max_retries"),
        (dict(max_retries=True), "max_retries"),
        (dict(backoff=-1.0), "backoff"),
        (dict(backoff=float("nan")), "backoff"),
    ],
)
def test_remote_settings_outside_their_domain_are_rejected_before_any_request(setup, kw, name):
    _, _, backend, _ = setup
    server = LoopbackServer(backend, handler=AlwaysDownHandler)
    with server as url:
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            RemoteBackend(url, **kw).next_token_distributions("scene-000000", None, [()])
        assert getattr(server._server, "hits", 0) == 0


def test_4xx_fails_immediately_with_body(setup):
    _, _, backend, _ = setup
    server = LoopbackServer(backend, handler=CountingHandler)
    with server as url:
        remote = remote_for(url, backend)
        with pytest.raises(TransportError) as err:
            remote.next_token_distributions("no-such-scene", None, [()])[0]
        assert server._server.hits == 1  # 400s are not retried
        assert err.value.status == 400
        assert "no scene registered" in (err.value.body or "")


class WrongIdHandler(_Handler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        self._reply(200, {"request_id": "bogus", "results": []})


def test_mismatched_request_id_is_rejected(setup):
    _, _, backend, _ = setup
    with LoopbackServer(backend, handler=WrongIdHandler) as url:
        remote = remote_for(url, backend)
        with pytest.raises(TransportError, match="request_id"):
            remote.next_token_distributions("scene-000000", None, [()])[0]


def wire(values, shape=None, data=None):
    """The ARRAY form of `values`: base64 of their little-endian
    float64 bytes, with their shape unless `shape` overrides it and with
    `data` in place of those bytes when given."""
    array = np.asarray(values, dtype="<f8")
    raw = array.tobytes() if data is None else data
    return {
        "shape": list(array.shape) if shape is None else shape,
        "data": base64.b64encode(raw).decode("ascii"),
    }


def entry(table: dict, /, **fields) -> dict:
    """One /v1/logprobs distribution: `table`'s tokens, and its values as
    an ARRAY, with `fields` (a terminal_p, or faults) over those."""
    return {"tokens": list(table), "probs": wire(list(table.values())), **fields}


def logprobs(*entries, results=(0,)) -> dict:
    """A /v1/logprobs reply body without its request_id."""
    return {"distributions": list(entries), "results": list(results)}


class HalfMassHandler(_Handler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        reply = logprobs(entry({"a": 0.25, "b": 0.25}), results=[0] * len(request["queries"]))
        self._reply(200, {"request_id": request["request_id"], **reply})


def test_unnormalized_server_output_is_rejected(setup):
    # the client passes the distribution on; the scoring engine rejects it
    _, _, backend, _ = setup
    with LoopbackServer(backend, handler=HalfMassHandler) as url:
        remote = remote_for(url, backend)
        with pytest.raises(NormalizationError):
            generative_loss(remote, "scene-000000", None, ("a",))


def fixed_reply(reply):
    """A handler that answers every POST with `reply`, echoing the request_id."""

    class Handler(_Handler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            request = json.loads(self.rfile.read(length))
            self._reply(200, {"request_id": request["request_id"], **reply})

    return Handler


def ask_distribution(remote):
    return remote.next_token_distributions("scene-000000", None, [()])[0]


def ask_embedding(remote):
    return remote.embed_text(("a",))


@pytest.mark.parametrize(
    "reply, ask, message",
    [
        # probabilities cross as an ARRAY: a JSON list of them is no array
        (logprobs(entry({"a": 1.0}, probs=["lots"])), ask_distribution,
         r"no distributions\[0\]\.probs array"),
        (logprobs(entry({"a": 1.0}, probs=[[1.0]])), ask_distribution,
         r"no distributions\[0\]\.probs array"),
        (logprobs(entry({"a": 1.0}, terminal_p="none")), ask_distribution, "terminal_p"),
        (logprobs(entry({"a": 0.5, "b": 0.5}, probs={"shape": [2], "data": ["0.5", 0.5]})),
         ask_distribution, r"distributions\[0\]\.probs data that is not a base64 string"),
        (logprobs(entry({"a": 1.0}, probs={**wire([1.0]), "shape": [True]})), ask_distribution,
         r"no distributions\[0\]\.probs array"),
        (logprobs(entry({"a": 1.0}, terminal_p=False)), ask_distribution, "terminal_p"),
        (logprobs(entry({"a": 1.0}, terminal_p=10**400)), ask_distribution,  # past the float range
         "terminal_p"),
        (logprobs("oops"), ask_distribution, r"distributions\[0\] that is not an object"),
        ({"texts": {"shape": [1, 2], "data": ["x", 1.0]}}, ask_embedding, "texts data"),
    ],
)
def test_non_numeric_server_output_is_a_transport_error(setup, reply, ask, message):
    _, _, backend, _ = setup
    with LoopbackServer(backend, handler=fixed_reply(reply)) as url:
        remote = remote_for(url, backend)
        with pytest.raises(TransportError, match=message) as err:
            ask(remote)
        assert err.value.body


HALF = entry({"a": 0.5, "b": 0.5})
ALL_A = entry({"a": 1.0, "b": 0.0})


def ask_two(remote):
    return remote.next_token_distributions("scene-000000", None, [(), ("a",)])


@pytest.mark.parametrize(
    "reply, message",
    [
        pytest.param(logprobs(HALF, ALL_A, results=[0, 2]), r"results\[1\] of 2, not an index",
                     id="index-past-the-end"),
        pytest.param(logprobs(HALF, ALL_A, results=[-1, 0]), r"results\[0\] of -1",
                     id="index-negative"),
        # True would be index 1, which is in range
        pytest.param(logprobs(HALF, ALL_A, results=[0, True]), r"results\[1\] of True",
                     id="index-a-bool"),
        pytest.param(logprobs(HALF, ALL_A, results=[0.0, 1]), r"results\[0\] of 0\.0",
                     id="index-a-float"),
        pytest.param(logprobs(HALF, ALL_A, results=["0", 1]), r"results\[0\] of '0'",
                     id="index-a-string"),
        pytest.param(logprobs(HALF, results=[0]), "1 results for 2 prefixes", id="too-few"),
        pytest.param(logprobs(HALF, results=[0, 0, 0]), "3 results for 2 prefixes",
                     id="too-many"),
        pytest.param({"distributions": [HALF]}, "NoneType results for 2 prefixes",
                     id="results-missing"),
        pytest.param({"distributions": [HALF], "results": {"0": 0}},
                     "dict results for 2 prefixes", id="results-an-object"),
        pytest.param({"results": [0, 0]}, "no distributions list", id="distributions-missing"),
        pytest.param({"distributions": HALF, "results": [0, 0]}, "no distributions list",
                     id="distributions-an-object"),
        pytest.param(logprobs(HALF, {**ALL_A, "tokens": "ab"}, results=[0, 1]),
                     r"distributions\[1\]\.tokens that is not a list of strings",
                     id="tokens-a-string"),
        pytest.param(logprobs({**HALF, "tokens": ["a", 1]}, results=[0, 0]),
                     r"distributions\[0\]\.tokens that is not a list of strings",
                     id="tokens-with-an-int"),
        pytest.param(logprobs({**HALF, "tokens": ["a", None]}, results=[0, 0]),
                     r"distributions\[0\]\.tokens", id="tokens-with-null"),
        pytest.param(logprobs({"probs": HALF["probs"]}, results=[0, 0]),
                     r"distributions\[0\]\.tokens", id="tokens-missing"),
        pytest.param(logprobs({**HALF, "tokens": ["a", "a"]}, results=[0, 0]),
                     r"distributions\[0\]\.tokens with a repeated token", id="tokens-repeated"),
        pytest.param(logprobs({**HALF, "tokens": ["a"]}, results=[0, 0]),
                     r"distributions\[0\]\.probs of 2 for 1 tokens", id="more-probs"),
        pytest.param(logprobs({**HALF, "tokens": ["a", "b", "c"]}, results=[0, 0]),
                     r"distributions\[0\]\.probs of 2 for 3 tokens", id="fewer-probs"),
        pytest.param(logprobs(entry({"a": 1.0}, probs={**wire([1.0]), "data": "!!"}),
                              results=[0, 0]),
                     r"distributions\[0\]\.probs data that is not valid base64",
                     id="probs-not-base64"),
        pytest.param(logprobs(entry({"a": 1.0}, probs=wire([1.0], data=b"\0" * 7)),
                              results=[0, 0]),
                     r"7 bytes of distributions\[0\]\.probs data for shape \[1\]",
                     id="probs-a-byte-short"),
        pytest.param(logprobs(entry({"a": 1.0}, probs=wire([1.0], data=b"\0" * 16)),
                              results=[0, 0]),
                     r"16 bytes of distributions\[0\]\.probs data for shape \[1\]",
                     id="probs-a-value-long"),
        pytest.param(logprobs(entry({"a": 0.5, "b": 0.5}, probs=wire([[0.5, 0.5]])),
                              results=[0, 0]),
                     r"no distributions\[0\]\.probs array of 1 dimension", id="probs-2-d"),
        pytest.param(logprobs(entry({"a": 1.0}, probs=None), results=[0, 0]),
                     r"no distributions\[0\]\.probs array", id="probs-null"),
        pytest.param(logprobs(entry({"a": 1.0}, terminal_p=[0.0]), results=[0, 0]),
                     r"distributions\[0\]\.terminal_p that is non-numeric",
                     id="terminal-a-list"),
    ],
)
def test_malformed_logprobs_reply_is_a_transport_error_naming_the_field(setup, reply, message):
    _, _, backend, _ = setup
    with LoopbackServer(backend, handler=fixed_reply(reply)) as url:
        with pytest.raises(TransportError, match=message) as err:
            ask_two(remote_for(url, backend))
    assert err.value.body
    assert "distributions" in err.value.body or "results" in err.value.body


def test_an_empty_distribution_is_accepted():
    reply = logprobs(entry({}, terminal_p=1.0))
    assert reply["distributions"][0]["probs"]["shape"] == [0]
    with LoopbackServer(UniformBackend(["a"]), handler=fixed_reply(reply)) as url:
        remote = RemoteBackend(url, capabilities=Capabilities(has_terminal_token=True),
                               backoff=0.01)
        dist = remote.next_token_distributions("x", None, [()])[0]
        assert dist.probs == {} and dist.terminal_p == 1.0
        p, total = remote.score_sentences("x", None, [()])
        assert p.tobytes() == total.tobytes() == np.array([1.0]).tobytes()


def test_a_server_that_does_not_dedup_scores_the_same(setup):
    _, scenes, oracle, instances = setup
    template = parse_template("{O} is {A}")
    inst = instances[0]

    class OneEntryPerQuery(_Handler):
        """Lists one distribution per query, repeats included."""

        def _send(self, status, text):
            reply = json.loads(text)
            if status == 200 and "results" in reply:
                dists = reply["distributions"]
                reply["distributions"] = [dists[i] for i in reply["results"]]
                reply["results"] = list(range(len(reply["results"])))
                text = json.dumps(reply)
            super()._send(status, text)

    scores = []
    for handler in (_Handler, OneEntryPerQuery):
        with LoopbackServer(oracle, handler=handler) as url:
            scored = rank_instance(remote_for(url, oracle), inst, template, Method.GENERATIVE)
        scores.append((repr(scored.scores), scored.per_token))
    assert scores[0] == scores[1]
    assert scores[0][0] == repr(rank_instance(oracle, inst, template, Method.GENERATIVE).scores)


def raw_reply(body):
    """A handler that answers every POST with `body` as JSON, as it is."""

    class Handler(_Handler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            self._send(200, json.dumps(body))

    return Handler


@pytest.mark.parametrize("ask", [ask_distribution, ask_embedding])
@pytest.mark.parametrize("body", [[], "x", 3])
def test_a_reply_that_is_not_a_json_object_is_a_transport_error(setup, body, ask):
    _, _, backend, _ = setup
    with LoopbackServer(backend, handler=raw_reply(body)) as url:
        with pytest.raises(TransportError, match="not a JSON object") as err:
            ask(remote_for(url, backend))
    assert err.value.body == json.dumps(body)


def test_score_names_a_non_object_reply_a_transport_error(setup, tmp_path):
    _, _, backend, instances = setup
    write_instances(tmp_path / "instances.jsonl", instances)
    out = tmp_path / "out"
    with LoopbackServer(backend, handler=raw_reply([])) as url:
        rc = main(
            [
                "score", "--out", str(out), "--instances", str(tmp_path / "instances.jsonl"),
                "--backend", "remote", "--endpoint", url, "--method", "contrastive",
            ]
        )
    assert rc == 1
    failures = [json.loads(line) for line in (out / "failures.jsonl").read_text().splitlines()]
    assert len(failures) == len(instances)
    assert {f["error"] for f in failures} == {"TransportError"}


class IntegerBackend(UniformBackend):
    """Serves probabilities 0 and 1 as ints or as floats, in one object."""

    def __init__(self, zero, one):
        super().__init__(["a", "b"])
        self.dist = TokenDistribution({"a": zero, "b": one}, terminal_p=zero)

    def next_token_distributions(self, image_id, region, prefixes):
        return [self.dist] * len(prefixes)


def test_integer_probabilities_score_as_the_equal_floats():
    losses = []
    for zero, one in ((0, 1), (0.0, 1.0)):
        # an int terminal_p on the wire reads as the equal float
        reply = logprobs(entry({"a": 0.0, "b": 1.0}, terminal_p=zero))
        with LoopbackServer(UniformBackend(["a"]), handler=fixed_reply(reply)) as url:
            remote = RemoteBackend(url, backoff=0.01)  # no terminal: one result per sentence
            dist = remote.next_token_distributions("x", None, [()])[0]
            assert dist.probs == {"a": 0.0, "b": 1.0} and dist.terminal_p == 0.0
            losses.append(generative_loss(remote, "x", None, ("b",)))
        # a backend serving int probabilities through the loopback scores the same
        backend = IntegerBackend(zero, one)
        with LoopbackServer(backend) as url:
            remote = RemoteBackend(url, backoff=0.01)
            losses.append(generative_loss(remote, "x", None, ("b",)))
        losses.append(generative_loss(backend, "x", None, ("b",)))
    assert len({repr(loss) for loss in losses}) == 1


IMAGE = wire([0.6, 0.8])
TEXTS = wire([[1.0, 0.0], [0.0, 1.0]])  # one row per sentence embed_pair asks for


def embed_pair(remote):
    return remote.embed_batch("scene-000000", None, [("a",), ("b",)])


@pytest.mark.parametrize(
    "reply",
    [
        {"image": IMAGE, "texts": wire([[1.0, 0.0]])},  # one text row for two sentences
        {"image": "x", "texts": TEXTS},
        {"image": IMAGE, "texts": "x"},
        {"image": IMAGE},  # no texts
        {"image": IMAGE, "texts": wire([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])},  # three rows
        {"image": IMAGE, "texts": wire([[], []])},  # empty vectors
        {"image": wire([]), "texts": TEXTS},  # an empty image vector
        {"image": IMAGE, "texts": wire([1.0, 0.0])},  # numbers, not vectors
        {"image": IMAGE, "texts": wire([[[1.0, 0.0]], [[0.0, 1.0]]])},  # nested too deep
        {"image": wire([[0.6, 0.8]]), "texts": TEXTS},  # an image of rank 2
        {"image": wire(0.6), "texts": TEXTS},  # an image of rank 0
        {"image": IMAGE, "texts": {"data": TEXTS["data"]}},  # no shape
        {"image": IMAGE, "texts": {"shape": [2, 2]}},  # no data
        {"image": {**IMAGE, "shape": 2}, "texts": TEXTS},  # a shape that is not a list
        {"image": {**IMAGE, "shape": ["2"]}, "texts": TEXTS},
        {"image": {**IMAGE, "shape": [None]}, "texts": TEXTS},
        {"image": IMAGE, "texts": {**TEXTS, "data": None}},
        {"image": IMAGE, "texts": {**TEXTS, "data": 3}},
        # the JSON-list form is gone, values that scored through it included
        {"image": [0.6, 0.8], "texts": TEXTS},
        {"image": IMAGE, "texts": [[1.0, 0.0], [0.0, 1.0]]},
        {"image": [True, 0.0], "texts": [[1.0, 0.0], [0.0, 1.0]]},
        {"image": [1.0, 0.0], "texts": [[1.0, 0.0], ["1.0", 0.0]]},
    ],
)
def test_malformed_embed_reply_is_a_transport_error(setup, reply):
    _, _, backend, _ = setup
    with LoopbackServer(backend, handler=fixed_reply(reply)) as url:
        remote = remote_for(url, backend)
        with pytest.raises(TransportError) as err:
            embed_pair(remote)
        assert err.value.body


ROWS = [[1.0, 0.0], [0.0, 1.0]]
ROW_BYTES = np.asarray(ROWS, dtype="<f8").tobytes()
NOT_BASE64 = "texts data that is not valid base64"


def with_texts(texts):
    return {"image": IMAGE, "texts": texts}


@pytest.mark.parametrize(
    "reply, message",
    [
        pytest.param(with_texts({**TEXTS, "data": "!!"}), NOT_BASE64, id="not-base64"),
        pytest.param(
            with_texts({**TEXTS, "data": TEXTS["data"][:-1]}), NOT_BASE64, id="missing-pad"
        ),
        pytest.param(
            with_texts({**TEXTS, "data": TEXTS["data"] + "=="}), NOT_BASE64, id="excess-after-pad"
        ),
        pytest.param(
            with_texts({**TEXTS, "data": "é" + TEXTS["data"]}), NOT_BASE64, id="non-ascii"
        ),
        pytest.param(
            with_texts({**TEXTS, "data": list(ROW_BYTES)}),
            "texts data that is not a base64 string", id="data-a-list",
        ),
        pytest.param(with_texts(wire(ROWS, shape=[4])), "no texts array of 2", id="rank-1"),
        pytest.param(with_texts(wire(ROWS, shape=[2, 1, 2])), "no texts array of 2", id="rank-3"),
        pytest.param(
            with_texts(wire(ROWS, shape=[1, 4])), "1 text rows, not the 2 asked for", id="one-row"
        ),
        pytest.param(
            with_texts(wire(ROWS * 2, shape=[4, 2])), "4 text rows, not the 2 asked for",
            id="four-rows",
        ),
        pytest.param(with_texts(wire(ROWS, shape=[-2, -2])), "no texts array", id="negative-dims"),
        pytest.param(with_texts(wire(ROWS, shape=[2.0, 2])), "no texts array", id="float-dim"),
        pytest.param(with_texts(wire(ROWS, shape=[2, 2.0])), "no texts array", id="float-width"),
        pytest.param(with_texts(wire(ROWS, shape=[True, 4])), "no texts array", id="bool-dim"),
        pytest.param(
            with_texts(wire([[1.0, 0.0, 0.0, 1.0]], shape=[2, True])), "no texts array",
            id="bool-width",
        ),
        pytest.param(
            with_texts(wire(ROWS, data=ROW_BYTES[:-1])),
            r"31 bytes of texts data for shape \[2, 2\]", id="one-byte-short",
        ),
        pytest.param(
            with_texts(wire(ROWS, data=ROW_BYTES + b"\0")),
            r"33 bytes of texts data for shape \[2, 2\]", id="one-byte-long",
        ),
        pytest.param(
            with_texts(wire(ROWS, shape=[2, 10**400])), "bytes of texts data for shape",
            id="huge-dim",
        ),
        # an image_id was sent
        pytest.param({"texts": TEXTS}, "no image array", id="image-missing"),
        pytest.param({"image": None, "texts": TEXTS}, "no image array", id="image-null"),
        pytest.param(
            {"image": {**IMAGE, "data": "!!"}, "texts": TEXTS}, "image data that is not valid",
            id="image-not-base64",
        ),
        pytest.param(
            {"image": wire([0.6, 0.8], shape=[3]), "texts": TEXTS}, "16 bytes of image data",
            id="image-short",
        ),
    ],
)
def test_malformed_embed_array_is_a_transport_error_naming_the_fault(setup, reply, message):
    _, _, backend, _ = setup
    with LoopbackServer(backend, handler=fixed_reply(reply)) as url:
        with pytest.raises(TransportError, match=message) as err:
            embed_pair(remote_for(url, backend))
    assert err.value.body


@pytest.mark.parametrize(
    "reply, message",
    [
        # each vector would have unit norm if true and "1.0" read as 1.0
        pytest.param(
            {"image": [True, 0.0], "texts": [["1.0", False]]}, "no image array", id="json-lists"
        ),
        pytest.param(
            {"image": {"shape": [2], "data": [True, 0.0]}, "texts": wire([[1.0, 0.0]])},
            "image data that is not a base64 string", id="image-data-a-list",
        ),
        pytest.param(
            {"image": wire([1.0, 0.0]), "texts": {"shape": [1, 2], "data": ["1.0", False]}},
            "texts data that is not a base64 string", id="texts-data-a-list",
        ),
    ],
)
def test_non_string_data_or_json_lists_in_an_embedding_do_not_score(reply, message):
    with LoopbackServer(UniformBackend(["a"]), handler=fixed_reply(reply)) as url:
        with pytest.raises(TransportError, match=message) as err:
            contrastive_loss(RemoteBackend(url, backoff=0.01), "x", None, ("a",))
    assert str(reply["texts"]) in err.value.body


def test_nan_text_embedding_is_rejected_by_the_engine(setup):
    _, _, backend, _ = setup
    reply = {"image": wire([1.0, 0.0]), "texts": wire([[float("nan"), 0.0]])}
    with LoopbackServer(backend, handler=fixed_reply(reply)) as url:
        remote = remote_for(url, backend)
        with pytest.raises(NormalizationError, match="text embedding"):
            contrastive_loss(remote, "scene-000000", None, ("a",))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e300])
def test_non_finite_or_huge_image_embedding_is_rejected_by_the_engine(setup, value):
    _, _, backend, _ = setup
    reply = {"image": wire([value, 0.0]), "texts": wire([[1.0, 0.0]])}
    with LoopbackServer(backend, handler=fixed_reply(reply)) as url:
        remote = remote_for(url, backend)
        with pytest.raises(NormalizationError, match="image embedding"):
            contrastive_loss(remote, "scene-000000", None, ("a",))


def test_probabilities_whose_sum_overflows_are_rejected_by_the_engine():
    # each value is a finite float; their sum is not
    reply = logprobs(entry({"a": 1e308, "b": 1e308}))
    with LoopbackServer(UniformBackend(["a"]), handler=fixed_reply(reply)) as url:
        with pytest.raises(NormalizationError, match="sums to inf"):
            generative_loss(RemoteBackend(url, backoff=0.01), "x", None, ("a",))


def test_malformed_request_gets_400_not_a_dropped_connection(setup):
    _, _, backend, _ = setup
    server = LoopbackServer(backend, handler=CountingHandler)
    with server as url:
        resp = requests.post(
            f"{url}/v1/logprobs",
            json={"request_id": "r", "image_id": "scene-000000", "region": 5, "queries": []},
            timeout=10,
        )
        assert resp.status_code == 400
        assert server._server.hits == 1


@pytest.mark.parametrize("path", ["/v1/logprobs", "/v1/embed"])
@pytest.mark.parametrize(
    "region", ["abcd", [1, 2], [0, 0, "a", 1], [0, 0, True, 1], {"x": 0}, 7]
)
def test_malformed_region_gets_400(setup, path, region):
    spec, _, backend, _ = setup
    body = {
        "request_id": "r", "image_id": "scene-000000", "region": region,
        "queries": [{"prefix": []}], "texts": [[spec.objects[0]]],
    }
    with LoopbackServer(backend) as url:
        resp = requests.post(f"{url}{path}", json=body, timeout=10)
        assert resp.status_code == 400
        assert "region must be null or 4 finite numbers" in resp.json()["error"]
        # the same request with a well-formed region is answered
        for good in (None, [0, 0, 10.5, 10]):
            resp = requests.post(f"{url}{path}", json={**body, "region": good}, timeout=10)
            assert resp.status_code == 200


def test_backend_rejecting_a_request_gets_400(setup):
    # OracleBackend.embed_text raises RenderError on empty text
    _, _, backend, _ = setup
    server = LoopbackServer(backend, handler=CountingHandler)
    with server as url:
        resp = requests.post(
            f"{url}/v1/embed", json={"request_id": "r", "texts": [[]]}, timeout=10
        )
        assert resp.status_code == 400
        assert server._server.hits == 1


@pytest.mark.parametrize(
    "request_body, error",
    [
        ({"request_id": "r"}, "needs an image_id or texts"),
        ({"request_id": "r", "texts": []}, "needs an image_id or texts"),
        ({"request_id": "r", "texts": "ab"}, "texts must be a list of token lists"),
        ({"request_id": "r", "texts": ["ab"]}, "texts must be a list of token lists"),
    ],
)
def test_malformed_embed_request_gets_400(setup, request_body, error):
    _, _, backend, _ = setup
    with LoopbackServer(backend) as url:
        resp = requests.post(f"{url}/v1/embed", json=request_body, timeout=10)
        assert resp.status_code == 400
        assert error in resp.json()["error"]


@pytest.mark.parametrize(
    "path, fields, error",
    [
        ("/v1/logprobs", {"queries": [{"prefix": "obj00"}]}, "query prefixes must be"),
        ("/v1/logprobs", {"queries": [{"prefix": [1, None]}]}, "query prefixes must be"),
        ("/v1/logprobs", {"queries": [{"prefix": {"a": 1}}]}, "query prefixes must be"),
        ("/v1/logprobs", {"queries": [{}]}, "query prefixes must be"),
        ("/v1/logprobs", {"queries": [["obj00"]]}, "queries must be a list of objects"),
        ("/v1/logprobs", {"queries": {"prefix": []}}, "queries must be a list of objects"),
        ("/v1/embed", {"texts": [["obj00", 1]]}, "texts must be a list of token lists"),
        ("/v1/embed", {"texts": [[None]]}, "texts must be a list of token lists"),
        ("/v1/embed", {"texts": None}, "texts must be a list of token lists"),
    ],
)
def test_malformed_token_list_gets_400(setup, path, fields, error):
    _, _, backend, _ = setup
    body = {"request_id": "r", "image_id": "scene-000000", **fields}
    with LoopbackServer(backend) as url:
        resp = requests.post(f"{url}{path}", json=body, timeout=10)
        assert resp.status_code == 400
        assert error in resp.json()["error"]


def test_stop_returns_without_waiting_for_a_poll(setup):
    _, _, backend, _ = setup
    started = time.perf_counter()
    for _ in range(5):
        server = LoopbackServer(backend)
        url = server.start()
        resp = requests.post(f"{url}/v1/embed", json={"request_id": "r"}, timeout=10)
        assert resp.status_code == 400  # answered: it asks for nothing
        server.stop()
        with pytest.raises(requests.ConnectionError):
            requests.post(f"{url}/v1/embed", json={"request_id": "r"}, timeout=10)
    # a stop that waited out serve_forever's 0.5 s poll would take 2.5 s
    assert time.perf_counter() - started < 1.5


class BrokenBackend(UniformBackend):
    def next_token_distributions(self, image_id, region, prefixes):
        raise RuntimeError("boom")


def test_backend_crash_gets_500_naming_the_exception():
    with LoopbackServer(BrokenBackend(["a"])) as url:
        resp = requests.post(
            f"{url}/v1/logprobs",
            json={"request_id": "r", "image_id": "x", "queries": [{"prefix": []}]},
            timeout=10,
        )
        assert resp.status_code == 500
        assert resp.json()["error"] == "RuntimeError: boom"


class FractionBackend(UniformBackend):
    """A uniform backend serving its probabilities as Fractions, in one
    object for every prefix."""

    def next_token_distributions(self, image_id, region, prefixes):
        dist = super().next_token_distributions(image_id, region, [()])[0]
        return [TokenDistribution({t: Fraction(p) for t, p in dist.probs.items()})] * len(prefixes)


def test_backend_answer_json_cannot_encode_gets_500_naming_the_backend_output():
    body = {"request_id": "r", "image_id": "x", "queries": [{"prefix": []}]}
    with LoopbackServer(FractionBackend(["a", "b"])) as url:
        # one object answers both prefixes
        two = {**body, "queries": [{"prefix": []}, {"prefix": ["a"]}]}
        resp = requests.post(f"{url}/v1/logprobs", json=two, timeout=10)
        assert resp.status_code == 500
        assert resp.json()["error"] == (
            "backend returned a non-numeric probability: Fraction(1, 2)"
        )
    # a valid answer crosses as float64 bytes
    with LoopbackServer(UniformBackend(["a", "b"])) as url:
        resp = requests.post(f"{url}/v1/logprobs", json=body, timeout=10)
        assert resp.status_code == 200
        assert resp.json() == {"request_id": "r", **logprobs(entry({"a": 0.5, "b": 0.5}))}


class ServingBackend(UniformBackend):
    """Serves `dist` for every prefix."""

    def __init__(self, dist):
        super().__init__(["a"])
        self.dist = dist

    def next_token_distributions(self, image_id, region, prefixes):
        return [self.dist] * len(prefixes)


@pytest.mark.parametrize(
    "dist, error",
    [
        (TokenDistribution({"a": "0.5", "b": 0.5}), "a non-numeric probability: '0.5'"),
        (TokenDistribution({"a": True}), "a non-numeric probability: True"),
        (TokenDistribution({"a": 10**400}), "a non-numeric probability: 1000"),
        (TokenDistribution({"a": 1.0}, terminal_p=Fraction(0)),
         "a non-numeric probability: Fraction(0, 1)"),
        (TokenDistribution({"a": 1.0, 2: 0.0}), "a distribution with a non-string token"),
        (TokenDistribution({"a": 1.0}, terminal_p=np.int64(0)), "output JSON cannot encode"),
    ],
)
def test_backend_output_the_wire_cannot_carry_gets_500(dist, error):
    body = {"request_id": "r", "image_id": "x", "queries": [{"prefix": []}]}
    with LoopbackServer(ServingBackend(dist)) as url:
        resp = requests.post(f"{url}/v1/logprobs", json=body, timeout=10)
    assert resp.status_code == 500
    assert resp.json()["error"].startswith(f"backend returned {error}")


def served_from(reply: dict) -> list[tuple]:
    """Each query's distribution in a decoded /v1/logprobs reply, as
    (tokens, probs as float64 bit patterns, terminal_p)."""
    out = []
    for i in reply["results"]:
        dist = reply["distributions"][i]
        raw = base64.b64decode(dist["probs"]["data"])
        out.append((dist["tokens"], np.frombuffer(raw, "<u8").tolist(), dist.get("terminal_p")))
    return out


def served_in_process(dists) -> list[tuple]:
    return [
        (list(d.probs), bits(list(d.probs.values())).tolist(), d.terminal_p) for d in dists
    ]


@pytest.mark.parametrize("request_id", ["r", 7, None, ["a", 1]])
def test_a_reply_lists_each_distinct_served_object_once(setup, request_id):
    _, scenes, oracle, _ = setup
    scene = scenes[0].image_id
    obj = oracle.next_token_distributions(scene, None, [()])[0]
    tok = next(t for t, p in obj.probs.items() if p > 0.01)
    # several off-trie prefixes share the floor; () comes twice
    oracle_prefixes = [(), (tok,), ("is",), (), ("nowhere",), ("at", "all"), (tok, "is")]
    uniform = UniformBackend(["b", "a", "c"], include_terminal=True)
    for backend, image_id, prefixes in (
        (oracle, scene, oracle_prefixes),
        (uniform, "x", [(), ("a",), ("a", "b"), ("c",)]),
    ):
        served = backend.next_token_distributions(image_id, None, prefixes)
        distinct = list({id(d): d for d in served}.values())  # in order of first use
        assert len(distinct) < len(served)
        with LoopbackServer(backend) as url:
            resp = requests.post(
                f"{url}/v1/logprobs",
                json={
                    "request_id": request_id,
                    "image_id": image_id,
                    "queries": [{"prefix": list(p)} for p in prefixes],
                },
                timeout=10,
            )
        assert resp.status_code == 200
        reply = resp.json()
        assert reply["request_id"] == request_id
        assert len(reply["distributions"]) == len(distinct)
        assert reply["results"] == [distinct.index(d) for d in served]
        assert served_from(reply) == served_in_process(served)


class RecordingHandler(_Handler):
    """The default handler, keeping every reply body it sends."""

    def _send(self, status, text):
        self.server.bodies.append(text.encode("utf-8"))
        super()._send(status, text)


def test_a_bench_sized_instance_gets_one_small_reply():
    # the remote benchmark's shape: V = 241, {O} is {A}, 50 candidates, a terminal
    spec = random_world(seed=1, n_objects=60, n_attributes=180, attrs_per_object=5)
    scenes = sample_scenes(spec, [3])
    oracle = OracleBackend(spec, scenes)
    assert len(oracle.vocabulary) == 241
    inst = make_instances(spec, scenes, 50, AnchorKind.OBJECT, seed=1)[0]
    template = parse_template("{O} is {A}")
    server = LoopbackServer(oracle, handler=RecordingHandler)
    with server as url:
        server._server.bodies = []
        far = rank_instance(remote_for(url, oracle), inst, template, Method.GENERATIVE)
        (body,) = server._server.bodies
    near = rank_instance(oracle, inst, template, Method.GENERATIVE)
    assert repr(far.scores) == repr(near.scores)
    assert far.per_token == near.per_token
    reply = json.loads(body)
    # (), (O,), (O, is) and one (O, is, A) per candidate
    assert len(reply["results"]) == 53
    prefixes = [(), (inst.anchor,), (inst.anchor, "is")]
    prefixes += [(inst.anchor, "is", c) for c in inst.candidates]
    served = oracle.next_token_distributions(inst.image_id, None, prefixes)
    assert len(reply["distributions"]) == len({id(d) for d in served}) < 10
    assert served_from(reply) == served_in_process(served)
    assert len(body) < 40_000


class RaggedEmbedBatch(OracleBackend):
    """An oracle whose embed_batch drops one element of the second text row."""

    def embed_batch(self, image_id, region, sentences):
        image, texts = super().embed_batch(image_id, region, sentences)
        return image, [texts[0], texts[1][:-1]]


def test_malformed_backend_embedding_gets_500_naming_the_backend_output(setup):
    spec, scenes, _, _ = setup
    with LoopbackServer(RaggedEmbedBatch(spec, scenes)) as url:
        body = {"request_id": "r", "image_id": scenes[0].image_id, "texts": [["obj00"]] * 2}
        resp = requests.post(f"{url}/v1/embed", json=body, timeout=10)
        assert resp.status_code == 500
        assert resp.json()["error"].startswith("backend returned a malformed text embedding batch")
        # a request the backend rejects keeps its 400
        resp = requests.post(f"{url}/v1/embed", json={**body, "image_id": "nope"}, timeout=10)
        assert resp.status_code == 400


def test_connection_failure_raises_transport_error():
    # nothing listens on this port; keep retries tight
    remote = RemoteBackend("http://127.0.0.1:9", max_retries=1, backoff=0.01)
    with pytest.raises(TransportError, match="attempts"):
        remote.next_token_distributions("x", None, [()])[0]


# -- kept-alive connections ----------------------------------------------------

LOGPROBS = {"request_id": "r", "image_id": "scene-000000", "queries": [{"prefix": []}]}


class ConnectionRecordingHandler(_Handler):
    """The default handler, recording the thread serving each connection
    that carries a POST and whether Nagle's algorithm is off on it, and
    answering a POST to /v1/fail with a 500 before its body is read."""

    def do_POST(self):
        if not getattr(self, "recorded", False):
            self.recorded = True
            self.server.threads.append(threading.current_thread())
            self.server.nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
        if self.path == "/v1/fail":
            self._reply(500, {"error": "answered before the body was read"})
            return
        super().do_POST()


def recording_server(backend):
    server = LoopbackServer(backend, handler=ConnectionRecordingHandler)
    url = server.start()
    server._server.threads, server._server.nodelay = [], []
    return server, url


def assert_answered(session, url):
    resp = session.post(f"{url}/v1/logprobs", json=LOGPROBS, timeout=10)
    assert resp.status_code == 200
    assert resp.json()["request_id"] == "r" and len(resp.json()["results"]) == 1
    return resp


def test_a_session_is_answered_after_every_error_reply(setup):
    _, _, backend, _ = setup
    server, url = recording_server(backend)
    try:
        with requests.Session() as session:
            first, second = assert_answered(session, url), assert_answered(session, url)
            assert first.raw.version == second.raw.version == 11  # HTTP/1.1
            assert len(server._server.threads) == 1  # the second reused the connection
            # a reply's body does not wait for the client's delayed ACK of its headers
            assert server._server.nodelay == [1]
            for path, body, status in [
                ("/v1/logprobs", {**LOGPROBS, "region": [0, 0]}, 400),
                ("/v1/logprobs", {**LOGPROBS, "image_id": "no-such-image"}, 400),
                ("/v1/nowhere", LOGPROBS, 404),
                ("/v1/fail", {**LOGPROBS, "padding": "x" * 10_000}, 500),
            ]:
                resp = session.post(f"{url}{path}", json=body, timeout=10)
                assert resp.status_code == status
                assert resp.headers["Connection"] == "close"
                assert_answered(session, url)
    finally:
        server.stop()


def test_a_backend_crash_closes_its_connection_and_the_next_request_is_answered():
    backend = BrokenBackend(["a"])
    with LoopbackServer(backend) as url, requests.Session() as session:
        resp = session.post(f"{url}/v1/logprobs", json=LOGPROBS, timeout=10)
        assert resp.status_code == 500 and resp.headers["Connection"] == "close"
        resp = session.post(f"{url}/v1/embed", json={"request_id": "r"}, timeout=10)
        assert resp.status_code == 400 and "needs an image_id or texts" in resp.text


def test_a_stopped_server_answers_no_pooled_connection(setup):
    _, _, backend, _ = setup
    server, url = recording_server(backend)
    session = requests.Session()
    remote = remote_for(url, backend, max_retries=1)
    assert_answered(session, url)
    remote.next_token_distributions("scene-000000", None, [()])
    assert len(server._server.threads) == 2  # one pooled connection each
    server.stop()
    with pytest.raises(requests.ConnectionError):
        session.post(f"{url}/v1/logprobs", json=LOGPROBS, timeout=10)
    with pytest.raises(TransportError, match="failed after 2 attempts"):
        remote.next_token_distributions("scene-000000", None, [()])


def test_stop_ends_idle_kept_alive_connections_at_once(setup):
    _, _, backend, _ = setup
    server, url = recording_server(backend)
    sessions = [requests.Session() for _ in range(3)]
    for session in sessions:
        assert_answered(session, url)
    threads = server._server.threads
    assert len(threads) == 3 and all(t.is_alive() for t in threads)  # idle, kept alive
    started = time.perf_counter()
    server.stop()
    assert time.perf_counter() - started < 0.5
    assert not any(t.is_alive() for t in threads)


def test_many_clients_at_once_are_answered_and_stop_ends_every_connection():
    # more client threads than cores, switching often: a lost update to the
    # server's table of open connections would leave one in it after stop()
    backend = UniformBackend(["a", "b"])
    server, url = recording_server(backend)
    served = server._server  # stop() lets go of it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def client():
            session = requests.Session()  # kept open: stop() must end its connection
            for _ in range(20):
                assert_answered(session, url)
            return session

        with ThreadPoolExecutor(max_workers=8) as pool:
            sessions = [f.result(timeout=60) for f in [pool.submit(client) for _ in range(8)]]
        assert len(served.threads) == 8
    finally:
        sys.setswitchinterval(interval)
        server.stop()
    assert not any(t.is_alive() for t in served.threads)
    assert served._connections == {}
    for session in sessions:
        session.close()


def test_a_parallel_score_opens_a_connection_per_thread_and_leaves_none(setup, tmp_path):
    _, _, backend, instances = setup
    write_instances(tmp_path / "instances.jsonl", instances)
    server, url = recording_server(backend)
    try:
        rc = main(
            [
                "score", "--out", str(tmp_path / "out"),
                "--instances", str(tmp_path / "instances.jsonl"),
                "--backend", "remote", "--endpoint", url, "--method", "generative",
                "--template", "{O} is {A}", "--parallelism", "2",
            ]
        )
        assert rc == 0
        threads = server._server.threads
        assert 1 <= len(threads) <= 2 < len(instances)
        # the client's connections close with its session, ending their threads
        deadline = time.monotonic() + 5
        while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(t.is_alive() for t in threads)
    finally:
        server.stop()


# -- the environment -------------------------------------------------------------

PROXY_VARIABLES = (
    "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
    "http_proxy", "https_proxy", "all_proxy", "no_proxy",
    "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "NETRC",
)
ENDPOINT = "http://scorer.example:8080"


@pytest.fixture
def environment(monkeypatch, tmp_path):
    """A clean environment for requests to read: no proxies, no CA bundle
    and no netrc but the ones a test sets."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    return monkeypatch


class Sent(Exception):
    """Raised by RecordingAdapter once it has recorded a request."""


class RecordingAdapter(requests.adapters.HTTPAdapter):
    """Records what each request would be sent with, and sends nothing."""

    def __init__(self):
        super().__init__()
        self.sent = []

    def send(self, request, **kwargs):
        self.sent.append(
            {
                "authorization": request.headers.get("Authorization"),
                **{k: kwargs[k] for k in ("proxies", "verify", "cert")},
            }
        )
        raise Sent


def sent_settings(post, session=None):
    """What `post(session)` sends its request with, on a new session unless given."""
    session = session or requests.Session()
    adapter = RecordingAdapter()
    session.mount("http://", adapter)
    with pytest.raises(Sent):
        post(session)
    (sent,) = adapter.sent
    return sent


def plain_post(session):
    session.post(f"{ENDPOINT}/v1/logprobs", json=LOGPROBS, timeout=10)


def remote_post(session):
    RemoteBackend(ENDPOINT, session=session).next_token_distributions("x", None, [()])


def write_netrc(tmp_path, host):
    path = tmp_path / "netrc"
    path.write_text(f"machine {host} login netrc-user password netrc-secret\n")
    return str(path)


def basic(user, password):
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")


PROXY = "http://proxy.example:3128"


@pytest.mark.parametrize(
    "variables, expect",
    [
        ({}, {}),
        ({"HTTP_PROXY": PROXY}, {"http": PROXY}),
        ({"HTTP_PROXY": PROXY, "NO_PROXY": "scorer.example"}, {}),
        ({"HTTP_PROXY": PROXY, "NO_PROXY": "other.example"}, {"http": PROXY}),
        ({"REQUESTS_CA_BUNDLE": "/etc/ssl/bundle.pem"}, {"verify": "/etc/ssl/bundle.pem"}),
        ({"NETRC": "scorer.example"}, {"authorization": basic("netrc-user", "netrc-secret")}),
        ({"NETRC": "other.example"}, {}),
    ],
)
def test_the_settings_read_once_are_those_a_plain_session_reads(
    environment, tmp_path, variables, expect
):
    for name, value in variables.items():
        if name == "NETRC":
            value = write_netrc(tmp_path, value)
        environment.setenv(name, value)
    plain = sent_settings(plain_post)
    assert sent_settings(remote_post) == plain
    # and each case reaches what it sets
    assert plain["proxies"].get("http") == expect.get("http")
    assert plain["verify"] == expect.get("verify", True)
    assert plain["authorization"] == expect.get("authorization")


def test_the_environment_is_read_once_per_backend(setup, environment, monkeypatch):
    _, _, backend, _ = setup
    calls = Counter()

    def counted(name):
        real = getattr(requests.sessions, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in ("get_environ_proxies", "get_netrc_auth"):
        monkeypatch.setattr(requests.sessions, name, counted(name))
    with LoopbackServer(backend) as url:
        remote = remote_for(url, backend)
        for _ in range(10):
            remote.next_token_distributions("scene-000000", None, [()])
    assert calls["get_environ_proxies"] <= 1
    assert calls["get_netrc_auth"] == 0  # per request; the backend reads netrc itself


def test_a_callers_session_stops_reading_the_environment(environment):
    session = requests.Session()
    remote = RemoteBackend(ENDPOINT, session=session)
    assert session.trust_env is False
    # a proxy set after the backend is built does not reach its requests
    environment.setenv("HTTP_PROXY", PROXY)
    sent = sent_settings(lambda _: remote.next_token_distributions("x", None, [()]), session)
    assert sent["proxies"] == {}


def test_a_callers_own_auth_wins_over_netrc(environment, tmp_path):
    environment.setenv("NETRC", write_netrc(tmp_path, "scorer.example"))
    session = requests.Session()
    session.auth = ("caller", "caller-secret")
    assert sent_settings(remote_post, session)["authorization"] == basic("caller", "caller-secret")
    # without the caller's auth, netrc's applies
    assert sent_settings(remote_post)["authorization"] == basic("netrc-user", "netrc-secret")
