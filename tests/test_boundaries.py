"""One property test per input boundary: every value read from a file or
the wire is accepted or raises the GenretError its boundary names.

Each test takes a valid record, replaces one of its values (a number, a
string, a list or a whole field) with arbitrary JSON or deletes it, and
feeds the result through the public reader.  The JSON includes NaN,
+-Infinity, a `1e400` literal, a 401-digit integer, bools, "1.0" and nested
lists.  Any other exception fails the test.  Through the CLI, a bad input
exits non-zero with one `error[` line.  A wire reply is framed, so its
tests also cut or extend the binary tail, or move the header length.  The
last tests draw a backend's answers instead, and score each both in
process and through the loopback server: the same scores, or a GenretError
on both sides.
"""

import contextlib
import copy
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import requests
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from genret import (
    AnchorKind,
    CachedScoreBackend,
    Capabilities,
    LoopbackServer,
    Method,
    OracleBackend,
    RankingInstance,
    RemoteBackend,
    ScoredInstance,
    ScorerBackend,
    TokenDistribution,
    instance_to_dict,
    parse_scene_graph,
    parse_template,
    random_world,
    rank_instance,
    read_instances,
    read_scenes,
    read_world,
    record_to_dict,
    sample_scenes,
    scenes_to_records,
    scored_to_records,
)
from genret.backends.cached import _line
from genret.backends.loopback import _Handler
from genret.calibration import read_table
from genret.cli import _counts, main
from genret.core import read_json, write_json
from genret.errors import (
    GenretError,
    InfiniteLossError,
    NormalizationError,
    SchemaError,
    TransportError,
    VocabularyError,
)
from genret.scoring import generative_loss
from genret.world import world_to_dict

from framing import ThroughLogprobs, frame, wire

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# stands in for the JSON literal 1e400, which json.dumps cannot write
BIG_LITERAL = "\x00 1e400"

SPECIAL = [
    float("nan"), float("inf"), float("-inf"), BIG_LITERAL, 10**400, -(10**400),
    2**1024 - 2**970, 1e308, True, False, "1.0", "", None, 0, -1, 0.5, [], {}, [1.0], [[0.5]],
]

json_values = st.recursive(
    st.one_of(
        st.sampled_from(SPECIAL),
        st.integers(),
        st.floats(),
        st.text(max_size=4),
    ),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def to_json(value) -> str:
    return json.dumps(value).replace(json.dumps(BIG_LITERAL), "1e400")


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, prefix + (i,))


def mutate(record, data):
    """A copy of `record` with one value below the root replaced by
    arbitrary JSON, or deleted."""
    path = data.draw(st.sampled_from(list(_paths(record))[1:]), label="path")
    out = copy.deepcopy(record)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(json_values, label="value")
    return out


def accepted_or(allowed, call, *args):
    """call(*args), or the GenretError it raises, which must be `allowed`."""
    try:
        return call(*args)
    except GenretError as exc:
        assert isinstance(exc, allowed), repr(exc)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("boundaries")


# -- files: every bad value is a SchemaError ---------------------------------

INSTANCE = RankingInstance(
    image_id="img", anchor_kind=AnchorKind.OBJECT, anchor="cup",
    candidates=("red", "blue"), positives=frozenset({0}), region=(0.0, 1.5, 10.0, 20.0),
)
SCORED = ScoredInstance(
    instance=INSTANCE, template_name="{A} {O}", method=Method.GENERATIVE,
    scores=(1.25, 3.5), per_token=((0.5, 0.75), (1.5, 2.0)),
)
CACHE_LINES = {
    "v1": scored_to_records(SCORED)[0],  # one line per (instance, candidate)
    "v2": _line(SCORED),  # one line per instance
}


@pytest.mark.parametrize("form", sorted(CACHE_LINES))
@PROPERTY
@given(data=st.data())
def test_cache_line(scratch, form, data):
    line = CACHE_LINES[form]
    path = scratch / f"cache_{form}.jsonl"
    # the mutated line, then the valid one: a changed key adds an entry, a
    # changed value under the same key is a conflict
    path.write_text(to_json(mutate(line, data)) + "\n" + to_json(line) + "\n")
    accepted_or(SchemaError, CachedScoreBackend.from_file, path)


@PROPERTY
@given(data=st.data())
def test_counts(scratch, data):
    path = scratch / "counts.json"
    path.write_text(to_json(mutate({"red": 3, "blue": 0, "green": 12}, data)))
    accepted_or(SchemaError, read_json, path, _counts)


WORLD = world_to_dict(random_world(seed=3, n_objects=2, n_attributes=3, attrs_per_object=2))


@PROPERTY
@given(data=st.data())
def test_world(scratch, data):
    path = scratch / "world.json"
    path.write_text(to_json(mutate(WORLD, data)))
    accepted_or(SchemaError, read_world, path)


@PROPERTY
@given(data=st.data())
def test_calibration_table(scratch, data):
    table = {"red": {"mu": -3.5, "sigma": 0.5}, "blue": {"mu": 2, "sigma": 1.25}}
    path = scratch / "calibration.json"
    path.write_text(to_json(mutate(table, data)))
    accepted_or(SchemaError, read_table, path)


@PROPERTY
@given(data=st.data())
def test_instance(scratch, data):
    path = scratch / "instances.jsonl"
    # the valid line after the mutated one: a changed image_id or anchor is
    # a second instance
    line = instance_to_dict(INSTANCE)
    path.write_text(to_json(mutate(line, data)) + "\n" + to_json(line) + "\n")
    accepted_or(SchemaError, read_instances, path)


SCENE_RECORDS = [
    record_to_dict(r)
    for r in scenes_to_records(
        sample_scenes(
            random_world(seed=6, n_objects=3, n_attributes=6, attrs_per_object=3), [2, 1]
        )
    )
]


@PROPERTY
@given(data=st.data())
def test_scene_graph(scratch, data):
    # every record goes through image_record; the list adds the id rule
    path = scratch / "scene_graph.json"
    path.write_text(to_json(mutate(SCENE_RECORDS, data)))
    accepted_or(SchemaError, parse_scene_graph, path)


@PROPERTY
@given(data=st.data())
def test_scenes(scratch, data):
    path = scratch / "scenes.jsonl"
    scene, other = SCENE_RECORDS
    path.write_text(to_json(mutate(scene, data)) + "\n" + to_json(other) + "\n")
    accepted_or(SchemaError, read_scenes, path)


def test_the_cli_form_builds_from_the_valid_scene_graph(scratch):
    graph = scratch / "cli_valid.json"
    write_json(graph, SCENE_RECORDS)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["build-dataset", "--out", str(scratch / "cli_valid"),
                   "--scene-graph", str(graph), "--total", "2"])
    assert rc == 0


@PROPERTY
@given(data=st.data())
def test_cli_form(scratch, data):
    # through the CLI, a bad input exits non-zero with one `error[` line;
    # capsys would be a function-scoped fixture shared by every example
    graph = scratch / "cli_scene_graph.json"
    graph.write_text(to_json(mutate(SCENE_RECORDS, data)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["build-dataset", "--out", str(scratch / "cli_out"),
                   "--scene-graph", str(graph), "--total", "2"])
    text = err.getvalue()
    assert rc in (0, 1, 4), (rc, text)
    if rc:
        assert text.startswith("error[") and text.count("\n") == 1, text
    else:
        assert text == ""


# -- wire replies: the client checks types, the engine checks values ---------


class _ReplyHandler(_Handler):
    """Answers every POST with the server's `reply`: (header, tail, length),
    the header echoing the request_id, and the header length it sends the
    header's own plus `length`, or `length` itself when it is a string."""

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        header, tail, length = self.server.reply
        head = to_json({"request_id": request["request_id"], **header}).encode("utf-8")
        self._send(200, head + tail, length if isinstance(length, str) else len(head) + length)


@pytest.fixture(scope="module")
def replying():
    server = LoopbackServer(None, handler=_ReplyHandler)
    url = server.start()
    yield server, url
    server.stop()


def _reply_with(replying, reply) -> str:
    server, url = replying
    server._server.reply = reply
    return url


def framed(reply) -> tuple[dict, bytes, int]:
    """`reply`, its ARRAYs as `framing.wire` gives them, as a framed reply:
    header, tail, and 0 to add to the header's length."""
    return (*frame(reply), 0)


def mutate_framed(reply, data):
    """`reply`, framed, with one value of its header (each field and each
    shape dimension among them) replaced or deleted, its tail cut and
    extended with arbitrary bytes, or its header length moved or replaced
    by a string."""
    header, tail, length = framed(reply)
    kind = data.draw(st.sampled_from(["header", "tail", "length"]), label="kind")
    if kind == "header":
        header = mutate(header, data)
    elif kind == "tail":
        cut = data.draw(st.integers(0, len(tail)), label="cut")
        tail = tail[:cut] + data.draw(st.binary(max_size=24), label="extension")
    else:
        # a header value HTTP can carry: latin-1, no control character
        text = st.text(st.characters(min_codepoint=32, max_codepoint=255), max_size=3)
        length = data.draw(st.integers(-3, 3) | text, label="length")
    return header, tail, length


# a sentence of two tokens and its terminal: a quarter per token and half
# for the terminal, each position's total one; mutations reach each field,
# each shape dimension and the tail
SCORE_REPLY = {"p": wire([0.25, 0.25, 0.5]), "total": wire([1.0, 1.0, 1.0])}
TWO_TOKENS_AND_A_TERMINAL = (-math.log(0.25), -math.log(0.25), -math.log(0.5))


def _terminal_remote(replying, reply) -> RemoteBackend:
    return RemoteBackend(
        _reply_with(replying, reply), capabilities=Capabilities(has_terminal_token=True),
        max_retries=0,
    )


def test_the_score_reply_scores_unmutated(replying):
    remote = _terminal_remote(replying, framed(SCORE_REPLY))
    loss = generative_loss(remote, "img", None, ("a", "b"))
    assert loss.per_token == TWO_TOKENS_AND_A_TERMINAL


@PROPERTY
@given(data=st.data())
def test_score_reply(replying, data):
    remote = _terminal_remote(replying, mutate_framed(SCORE_REPLY, data))
    # a type fault is the client's TransportError; a value fault (a size
    # among them) is the engine's: NormalizationError, and InfiniteLossError
    # for a zero probability
    allowed = (TransportError, NormalizationError, InfiniteLossError)
    accepted_or(allowed, generative_loss, remote, "img", None, ("a", "b"))


# the same sentence through /v1/logprobs: three prefixes, each served one
# distribution; mutations reach each field of it, each shape dimension and
# each result index
LOGPROBS_REPLY = {
    "distributions": [{"tokens": ["a", "b"], "probs": wire([0.25, 0.25]), "terminal_p": 0.5}],
    "results": [0, 0, 0],
}


def test_the_logprobs_reply_scores_unmutated(replying):
    remote = ThroughLogprobs(_terminal_remote(replying, framed(LOGPROBS_REPLY)))
    loss = generative_loss(remote, "img", None, ("a", "b"))
    assert loss.per_token == TWO_TOKENS_AND_A_TERMINAL


@PROPERTY
@given(data=st.data())
def test_logprobs_reply(replying, data):
    remote = ThroughLogprobs(_terminal_remote(replying, mutate_framed(LOGPROBS_REPLY, data)))
    # as for a score reply, and VocabularyError for a token missing from a
    # distribution
    allowed = (TransportError, NormalizationError, InfiniteLossError, VocabularyError)
    accepted_or(allowed, generative_loss, remote, "img", None, ("a", "b"))


# mutations reach each dimension of a shape and the tail
EMBED_REPLY = {"image": wire([0.6, 0.8]), "texts": wire([[1.0, 0.0], [0.0, 1.0]])}
EMBED_INSTANCE = RankingInstance(
    image_id="img", anchor_kind=AnchorKind.OBJECT, anchor="cup",
    candidates=("red", "blue"), positives=frozenset({0}),
)


def test_the_embed_reply_scores_unmutated(replying):
    url = _reply_with(replying, framed(EMBED_REPLY))
    scored = rank_instance(
        RemoteBackend(url, max_retries=0), EMBED_INSTANCE, parse_template("{A}"),
        Method.CONTRASTIVE,
    )
    assert len(scored.scores) == 2


@PROPERTY
@given(data=st.data())
def test_embed_reply(replying, data):
    url = _reply_with(replying, mutate_framed(EMBED_REPLY, data))
    remote = RemoteBackend(url, max_retries=0)
    accepted_or(
        (TransportError, NormalizationError),
        rank_instance, remote, EMBED_INSTANCE, parse_template("{A}"), Method.CONTRASTIVE,
    )


# -- loopback requests: 200 or 400, and a malformed token list gets 400 -----


@pytest.fixture(scope="module")
def serving():
    spec = random_world(seed=6, n_objects=3, n_attributes=5, attrs_per_object=2)
    scenes = sample_scenes(spec, [2])
    backend = OracleBackend(spec, scenes)
    word = spec.objects[0]
    with LoopbackServer(backend) as url, requests.Session() as session:
        yield session, url, scenes[0].image_id, word


def _token_lists_ok(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(tokens, list) and all(isinstance(t, str) for t in tokens) for tokens in value
    )


@pytest.mark.parametrize("path", ["/v1/score", "/v1/logprobs", "/v1/embed"])
@PROPERTY
@given(data=st.data())
def test_loopback_request(serving, path, data):
    session, url, image_id, word = serving
    request = {
        "request_id": "r", "image_id": image_id, "region": [0, 0, 10.5, 10],
        "queries": [{"prefix": []}, {"prefix": [word]}], "texts": [[word], [word, "is"]],
        "sentences": [[word], [word, "is"]], "terminal": True,
    }
    body = mutate(request, data)
    resp = session.post(
        f"{url}{path}", data=to_json(body), headers={"Content-Type": "application/json"},
        timeout=10,
    )
    assert resp.status_code in (200, 400), resp.text
    queries = body.get("queries", [])
    prefixes_ok = isinstance(queries, list) and all(isinstance(q, dict) for q in queries) and (
        _token_lists_ok([q.get("prefix") for q in queries])
    )
    lists_ok = all(_token_lists_ok(body.get(field, [])) for field in ("texts", "sentences"))
    if not prefixes_ok or not lists_ok or not isinstance(body.get("terminal", False), bool):
        assert resp.status_code == 400, resp.text


# -- one answer rule: a backend scores in process exactly as over the wire ---
#
# A differential test (McKeeman, "Differential Testing for Software", 1998):
# one backend answers what each example sets, and is scored in process and
# through a LoopbackServer and a RemoteBackend.  Either both give
# repr-equal scores, or both raise a GenretError.  The draws start from a
# valid answer and, most of the time, recast or replace a part of it.


class _Answering(ScorerBackend):
    """Answers what the example set: for each prefix, `dists[len(prefix) %
    len(dists)]`, then `extra` distributions more (or fewer); `positions`
    from score_sentences once it is set, else the base class's adapter over
    those distributions; `pair` from embed_batch, or once `rows` is set, the
    base class's per-item batch over `image` and `rows[sentence]`."""

    dists, extra = [TokenDistribution({})], 0
    positions = pair = image = rows = None

    def next_token_distributions(self, image_id, region, prefixes):
        served = [self.dists[len(p) % len(self.dists)] for p in prefixes]
        return (served + self.dists[:1] * self.extra)[: len(prefixes) + self.extra]

    def score_sentences(self, image_id, region, sentences):
        if self.positions is None:
            return super().score_sentences(image_id, region, sentences)
        return self.positions

    def embed_batch(self, image_id, region, sentences):
        if self.rows is not None:
            return super().embed_batch(image_id, region, sentences)
        return self.pair

    def embed_image(self, image_id, region):
        return self.image

    def embed_text(self, tokens):
        return self.rows[tokens]


class _PerItem(ScorerBackend):
    """Forwards embed_image and embed_text only, as a tracing proxy does, so
    the base class's embed_batch asks for each item on its own."""

    def __init__(self, inner):
        self._inner = inner

    def next_token_distributions(self, image_id, region, prefixes):
        raise AssertionError("the engine asks for embeddings only")

    def embed_image(self, image_id, region):
        return self._inner.embed_image(image_id, region)

    def embed_text(self, tokens):
        return self._inner.embed_text(tokens)


@pytest.fixture(scope="module")
def answering():
    backend = _Answering()
    with LoopbackServer(backend) as url:
        yield backend, RemoteBackend(url, max_retries=0)


def _outcome(backend, candidates, method) -> str:
    instance = RankingInstance(
        image_id="img", anchor_kind=AnchorKind.OBJECT, anchor="cup",
        candidates=candidates, positives=frozenset({0}),
    )
    try:
        scored = rank_instance(backend, instance, parse_template("{A}"), method)
    except GenretError:
        return "GenretError"
    return repr((scored.scores, scored.per_token))


def _differ(answering, method, candidates, set_answer, per_item=False, logprobs=False) -> None:
    """Score `candidates` in process and over the wire, once `set_answer`
    set the backend's answer; with `per_item`, each through _PerItem.  With
    `logprobs`, the wire is also read through ThroughLogprobs: the server's
    /v1/logprobs replies, decoded and scored by the client's adapter, as
    well as its /v1/score reply, where the server runs the adapter."""
    backend, remote = answering
    set_answer(backend)
    remote.capabilities = backend.capabilities
    near, far = (_PerItem(backend), _PerItem(remote)) if per_item else (backend, remote)
    expected = _outcome(near, candidates, method)
    assert _outcome(far, candidates, method) == expected
    if logprobs:
        assert _outcome(ThroughLogprobs(remote), candidates, method) == expected


CANDIDATES = st.sampled_from([("a",), ("b",), ("a", "b"), ("a b",), ("b", "a b", "a")])
NUMPY_SCALARS = st.one_of(
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
)
ANY_NUMBER = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([10**308, 2**1024 - 2**970, 2**1024 - 2**970 - 1, 2**53 + 1, 2**64 + 1]),
    st.booleans(),
    st.fractions(max_denominator=7),
    NUMPY_SCALARS,
)


def _held(value: float):
    """`value` as a backend may hold it: a value of another type that
    equals it, or any number at all."""
    forms = [np.float64(value), np.float32(value), Fraction(value), repr(value)]
    if value.is_integer():
        forms += [int(value), np.int64(value), np.uint8(value), bool(value)]
    return st.sampled_from(forms) | ANY_NUMBER


# (p_a, p_b, terminal_p): each sums to one
NORMALIZED = [
    (0.5, 0.5, None), (0.25, 0.75, None), (0.1, 0.9, None), (1.0, 0.0, None),
    (0.25, 0.25, 0.5), (0.5, 0.25, 0.25), (0.75, 0.25, 0.0),
]


def _now_and_then(draw, one_in: int) -> bool:
    """True once in `one_in` draws."""
    return not draw(st.integers(0, one_in - 1))


@st.composite
def distributions(draw):
    """A distribution over "a" and "b", each value a float most of the
    time, and now and then a token no sentence realizes."""
    values = [
        draw(_held(v), label="held") if v is not None and _now_and_then(draw, 5) else v
        for v in draw(st.sampled_from(NORMALIZED))
    ]
    probs = {"a": values[0], "b": values[1]}
    if _now_and_then(draw, 6):
        token = draw(st.sampled_from(["c", 2, None, b"c", 0.5]), label="token")
        probs[token] = draw(st.just(0.0) | _held(0.0), label="value")
    return TokenDistribution(probs, values[2])


@st.composite
def generative_answers(draw):
    dists = [draw(distributions()) for _ in range(1 + _now_and_then(draw, 3))]
    # a backend with a terminal token serves one, most of the time
    has_terminal = (dists[0].terminal_p is not None) != _now_and_then(draw, 8)
    extra = draw(st.sampled_from([-1, 1])) if _now_and_then(draw, 8) else 0
    return dists, has_terminal, extra


def _serving(dists, has_terminal, extra):
    def set_answer(backend):
        backend.dists, backend.extra, backend.positions = dists, extra, None
        backend.capabilities = Capabilities(has_terminal_token=has_terminal)
    return set_answer


@PROPERTY
@given(answer=generative_answers(), candidates=CANDIDATES)
# answers the loopback server and the engine once judged by different rules
@example(answer=([TokenDistribution({"a": 0.5, "b": "x"})], False, 0), candidates=("a",))
@example(answer=([TokenDistribution({"a": 1.0, "c": Fraction(0)})], False, 0), candidates=("a",))
@example(answer=([TokenDistribution({"a": 1.0, 2: 0.0})], False, 0), candidates=("a",))
@example(answer=([TokenDistribution({"a": 1.0}, np.int64(0))], False, 0), candidates=("a",))
# each int a float can hold, their sum not
@example(answer=([TokenDistribution({"a": 10**308, "b": 10**308})], False, 0), candidates=("a",))
# no TokenDistribution, and probs that are no mapping
@example(answer=([None], False, 0), candidates=("a",))
@example(answer=([TokenDistribution(["a"])], False, 0), candidates=("a",))
def test_a_distribution_scores_alike_in_process_and_over_the_wire(answering, answer, candidates):
    _differ(answering, Method.GENERATIVE, candidates, _serving(*answer), logprobs=True)


UNIT = [(0.6, 0.8), (1.0, 0.0), (0.0, 1.0), (0.8, -0.6)]
RECASTS = [
    lambda a: a.astype(np.float32),
    lambda a: a.astype(np.int64),
    lambda a: a.astype(bool),
    lambda a: a.astype(str),
    lambda a: a.astype(object),
    lambda a: a.astype(">f8"),
    lambda a: a.tolist(),
    lambda a: a[None],
    lambda a: a[:-1],
    lambda a: 2 * a,
    lambda a: np.where(a == a.flat[0], np.nan, a),
    lambda a: np.asfortranarray(a.T),
    lambda a: np.repeat(a, 2, axis=-1)[..., ::2],  # a strided view of the same values
]
ANY_ARRAY = hnp.arrays(
    hnp.scalar_dtypes(), hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
) | hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3))


@st.composite
def answered(draw, array: np.ndarray):
    """`array` most of the time, else recast, or any array at all."""
    if not _now_and_then(draw, 4):
        return array
    return draw(st.sampled_from(RECASTS).map(lambda recast: recast(array)) | ANY_ARRAY)


@st.composite
def embed_cases(draw):
    """Candidates, and an embed_batch answer for their sentences."""
    candidates = draw(CANDIDATES)
    n = len(candidates)
    image = np.array(draw(st.sampled_from(UNIT)))
    texts = np.array(draw(st.lists(st.sampled_from(UNIT), min_size=n, max_size=n)))
    pair = (draw(answered(image)), draw(answered(texts)))
    if _now_and_then(draw, 8):
        return candidates, draw(
            st.sampled_from([pair[0], pair[:1], (*pair, pair[1]), None, "ab", list(pair)])
        )
    return candidates, pair


@st.composite
def per_item_cases(draw):
    """Candidates, an embed_image answer, and each sentence's embed_text
    answer."""
    candidates = draw(CANDIDATES)
    image, *rows = (
        draw(answered(np.array(draw(st.sampled_from(UNIT))))) for _ in range(len(candidates) + 1)
    )
    return candidates, image, {tuple(c.split()): row for c, row in zip(candidates, rows)}


def _embedding(pair=None, image=None, rows=None):
    def set_answer(backend):
        backend.pair, backend.image, backend.rows = pair, image, rows
    return set_answer


@st.composite
def score_cases(draw):
    """Candidates, whether the backend has a terminal token, and a
    score_sentences answer for their sentences."""
    candidates = draw(CANDIDATES)
    has_terminal = draw(st.booleans())
    n = sum(len(c.split()) + has_terminal for c in candidates)
    p = np.array(draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=n, max_size=n)))
    pair = (draw(answered(p)), draw(answered(np.ones(n))))
    if _now_and_then(draw, 8):
        pair = draw(st.sampled_from([pair[0], pair[:1], (*pair, pair[1]), None, "ab", list(pair)]))
    return candidates, has_terminal, pair


def _scoring(has_terminal, positions):
    def set_answer(backend):
        backend.positions = positions
        backend.capabilities = Capabilities(has_terminal_token=has_terminal)
    return set_answer


@PROPERTY
@given(case=score_cases())
def test_a_score_answer_scores_alike_in_process_and_over_the_wire(answering, case):
    candidates, has_terminal, positions = case
    _differ(answering, Method.GENERATIVE, candidates, _scoring(has_terminal, positions))


@PROPERTY
@given(case=embed_cases())
# an image of [True, False] and rows of ["1.0", "0"]: unit vectors at
# distance 0 once converted
@example(case=(("a",), (np.array([True, False]), np.array([["1.0", "0"]]))))
def test_an_embed_batch_scores_alike_in_process_and_over_the_wire(answering, case):
    candidates, pair = case
    _differ(answering, Method.CONTRASTIVE, candidates, _embedding(pair))


@PROPERTY
@given(case=per_item_cases())
def test_per_item_embeddings_score_alike_in_process_and_over_the_wire(answering, case):
    candidates, image, rows = case
    _differ(
        answering, Method.CONTRASTIVE, candidates, _embedding(image=image, rows=rows),
        per_item=True,
    )
