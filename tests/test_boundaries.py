"""One property test per input boundary: every value read from a file or
the wire is accepted or raises the GenretError its boundary names.

Each test takes a valid record, replaces one of its values (a number, a
string, a list or a whole field) with arbitrary JSON or deletes it, and
feeds the result through the public reader.  The JSON includes NaN,
+-Infinity, a `1e400` literal, a 401-digit integer, bools, "1.0" and nested
lists.  Any other exception fails the test.  Through the CLI, a bad input
exits non-zero with one `error[` line.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
import requests
from hypothesis import HealthCheck, given, settings, strategies as st

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
    """Answers every POST with the server's `reply`, echoing the request_id."""

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        reply = {"request_id": request["request_id"], **self.server.reply}
        self._send(200, to_json(reply))


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


# a sentence of two tokens: three prefixes, each served a quarter per token
# and half for the terminal
LOGPROBS_REPLY = {"results": [{"probs": {"a": 0.25, "b": 0.25}, "terminal_p": 0.5}] * 3}


@PROPERTY
@given(data=st.data())
def test_logprobs_reply(replying, data):
    url = _reply_with(replying, mutate(LOGPROBS_REPLY, data))
    remote = RemoteBackend(
        url, capabilities=Capabilities(has_terminal_token=True), max_retries=0
    )
    # a type fault is the client's TransportError; a value fault is the
    # engine's: NormalizationError, InfiniteLossError for a zero probability
    # and VocabularyError for a token missing from a distribution
    allowed = (TransportError, NormalizationError, InfiniteLossError, VocabularyError)
    accepted_or(allowed, generative_loss, remote, "img", None, ("a", "b"))


EMBED_REPLY = {"image": [0.6, 0.8], "texts": [[1.0, 0.0], [0.0, 1.0]]}
EMBED_INSTANCE = RankingInstance(
    image_id="img", anchor_kind=AnchorKind.OBJECT, anchor="cup",
    candidates=("red", "blue"), positives=frozenset({0}),
)


@PROPERTY
@given(data=st.data())
def test_embed_reply(replying, data):
    url = _reply_with(replying, mutate(EMBED_REPLY, data))
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
        yield session, url, scenes[0].scene_id, word


def _token_lists_ok(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(tokens, list) and all(isinstance(t, str) for t in tokens) for tokens in value
    )


@pytest.mark.parametrize("path", ["/v1/logprobs", "/v1/embed"])
@PROPERTY
@given(data=st.data())
def test_loopback_request(serving, path, data):
    session, url, image_id, word = serving
    request = {
        "request_id": "r", "image_id": image_id, "region": [0, 0, 10.5, 10],
        "queries": [{"prefix": []}, {"prefix": [word]}], "texts": [[word], [word, "is"]],
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
    if not prefixes_ok or not _token_lists_ok(body.get("texts", [])):
        assert resp.status_code == 400, resp.text
