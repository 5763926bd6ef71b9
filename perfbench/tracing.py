"""Spans, counters and the wrappers that record them around genret's layers.

Nothing under src/ is edited.  Layers are observed from outside in two ways:

- `Instrumentation` swaps the public names `genret.cli` and
  `genret.scoring` look up (`batch_rank`, `read_instances`, `fit`, ...) for
  wrappers while one CLI call runs, and restores them afterwards;
- backends are wrapped through injection points the API already takes: the
  `OracleBackend`/`RemoteBackend`/`CachedScoreBackend` objects the CLI builds
  are handed to `batch_rank` inside proxies, and `RemoteBackend` gets a
  counting `requests.Session`.

Only traced rounds install any of this; untraced rounds run the CLI as is.

A region is a timed interval on one layer.  Its self time is its duration
minus the part of it covered by its child regions, so nested layers never
count the same second twice.  Regions marked `record` are also kept as spans
(id, parent, name, start, end, ident) and written out when the run ends.
Hot leaves (cache lookups) go through `leaf`, and per-sentence embeddings
are regions with `record=False`: both add to the totals and to the parent's
covered time without keeping a span object.

Counters are exact and deterministic; timings are not, and the two are kept
in separate dictionaries so counters can be compared for equality.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from itertools import count
from time import perf_counter
from urllib.parse import urlsplit

import requests

from genret import cli, scoring
from genret.backends import (
    CachedScoreBackend,
    OracleBackend,
    RemoteBackend,
    ScorerBackend,
    SentenceScoreSource,
)
from genret.core import Method
from genret.errors import CacheMissError


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class _Region:
    __slots__ = ("name", "ident", "sid", "span_parent", "parent", "start", "kids")

    def __init__(self, name, ident, sid, span_parent, parent):
        self.name = name
        self.ident = ident
        self.sid = sid
        self.span_parent = span_parent
        self.parent = parent
        self.kids: list[tuple[float, float]] = []


class Tracer:
    """Regions, spans, counters and latency samples of one traced scope."""

    def __init__(self):
        self.spans: list[tuple] = []
        # name -> [calls, busy seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = count(1)
        # parent for regions opened on worker threads (batch_rank's pool)
        self.fallback: _Region | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Region | None:
        stack = self._stack()
        return stack[-1] if stack else self.fallback

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def reset(self) -> None:
        with self._lock:
            self.totals.clear()
            self.counters.clear()
            self.samples.clear()
            self.spans.clear()

    @contextmanager
    def region(self, name: str, ident=None, record: bool = True):
        parent = self.current()
        sid = next(self._ids) if record else None
        span_parent = None
        if parent is not None:
            span_parent = parent.sid if parent.sid is not None else parent.span_parent
        r = _Region(name, ident, sid, span_parent, parent)
        stack = self._stack()
        stack.append(r)
        r.start = perf_counter()
        try:
            yield r
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - r.start
            own = dur - covered(r.kids, r.start, end)
            if parent is not None:
                parent.kids.append((r.start, end))
            with self._lock:
                t = self.totals[name]
                t[0] += 1
                t[1] += dur
                t[2] += own
                if record:
                    self.spans.append((sid, span_parent, name, r.start, end, ident))

    def leaf(self, name: str, start: float, end: float) -> None:
        """Account a childless interval without keeping a span for it."""
        parent = self.current()
        if parent is not None:
            parent.kids.append((start, end))
        with self._lock:
            t = self.totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    @classmethod
    def from_stats(cls, stats: dict) -> "Tracer":
        """Rebuild totals and counters sent as JSON by another process."""
        t = cls()
        t.counters.update(stats.get("counters", {}))
        t.totals.update(stats.get("totals", {}))
        return t

    def busy(self, prefix: str) -> float:
        """Summed duration of every region whose name starts with `prefix`."""
        return sum(t[1] for n, t in self.totals.items() if n.startswith(prefix))

    def self_time(self, prefix: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if n.startswith(prefix))

    def write_spans(self, path, scope: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, start, end, ident in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "scope": scope,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "ident": ident,
                        }
                    )
                )
                fh.write("\n")


def _head_bytes(first_line: str, headers) -> int:
    return len(first_line) + 2 + sum(len(f"{k}: {v}\r\n") for k, v in headers.items()) + 2


class CountingSession(requests.Session):
    """Session handed to RemoteBackend: counts POSTs and HTTP bytes, and
    times each POST as a span carrying the request id.  Apart from that it
    is the default session the CLI's RemoteBackend would make."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def post(self, url, data=None, json=None, **kwargs):
        t = self.tracer
        kind = urlsplit(url).path.rsplit("/", 1)[-1]
        rid = json.get("request_id") if isinstance(json, dict) else None
        t.count(f"backends.remote.posts.{kind}")
        with t.region("backends.remote.post", ident=rid) as r:
            try:
                resp = super().post(url, data=data, json=json, **kwargs)
            except requests.RequestException:
                t.count("backends.remote.failed_posts")
                raise
        t.sample("backends.remote.post_ms", (perf_counter() - r.start) * 1e3)
        if resp.status_code != 200:
            t.count("backends.remote.failed_posts")
        req = resp.request
        body = req.body or b""
        t.count(
            "backends.remote.bytes_sent",
            _head_bytes(f"{req.method} {req.path_url} HTTP/1.1", req.headers) + len(body),
        )
        version = {10: "HTTP/1.0", 11: "HTTP/1.1"}.get(resp.raw.version, "HTTP/1.1")
        t.count(
            "backends.remote.bytes_received",
            _head_bytes(f"{version} {resp.status_code} {resp.reason}", resp.headers)
            + len(resp.content),
        )
        return resp


class TracedScorer(ScorerBackend):
    """Token-level backend proxy: counts what the scoring engine asks of the
    backend and times each call on the backend's layer."""

    def __init__(self, inner: ScorerBackend, tracer, layer: str, record: bool = True):
        self._inner = inner
        self._t = tracer
        self._layer = layer
        self._record = record
        self.capabilities = inner.capabilities
        self.vocabulary = inner.vocabulary

    def next_token_distribution(self, image_id, region, prefix):
        return self.next_token_distributions(image_id, region, [prefix])[0]

    def next_token_distributions(self, image_id, region, prefixes):
        t = self._t
        with t.region(f"{self._layer}.dist", ident=image_id, record=self._record):
            dists = self._inner.next_token_distributions(image_id, region, prefixes)
        t.count("scoring.prefixes_requested", len(prefixes))
        t.count(f"{self._layer}.dist_calls", len(prefixes))
        t.count(
            "scoring.dist_entries_served",
            sum(len(d.probs) + (d.terminal_p is not None) for d in dists),
        )
        return dists

    def embed_image(self, image_id, region):
        self._t.count(f"{self._layer}.embed_image_calls")
        with self._t.region(f"{self._layer}.embed", ident=image_id, record=self._record):
            return self._inner.embed_image(image_id, region)

    def embed_text(self, tokens):
        self._t.count(f"{self._layer}.embed_text_calls")
        with self._t.region(f"{self._layer}.embed", record=False):
            return self._inner.embed_text(tokens)


class TracedCache(SentenceScoreSource):
    """Score-cache proxy: counts and times every lookup."""

    def __init__(self, inner: CachedScoreBackend, tracer):
        self._inner = inner
        self._t = tracer

    def __len__(self):
        return len(self._inner)

    def combos(self):
        return self._inner.combos()

    def sentence_score(self, *key):
        t = self._t
        t.count("backends.cached.lookups")
        start = perf_counter()
        try:
            return self._inner.sentence_score(*key)
        except CacheMissError:
            t.count("backends.cached.misses")
            raise
        finally:
            t.leaf("backends.cached.lookup", start, perf_counter())


class Instrumentation:
    """Wrappers over the names the CLI looks up, installed per CLI call of a
    traced round: every layer below is timed and counted."""

    def __init__(self):
        self.tracer = Tracer()
        self._ctx = threading.local()

    # -- names to wrap ------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object]]:
        span = self._span
        return [
            (cli, "batch_rank", self._batch_rank(cli.batch_rank)),
            (cli, "RemoteBackend", self._remote),
            (cli, "OracleBackend", self._oracle),
            (cli, "CachedScoreBackend", self),
            (cli, "rank_instance", self._rank_instance(cli.rank_instance)),
            (scoring, "rank_instance", self._rank_instance(scoring.rank_instance)),
            (scoring, "render", self._render(scoring.render)),
            (cli, "read_instances", span("core.read_instances", cli.read_instances, "core.instances_read")),
            (cli, "write_instances", span("core.write_instances", cli.write_instances)),
            (cli, "random_world", span("world.sample_scenes", cli.random_world)),
            (cli, "sample_scenes", span("world.sample_scenes", cli.sample_scenes)),
            (cli, "make_instances", span("world.make_instances", cli.make_instances)),
            (cli, "write_world", span("world.write", cli.write_world)),
            (cli, "write_scenes", span("world.write", cli.write_scenes)),
            (cli, "scenes_to_records", span("world.write", cli.scenes_to_records)),
            (cli, "read_world", span("world.read", cli.read_world)),
            (cli, "read_scenes", span("world.read", cli.read_scenes)),
            (cli, "parse_scene_graph", span("dataset.parse_scene_graph", cli.parse_scene_graph)),
            (cli, "build_stats", span("dataset.build_stats", cli.build_stats)),
            (cli, "build_split", self._build_split(cli.build_split)),
            (cli, "write_scene_graph", span("dataset.write", cli.write_scene_graph)),
            (cli, "write_score_cache", span("backends.cached.write", cli.write_score_cache)),
            (cli, "fit", self._fit(cli.fit)),
            (cli, "apply_calibration", span("calibration.apply", cli.apply_calibration)),
            (cli, "read_table", span("calibration.io", cli.read_table)),
            (cli, "write_table", span("calibration.io", cli.write_table)),
            (cli, "compute_report", self._report(cli.compute_report)),
        ]

    @contextmanager
    def installed(self):
        plan = self._plan()
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in plan]
        for mod, name, fn in plan:
            setattr(mod, name, fn)
        try:
            yield
        finally:
            for mod, name, fn in reversed(saved):
                setattr(mod, name, fn)

    # -- wrappers ------------------------------------------------------

    def _span(self, name, fn, counter=None):
        def wrapper(*args, **kwargs):
            with self.tracer.region(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                self.tracer.count(counter, len(out))
            return out

        return wrapper

    def _batch_rank(self, fn):
        def wrapper(backend, instances, template, method, parallelism=1, **kwargs):
            t = self.tracer
            with t.region("scoring.batch_rank", ident=f"{Method(method).value}/{template.name}") as r:
                outer, t.fallback = t.fallback, r
                try:
                    return fn(backend, instances, template, method, parallelism, **kwargs)
                finally:
                    t.fallback = outer

        return wrapper

    def _rank_instance(self, fn):
        def wrapper(backend, instance, template, method, *args, **kwargs):
            t = self.tracer
            token_level = isinstance(backend, ScorerBackend)
            generative = Method(method) is Method.GENERATIVE
            if token_level:
                t.count("scoring.gen_instances" if generative else "scoring.con_instances")
                if generative:
                    self._ctx.terminal = int(backend.capabilities.has_terminal_token)
            else:
                t.count("scoring.replayed_instances")
            try:
                with t.region("scoring.rank_instance", ident=f"{instance.image_id}/{instance.anchor}"):
                    return fn(backend, instance, template, method, *args, **kwargs)
            finally:
                self._ctx.terminal = None

        return wrapper

    def _render(self, fn):
        # Every rendered sentence costs one position per token (plus the
        # terminal) when it is scored generatively; the loss reads exactly
        # one entry of a served distribution at each position.
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            t = self.tracer
            t.count("scoring.sentences")
            terminal = getattr(self._ctx, "terminal", None)
            if terminal is not None:
                t.count("scoring.prefix_positions", len(out) + terminal)
            return out

        return wrapper

    def _oracle(self, *args, **kwargs):
        with self.tracer.region("backends.oracle.setup"):
            backend = OracleBackend(*args, **kwargs)
        return TracedScorer(backend, self.tracer, "backends.oracle")

    def _remote(self, endpoint, **kwargs):
        backend = RemoteBackend(endpoint, session=CountingSession(self.tracer), **kwargs)
        return TracedScorer(backend, self.tracer, "backends.remote")

    def from_file(self, path):
        """Stands in for CachedScoreBackend.from_file."""
        t = self.tracer
        with t.region("backends.cached.load"):
            cache = CachedScoreBackend.from_file(path)
        t.count("backends.cached.loads")
        t.count("backends.cached.records", len(cache))
        return TracedCache(cache, t)

    def _build_split(self, fn):
        def wrapper(*args, **kwargs):
            with self.tracer.region("dataset.build_split"):
                instances, manifest = fn(*args, **kwargs)
            self.tracer.count("dataset.instances_built", len(instances))
            return instances, manifest

        return wrapper

    def _fit(self, fn):
        def wrapper(scored, config, validation=None):
            with self.tracer.region("calibration.fit"):
                table, history = fn(scored, config, validation=validation)
            self.tracer.count("calibration.fit_steps", len(history.steps))
            self.tracer.count(
                "calibration.fit_examples", sum(len(s.instance.labels()) for s in scored)
            )
            return table, history

        return wrapper

    def _report(self, fn):
        def wrapper(scored, *args, **kwargs):
            with self.tracer.region("metrics.compute_report"):
                out = fn(scored, *args, **kwargs)
            self.tracer.count("metrics.reports")
            self.tracer.count("metrics.scored_instances", len(scored))
            return out

        return wrapper
