"""Backend interfaces the scoring engine runs against.

A ScorerBackend answers token-level questions about one image at a time.
The generative side has two methods:

- `score_sentences(image_id, region, sentences)` is what the scoring
  engine calls, once per instance, and what the `/v1/score` wire carries.
  It returns `(p, total)`, two 1-D float64 arrays with an entry for each
  position of each sentence in order, and one more for each sentence's
  end-of-sentence probability when the backend declares a terminal token
  (`sentence_ends` gives where each sentence's entries end): p is the
  probability of the token realized there given the image and the tokens
  before it, and total the mass of that position's whole distribution (1
  for a normalized backend).  The engine checks both arrays whole (shape,
  totals within NORM_TOL, 0 < p <= total) before it takes a logarithm.
- `next_token_distributions(image_id, region, prefixes)` returns whole
  next-token distributions, one per prefix, and may return one object for
  many prefixes.  It is the one abstract method, and the older
  `/v1/logprobs` wire carries it, each distinct object listed once.

The default `score_sentences` is an adapter over `next_token_distributions`,
so a backend that can only serve whole distributions (the uniform backend,
test doubles and proxies) implements nothing more.  It asks once for every
distinct prefix the sentences need (sentences of a template family share
most of theirs) and checks each distinct object it is served once, at the
first prefix that object answers: `check_served`, then what the engine
cannot see in the two arrays, a declared terminal that was not served and a
negative entry (which may be one no sentence realizes).  Each
distribution's total goes into the `total` array, and the engine judges it
there.  A backend that can reach the realized tokens directly overrides it
and serves no V-sized distributions at all: the oracle walks its caption
trie, and the remote client asks its server for the two arrays, which the
server computes with its own backend's `score_sentences`.

Every backend is generative.  A backend without a contrastive side keeps the
base class's `embed_image`/`embed_text`, which raise ConfigurationError on
the first contrastive request.  The engine asks for embeddings through
`embed_batch(image_id, region, sentences)`, which returns `(image, texts)`,
two float64 arrays of shape (d,) and (n, d), one row per sentence in order
((0, d) for no sentences); it checks the pair with `array_pair`, then the
shapes and unit norms.  The default `embed_batch` makes one `embed_image`
and one `embed_text` call per sentence and stacks the rows with
`stacked_rows`.

The answer rule is written once, here, and nothing converts an answer:
`check_served` takes a TokenDistribution whose probs map strings to
probabilities that pass core's wire rule, `position_pair` a pair of float64
arrays with one entry per position, `array_pair` a pair of float64 arrays,
`stacked_rows` float64 rows of one shape; anything else is a
NormalizationError.  The engine and the loopback server both call them,
so a backend scores over the wire exactly as it does in process.
Capabilities say how to read a backend's answers.  Its one flag,
has_terminal_token, means each sentence's scores end with the
end-of-sentence probability (served distributions carry one), and
generative losses get a terminal term.  batch_rank may call one backend
from several threads (`parallelism`); one that is not thread-safe runs at
parallelism 1, the default.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Sequence

import numpy as np

from ..core import Method, RankingInstance, non_numbers
from ..errors import ConfigurationError, NormalizationError, VocabularyError

#: how far a distribution's total (or an embedding's norm) may be from 1
NORM_TOL = 1e-6


@dataclass(frozen=True)
class Capabilities:
    has_terminal_token: bool = False


@dataclass(frozen=True)
class TokenDistribution:
    """One next-token distribution; terminal_p is the end-of-sentence mass.

    A backend may serve one object for several prefixes, within a batch and
    across batches (the oracle keeps one per trie node), so callers must not
    mutate `probs`; the oracle serves it read-only.
    """

    probs: Mapping[str, float]
    terminal_p: float | None = None

    def total(self) -> float:
        # the entries as the floats the wire carries, summed in order
        return sum(map(float, self.probs.values()), 0.0) + float(self.terminal_p or 0.0)


class ScorerBackend(ABC):
    """Token-level scorer. Region is forwarded opaquely; backends that see
    whole images may ignore it."""

    capabilities: Capabilities = Capabilities()
    #: finite token set, or None when the backend cannot enumerate it
    vocabulary: frozenset[str] | None = None

    @abstractmethod
    def next_token_distributions(
        self, image_id: str, region, prefixes: Sequence[tuple[str, ...]]
    ) -> list[TokenDistribution]:
        """One distribution per prefix, in order."""

    def score_sentences(
        self, image_id: str, region, sentences: Sequence[tuple[str, ...]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(p, total): every position's realized probability and position
        total, as two float64 arrays over the sentences in order, each
        sentence's terminal last when one is declared.

        This default serves them from `next_token_distributions`: one call
        for every distinct prefix, each distinct served object checked
        once, at the first prefix it answers.
        """
        has_terminal = self.capabilities.has_terminal_token
        needed: dict[tuple[str, ...], None] = {}
        for s in sentences:
            last = len(s) + 1 if has_terminal else len(s)
            for i in range(last):
                needed.setdefault(s[:i], None)
        prefixes = list(needed)
        served = served_distributions(self, image_id, region, prefixes)
        dists = dict(zip(prefixes, served))
        totals: dict[int, float] = {}  # id of each checked object -> its total; all stay alive
        for prefix, dist in dists.items():
            if id(dist) not in totals:
                totals[id(dist)] = _check_distribution(dist, has_terminal, prefix)

        p: list = []
        total: list[float] = []
        for s in sentences:
            for i, tok in enumerate(s):
                dist = dists[s[:i]]
                q = dist.probs.get(tok)
                if q is None:
                    raise VocabularyError(f"token {tok!r} missing from served distribution")
                p.append(q)
                total.append(totals[id(dist)])
            if has_terminal:
                dist = dists[s]
                p.append(dist.terminal_p)
                total.append(totals[id(dist)])
        return np.array(p, dtype=float), np.array(total, dtype=float)

    def embed_image(self, image_id: str, region) -> np.ndarray:
        raise ConfigurationError(
            f"{type(self).__name__} has no contrastive support"
        )

    def embed_text(self, tokens: tuple[str, ...]) -> np.ndarray:
        raise ConfigurationError(
            f"{type(self).__name__} has no contrastive support"
        )

    def embed_batch(
        self, image_id: str, region, sentences: Sequence[tuple[str, ...]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(image, texts): the image embedding, shape (d,), and the
        sentences' embeddings in order, shape (n, d), as float64 arrays.

        This default makes one `embed_image` and one `embed_text` call per
        sentence and stacks the rows with `stacked_rows`.  Backends with
        per-call overhead (the oracle, the remote client) override it.
        """
        image = self.embed_image(image_id, region)
        if not sentences:
            return image, np.empty((0, np.size(image)))
        return image, stacked_rows([self.embed_text(s) for s in sentences])


def served_distributions(backend, image_id: str, region, prefixes) -> list[TokenDistribution]:
    """`backend`'s distributions for `prefixes`, once it served one each."""
    served = list(backend.next_token_distributions(image_id, region, prefixes))
    if len(served) != len(prefixes):
        raise NormalizationError(
            f"backend returned {len(served)} distributions for {len(prefixes)} prefixes"
        )
    return served


def check_served(dist: TokenDistribution, prefix) -> None:
    """Raise a NormalizationError naming `prefix` unless the served `dist`
    is a TokenDistribution whose probs is a mapping, every token of it is a
    string and every probability, terminal_p included, passes core's wire
    rule (no bool, string, Fraction or int past the float range)."""
    if not isinstance(dist, TokenDistribution):
        raise NormalizationError(
            f"backend served {_describe(dist)}, not a TokenDistribution, for prefix {list(prefix)}"
        )
    if not isinstance(dist.probs, Mapping):
        raise NormalizationError(
            f"backend served probs as {_describe(dist.probs)}, not a mapping, "
            f"for prefix {list(prefix)}"
        )
    if not all(map(isinstance, dist.probs, repeat(str))):
        token = next(t for t in dist.probs if not isinstance(t, str))
        raise NormalizationError(
            f"backend served a non-string token {token!r} for prefix {list(prefix)}"
        )
    values = list(dist.probs.values())
    if dist.terminal_p is not None:
        values.append(dist.terminal_p)
    bad = non_numbers(values)
    if bad:
        raise NormalizationError(
            f"backend served a non-numeric probability {bad[0]!r} for prefix {list(prefix)}"
        )


def _check_distribution(dist: TokenDistribution, has_terminal: bool, prefix) -> float:
    """A served distribution's total, once it passed `check_served` and
    served a declared terminal and no negative entry; the errors name
    `prefix`.  The engine judges the total."""
    check_served(dist, prefix)
    if has_terminal and dist.terminal_p is None:
        raise NormalizationError(
            f"backend declares a terminal token but served none for {list(prefix)}"
        )
    # a NaN entry passes here and fails the engine's total
    if min(dist.probs.values(), default=0.0) < 0 or (dist.terminal_p or 0.0) < 0:
        raise NormalizationError(f"negative probability for prefix {list(prefix)}")
    return dist.total()


def sentence_ends(sentences: Sequence[Sequence[str]], has_terminal: bool) -> list[int]:
    """The flat index one past each sentence's last position."""
    return list(accumulate(len(s) + has_terminal for s in sentences))


def position_pair(answer, ends: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """A `score_sentences` answer, once it is a pair of float64 arrays (p,
    total) that each hold one entry per position `ends` counts (see
    `sentence_ends`)."""
    n = ends[-1] if ends else 0
    p, total = array_pair(answer, ("p", "total"), ((n,), (n,)))
    for array in (p, total):
        if array.size != n:
            raise NormalizationError(
                f"backend scored {array.size} positions for {len(ends)} sentences, expected {n}"
            )
    return p, total


def array_pair(answer, names: tuple[str, str], shapes) -> tuple[np.ndarray, np.ndarray]:
    """A backend's `answer`, once it is a pair of float64 arrays with the
    ranks of `shapes`; the caller checks the sizes.  The errors name each
    array by `names` and give its expected shape (a str dimension: any)."""
    try:
        first, second = answer
    except (TypeError, ValueError):
        raise NormalizationError(
            f"backend returned {_describe(answer)}, expected two arrays ({', '.join(names)})"
        ) from None
    return _checked_array(names[0], first, shapes[0]), _checked_array(names[1], second, shapes[1])


def _checked_array(name: str, array, shape: tuple) -> np.ndarray:
    """`array`, once it is a float64 array of the rank of `shape`."""
    if not (
        isinstance(array, np.ndarray) and array.dtype == np.float64 and array.ndim == len(shape)
    ):
        raise shape_error(name, array, shape)
    return array


def stacked_rows(rows: Sequence) -> np.ndarray:
    """Per-item text embeddings as one (n, d) array, once each is a float64
    array of shape (d,), one d for all; the rows are not converted."""
    for i, row in enumerate(rows):
        _checked_array(f"text embedding {i}", row, ("d",))
    try:
        return np.stack(rows)
    except ValueError as exc:
        raise NormalizationError(f"backend's text embeddings do not stack: {exc}") from None


def shape_error(name: str, array, shape: tuple) -> NormalizationError:
    dims = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
    return NormalizationError(
        f"backend returned {name} as {_describe(array)}, expected a float64 array of shape ({dims})"
    )


def _describe(value) -> str:
    if isinstance(value, np.ndarray):
        return f"an array of dtype {value.dtype} and shape {value.shape}"
    return f"a {type(value).__name__}"


class SentenceScoreSource(ABC):
    """Sentence-level scorer: returns recorded losses (and per_token rows)
    directly, with no token-level work.  This is what cache replay speaks.

    The scoring engine asks `instance_scores` once per instance.  Its
    default reads each candidate through `sentence_score`, the one abstract
    method, so a source that can only answer per candidate (a proxy that
    counts lookups, say) implements nothing more; the score cache overrides
    it with one lookup per instance.
    """

    @abstractmethod
    def sentence_score(
        self,
        image_id: str,
        region,
        anchor: str,
        template_name: str,
        method: Method,
        candidate: str,
    ) -> tuple[float, tuple[float, ...] | None]:
        ...

    def instance_scores(
        self, instance: RankingInstance, template_name: str, method: Method
    ) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...] | None, str | None]:
        """The scores of `instance`'s candidates, in order, their per_token
        rows (see `scores_and_per_token`), and the text of the one recorded
        line that holds exactly these, or None.  This default asks each
        candidate through `sentence_score` and has no line."""
        scores, per_token = scores_and_per_token(
            [
                self.sentence_score(
                    instance.image_id, instance.region, instance.anchor,
                    template_name, method, cand,
                )
                for cand in instance.candidates
            ],
            method,
        )
        return scores, per_token, None


def scores_and_per_token(
    entries: Sequence[tuple[float, tuple[float, ...] | None]], method: Method
) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...] | None]:
    """One instance's (loss, per_token row) entries as its scores and
    per_token rows; the rows are None unless the method is generative and
    every candidate has one."""
    scores, rows = zip(*entries)
    if Method(method) is Method.GENERATIVE and None not in rows:
        return scores, rows
    return scores, None
