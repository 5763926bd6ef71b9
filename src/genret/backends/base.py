"""Backend interfaces the scoring engine runs against.

A ScorerBackend answers token-level questions about one image at a time.
The generative side has two methods:

- `score_sentences(image_id, region, sentences)` is what the scoring
  engine calls, once per instance.  For each sentence it returns one
  `(p, total)` pair per position, in order: p is the probability of the
  token the sentence realizes there given the image and the tokens before
  it, and total is the mass of that position's whole distribution (which
  a normalized backend serves as 1).  A backend that declares a terminal
  token adds one last pair, the end-of-sentence probability after the
  whole sentence.  The engine checks every pair (counts, totals within
  NORM_TOL, 0 <= p <= total) before it takes a logarithm.
- `next_token_distributions(image_id, region, prefixes)` returns whole
  next-token distributions, one per prefix, and may return one object for
  many prefixes; it is the one abstract method, and what the `/v1/logprobs`
  wire carries, each distinct object listed once.

The default `score_sentences` is an adapter over `next_token_distributions`,
so a backend that can only serve whole distributions (the remote client, the
uniform backend, test doubles and proxies) implements nothing more.  It asks
once for every distinct prefix the sentences need (sentences of a template
family share most of theirs), checks each distinct distribution object it
is served once, at the first prefix that object answers, and reads the
realized entries.  The remote client builds one object per distribution a
reply lists, so over the wire too each shared distribution is checked once.  A backend that can reach the realized tokens directly
(the oracle walks its caption trie) overrides it and serves no V-sized
distributions at all.

Every backend is generative.  A backend without a contrastive side keeps the
base class's `embed_image`/`embed_text`, which raise ConfigurationError on
the first contrastive request.  The engine asks for embeddings through
`embed_batch`, whose default is built on those two per-item calls.
Capabilities say how to read a backend's answers.  Its one flag,
has_terminal_token, means each sentence's scores end with the
end-of-sentence probability (served distributions carry one), and
generative losses get a terminal term.  batch_rank may call one backend
from several threads (`parallelism`); one that is not thread-safe runs at
parallelism 1, the default.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core import Method, RankingInstance
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
        # a float sum: ints whose sum a float cannot hold make it inf, not an OverflowError
        return sum(self.probs.values(), 0.0) + (self.terminal_p or 0.0)


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
    ) -> list[list[tuple[float, float]]]:
        """Per sentence, one (realized probability, position total) pair per
        token, plus the terminal's pair last when one is declared.

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
        served = list(self.next_token_distributions(image_id, region, prefixes))
        if len(served) != len(prefixes):
            raise NormalizationError(
                f"backend returned {len(served)} distributions for {len(prefixes)} prefixes"
            )
        dists = dict(zip(prefixes, served))
        totals: dict[int, float] = {}  # id of each checked object -> its total; all stay alive
        for prefix, dist in dists.items():
            if id(dist) not in totals:
                totals[id(dist)] = _check_distribution(dist, has_terminal, prefix)

        rows = []
        for s in sentences:
            row = []
            for i, tok in enumerate(s):
                dist = dists[s[:i]]
                p = dist.probs.get(tok)
                if p is None:
                    raise VocabularyError(f"token {tok!r} missing from served distribution")
                row.append((p, totals[id(dist)]))
            if has_terminal:
                dist = dists[s]
                row.append((dist.terminal_p, totals[id(dist)]))
            rows.append(row)
        return rows

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
    ) -> tuple[np.ndarray, np.ndarray | list[np.ndarray]]:
        """Batch form: the image embedding and the sentences' embeddings in
        order, as an (n, d) array or n vectors of length d.  This default
        makes one `embed_image` and one `embed_text` call per sentence;
        backends with per-call overhead (the oracle, the remote client)
        override it."""
        return self.embed_image(image_id, region), [self.embed_text(s) for s in sentences]


def _check_distribution(dist: TokenDistribution, has_terminal: bool, prefix) -> float:
    """A served distribution's total, once it passed every whole-distribution
    check; the errors name `prefix`."""
    total = dist.total()
    # written so that a NaN total fails too
    if not abs(total - 1.0) <= NORM_TOL:
        raise NormalizationError(
            f"distribution for prefix {list(prefix)} sums to {total:.9f}"
        )
    if has_terminal and dist.terminal_p is None:
        raise NormalizationError(
            f"backend declares a terminal token but served none for {list(prefix)}"
        )
    # a NaN entry has already failed the total
    if min(dist.probs.values(), default=0.0) < 0 or (dist.terminal_p or 0.0) < 0:
        raise NormalizationError(f"negative probability for prefix {list(prefix)}")
    return total


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
    ) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...] | None]:
        """The scores of `instance`'s candidates, in order, and their
        per_token rows (see `scores_and_per_token`)."""
        return scores_and_per_token(
            [
                self.sentence_score(
                    instance.image_id, instance.region, instance.anchor,
                    template_name, method, cand,
                )
                for cand in instance.candidates
            ],
            method,
        )


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
