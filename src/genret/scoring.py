"""Scoring engine: turn (image, sentence) pairs into retrieval losses.

Two losses, both in nats, both "lower is better":

- generative: the cross-entropy of generating the sentence token by token
  under an image-conditioned prefix model, the sum of -log p(token | image,
  prefix) over positions, plus a terminal term when the backend declares
  one.  Position 0 conditions on the image alone.
- contrastive: the euclidean distance between unit-norm image and sentence
  embeddings, which lives in [0, 2] and decreases monotonically in cosine
  similarity.  An instance's sentence embeddings are read as one (n, d)
  matrix G, checked in one vectorized norm test, and each distance is
  sqrt(d.dot(d)) over one row d of f - G: the expression np.linalg.norm
  evaluates for one vector, so a score is bit-identical whether its
  sentence was embedded alone or with others.  (A summed or einsum row
  norm would change the last bits of some scores.)

Each method has one path, a batch function over the sentences of one image
(`_generative_losses`, `_contrastive_losses`).  The single-sentence API
(`generative_loss`, `contrastive_loss`) and the ranked API (`rank_instance`)
both call it, so every score passes the same empty-sentence, vocabulary
and backend-output checks however it was asked for.  A backend without a
contrastive side fails its first contrastive call with the base class's
ConfigurationError.  Each scoring rule is checked once, here: `rank_instance`
and `batch_rank` check `method` and `length_normalize` before any backend
is asked anything.

Each batch function asks its backend once per image: `score_sentences`
with every sentence, or `embed_batch` with the image and every sentence.
`score_sentences` returns, per sentence, the realized token's probability
at each position and that position's total mass (see backends/base.py);
the backend shares the work of common prefixes, so the engine neither
deduplicates prefixes nor sees a whole distribution.  Before it takes a
logarithm the engine checks every position: the number of positions is
the sentence's length (plus the terminal when the backend declares one),
the total is within NORM_TOL of 1 (a NaN total fails), and 0 <= p <=
total; p == 0 is an InfiniteLossError.  A remote backend turns each call
into one request (`/v1/logprobs` or `/v1/embed`).

Summed log probabilities favor shorter sentences; the length_normalize flag
divides the generative value by token count and is off by default;
contrastive scoring and cache replay, which returns losses as recorded,
reject it.  Note the cost asymmetry: generative scoring spends one decoding step per token where
contrastive spends a single encoding per sentence.

Candidates are ranked by ascending score with ties broken by candidate
index, so rankings are deterministic and invariant under any per-instance
monotone transform of the scores.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .backends.base import NORM_TOL, ScorerBackend, SentenceScoreSource
from .core import (
    AnchorKind, Method, RankingInstance, ScoredInstance, Slot, Template, check_parameter, render
)
from .errors import (
    BatchScoringError,
    ConfigurationError,
    InfiniteLossError,
    NormalizationError,
    RenderError,
    VocabularyError,
)


@dataclass(frozen=True)
class GenerativeLoss:
    """Summed token losses; per_token[i] is position i's term, and the
    terminal term (when present) is the final entry."""

    value: float
    per_token: tuple[float, ...]


@dataclass(frozen=True)
class ContrastiveLoss:
    value: float


def _checked_sentences(
    backend: ScorerBackend, sentences: Sequence[Sequence[str]]
) -> list[tuple[str, ...]]:
    """The checks every sentence passes before the backend is asked anything."""
    sentences = [tuple(s) for s in sentences]
    if not all(sentences):
        raise RenderError("cannot score an empty sentence")
    vocabulary = backend.vocabulary
    if vocabulary is not None and not vocabulary.issuperset(chain.from_iterable(sentences)):
        for s in sentences:
            unknown = [t for t in s if t not in vocabulary]
            if unknown:
                raise VocabularyError(f"tokens not in backend vocabulary: {unknown}")
    return sentences


def _embedding_array(vecs, what: str) -> np.ndarray:
    try:
        return np.asarray(vecs, dtype=float)
    except (TypeError, ValueError):
        raise NormalizationError(f"{what} is not numeric") from None


def _text_rows(texts, width: int) -> np.ndarray:
    """The text embeddings as one (n, width) array; a row of another shape
    is named by its sentence index."""
    try:
        rows = np.asarray(texts, dtype=float)
    except (TypeError, ValueError):
        rows = None
    if rows is not None and rows.shape == (len(texts), width):
        return rows
    for i, vec in enumerate(texts):
        shape = _embedding_array(vec, f"text embedding {i}").shape
        if shape != (width,):
            raise NormalizationError(
                f"text embedding {i} has shape {shape}, expected ({width},)"
            )
    # every row has the image's width, so there were no rows
    return np.empty((0, width))


def _check_unit_rows(rows: np.ndarray, what: str) -> None:
    """Each row of a 2-D embedding array must have unit norm; `what` names
    row i via `what.format(i)`.  A tolerance test, so the summation order
    of the norms does not matter."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    # written so that a NaN norm fails too
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if bad.size:
        i = bad[0]
        raise NormalizationError(
            f"{what.format(i)} has norm {norms[i]:.9f}, expected 1"
        )


def _generative_losses(
    backend: ScorerBackend,
    image_id: str,
    region,
    sentences: Sequence[Sequence[str]],
) -> list[GenerativeLoss]:
    """Generative losses of sentences about one image, in input order, from
    one `score_sentences` call; every position is checked before its
    logarithm is taken."""
    sentences = _checked_sentences(backend, sentences)
    has_terminal = backend.capabilities.has_terminal_token
    rows = list(backend.score_sentences(image_id, region, sentences))
    if len(rows) != len(sentences):
        raise NormalizationError(
            f"backend scored {len(rows)} sentences of {len(sentences)}"
        )
    losses = []
    for s, row in zip(sentences, rows):
        try:
            per_token = _position_losses(s, row, has_terminal)
        except (TypeError, ValueError):
            # a position that is not a pair of numbers
            raise NormalizationError(f"backend returned malformed scores for {list(s)}") from None
        losses.append(GenerativeLoss(value=float(sum(per_token)), per_token=tuple(per_token)))
    return losses


def _position_losses(s: tuple[str, ...], row, has_terminal: bool) -> list[float]:
    """-log p at each checked position of one sentence's scores."""
    if len(row) != len(s) + has_terminal:
        raise NormalizationError(
            f"backend scored {len(row)} positions of {list(s)}, expected {len(s) + has_terminal}"
        )
    per_token = []
    for i, (p, total) in enumerate(row):
        # each test is written so that a NaN fails it too
        if not abs(total - 1.0) <= NORM_TOL:
            raise NormalizationError(
                f"distribution for prefix {list(s[:i])} sums to {total:.9f}"
            )
        if not 0.0 < p <= total:
            if p == 0.0:
                raise InfiniteLossError(f"zero probability for {_position(s, i)}")
            raise NormalizationError(
                f"probability {p!r} for {_position(s, i)} is outside [0, {total!r}]"
            )
        per_token.append(-math.log(p))
    return per_token


def _position(sentence: tuple[str, ...], i: int) -> str:
    if i < len(sentence):
        return f"token {sentence[i]!r} at position {i}"
    return "the terminal token"


def _contrastive_losses(
    backend: ScorerBackend,
    image_id: str,
    region,
    sentences: Sequence[Sequence[str]],
) -> list[float]:
    """Contrastive losses of sentences about one image, in input order.

    The image embedding and every sentence's embedding are fetched in one
    batched call, so a remote backend answers an instance in one request.
    Returns the distances as floats; see the module docstring for how they
    are computed.
    """
    sentences = _checked_sentences(backend, sentences)
    image, texts = backend.embed_batch(image_id, region, sentences)
    if len(texts) != len(sentences):
        raise NormalizationError(
            f"backend returned {len(texts)} text embeddings for {len(sentences)} sentences"
        )
    f = _embedding_array(image, "image embedding")
    if f.ndim != 1:
        raise NormalizationError(f"image embedding has shape {f.shape}, expected a vector")
    _check_unit_rows(f[None, :], "image embedding")
    texts = _text_rows(texts, f.size)
    _check_unit_rows(texts, "text embedding {}")
    return [math.sqrt(d.dot(d)) for d in f - texts]


def generative_loss(
    backend: ScorerBackend,
    image_id: str,
    region,
    sentence: Sequence[str],
) -> GenerativeLoss:
    """Cross-entropy of one sentence under the backend's prefix model."""
    return _generative_losses(backend, image_id, region, [sentence])[0]


def contrastive_loss(
    backend: ScorerBackend,
    image_id: str,
    region,
    sentence: Sequence[str],
) -> ContrastiveLoss:
    """Euclidean distance between unit-norm image and sentence embeddings."""
    return ContrastiveLoss(value=_contrastive_losses(backend, image_id, region, [sentence])[0])


def _candidate_sentence(
    instance: RankingInstance, template: Template, candidate: str
) -> tuple[str, ...]:
    if instance.anchor_kind is AnchorKind.OBJECT:
        return render(template, attribute=candidate, obj=instance.anchor)
    return render(template, attribute=instance.anchor, obj=candidate)


def _checked_method(method) -> Method:
    try:
        return Method(method)
    except ValueError:
        allowed = ", ".join(repr(m.value) for m in Method)
        raise ConfigurationError(f"unknown method {method!r}; expected one of {allowed}") from None


def _check_length_normalize(backend, method: Method, length_normalize: bool) -> None:
    if length_normalize and method is Method.CONTRASTIVE:
        raise ConfigurationError(
            "length_normalize applies to generative scoring only, not contrastive"
        )
    if length_normalize and isinstance(backend, SentenceScoreSource):
        raise ConfigurationError(
            "length_normalize does not apply to a replay, which returns losses as recorded"
        )


def rank_instance(
    backend,
    instance: RankingInstance,
    template: Template,
    method: Method,
    length_normalize: bool = False,
) -> ScoredInstance:
    """Score every candidate of one instance.

    The template must contain the slot of the ranked kind (attribute slot
    for object anchors and vice versa).  A SentenceScoreSource (cache
    replay) is asked once per instance, by `instance_scores`, and returns
    the scores exactly as recorded, with the per_token rows when every
    candidate's generative row was recorded; token-level backends compute
    fresh.  length_normalize applies to fresh generative scoring only.
    """
    method = _checked_method(method)
    _check_length_normalize(backend, method, length_normalize)
    ranked_slot = (
        Slot.ATTRIBUTE if instance.anchor_kind is AnchorKind.OBJECT else Slot.OBJECT
    )
    if ranked_slot not in template.slots:
        raise ConfigurationError(
            f"template {template.name!r} has no {{{ranked_slot.value}}} slot to rank "
            f"{instance.anchor_kind.ranked.value} candidates"
        )

    per_token = None
    if isinstance(backend, SentenceScoreSource):
        scores, per_token = backend.instance_scores(instance, template.name, method)
    else:
        sentences = [_candidate_sentence(instance, template, c) for c in instance.candidates]
        if method is Method.GENERATIVE:
            losses = _generative_losses(backend, instance.image_id, instance.region, sentences)
            scores = [
                l.value / len(s) if length_normalize else l.value
                for l, s in zip(losses, sentences)
            ]
            per_token = tuple(l.per_token for l in losses)
        else:
            scores = _contrastive_losses(backend, instance.image_id, instance.region, sentences)
    return ScoredInstance(
        instance=instance,
        template_name=template.name,
        method=method,
        scores=tuple(scores),
        per_token=per_token,
    )


def batch_rank(
    backend,
    instances: Sequence[RankingInstance],
    template: Template,
    method: Method,
    parallelism: int = 1,
    length_normalize: bool = False,
) -> list[ScoredInstance]:
    """rank_instance over a batch, optionally across worker threads.

    Results keep input order and match sequential execution bit for bit.
    At parallelism 1 (the default) the batch runs in the caller's thread.
    The options are checked once, before any instance is scored.  Failures
    do not stop the batch: after the whole batch ran, if anything failed a BatchScoringError
    is raised carrying per-instance failures and the completed results.
    """
    check_parameter("parallelism", parallelism, "an int >= 1")
    method = _checked_method(method)
    _check_length_normalize(backend, method, length_normalize)

    def one(inst: RankingInstance) -> ScoredInstance | Exception:
        try:
            return rank_instance(backend, inst, template, method, length_normalize)
        except Exception as exc:  # noqa: BLE001 - collected per instance
            return exc

    if parallelism == 1:
        outcomes = list(map(one, instances))
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(one, instances))
    failures = [(i, r) for i, r in enumerate(outcomes) if isinstance(r, Exception)]
    if failures:
        completed = [(i, r) for i, r in enumerate(outcomes) if not isinstance(r, Exception)]
        raise BatchScoringError(failures, completed)
    return outcomes
