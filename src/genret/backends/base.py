"""Backend interfaces the scoring engine runs against.

A ScorerBackend answers token-level questions: the next-token distributions
under a batch of image-conditioned prefixes (`next_token_distributions`, the
one method every backend implements), and unit-norm embeddings for the
contrastive path.  A SentenceScoreSource answers at sentence granularity
(ready-made losses); score-cache replay lives there.  The engine accepts
either.

Every backend is generative.  A backend without a contrastive side keeps the
base class's `embed_image`/`embed_text`, which raise ConfigurationError on
the first contrastive request.  The engine asks for embeddings through
`embed_batch`, whose default is built on those two per-item calls.
Capabilities describe how a backend's answers are to be read and called:

- has_terminal_token: distributions carry an end-of-sentence probability,
  and generative losses get a terminal term
- concurrent_safe: queries may run concurrently; otherwise the engine
  scores the batch sequentially in the caller's thread, so no two calls
  overlap
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core import Method
from ..errors import ConfigurationError


@dataclass(frozen=True)
class Capabilities:
    has_terminal_token: bool = False
    concurrent_safe: bool = True


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
        return float(sum(self.probs.values())) + (self.terminal_p or 0.0)


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


class SentenceScoreSource(ABC):
    """Sentence-level scorer: returns (loss, per_token or None) directly."""

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
