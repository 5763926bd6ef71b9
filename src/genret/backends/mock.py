"""Trivial backends for tests and worked examples."""

from __future__ import annotations

from ..errors import ConfigurationError
from .base import Capabilities, ScorerBackend, TokenDistribution


class UniformBackend(ScorerBackend):
    """Assigns every vocabulary token the same probability at every step.

    A sentence of n tokens scores n * log(V); with include_terminal the
    distribution spreads over V + 1 outcomes instead.
    """

    def __init__(self, vocabulary, include_terminal: bool = False):
        self.vocab_order = tuple(sorted(set(vocabulary)))
        if not self.vocab_order:
            raise ConfigurationError("vocabulary is empty")
        self.vocabulary = frozenset(self.vocab_order)
        self.capabilities = Capabilities(has_terminal_token=include_terminal)

    def next_token_distributions(self, image_id, region, prefixes) -> list[TokenDistribution]:
        terminal = self.capabilities.has_terminal_token
        u = 1.0 / (len(self.vocab_order) + terminal)
        dist = TokenDistribution(
            probs={t: u for t in self.vocab_order},
            terminal_p=u if terminal else None,
        )
        return [dist] * len(prefixes)
