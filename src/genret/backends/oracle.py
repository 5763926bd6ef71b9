"""Exact scorer for synthetic scenes.

Every answer is derived from the scene's closed-form caption distribution.
For a prefix p, the unsmoothed next-token probability of t is

    mass(captions extending p + [t]) / mass(captions extending p)

and the terminal probability is the mass of captions equal to p over the
mass extending p.  Multiplying the served values along a full caption
(terminal step included) therefore recovers the caption's exact emission
probability when smoothing is 0.

Additive smoothing lifts every outcome by `smoothing` and renormalizes, so
counterfactual sentences keep finite losses; a prefix no caption starts
with gets the uniform floor distribution.  Smoothing is a finite number
>= 0 whose product with the vocabulary size plus one is finite.

Each probability is computed once.  A scene's caption trie is built on its
first generative query (the constructor checks each scene and keeps its
caption masses), and a trie node fills its memo on its first query: each child
token's probability, the one value every other token gets, the terminal
probability and the total of the whole distribution.  `score_sentences`
walks each sentence down the trie and reads the memo of every node it
passes, so it serves the realized tokens without building a distribution.
`next_token_distributions` builds a node's whole distribution from the
same memo, once, and keeps it; the off-trie uniform floor is built once per
backend.  Every probability therefore has one expression, whichever method
serves it, and a later query of a prefix returns the very object served
before.  Served `probs` are read-only mappings, so no caller can change
what a later query gets.

The contrastive side is a bag-of-words embedder: text maps to normalized
token counts, an image to normalized expected token frequencies under its
caption distribution, which makes it order-invariant by construction.
`embed_batch` fills one (n, V) count matrix for all of an instance's
sentences and divides each row by its norm; `embed_text` is its one-row
case.  Counts are small integers, so a row's squared norm is exact in any
summation order and every row is bit-identical to the sentence embedded
alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Iterable

import numpy as np

from ..core import check_parameter
from ..errors import RenderError, SchemaError, UnknownImageError, VocabularyError
from ..world import SyntheticScene, WorldSpec, caption_process
from .base import Capabilities, ScorerBackend, TokenDistribution


class _TrieNode:
    __slots__ = ("mass", "end", "children", "memo", "dist")

    def __init__(self):
        self.mass = Fraction(0)
        self.end = Fraction(0)
        self.children: dict[str, _TrieNode] = {}
        #: the node's probabilities, filled on its first query
        self.memo: _Memo | None = None
        #: the node's served distribution, filled on its first
        #: next_token_distributions query
        self.dist: TokenDistribution | None = None


class _Memo:
    """A node's (probability, total) pairs: `children` per child token,
    `other` for every other token, `terminal` for the end of the sentence.
    Every pair carries the same total, the node distribution's whole mass."""

    __slots__ = ("children", "other", "terminal")

    def __init__(self, children, other, terminal):
        self.children: dict[str, tuple[float, float]] = children
        self.other: tuple[float, float] = other
        self.terminal: tuple[float, float] = terminal


def _build_trie(dist: dict[tuple[str, ...], Fraction]) -> _TrieNode:
    """The caption trie; every node's mass is > 0, as each caption's is."""
    root = _TrieNode()
    for caption, p in dist.items():
        node = root
        node.mass += p
        for tok in caption:
            node = node.children.setdefault(tok, _TrieNode())
            node.mass += p
        node.end += p
    return root


class OracleBackend(ScorerBackend):
    """Ground-truth backend over a fixed set of synthetic scenes.

    Image identifiers are the scenes' image_ids.  The region argument is
    accepted and ignored: the oracle conditions on the whole scene, every
    entity (a BoxAnnotation) of it.  The scene set is fixed at
    construction, which checks each scene (a repeated image_id, or an
    entity's object or attribute the world lacks, is a SchemaError naming
    the scene) and computes its caption masses and image embedding.
    Queries only build a scene's trie, fill node memos and build node
    distributions, each on first use.  Two threads racing to build one
    compute equal values: a node keeps whichever memo or distribution was
    stored last, and the scene keeps the trie installed first
    (`dict.setdefault`), so the losing thread's trie is dropped and no node
    of it is served again.  So threads may share it.
    """

    def __init__(
        self,
        spec: WorldSpec,
        scenes: Iterable[SyntheticScene] = (),
        smoothing: float = 1e-6,
    ):
        check_parameter("smoothing", smoothing, "a finite number >= 0")
        self.smoothing = float(smoothing)
        self.vocab_order: tuple[str, ...] = spec.vocabulary()
        check_parameter("(vocabulary size + 1) * smoothing",
                        (len(self.vocab_order) + 1) * self.smoothing, "a finite number")
        self.vocabulary = frozenset(self.vocab_order)
        self.capabilities = Capabilities(has_terminal_token=True)
        self._index = {t: i for i, t in enumerate(self.vocab_order)}
        u = 1.0 / (len(self.vocab_order) + 1)  # tokens plus terminal
        self._floor = TokenDistribution(
            probs=MappingProxyType({t: u for t in self.vocab_order}), terminal_p=u
        )
        self._floor_score = (u, self._floor.total())
        self._captions: dict[str, dict[tuple[str, ...], Fraction]] = {}
        self._tries: dict[str, _TrieNode] = {}
        self._image_vecs: dict[str, np.ndarray] = {}
        # each scene's trie waits for its first generative query
        for scene in scenes:
            if scene.image_id in self._captions:
                raise SchemaError(f"scene {scene.image_id!r} is already registered")
            for ent in scene.entities:
                words = [("object", ent.obj, spec.objects)]
                words += [("attribute", a, spec.attributes) for a in ent.attributes]
                for kind, word, known in words:
                    if word not in known:
                        raise SchemaError(
                            f"scene {scene.image_id!r} names {kind} {word!r}, which the world lacks"
                        )
            dist = caption_process(scene)
            self._captions[scene.image_id] = dist
            freq = np.zeros(len(self.vocab_order))
            for caption, p in dist.items():
                fp = float(p)
                for tok in caption:
                    freq[self._index[tok]] += fp
            self._image_vecs[scene.image_id] = freq / float(np.linalg.norm(freq))

    # -- generative ---------------------------------------------------

    def _trie(self, image_id) -> _TrieNode:
        trie = self._tries.get(image_id)
        if trie is None:
            captions = self._captions.get(image_id)
            if captions is None:
                raise UnknownImageError(f"no scene registered under {image_id!r}")
            # a racing build is dropped, so every query reads one trie
            trie = self._tries.setdefault(image_id, _build_trie(captions))
        return trie

    def score_sentences(self, image_id, region, sentences) -> list[list[tuple[float, float]]]:
        trie = self._trie(image_id)
        if not self.vocabulary.issuperset(chain.from_iterable(sentences)):
            unknown = sorted(set(chain.from_iterable(sentences)) - self.vocabulary)
            raise VocabularyError(f"tokens not in oracle vocabulary: {unknown}")
        floor = self._floor_score
        rows = []
        for s in sentences:
            row = []
            node = trie
            for tok in s:
                if node is None:
                    row.append(floor)
                    continue
                memo = node.memo or self._memo(node)
                row.append(memo.children.get(tok, memo.other))
                node = node.children.get(tok)
            row.append(floor if node is None else (node.memo or self._memo(node)).terminal)
            rows.append(row)
        return rows

    def next_token_distributions(self, image_id, region, prefixes) -> list[TokenDistribution]:
        trie = self._trie(image_id)
        return [self._distribution(trie, prefix) for prefix in prefixes]

    def _distribution(self, trie: _TrieNode, prefix) -> TokenDistribution:
        node = trie
        for tok in prefix:
            node = node.children.get(tok)
            if node is None:
                # no caption starts with this prefix: uniform floor
                return self._floor
        dist = node.dist
        if dist is None:
            # a concurrent first query may build it twice; both are equal
            dist = node.dist = self._node_distribution(node)
        return dist

    def _node_distribution(self, node: _TrieNode) -> TokenDistribution:
        memo = node.memo or self._memo(node)
        probs = {t: memo.children.get(t, memo.other)[0] for t in self.vocab_order}
        return TokenDistribution(probs=MappingProxyType(probs), terminal_p=memo.terminal[0])

    def _memo(self, node: _TrieNode) -> _Memo:
        """Fill a node's memo: every probability the node serves, each
        computed by one expression."""
        lam = self.smoothing
        denom = 1.0 + (len(self.vocab_order) + 1) * lam
        children = {
            tok: (float(child.mass / node.mass) + lam) / denom
            for tok, child in node.children.items()
        }
        other = (0.0 + lam) / denom
        terminal = (float(node.end / node.mass) + lam) / denom
        # the sum TokenDistribution.total takes over the served distribution
        total = float(sum([children.get(t, other) for t in self.vocab_order])) + terminal
        memo = node.memo = _Memo(
            {tok: (p, total) for tok, p in children.items()}, (other, total), (terminal, total)
        )
        return memo

    # -- contrastive ---------------------------------------------------

    def embed_image(self, image_id, region) -> np.ndarray:
        vec = self._image_vecs.get(image_id)
        if vec is None:
            raise UnknownImageError(f"no scene registered under {image_id!r}")
        return vec.copy()

    def embed_text(self, tokens) -> np.ndarray:
        return self._bag_of_words([tokens])[0]

    def embed_batch(self, image_id, region, sentences):
        return self.embed_image(image_id, region), self._bag_of_words(sentences)

    def _bag_of_words(self, sentences) -> np.ndarray:
        """One unit-norm row of token counts per sentence, as an (n, V)
        array; the counts are exact, so the row norms are too."""
        if not all(sentences):
            raise RenderError("cannot embed an empty sentence")
        n, width, index = len(sentences), len(self.vocab_order), self._index
        try:
            # one flat cell index per token: its row's offset plus its column
            cells = [
                row * width + index[tok] for row, tokens in enumerate(sentences) for tok in tokens
            ]
        except KeyError as exc:
            raise VocabularyError(f"token {exc.args[0]!r} not in oracle vocabulary") from None
        counts = np.bincount(cells, minlength=n * width).reshape(n, width).astype(float)
        return counts / np.sqrt(np.einsum("ij,ij->i", counts, counts))[:, None]
