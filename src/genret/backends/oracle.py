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
caption masses).  The trie holds integer masses: each scene's caption
masses are scaled by the lcm of their denominators, so a node's
probability is one int true division, which Python rounds correctly, as
`float(Fraction)` does, and no Fraction arithmetic runs per node.  A trie
node fills its memo on its first query: each child token's probability,
the one value every other token gets, the terminal probability and the
total of the whole distribution, summed in vocabulary order.
`score_sentences` walks each sentence down the trie and reads the memo of
every node it passes into two flat lists, returned as float64 arrays, so
it serves the realized tokens without building a distribution.
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

import math
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
        #: the scaled mass of the captions extending the node, and of those ending at it
        self.mass = 0
        self.end = 0
        self.children: dict[str, _TrieNode] = {}
        #: the node's probabilities, filled on its first query
        self.memo: _Memo | None = None
        #: the node's served distribution, filled on its first
        #: next_token_distributions query
        self.dist: TokenDistribution | None = None


class _Memo:
    """A node's probabilities: `children` per child token, `other` for every
    other token, `terminal` for the end of the sentence, and `total`, the
    node distribution's whole mass."""

    __slots__ = ("children", "other", "terminal", "total")

    def __init__(self, children, other, terminal, total):
        self.children: dict[str, float] = children
        self.other: float = other
        self.terminal: float = terminal
        self.total: float = total


def _build_trie(dist: dict[tuple[str, ...], Fraction]) -> _TrieNode:
    """The caption trie, its masses scaled to ints by the lcm of the caption
    masses' denominators; every node's mass is > 0, as each caption's is."""
    scale = math.lcm(*(p.denominator for p in dist.values()))
    root = _TrieNode()
    for caption, p in dist.items():
        mass = p.numerator * (scale // p.denominator)
        node = root
        node.mass += mass
        for tok in caption:
            node = node.children.setdefault(tok, _TrieNode())
            node.mass += mass
        node.end += mass
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
        self._floor_total = self._floor.total()
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

    def score_sentences(self, image_id, region, sentences) -> tuple[np.ndarray, np.ndarray]:
        trie = self._trie(image_id)
        if not self.vocabulary.issuperset(chain.from_iterable(sentences)):
            unknown = sorted(set(chain.from_iterable(sentences)) - self.vocabulary)
            raise VocabularyError(f"tokens not in oracle vocabulary: {unknown}")
        u, floor_total = self._floor.terminal_p, self._floor_total
        p: list[float] = []
        total: list[float] = []
        for s in sentences:
            node = trie
            for i, tok in enumerate(s):
                memo = node.memo or self._memo(node)
                p.append(memo.children.get(tok, memo.other))
                total.append(memo.total)
                node = node.children.get(tok)
                if node is None:
                    # no caption goes on: the floor serves the rest, terminal included
                    rest = len(s) - i
                    p += [u] * rest
                    total += [floor_total] * rest
                    break
            else:
                memo = node.memo or self._memo(node)
                p.append(memo.terminal)
                total.append(memo.total)
        return np.array(p, dtype=float), np.array(total, dtype=float)

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
        probs = {t: memo.children.get(t, memo.other) for t in self.vocab_order}
        return TokenDistribution(probs=MappingProxyType(probs), terminal_p=memo.terminal)

    def _memo(self, node: _TrieNode) -> _Memo:
        """Fill a node's memo: every probability the node serves, each
        computed by one expression."""
        lam = self.smoothing
        denom = 1.0 + (len(self.vocab_order) + 1) * lam
        children = {
            tok: (child.mass / node.mass + lam) / denom for tok, child in node.children.items()
        }
        other = (0.0 + lam) / denom
        terminal = (node.end / node.mass + lam) / denom
        # the sum TokenDistribution.total takes over the served distribution
        probs = [other] * len(self.vocab_order)
        for tok, q in children.items():
            probs[self._index[tok]] = q
        memo = node.memo = _Memo(children, other, terminal, float(sum(probs)) + terminal)
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
