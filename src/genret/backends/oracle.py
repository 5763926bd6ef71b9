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
with gets the uniform floor distribution.

Each distribution is built once.  A trie node computes its distribution on
its first query and keeps it, and the floor is built once per backend, so
every later query of a prefix returns the very object served before: a
scoring run pays for the trie nodes it visits, not for the prefixes it
asks about.  Served `probs` are read-only mappings, so no caller can change
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
from types import MappingProxyType
from typing import Iterable

import numpy as np

from ..errors import SchemaError, UnknownImageError, VocabularyError
from ..world import SyntheticScene, WorldSpec, caption_process
from .base import Capabilities, ScorerBackend, TokenDistribution


class _TrieNode:
    __slots__ = ("mass", "end", "children", "dist")

    def __init__(self):
        self.mass = Fraction(0)
        self.end = Fraction(0)
        self.children: dict[str, _TrieNode] = {}
        #: the node's served distribution, filled on its first query
        self.dist: TokenDistribution | None = None


def _build_trie(dist: dict[tuple[str, ...], Fraction]) -> _TrieNode:
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
    """Ground-truth backend over registered synthetic scenes.

    Image identifiers are scene ids.  The region argument is accepted and
    ignored: the oracle conditions on the whole scene.  Scene registration
    precomputes the caption trie and the image embedding.  Queries only
    fill each node's memo slot, and two threads racing to fill one build
    equal distributions, so queries are concurrent-safe.
    """

    def __init__(
        self,
        spec: WorldSpec,
        scenes: Iterable[SyntheticScene] = (),
        smoothing: float = 1e-6,
    ):
        if smoothing < 0:
            raise ValueError("smoothing must be >= 0")
        self.spec = spec
        self.smoothing = float(smoothing)
        self.vocab_order: tuple[str, ...] = spec.vocabulary()
        self.vocabulary = frozenset(self.vocab_order)
        self.capabilities = Capabilities(has_terminal_token=True, concurrent_safe=True)
        self._index = {t: i for i, t in enumerate(self.vocab_order)}
        u = 1.0 / (len(self.vocab_order) + 1)  # tokens plus terminal
        self._floor = TokenDistribution(
            probs=MappingProxyType({t: u for t in self.vocab_order}), terminal_p=u
        )
        self._tries: dict[str, _TrieNode] = {}
        self._image_vecs: dict[str, np.ndarray] = {}
        for sc in scenes:
            self.register_scene(sc)

    def register_scene(self, scene: SyntheticScene) -> None:
        """Precompute a scene's caption trie and image embedding.  A scene id
        already registered, or a scene word the world lacks, is a
        SchemaError naming the scene."""
        if scene.scene_id in self._tries:
            raise SchemaError(f"scene {scene.scene_id!r} is already registered")
        for ent in scene.entities:
            words = [("object", ent.obj, self.spec.objects)]
            words += [("attribute", a, self.spec.attributes) for a in ent.attributes]
            for kind, word, known in words:
                if word not in known:
                    raise SchemaError(
                        f"scene {scene.scene_id!r} names {kind} {word!r}, which the world lacks"
                    )
        dist = caption_process(scene)
        self._tries[scene.scene_id] = _build_trie(dist)
        freq = np.zeros(len(self.vocab_order))
        for caption, p in dist.items():
            fp = float(p)
            for tok in caption:
                freq[self._index[tok]] += fp
        norm = float(np.linalg.norm(freq))
        self._image_vecs[scene.scene_id] = freq / norm

    def scene_ids(self) -> tuple[str, ...]:
        return tuple(self._tries)

    # -- generative ---------------------------------------------------

    def next_token_distributions(self, image_id, region, prefixes) -> list[TokenDistribution]:
        trie = self._tries.get(image_id)
        if trie is None:
            raise UnknownImageError(f"no scene registered under {image_id!r}")
        return [self._distribution(trie, prefix) for prefix in prefixes]

    def _distribution(self, trie: _TrieNode, prefix) -> TokenDistribution:
        node = trie
        for tok in prefix:
            node = node.children.get(tok)
            if node is None or node.mass == 0:
                break
        if node is None or node.mass == 0:
            # no caption starts with this prefix: uniform floor
            return self._floor
        dist = node.dist
        if dist is None:
            # a concurrent first query may build it twice; both are equal
            dist = node.dist = self._node_distribution(node)
        return dist

    def _node_distribution(self, node: _TrieNode) -> TokenDistribution:
        lam = self.smoothing
        denom = 1.0 + (len(self.vocab_order) + 1) * lam
        probs = {}
        for tok in self.vocab_order:
            child = node.children.get(tok)
            c = float(child.mass / node.mass) if child is not None else 0.0
            probs[tok] = (c + lam) / denom
        terminal = (float(node.end / node.mass) + lam) / denom
        return TokenDistribution(probs=MappingProxyType(probs), terminal_p=terminal)

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
            raise ValueError("cannot embed an empty sentence")
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
