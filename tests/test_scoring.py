import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genret import (
    AnchorKind,
    BoxAnnotation,
    CachedScoreBackend,
    Method,
    OracleBackend,
    RankingInstance,
    SyntheticScene,
    UniformBackend,
    batch_rank,
    caption_process,
    make_instances,
    parse_template,
    random_world,
    rank_instance,
    ranking_order,
    render,
    sample_scenes,
    scored_to_records,
)
from genret.backends import Capabilities, ScorerBackend, TokenDistribution
from genret.errors import (
    BatchScoringError,
    ConfigurationError,
    GenretError,
    InfiniteLossError,
    NormalizationError,
    ParameterError,
    RenderError,
    VocabularyError,
)
from genret.scoring import (
    _candidate_sentence, _generative_losses, contrastive_loss, generative_loss
)

from bruteforce import naive_generative_loss, naive_sentence_losses, naive_text_embedding
from test_world import exclusion_scene, tiny_world


def one_cat_scene():
    return SyntheticScene("s0", entities=(BoxAnnotation((0, 0, 1, 1), "cat", ("a0",)),))


# -- generative loss -----------------------------------------------------


def test_uniform_loss_is_tokens_times_log_v():
    backend = UniformBackend(["a", "b", "c", "d"])
    loss = generative_loss(backend, "x", None, ("a", "b", "a"))
    assert loss.value == pytest.approx(3 * math.log(4), abs=1e-12)
    assert loss.per_token == (math.log(4),) * 3


def test_terminal_term_follows_the_capability_flag():
    with_term = UniformBackend(["a", "b", "c"], include_terminal=True)
    loss = generative_loss(with_term, "x", None, ("a", "b"))
    # two token steps plus the terminal step, each over 4 outcomes
    assert loss.value == pytest.approx(3 * math.log(4), abs=1e-12)
    assert len(loss.per_token) == 3


def test_position_zero_conditions_on_the_image_alone():
    backend = OracleBackend(tiny_world(), [one_cat_scene()], smoothing=0.0)
    dist = backend.next_token_distributions("s0", None, [()])[0]
    loss = generative_loss(backend, "s0", None, ("cat", "is", "a0"))
    assert loss.per_token[0] == pytest.approx(-math.log(dist.probs["cat"]), abs=1e-12)
    assert dist.probs["cat"] == 0.5  # image-only marginal over caption starts


def test_zero_probability_raises_instead_of_inf():
    backend = OracleBackend(tiny_world(), [one_cat_scene()], smoothing=0.0)
    with pytest.raises(InfiniteLossError):
        generative_loss(backend, "s0", None, ("cat", "cat"))


def test_vocabulary_check_guards_generative_and_contrastive():
    backend = OracleBackend(tiny_world(), [one_cat_scene()])
    with pytest.raises(VocabularyError):
        generative_loss(backend, "s0", None, ("cat", "zebra"))
    with pytest.raises(VocabularyError):
        contrastive_loss(backend, "s0", None, ("zebra",))


def test_empty_sentence_is_rejected():
    backend = UniformBackend(["a"])
    with pytest.raises(RenderError, match="empty sentence"):
        generative_loss(backend, "x", None, ())
    oracle = OracleBackend(tiny_world(), [exclusion_scene()])
    for loss in (generative_loss, contrastive_loss):
        with pytest.raises(RenderError, match="empty sentence"):
            loss(oracle, "s0", None, [])


def test_unnormalized_backend_is_rejected():
    class Broken(UniformBackend):
        def next_token_distributions(self, image_id, region, prefixes):
            return [
                type(dist)(probs={t: p / 2 for t, p in dist.probs.items()}, terminal_p=dist.terminal_p)
                for dist in super().next_token_distributions(image_id, region, prefixes)
            ]

    with pytest.raises(NormalizationError):
        generative_loss(Broken(["a", "b"]), "x", None, ("a",))


def test_short_batch_from_the_backend_is_rejected():
    class DropsLast(UniformBackend):
        def next_token_distributions(self, image_id, region, prefixes):
            return super().next_token_distributions(image_id, region, prefixes)[:-1]

    with pytest.raises(NormalizationError, match="returned 1 distributions for 2 prefixes"):
        generative_loss(DropsLast(["a", "b"]), "x", None, ("a", "b"))


def test_short_embedding_batch_from_the_backend_is_rejected():
    class DropsLast(OracleBackend):
        def embed_batch(self, image_id, region, sentences):
            image, texts = super().embed_batch(image_id, region, sentences)
            return image, texts[:-1]

    backend = DropsLast(tiny_world(), [one_cat_scene()])
    with pytest.raises(NormalizationError, match="returned 0 text embeddings for 1 sentences"):
        contrastive_loss(backend, "s0", None, ("cat",))


class NanProbability(UniformBackend):
    def next_token_distributions(self, image_id, region, prefixes):
        return [
            type(dist)(probs={**dist.probs, "b": math.nan}, terminal_p=dist.terminal_p)
            for dist in super().next_token_distributions(image_id, region, prefixes)
        ]


class NanTextEmbedding(OracleBackend):
    def embed_batch(self, image_id, region, sentences):
        image, texts = super().embed_batch(image_id, region, sentences)
        return image, np.full_like(texts, math.nan)


class NanTextPerItem(OracleBackend):
    """Implements only the per-item embeds, so the engine reaches them
    through the base class's embed_batch."""

    embed_batch = ScorerBackend.embed_batch

    def embed_text(self, tokens):
        return np.full(len(self.vocab_order), math.nan)


def nan_instance(candidates):
    return RankingInstance(
        image_id="s0",
        anchor_kind=AnchorKind.OBJECT,
        anchor="cat",
        candidates=candidates,
        positives=frozenset({0}),
    )


@pytest.mark.parametrize(
    "score",
    [
        lambda: generative_loss(NanProbability(["a", "b"]), "x", None, ("a",)),
        lambda: rank_instance(
            NanProbability(["cat", "a", "b"]), nan_instance(("a", "b")),
            parse_template("{O} {A}"), Method.GENERATIVE,
        ),
        lambda: contrastive_loss(
            NanTextEmbedding(tiny_world(), [one_cat_scene()]), "s0", None, ("cat",)
        ),
        lambda: rank_instance(
            NanTextEmbedding(tiny_world(), [one_cat_scene()]), nan_instance(("a0",)),
            parse_template("{O} is {A}"), Method.CONTRASTIVE,
        ),
        lambda: contrastive_loss(
            NanTextPerItem(tiny_world(), [one_cat_scene()]), "s0", None, ("cat",)
        ),
        lambda: rank_instance(
            NanTextPerItem(tiny_world(), [one_cat_scene()]), nan_instance(("a0",)),
            parse_template("{O} is {A}"), Method.CONTRASTIVE,
        ),
    ],
    ids=[
        "generative_loss", "rank_generative", "contrastive_loss", "rank_contrastive",
        "contrastive_loss_per_item", "rank_contrastive_per_item",
    ],
)
def test_nan_from_the_backend_is_rejected(score):
    with pytest.raises(NormalizationError):
        score()


class FaultyEmbedBatch(OracleBackend):
    """An oracle whose embed_batch output passes through `fault`."""

    def __init__(self, fault):
        super().__init__(tiny_world(), [one_cat_scene()])
        self.fault = fault

    def embed_batch(self, image_id, region, sentences):
        return self.fault(*super().embed_batch(image_id, region, sentences))


def _scaled_row(texts, i, factor):
    texts = texts.copy()
    texts[i] *= factor
    return texts


BAD_EMBED_BATCHES = {
    "width": (lambda f, G: (f, G[:, :-1]), r"text embedding 0 has shape \(8,\), expected \(9,\)"),
    "ragged": (lambda f, G: (f, [G[0], G[1][:-1]]), r"text embedding 1 has shape \(8,\)"),
    "non_numeric": (lambda f, G: (f, [G[0], ["x"] * 9]), "text embedding 1 is not numeric"),
    "image_2d": (lambda f, G: ([[1.0, 0.0]], G), r"image embedding has shape \(1, 2\)"),
    "image_norm": (lambda f, G: (2 * f, G), "image embedding has norm 2.000000000"),
    "nan_row": (lambda f, G: (f, _scaled_row(G, 1, math.nan)), "text embedding 1 has norm nan"),
    "non_unit_row": (
        lambda f, G: (f, _scaled_row(G, 1, 2.0)), "text embedding 1 has norm 2.000000000"
    ),
}


@pytest.mark.parametrize("kind", BAD_EMBED_BATCHES)
def test_malformed_embedding_batch_is_a_normalization_error(kind):
    fault, message = BAD_EMBED_BATCHES[kind]
    backend = FaultyEmbedBatch(fault)
    assert len(backend.vocab_order) == 9  # the widths in the messages
    with pytest.raises(NormalizationError, match=message):
        rank_instance(
            backend, nan_instance(("a0", "a1")), parse_template("{O} is {A}"),
            Method.CONTRASTIVE,
        )


@pytest.mark.parametrize("seed", [1, 1009])
@pytest.mark.parametrize("spec_text", ["{A} {O}", "{O} is {A}", "{A} {O} is {A}"])
def test_contrastive_scores_are_bit_identical_to_per_sentence_norms(seed, spec_text):
    spec = random_world(seed=seed, n_objects=10, n_attributes=30, attrs_per_object=5)
    scenes = sample_scenes(spec, [3, 2, 3, 1])
    backend = OracleBackend(spec, scenes)
    template = parse_template(spec_text)
    for inst in make_instances(spec, scenes, 20, AnchorKind.OBJECT, seed=seed):
        sentences = [render(template, attribute=c, obj=inst.anchor) for c in inst.candidates]
        image, rows = backend.embed_batch(inst.image_id, inst.region, sentences)
        assert rows.shape == (len(sentences), len(backend.vocab_order))
        for row, s in zip(rows, sentences):
            want = naive_text_embedding(backend.vocab_order, s)
            assert row.tobytes() == backend.embed_text(s).tobytes() == want.tobytes()
        want_scores = [float(np.linalg.norm(image - backend.embed_text(s))) for s in sentences]
        scored = rank_instance(backend, inst, template, Method.CONTRASTIVE)
        assert [v.hex() for v in scored.scores] == [v.hex() for v in want_scores]


class SharedDistribution(ScorerBackend):
    """Serves one object for every prefix; with a good root, the empty
    prefix gets a fresh uniform distribution instead."""

    def __init__(self, dist, has_terminal, good_root=False):
        self.dist = dist
        self.good_root = good_root
        self.capabilities = Capabilities(has_terminal_token=has_terminal)

    def next_token_distributions(self, image_id, region, prefixes):
        t = 1 / 3 if self.capabilities.has_terminal_token else None
        root = TokenDistribution({"a": t or 0.5, "b": t or 0.5}, terminal_p=t)
        return [root if self.good_root and not p else self.dist for p in prefixes]


BAD_SHARED = {
    "total": (TokenDistribution({"a": 0.25, "b": 0.25}), False, "sums to 0.500000000"),
    "nan": (TokenDistribution({"a": math.nan, "b": 0.5}, 0.5), True, "sums to nan"),
    "negative": (TokenDistribution({"a": -0.5, "b": 1.5}), False, "negative probability"),
    "negative_terminal": (
        TokenDistribution({"a": 0.75, "b": 0.75}, -0.5), True, "negative probability"
    ),
    "missing_terminal": (
        TokenDistribution({"a": 0.5, "b": 0.5}), True, "declares a terminal token"
    ),
    # an int a float cannot hold sums to inf, not to an OverflowError
    "huge_int": (TokenDistribution({"a": 10**400, "b": 0.5}), False, "sums to inf"),
}
BAD_MESSAGES = {
    "sums to 0.500000000": "distribution for prefix {} sums to 0.500000000",
    "sums to nan": "distribution for prefix {} sums to nan",
    "sums to inf": "distribution for prefix {} sums to inf",
    "negative probability": "negative probability for prefix {}",
    "declares a terminal token": "backend declares a terminal token but served none for {}",
}


@pytest.mark.parametrize("good_root", [False, True], ids=["every_prefix", "after_root"])
@pytest.mark.parametrize("case", sorted(BAD_SHARED))
def test_a_shared_bad_distribution_fails_at_its_first_prefix(case, good_root):
    dist, has_terminal, kind = BAD_SHARED[case]
    backend = SharedDistribution(dist, has_terminal, good_root)
    first = ["a"] if good_root else []
    with pytest.raises(NormalizationError) as err:
        generative_loss(backend, "x", None, ("a", "b", "a"))
    assert str(err.value) == BAD_MESSAGES[kind].format(first)


def test_a_shared_distribution_is_checked_once(monkeypatch):
    # the check lives in ScorerBackend's score_sentences adapter
    import genret.backends.base as base

    calls = []
    check = base._check_distribution
    monkeypatch.setattr(
        base, "_check_distribution", lambda *a: calls.append(a[2]) or check(*a)
    )
    loss = generative_loss(UniformBackend(["a", "b"]), "x", None, ("a", "b", "a"))
    assert loss.value == pytest.approx(3 * math.log(2))
    assert calls == [()]  # three prefixes, one served object


def test_a_terminal_only_distribution_passes_the_check():
    # an empty probs mapping gives the negativity scan nothing to scan; the
    # loss then misses the token, which is the error that surfaces
    backend = SharedDistribution(TokenDistribution({}, 1.0), has_terminal=True)
    with pytest.raises(VocabularyError, match="token 'a' missing from served distribution"):
        generative_loss(backend, "x", None, ("a",))


@pytest.mark.parametrize(
    "dist,has_terminal,where",
    [
        (TokenDistribution({"a": True, "b": False}), False, "True for token 'a' at position 0"),
        (
            TokenDistribution({"a": Fraction(1, 2), "b": Fraction(1, 2)}), False,
            "Fraction(1, 2) for token 'a' at position 0",
        ),
        (
            TokenDistribution({"a": 0.5, "b": 0.5}, terminal_p=False), True,
            "False for the terminal token",
        ),
    ],
    ids=["bool", "fraction", "bool_terminal"],
)
def test_a_realized_value_that_is_no_number_is_named(dist, has_terminal, where):
    # a bool compares as a number (p=True would score -0.0), but core's rule makes it none
    with pytest.raises(NormalizationError) as err:
        generative_loss(SharedDistribution(dist, has_terminal), "x", None, ("a", "b", "a"))
    assert str(err.value) == (
        f"backend served a non-numeric probability {where} of ['a', 'b', 'a']"
    )


class ServedScores(ScorerBackend):
    """Scores its sentences itself: every position (0.5, 1.0), terminal
    included, as two flat arrays passed through `fault`; whole
    distributions are never asked."""

    capabilities = Capabilities(has_terminal_token=True)

    def __init__(self, fault=lambda p, total: (p, total)):
        self.fault = fault

    def next_token_distributions(self, image_id, region, prefixes):
        raise AssertionError("the engine asks for sentence scores only")

    def score_sentences(self, image_id, region, sentences):
        n = sum(len(s) + 1 for s in sentences)
        return self.fault(np.full(n, 0.5), np.ones(n))


def _set(array, k, value):
    array = array.copy()
    array[k] = value
    return array


# sentences ("cat", "a") and ("cat", "b"): three positions each, so
# sentence i's position j is flat index 3 * i + j
BAD_SCORES = {
    "short_list": (
        lambda p, t: (p[:3], t[:3]), NormalizationError,
        "backend scored 3 positions for 2 sentences, expected 6",
    ),
    "extra_position": (
        lambda p, t: (np.insert(p, 3, 0.5), np.insert(t, 3, 1.0)), NormalizationError,
        "backend scored 7 positions for 2 sentences, expected 6",
    ),
    "missing_position": (
        lambda p, t: (np.delete(p, 4), np.delete(t, 4)), NormalizationError,
        "backend scored 5 positions for 2 sentences, expected 6",
    ),
    "missing_terminal": (
        lambda p, t: (np.delete(p, [2, 5]), np.delete(t, [2, 5])), NormalizationError,
        "backend scored 4 positions for 2 sentences, expected 6",
    ),
    "total_off": (
        lambda p, t: (p, _set(t, 4, 0.75)), NormalizationError,
        r"distribution for prefix \['cat'\] sums to 0.750000000",
    ),
    "nan_total": (
        lambda p, t: (p, _set(t, 2, math.nan)), NormalizationError,
        r"distribution for prefix \['cat', 'a'\] sums to nan",
    ),
    "negative_p": (
        lambda p, t: (_set(p, 1, -0.25), t), NormalizationError,
        r"probability -0.25 for token 'a' at position 1 is outside \[0, 1.0\]",
    ),
    "p_above_total": (
        lambda p, t: (_set(p, 3, 1.25), t), NormalizationError,
        r"probability 1.25 for token 'cat' at position 0 is outside \[0, 1.0\]",
    ),
    "nan_p": (
        lambda p, t: (_set(p, 5, math.nan), t), NormalizationError,
        r"probability nan for the terminal token is outside \[0, 1.0\]",
    ),
    "zero_p": (
        lambda p, t: (_set(p, 4, 0.0), t), InfiniteLossError,
        "zero probability for token 'b' at position 1",
    ),
    "not_a_pair": (
        lambda p, t: p, NormalizationError,
        r"backend returned an array of dtype float64 and shape \(6,\), "
        r"expected two arrays \(p, total\)",
    ),
    # float64 arrays only: a bool p would score -0.0, and an int total a
    # float cannot hold would raise a bare OverflowError
    "bool_p": (
        lambda p, t: (p > 0, t), NormalizationError,
        r"backend returned p as an array of dtype bool and shape \(6,\), "
        r"expected a float64 array of shape \(6,\)",
    ),
    "huge_int_total": (
        lambda p, t: (p, np.array([10**400] * 6)), NormalizationError,
        r"backend returned total as an array of dtype object and shape \(6,\), "
        r"expected a float64 array of shape \(6,\)",
    ),
    "list_p": (
        lambda p, t: (p.tolist(), t), NormalizationError,
        r"backend returned p as a list, expected a float64 array of shape \(6,\)",
    ),
}


@pytest.mark.parametrize("case", BAD_SCORES)
def test_each_sentence_position_is_checked(case):
    fault, error, message = BAD_SCORES[case]
    with pytest.raises(error, match=message):
        rank_instance(
            ServedScores(fault), nan_instance(("a", "b")), parse_template("{O} {A}"),
            Method.GENERATIVE,
        )


def test_served_sentence_scores_within_tolerance_are_summed():
    near = ServedScores(lambda p, t: (p, _set(t, 1, 1.0 + 0.5e-6)))
    scored = rank_instance(
        near, nan_instance(("a", "b")), parse_template("{O} {A}"), Method.GENERATIVE
    )
    assert scored.scores == (3 * math.log(2),) * 2
    assert scored.per_token == ((math.log(2),) * 3,) * 2


# values the checks must judge exactly as the reference loop does
ODD_VALUES = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, 0.0, -0.0, -0.25, 5e-324, -5e-324, 1e-310,
        1.25, 0.75, 1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 2e-6, 1e300,
    ]),
    st.floats(),
)


# probabilities whose np.log differs from math.log in the last bit on an
# AVX-512 host (numpy 2.4); the engine must take math.log of each
LOG_SENSITIVE = [
    float.fromhex("0x1.f777a58b56601p-1"), float.fromhex("0x1.a3ff621ade4f4p-1"),
    float.fromhex("0x1.ef0ab6e1e3eddp-1"), float.fromhex("0x1.69615a10ad385p-1"),
]


@st.composite
def flat_scores(draw):
    """Sentences, a terminal flag, and their flat (p, total) lists: good
    values with a few positions overwritten by odd ones."""
    has_terminal = draw(st.booleans())
    words = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4).map(tuple)
    sentences = draw(st.lists(words, min_size=1, max_size=4))
    n = sum(len(s) + has_terminal for s in sentences)
    p = draw(st.lists(
        st.one_of(st.floats(min_value=5e-324, max_value=1.0), st.sampled_from(LOG_SENSITIVE)),
        min_size=n, max_size=n,
    ))
    total = draw(st.lists(
        st.one_of(st.just(1.0), st.floats(min_value=1 - 1.5e-6, max_value=1 + 1.5e-6)),
        min_size=n, max_size=n,
    ))
    for k, on_total, value in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.booleans(), ODD_VALUES), max_size=3)
    ):
        (total if on_total else p)[k] = value
    return sentences, has_terminal, p, total


def _outcome(fn):
    try:
        return fn()
    except GenretError as exc:
        return type(exc), str(exc)


@given(flat_scores())
def test_flat_scores_are_judged_as_the_reference_loop_judges_rows(case):
    sentences, has_terminal, p, total = case
    backend = ServedScores(lambda *_: (np.array(p), np.array(total)))
    backend.capabilities = Capabilities(has_terminal_token=has_terminal)
    rows, start = [], 0
    for s in sentences:
        end = start + len(s) + has_terminal
        rows.append(list(zip(p[start:end], total[start:end])))
        start = end
    want = _outcome(lambda: naive_sentence_losses(sentences, rows, has_terminal))
    got = _outcome(lambda: _generative_losses(backend, "x", None, sentences))
    if isinstance(want, list):
        values, per_token = got
        assert [v.hex() for v in values] == [v.hex() for v, _ in want]
        assert [[v.hex() for v in row] for row in per_token] == [
            [v.hex() for v in row] for _, row in want
        ]
    else:
        assert got == want


class AdaptedOracle(OracleBackend):
    """The oracle served through the base class's adapter over its whole
    next-token distributions."""

    score_sentences = ScorerBackend.score_sentences


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("seed", [1, 1009])
@pytest.mark.parametrize("spec_text", ["{A} {O}", "{O} is {A}", "{A} {O} is {A}"])
def test_oracle_sentence_scores_are_bit_identical_to_the_adapter(seed, spec_text):
    spec = random_world(seed=seed, n_objects=10, n_attributes=30, attrs_per_object=5)
    scenes = sample_scenes(spec, [3, 2, 3, 1])
    walked, adapted = OracleBackend(spec, scenes), AdaptedOracle(spec, scenes)
    template = parse_template(spec_text)
    instances = make_instances(spec, scenes, 20, AnchorKind.OBJECT, seed=seed)
    instances += make_instances(spec, scenes, 8, AnchorKind.ATTRIBUTE, seed=seed)
    for inst in instances:
        want = rank_instance(adapted, inst, template, Method.GENERATIVE)
        got = rank_instance(walked, inst, template, Method.GENERATIVE)
        assert _hex(got.scores) == _hex(want.scores)
        assert [_hex(t) for t in got.per_token] == [_hex(t) for t in want.per_token]
        sentences = [_candidate_sentence(inst, template, c) for c in inst.candidates]
        got_p, got_total = walked.score_sentences(inst.image_id, None, sentences)
        want_p, want_total = adapted.score_sentences(inst.image_id, None, sentences)
        assert got_p.tobytes() == want_p.tobytes()
        assert got_total.tobytes() == want_total.tobytes()


@pytest.mark.parametrize("seed", [1, 1009])
def test_oracle_sentence_scores_match_the_caption_scan_at_smoothing_0(seed):
    spec = random_world(seed=seed, n_objects=10, n_attributes=30, attrs_per_object=5)
    scenes = sample_scenes(spec, [3, 2])
    backend = OracleBackend(spec, scenes, smoothing=0.0)
    for scene in scenes:
        captions = caption_process(scene)
        for caption in sorted(captions):
            got = generative_loss(backend, scene.image_id, None, caption).value
            want = naive_generative_loss(captions, caption, spec.vocabulary(), 0.0)
            assert got.hex() == want.hex()


# -- contrastive loss ----------------------------------------------------


def test_contrastive_loss_range_and_order_invariance():
    backend = OracleBackend(tiny_world(), [exclusion_scene()])
    a = contrastive_loss(backend, "s0", None, ("cat", "is", "a0"))
    b = contrastive_loss(backend, "s0", None, ("a0", "is", "cat"))
    assert 0.0 <= a.value <= 2.0
    assert a.value == b.value  # bag of words cannot see order


def test_generative_ranks_present_attribute_first_where_contrastive_may_not():
    # the constructed gap behind the headline claim: token frequency is a
    # bad proxy for scene membership of a specific pairing
    backend = OracleBackend(tiny_world(), [exclusion_scene()])
    template = parse_template("{O} is {A}")
    inst = RankingInstance(
        image_id="s0",
        anchor_kind=AnchorKind.OBJECT,
        anchor="cat",
        candidates=("a2", "a0"),  # a2 is on the dog, a0 on this cat
        positives=frozenset({1}),
    )
    gen = rank_instance(backend, inst, template, Method.GENERATIVE)
    assert ranking_order(gen.scores)[0] == 1


# -- rank_instance -------------------------------------------------------


def test_ranking_order_breaks_ties_by_index():
    assert ranking_order([1.0, 0.5, 1.0]) == (1, 0, 2)


def test_rank_instance_needs_the_ranked_slot():
    backend = OracleBackend(tiny_world(), [exclusion_scene()])
    inst = RankingInstance(
        image_id="s0",
        anchor_kind=AnchorKind.ATTRIBUTE,  # ranks objects, needs {O}
        anchor="a0",
        candidates=("cat", "dog"),
        positives=frozenset({0}),
    )
    with pytest.raises(ConfigurationError):
        rank_instance(backend, inst, parse_template("{A}"), Method.GENERATIVE)


def test_length_normalize_divides_by_token_count():
    backend = UniformBackend(["x", "y", "is"])
    inst = RankingInstance(
        image_id="img",
        anchor_kind=AnchorKind.OBJECT,
        anchor="x",
        candidates=("y",),
        positives=frozenset({0}),
    )
    template = parse_template("{O} is {A}")
    raw = rank_instance(backend, inst, template, Method.GENERATIVE)
    normed = rank_instance(backend, inst, template, Method.GENERATIVE, length_normalize=True)
    assert normed.scores[0] == pytest.approx(raw.scores[0] / 3)


def test_contrastive_needs_the_capability():
    uni = UniformBackend(["a0", "cat", "is"])
    inst = RankingInstance(
        image_id="x",
        anchor_kind=AnchorKind.OBJECT,
        anchor="cat",
        candidates=("a0",),
        positives=frozenset({0}),
    )
    with pytest.raises(ConfigurationError, match="no contrastive support"):
        rank_instance(uni, inst, parse_template("{O} is {A}"), Method.CONTRASTIVE)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=30))
def test_ranking_order_is_a_permutation(scores):
    order = ranking_order(scores)
    assert sorted(order) == list(range(len(scores)))
    ordered = [scores[i] for i in order]
    assert ordered == sorted(ordered)


@pytest.fixture(scope="module")
def parity_world():
    spec = random_world(seed=11, n_objects=8, n_attributes=16, attrs_per_object=4)
    scenes = sample_scenes(spec, [2, 3])
    return spec, scenes


@pytest.mark.parametrize(
    "backend_kind, anchor_kind, template_text, method, length_normalize",
    [
        ("oracle", AnchorKind.OBJECT, "{O} is {A}", Method.GENERATIVE, False),
        ("oracle", AnchorKind.ATTRIBUTE, "{A} {O}", Method.GENERATIVE, False),
        ("oracle", AnchorKind.OBJECT, "{A} {O} is {A}", Method.GENERATIVE, True),
        ("uniform", AnchorKind.OBJECT, "{O} is {A}", Method.GENERATIVE, False),
        ("uniform", AnchorKind.ATTRIBUTE, "{A} {O}", Method.GENERATIVE, True),
        ("oracle", AnchorKind.OBJECT, "{O} is {A}", Method.CONTRASTIVE, False),
        ("oracle", AnchorKind.ATTRIBUTE, "{A} {O}", Method.CONTRASTIVE, False),
    ],
)
def test_rank_instance_matches_single_sentence_losses_bit_for_bit(
    parity_world, backend_kind, anchor_kind, template_text, method, length_normalize
):
    spec, scenes = parity_world
    if backend_kind == "oracle":
        backend = OracleBackend(spec, scenes)  # has a terminal token
    else:
        backend = UniformBackend(spec.vocabulary())  # has none
    template = parse_template(template_text)
    for inst in make_instances(spec, scenes, 6, anchor_kind, seed=5):
        scored = rank_instance(backend, inst, template, method, length_normalize)
        scores, rows = [], []
        for cand in inst.candidates:
            if anchor_kind is AnchorKind.OBJECT:
                sentence = render(template, attribute=cand, obj=inst.anchor)
            else:
                sentence = render(template, attribute=inst.anchor, obj=cand)
            args = (backend, inst.image_id, inst.region, sentence)
            if method is Method.CONTRASTIVE:
                scores.append(contrastive_loss(*args).value)
                continue
            loss = generative_loss(*args)
            scores.append(loss.value / len(sentence) if length_normalize else loss.value)
            rows.append(loss.per_token)
        assert scored.scores == tuple(scores)
        assert scored.per_token == (tuple(rows) if method is Method.GENERATIVE else None)


# -- batch_rank ----------------------------------------------------------


@pytest.fixture(scope="module")
def batch_setup():
    spec = random_world(seed=11, n_objects=8, n_attributes=16, attrs_per_object=4)
    scenes = sample_scenes(spec, [2, 3, 2])
    backend = OracleBackend(spec, scenes)
    instances = make_instances(spec, scenes, 10, AnchorKind.OBJECT, seed=3)
    return backend, instances


def test_parallel_matches_sequential_bit_for_bit(batch_setup):
    backend, instances = batch_setup
    template = parse_template("{O} is {A}")
    seq = batch_rank(backend, instances, template, Method.GENERATIVE, parallelism=1)
    par = batch_rank(backend, instances, template, Method.GENERATIVE, parallelism=4)
    assert [s.scores for s in seq] == [s.scores for s in par]


class CountingOracle(OracleBackend):
    """An oracle that records the image of each embed_batch call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.embed_batches = []  # list.append is atomic, so threads lose no call

    def embed_batch(self, image_id, region, sentences):
        self.embed_batches.append(image_id)
        return super().embed_batch(image_id, region, sentences)


@pytest.mark.parametrize("method", [Method.GENERATIVE, Method.CONTRASTIVE])
def test_threaded_batch_matches_sequential_bit_for_bit(method):
    spec = random_world(seed=11, n_objects=8, n_attributes=16, attrs_per_object=4)
    scenes = sample_scenes(spec, [2, 3, 2])
    backend = CountingOracle(spec, scenes)
    instances = make_instances(spec, scenes, 10, AnchorKind.OBJECT, seed=3)
    template = parse_template("{O} is {A}")
    seq = batch_rank(backend, instances, template, method, parallelism=1)
    par = batch_rank(backend, instances, template, method, parallelism=4)
    assert [s.scores for s in seq] == [s.scores for s in par]
    # one embed_batch call per contrastive instance and run, none generative
    want = 2 * len(instances) if method is Method.CONTRASTIVE else 0
    assert len(backend.embed_batches) == want


def test_batch_rank_validates_parallelism(batch_setup):
    backend, instances = batch_setup
    with pytest.raises(ParameterError, match="^parallelism must be"):
        batch_rank(backend, instances, parse_template("{A}"), Method.GENERATIVE, parallelism=0)


def test_length_normalize_is_rejected_for_contrastive(batch_setup):
    backend, instances = batch_setup
    template = parse_template("{A} {O}")
    with pytest.raises(ConfigurationError, match="generative scoring only"):
        rank_instance(backend, instances[0], template, Method.CONTRASTIVE, length_normalize=True)

    class Refusing:
        capabilities = backend.capabilities
        vocabulary = backend.vocabulary

        def embed_batch(self, image_id, region, sentences):
            raise AssertionError("asked the backend before checking the options")

    # once, before any instance is scored, not as one failure per instance
    with pytest.raises(ConfigurationError, match="generative scoring only"):
        batch_rank(Refusing(), instances, template, "contrastive", length_normalize=True)


def test_length_normalize_is_rejected_for_a_replay(batch_setup):
    # a cache returns its losses as recorded, so the flag would do nothing
    backend, instances = batch_setup
    template = parse_template("{A} {O}")
    fresh = batch_rank(backend, instances, template, Method.GENERATIVE)
    cache = CachedScoreBackend(rec for s in fresh for rec in scored_to_records(s))
    with pytest.raises(ConfigurationError, match="^length_normalize does not apply to a replay"):
        rank_instance(cache, instances[0], template, Method.GENERATIVE, length_normalize=True)
    with pytest.raises(ConfigurationError, match="^length_normalize does not apply to a replay"):
        batch_rank(cache, instances, template, Method.GENERATIVE, length_normalize=True)


@pytest.mark.parametrize("method", ["foo", None, "Generative"])
def test_an_unknown_method_is_one_configuration_error(batch_setup, method):
    backend, instances = batch_setup
    template = parse_template("{O} is {A}")

    class Refusing(ScorerBackend):
        vocabulary = backend.vocabulary

        def next_token_distributions(self, image_id, region, prefixes):
            raise AssertionError("asked the backend before checking the method")

    allowed = "expected one of 'generative', 'contrastive'"
    with pytest.raises(ConfigurationError, match=allowed):
        rank_instance(Refusing(), instances[0], template, method)
    # once, before any instance is scored, not as one failure per instance
    with pytest.raises(ConfigurationError, match=allowed):
        batch_rank(Refusing(), instances, template, method)


def test_batch_failures_are_collected_not_fatal(batch_setup):
    backend, instances = batch_setup
    bad = RankingInstance(
        image_id="no-such-scene",
        anchor_kind=AnchorKind.OBJECT,
        anchor="obj00",
        candidates=("attr00", "attr01"),
        positives=frozenset({0}),
    )
    mixed = [instances[0], bad, instances[1]]
    template = parse_template("{O} is {A}")
    with pytest.raises(BatchScoringError) as err:
        batch_rank(backend, mixed, template, Method.GENERATIVE)
    assert [i for i, _ in err.value.failures] == [1]
    assert [i for i, _ in err.value.completed] == [0, 2]
    good = batch_rank(backend, [instances[0], instances[1]], template, Method.GENERATIVE)
    assert err.value.completed[0][1].scores == good[0].scores


def test_prefix_fetches_are_deduplicated(batch_setup):
    backend, instances = batch_setup

    calls = []

    class Counting(ScorerBackend):
        # serves whole distributions only, so the engine reaches it through
        # the base class's score_sentences adapter, which deduplicates
        capabilities = backend.capabilities
        vocabulary = backend.vocabulary

        def next_token_distributions(self, image_id, region, prefixes):
            calls.append(list(prefixes))
            return backend.next_token_distributions(image_id, region, prefixes)

    inst = instances[0]
    rank_instance(Counting(), inst, parse_template("{O} is {A}"), Method.GENERATIVE)
    assert len(calls) == 1  # one batched fetch per instance
    fetched = calls[0]
    assert len(fetched) == len(set(map(tuple, fetched)))
    # shared prefixes collapse: n candidates need about n + len(prefix) fetches,
    # not 4n
    n = len(inst.candidates)
    assert len(fetched) <= 2 * n + 4


# -- cache replay --------------------------------------------------------


def test_replay_returns_recorded_scores_verbatim(batch_setup):
    backend, instances = batch_setup
    template = parse_template("{A} {O}")
    fresh = batch_rank(
        backend, instances, template, Method.GENERATIVE, length_normalize=True
    )
    cache = CachedScoreBackend(
        rec for s in fresh for rec in scored_to_records(s)
    )
    # replay does not recompute, so the normalization baked into the cache
    # comes back regardless of flags
    replay = batch_rank(cache, instances, template, Method.GENERATIVE)
    assert [s.scores for s in replay] == [s.scores for s in fresh]
