import math

import numpy as np
import pytest

from bruteforce import caption_conditional, naive_generative_loss
from genret import (
    AnchorKind,
    BoxAnnotation,
    CachedScoreBackend,
    Method,
    OracleBackend,
    RankingInstance,
    ScoredInstance,
    SentenceScoreSource,
    SyntheticScene,
    UniformBackend,
    caption_process,
    make_instances,
    parse_template,
    random_world,
    rank_instance,
    read_score_cache,
    sample_scenes,
    scored_to_records,
    write_score_cache,
)
from genret.core import is_finite_number, write_jsonl
from genret.errors import (
    CacheMissError,
    ConfigurationError,
    ParameterError,
    RenderError,
    SchemaError,
    UnknownImageError,
    VocabularyError,
)
from genret.scoring import generative_loss

from test_world import exclusion_scene, tiny_world


@pytest.fixture()
def oracle():
    spec = tiny_world()
    return OracleBackend(spec, [exclusion_scene()], smoothing=1e-6)


# -- oracle generative side ----------------------------------------------


@pytest.mark.parametrize("smoothing", [0.0, 1e-6, 1e-3])
def test_oracle_matches_caption_scan(smoothing):
    spec = tiny_world()
    scene = exclusion_scene()
    backend = OracleBackend(spec, [scene], smoothing=smoothing)
    captions = caption_process(scene)
    vocab = spec.vocabulary()
    prefixes = [
        (),
        ("cat",),
        ("cat", "is"),
        ("a0",),
        ("a0", "cat"),
        ("dog", "is", "a2"),
        ("a5",),            # possible token, impossible start here
        ("cat", "cat"),     # impossible continuation
    ]
    for prefix in prefixes:
        dist = backend.next_token_distributions("s0", None, [prefix])[0]
        want_probs, want_terminal = caption_conditional(captions, prefix, vocab, smoothing)
        for t in vocab:
            assert dist.probs[t] == pytest.approx(want_probs[t], abs=1e-12)
        assert dist.terminal_p == pytest.approx(want_terminal, abs=1e-12)


def test_oracle_distribution_sums_to_one(oracle):
    dist = oracle.next_token_distributions("s0", None, [("cat",)])[0]
    assert sum(dist.probs.values()) + dist.terminal_p == pytest.approx(1.0, abs=1e-9)


def test_oracle_exact_loss_with_zero_smoothing():
    spec = tiny_world()
    scene = SyntheticScene("s0", entities=(BoxAnnotation((0, 0, 1, 1), "cat", ("a0",)),))
    backend = OracleBackend(spec, [scene], smoothing=0.0)
    # caption mass 1/2, factorized over tokens plus the terminal step
    loss = generative_loss(backend, "s0", None, ("cat", "is", "a0"))
    assert loss.value == pytest.approx(math.log(2), abs=1e-12)
    loss2 = generative_loss(backend, "s0", None, ("a0", "cat"))
    assert loss2.value == pytest.approx(math.log(2), abs=1e-12)


def test_oracle_full_loss_matches_caption_scan():
    spec = tiny_world()
    scene = exclusion_scene()
    backend = OracleBackend(spec, [scene], smoothing=1e-6)
    captions = caption_process(scene)
    vocab = spec.vocabulary()
    for sentence in [("cat", "is", "a0"), ("a2", "dog"), ("dog", "is", "a5"), ("a1",)]:
        got = generative_loss(backend, "s0", None, sentence).value
        want = naive_generative_loss(captions, sentence, vocab, 1e-6)
        assert got == pytest.approx(want, abs=1e-9)


def test_oracle_unknown_image(oracle):
    with pytest.raises(UnknownImageError):
        oracle.next_token_distributions("nope", None, [()])[0]
    with pytest.raises(UnknownImageError):
        oracle.embed_image("nope", None)


def test_oracle_region_is_ignored(oracle):
    a = oracle.next_token_distributions("s0", None, [("cat",)])[0]
    b = oracle.next_token_distributions("s0", (0, 0, 5, 5), [("cat",)])[0]
    assert a.probs == b.probs and a.terminal_p == b.terminal_p


def test_oracle_serves_one_object_per_prefix(oracle):
    prefixes = [(), ("cat",), ("cat", "is")]
    first = oracle.next_token_distributions("s0", None, prefixes + prefixes)
    again = oracle.next_token_distributions("s0", (0, 0, 5, 5), prefixes)
    for i in range(len(prefixes)):
        assert first[i] is first[i + len(prefixes)] is again[i]


def test_oracle_serves_one_floor_off_the_trie(oracle):
    off = [("a5",), ("cat", "cat"), ("dog", "is", "a2", "a2"), ("zzz",)]
    floor = oracle.next_token_distributions("s0", None, off)
    floor += oracle.next_token_distributions("s0", None, off[:1])
    assert all(d is floor[0] for d in floor)
    u = 1 / (len(oracle.vocab_order) + 1)
    assert floor[0].terminal_p == u and set(floor[0].probs.values()) == {u}
    on = oracle.next_token_distributions("s0", None, [("cat",)])[0]
    assert on is not floor[0]


def test_oracle_answers_cannot_be_edited(oracle):
    prefixes = [("cat",), ("a5",)]  # one trie node, one floor
    served = oracle.next_token_distributions("s0", None, prefixes)
    before = [dict(d.probs) for d in served]
    for dist in served:
        with pytest.raises(TypeError):
            dist.probs["cat"] = 1.0
    again = oracle.next_token_distributions("s0", None, prefixes)
    assert [dict(d.probs) for d in again] == before


def test_oracle_memo_under_racing_threads():
    # more threads than cores build the scene's trie and fill the same
    # fresh memo slots at once, through both generative methods; every
    # answer must equal a sequential backend's, and once the race is over
    # every query reads the trie installed first and each prefix has one
    # object
    import sys
    from concurrent.futures import ThreadPoolExecutor

    spec, scene = tiny_world(), exclusion_scene()
    prefixes = [(), ("cat",), ("cat", "is"), ("dog",), ("dog", "is"), ("a0",), ("a5",)]
    sentences = [("cat", "is", "a0"), ("dog", "a2"), ("a5", "cat"), ("cat", "cat")]
    sequential = OracleBackend(spec, [scene])
    want = sequential.next_token_distributions("s0", None, prefixes)
    want_scores = sequential.score_sentences("s0", None, sentences)
    racing = OracleBackend(spec, [scene])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [
                pool.submit(racing.next_token_distributions, "s0", None, prefixes)
                for _ in range(32)
            ]
            scored = [
                pool.submit(racing.score_sentences, "s0", None, sentences) for _ in range(32)
            ]
            answers = [f.result(timeout=60) for f in futures]
            scores = [f.result(timeout=60) for f in scored]
    finally:
        sys.setswitchinterval(old)
    for got in answers:
        assert [(dict(d.probs), d.terminal_p) for d in got] == [
            (dict(d.probs), d.terminal_p) for d in want
        ]
    want_p, want_total = want_scores
    for got_p, got_total in scores:
        assert got_p.tobytes() == want_p.tobytes() and got_total.tobytes() == want_total.tobytes()
    trie = racing._tries["s0"]
    settled = racing.next_token_distributions("s0", None, prefixes)
    again = racing.next_token_distributions("s0", None, prefixes)
    assert all(a is b for a, b in zip(settled, again))
    assert racing._tries["s0"] is trie


def test_oracle_builds_a_trie_on_its_first_generative_query():
    backend = OracleBackend(tiny_world(), [exclusion_scene()])
    backend.embed_batch("s0", None, [("cat", "is", "a0")])
    assert backend._tries == {}  # contrastive scoring reads no trie
    p, _ = backend.score_sentences("s0", None, [("cat", "is", "a0")])
    trie = backend._tries["s0"]
    assert backend.next_token_distributions("s0", None, [("cat",)])[0].probs["is"] == p[1]
    assert backend._tries["s0"] is trie
    with pytest.raises(UnknownImageError):
        backend.score_sentences("nope", None, [("cat",)])
    with pytest.raises(VocabularyError, match="zebra"):
        backend.score_sentences("s0", None, [("cat", "zebra")])


def test_oracle_rejects_a_scene_with_an_unknown_word():
    unknown = SyntheticScene("s1", (BoxAnnotation((0, 0, 1, 1), "cat", ("zebra",)),))
    with pytest.raises(SchemaError, match="scene 's1' names attribute 'zebra'"):
        OracleBackend(tiny_world(), [exclusion_scene(), unknown])


def test_oracle_rejects_negative_smoothing():
    with pytest.raises(ParameterError, match="^smoothing must be"):
        OracleBackend(tiny_world(), smoothing=-0.1)


def test_oracle_rejects_smoothing_whose_renormalizer_overflows():
    # the renormalizer is 1 + (V + 1) * smoothing; V + 1 = 10 here
    assert len(tiny_world().vocabulary()) + 1 == 10
    with pytest.raises(ParameterError, match=r"^\(vocabulary size \+ 1\) \* smoothing must be"):
        OracleBackend(tiny_world(), smoothing=1e308)
    backend = OracleBackend(tiny_world(), [exclusion_scene()], smoothing=1e307)
    dist = backend.next_token_distributions("s0", None, [("cat",)])[0]
    assert dist.total() == pytest.approx(1.0)


def test_oracle_rejects_a_repeated_scene_id():
    other = SyntheticScene("s0", (BoxAnnotation((0, 0, 1, 1), "dog", ("a4",)),))
    with pytest.raises(SchemaError, match="scene 's0' is already registered"):
        OracleBackend(tiny_world(), [exclusion_scene(), other])


# -- oracle contrastive side ----------------------------------------------


def test_embed_text_is_normalized_counts(oracle):
    vec = oracle.embed_text(("cat", "is", "cat"))
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    idx = {t: i for i, t in enumerate(oracle.vocab_order)}
    assert vec[idx["cat"]] == pytest.approx(2 / math.sqrt(5))
    assert vec[idx["is"]] == pytest.approx(1 / math.sqrt(5))


def test_embed_text_rejects_oov_and_empty(oracle):
    with pytest.raises(VocabularyError):
        oracle.embed_text(("cat", "zebra"))
    with pytest.raises(RenderError, match="empty sentence"):
        oracle.embed_text(())


def test_embed_batch_rejects_oov_and_empty_like_embed_text(oracle):
    with pytest.raises(VocabularyError, match="'zebra'"):
        oracle.embed_batch("s0", None, [("cat",), ("cat", "zebra")])
    with pytest.raises(RenderError, match="empty sentence"):
        oracle.embed_batch("s0", None, [("cat",), ()])


def test_embed_image_expected_frequencies(oracle):
    vec = oracle.embed_image("s0", None)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    # expected token frequency under the caption distribution, renormalized
    captions = caption_process(exclusion_scene())
    idx = {t: i for i, t in enumerate(oracle.vocab_order)}
    freq = np.zeros(len(oracle.vocab_order))
    for cap, p in captions.items():
        for tok in cap:
            freq[idx[tok]] += float(p)
    freq /= np.linalg.norm(freq)
    np.testing.assert_allclose(vec, freq, atol=1e-12)


def test_embed_order_invariance(oracle):
    a = oracle.embed_text(("cat", "is", "a0"))
    b = oracle.embed_text(("a0", "is", "cat"))
    np.testing.assert_array_equal(a, b)


# -- uniform backend -----------------------------------------------------


def test_uniform_backend_distribution():
    backend = UniformBackend(["b", "a", "c"])
    dist = backend.next_token_distributions("any", None, [("a",)])[0]
    assert dist.probs == {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
    assert dist.terminal_p is None
    with_term = UniformBackend(["a", "b", "c"], include_terminal=True)
    dist = with_term.next_token_distributions("any", None, [()])[0]
    assert dist.terminal_p == 0.25
    assert sum(dist.probs.values()) + dist.terminal_p == pytest.approx(1.0)


def test_uniform_backend_rejects_empty_vocabulary():
    with pytest.raises(ConfigurationError, match="vocabulary is empty"):
        UniformBackend([])


# -- cache round trip ----------------------------------------------------


def scored_fixture(method=Method.GENERATIVE, spec_text="{O} is {A}"):
    spec = random_world(seed=1, n_objects=6, n_attributes=12, attrs_per_object=4)
    scenes = sample_scenes(spec, [2, 3])
    backend = OracleBackend(spec, scenes)
    instances = make_instances(spec, scenes, 8, AnchorKind.OBJECT, seed=0)
    template = parse_template(spec_text)
    scored = [
        rank_instance(backend, inst, template, method)
        for inst in instances
    ]
    return instances, template, scored


def test_cache_file_round_trip(tmp_path):
    instances, template, scored = scored_fixture()
    path = tmp_path / "scores.jsonl"
    write_score_cache(path, scored)
    cache = CachedScoreBackend(read_score_cache(path))
    assert len(cache) == sum(len(s.instance.candidates) for s in scored)
    assert cache.combos() == {(Method.GENERATIVE, "{O} is {A}")}
    replayed = [
        rank_instance(cache, inst, template, Method.GENERATIVE) for inst in instances
    ]
    for fresh, again in zip(scored, replayed):
        assert again.scores == fresh.scores
        assert again.per_token == fresh.per_token
    # writing what was read back is byte-identical
    first = path.read_bytes()
    write_score_cache(path, replayed)
    assert path.read_bytes() == first


def test_cache_miss_is_descriptive(tmp_path):
    _, template, scored = scored_fixture()
    cache = CachedScoreBackend(
        rec for s in scored for rec in scored_to_records(s)
    )
    with pytest.raises(CacheMissError, match="zzz"):
        cache.sentence_score("scene-000000", None, "zzz", template.name,
                             Method.GENERATIVE, "attr00")


def write_v1_cache(path, scored):
    """The per-candidate line form, as caches were written before."""
    write_jsonl(path, (rec for s in scored for rec in scored_to_records(s)))


@pytest.mark.parametrize(
    "method,spec_text",
    [(Method.GENERATIVE, "{O} is {A}"), (Method.CONTRASTIVE, "{A} {O}")],
)
def test_v1_cache_and_its_v2_rewrite_replay_bit_for_bit(tmp_path, method, spec_text):
    instances, template, scored = scored_fixture(method, spec_text)
    v1, v2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
    write_v1_cache(v1, scored)
    write_score_cache(v2, scored)
    assert len(v2.read_text().splitlines()) == len(scored)
    assert len(v1.read_text().splitlines()) == sum(len(i.candidates) for i in instances)
    replays = []
    for path in (v1, v2):
        cache = CachedScoreBackend.from_file(path)
        assert len(cache) == sum(len(i.candidates) for i in instances)
        replays.append([rank_instance(cache, inst, template, method) for inst in instances])
    assert replays[0] == replays[1] == scored
    assert (replays[0][0].per_token is not None) == (method is Method.GENERATIVE)
    # JSON floats round-trip exactly, so equal bytes mean equal bits (-0.0 too)
    for i, replay in enumerate(replays):
        write_score_cache(tmp_path / f"again{i}.jsonl", replay)
        assert (tmp_path / f"again{i}.jsonl").read_bytes() == v2.read_bytes()


def test_read_score_cache_gives_the_same_dicts_for_both_forms(tmp_path):
    _, _, scored = scored_fixture()
    v1, v2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
    write_v1_cache(v1, scored)
    write_score_cache(v2, scored)
    expected = [rec for s in scored for rec in scored_to_records(s)]
    assert read_score_cache(v1) == read_score_cache(v2) == expected


def test_concatenated_v1_and_v2_files_load_as_one_cache(tmp_path):
    gen_instances, gen_template, gen = scored_fixture()
    _, con_template, con = scored_fixture(Method.CONTRASTIVE, "{A} {O}")
    v1, v2, both = (tmp_path / n for n in ("v1.jsonl", "v2.jsonl", "both.jsonl"))
    write_v1_cache(v1, gen)
    write_score_cache(v2, con)
    both.write_bytes(v1.read_bytes() + v2.read_bytes())
    cache = CachedScoreBackend.from_file(both)
    assert cache.combos() == {
        (Method.GENERATIVE, gen_template.name),
        (Method.CONTRASTIVE, con_template.name),
    }
    assert len(cache) == 2 * sum(len(i.candidates) for i in gen_instances)
    for template, method, scored in (
        (gen_template, Method.GENERATIVE, gen),
        (con_template, Method.CONTRASTIVE, con),
    ):
        assert [rank_instance(cache, s.instance, template, method) for s in scored] == scored


def test_in_memory_cache_records_are_checked():
    _, _, scored = scored_fixture()
    rec = scored_to_records(scored[0])[0]
    with pytest.raises(SchemaError, match="loss"):
        CachedScoreBackend([{**rec, "loss": "abc"}])


def test_conflicting_duplicate_cache_key_is_rejected(tmp_path):
    _, _, scored = scored_fixture()
    first = scored_to_records(scored[0])[0]
    again = {**first, "loss": first["loss"] + 5}
    with pytest.raises(SchemaError, match=repr(first["candidate"])):
        CachedScoreBackend([first, again])
    with pytest.raises(SchemaError, match="per_token"):
        CachedScoreBackend([first, {**first, "per_token": [0.0]}])
    path = tmp_path / "conflict.jsonl"
    write_jsonl(path, [first, again])
    with pytest.raises(SchemaError, match=f"^{path}: conflicting"):
        CachedScoreBackend.from_file(path)


def test_identical_duplicate_cache_lines_still_load(tmp_path):
    instances, template, scored = scored_fixture()
    path = tmp_path / "twice.jsonl"
    write_score_cache(path, scored + scored)  # a run concatenated twice
    cache = CachedScoreBackend.from_file(path)
    assert len(cache) == sum(len(i.candidates) for i in instances)
    assert [rank_instance(cache, i, template, Method.GENERATIVE) for i in instances] == scored


def test_scored_to_records_carries_anchor_and_region():
    _, _, scored = scored_fixture()
    rec = scored_to_records(scored[0])[0]
    assert rec["anchor"] == scored[0].instance.anchor
    assert rec["region"] == list(scored[0].instance.region)
    assert rec["method"] == "generative"


# -- the instance table --------------------------------------------------


def test_interleaved_v1_lines_replay_like_their_v2_rewrite(tmp_path):
    instances, template, scored = scored_fixture()
    per_instance = [scored_to_records(s) for s in scored]
    # candidate j of every instance before candidate j + 1 of any
    interleaved = [recs[j] for j in range(len(per_instance[0])) for recs in per_instance]
    assert len(interleaved) == sum(map(len, per_instance))
    v1, v2 = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
    write_jsonl(v1, interleaved)
    write_score_cache(v2, scored)
    replays = [
        [rank_instance(CachedScoreBackend.from_file(p), i, template, Method.GENERATIVE)
         for i in instances]
        for p in (v1, v2)
    ]
    assert replays[0] == replays[1] == scored


def _one_line(scored: ScoredInstance, **changes) -> dict:
    """The per-instance cache line of a generative `scored`, fields replaced
    by `changes`."""
    inst = scored.instance
    return {
        "image_id": inst.image_id,
        "region": list(inst.region),
        "anchor": inst.anchor,
        "template_name": scored.template_name,
        "method": scored.method.value,
        "candidates": list(inst.candidates),
        "loss": list(scored.scores),
        "per_token": [list(row) for row in scored.per_token],
        **changes,
    }


def test_a_v2_line_naming_a_candidate_twice_is_checked_like_two_lines():
    _, _, scored = scored_fixture()
    line = _one_line(scored[0])
    first, loss, row = line["candidates"][0], line["loss"][0], line["per_token"][0]
    twice = {
        **line,
        "candidates": line["candidates"] + [first],
        "loss": line["loss"] + [loss + 5],
        "per_token": line["per_token"] + [row],
    }
    with pytest.raises(SchemaError, match=f"^conflicting records .*candidate={first!r}: loss"):
        CachedScoreBackend([twice])
    other_row = {**twice, "loss": line["loss"] + [loss], "per_token": line["per_token"] + [row + [0.5]]}
    with pytest.raises(SchemaError, match="two different per_token rows"):
        CachedScoreBackend([other_row])
    same = CachedScoreBackend([{**twice, "loss": line["loss"] + [loss]}])
    assert len(same) == len(line["candidates"])
    assert same.sentence_score(
        scored[0].instance.image_id, scored[0].instance.region, scored[0].instance.anchor,
        line["template_name"], Method.GENERATIVE, first,
    ) == (loss, tuple(row))


def test_len_counts_candidate_entries_across_merged_lines():
    _, _, scored = scored_fixture()
    a, b = scored[0], scored[1]
    n_a, n_b = len(a.instance.candidates), len(b.instance.candidates)
    half = _one_line(a, candidates=list(a.instance.candidates[:2]), loss=list(a.scores[:2]),
                     per_token=[list(r) for r in a.per_token[:2]])
    cache = CachedScoreBackend([half, _one_line(b), _one_line(a)])
    assert len(cache) == n_a + n_b


def test_instance_scores_miss_names_the_first_missing_candidate():
    _, template, scored = scored_fixture()
    inst = scored[0].instance
    cands = inst.candidates
    empty = CachedScoreBackend()
    with pytest.raises(CacheMissError) as absent:
        empty.instance_scores(inst, template.name, Method.GENERATIVE)
    assert str(absent.value) == (
        f"no cached score for image={inst.image_id!r} anchor={inst.anchor!r} "
        f"template={template.name!r} method=generative candidate={cands[0]!r}"
    )
    # the key holds candidates 0 and 2 only: candidate 1 is the first missing
    partial = CachedScoreBackend([
        _one_line(scored[0], candidates=[cands[0], cands[2]],
                  loss=[scored[0].scores[0], scored[0].scores[2]],
                  per_token=[list(scored[0].per_token[0]), list(scored[0].per_token[2])]),
    ])
    with pytest.raises(CacheMissError, match=f"candidate={cands[1]!r}$"):
        partial.instance_scores(inst, template.name, Method.GENERATIVE)
    with pytest.raises(CacheMissError, match="method=contrastive"):
        CachedScoreBackend(scored_to_records(scored[0])).instance_scores(
            inst, template.name, Method.CONTRASTIVE
        )


def test_rank_instance_asks_the_cache_once_per_instance(monkeypatch):
    instances, template, scored = scored_fixture()
    cache = CachedScoreBackend(map(_one_line, scored))
    asked = []
    real = CachedScoreBackend.instance_scores

    def counted(self, instance, template_name, method):
        asked.append(instance)
        return real(self, instance, template_name, method)

    def refused(self, *key):
        raise AssertionError("sentence_score called during replay")

    monkeypatch.setattr(CachedScoreBackend, "instance_scores", counted)
    monkeypatch.setattr(CachedScoreBackend, "sentence_score", refused)
    assert [rank_instance(cache, i, template, Method.GENERATIVE) for i in instances] == scored
    assert asked == list(instances)


def test_the_default_instance_scores_reads_each_candidate_through_sentence_score():
    instances, template, scored = scored_fixture()
    cache = CachedScoreBackend(map(_one_line, scored))
    keys = []

    class PerCandidate(SentenceScoreSource):
        def sentence_score(self, *key):
            keys.append(key)
            return cache.sentence_score(*key)

    source = PerCandidate()
    assert [rank_instance(source, i, template, Method.GENERATIVE) for i in instances] == scored
    assert len(keys) == sum(len(i.candidates) for i in instances)


def _per_number_rule(values, field):
    """The per-number rule that the whole-list fast path must agree with:
    the message for the first value is_finite_number rejects, else None."""
    for v in values:
        if not is_finite_number(v):
            return f"{field} entries must be finite numbers, got {v!r}"
    return None


@pytest.mark.parametrize(
    "values",
    [
        pytest.param([True], id="bool"),
        pytest.param([float("nan")], id="nan"),
        pytest.param([float("inf")], id="inf"),
        pytest.param([1.0, float("-inf")], id="minus-inf-second"),
        pytest.param(["1.0"], id="string"),
        pytest.param([None], id="null"),
        pytest.param([[1.0]], id="nested-list"),
        pytest.param([], id="empty"),
        pytest.param([1e308, 1e308], id="finite-sum-overflows"),
        pytest.param([1, 2.5, -3], id="mixed-int-float"),
        pytest.param([10**400], id="int-too-big"),
        pytest.param([10**400, -(10**400), 1.0], id="too-big-ints-cancel"),
    ],
)
def test_whole_list_number_checks_agree_with_the_per_number_rule(values):
    _, _, scored = scored_fixture()
    n = max(len(values), 1)
    cands = list(scored[0].instance.candidates[:n])
    loss_line = _one_line(scored[0], candidates=cands, loss=values,
                          per_token=[[0.5]] * n)
    expected = _per_number_rule(values, "loss")
    if expected is None and len(values) != n:
        expected = f"{len(values)} losses for {n} candidates"
    row_line = _one_line(scored[0], candidates=cands[:1], loss=[0.5], per_token=[values])
    v1_line = {**scored_to_records(scored[0])[0], "per_token": values}
    for line, message in (
        (loss_line, expected),
        (row_line, _per_number_rule(values, "per_token row")),
        (v1_line, _per_number_rule(values, "per_token")),
    ):
        if message is None:
            CachedScoreBackend([line])
        else:
            with pytest.raises(SchemaError) as err:
                CachedScoreBackend([line])
            assert str(err.value) == message
