import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from genret import world
from genret import (
    AnchorKind,
    BoxAnnotation,
    SyntheticScene,
    WorldSpec,
    caption_process,
    make_instances,
    parse_scene_graph,
    random_world,
    read_scenes,
    read_world,
    sample_scenes,
    scenes_to_records,
    world_stats,
    write_scenes,
    write_world,
)
from genret.errors import BuilderError, ParameterError, SchemaError, WorldError


def tiny_world(**kw):
    base = dict(
        objects=("cat", "dog"),
        attributes=("a0", "a1", "a2", "a3", "a4", "a5"),
        compatibility={
            "cat": ("a0", "a1", "a2", "a3"),
            "dog": ("a2", "a4", "a5"),
        },
        attribute_prior={
            ("cat", "a0"): 0.5,
            ("cat", "a1"): 0.4,
            ("cat", "a2"): 0.3,
            ("cat", "a3"): 0.2,
            ("dog", "a2"): 0.6,
            ("dog", "a4"): 0.5,
            ("dog", "a5"): 0.4,
        },
    )
    base.update(kw)
    return WorldSpec(**base)


# -- spec validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(objects=()),
        dict(attributes=()),
        dict(objects=("cat", "cat")),
        dict(compatibility={"bird": ("a0",)}),
        dict(compatibility={"cat": ("zz",)}),
        dict(attribute_prior={("cat", "a0"): 0.0}),
        dict(attribute_prior={("cat", "a0"): 1.5}),
        dict(attribute_prior={("cat", "a4"): 0.5}),  # a4 not compatible with cat
    ],
)
def test_world_spec_validation(kw):
    with pytest.raises(WorldError):
        tiny_world(**kw)


def test_vocabulary_is_sorted_and_includes_template_literals():
    vocab = tiny_world().vocabulary()
    assert vocab == tuple(sorted(vocab))
    assert "is" in vocab
    assert "cat" in vocab and "a5" in vocab


# -- sampling ------------------------------------------------------------


def test_random_world_shape_and_determinism():
    w1 = random_world(seed=5, n_objects=7, n_attributes=11, attrs_per_object=3)
    w2 = random_world(seed=5, n_objects=7, n_attributes=11, attrs_per_object=3)
    assert w1 == w2
    assert len(w1.objects) == 7 and len(w1.attributes) == 11
    for o, attrs in w1.compatibility.items():
        assert 1 <= len(attrs) <= 3
        assert set(attrs) <= set(w1.attributes)
    for (o, a), p in w1.attribute_prior.items():
        assert 0.15 <= p <= 0.6
        assert a in w1.compatibility[o]


@pytest.mark.parametrize(
    "kw,name",
    [
        (dict(seed=-1), "seed"),
        (dict(seed=1.0), "seed"),
        (dict(n_objects=0), "n_objects"),
        (dict(n_attributes=0), "n_attributes"),
        (dict(n_attributes=True), "n_attributes"),
        (dict(attrs_per_object=0), "attrs_per_object"),
        (dict(n_attributes=4, attrs_per_object=5), "n_attributes - attrs_per_object"),
    ],
)
def test_random_world_rejects_a_parameter_outside_its_domain(kw, name):
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} must be"):
        random_world(**{"n_objects": 3, "n_attributes": 6, "attrs_per_object": 2, **kw})


def test_random_world_accepts_as_many_attributes_per_object_as_there_are():
    spec = random_world(seed=0, n_objects=3, n_attributes=2, attrs_per_object=2)
    assert all(1 <= len(a) <= 2 for a in spec.compatibility.values())


@pytest.mark.parametrize("n", [2.5, True, 0, -1, "1"])
def test_sample_scene_rejects_an_entity_count_outside_its_domain(n):
    sampler = world.SceneSampler(tiny_world())
    with pytest.raises(ParameterError, match="^n_entities must be an int >= 1"):
        sampler.sample_scene(n)


def test_sample_scenes_deterministic_with_ordinal_ids():
    spec = random_world(seed=2, n_objects=5, n_attributes=9, attrs_per_object=3)
    s1 = sample_scenes(spec, [1, 2, 3])
    s2 = sample_scenes(spec, [1, 2, 3])
    assert s1 == s2
    assert [sc.image_id for sc in s1] == ["scene-000000", "scene-000001", "scene-000002"]
    for sc in s1:
        for ent in sc.entities:
            assert ent.obj in spec.objects
            assert set(ent.attributes) <= set(spec.compatibility[ent.obj])


# -- caption process -----------------------------------------------------


def test_caption_process_exact_masses():
    scene = SyntheticScene(
        "s0",
        entities=(BoxAnnotation((0, 0, 1, 1), "cat", ("a0",)),
                  BoxAnnotation((1, 1, 2, 2), "dog", ())),
    )
    dist = caption_process(scene)
    assert dist == {
        ("a0", "cat"): Fraction(1, 4),
        ("cat", "is", "a0"): Fraction(1, 4),
        ("dog",): Fraction(1, 2),
    }
    assert sum(dist.values()) == Fraction(1)


def test_caption_process_splits_mass_over_attributes():
    scene = SyntheticScene("s0", entities=(BoxAnnotation((0, 0, 1, 1), "cat", ("a0", "a1")),))
    dist = caption_process(scene)
    assert dist[("a0", "cat")] == Fraction(1, 4)
    assert dist[("cat", "is", "a1")] == Fraction(1, 4)
    assert sum(dist.values()) == Fraction(1)


def test_caption_process_accumulates_identical_captions():
    scene = SyntheticScene(
        "s0",
        entities=(BoxAnnotation((0, 0, 1, 1), "cat", ("a0",)),
                  BoxAnnotation((1, 1, 2, 2), "cat", ("a0",))),
    )
    dist = caption_process(scene)
    assert dist[("a0", "cat")] == Fraction(1, 2)
    assert sum(dist.values()) == Fraction(1)


# -- instance construction -----------------------------------------------


def exclusion_scene():
    return SyntheticScene(
        "s0",
        entities=(
            BoxAnnotation((0, 0, 1, 1), "cat", ("a0",)),
            BoxAnnotation((1, 1, 2, 2), "cat", ("a1",)),
            BoxAnnotation((2, 2, 3, 3), "dog", ("a2",)),
        ),
    )


def test_world_stats_are_normalized_priors():
    stats = world_stats(tiny_world())
    # nothing is counted, so only build-dataset's counts.json has counts
    assert stats.object_counts == stats.attribute_counts == {}
    assert [w for w, _ in stats.attrs_given_object["dog"]] == ["a2", "a4", "a5"]
    assert stats.attrs_given_object["dog"][0][1] == pytest.approx(0.6 / 1.5)
    assert [w for w, _ in stats.objects_given_attr["a2"]] == ["dog", "cat"]
    assert stats.objects_given_attr["a2"][0][1] == pytest.approx(0.6 / 0.9)
    assert stats.object_prior == (("cat", 0.5), ("dog", 0.5))
    # a2 is carried by both objects, so it leads the attribute prior
    assert stats.attribute_prior[0][0] == "a2"
    assert sum(p for _, p in stats.attribute_prior) == pytest.approx(1.0)


def test_world_stats_put_zero_prior_attributes_last():
    stats = world_stats(tiny_world(attributes=("a0", "a1", "a2", "a3", "a4", "a5", "b1", "b0")))
    assert stats.attribute_prior[-2:] == (("b0", 0.0), ("b1", 0.0))
    # a world without priors still has a (flat, lexicographic) fallback tier
    bare = world_stats(tiny_world(compatibility={}, attribute_prior={}))
    assert [w for w, _ in bare.attribute_prior] == ["a0", "a1", "a2", "a3", "a4", "a5"]


def test_world_stats_are_derived_once_per_world(monkeypatch):
    calls = []
    real = world.world_stats
    monkeypatch.setattr(world, "world_stats", lambda spec: calls.append(spec) or real(spec))
    spec = tiny_world()
    scenes = [replace(exclusion_scene(), image_id=f"s{i}") for i in range(3)]
    assert len(make_instances(spec, scenes, 4, AnchorKind.OBJECT)) == 9
    assert calls == [spec]


def test_object_anchor_instances_respect_pairing_exclusion():
    spec = tiny_world()
    insts = make_instances(spec, [exclusion_scene()], 4, AnchorKind.OBJECT, seed=0)
    assert len(insts) == 3
    first = insts[0]
    assert first.anchor == "cat"
    assert first.anchor_kind is AnchorKind.OBJECT
    assert len(first.candidates) == 4
    assert {first.candidates[i] for i in first.positives} == {"a0"}
    # a1 is realized on the other cat, so it may not serve as a negative here
    assert "a1" not in first.candidates
    # the dog's attribute is fair game as an on-scene confounder
    second = insts[1]
    assert "a0" not in second.candidates
    assert first.region == (0, 0, 1, 1)


def test_object_anchor_skips_attributeless_entities():
    scene = SyntheticScene(
        "s0",
        entities=(BoxAnnotation((0, 0, 1, 1), "cat", ()),
                  BoxAnnotation((1, 1, 2, 2), "dog", ("a4",))),
    )
    insts = make_instances(tiny_world(), [scene], 3, AnchorKind.OBJECT)
    assert len(insts) == 1
    assert insts[0].anchor == "dog"


def test_attribute_anchor_instances_collect_bearers():
    # one instance per attribute-bearing box, anchored on its first attribute,
    # as build-dataset does: the other bearer of the anchor is true elsewhere
    # on the image, so it is excluded rather than counted as a positive
    spec = tiny_world(objects=("cat", "dog", "fox"))
    scene = SyntheticScene(
        "s0",
        entities=(BoxAnnotation((0, 0, 1, 1), "cat", ("a2",)),
                  BoxAnnotation((1, 1, 2, 2), "dog", ("a2", "a4"))),
    )
    insts = make_instances(spec, [scene], 2, AnchorKind.ATTRIBUTE)
    assert [i.anchor for i in insts] == ["a2", "a2"]
    a2 = insts[0]
    assert a2.anchor_kind is AnchorKind.ATTRIBUTE
    assert {a2.candidates[i] for i in a2.positives} == {"cat"}
    assert "dog" not in a2.candidates
    assert a2.region == (0, 0, 1, 1)


def test_make_instances_is_deterministic_per_seed():
    spec = tiny_world()
    scene = exclusion_scene()
    a = make_instances(spec, [scene], 4, AnchorKind.OBJECT, seed=9)
    b = make_instances(spec, [scene], 4, AnchorKind.OBJECT, seed=9)
    c = make_instances(spec, [scene], 4, AnchorKind.OBJECT, seed=10)
    assert a == b
    assert a != c


@pytest.mark.parametrize("anchor_kind", list(AnchorKind))
def test_make_instances_over_scenes_concatenates_one_scene_results(anchor_kind):
    spec = random_world(seed=3, n_objects=6, n_attributes=14, attrs_per_object=4)
    scenes = sample_scenes(spec, [1, 3, 2, 2])
    together = make_instances(spec, scenes, 5, anchor_kind, seed=4)
    one_by_one = [
        inst for sc in scenes for inst in make_instances(spec, [sc], 5, anchor_kind, seed=4)
    ]
    assert together == one_by_one
    assert len({i.image_id for i in together}) > 1


def test_make_instances_rejects_oversized_candidate_lists():
    spec = tiny_world()
    with pytest.raises(BuilderError):
        make_instances(spec, [exclusion_scene()], 7, AnchorKind.OBJECT)
    with pytest.raises(BuilderError):
        make_instances(spec, [exclusion_scene()], 3, AnchorKind.ATTRIBUTE)


# -- export and serialization --------------------------------------------


def test_scenes_to_records_mirrors_entities():
    recs = scenes_to_records([exclusion_scene()])
    assert len(recs) == 1
    assert recs[0].image_id == "s0"
    assert [b.obj for b in recs[0].boxes] == ["cat", "cat", "dog"]
    assert recs[0].boxes[0].attributes == ("a0",)


def test_world_file_round_trip(tmp_path):
    spec = random_world(seed=4, n_objects=6, n_attributes=10, attrs_per_object=4)
    path = tmp_path / "world.json"
    write_world(path, spec)
    assert read_world(path) == spec
    first = path.read_bytes()
    write_world(path, read_world(path))
    assert path.read_bytes() == first


def world_dict_with(**changes):
    d = world.world_to_dict(tiny_world())
    d.update(changes)
    return d


@pytest.mark.parametrize("seed", [1.7, "1", True, None])
def test_world_seed_must_be_an_integer(seed):
    with pytest.raises(SchemaError, match="rng_seed"):
        world.world_from_dict(world_dict_with(rng_seed=seed))


@pytest.mark.parametrize("prior", ["0.5", None, float("nan"), False])
def test_world_prior_must_be_a_number(prior):
    d = world_dict_with()
    d["attribute_prior"]["cat"]["a0"] = prior
    with pytest.raises(SchemaError, match="prior for \\('cat', 'a0'\\)"):
        world.world_from_dict(d)


def test_world_shape_errors_name_the_file(tmp_path):
    path = tmp_path / "world.json"
    d = world_dict_with()
    del d["attribute_prior"]
    path.write_text(json.dumps(d))
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: bad world record"):
        read_world(path)


def test_scene_file_round_trip(tmp_path):
    spec = random_world(seed=4, n_objects=6, n_attributes=10, attrs_per_object=4)
    scenes = sample_scenes(spec, [2, 1, 3])
    path = tmp_path / "scenes.jsonl"
    write_scenes(path, scenes)
    assert read_scenes(path) == scenes


def _one_scene_file(tmp_path, image_id, **box):
    record = {"image_id": image_id, "objects": [{"x": 0, "y": 0, "w": 4, "h": 3,
                                                 "names": ["cat"], **box}]}
    path = tmp_path / "scenes.jsonl"
    path.write_text(json.dumps(record) + "\n")
    return path, record


def test_scene_file_takes_an_integer_id_as_the_scene_graph_does(tmp_path):
    path, record = _one_scene_file(tmp_path, 2417, attributes=["red"])
    (scene,) = read_scenes(path)
    assert scene.image_id == "2417"
    assert parse_scene_graph([record])[0].image_id == scene.image_id


@pytest.mark.parametrize("box", [{}, {"attributes": None}], ids=["missing", "null"])
def test_scene_file_reads_a_missing_attribute_list_as_empty(tmp_path, box):
    path, _ = _one_scene_file(tmp_path, "s0", **box)
    (scene,) = read_scenes(path)
    assert scene.entities == (BoxAnnotation((0, 0, 4, 3), "cat", ()),)
    assert caption_process(scene) == {("cat",): Fraction(1)}


def test_scene_file_reads_a_repeated_attribute_once(tmp_path):
    path, record = _one_scene_file(tmp_path, "s0", attributes=["red", "Red", "blue"])
    (scene,) = read_scenes(path)
    assert scene.entities == (BoxAnnotation((0, 0, 4, 3), "cat", ("red", "blue")),)
    assert parse_scene_graph([record])[0].boxes[0].attributes == ("red", "blue")
    # each distinct attribute carries half the entity's caption mass
    red = sum(p for cap, p in caption_process(scene).items() if "red" in cap)
    assert red == Fraction(1, 2)
