"""Scene-graph parsing, co-occurrence stats, and benchmark construction."""

import dataclasses
import hashlib
import json

import pytest

import bruteforce as bf
from genret import (
    AnchorKind,
    BoxAnnotation,
    CooccurrenceStats,
    SceneGraphRecord,
    build_split,
    build_stats,
    parse_scene_graph,
    record_to_dict,
    write_instances,
    write_scene_graph,
)
from genret.errors import BuilderError, ParameterError, SchemaError, StatsError


def box(obj, attrs, rect=(0.0, 0.0, 10.0, 10.0)):
    return BoxAnnotation(box=rect, obj=obj, attributes=tuple(attrs))


@pytest.fixture()
def records():
    # pairs: (cat,black) x2, (cat,small), (cat,white), (cat,fluffy),
    #        (dog,black), (dog,brown), (bird,red), (bird,small)
    return [
        SceneGraphRecord(
            "img1",
            (
                box("cat", ("black", "small"), (0.0, 0.0, 10.0, 10.0)),
                box("cat", ("white",), (5.0, 5.0, 10.0, 10.0)),
                box("dog", ("black",), (20.0, 20.0, 8.0, 8.0)),
            ),
        ),
        SceneGraphRecord(
            "img2",
            (
                box("cat", ("fluffy",)),
                box("dog", ("brown",)),
                box("mat", ()),
            ),
        ),
        SceneGraphRecord(
            "img3",
            (
                box("cat", ("black",)),
                box("bird", ("red", "small")),
            ),
        ),
    ]


@pytest.fixture()
def stats(records):
    return build_stats(records)


@pytest.fixture()
def roomy_stats(stats):
    """stats plus one zero-mass word at the attribute prior's tail.  The
    white cat on img1 reaches only 3 negatives from the corpus, so building
    img1 at total=5 needs it; the other boxes stop before it."""
    return dataclasses.replace(stats, attribute_prior=stats.attribute_prior + (("zzz", 0.0),))


# -- parsing ----------------------------------------------------------------


def test_parse_scene_graph_happy_path():
    raw = [
        {
            "image_id": 7,
            "objects": [
                {
                    "x": 1,
                    "y": 2,
                    "w": 3,
                    "h": 4,
                    "names": ["Cat", "feline"],
                    "attributes": ["Black", "black", "Small"],
                },
                {"x": 0, "y": 0, "w": 5, "h": 5, "names": ["mat"]},
            ],
        },
        {"image_id": "8"},
    ]
    got = parse_scene_graph(raw)
    assert [r.image_id for r in got] == ["7", "8"]
    first = got[0].boxes[0]
    assert first.obj == "cat"  # first name wins, lowercased
    assert first.attributes == ("black", "small")  # deduped, order kept
    assert first.box == (1, 2, 3, 4)
    assert got[0].boxes[1].attributes == ()
    assert got[1].boxes == ()


def test_parse_scene_graph_reads_files(tmp_path, records):
    path = tmp_path / "graph.json"
    write_scene_graph(path, records)
    assert parse_scene_graph(path) == records
    assert parse_scene_graph(str(path)) == records


def test_scene_graph_shape_errors_name_the_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps([{"objects": []}]))
    with pytest.raises(SchemaError) as err:
        parse_scene_graph(path)
    assert str(err.value) == f"{path}: image record #0: missing image_id"


def test_scene_graph_rewrite_is_byte_identical(tmp_path, records):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_scene_graph(a, records)
    write_scene_graph(b, parse_scene_graph(a))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "raw,match",
    [
        ({"image_id": "x"}, "must be a list"),
        ([{"objects": []}], "missing image_id"),
        ([{"image_id": "x", "objects": [{"x": 0, "y": 0, "w": 1, "h": 1, "names": []}]}], "empty names"),
        ([{"image_id": "x", "objects": [{"names": ["cat"], "x": 0, "y": 0, "w": 1}]}], "image x object #0: region must be null"),
        ([{"image_id": "x", "objects": 7}], "image x: objects must be a list"),
        ([{"image_id": "x", "objects": [5]}], "image x object #0: object entry must be a dict"),
        ([{"image_id": "x", "objects": [{"x": 0, "y": 0, "w": 1, "h": 1, "names": "cat"}]}], "image x object #0: names must be a list"),
        ([{"image_id": "x", "objects": [{"x": 0, "y": 0, "w": 1, "h": 1, "names": ["cat"], "attributes": 5}]}], "image x object #0: attributes must be a list"),
        ([{"image_id": "x", "objects": [{"x": 0, "y": 0, "w": 1, "h": 1, "names": ["cat"], "attributes": [5]}]}], "image x object #0: word must be a string"),
        ([{"image_id": "x", "objects": [{"x": "a", "y": None, "w": 1, "h": 1, "names": ["cat"]}]}], "image x object #0: region must be null"),
        ([{"image_id": None}, {"image_id": None}], "image record #0: image_id must be a non-empty string or an integer, got None"),
        ([{"image_id": ""}], "image record #0: image_id must be a non-empty string or an integer, got ''"),
        ([{"image_id": "x"}, {"image_id": True}], "image record #1: image_id must be a non-empty string or an integer, got True"),
        ([{"image_id": 1.0}], "image record #0: image_id must be a non-empty string or an integer, got 1.0"),
        ([{"image_id": 7}, {"image_id": "8"}, {"image_id": "7"}], "image record #2: image_id '7' repeats image record #0"),
    ],
)
def test_parse_scene_graph_rejects(raw, match):
    with pytest.raises(SchemaError, match=match):
        parse_scene_graph(raw)


# -- statistics ---------------------------------------------------------------


def test_build_stats_counts(stats):
    assert stats.object_counts == {"cat": 4, "dog": 2, "bird": 1, "mat": 1}
    assert stats.attribute_counts == {
        "black": 3, "small": 2, "white": 1, "fluffy": 1, "brown": 1, "red": 1,
    }


def test_build_stats_tables_are_ranked(stats):
    # descending probability, ties broken lexicographically
    assert stats.attrs_given_object["cat"] == (
        ("black", 0.4), ("fluffy", 0.2), ("small", 0.2), ("white", 0.2),
    )
    assert stats.objects_given_attr["black"] == (("cat", 2 / 3), ("dog", 1 / 3))
    assert stats.object_prior[0] == ("cat", 0.5)
    assert [w for w, _ in stats.attribute_prior[:2]] == ["black", "small"]


def test_build_stats_distributions_normalize(stats):
    for table in (stats.attrs_given_object, stats.objects_given_attr):
        for ranked in table.values():
            assert sum(p for _, p in ranked) == pytest.approx(1.0, abs=1e-9)
    assert sum(p for _, p in stats.object_prior) == pytest.approx(1.0, abs=1e-9)
    assert sum(p for _, p in stats.attribute_prior) == pytest.approx(1.0, abs=1e-9)


def test_build_stats_requires_records():
    with pytest.raises(StatsError):
        build_stats([])


# -- instance building --------------------------------------------------------


def built(record, box_index, stats, total, anchor_kind=AnchorKind.OBJECT, seed=0):
    """build_split's instance for one box, from a split of its record alone."""
    instances, _ = build_split([record], stats, anchor_kind=anchor_kind, seed=seed, total=total)
    eligible = [i for i, b in enumerate(record.boxes) if b.attributes]
    return instances[eligible.index(box_index)]


def build_order(inst, box_index, seed=0):
    """The instance's words before its seeded shuffle."""
    order = bf.naive_shuffle(
        range(len(inst.candidates)), seed, inst.image_id, box_index, inst.anchor_kind.value
    )
    words = [None] * len(order)
    for word, i in zip(inst.candidates, order):
        words[i] = word
    return words


def hand_stats(conditional, prior):
    """Stats whose only tables are P(attribute | o) and the attribute prior."""
    return CooccurrenceStats(
        object_counts={}, attribute_counts={},
        attrs_given_object={"o": conditional}, objects_given_attr={},
        object_prior=(), attribute_prior=prior,
    )


def test_negatives_walk_the_conditional_table_then_the_prior():
    # the one box's positive b is skipped in both tiers
    stats = hand_stats((("a", 0.5), ("b", 0.3), ("c", 0.2)), (("z", 0.9), ("a", 0.5), ("y", 0.1)))
    inst = built(SceneGraphRecord("one", (box("o", ("b",)),)), 0, stats, total=4)
    assert build_order(inst, 0) == ["b", "a", "c", "z"]


def test_negatives_never_repeat_across_tiers():
    stats = hand_stats((("a", 0.5),), (("a", 0.9), ("b", 0.1)))
    inst = built(SceneGraphRecord("one", (box("o", ("p",)),)), 0, stats, total=3)
    assert build_order(inst, 0) == ["p", "a", "b"]


def test_exhausted_vocabulary_names_the_shortfall():
    stats = hand_stats((("a", 1.0),), (("b", 1.0),))
    with pytest.raises(BuilderError, match="^vocabulary exhausted: needed 3 negatives, found 2$"):
        build_split([SceneGraphRecord("one", (box("o", ("p",)),))], stats, total=4)


def test_more_positives_than_total_is_an_error(records, stats):
    with pytest.raises(BuilderError, match="^2 ground-truth words exceed total=1$"):
        build_split(records[:1], stats, total=1)


def test_object_anchor_words(records, roomy_stats):
    inst = built(records[0], 0, roomy_stats, total=5)
    assert inst.anchor == "cat"
    # positives; fluffy from P(attribute | cat), since white is off the table
    # (the other cat box on img1 wears it); then the prior fills the rest
    assert build_order(inst, 0) == ["black", "small", "fluffy", "brown", "red"]


def test_attribute_anchor_words(records, stats):
    inst = built(records[0], 2, stats, total=3, anchor_kind=AnchorKind.ATTRIBUTE)
    assert inst.anchor == "black"  # the box's first attribute
    # img1's cat also wears black, so cat is off the table, and dog is the
    # positive: P(object | black) has nothing left and the prior fills in
    assert build_order(inst, 2) == ["dog", "bird", "mat"]


def test_every_box_is_built_by_the_rule_hard_negatives_first(records, stats):
    """Each instance equals the naive builder's words under the seeded
    shuffle, and its negatives with conditional mass come first, in
    non-increasing P(word | anchor)."""
    for anchor_kind, total in ((AnchorKind.OBJECT, 4), (AnchorKind.ATTRIBUTE, 3)):
        instances, _ = build_split(records, stats, anchor_kind=anchor_kind, seed=5, total=total)
        tables = (
            stats.attrs_given_object if anchor_kind is AnchorKind.OBJECT
            else stats.objects_given_attr
        )
        boxes = [(rec, i) for rec in records for i, b in enumerate(rec.boxes) if b.attributes]
        assert len(instances) == len(boxes)
        for inst, (rec, i) in zip(instances, boxes):
            words = bf.naive_instance_words(rec, i, stats, total, anchor_kind.value)
            assert len(words) == total
            assert list(inst.candidates) == bf.naive_shuffle(
                words, 5, rec.image_id, i, anchor_kind.value
            ), (rec.image_id, i, anchor_kind)
            table = dict(tables.get(inst.anchor, ()))
            n_pos = len(inst.positives)
            probs = [table.get(w, 0.0) for w in build_order(inst, i, seed=5)[n_pos:]]
            assert probs == sorted(probs, reverse=True), (rec.image_id, i, anchor_kind)


def test_built_instance_fields(records, roomy_stats):
    inst = built(records[0], 0, roomy_stats, total=5, seed=3)
    assert inst.image_id == "img1"
    assert inst.anchor == "cat"
    # attribute candidates anchor on an object word
    assert inst.anchor_kind is AnchorKind.OBJECT
    assert inst.region == (0.0, 0.0, 10.0, 10.0)
    assert sorted(inst.candidates) == ["black", "brown", "fluffy", "red", "small"]
    assert {inst.candidates[i] for i in inst.positives} == {"black", "small"}
    assert inst.negatives_explicit is None


def test_built_shuffle_is_seeded(records, roomy_stats):
    a = built(records[0], 0, roomy_stats, total=5, seed=3)
    b = built(records[0], 0, roomy_stats, total=5, seed=3)
    c = built(records[0], 0, roomy_stats, total=5, seed=4)
    assert a == b
    assert a.candidates != c.candidates
    assert sorted(a.candidates) == sorted(c.candidates)


def test_built_attribute_anchor_instance(records, stats):
    inst = built(records[0], 2, stats, total=3, anchor_kind=AnchorKind.ATTRIBUTE)
    assert inst.anchor == "black"
    assert inst.anchor_kind is AnchorKind.ATTRIBUTE
    assert {inst.candidates[i] for i in inst.positives} == {"dog"}


# -- split building -------------------------------------------------------------


def test_build_split_orders_and_skips(records, stats):
    instances, manifest = build_split(records, stats, total=4, seed=1)
    # every box with at least one attribute, in (image_id, box index) order
    assert [i.image_id for i in instances] == [
        "img1", "img1", "img1", "img2", "img2", "img3", "img3",
    ]
    assert [i.anchor for i in instances] == [
        "cat", "cat", "dog", "cat", "dog", "cat", "bird",
    ]
    assert manifest["n_records"] == 3
    assert manifest["n_images"] == 3
    assert manifest["n_instances"] == 7
    assert manifest["anchor_kind"] == "object"
    expected_hash = hashlib.sha256(
        json.dumps({"anchor_kind": "object", "seed": 1, "total": 4}, sort_keys=True).encode()
    ).hexdigest()
    assert manifest["config_hash"] == expected_hash


@pytest.mark.parametrize("seed", [-1, 1.0, True, None])
def test_build_split_rejects_a_seed_outside_its_domain(records, stats, seed):
    with pytest.raises(ParameterError, match="^seed must be an int >= 0"):
        build_split(records, stats, total=4, seed=seed)


@pytest.mark.parametrize("total", [0, 2.5, True])
def test_build_split_rejects_a_total_outside_its_domain(records, stats, total):
    with pytest.raises(ParameterError, match="^total must be an int >= 1"):
        build_split(records, stats, total=total)


def test_build_split_rebuild_is_byte_identical(tmp_path, records, stats):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    instances, _ = build_split(records, stats, total=4, seed=9)
    write_instances(first, instances)
    rebuilt, _ = build_split(records, stats, total=4, seed=9)
    write_instances(second, rebuilt)
    assert first.read_bytes() == second.read_bytes()

    other, _ = build_split(records, stats, total=4, seed=10)
    write_instances(second, other)
    assert first.read_bytes() != second.read_bytes()


def test_record_to_dict_shape(records):
    d = record_to_dict(records[0])
    assert d["image_id"] == "img1"
    assert d["objects"][0] == {
        "x": 0.0, "y": 0.0, "w": 10.0, "h": 10.0,
        "names": ["cat"], "attributes": ["black", "small"],
    }
