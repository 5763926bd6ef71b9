"""Scene-graph parsing, co-occurrence stats, and benchmark construction."""

import hashlib
import json

import pytest

from genret import (
    AnchorKind,
    BoxAnnotation,
    SceneGraphRecord,
    build_instance,
    build_split,
    build_stats,
    parse_scene_graph,
    plan_instance,
    record_to_dict,
    select_negatives,
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
    assert str(err.value) == f"{path}: image record #0 missing image_id"


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


def test_conditional_lookup(stats):
    assert stats.conditional(AnchorKind.OBJECT, "cat", "black") == pytest.approx(0.4)
    assert stats.conditional(AnchorKind.ATTRIBUTE, "black", "cat") == pytest.approx(2 / 3)
    assert stats.conditional(AnchorKind.OBJECT, "cat", "red") == 0.0
    assert stats.conditional(AnchorKind.OBJECT, "unseen", "black") == 0.0


def test_build_stats_requires_records():
    with pytest.raises(StatsError):
        build_stats([])


# -- negative selection --------------------------------------------------------


def test_select_negatives_walks_tiers_in_order():
    cond = (("a", 0.5), ("b", 0.3), ("c", 0.2))
    prior = (("z", 0.9), ("a", 0.5), ("y", 0.1))
    conditional, fallback = select_negatives(3, cond, prior, frozenset({"b"}))
    assert conditional == ("a", "c")
    assert fallback == ("z",)


def test_select_negatives_never_repeats_across_tiers():
    cond = (("a", 0.5),)
    prior = (("a", 0.9), ("b", 0.1))
    conditional, fallback = select_negatives(2, cond, prior, frozenset())
    assert conditional == ("a",)
    assert fallback == ("b",)


def test_select_negatives_shortfall():
    with pytest.raises(BuilderError, match="vocabulary exhausted"):
        select_negatives(3, (("a", 1.0),), (("b", 1.0),), frozenset())


# -- instance planning -----------------------------------------------------------


def test_plan_attribute_mode(records, stats):
    plan = plan_instance(records[0], 0, stats, total=5)
    assert plan.anchor == "cat"
    assert plan.positives == ("black", "small")
    # the other cat box on img1 wears white, so white is off the table
    assert plan.excluded == frozenset({"white"})
    assert plan.conditional == ("fluffy",)
    assert plan.fallback == ("brown", "red")
    assert plan.negatives == ("fluffy", "brown", "red")


def test_plan_object_mode(records, stats):
    plan = plan_instance(records[0], 2, stats, total=3, anchor_kind=AnchorKind.ATTRIBUTE)
    assert plan.anchor == "black"  # defaults to the box's first attribute
    assert plan.positives == ("dog",)
    assert plan.excluded == frozenset({"cat"})  # img1's cat also wears black
    assert plan.conditional == ()
    assert plan.fallback == ("bird", "mat")


@pytest.mark.parametrize(
    "box_index,total,match",
    [
        (9, 50, "no box"),
        (2, 50, "no attributes"),  # the bare mat on img2
        (0, 0, "exceed"),
    ],
)
def test_plan_errors(records, stats, box_index, total, match):
    with pytest.raises(BuilderError, match=match):
        plan_instance(records[1], box_index, stats, total=total)


def test_plans_order_hard_negatives_first(records, stats):
    """Conditional tier is non-increasing in P(word | anchor) and the
    fallback tier never contains a word the conditional table knows."""
    for rec in records:
        for i, bx in enumerate(rec.boxes):
            if not bx.attributes:
                continue
            for anchor_kind, total in (
                (AnchorKind.OBJECT, 4),
                (AnchorKind.ATTRIBUTE, 3),
            ):
                plan = plan_instance(rec, i, stats, total=total, anchor_kind=anchor_kind)
                probs = [
                    stats.conditional(anchor_kind, plan.anchor, w)
                    for w in plan.conditional
                ]
                assert all(
                    hi >= lo for hi, lo in zip(probs, probs[1:])
                ), (rec.image_id, i, anchor_kind)
                assert all(probs), "conditional tier must come from the table"
                for w in plan.fallback:
                    assert stats.conditional(anchor_kind, plan.anchor, w) == 0.0


# -- instance building --------------------------------------------------------


def test_build_instance_fields(records, stats):
    inst = build_instance(records[0], 0, stats, total=5, seed=3)
    assert inst.image_id == "img1"
    assert inst.anchor == "cat"
    # attribute candidates anchor on an object word
    assert inst.anchor_kind is AnchorKind.OBJECT
    assert inst.region == (0.0, 0.0, 10.0, 10.0)
    assert sorted(inst.candidates) == ["black", "brown", "fluffy", "red", "small"]
    assert {inst.candidates[i] for i in inst.positives} == {"black", "small"}
    assert inst.negatives_explicit is None


def test_build_instance_shuffle_is_seeded(records, stats):
    a = build_instance(records[0], 0, stats, total=5, seed=3)
    b = build_instance(records[0], 0, stats, total=5, seed=3)
    c = build_instance(records[0], 0, stats, total=5, seed=4)
    assert a == b
    assert a.candidates != c.candidates
    assert sorted(a.candidates) == sorted(c.candidates)


def test_build_instance_object_mode(records, stats):
    inst = build_instance(records[0], 2, stats, total=3, anchor_kind=AnchorKind.ATTRIBUTE)
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
