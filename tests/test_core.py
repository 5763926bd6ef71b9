import json
import math
import numbers
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genret import (
    CANONICAL_TEMPLATE_SPECS,
    AnchorKind,
    Entity,
    Method,
    RankingInstance,
    ScoredInstance,
    SyntheticScene,
    canonical_templates,
    instance_from_dict,
    instance_to_dict,
    normalize_word,
    parse_template,
    read_instances,
    read_scenes,
    read_score_cache,
    render,
    scored_to_records,
    stable_seed,
    write_instances,
)
from genret.core import DOMAINS, check_parameter, checked_region, is_finite_number
from genret.errors import ParameterError, RenderError, SchemaError, TemplateSyntaxError
from genret.world import scene_to_dict


# -- words and seeds -----------------------------------------------------


def test_normalize_word_folds_case_and_whitespace():
    assert normalize_word("  Light   Blue ") == "light blue"


@pytest.mark.parametrize("bad", ["", "   ", None, 3])
def test_normalize_word_rejects_junk(bad):
    with pytest.raises(SchemaError):
        normalize_word(bad)


def test_stable_seed_is_stable_and_sensitive():
    # frozen value guards against accidental hash-scheme changes
    assert stable_seed("a", 1) == stable_seed("a", 1)
    assert stable_seed("a", 1) != stable_seed("a", 2)
    assert stable_seed("a", 1) != stable_seed("a1")
    assert 0 <= stable_seed("x") < 2**63


def _abc_is_finite_number(value):
    """is_finite_number before its exact-type fast paths: the reference."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or math.isfinite(value)


@pytest.mark.parametrize(
    "value,expected",
    [
        (True, False),
        (1, True),
        (2**80, True),
        (1.5, True),
        (-0.0, True),
        (float("nan"), False),
        (float("inf"), False),
        (np.float64(1), True),
        (np.float64("nan"), False),
        (Fraction(1, 3), True),
        ("1", False),
        (None, False),
    ],
)
def test_is_finite_number_answers_as_before(value, expected):
    assert is_finite_number(value) is expected
    assert _abc_is_finite_number(value) is expected


def test_is_finite_number_rejects_ints_no_float_can_hold():
    limit = 2**1024 - 2**970  # float() rounds this and beyond past the largest float
    for n in (limit - 1, 1 - limit):
        assert is_finite_number(n) and math.isfinite(float(n))
    for n in (limit, -limit, 10**400, Fraction(10**400)):
        assert not is_finite_number(n)
        with pytest.raises(OverflowError):
            float(n)


#: domain -> (values inside it, values outside it); a bool is no number here
DOMAIN_EDGES = {
    "an int >= 0": ((0, 7, np.int64(3)), (-1, 1.0, True, False, math.nan, "1", None)),
    "an int >= 1": ((1, np.int32(2)), (0, -1, 2.0, True, math.inf, "2")),
    "a finite number": (
        (-1e308, 0, -3, 0.5, np.float32(2)),
        (math.nan, math.inf, -math.inf, True, "0", 10**400),
    ),
    "a finite number >= 0": ((0, 0.0, 1e308, 10**300), (-1e-300, -1, math.nan, math.inf, False)),
    "a finite number > 0": ((1e-300, 1, 1e308), (0, -0.0, -1, math.nan, math.inf, True)),
    "a finite number in [0, 1]": (
        (0, 1, 0.5, 1.0),
        (-1e-300, 1.0000001, math.nan, math.inf, True),
    ),
}


@pytest.mark.parametrize("domain", sorted(set(DOMAINS) | set(DOMAIN_EDGES)))
def test_check_parameter_holds_each_domain(domain):
    inside, outside = DOMAIN_EDGES[domain]
    for value in inside:
        check_parameter("x", value, domain)
    for value in outside:
        with pytest.raises(ParameterError) as info:
            check_parameter("x", value, domain)
        assert str(info.value) == f"x must be {domain}, got {value!r}"


# -- templates -----------------------------------------------------------


def test_parse_format_round_trip():
    for spec in CANONICAL_TEMPLATE_SPECS:
        t = parse_template(spec)
        assert t.name == spec
        assert parse_template(t.name) == t


def test_parse_template_normalizes_whitespace_in_name():
    assert parse_template("  {A}   {O} ").name == "{A} {O}"


@pytest.mark.parametrize("bad", ["", "   ", "{X}", "a{A}", "{A", "is}", "{}"])
def test_parse_template_rejects_malformed_specs(bad):
    with pytest.raises(TemplateSyntaxError):
        parse_template(bad)


def test_template_requires_a_slot():
    with pytest.raises(TemplateSyntaxError):
        parse_template("just words here")


def test_render_fills_slots_and_tokenizes_values():
    t = parse_template("{O} is {A}")
    # multi-word values contribute one token each
    assert render(t, attribute="light  blue", obj="car") == ("car", "is", "light", "blue")
    # words were folded where they entered; render passes them through
    assert render(t, attribute="Light Blue", obj="CAR") == ("CAR", "is", "Light", "Blue")


@pytest.mark.parametrize("empty", ["", "   "])
def test_render_rejects_a_word_with_no_tokens(empty):
    t = parse_template("{O} is {A}")
    with pytest.raises(RenderError, match="attribute slot"):
        render(t, attribute=empty, obj="car")
    with pytest.raises(RenderError, match="object slot"):
        render(t, attribute="red", obj=empty)


def test_render_requires_words_for_present_slots():
    t = parse_template("{O} is {A}")
    with pytest.raises(RenderError):
        render(t, attribute="blue")
    # template without an object slot never needs the object word
    assert render(parse_template("{A}"), attribute="blue") == ("blue",)


def test_canonical_templates_order():
    names = [t.name for t in canonical_templates()]
    assert names == ["{A}", "{O} is {A}", "{A} {O}", "{A} {O} is {A}"]


def test_render_not_injective_for_multiword_values():
    # the same token stream can come from different slot values, so token
    # sequences alone cannot identify the candidate
    t = parse_template("{A} {O}")
    assert render(t, attribute="x", obj="y z") == render(t, attribute="x y", obj="z")


@given(st.text(alphabet="abcdefg", min_size=1, max_size=8))
def test_single_token_render_recovers_the_candidate(word):
    t = parse_template("{O} is {A}")
    sentence = render(t, attribute=word, obj="thing")
    assert sentence[-1] == word


# -- instances -----------------------------------------------------------


def make_instance(**kw):
    base = dict(
        image_id="img1",
        anchor_kind=AnchorKind.OBJECT,
        anchor="cat",
        candidates=("red", "blue", "green"),
        positives=frozenset({1}),
    )
    base.update(kw)
    return RankingInstance(**base)


def test_instance_normalizes_words():
    inst = make_instance(anchor=" Cat ", candidates=("RED", "Blue", "g"))
    assert inst.anchor == "cat"
    assert inst.candidates == ("red", "blue", "g")


@pytest.mark.parametrize(
    "kw",
    [
        dict(candidates=("red", "red", "blue")),
        dict(positives=frozenset()),
        dict(positives=frozenset({7})),
        dict(negatives_explicit=frozenset({1})),  # overlaps the positive
        dict(region=(1, 2, 3)),
        dict(region=(0, 0, True, 1)),  # a bool is not a coordinate
        dict(image_id=""),
    ],
)
def test_instance_validation(kw):
    with pytest.raises(SchemaError):
        make_instance(**kw)


@pytest.mark.parametrize(
    "region,want",
    [
        (None, None),
        ([0, 1, 2, 3], (0, 1, 2, 3)),
        ((0.5, 1, 2.5, 3), (0.5, 1, 2.5, 3)),
        (5, SchemaError),
        ("abcd", SchemaError),
        ({"x": 0, "y": 0, "w": 1, "h": 1}, SchemaError),
        ([], SchemaError),
        ([0, 1, 2], SchemaError),
        ([0, 1, 2, 3, 4], SchemaError),
        ([0, 0, "a", None], SchemaError),
        ([0, 0, True, 1], SchemaError),
        ([0, 0, float("nan"), 1], SchemaError),
        ([0, 0, 1, float("inf")], SchemaError),
    ],
)
def test_one_region_check(region, want):
    # null or 4 finite numbers, one message for instances, cache lines,
    # loopback requests and scene boxes
    if want is not SchemaError:
        assert checked_region(region) == want
        assert make_instance(region=region).region == want
        return
    message = f"^region must be null or 4 finite numbers, got {re.escape(repr(region))}$"
    with pytest.raises(SchemaError, match=message):
        checked_region(region)
    with pytest.raises(SchemaError, match=message):
        make_instance(region=region)


def test_labels_implicit_negatives():
    inst = make_instance()
    assert inst.labels() == {0: 0, 1: 1, 2: 0}


def test_labels_explicit_negatives_leave_rest_unlabeled():
    inst = make_instance(negatives_explicit=frozenset({0}))
    assert inst.labels() == {0: 0, 1: 1}


def test_scored_instance_checks_alignment_and_finiteness():
    inst = make_instance()
    with pytest.raises(SchemaError):
        ScoredInstance(inst, "{A}", "generative", scores=(1.0, 2.0))
    with pytest.raises(SchemaError):
        ScoredInstance(inst, "{A}", "generative", scores=(1.0, float("inf"), 2.0))


# -- serialization -------------------------------------------------------


def test_instance_dict_round_trip():
    inst = make_instance(region=(1, 2, 3, 4), negatives_explicit=frozenset({0}))
    assert instance_from_dict(instance_to_dict(inst)) == inst


def test_instance_from_dict_is_strict():
    d = instance_to_dict(make_instance())
    with pytest.raises(SchemaError):
        instance_from_dict({**d, "extra": 1})
    d.pop("anchor")
    with pytest.raises(SchemaError):
        instance_from_dict(d)


def test_instances_jsonl_round_trip(tmp_path):
    instances = [make_instance(), make_instance(image_id="img2", region=(0, 0, 5, 5))]
    path = tmp_path / "inst.jsonl"
    write_instances(path, instances)
    assert read_instances(path) == instances
    # rewriting is byte-identical
    first = path.read_bytes()
    write_instances(path, read_instances(path))
    assert path.read_bytes() == first


def test_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instances(path, [make_instance()])
    before = path.read_bytes()

    def broken():
        yield make_instance(image_id="img2")
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        write_instances(path, broken())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["inst.jsonl"]


def test_read_instances_reports_line_numbers(tmp_path):
    # all three JSONL readers share one loop: blank lines are skipped but
    # counted, and both undecodable and ill-shaped records name path:lineno
    scored = ScoredInstance(make_instance(), "t", Method.GENERATIVE, (1.0, 2.0, 3.0))
    scene = SyntheticScene("s0", (Entity("cat", ("red",)),), ((0, 0, 1, 1),))
    # (a scene id may appear once per file, so the scene reader gets two scenes)
    readers = [
        (read_instances, instance_to_dict(make_instance()), None),
        (read_score_cache, scored_to_records(scored)[0], None),
        (read_scenes, scene_to_dict(scene), scene_to_dict(replace(scene, scene_id="s1"))),
    ]
    path = tmp_path / "bad.jsonl"
    for reader, good, second in readers:
        path.write_text(json.dumps(good) + "\n\n" + json.dumps(second or good) + "\n")
        assert len(reader(path)) == 2
        for bad in (b"{notjson", b"{}", b"[1]", b"\xff"):
            path.write_bytes(json.dumps(good).encode() + b"\n\n" + bad + b"\n")
            with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:3: "):
                reader(path)
