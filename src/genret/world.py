"""Synthetic worlds with an exactly enumerable caption distribution.

A world fixes object and attribute vocabularies, a compatibility relation,
and per-pair attribute priors.  Scenes are sampled from a world: each entity
gets a uniform object and an independent draw of its compatible attributes.

The caption process for a scene is deliberately tiny so it can be enumerated
in closed form: pick an entity uniformly, pick one of two phrasings
uniformly ("{A} {O}" or "{O} is {A}"), pick one of the entity's attributes
uniformly, render.  Entities with no attributes emit their bare object word
with the entity's full probability mass.  caption_process returns that
distribution with rational weights, so it sums to 1 exactly; everything the
oracle backend answers is derived from it.

Ranking instances over a world's scenes are built by the dataset builder:
make_instances is dataset.build_split over a scene list, and world_stats,
the world's priors passed through the table builder counted statistics use
(dataset.ranked_tables), chooses the hard negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    AnchorKind,
    RankingInstance,
    check_parameter,
    checked_region,
    is_finite_number,
    iter_jsonl,
    normalize_word,
    parse_template,
    read_json,
    render,
    write_json,
    write_jsonl,
)
from .dataset import (
    BoxAnnotation,
    CooccurrenceStats,
    SceneGraphRecord,
    build_split,
    ranked_tables,
)
from .errors import SchemaError, WorldError

# The two phrasings the caption process can emit, with equal probability.
CAPTION_TEMPLATE_SPECS: tuple[str, ...] = ("{A} {O}", "{O} is {A}")
CAPTION_TEMPLATES = tuple(parse_template(s) for s in CAPTION_TEMPLATE_SPECS)


@dataclass(frozen=True)
class WorldSpec:
    """Vocabularies, compatibility, attribute priors and the sampling seed."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    compatibility: dict[str, tuple[str, ...]]
    attribute_prior: dict[tuple[str, str], float]
    rng_seed: int = 0

    def __post_init__(self):
        objects = tuple(normalize_word(o) for o in self.objects)
        attributes = tuple(normalize_word(a) for a in self.attributes)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "attributes", attributes)
        if not objects:
            raise WorldError("world needs at least one object")
        if not attributes:
            raise WorldError("world needs at least one attribute")
        if len(set(objects)) != len(objects) or len(set(attributes)) != len(attributes):
            raise WorldError("duplicate vocabulary words")
        compat = {
            normalize_word(o): tuple(sorted(normalize_word(a) for a in attrs))
            for o, attrs in self.compatibility.items()
        }
        object.__setattr__(self, "compatibility", compat)
        obj_set, attr_set = set(objects), set(attributes)
        for o, attrs in compat.items():
            if o not in obj_set:
                raise WorldError(f"compatibility lists unknown object {o!r}")
            for a in attrs:
                if a not in attr_set:
                    raise WorldError(f"compatibility lists unknown attribute {a!r}")
        prior = {
            (normalize_word(o), normalize_word(a)): float(p)
            for (o, a), p in self.attribute_prior.items()
        }
        object.__setattr__(self, "attribute_prior", prior)
        for (o, a), p in prior.items():
            if not 0.0 < p <= 1.0:
                raise WorldError(f"prior for ({o!r}, {a!r}) must be in (0, 1], got {p}")
            if a not in compat.get(o, ()):
                raise WorldError(f"prior given for incompatible pair ({o!r}, {a!r})")

    def vocabulary(self) -> tuple[str, ...]:
        """All tokens any caption of this world can contain, sorted."""
        tokens: set[str] = set()
        for w in self.objects + self.attributes:
            tokens.update(w.split())
        for tpl in CAPTION_TEMPLATES:
            tokens.update(e for e in tpl.elements if isinstance(e, str))
        return tuple(sorted(tokens))


@dataclass(frozen=True)
class Entity:
    obj: str
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class SyntheticScene:
    """A sampled scene: entities plus one synthetic pixel box per entity."""

    scene_id: str
    entities: tuple[Entity, ...]
    boxes: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        if not self.entities:
            raise WorldError("scene needs at least one entity")
        if len(self.boxes) != len(self.entities):
            raise WorldError("one box per entity required")


def random_world(
    seed: int = 0,
    n_objects: int = 20,
    n_attributes: int = 60,
    attrs_per_object: int = 5,
) -> WorldSpec:
    """Generate a world with overlapping compatibility sets.

    Attribute vocabulary defaults to 60 so that 50-candidate attribute
    ranking instances are constructible.  Every object gets 1..attrs_per_object
    compatible attributes with priors drawn uniformly from [0.15, 0.6).
    """
    check_parameter("seed", seed, "an int >= 0")
    check_parameter("n_objects", n_objects, "an int >= 1")
    check_parameter("n_attributes", n_attributes, "an int >= 1")
    check_parameter("attrs_per_object", attrs_per_object, "an int >= 1")
    check_parameter("n_attributes - attrs_per_object", n_attributes - attrs_per_object,
                    "an int >= 0")
    rng = np.random.default_rng(seed)
    objects = tuple(f"obj{i:02d}" for i in range(n_objects))
    attributes = tuple(f"attr{i:02d}" for i in range(n_attributes))
    compat: dict[str, tuple[str, ...]] = {}
    prior: dict[tuple[str, str], float] = {}
    for o in objects:
        k = int(rng.integers(1, attrs_per_object + 1))
        picks = sorted(rng.choice(n_attributes, size=k, replace=False).tolist())
        compat[o] = tuple(attributes[i] for i in picks)
        for a in compat[o]:
            prior[(o, a)] = float(rng.uniform(0.15, 0.6))
    return WorldSpec(
        objects=objects,
        attributes=attributes,
        compatibility=compat,
        attribute_prior=prior,
        rng_seed=seed,
    )


class SceneSampler:
    """Deterministic scene stream: same world seed, same scenes, in order."""

    def __init__(self, spec: WorldSpec):
        self.spec = spec
        self._rng = np.random.default_rng(spec.rng_seed)
        self._ordinal = 0

    def sample_scene(self, n_entities: int) -> SyntheticScene:
        spec = self.spec
        entities = []
        boxes = []
        for _ in range(n_entities):
            obj = spec.objects[int(self._rng.integers(len(spec.objects)))]
            attrs = tuple(
                a
                for a in spec.compatibility.get(obj, ())
                if self._rng.random() < spec.attribute_prior.get((obj, a), 0.0)
            )
            entities.append(Entity(obj=obj, attributes=attrs))
            x, y = (int(v) for v in self._rng.integers(0, 800, size=2))
            w, h = (int(v) for v in self._rng.integers(20, 220, size=2))
            boxes.append((x, y, w, h))
        scene = SyntheticScene(
            scene_id=f"scene-{self._ordinal:06d}",
            entities=tuple(entities),
            boxes=tuple(boxes),
        )
        self._ordinal += 1
        return scene


def sample_scenes(spec: WorldSpec, entity_counts: Iterable[int]) -> list[SyntheticScene]:
    sampler = SceneSampler(spec)
    return [sampler.sample_scene(n) for n in entity_counts]


def caption_process(scene: SyntheticScene) -> dict[tuple[str, ...], Fraction]:
    """Exact caption distribution of a scene.

    Weights are Fractions and sum to 1 exactly.  Identical captions from
    different entities simply accumulate mass.
    """
    n = len(scene.entities)
    dist: dict[tuple[str, ...], Fraction] = {}
    for ent in scene.entities:
        w_ent = Fraction(1, n)
        if not ent.attributes:
            cap = tuple(ent.obj.split())
            dist[cap] = dist.get(cap, Fraction(0)) + w_ent
            continue
        w = w_ent * Fraction(1, 2) * Fraction(1, len(ent.attributes))
        for tpl in CAPTION_TEMPLATES:
            for a in ent.attributes:
                cap = render(tpl, attribute=a, obj=ent.obj)
                dist[cap] = dist.get(cap, Fraction(0)) + w
    return dist


def world_stats(spec: WorldSpec) -> CooccurrenceStats:
    """Prior-derived ranking tables in the shape build_stats counts.

    The priors go through dataset.ranked_tables, the builder counted
    statistics use too.  The count fields stay empty: nothing was counted.
    """
    attr_marginal: dict[str, float] = {}
    for (_, a), p in spec.attribute_prior.items():
        attr_marginal[a] = attr_marginal.get(a, 0.0) + p
    # zero-prior attributes fill the tail of the fallback tier (weight 0,
    # lexicographic), so any candidate count up to |attributes| is buildable
    for a in spec.attributes:
        attr_marginal.setdefault(a, 0.0)
    return CooccurrenceStats(
        object_counts={},
        attribute_counts={},
        # objects are drawn uniformly, so the object prior is flat; the
        # ranked form degenerates to lexicographic order
        **ranked_tables(
            spec.attribute_prior, dict.fromkeys(spec.objects, 1.0), attr_marginal
        ),
    )


def make_instances(
    spec: WorldSpec,
    scenes: Iterable[SyntheticScene],
    n_candidates: int,
    anchor_kind: AnchorKind,
    seed: int = 0,
) -> list[RankingInstance]:
    """Build the scenes' ranking instances with world-prior hard negatives.

    dataset.build_split over the scenes' records, with world_stats standing
    in for counted statistics: one instance per entity that has attributes,
    by the same rule, in scene-id order, and for equal scenes the same
    instances, as build-dataset.
    """
    return build_split(
        scenes_to_records(scenes), world_stats(spec), anchor_kind, seed, n_candidates
    )[0]


def scenes_to_records(scenes: Iterable[SyntheticScene]) -> list[SceneGraphRecord]:
    """Export scenes in the scene-graph record shape the dataset builder eats."""
    records = []
    for sc in scenes:
        boxes = tuple(
            BoxAnnotation(box=box, obj=ent.obj, attributes=ent.attributes)
            for ent, box in zip(sc.entities, sc.boxes)
        )
        records.append(SceneGraphRecord(image_id=sc.scene_id, boxes=boxes))
    return records


# ---------------------------------------------------------------------------
# serialization

def world_to_dict(spec: WorldSpec) -> dict:
    prior: dict[str, dict[str, float]] = {}
    for (o, a), p in sorted(spec.attribute_prior.items()):
        prior.setdefault(o, {})[a] = p
    return {
        "objects": list(spec.objects),
        "attributes": list(spec.attributes),
        "compatibility": {o: list(v) for o, v in sorted(spec.compatibility.items())},
        "attribute_prior": prior,
        "rng_seed": spec.rng_seed,
    }


def world_from_dict(d: dict) -> WorldSpec:
    try:
        prior = {
            (o, a): p
            for o, table in d["attribute_prior"].items()
            for a, p in table.items()
        }
        seed = d["rng_seed"]
        # checked, not coerced: a hand-edited seed or prior must not load as another
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise SchemaError(f"bad world record: rng_seed must be an integer, got {seed!r}")
        for (o, a), p in prior.items():
            if not is_finite_number(p):
                raise SchemaError(f"bad world record: prior for ({o!r}, {a!r}) is {p!r}")
        return WorldSpec(
            objects=tuple(d["objects"]),
            attributes=tuple(d["attributes"]),
            compatibility={o: tuple(v) for o, v in d["compatibility"].items()},
            attribute_prior=prior,
            rng_seed=seed,
        )
    except (KeyError, TypeError, AttributeError, ValueError, WorldError) as exc:
        raise SchemaError(f"bad world record: {exc}") from exc


def write_world(path: str | Path, spec: WorldSpec) -> None:
    write_json(path, world_to_dict(spec))


def read_world(path: str | Path) -> WorldSpec:
    return read_json(path, world_from_dict)


def scene_to_dict(scene: SyntheticScene) -> dict:
    return {
        "scene_id": scene.scene_id,
        "entities": [
            {"object": e.obj, "attributes": list(e.attributes)} for e in scene.entities
        ],
        "boxes": [list(b) for b in scene.boxes],
    }


def scene_from_dict(d: dict) -> SyntheticScene:
    """One scenes.jsonl record; its words enter here, so they are folded.
    A missing field, or one of the wrong type or shape, is a SchemaError."""
    try:
        scene_id, entities, boxes = d["scene_id"], d["entities"], d["boxes"]
        if not isinstance(scene_id, str) or not scene_id:
            raise SchemaError(f"scene_id must be a non-empty string, got {scene_id!r}")
        for e in entities:
            if not isinstance(e["attributes"], list):
                raise SchemaError(f"attributes must be a list, got {e['attributes']!r}")
        if None in boxes:
            raise SchemaError("a scene box must be 4 finite numbers, got None")
        return SyntheticScene(
            scene_id=scene_id,
            entities=tuple(
                Entity(
                    obj=normalize_word(e["object"]),
                    attributes=tuple(normalize_word(a) for a in e["attributes"]),
                )
                for e in entities
            ),
            boxes=tuple(map(checked_region, boxes)),
        )
    except (KeyError, TypeError, SchemaError, WorldError) as exc:
        raise SchemaError(f"bad scene record: {exc}") from exc


def write_scenes(path: str | Path, scenes: Iterable[SyntheticScene]) -> None:
    write_jsonl(path, map(scene_to_dict, scenes))


def read_scenes(path: str | Path) -> list[SyntheticScene]:
    """The scenes of a scenes.jsonl file; a repeated scene id is a
    SchemaError naming both lines."""
    by_id: dict[str, tuple[int, SyntheticScene]] = {}
    for lineno, scene in iter_jsonl(path, scene_from_dict):
        earlier, _ = by_id.setdefault(scene.scene_id, (lineno, scene))
        if earlier != lineno:
            raise SchemaError(f"{path}:{lineno}: scene {scene.scene_id!r} repeats line {earlier}")
    return [scene for _, scene in by_id.values()]
