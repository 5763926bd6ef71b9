"""Ranking-benchmark construction from scene-graph annotations.

Input is the common scene-graph JSON layout: a list of images, each with
annotated boxes carrying object names and attribute lists.  From a training
split we count object/attribute co-occurrence, then build fixed-size ranking
instances whose negatives are chosen hardest-first: by conditional
probability given the anchor word, falling back to marginal priors when the
conditional table runs dry.

One rule builds both directions.  anchor_kind=OBJECT anchors on the box's
object and ranks attribute candidates; anchor_kind=ATTRIBUTE anchors on one
of the box's attributes and ranks object candidates.  The statistics behind
the negatives may be counted (build_stats) or derived from a synthetic
world's priors (world.world_stats); one table builder, ranked_tables, turns
either kind of weight into the ranked tables, and the rule does not care
which.  build_split is the one instance loop: world.make_instances runs it
over a world's scenes.

A candidate is never used as a negative when the (anchor, candidate) pairing
is realized elsewhere on the same image: such a word is true in context and
would poison the negative set.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    AnchorKind,
    RankingInstance,
    check_parameter,
    checked_region,
    normalize_word,
    read_json,
    stable_seed,
    write_json,
)
from .errors import BuilderError, SchemaError, StatsError


@dataclass(frozen=True)
class BoxAnnotation:
    """One annotated box: pixel rect, object name, attribute words."""

    box: tuple[float, float, float, float]
    obj: str
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class SceneGraphRecord:
    """All annotated boxes of one image."""

    image_id: str
    boxes: tuple[BoxAnnotation, ...]


def parse_scene_graph(source) -> list[SceneGraphRecord]:
    """Parse scene-graph JSON (path, or already-loaded list).

    Documented subset per image: image_id, objects[{x, y, w, h, names,
    attributes?}].  An image_id is a non-empty string or an integer (Visual
    Genome's ids are), stored as a string, and no two records may share
    one.  Multi-name boxes keep their first name; words are lowercased here
    and never again.
    """
    if isinstance(source, (str, Path)):
        return read_json(source, parse_scene_graph)
    if not isinstance(source, list):
        raise SchemaError("scene-graph JSON must be a list of image records")
    records = []
    seen: dict[str, int] = {}
    for i, entry in enumerate(source):
        if not isinstance(entry, dict) or "image_id" not in entry:
            raise SchemaError(f"image record #{i} missing image_id")
        raw_id = entry["image_id"]
        if not ((isinstance(raw_id, str) and raw_id) or type(raw_id) is int):
            raise SchemaError(
                f"image record #{i}: image_id must be a non-empty string or an "
                f"integer, got {raw_id!r}"
            )
        image_id = str(raw_id)
        earlier = seen.setdefault(image_id, i)
        if earlier != i:
            raise SchemaError(
                f"image record #{i}: image_id {image_id!r} repeats image record #{earlier}"
            )
        objects = entry.get("objects", [])
        if not isinstance(objects, (list, tuple)):
            raise SchemaError(f"image {image_id}: objects must be a list")
        boxes = []
        for j, ob in enumerate(objects):
            where = f"image {image_id} object #{j}"
            if not isinstance(ob, dict):
                raise SchemaError(f"{where}: object entry must be a dict")
            names = ob.get("names")
            if not names:
                raise SchemaError(f"{where}: empty names")
            if not isinstance(names, (list, tuple)):
                raise SchemaError(f"{where}: names must be a list")
            attributes = ob.get("attributes") or ()
            if not isinstance(attributes, (list, tuple)):
                raise SchemaError(f"{where}: attributes must be a list")
            try:
                box = checked_region([ob.get(k) for k in "xywh"])
                obj = normalize_word(names[0])
                # folded, then deduplicated in first-seen order
                attributes = tuple(dict.fromkeys(normalize_word(a) for a in attributes))
            except SchemaError as exc:
                raise SchemaError(f"{where}: {exc}") from exc
            boxes.append(BoxAnnotation(box=box, obj=obj, attributes=attributes))
        records.append(SceneGraphRecord(image_id=image_id, boxes=tuple(boxes)))
    return records


def record_to_dict(record: SceneGraphRecord) -> dict:
    """Inverse of parse_scene_graph for one record."""
    objects = []
    for bx in record.boxes:
        x, y, w, h = bx.box
        objects.append(
            {"x": x, "y": y, "w": w, "h": h,
             "names": [bx.obj], "attributes": list(bx.attributes)}
        )
    return {"image_id": record.image_id, "objects": objects}


def write_scene_graph(path: str | Path, records: Iterable[SceneGraphRecord]) -> None:
    write_json(path, [record_to_dict(r) for r in records])


@dataclass(frozen=True)
class CooccurrenceStats:
    """Word counts plus the derived, pre-sorted ranking tables.

    Ranked sequences are (word, probability) tuples in descending
    probability, ties broken lexicographically, which makes every consumer
    of these tables deterministic for free.
    """

    object_counts: dict[str, int]
    attribute_counts: dict[str, int]
    attrs_given_object: dict[str, tuple[tuple[str, float], ...]]
    objects_given_attr: dict[str, tuple[tuple[str, float], ...]]
    object_prior: tuple[tuple[str, float], ...]
    attribute_prior: tuple[tuple[str, float], ...]

    def conditional(self, anchor_kind: AnchorKind, anchor: str, word: str) -> float:
        """P(word | anchor), 0.0 for unseen pairs."""
        table = (
            self.attrs_given_object if anchor_kind is AnchorKind.OBJECT
            else self.objects_given_attr
        )
        for w, p in table.get(anchor, ()):
            if w == word:
                return p
        return 0.0


def _ranked(pairs: dict[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple(sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0])))


def ranked_tables(
    pairs: dict[tuple[str, str], float],
    objects: dict[str, float],
    attributes: dict[str, float],
) -> dict[str, dict | tuple]:
    """Weighted (object, attribute) pairs and per-word weights -> the four
    ranked tables of CooccurrenceStats, as keyword arguments.

    Each table is normalized by its own total (a zero total divides by 1)
    and ordered by _ranked.  Weights may be counts or priors.
    """

    def normalized(table: dict[str, float]) -> tuple[tuple[str, float], ...]:
        total = sum(table.values()) or 1
        return _ranked({w: v / total for w, v in table.items()})

    by_obj: dict[str, dict[str, float]] = {}
    by_attr: dict[str, dict[str, float]] = {}
    for (o, a), v in pairs.items():
        by_obj.setdefault(o, {})[a] = v
        by_attr.setdefault(a, {})[o] = v
    return {
        "attrs_given_object": {o: normalized(t) for o, t in by_obj.items()},
        "objects_given_attr": {a: normalized(t) for a, t in by_attr.items()},
        "object_prior": normalized(objects),
        "attribute_prior": normalized(attributes),
    }


def build_stats(records: Sequence[SceneGraphRecord]) -> CooccurrenceStats:
    """Count co-occurrence over a training split and derive ranking tables."""
    records = list(records)
    if not records:
        raise StatsError("no records to build statistics from")
    pair_counts: dict[tuple[str, str], int] = {}
    object_counts: dict[str, int] = {}
    attribute_counts: dict[str, int] = {}
    for rec in records:
        for bx in rec.boxes:
            object_counts[bx.obj] = object_counts.get(bx.obj, 0) + 1
            for a in bx.attributes:
                attribute_counts[a] = attribute_counts.get(a, 0) + 1
                pair_counts[(bx.obj, a)] = pair_counts.get((bx.obj, a), 0) + 1
    return CooccurrenceStats(
        object_counts=object_counts,
        attribute_counts=attribute_counts,
        **ranked_tables(pair_counts, object_counts, attribute_counts),
    )


@dataclass(frozen=True)
class NegativePlan:
    """The negative-selection outcome before shuffling.

    `conditional` holds hard negatives in non-increasing conditional
    probability given the anchor; `fallback` holds the prior-ordered filler
    appended after the conditional table was exhausted.  Kept as a separate
    artifact so audits can check ordering without reverse-engineering the
    shuffled instance.
    """

    anchor: str
    positives: tuple[str, ...]
    excluded: frozenset[str]
    conditional: tuple[str, ...]
    fallback: tuple[str, ...]

    @property
    def negatives(self) -> tuple[str, ...]:
        return self.conditional + self.fallback


def select_negatives(
    need: int,
    conditional_ranked: Sequence[tuple[str, float]],
    prior_ranked: Sequence[tuple[str, float]],
    skip: frozenset[str],
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Pick `need` negatives, hardest first.

    Walks the conditional ranking, then the prior ranking, skipping `skip`
    and anything already chosen.  Raises BuilderError on shortfall.
    """
    chosen: dict[str, None] = {}
    for w, _ in conditional_ranked:
        if len(chosen) >= need:
            break
        if w not in skip:
            chosen.setdefault(w, None)
    n_cond = len(chosen)
    for w, _ in prior_ranked:
        if len(chosen) >= need:
            break
        if w not in skip and w not in chosen:
            chosen.setdefault(w, None)
    if len(chosen) < need:
        raise BuilderError(
            f"vocabulary exhausted: needed {need} negatives, found {len(chosen)}"
        )
    words = tuple(chosen)
    return words[:n_cond], words[n_cond:]


def plan_instance(
    record: SceneGraphRecord,
    anchor_box_index: int,
    stats: CooccurrenceStats,
    total: int = 50,
    anchor_kind: AnchorKind = AnchorKind.OBJECT,
) -> NegativePlan:
    """Compute anchor, positives, exclusions and negatives for one box.

    anchor_kind names the anchor word's kind.  For anchor_kind=OBJECT the
    anchor is the box's object; for anchor_kind=ATTRIBUTE it is the box's
    first attribute.
    """
    anchor_kind = AnchorKind(anchor_kind)
    try:
        box = record.boxes[anchor_box_index]
    except IndexError as exc:
        raise BuilderError(
            f"image {record.image_id} has no box #{anchor_box_index}"
        ) from exc
    if not box.attributes:
        raise BuilderError(
            f"image {record.image_id} box #{anchor_box_index} has no attributes"
        )
    others = [b for i, b in enumerate(record.boxes) if i != anchor_box_index]

    if anchor_kind is AnchorKind.OBJECT:
        anchor_word = box.obj
        positives = box.attributes
        excluded = frozenset(
            a for b in others if b.obj == anchor_word for a in b.attributes
        )
        cond = stats.attrs_given_object.get(anchor_word, ())
        prior = stats.attribute_prior
    else:
        anchor_word = box.attributes[0]
        positives = (box.obj,)
        excluded = frozenset(b.obj for b in others if anchor_word in b.attributes)
        cond = stats.objects_given_attr.get(anchor_word, ())
        prior = stats.object_prior

    if len(positives) > total:
        raise BuilderError(
            f"{len(positives)} ground-truth words exceed total={total}"
        )
    skip = frozenset(positives) | excluded
    conditional, fallback = select_negatives(
        total - len(positives), cond, prior, skip
    )
    return NegativePlan(
        anchor=anchor_word,
        positives=positives,
        excluded=excluded,
        conditional=conditional,
        fallback=fallback,
    )


def build_instance(
    record: SceneGraphRecord,
    anchor_box_index: int,
    stats: CooccurrenceStats,
    total: int = 50,
    anchor_kind: AnchorKind = AnchorKind.OBJECT,
    seed: int = 0,
) -> RankingInstance:
    """Build one shuffled ranking instance for a box.

    Candidate order is a deterministic permutation seeded per (seed,
    image, box, anchor_kind), so rebuilding a split with the same seed is
    byte-identical.
    """
    anchor_kind = AnchorKind(anchor_kind)
    plan = plan_instance(record, anchor_box_index, stats, total, anchor_kind)
    words = plan.positives + plan.negatives
    rng = np.random.default_rng(
        stable_seed(seed, record.image_id, anchor_box_index, anchor_kind.value)
    )
    perm = rng.permutation(len(words))
    candidates = tuple(words[i] for i in perm)
    pos_words = set(plan.positives)
    positives = frozenset(i for i, w in enumerate(candidates) if w in pos_words)
    return RankingInstance(
        image_id=record.image_id,
        anchor_kind=anchor_kind,
        anchor=plan.anchor,
        candidates=candidates,
        positives=positives,
        region=record.boxes[anchor_box_index].box,
        negatives_explicit=None,
    )


def build_split(
    records: Sequence[SceneGraphRecord],
    stats: CooccurrenceStats,
    anchor_kind: AnchorKind = AnchorKind.OBJECT,
    seed: int = 0,
    total: int = 50,
) -> tuple[list[RankingInstance], dict]:
    """Build instances for every eligible box of every record.

    Output order is (image_id, box index).  Returns the instances plus a
    manifest dict with counts and the config hash.
    """
    check_parameter("seed", seed, "an int >= 0")
    anchor_kind = AnchorKind(anchor_kind)
    instances = []
    images = set()
    for rec in sorted(records, key=lambda r: r.image_id):
        for i, bx in enumerate(rec.boxes):
            if not bx.attributes:
                continue
            instances.append(build_instance(rec, i, stats, total, anchor_kind, seed))
            images.add(rec.image_id)
    config = {"anchor_kind": anchor_kind.value, "seed": seed, "total": total}
    manifest = {
        **config,
        "n_records": len(records),
        "n_images": len(images),
        "n_instances": len(instances),
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
    }
    return instances, manifest
