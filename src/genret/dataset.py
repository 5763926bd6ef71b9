"""Ranking-benchmark construction from scene-graph annotations.

Input is the common scene-graph JSON layout: a list of images, each with
annotated boxes carrying object names and attribute lists, each parsed by
image_record (in scene_graph.json and scenes.jsonl alike).  The statistics
behind the negatives may be counted over a training split (build_stats) or
derived from a synthetic world's priors (world.world_stats); one table
builder, ranked_tables, turns either kind of weight into the ranked tables
of CooccurrenceStats.

build_split is the one instance builder (world.make_instances runs it over
a world's scenes).  It makes one instance per box with attributes, by one
rule for both anchor kinds:

- anchor_kind=OBJECT anchors on the box's object and ranks attributes.  The
  box's attributes are the positives; the attributes of the same object on
  the image's other boxes are excluded.
- anchor_kind=ATTRIBUTE anchors on the box's first attribute and ranks
  objects.  The box's object is the positive; the objects of the image's
  other boxes that carry the anchor are excluded.
- The words are the positives, then negatives hardest first: down the
  anchor's conditional table, then down the ranked kind's prior, skipping
  positives, exclusions and words already chosen, until there are `total`.
- The words are shuffled by a permutation seeded by (seed, image_id, box
  index, anchor kind), so rebuilding a split under one seed is
  byte-identical.

An excluded word is true in context, since its pairing with the anchor is
realized elsewhere on the same image, and would poison the negative set.
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
    is_int,
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


def image_record(entry: object) -> SceneGraphRecord:
    """Parse and check one image record, of scene_graph.json or scenes.jsonl.

    Documented subset: image_id, objects[{x, y, w, h, names, attributes?}].
    An image_id is a non-empty string or an integer (Visual Genome's ids
    are), stored as a string.  Multi-name boxes keep their first name, and
    attributes may be missing or null but are otherwise a list.  Words are
    lowercased here and never again; attributes are deduplicated in
    first-seen order.
    """
    if not isinstance(entry, dict) or "image_id" not in entry:
        raise SchemaError("missing image_id")
    raw_id = entry["image_id"]
    if not ((isinstance(raw_id, str) and raw_id) or is_int(raw_id)):
        raise SchemaError(f"image_id must be a non-empty string or an integer, got {raw_id!r}")
    image_id = str(raw_id)
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
        attributes = ob.get("attributes")
        if attributes is None:
            attributes = ()
        elif not isinstance(attributes, (list, tuple)):
            raise SchemaError(f"{where}: attributes must be a list")
        try:
            box = checked_region([ob.get(k) for k in "xywh"])
            obj = normalize_word(names[0])
            attributes = tuple(dict.fromkeys(normalize_word(a) for a in attributes))
        except SchemaError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        boxes.append(BoxAnnotation(box=box, obj=obj, attributes=attributes))
    return SceneGraphRecord(image_id=image_id, boxes=tuple(boxes))


def parse_scene_graph(source) -> list[SceneGraphRecord]:
    """Parse scene-graph JSON (path, or already-loaded list) into image
    records, no two sharing an image_id; an error names the record's index."""
    if isinstance(source, (str, Path)):
        return read_json(source, parse_scene_graph)
    if not isinstance(source, list):
        raise SchemaError("scene-graph JSON must be a list of image records")
    records = []
    seen: dict[str, int] = {}
    for i, entry in enumerate(source):
        try:
            record = image_record(entry)
        except SchemaError as exc:
            raise SchemaError(f"image record #{i}: {exc}") from exc
        earlier = seen.setdefault(record.image_id, i)
        if earlier != i:
            raise SchemaError(
                f"image record #{i}: image_id {record.image_id!r} repeats image record #{earlier}"
            )
        records.append(record)
    return records


def record_to_dict(record: SceneGraphRecord) -> dict:
    """Inverse of image_record."""
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


def _box_words(
    record: SceneGraphRecord, index: int, stats: CooccurrenceStats, anchor_kind: AnchorKind
) -> tuple[str, tuple[str, ...], set[str], tuple]:
    """Box `index`'s anchor, positives, the words its negatives skip
    (positives and exclusions) and its negative tiers, hardest first."""
    box = record.boxes[index]
    others = record.boxes[:index] + record.boxes[index + 1:]
    if anchor_kind is AnchorKind.OBJECT:
        anchor = box.obj
        positives = box.attributes
        excluded = {a for b in others if b.obj == anchor for a in b.attributes}
        tiers = (stats.attrs_given_object.get(anchor, ()), stats.attribute_prior)
    else:
        anchor = box.attributes[0]
        positives = (box.obj,)
        excluded = {b.obj for b in others if anchor in b.attributes}
        tiers = (stats.objects_given_attr.get(anchor, ()), stats.object_prior)
    return anchor, positives, excluded.union(positives), tiers


def _box_instance(
    record: SceneGraphRecord,
    index: int,
    stats: CooccurrenceStats,
    total: int,
    anchor_kind: AnchorKind,
    seed: int,
) -> RankingInstance:
    """The module's one rule, applied to box `index`, which has attributes."""
    anchor, positives, skip, tiers = _box_words(record, index, stats, anchor_kind)
    if len(positives) > total:
        raise BuilderError(f"{len(positives)} ground-truth words exceed total={total}")

    need = total - len(positives)
    negatives: dict[str, None] = {}  # insertion-ordered, hardest first
    for table in tiers:
        for w, _ in table:
            if len(negatives) >= need:
                break
            if w not in skip:
                negatives[w] = None
    if len(negatives) < need:
        raise BuilderError(
            f"vocabulary exhausted: needed {need} negatives, found {len(negatives)}"
        )

    words = positives + tuple(negatives)
    rng = np.random.default_rng(
        stable_seed(seed, record.image_id, index, anchor_kind.value)
    )
    candidates = tuple(words[i] for i in rng.permutation(len(words)))
    return RankingInstance(
        image_id=record.image_id,
        anchor_kind=anchor_kind,
        anchor=anchor,
        candidates=candidates,
        positives=frozenset(i for i, w in enumerate(candidates) if w in positives),
        region=record.boxes[index].box,
    )


def most_fillable(
    records: Sequence[SceneGraphRecord], stats: CooccurrenceStats, anchor_kind: AnchorKind
) -> int | None:
    """The largest `total` every box with attributes can fill by the
    module's rule (its positives plus every word of its tiers it does not
    skip), or None when no box has attributes."""
    fills = []
    for rec in records:
        for i, bx in enumerate(rec.boxes):
            if bx.attributes:
                _, positives, skip, tiers = _box_words(rec, i, stats, anchor_kind)
                words = {w for table in tiers for w, _ in table}
                fills.append(len(positives) + len(words - skip))
    return min(fills, default=None)


def build_split(
    records: Sequence[SceneGraphRecord],
    stats: CooccurrenceStats,
    anchor_kind: AnchorKind = AnchorKind.OBJECT,
    seed: int = 0,
    total: int = 50,
) -> tuple[list[RankingInstance], dict]:
    """Build an instance for every box with attributes, by the module's rule.

    Output order is (image_id, box index).  Returns the instances plus a
    manifest dict with counts and the config hash.  A box with more
    positives than `total`, or whose tables hold too few negatives, is a
    BuilderError.
    """
    check_parameter("seed", seed, "an int >= 0")
    check_parameter("total", total, "an int >= 1")
    anchor_kind = AnchorKind(anchor_kind)
    instances = []
    images = set()
    for rec in sorted(records, key=lambda r: r.image_id):
        for i, bx in enumerate(rec.boxes):
            if not bx.attributes:
                continue
            instances.append(_box_instance(rec, i, stats, total, anchor_kind, seed))
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
