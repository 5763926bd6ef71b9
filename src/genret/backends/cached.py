"""Score-cache files and their replay backend.

A cache is JSONL, one record per (instance, candidate) score:

    {"image_id": ..., "region": [x, y, w, h] | null, "anchor": ...,
     "template_name": ..., "method": "generative" | "contrastive",
     "candidate": ..., "loss": ..., "per_token": [...] | null}

`loss` is the exact ranking score that was computed (length normalization
included if it was on), and floats survive the JSON round trip bit-exactly,
so replaying a cache reproduces the original rankings identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..core import Method, ScoredInstance, read_jsonl, write_jsonl
from ..errors import CacheMissError, SchemaError
from .base import SentenceScoreSource

_KEY_FIELDS = ("image_id", "region", "anchor", "template_name", "method", "candidate")


def scored_to_records(scored: ScoredInstance) -> list[dict]:
    inst = scored.instance
    region = list(inst.region) if inst.region is not None else None
    records = []
    for i, cand in enumerate(inst.candidates):
        per = None
        if scored.per_token is not None:
            per = list(scored.per_token[i])
        records.append(
            {
                "image_id": inst.image_id,
                "region": region,
                "anchor": inst.anchor,
                "template_name": scored.template_name,
                "method": scored.method.value,
                "candidate": cand,
                "loss": scored.scores[i],
                "per_token": per,
            }
        )
    return records


def write_score_cache(path: str | Path, scored: Iterable[ScoredInstance]) -> None:
    write_jsonl(path, (rec for s in scored for rec in scored_to_records(s)))


def _cache_record(rec) -> dict:
    if not isinstance(rec, dict):
        raise SchemaError("cache record must be an object")
    missing = set(_KEY_FIELDS + ("loss", "per_token")) - set(rec)
    if missing:
        raise SchemaError(f"missing fields {sorted(missing)}")
    return rec


def read_score_cache(path: str | Path) -> list[dict]:
    return read_jsonl(path, _cache_record)


def _key(rec: dict) -> tuple:
    region = tuple(rec["region"]) if rec["region"] is not None else None
    return (
        rec["image_id"],
        region,
        rec["anchor"],
        rec["template_name"],
        rec["method"],
        rec["candidate"],
    )


class CachedScoreBackend(SentenceScoreSource):
    """Replays previously computed sentence scores, query for query."""

    def __init__(self, records: Iterable[dict]):
        self._table: dict[tuple, tuple[float, tuple[float, ...] | None]] = {}
        self._combos: set[tuple[Method, str]] = set()
        for rec in records:
            per = tuple(rec["per_token"]) if rec["per_token"] is not None else None
            self._table[_key(rec)] = (float(rec["loss"]), per)
            self._combos.add((Method(rec["method"]), rec["template_name"]))

    @classmethod
    def from_file(cls, path: str | Path) -> "CachedScoreBackend":
        return cls(read_score_cache(path))

    def __len__(self) -> int:
        return len(self._table)

    def combos(self) -> set[tuple[Method, str]]:
        """All (method, template_name) pairs this cache holds."""
        return set(self._combos)

    def sentence_score(self, image_id, region, anchor, template_name, method, candidate):
        key = (
            image_id,
            tuple(region) if region is not None else None,
            anchor,
            template_name,
            Method(method).value,
            candidate,
        )
        try:
            return self._table[key]
        except KeyError:
            raise CacheMissError(
                f"no cached score for image={image_id!r} anchor={anchor!r} "
                f"template={template_name!r} method={Method(method).value} "
                f"candidate={candidate!r}"
            ) from None
