"""Score-cache files and their replay backend.

A cache is JSONL, one line per scored instance:

    {"image_id": ..., "region": [x, y, w, h] | null, "anchor": ...,
     "template_name": ..., "method": "generative" | "contrastive",
     "candidates": [...], "loss": [...], "per_token": [[...], ...] | null}

`loss[i]` and `per_token[i]` belong to `candidates[i]`.  `loss` is the
exact ranking score that was computed (length normalization included if it
was on), and floats survive the JSON round trip bit-exactly, so replaying a
cache reproduces the original rankings identically.

That is the only form written.  The earlier form, one line per (instance,
candidate) with a `candidate` string, a scalar `loss` and one `per_token`
row (the dicts `scored_to_records` builds), is still read line by line,
because recorded caches are the exact-replay contract; files of either
form concatenate into one cache.  Every field of every line is checked on
read, and a bad one is a SchemaError naming path:lineno.  A key recorded
twice must carry the same values both times; a conflict is a SchemaError
naming the key.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..core import Method, ScoredInstance, checked_region, is_finite_number, read_jsonl, write_jsonl
from ..errors import CacheMissError, SchemaError
from .base import SentenceScoreSource

_KEY_FIELDS = ("image_id", "region", "anchor", "template_name", "method")
_INSTANCE_FIELDS = frozenset(_KEY_FIELDS + ("candidates", "loss", "per_token"))
_CANDIDATE_FIELDS = frozenset(_KEY_FIELDS + ("candidate", "loss", "per_token"))
_METHODS = tuple(m.value for m in Method)  # a tuple: `in` must not hash the value

# One checked line: the lookup key without its candidate, then the
# candidates with their losses and per_token rows (None when not recorded).
_Line = tuple[tuple, list, list, list]


def _records(line: _Line) -> list[dict]:
    (image_id, region, anchor, template_name, method), candidates, losses, rows = line
    return [
        {
            "image_id": image_id,
            "region": list(region) if region is not None else None,
            "anchor": anchor,
            "template_name": template_name,
            "method": method,
            "candidate": cand,
            "loss": loss,
            "per_token": list(per) if per is not None else None,
        }
        for cand, loss, per in zip(candidates, losses, rows)
    ]


def scored_to_records(scored: ScoredInstance) -> list[dict]:
    """One dict per candidate: the per-candidate line form, and what
    read_score_cache returns."""
    inst = scored.instance
    key = (inst.image_id, inst.region, inst.anchor, scored.template_name, scored.method.value)
    rows = scored.per_token or [None] * len(scored.scores)
    return _records((key, inst.candidates, scored.scores, rows))


def _line(scored: ScoredInstance) -> dict:
    inst = scored.instance
    per = scored.per_token
    return {
        "image_id": inst.image_id,
        "region": list(inst.region) if inst.region is not None else None,
        "anchor": inst.anchor,
        "template_name": scored.template_name,
        "method": scored.method.value,
        "candidates": list(inst.candidates),
        "loss": list(scored.scores),
        "per_token": [list(row) for row in per] if per is not None else None,
    }


def write_score_cache(path: str | Path, scored: Iterable[ScoredInstance]) -> None:
    write_jsonl(path, map(_line, scored))


def _numbers(value, field: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{field} must be a list of numbers, got {type(value).__name__}")
    if not all(map(is_finite_number, value)):
        bad = next(v for v in value if not is_finite_number(v))
        raise SchemaError(f"{field} entries must be finite numbers, got {bad!r}")
    return value


def _cache_record(rec) -> _Line:
    """Check every field of one cache line, either form."""
    if not isinstance(rec, dict):
        raise SchemaError("cache record must be an object")
    per_instance = "candidates" in rec
    missing = (_INSTANCE_FIELDS if per_instance else _CANDIDATE_FIELDS) - rec.keys()
    if missing:
        raise SchemaError(f"missing fields {sorted(missing)}")
    for field in ("image_id", "anchor", "template_name"):
        if not isinstance(rec[field], str):
            raise SchemaError(f"{field} must be a string, got {type(rec[field]).__name__}")
    method = rec["method"]
    if method not in _METHODS:
        raise SchemaError(f"method must be one of {list(_METHODS)}, got {method!r}")
    region = checked_region(rec["region"])
    key = (rec["image_id"], region, rec["anchor"], rec["template_name"], method)

    loss, per = rec["loss"], rec["per_token"]
    if per_instance:
        candidates = rec["candidates"]
        if not isinstance(candidates, list) or not candidates:
            raise SchemaError("candidates must be a non-empty list")
        n = len(candidates)
        if len(_numbers(loss, "loss")) != n:
            raise SchemaError(f"{len(loss)} losses for {n} candidates")
        if per is None:
            rows = [None] * n
        elif not isinstance(per, list) or len(per) != n:
            raise SchemaError(f"per_token must be null or one list per candidate ({n})")
        else:
            rows = [tuple(_numbers(row, "per_token row")) for row in per]
    else:
        candidates = [rec["candidate"]]
        if not is_finite_number(loss):
            raise SchemaError(f"loss must be a finite number, got {loss!r}")
        loss = [loss]
        rows = [tuple(_numbers(per, "per_token")) if per is not None else None]
    if not all(isinstance(c, str) for c in candidates):
        bad = next(c for c in candidates if not isinstance(c, str))
        raise SchemaError(f"candidates must be strings, got {bad!r}")
    return key, candidates, [float(x) for x in loss], rows


def read_score_cache(path: str | Path) -> list[dict]:
    """One dict per candidate, in file order, whichever form each line has."""
    return [rec for line in read_jsonl(path, _cache_record) for rec in _records(line)]


class CachedScoreBackend(SentenceScoreSource):
    """Replays previously computed sentence scores, query for query."""

    def __init__(self, records: Iterable[dict] = ()):
        """`records` are cache lines of either form, each checked."""
        self._table: dict[tuple, tuple[float, tuple[float, ...] | None]] = {}
        self._combos: set[tuple[str, str]] = set()
        self._add(map(_cache_record, records))

    @classmethod
    def from_file(cls, path: str | Path) -> "CachedScoreBackend":
        cache = cls()
        lines = read_jsonl(path, _cache_record)
        try:
            cache._add(lines)
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        return cache

    def _add(self, lines: Iterable[_Line]) -> None:
        """Index checked lines.  A key recorded again must carry the same
        loss and per_token: an identical repeat (a run concatenated twice)
        is harmless, a conflicting one is a SchemaError."""
        setdefault = self._table.setdefault
        for key, candidates, losses, rows in lines:
            self._combos.add((key[4], key[3]))
            for cand, loss, per in zip(candidates, losses, rows):
                entry = (loss, per)
                kept = setdefault(key + (cand,), entry)
                if kept is not entry and kept != entry:
                    image_id, region, anchor, template_name, method = key
                    what = (
                        f"loss {kept[0]!r} and {loss!r}" if kept[0] != loss
                        else "two different per_token rows"
                    )
                    raise SchemaError(
                        f"conflicting records for image={image_id!r} region={region} "
                        f"anchor={anchor!r} template={template_name!r} method={method} "
                        f"candidate={cand!r}: {what}"
                    )

    def __len__(self) -> int:
        return len(self._table)

    def combos(self) -> set[tuple[Method, str]]:
        """All (method, template_name) pairs this cache holds."""
        return {(Method(m), t) for m, t in self._combos}

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
