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
read, and a bad one is a SchemaError naming path:lineno.  Numbers pass
core's file rule, non_finite (a line's per_token rows as one list), so
NaN, an infinity, a bool, a string or an integer too large for a float is
a bad field, named by its first bad value.  A key recorded twice must
carry the same values both times; a conflict is a SchemaError naming it.

CachedScoreBackend keeps one table keyed by scored instance, (image_id,
region, anchor, template_name, method), each entry mapping a candidate to
its (loss, per_token row).  A per-instance line with a new key and
distinct candidates goes in whole; per-candidate lines, repeated keys and
a line naming a candidate twice merge candidate by candidate under the
conflict rule.  Replay asks `instance_scores` once per instance.
`sentence_score` reads the same table per candidate; it stays the
abstract method of SentenceScoreSource because per-candidate sources
(such as proxies that count each lookup) answer through it.

Replay writes what it read.  `from_file` also keeps the text of each line
that goes in whole, has exactly the per-instance fields and whose rows a
replay returns as recorded (a generative line, or one whose per_token is
null; a contrastive replay drops rows).  `instance_scores` returns that
text when the instance's candidates are the line's, in the line's order,
and `write_score_cache` writes it as it was read instead of encoding the
same values again.  A line genret wrote is byte-equal to its encoding, so
the bytes do not change; a line another tool wrote keeps its formatting
(key order, spacing, an integer loss) and reads back to the same values.
The kept text costs memory about the size of the file.  Every other
instance, an engine-scored one included, is encoded afresh.
"""

from __future__ import annotations

from itertools import chain, repeat
from pathlib import Path
from typing import Iterable

from ..core import (
    Method, ScoredInstance, checked_region, iter_jsonl, json_line, non_finite, read_jsonl,
    write_lines,
)
from ..errors import CacheMissError, SchemaError
from .base import SentenceScoreSource, scores_and_per_token

_KEY_FIELDS = ("image_id", "region", "anchor", "template_name", "method")
_INSTANCE_FIELDS = frozenset(_KEY_FIELDS + ("candidates", "loss", "per_token"))
_CANDIDATE_FIELDS = frozenset(_KEY_FIELDS + ("candidate", "loss", "per_token"))
_METHODS = tuple(m.value for m in Method)  # a tuple: `in` must not hash the value

# One checked line: the lookup key without its candidate, then the
# candidates with their losses and per_token rows (None when not recorded),
# and whether a replay of the line whole returns what it holds.
_Line = tuple[tuple, list, list, list, bool]


def _records(line: _Line) -> list[dict]:
    (image_id, region, anchor, template_name, method), candidates, losses, rows, _ = line
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
    return _records((key, inst.candidates, scored.scores, rows, False))


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


def _text(scored: ScoredInstance) -> str:
    return scored.recorded if scored.recorded is not None else json_line(_line(scored))


def write_score_cache(path: str | Path, scored: Iterable[ScoredInstance]) -> None:
    """One per-instance line per scored instance: a replayed instance's
    recorded line as it was read, any other encoded afresh."""
    write_lines(path, map(_text, scored))


def _numbers(value, field: str) -> list:
    """`value`, once it is a list of numbers that is_finite_number accepts."""
    if not isinstance(value, list):
        raise SchemaError(f"{field} must be a list of numbers, got {type(value).__name__}")
    if bad := non_finite(value):
        raise SchemaError(f"{field} entries must be finite numbers, got {bad[0]!r}")
    return value


def _per_token_rows(per, n: int) -> list:
    """A per-instance line's per_token field as n row tuples (None each when
    it is null), its numbers checked as one list when every row is a list."""
    if per is None:
        return [None] * n
    if not isinstance(per, list) or len(per) != n:
        raise SchemaError(f"per_token must be null or one list per candidate ({n})")
    if all(map(isinstance, per, repeat(list))) and not non_finite(list(chain.from_iterable(per))):
        return list(map(tuple, per))
    return [tuple(_numbers(row, "per_token row")) for row in per]


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
        rows = _per_token_rows(per, n)
    else:
        candidates = [rec["candidate"]]
        if non_finite([loss]):
            raise SchemaError(f"loss must be a finite number, got {loss!r}")
        loss = [loss]
        rows = [tuple(_numbers(per, "per_token")) if per is not None else None]
    if not all(map(isinstance, candidates, repeat(str))):
        bad = next(c for c in candidates if not isinstance(c, str))
        raise SchemaError(f"candidates must be strings, got {bad!r}")
    # replay returns a contrastive line's scores without its rows
    as_recorded = (
        per_instance and rec.keys() == _INSTANCE_FIELDS
        and (method == Method.GENERATIVE.value or per is None)
    )
    return key, candidates, list(map(float, loss)), rows, as_recorded


def read_score_cache(path: str | Path) -> list[dict]:
    """One dict per candidate, in file order, whichever form each line has."""
    return [rec for line in read_jsonl(path, _cache_record) for rec in _records(line)]


class CachedScoreBackend(SentenceScoreSource):
    """Replays previously computed scores, one lookup per instance."""

    def __init__(self, records: Iterable[dict] = ()):
        """`records` are cache lines of either form, each checked."""
        # (image_id, region, anchor, template_name, method) ->
        #     {candidate: (loss, per_token row or None)}
        self._table: dict[tuple, dict[str, tuple[float, tuple[float, ...] | None]]] = {}
        # the same key -> (candidates, text) of the line that entered whole
        # and replays as recorded, for the lines read from a file
        self._recorded: dict[tuple, tuple[tuple[str, ...], str]] = {}
        self._add(zip(map(_cache_record, records), repeat(None)))

    @classmethod
    def from_file(cls, path: str | Path) -> "CachedScoreBackend":
        cache = cls()
        lines = [(line, text) for _, text, line in iter_jsonl(path, _cache_record)]
        try:
            cache._add(lines)
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        return cache

    def _add(self, lines: Iterable[tuple[_Line, str | None]]) -> None:
        """Index checked lines, each with its text when it was read from a
        file.  A line whose key is new and whose candidates are distinct
        goes in whole, and its text is kept when a replay returns what it
        holds; otherwise it merges candidate by candidate.  A candidate
        recorded again must carry the same loss and per_token: an identical
        repeat (a run concatenated twice) is harmless, a conflicting one is
        a SchemaError."""
        table = self._table
        for (key, candidates, losses, rows, as_recorded), text in lines:
            entries = table.setdefault(key, {})
            if not entries:
                entries.update(zip(candidates, zip(losses, rows)))
                if len(entries) == len(candidates):
                    if as_recorded and text is not None:
                        self._recorded[key] = (tuple(candidates), text)
                    continue
                entries.clear()  # a candidate named twice: check the repeat
            setdefault = entries.setdefault
            for cand, entry in zip(candidates, zip(losses, rows)):
                kept = setdefault(cand, entry)
                if kept is not entry and kept != entry:
                    image_id, region, anchor, template_name, method = key
                    what = (
                        f"loss {kept[0]!r} and {entry[0]!r}" if kept[0] != entry[0]
                        else "two different per_token rows"
                    )
                    raise SchemaError(
                        f"conflicting records for image={image_id!r} region={region} "
                        f"anchor={anchor!r} template={template_name!r} method={method} "
                        f"candidate={cand!r}: {what}"
                    )

    def __len__(self) -> int:
        """The number of (instance, candidate) entries."""
        return sum(map(len, self._table.values()))

    def combos(self) -> set[tuple[Method, str]]:
        """All (method, template_name) pairs this cache holds."""
        return {(Method(method), template_name) for *_, template_name, method in self._table}

    def instance_scores(self, instance, template_name, method):
        key = (
            instance.image_id, instance.region, instance.anchor,
            template_name, Method(method).value,
        )
        entries = self._table.get(key, {})
        try:
            found = [entries[cand] for cand in instance.candidates]
        except KeyError as exc:
            raise _miss(key, exc.args[0]) from None
        scores, per_token = scores_and_per_token(found, method)
        candidates, text = self._recorded.get(key, ((), None))
        return scores, per_token, text if candidates == instance.candidates else None

    def sentence_score(self, image_id, region, anchor, template_name, method, candidate):
        key = (
            image_id,
            tuple(region) if region is not None else None,
            anchor,
            template_name,
            Method(method).value,
        )
        try:
            return self._table[key][candidate]
        except KeyError:
            raise _miss(key, candidate) from None


def _miss(key: tuple, candidate: str) -> CacheMissError:
    image_id, _, anchor, template_name, method = key
    return CacheMissError(
        f"no cached score for image={image_id!r} anchor={anchor!r} "
        f"template={template_name!r} method={method} candidate={candidate!r}"
    )
