"""Sentence templates, ranking-problem records and the on-disk format.

A template is a whitespace-separated sequence of literal tokens and two slot
kinds, an attribute slot ``{A}`` and an object slot ``{O}``.  Rendering fills
slots with concrete words and yields a flat token tuple; multi-word values
contribute one token each, so ``{O} is {A}`` with object "traffic light" and
attribute "red" renders to ``("traffic", "light", "is", "red")``.

Words are case-folded once, by normalize_word, where they enter: in
RankingInstance, WorldSpec and dataset.image_record (both scene files).
Everything downstream, render included, takes words as given and compares
them by plain string equality.

Every number rule lives here: DOMAINS for parameters, is_finite_number and
non_finite for files, whose numbers must be finite, and non_numbers for
served probabilities and the /v1/logprobs terminal_p (every other wire
number crosses as float64 bytes, which hold nothing else).

The file helpers at the end are the one on-disk format: every write is
atomic, and undecodable input is a SchemaError naming the file.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Sequence, TextIO, TypeVar, Union

from .errors import ParameterError, RenderError, SchemaError, TemplateSyntaxError

_T = TypeVar("_T")


def normalize_word(word: str) -> str:
    """Collapse whitespace and lowercase. The single case-folding point."""
    if not isinstance(word, str):
        raise SchemaError(f"word must be a string, got {type(word).__name__}")
    norm = " ".join(word.split()).lower()
    if not norm:
        raise SchemaError("word is empty")
    return norm


#: the least int that float() cannot convert: it rounds past the largest float
_FLOAT_INT_LIMIT = 2**1024 - 2**970


def is_finite_number(value: object) -> bool:
    """True for a real number that converts to a finite float.  A bool is
    not a number here, nor an int too large for a float (a JSON integer
    literal may have any length)."""
    # exact-type fast paths for what JSON decodes to; the ABC check is slow
    if type(value) is float:
        return math.isfinite(value)
    if type(value) is int:
        return -_FLOAT_INT_LIMIT < value < _FLOAT_INT_LIMIT
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_int(value: object) -> bool:
    """True for an integer that is not a bool (a numpy integer counts)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def non_numbers(values: Collection) -> list:
    """The wire rule for /v1/logprobs numbers: the values that are neither
    a float (NaN and the infinities included) nor an int a float can hold,
    in order.  The client applies it to each terminal_p it reads, and
    `backends.base.check_served` to every probability a backend serves, in
    process and in the loopback server alike, so a Fraction, a string or a
    bool neither scores nor reaches the wire."""
    if set(map(type, values)) <= {float}:
        return []  # the common case, with no loop in Python
    return [v for v in values if not (isinstance(v, float) or (is_int(v) and is_finite_number(v)))]


def non_finite(values: Collection) -> list:
    """The file rule: the values is_finite_number rejects, in order.  With
    only ints and floats, a finite float sum means every value passes (a NaN
    or an infinity carries into it, a huge int overflows), so only a list
    that fails that is walked."""
    with suppress(OverflowError):
        if {int, float}.issuperset(map(type, values)) and math.isfinite(sum(values, 0.0)):
            return []
    return [v for v in values if not is_finite_number(v)]


DOMAINS: dict[str, Callable[[object], bool]] = {
    "an int >= 0": lambda v: is_int(v) and v >= 0,
    "an int >= 1": lambda v: is_int(v) and v >= 1,
    "a finite number": is_finite_number,
    "a finite number >= 0": lambda v: is_finite_number(v) and v >= 0,
    "a finite number > 0": lambda v: is_finite_number(v) and v > 0,
    "a finite number in [0, 1]": lambda v: is_finite_number(v) and 0 <= v <= 1,
}


def check_parameter(name: str, value: object, domain: str) -> None:
    """Raise ParameterError unless `value` lies in `domain`, a DOMAINS key."""
    if not DOMAINS[domain](value):
        raise ParameterError(f"{name} must be {domain}, got {value!r}")


def checked_region(region: object) -> tuple[float, float, float, float] | None:
    """The region as a tuple, or None for null; anything else but 4 finite
    numbers is a SchemaError.  Every region and scene box is checked here."""
    if region is None:
        return None
    if isinstance(region, (list, tuple)) and len(region) == 4:
        if all(map(is_finite_number, region)):
            return tuple(region)
    raise SchemaError(f"region must be null or 4 finite numbers, got {region!r}")


def stable_seed(*parts: object) -> int:
    """Derive a reproducible 63-bit seed from arbitrary key parts.

    Built on sha256 rather than hash() so results survive interpreter
    restarts and PYTHONHASHSEED.
    """
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


class Slot(Enum):
    """The two fillable template positions."""

    ATTRIBUTE = "A"
    OBJECT = "O"


TemplateElement = Union[Slot, str]  # str elements are literal tokens


@dataclass(frozen=True)
class Template:
    """Parsed sentence template.

    `elements` mixes Slot members and literal token strings.  `name`, the
    identifier recorded in score caches, is the canonical spec string, so a
    cached template name always parses back to the same template.
    """

    elements: tuple[TemplateElement, ...]

    def __post_init__(self):
        if not any(isinstance(e, Slot) for e in self.elements):
            raise TemplateSyntaxError("template has no slots")
        for e in self.elements:
            if isinstance(e, Slot):
                continue
            if not e or e.split() != [e] or "{" in e or "}" in e:
                raise TemplateSyntaxError(f"bad literal token {e!r}")

    @property
    def slots(self) -> frozenset[Slot]:
        return frozenset(e for e in self.elements if isinstance(e, Slot))

    @cached_property
    def name(self) -> str:
        return " ".join("{%s}" % e.value if isinstance(e, Slot) else e for e in self.elements)


def parse_template(spec: str) -> Template:
    """Parse a template spec like ``"{A} {O} is {A}"``.

    Elements are whitespace separated.  ``{A}`` and ``{O}`` are slots, any
    other brace use is an error, everything else is a literal token.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise TemplateSyntaxError("empty template spec")
    elements: list[TemplateElement] = []
    for piece in spec.split():
        if piece == "{A}":
            elements.append(Slot.ATTRIBUTE)
        elif piece == "{O}":
            elements.append(Slot.OBJECT)
        elif "{" in piece or "}" in piece:
            raise TemplateSyntaxError(f"malformed braces in {piece!r}")
        else:
            elements.append(piece)
    return Template(tuple(elements))


def render(t: Template, attribute: str | None = None, obj: str | None = None) -> tuple[str, ...]:
    """Fill each slot with its word's whitespace-separated tokens, as given:
    words are folded where they enter the program, not here.  A present
    slot whose word is missing or has no tokens raises RenderError.
    """
    out: list[str] = []
    for e in t.elements:
        if e is Slot.ATTRIBUTE:
            word = attribute
        elif e is Slot.OBJECT:
            word = obj
        else:
            out.append(e)
            continue
        tokens = word.split() if word is not None else None
        if not tokens:
            raise RenderError(
                f"template {t.name!r} needs a word with tokens for its "
                f"{e.name.lower()} slot, got {word!r}"
            )
        out += tokens
    return tuple(out)


# The four canonical specs, in the order reports print them.
CANONICAL_TEMPLATE_SPECS: tuple[str, ...] = (
    "{A}",
    "{O} is {A}",
    "{A} {O}",
    "{A} {O} is {A}",
)


def canonical_templates() -> tuple[Template, ...]:
    return tuple(parse_template(s) for s in CANONICAL_TEMPLATE_SPECS)


class AnchorKind(str, Enum):
    """Kind of the anchor word in a ranking instance.

    An instance with an OBJECT anchor ranks attribute candidates, and vice
    versa; `ranked` gives the candidates' kind.
    """

    OBJECT = "object"
    ATTRIBUTE = "attribute"

    @property
    def ranked(self) -> "AnchorKind":
        return AnchorKind.ATTRIBUTE if self is AnchorKind.OBJECT else AnchorKind.OBJECT


class Method(str, Enum):
    """Scoring method tag."""

    GENERATIVE = "generative"
    CONTRASTIVE = "contrastive"


@dataclass(frozen=True)
class RankingInstance:
    """One ranking problem: an anchor word plus a candidate list to order.

    positives are indices into `candidates`.  negatives_explicit, when
    present, marks candidates known to be false; candidates in neither set
    are unlabeled.  region is an optional (x, y, w, h) pixel box that
    backends may use to crop; it is carried opaquely everywhere else.
    """

    image_id: str
    anchor_kind: AnchorKind
    anchor: str
    candidates: tuple[str, ...]
    positives: frozenset[int]
    region: tuple[float, float, float, float] | None = None
    negatives_explicit: frozenset[int] | None = None

    def __post_init__(self):
        if not isinstance(self.image_id, str) or not self.image_id:
            raise SchemaError(f"image_id must be a non-empty string, got {self.image_id!r}")
        object.__setattr__(self, "anchor_kind", AnchorKind(self.anchor_kind))
        object.__setattr__(self, "anchor", normalize_word(self.anchor))
        object.__setattr__(
            self, "candidates", tuple(normalize_word(c) for c in self.candidates)
        )
        object.__setattr__(self, "region", checked_region(self.region))
        if not self.candidates:
            raise SchemaError("candidate list is empty")
        if len(set(self.candidates)) != len(self.candidates):
            raise SchemaError(f"duplicate candidates in instance for {self.anchor!r}")
        # a bool is no index, and an index is stored as an int (a numpy
        # integer as the int it equals, which JSON can write)
        n = len(self.candidates)
        positives = frozenset(self.positives)
        if not positives:
            raise SchemaError("positives is empty")
        if not all(is_int(i) and 0 <= i < n for i in positives):
            raise SchemaError("positive index out of range")
        object.__setattr__(self, "positives", frozenset(map(int, positives)))
        if self.negatives_explicit is not None:
            negatives = frozenset(self.negatives_explicit)
            if not all(is_int(i) and 0 <= i < n for i in negatives):
                raise SchemaError("explicit-negative index out of range")
            if self.positives & negatives:
                raise SchemaError("positives and explicit negatives overlap")
            object.__setattr__(self, "negatives_explicit", frozenset(map(int, negatives)))

    def labels(self) -> dict[int, int]:
        """Candidate index -> binary label, for labeled candidates only.

        With explicit negatives, only listed indices are labeled; without
        them every non-positive candidate counts as a negative.
        """
        out = {i: 1 for i in self.positives}
        if self.negatives_explicit is None:
            for i in range(len(self.candidates)):
                if i not in self.positives:
                    out[i] = 0
        else:
            for i in self.negatives_explicit:
                out[i] = 0
        return out


def ranking_order(scores: Sequence[float]) -> tuple[int, ...]:
    """Candidate indices, best first: ascending score, index-stable ties."""
    return tuple(sorted(range(len(scores)), key=lambda i: (scores[i], i)))


@dataclass(frozen=True)
class ScoredInstance:
    """A RankingInstance plus one score per candidate (lower is better).

    per_token holds the per-position loss terms for generative scoring
    (None for contrastive).  Both keep their values as given, as tuples:
    the engine computes floats, and the cache reader passes on what a cache
    holds.  `order` is the ranking_order of the scores,
    computed on first use and kept, so every metric of one instance shares
    one sort.

    `recorded` is the text of the score-cache line a replay read this
    instance from, when that line holds exactly what the instance does
    (scoring.rank_instance sets it), and None otherwise; the cache writer
    writes it as it was read.  It is no constructor argument and takes no
    part in equality, so `dataclasses.replace` makes an instance without
    one, encoded afresh when written.
    """

    instance: RankingInstance
    template_name: str
    method: Method
    scores: tuple[float, ...]
    per_token: tuple[tuple[float, ...], ...] | None = None
    recorded: str | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "scores", tuple(self.scores))
        if len(self.scores) != len(self.instance.candidates):
            raise SchemaError("one score per candidate required")
        if not all(map(math.isfinite, self.scores)):
            raise SchemaError("scores must be finite")
        if self.per_token is not None:
            per = tuple(map(tuple, self.per_token))
            object.__setattr__(self, "per_token", per)
            if len(per) != len(self.scores):
                raise SchemaError("one per_token row per candidate required")

    @cached_property
    def order(self) -> tuple[int, ...]:
        return ranking_order(self.scores)


def instance_to_dict(inst: RankingInstance) -> dict:
    return {
        "image_id": inst.image_id,
        "region": list(inst.region) if inst.region is not None else None,
        "anchor_kind": inst.anchor_kind.value,
        "anchor": inst.anchor,
        "candidates": list(inst.candidates),
        "positives": sorted(inst.positives),
        "negatives_explicit": (
            sorted(inst.negatives_explicit) if inst.negatives_explicit is not None else None
        ),
    }


_INSTANCE_FIELDS = {
    "image_id", "region", "anchor_kind", "anchor",
    "candidates", "positives", "negatives_explicit",
}


def instance_from_dict(d: dict) -> RankingInstance:
    if not isinstance(d, dict):
        raise SchemaError("instance record must be an object")
    missing = _INSTANCE_FIELDS - {"region", "negatives_explicit"} - set(d)
    if missing:
        raise SchemaError(f"instance record missing fields: {sorted(missing)}")
    unknown = set(d) - _INSTANCE_FIELDS
    if unknown:
        raise SchemaError(f"instance record has unknown fields: {sorted(unknown)}")
    try:
        # RankingInstance converts each field to its tuple/set/enum form
        return RankingInstance(
            image_id=d["image_id"],
            anchor_kind=d["anchor_kind"],
            anchor=d["anchor"],
            candidates=d["candidates"],
            positives=d["positives"],
            region=d.get("region"),
            negatives_explicit=d.get("negatives_explicit"),
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise SchemaError(f"bad instance record: {exc}") from exc


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Yield a text handle on `path`.tmp, renamed over `path` on success and
    deleted on any exception.  It sits beside `path` so the rename cannot
    cross filesystems; a missing parent directory is made first."""
    tmp = Path(f"{path}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """One JSON document: indent 2, sorted keys, final newline."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_line(record: dict) -> str:
    """The text of one JSONL line: `record` as sorted-key JSON."""
    return json.dumps(record, sort_keys=True)


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """One JSONL line per text, streamed line by line; each text is one
    JSON object as json_line writes it or as iter_jsonl read it."""
    with atomic_write(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One sorted-key JSON object per line, streamed record by record."""
    write_lines(path, map(json_line, records))


def read_json(path: str | Path, parse: Callable[[object], _T]) -> _T:
    """parse() one JSON document.  Content that is not UTF-8 JSON, or that
    parse() rejects with SchemaError, raises SchemaError prefixed with path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return parse(raw)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def iter_jsonl(
    path: str | Path, parse: Callable[[object], _T]
) -> Iterator[tuple[int, str, _T]]:
    """(lineno, text, parse(record)) for each non-blank line of a JSONL
    file, in order; text is the line as decoded, without its surrounding
    whitespace.  A line that is not UTF-8 JSON, or that parse() rejects
    with SchemaError, raises SchemaError prefixed with path:lineno."""
    with open(path, "rb") as fh:  # decoded line by line, so errors have a lineno
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                text = line.decode("utf-8")
                record = parse(json.loads(text))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise SchemaError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            yield lineno, text, record


def read_jsonl(path: str | Path, parse: Callable[[object], _T]) -> list[_T]:
    """The parsed records of iter_jsonl, as a list."""
    return [record for _, _, record in iter_jsonl(path, parse)]


def write_instances(path: str | Path, instances: Iterable[RankingInstance]) -> None:
    write_jsonl(path, map(instance_to_dict, instances))


def read_instances(path: str | Path) -> list[RankingInstance]:
    return read_jsonl(path, instance_from_dict)
