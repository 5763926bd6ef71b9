"""Retrieval metrics over scored ranking instances.

Unless a docstring says otherwise, ranks come from the canonical order
(core.ranking_order: ascending score, candidate-index ties), so every
metric except balanced accuracy depends on scores only through that order.
Each ScoredInstance sorts once and keeps its order, which every metric reads.

Candidate labeling: positives are labeled 1; with explicit negatives only
those are labeled 0 and the rest stay unlabeled; without explicit negatives
every non-positive counts as a negative (the usual treatment for benchmark
splits whose negatives are false by construction).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import ScoredInstance, check_parameter
from .errors import ConfigurationError, MetricError

BUCKETS = ("head", "medium", "tail")


@dataclass(frozen=True)
class ClassMeta:
    word: str
    bucket: str
    attribute_type: str | None = None


def _check_cutoffs(head_cut: int, tail_cut: int) -> None:
    check_parameter("tail_cut", tail_cut, "an int >= 1")
    check_parameter("head_cut", head_cut, "an int >= 1")
    check_parameter("head_cut - tail_cut", head_cut - tail_cut, "an int >= 1")


def bucketize(
    class_frequencies: Mapping[str, int],
    head_cut: int = 5000,
    tail_cut: int = 500,
    attribute_types: Mapping[str, str] | None = None,
) -> dict[str, ClassMeta]:
    """Split classes by training-set frequency.

    head: count >= head_cut, tail: count < tail_cut, medium: the rest
    (boundary counts equal to tail_cut are medium); head_cut > tail_cut >= 1.
    """
    _check_cutoffs(head_cut, tail_cut)
    out = {}
    for word, count in class_frequencies.items():
        if count >= head_cut:
            bucket = "head"
        elif count < tail_cut:
            bucket = "tail"
        else:
            bucket = "medium"
        out[word] = ClassMeta(
            word=word,
            bucket=bucket,
            attribute_type=(attribute_types or {}).get(word),
        )
    return out


def positive_ranks(scored: ScoredInstance) -> list[int]:
    """1-based rank of each positive, in ascending positive-index order."""
    order = scored.order
    rank_of = [0] * len(order)
    for pos, idx in enumerate(order):
        rank_of[idx] = pos + 1
    return [rank_of[i] for i in sorted(scored.instance.positives)]


def mean_rank(scored: Sequence[ScoredInstance]) -> float:
    """Mean rank over every positive of every instance (1 is best)."""
    ranks = [r for s in scored for r in positive_ranks(s)]
    if not ranks:
        raise MetricError("mean_rank undefined: no positives")
    return sum(ranks) / len(ranks)


def mean_recall_at_k(scored: Sequence[ScoredInstance], k: int) -> float:
    """Unweighted class mean of recall at k.

    A positive is retrieved when it ranks within the top k of its own
    instance; per-class recall pools retrieved/total over instances.
    """
    check_parameter("k", k, "an int >= 1")
    totals: dict[str, int] = {}
    hits: dict[str, int] = {}
    for s in scored:
        ranks = positive_ranks(s)
        for i, rank in zip(sorted(s.instance.positives), ranks):
            word = s.instance.candidates[i]
            totals[word] = totals.get(word, 0) + 1
            if rank <= k:
                hits[word] = hits.get(word, 0) + 1
    if not totals:
        raise MetricError("mean_recall_at_k undefined: no positives")
    return sum(hits.get(w, 0) / n for w, n in totals.items()) / len(totals)


def _average_precision(entries: list[tuple[float, int, int, int]]) -> float | None:
    """AP of one pooled list of (score, inst_idx, cand_idx, label) that holds
    at least one positive.

    Returns None when there is nothing to rank the positives against.
    """
    entries = sorted(entries, key=lambda e: (e[0], e[1], e[2]))
    n_pos = sum(e[3] for e in entries)
    if n_pos == len(entries):
        return None  # no labeled negatives to rank against
    precisions = []
    seen_pos = 0
    for rank, e in enumerate(entries, start=1):
        if e[3] == 1:
            seen_pos += 1
            precisions.append(seen_pos / rank)
    return sum(precisions) / n_pos


def _class_aps(scored: Sequence[ScoredInstance]) -> dict[str, float]:
    """Word -> AP of its labeled candidates pooled across instances, in word
    order.  Classes without positives are left out; classes with positives
    but no labeled negatives too, with one warning each."""
    per_class: dict[str, list[tuple[float, int, int, int]]] = {}
    for idx, s in enumerate(scored):
        for i, label in s.instance.labels().items():
            word = s.instance.candidates[i]
            per_class.setdefault(word, []).append((s.scores[i], idx, i, label))
    aps = {}
    for word in sorted(per_class):
        entries = per_class[word]
        if not any(e[3] == 1 for e in entries):
            continue
        ap = _average_precision(entries)
        if ap is None:
            warnings.warn(
                f"class {word!r} has positives but no labeled negatives; skipped",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        aps[word] = ap
    return aps


def _class_mean(aps: Iterable[float]) -> float:
    aps = list(aps)
    if not aps:
        raise MetricError("mAP undefined: no class with both labels")
    return sum(aps) / len(aps)


def mean_average_precision(scored: Sequence[ScoredInstance]) -> float:
    """Unweighted class mean of AP.

    Each class's labeled candidates are pooled across instances and ranked
    by score; unlabeled candidates are ignored.  Classes with positives but
    no labeled negatives are skipped with a warning.
    """
    return _class_mean(_class_aps(scored).values())


def mean_balanced_accuracy(
    scored: Sequence[ScoredInstance],
    probs: Sequence[Sequence[float]],
    threshold: float,
) -> float:
    """Class mean of (TPR + TNR) / 2 at `prob >= threshold`.

    probs aligns with scored (one probability per candidate).  Classes
    missing either label side are excluded.
    """
    if len(probs) != len(scored):
        raise MetricError("probs must align with scored instances")
    tallies: dict[str, list[int]] = {}  # word -> [tp, fn, tn, fp]
    for s, ps in zip(scored, probs):
        if len(ps) != len(s.instance.candidates):
            raise MetricError("one probability per candidate required")
        for i, label in s.instance.labels().items():
            word = s.instance.candidates[i]
            t = tallies.setdefault(word, [0, 0, 0, 0])
            predicted = ps[i] >= threshold
            if label == 1:
                t[0 if predicted else 1] += 1
            else:
                t[3 if predicted else 2] += 1
    values = []
    for word in sorted(tallies):
        tp, fn, tn, fp = tallies[word]
        if tp + fn == 0 or tn + fp == 0:
            continue
        values.append(0.5 * (tp / (tp + fn) + tn / (tn + fp)))
    if not values:
        raise MetricError("balanced accuracy undefined: no class with both labels")
    return sum(values) / len(values)


def overall_f1_at_k(scored: Sequence[ScoredInstance], k: int) -> float:
    """Micro F1 of predicting each instance's top k candidates.

    Pooled: precision = true positives / all predictions, recall = true
    positives / all positives.  Every prediction that is not a positive
    counts against precision, labeled or not.
    """
    check_parameter("k", k, "an int >= 1")
    tp = predicted = actual = 0
    for s in scored:
        top = s.order[:k]
        predicted += len(top)
        actual += len(s.instance.positives)
        tp += sum(1 for i in top if i in s.instance.positives)
    if predicted == 0 or actual == 0:
        raise MetricError("F1 undefined: empty predictions or positives")
    precision = tp / predicted
    recall = tp / actual
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class MetricReport:
    """All headline metrics plus optional per-bucket / per-type breakdowns."""

    mean_rank: float
    mean_recall_at_k: dict[int, float]
    mean_ap: float
    f1_at_k: dict[int, float]
    mean_balanced_accuracy: dict[float, float] = field(default_factory=dict)
    per_bucket: dict[str, dict[str, float]] = field(default_factory=dict)
    per_type: dict[str, dict[str, float]] = field(default_factory=dict)
    bucket_cutoffs: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mean_rank": self.mean_rank,
            "mean_recall_at_k": {str(k): v for k, v in self.mean_recall_at_k.items()},
            "mean_ap": self.mean_ap,
            "f1_at_k": {str(k): v for k, v in self.f1_at_k.items()},
            "mean_balanced_accuracy": {
                str(t): v for t, v in self.mean_balanced_accuracy.items()
            },
            "per_bucket": self.per_bucket,
            "per_type": self.per_type,
            "bucket_cutoffs": self.bucket_cutoffs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        return cls(
            mean_rank=d["mean_rank"],
            mean_recall_at_k={int(k): v for k, v in d["mean_recall_at_k"].items()},
            mean_ap=d["mean_ap"],
            f1_at_k={int(k): v for k, v in d["f1_at_k"].items()},
            mean_balanced_accuracy={
                float(t): v for t, v in d.get("mean_balanced_accuracy", {}).items()
            },
            per_bucket=d.get("per_bucket", {}),
            per_type=d.get("per_type", {}),
            bucket_cutoffs=d.get("bucket_cutoffs", {}),
        )

    def render_text(self) -> str:
        rows: list[tuple[str, str]] = [("mean_rank", f"{self.mean_rank:.4f}")]
        for k in sorted(self.mean_recall_at_k):
            rows.append((f"mR@{k}", f"{self.mean_recall_at_k[k]:.4f}"))
        rows.append(("mAP", f"{self.mean_ap:.4f}"))
        for k in sorted(self.f1_at_k):
            rows.append((f"F1@{k}", f"{self.f1_at_k[k]:.4f}"))
        for t in sorted(self.mean_balanced_accuracy):
            rows.append((f"mA@{t:g}", f"{self.mean_balanced_accuracy[t]:.4f}"))
        if self.bucket_cutoffs:
            rows.append(
                (
                    "bucket_cutoffs",
                    f"head>={self.bucket_cutoffs.get('head_cut')} "
                    f"tail<{self.bucket_cutoffs.get('tail_cut')}",
                )
            )
        for bucket in BUCKETS:
            if bucket in self.per_bucket:
                stats = self.per_bucket[bucket]
                rows.append(
                    (
                        f"mAP[{bucket}]",
                        f"{stats['mean_ap']:.4f} (n={int(stats['n_classes'])})",
                    )
                )
        for tname in sorted(self.per_type):
            stats = self.per_type[tname]
            rows.append(
                (
                    f"mAP[type={tname}]",
                    f"{stats['mean_ap']:.4f} (n={int(stats['n_classes'])})",
                )
            )
        return format_table(rows)


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Rows of cells as left-aligned columns two spaces apart, one line per
    row with no trailing blanks."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )


def compute_report(
    scored: Sequence[ScoredInstance],
    ks: Sequence[int] = (15,),
    thresholds: Sequence[float] = (),
    probs: Sequence[Sequence[float]] | None = None,
    class_meta: Mapping[str, ClassMeta] | None = None,
    head_cut: int = 5000,
    tail_cut: int = 500,
) -> MetricReport:
    """Assemble the full report; breakdowns appear when class_meta is given.

    A bucket's or type's mAP is the mean of its classes' APs, taken from the
    same per-class table as the overall mAP.  Each threshold must be a
    finite number in [0, 1] and head_cut > tail_cut >= 1, else ParameterError,
    with or without probs and class_meta (bucket_cutoffs records the cuts).
    Thresholds cut probabilities, so thresholds without probs is a
    ConfigurationError.
    """
    for t in thresholds:
        check_parameter("threshold", t, "a finite number in [0, 1]")
    if thresholds and probs is None:
        raise ConfigurationError("thresholds cut calibrated probabilities; none were given")
    _check_cutoffs(head_cut, tail_cut)
    if not scored:
        raise MetricError("no scored instances")
    report_ma = {t: mean_balanced_accuracy(scored, probs, t) for t in thresholds}
    class_aps = _class_aps(scored)
    per_bucket: dict[str, dict[str, float]] = {}
    per_type: dict[str, dict[str, float]] = {}
    if class_meta:
        groups: dict[str, set[str]] = {}
        for meta in class_meta.values():
            groups.setdefault(f"bucket:{meta.bucket}", set()).add(meta.word)
            if meta.attribute_type is not None:
                groups.setdefault(f"type:{meta.attribute_type}", set()).add(meta.word)
        for key, words in sorted(groups.items()):
            aps = [ap for word, ap in class_aps.items() if word in words]
            if not aps:
                continue
            kind, name = key.split(":", 1)
            target = per_bucket if kind == "bucket" else per_type
            target[name] = {"mean_ap": _class_mean(aps), "n_classes": float(len(words))}
    return MetricReport(
        mean_rank=mean_rank(scored),
        mean_recall_at_k={k: mean_recall_at_k(scored, k) for k in ks},
        mean_ap=_class_mean(class_aps.values()),
        f1_at_k={k: overall_f1_at_k(scored, k) for k in ks},
        mean_balanced_accuracy=report_ma,
        per_bucket=per_bucket,
        per_type=per_type,
        bucket_cutoffs={"head_cut": head_cut, "tail_cut": tail_cut},
    )
