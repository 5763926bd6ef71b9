"""Independent naive implementations used as test oracles.

Everything here is written the slow, obvious way, sharing nothing with the
package internals except the documented conventions (ascending-loss order,
index tie break, class pooling rules, the builder's seeded shuffle).  Tests compare the fast library
against these.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np


# -- ranking -------------------------------------------------------------


def naive_rank(scores, idx: int) -> int:
    """1-based rank of candidate idx: strictly lower scores first, then
    equal scores at earlier indices."""
    below = sum(1 for s in scores if s < scores[idx])
    ties_before = sum(1 for j in range(idx) if scores[j] == scores[idx])
    return 1 + below + ties_before


def naive_positive_ranks(scores, positives) -> list[int]:
    return [naive_rank(scores, i) for i in sorted(positives)]


# -- bag-of-words embedding ----------------------------------------------


def naive_text_embedding(vocab, tokens):
    """The one-sentence form: token counts over their np.linalg.norm."""
    counts = np.zeros(len(vocab))
    for tok in tokens:
        counts[list(vocab).index(tok)] += 1.0
    return counts / float(np.linalg.norm(counts))


# -- caption language model ----------------------------------------------


def caption_conditional(captions, prefix, vocab, smoothing):
    """Next-token distribution by scanning the caption list.

    captions: dict of token-tuple -> Fraction mass.  Returns (probs dict
    over vocab, terminal probability).  A prefix no caption starts with
    gets the uniform floor over |vocab| + 1 outcomes.
    """
    prefix = tuple(prefix)
    n = len(prefix)
    total = sum((p for c, p in captions.items() if c[:n] == prefix), Fraction(0))
    n_outcomes = len(vocab) + 1
    if total == 0:
        u = 1.0 / n_outcomes
        return {t: u for t in vocab}, u
    denom = 1.0 + n_outcomes * smoothing
    probs = {}
    for t in vocab:
        ext = prefix + (t,)
        mass = sum(
            (p for c, p in captions.items() if c[: n + 1] == ext), Fraction(0)
        )
        probs[t] = (float(mass / total) + smoothing) / denom
    end = sum((p for c, p in captions.items() if c == prefix), Fraction(0))
    terminal = (float(end / total) + smoothing) / denom
    return probs, terminal


def naive_generative_loss(captions, sentence, vocab, smoothing) -> float:
    loss = 0.0
    for i, tok in enumerate(sentence):
        probs, _ = caption_conditional(captions, sentence[:i], vocab, smoothing)
        loss += -math.log(probs[tok])
    _, terminal = caption_conditional(captions, sentence, vocab, smoothing)
    loss += -math.log(terminal)
    return loss


# -- benchmark construction ----------------------------------------------


def naive_instance_words(record, box_index, stats, total, anchor_kind):
    """A box's candidate words before the shuffle: the positives, then the
    first eligible words of the conditional table followed by the prior.

    Returns fewer than `total` words when the tables run dry.
    """
    box = record.boxes[box_index]
    others = [b for j, b in enumerate(record.boxes) if j != box_index]
    if anchor_kind == "object":
        positives = list(box.attributes)
        excluded = [a for b in others if b.obj == box.obj for a in b.attributes]
        table = stats.attrs_given_object.get(box.obj, ())
        prior = stats.attribute_prior
    else:
        anchor = box.attributes[0]
        positives = [box.obj]
        excluded = [b.obj for b in others if anchor in b.attributes]
        table = stats.objects_given_attr.get(anchor, ())
        prior = stats.object_prior
    negatives = []
    for word, _ in list(table) + list(prior):
        if word not in positives and word not in excluded and word not in negatives:
            negatives.append(word)
    return positives + negatives[: total - len(positives)]


def naive_shuffle(words, seed, image_id, box_index, anchor_kind):
    """`words` in the builder's seeded order: numpy's permutation under the
    top 63 bits of sha256 over the key parts joined by U+001F."""
    key = "\x1f".join(str(part) for part in (seed, image_id, box_index, anchor_kind))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big") >> 1)
    words = list(words)
    return [words[i] for i in rng.permutation(len(words))]


# -- metrics -------------------------------------------------------------


def _labels(inst) -> dict[int, int]:
    if inst.negatives_explicit is not None:
        out = {i: 1 for i in inst.positives}
        out.update({i: 0 for i in inst.negatives_explicit})
        return out
    return {i: (1 if i in inst.positives else 0) for i in range(len(inst.candidates))}


def naive_mean_rank(scored) -> float:
    ranks = []
    for s in scored:
        ranks.extend(naive_positive_ranks(s.scores, s.instance.positives))
    return sum(ranks) / len(ranks)


def naive_mean_recall_at_k(scored, k: int) -> float:
    per_class: dict[str, list[int]] = {}
    for s in scored:
        for i in sorted(s.instance.positives):
            word = s.instance.candidates[i]
            hit = 1 if naive_rank(s.scores, i) <= k else 0
            per_class.setdefault(word, []).append(hit)
    recalls = [sum(v) / len(v) for v in per_class.values()]
    return sum(recalls) / len(recalls)


def naive_class_ap(entries) -> float | None:
    """entries: (score, inst_idx, cand_idx, label); None when undefined."""
    if not any(lbl == 1 for *_, lbl in entries):
        return None
    if not any(lbl == 0 for *_, lbl in entries):
        return None
    ordered = sorted(entries, key=lambda e: (e[0], e[1], e[2]))
    precisions = []
    seen_pos = 0
    for i, (*_, lbl) in enumerate(ordered):
        if lbl == 1:
            seen_pos += 1
            precisions.append(seen_pos / (i + 1))
    return sum(precisions) / len(precisions)


def naive_class_aps(scored) -> dict[str, float]:
    """word -> pooled AP, for every class whose AP is defined."""
    pools: dict[str, list] = {}
    for inst_idx, s in enumerate(scored):
        labels = _labels(s.instance)
        for cand_idx, word in enumerate(s.instance.candidates):
            if cand_idx not in labels:
                continue
            pools.setdefault(word, []).append(
                (s.scores[cand_idx], inst_idx, cand_idx, labels[cand_idx])
            )
    aps = {w: naive_class_ap(v) for w, v in pools.items()}
    return {w: ap for w, ap in aps.items() if ap is not None}


def naive_mean_ap(scored) -> float:
    aps = list(naive_class_aps(scored).values())
    return sum(aps) / len(aps)


def naive_f1_at_k(scored, k: int) -> float:
    tp = fp = fn = 0
    for s in scored:
        retrieved = {
            i for i in range(len(s.scores)) if naive_rank(s.scores, i) <= k
        }
        pos = set(s.instance.positives)
        tp += len(retrieved & pos)
        fp += len(retrieved - pos)
        fn += len(pos - retrieved)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def naive_balanced_accuracy(scored, probs, threshold: float) -> float:
    per_class: dict[str, list[list[int]]] = {}
    for s, pr in zip(scored, probs):
        labels = _labels(s.instance)
        for i, word in enumerate(s.instance.candidates):
            if i not in labels:
                continue
            predicted = 1 if pr[i] >= threshold else 0
            tallies = per_class.setdefault(word, [[0, 0], [0, 0]])
            tallies[labels[i]][predicted] += 1
    accs = []
    for (tn_fp, tp_row) in per_class.values():
        neg_total = sum(tn_fp)
        pos_total = sum(tp_row)
        if neg_total == 0 or pos_total == 0:
            continue
        tnr = tn_fp[0] / neg_total
        tpr = tp_row[1] / pos_total
        accs.append((tpr + tnr) / 2)
    return sum(accs) / len(accs)
