"""The retrieval metrics on a hand-checkable batch.

Four instances over a shared vocabulary, small enough to verify every
number by eye.  Scores are losses: lower ranks earlier, ties break toward
the earlier index.
"""

import warnings

from genret import (
    AnchorKind,
    ClassMeta,
    Method,
    RankingInstance,
    ScoredInstance,
    bucketize,
    compute_report,
    mean_average_precision,
    mean_balanced_accuracy,
    mean_rank,
    mean_recall_at_k,
    overall_f1_at_k,
    positive_ranks,
)


def scored_of(candidates, positives, scores, image_id):
    inst = RankingInstance(
        image_id=image_id,
        anchor_kind=AnchorKind.OBJECT,
        anchor="probe",
        candidates=tuple(candidates),
        positives=frozenset(positives),
    )
    return ScoredInstance(
        instance=inst, template_name="{A}", method=Method.GENERATIVE,
        scores=tuple(float(s) for s in scores),
    )


def main():
    batch = [
        scored_of(("red", "wet", "tall"), {0}, (0.4, 1.1, 2.0), "img0"),
        scored_of(("red", "tall", "old"), {1}, (1.0, 1.0, 3.0), "img1"),
        scored_of(("wet", "red", "old"), {0, 1}, (0.7, 0.9, 2.2), "img2"),
        scored_of(("old", "tall"), {0}, (2.0, 0.3), "img3"),
    ]
    for s in batch:
        print(f"{s.instance.image_id}: positive ranks {positive_ranks(s)}")

    print(f"\nmean_rank          {mean_rank(batch):.4f}")
    for k in (1, 2):
        print(f"mean_recall@{k}      {mean_recall_at_k(batch, k):.4f}")
        print(f"overall F1@{k}       {overall_f1_at_k(batch, k):.4f}")

    # class pooling concatenates every occurrence of a word across instances
    print(f"mAP (class pool)   {mean_average_precision(batch):.4f}")

    probs = [[0.9, 0.4, 0.1], [0.2, 0.8, 0.3], [0.7, 0.6, 0.2], [0.1, 0.9]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # one-sided classes
        print(f"mA @ 0.5           {mean_balanced_accuracy(batch, probs, 0.5):.4f}")

    frequencies = {"red": 9000, "wet": 1200, "tall": 800, "old": 40}
    meta = bucketize(frequencies, head_cut=5000, tail_cut=500,
                     attribute_types={"red": "color", "wet": "state"})
    print("\nbuckets:", {w: m.bucket for w, m in sorted(meta.items())})

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = compute_report(
            batch, ks=(1, 2), thresholds=(0.5,), probs=probs,
            class_meta=meta, head_cut=5000, tail_cut=500,
        )
    print("\nfull report:")
    print(report.render_text(), end="")


if __name__ == "__main__":
    main()
