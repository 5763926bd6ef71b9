"""Metrics against the naive oracles in bruteforce.py, plus hand fixtures.

The randomized block is the workhorse: every metric must agree with the
slow scan over fixtures that deliberately include score ties, explicit
negatives, and classes shared across instances.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from genret import (
    AnchorKind,
    Method,
    MetricReport,
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
from genret.errors import ConfigurationError, MetricError, ParameterError

VOCAB = [f"w{i:02d}" for i in range(24)]


def make_scored(candidates, positives, scores, negatives=None, image_id="img0"):
    inst = RankingInstance(
        image_id=image_id,
        anchor_kind=AnchorKind.ATTRIBUTE,
        anchor="probe",
        candidates=tuple(candidates),
        positives=frozenset(positives),
        negatives_explicit=None if negatives is None else frozenset(negatives),
    )
    return ScoredInstance(
        instance=inst,
        template_name="{A}",
        method=Method.GENERATIVE,
        scores=tuple(float(s) for s in scores),
    )


def random_scored(rng):
    """A batch of 1..10 instances with 2..20 candidates drawn from a shared
    vocabulary, so classes pool across instances.  Half the score vectors
    are rounded to one decimal to force ties."""
    n_inst = int(rng.integers(1, 11))
    scored, probs = [], []
    for idx in range(n_inst):
        n_cand = int(rng.integers(2, 21))
        cands = tuple(rng.choice(VOCAB, size=n_cand, replace=False))
        n_pos = int(rng.integers(1, n_cand))
        pos = frozenset(int(i) for i in rng.choice(n_cand, size=n_pos, replace=False))
        neg = None
        if rng.random() < 0.4:
            rest = [i for i in range(n_cand) if i not in pos]
            n_neg = int(rng.integers(1, len(rest) + 1))
            neg = frozenset(int(i) for i in rng.choice(rest, size=n_neg, replace=False))
        scores = rng.uniform(0.0, 4.0, size=n_cand)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        scored.append(make_scored(cands, pos, scores, neg, image_id=f"img{idx}"))
        p = rng.uniform(0.0, 1.0, size=n_cand)
        if rng.random() < 0.5:
            p = np.round(p, 1)
        probs.append([float(x) for x in p])
    return scored, probs


def test_against_bruteforce_randomized():
    rng = np.random.default_rng(20240817)
    ap_checked = 0
    for _ in range(100):
        scored, probs = random_scored(rng)
        assert mean_rank(scored) == pytest.approx(bf.naive_mean_rank(scored), abs=1e-9)
        for k in (1, 3, 5, 30):
            assert mean_recall_at_k(scored, k) == pytest.approx(
                bf.naive_mean_recall_at_k(scored, k), abs=1e-9
            )
            assert overall_f1_at_k(scored, k) == pytest.approx(
                bf.naive_f1_at_k(scored, k), abs=1e-9
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                expected = bf.naive_mean_ap(scored)
            except ZeroDivisionError:
                with pytest.raises(MetricError):
                    mean_average_precision(scored)
            else:
                assert mean_average_precision(scored) == pytest.approx(
                    expected, abs=1e-9
                )
                ap_checked += 1
        for t in (0.3, 0.5, 0.9):
            try:
                expected = bf.naive_balanced_accuracy(scored, probs, t)
            except ZeroDivisionError:
                with pytest.raises(MetricError):
                    mean_balanced_accuracy(scored, probs, t)
            else:
                assert mean_balanced_accuracy(scored, probs, t) == pytest.approx(
                    expected, abs=1e-9
                )
    assert ap_checked >= 90  # degenerate pools should be rare, not the norm


# -- ranks ----------------------------------------------------------------


def test_positive_ranks_break_ties_by_index():
    s = make_scored(("a", "b", "c"), {2}, (1.0, 1.0, 1.0))
    assert positive_ranks(s) == [3]
    s = make_scored(("a", "b", "c"), {0, 2}, (1.0, 1.0, 1.0))
    assert positive_ranks(s) == [1, 3]
    # a strict winner still outranks an earlier-index tie loser
    s = make_scored(("a", "b", "c"), {0, 2}, (2.0, 1.0, 1.0))
    assert positive_ranks(s) == [3, 2]


def test_mean_rank_pools_every_positive():
    batch = [
        make_scored(("a", "b"), {0}, (1.0, 2.0)),
        make_scored(("a", "b", "c"), {1, 2}, (0.0, 3.0, 1.0), image_id="img1"),
    ]
    # ranks: 1, then 3 and 2
    assert mean_rank(batch) == pytest.approx(2.0)


# -- average precision ----------------------------------------------------


def test_ap_pools_one_class_across_instances():
    batch = [
        make_scored(("w00", "z0"), {0}, (1.0, 9.0), image_id="img0"),
        make_scored(("w00", "z1"), {1}, (2.0, 0.5), image_id="img1"),
        make_scored(("w00", "z2"), {0}, (3.0, 9.0), image_id="img2"),
    ]
    # pooled w00 list, ascending score: +, -, + so AP = (1/1 + 2/3) / 2;
    # z1 has a positive but no labeled negative and is skipped, and z0 and
    # z2 have no positive, so w00 is the only class averaged
    with pytest.warns(RuntimeWarning, match="z1"):
        got = mean_average_precision(batch)
    assert abs(got - 5 / 6) < 1e-12  # summation lands one ulp off 5/6


def test_ap_positive_only_class_warns_and_is_skipped():
    batch = [
        make_scored(("lonely", "other"), {0}, (0.5, 2.0), image_id="img0"),
        make_scored(("other", "pad"), {0}, (1.0, 5.0), image_id="img1"),
    ]
    with pytest.warns(RuntimeWarning, match="lonely"):
        got = mean_average_precision(batch)
    # only "other" survives: negative at 2.0, positive at 1.0
    assert got == pytest.approx(1.0)


def test_ap_explicit_negatives_leave_the_rest_unlabeled():
    # img1 labels "c" negative and leaves its "a" unlabeled; that "a" ranks
    # above img0's positive "a" in the pooled "a" list but does not lower
    # the class's AP, so every class scores AP 1
    batch = [
        make_scored(("a", "b"), {0}, (1.0, 2.0), image_id="img0"),
        make_scored(("b", "a", "c"), {0}, (1.0, 0.5, 3.0), negatives={2}, image_id="img1"),
        make_scored(("c", "a"), {0}, (1.0, 4.0), image_id="img2"),
    ]
    assert mean_average_precision(batch) == pytest.approx(1.0)
    # labeled negative, img1's "a" would halve the class's AP: (1 + 1/2 + 1) / 3
    batch[1] = make_scored(("b", "a", "c"), {0}, (1.0, 0.5, 3.0), image_id="img1")
    assert mean_average_precision(batch) == pytest.approx(5 / 6, abs=1e-12)


def test_ap_undefined_without_usable_class():
    # every class is positive-only once warnings are past
    s = make_scored(("a", "b"), {0}, (1.0, 2.0), negatives=set())
    with pytest.warns(RuntimeWarning), pytest.raises(MetricError):
        mean_average_precision([s])


# -- balanced accuracy ----------------------------------------------------


def test_balanced_accuracy_hand_value():
    batch = [
        make_scored(("w00", "q0"), {0}, (1.0, 2.0), image_id="img0"),
        make_scored(("w00", "q1"), {0}, (1.0, 2.0), image_id="img1"),
        make_scored(("w00", "q2"), {1}, (1.0, 2.0), image_id="img2"),
        make_scored(("w00", "q3"), {1}, (1.0, 2.0), image_id="img3"),
    ]
    probs = [[0.9, 0.0], [0.1, 0.0], [0.2, 1.0], [0.3, 1.0]]
    # w00: TP 1, FN 1, TN 2, FP 0; the q classes are one-sided and skipped
    assert mean_balanced_accuracy(batch, probs, 0.5) == 0.75


def test_balanced_accuracy_threshold_is_inclusive():
    batch = [
        make_scored(("w00", "q0"), {0}, (1.0, 2.0), image_id="img0"),
        make_scored(("w00", "q1"), {1}, (1.0, 2.0), image_id="img1"),
    ]
    probs = [[0.5, 0.0], [0.4, 1.0]]
    assert mean_balanced_accuracy(batch, probs, 0.5) == 1.0


def test_balanced_accuracy_alignment_errors():
    batch = [make_scored(("a", "b"), {0}, (1.0, 2.0))]
    with pytest.raises(MetricError, match="align"):
        mean_balanced_accuracy(batch, [], 0.5)
    with pytest.raises(MetricError, match="per candidate"):
        mean_balanced_accuracy(batch, [[0.5]], 0.5)


def test_balanced_accuracy_undefined_when_one_sided():
    batch = [make_scored(("a", "b"), {0}, (1.0, 2.0), negatives=set())]
    with pytest.raises(MetricError):
        mean_balanced_accuracy(batch, [[0.9, 0.1]], 0.5)


# -- F1 and empties --------------------------------------------------------


def test_f1_at_k_micro_pools_counts():
    batch = [
        make_scored(("a", "b", "c"), {0, 1}, (1.0, 3.0, 2.0)),
        make_scored(("a", "b"), {0}, (2.0, 1.0), image_id="img1"),
    ]
    # k=1 takes the lowest score: a (hit) then b (miss), 3 actual positives
    p, r = 1 / 2, 1 / 3
    assert overall_f1_at_k(batch, 1) == pytest.approx(2 * p * r / (p + r))


def test_metric_errors_on_empty_or_bad_k():
    with pytest.raises(MetricError):
        mean_rank([])
    s = make_scored(("a", "b"), {0}, (1.0, 2.0))
    with pytest.raises(ParameterError, match="^k must be"):
        mean_recall_at_k([s], 0)
    with pytest.raises(ParameterError, match="^k must be"):
        overall_f1_at_k([s], 0)
    with pytest.raises(MetricError):
        compute_report([])


# -- hypothesis invariants -------------------------------------------------

quarter_grid = st.integers(-100, 100).map(lambda i: i / 4)


@given(scores=st.lists(quarter_grid, min_size=2, max_size=12), data=st.data())
@settings(max_examples=60, deadline=None)
def test_affine_score_transform_keeps_ranks(scores, data):
    n = len(scores)
    pos = data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n).map(frozenset)
    )
    cands = tuple(f"c{i}" for i in range(n))
    a = make_scored(cands, pos, scores)
    # 0.5*s + 3 is exact on the quarter grid, so ties are preserved exactly
    b = make_scored(cands, pos, [0.5 * s + 3.0 for s in scores])
    assert positive_ranks(a) == positive_ranks(b)
    assert mean_rank([a]) == mean_rank([b])
    for k in (1, 2, 5):
        assert mean_recall_at_k([a], k) == mean_recall_at_k([b], k)
        assert overall_f1_at_k([a], k) == overall_f1_at_k([b], k)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_recall_non_decreasing_in_k(seed):
    scored, _ = random_scored(np.random.default_rng(seed))
    values = [mean_recall_at_k(scored, k) for k in range(1, 8)]
    assert all(lo <= hi + 1e-15 for lo, hi in zip(values, values[1:]))
    assert mean_recall_at_k(scored, 25) == pytest.approx(1.0)


# -- buckets ----------------------------------------------------------------


def test_bucketize_boundaries():
    freqs = {"h": 5000, "m_hi": 4999, "m_lo": 500, "t": 499}
    meta = bucketize(freqs, head_cut=5000, tail_cut=500)
    assert {w: m.bucket for w, m in meta.items()} == {
        "h": "head",
        "m_hi": "medium",
        "m_lo": "medium",
        "t": "tail",
    }
    assert meta["h"].attribute_type is None


def test_bucketize_attribute_types_pass_through():
    meta = bucketize({"red": 10, "tall": 10}, 100, 50, {"red": "color"})
    assert meta["red"].attribute_type == "color"
    assert meta["tall"].attribute_type is None
    assert meta["red"].bucket == "tail"


@pytest.mark.parametrize(
    "head_cut,tail_cut",
    [(500, 500), (100, 500), (10, 0), (5000.0, 500), (5000, "500")],
)
def test_bucketize_rejects_bad_cutoffs(head_cut, tail_cut):
    with pytest.raises(ParameterError, match="_cut must be"):
        bucketize({"a": 1}, head_cut, tail_cut)


# -- the assembled report ---------------------------------------------------


@pytest.fixture()
def report_inputs():
    rng = np.random.default_rng(7)
    scored, probs = random_scored(rng)
    freqs = {}
    for i, w in enumerate(VOCAB):
        freqs[w] = 6000 if i < 8 else (1000 if i < 16 else 10)
    meta = bucketize(freqs, attribute_types={"w00": "color", "w01": "color"})
    return scored, probs, meta


def test_compute_report_matches_components(report_inputs):
    scored, probs, meta = report_inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = compute_report(
            scored, ks=(1, 5), thresholds=(0.5,), probs=probs, class_meta=meta
        )
        assert report.mean_rank == mean_rank(scored)
        assert report.mean_recall_at_k == {
            1: mean_recall_at_k(scored, 1),
            5: mean_recall_at_k(scored, 5),
        }
        assert report.mean_ap == mean_average_precision(scored)
        assert report.f1_at_k[5] == overall_f1_at_k(scored, 5)
        assert report.mean_balanced_accuracy == {
            0.5: mean_balanced_accuracy(scored, probs, 0.5)
        }
    assert report.per_bucket  # at least one bucket had a usable pool
    assert set(report.per_bucket) <= {"head", "medium", "tail"}
    for stats in report.per_bucket.values():
        assert stats["n_classes"] == 8.0
    assert "color" in report.per_type
    assert report.bucket_cutoffs == {"head_cut": 5000, "tail_cut": 500}


def test_report_rejects_thresholds_without_probs(report_inputs):
    # a threshold cuts calibrated probabilities; without them it would be
    # recorded and silently ignored
    scored, _, _ = report_inputs
    with pytest.raises(ConfigurationError, match="thresholds"):
        compute_report(scored, ks=(1,), thresholds=(0.5, 0.9))


def test_report_json_round_trip(report_inputs):
    scored, probs, meta = report_inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = compute_report(
            scored, ks=(1, 5), thresholds=(0.5,), probs=probs, class_meta=meta
        )
    blob = json.dumps(report.to_dict())
    assert MetricReport.from_dict(json.loads(blob)) == report


def test_report_render_text(report_inputs):
    scored, probs, meta = report_inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = compute_report(
            scored, ks=(5,), thresholds=(0.5,), probs=probs, class_meta=meta
        )
    text = report.render_text()
    lines = text.splitlines()
    assert lines[0].startswith("mean_rank")
    assert any(line.startswith("mR@5") for line in lines)
    assert any(line.startswith("F1@5") for line in lines)
    assert any(line.startswith("mA@0.5") for line in lines)
    assert any(line.startswith("mAP[") for line in lines)
    assert text.endswith("\n")


def test_breakdowns_average_their_own_classes(report_inputs):
    # each bucket's mAP is the mean AP of that bucket's classes alone, not
    # the overall mAP again
    scored, _, meta = report_inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = compute_report(scored, ks=(5,), class_meta=meta)
    class_aps = bf.naive_class_aps(scored)
    for bucket, stats in report.per_bucket.items():
        aps = [ap for w, ap in class_aps.items() if meta[w].bucket == bucket]
        assert stats["mean_ap"] == pytest.approx(sum(aps) / len(aps), abs=1e-12)
    assert len({stats["mean_ap"] for stats in report.per_bucket.values()}) > 1


# -- one ranking per instance ---------------------------------------------------


def test_report_sorts_each_instance_once_and_matches_bruteforce(monkeypatch):
    import genret.core

    sorts = []
    real = genret.core.ranking_order

    def counting(scores):
        sorts.append(tuple(scores))
        return real(scores)

    monkeypatch.setattr(genret.core, "ranking_order", counting)
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(30):
        scored, probs = random_scored(rng)
        sorts.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                expected_ap = bf.naive_mean_ap(scored)
            except ZeroDivisionError:
                continue
            report = compute_report(
                scored, ks=(1, 5, 15), thresholds=(0.25, 0.5), probs=probs
            )
        assert sorted(sorts) == sorted(tuple(s.scores) for s in scored)
        assert report.mean_rank == bf.naive_mean_rank(scored)
        for k in (1, 5, 15):
            assert report.mean_recall_at_k[k] == bf.naive_mean_recall_at_k(scored, k)
            assert report.f1_at_k[k] == bf.naive_f1_at_k(scored, k)
        assert report.mean_ap == pytest.approx(expected_ap, abs=1e-12)
        checked += 1
    assert checked >= 25


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0, 1.5, -1e-12, True, "0.5"])
def test_report_rejects_a_threshold_outside_zero_one(report_inputs, threshold):
    scored, probs, _ = report_inputs
    with pytest.raises(ParameterError, match="threshold must be a finite number in"):
        compute_report(scored, ks=(1,), thresholds=(0.5, threshold), probs=probs)
    with pytest.raises(ParameterError):  # checked with or without probs
        compute_report(scored, ks=(1,), thresholds=(threshold,))


@pytest.mark.parametrize(
    "head_cut,tail_cut,name",
    [(500, 500, "head_cut - tail_cut"), (10, 0, "tail_cut"), (-1, 1, "head_cut"),
     (5000.0, 500, "head_cut")],
)
def test_report_checks_the_cutoffs_it_records_without_class_meta(
    report_inputs, head_cut, tail_cut, name
):
    scored, _, _ = report_inputs
    with pytest.raises(ParameterError, match=f"^{name} must be"):
        compute_report(scored, ks=(1,), head_cut=head_cut, tail_cut=tail_cut)


def test_report_accepts_the_ends_of_zero_one(report_inputs):
    scored, probs, _ = report_inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = compute_report(scored, ks=(1,), thresholds=(0, 1.0), probs=probs)
    assert set(report.mean_balanced_accuracy) == {0, 1.0}
