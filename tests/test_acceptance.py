"""Release gate: nine numbered end-to-end checks over the whole package.

Each check prints one `ACCEPTANCE <n> PASS|FAIL <detail>` line before its
asserts, so a plain run shows the verdict per check (use `pytest -s
tests/test_acceptance.py` to see the lines on success too).  Together they
cover the synthetic world, both scoring methods, the metric stack against
the naive oracles, the calibration fit, the dataset builder, every backend,
and the CLI pipeline.
"""

import json
import time
import warnings

import numpy as np
import pytest

import bruteforce as bf
from test_calibration import desk_config, separable_batch
from test_metrics import make_scored, random_scored
from genret import (
    AnchorKind,
    BoxAnnotation,
    CachedScoreBackend,
    LoopbackServer,
    Method,
    MetricReport,
    OracleBackend,
    RemoteBackend,
    SceneGraphRecord,
    ScoredInstance,
    WorldSpec,
    apply_calibration,
    batch_rank,
    bce_and_grads,
    build_split,
    build_stats,
    calibrated_prob,
    caption_process,
    contrastive_loss,
    fit,
    generative_loss,
    make_instances,
    mean_average_precision,
    mean_balanced_accuracy,
    mean_rank,
    mean_recall_at_k,
    overall_f1_at_k,
    parse_template,
    random_world,
    rank_instance,
    ranking_order,
    sample_scenes,
    write_instances,
)
from genret.backends import write_score_cache
from genret.cli import main
from genret.errors import MetricError

pytestmark = pytest.mark.filterwarnings(
    "ignore:class .* has positives:RuntimeWarning"
)

WORLD_SEED = 11
N_SCENES = 500
N_CANDIDATES = 50
T_PLAIN = "{O} is {A}"
T_ECHO = "{A} {O} is {A}"
CON_TEMPLATES = ("{A}", "{O} is {A}", "{A} {O}", "{A} {O} is {A}")


def _line(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"check {n}: {detail}"


@pytest.fixture(scope="module")
def bench():
    """500 seeded scenes of at most 3 entities, 50-candidate instances."""
    t0 = time.perf_counter()
    spec = random_world(seed=WORLD_SEED)
    counts = np.random.default_rng(WORLD_SEED).integers(1, 4, size=N_SCENES)
    scenes = sample_scenes(spec, [int(c) for c in counts])
    instances = make_instances(spec, scenes, N_CANDIDATES, AnchorKind.OBJECT, seed=0)
    backend = OracleBackend(spec, scenes, smoothing=1e-6)
    covered = {a for (_, a) in spec.attribute_prior}
    return {
        "spec": spec,
        "scenes": scenes,
        "instances": instances,
        "backend": backend,
        "zero_prior": frozenset(spec.attributes) - covered,
        "build_seconds": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def gen_plain(bench):
    t0 = time.perf_counter()
    scored = batch_rank(
        bench["backend"], bench["instances"], parse_template(T_PLAIN), Method.GENERATIVE
    )
    return scored, time.perf_counter() - t0


def test_01_zero_prior_attributes_rank_below_positives(bench, gen_plain):
    scored, score_seconds = gen_plain
    t0 = time.perf_counter()
    checked = violations = 0
    for s in scored:
        assert len(s.instance.candidates) == N_CANDIDATES
        order = ranking_order(s.scores)
        rank_of = {idx: r + 1 for r, idx in enumerate(order)}
        zp = [
            i
            for i, w in enumerate(s.instance.candidates)
            if w in bench["zero_prior"]
        ]
        if not zp:
            continue
        checked += 1
        worst_pos = max(rank_of[i] for i in s.instance.positives)
        if worst_pos >= min(rank_of[i] for i in zp):
            violations += 1
    mr = mean_rank(scored)
    elapsed = bench["build_seconds"] + score_seconds + time.perf_counter() - t0
    ok = (
        len(bench["scenes"]) == N_SCENES
        and checked > 0
        and violations == 0
        and mr <= 2.0
        and elapsed < 30.0
    )
    _line(
        1,
        ok,
        f"{len(scored)} instances over {N_SCENES} scenes; zero-prior candidates "
        f"below positives in {checked}/{checked + violations} checked; "
        f"mean rank {mr:.3f} <= 2.0; {elapsed:.1f}s < 30s",
    )


def test_02_generative_outranks_contrastive_with_margin(bench, gen_plain):
    backend, instances = bench["backend"], bench["instances"]
    g_plain = mean_rank(gen_plain[0])
    g_echo = mean_rank(
        batch_rank(backend, instances, parse_template(T_ECHO), Method.GENERATIVE)
    )
    con = {
        t: mean_rank(
            batch_rank(backend, instances, parse_template(t), Method.CONTRASTIVE)
        )
        for t in CON_TEMPLATES
    }
    best_con = min(con.values())
    margin = (best_con - min(g_echo, g_plain)) / best_con
    ok = g_echo <= g_plain <= best_con and margin >= 0.20
    _line(
        2,
        ok,
        f"gen[{T_ECHO}] {g_echo:.3f} <= gen[{T_PLAIN}] {g_plain:.3f} <= "
        f"best contrastive {best_con:.3f} (all: "
        + ", ".join(f"{t} {v:.3f}" for t, v in con.items())
        + f"); margin {margin:.1%} >= 20%",
    )


def test_03_token_order_splits_generative_not_contrastive():
    spec = WorldSpec(
        objects=("cat",),
        attributes=("orange",),
        compatibility={"cat": ("orange",)},
        attribute_prior={("cat", "orange"): 1.0},
        rng_seed=0,
    )
    scene = sample_scenes(spec, [1])[0]
    backend = OracleBackend(spec, [scene], smoothing=1e-6)
    fluent = ("orange", "cat")
    scrambled = ("cat", "orange")
    gen_delta = abs(
        generative_loss(backend, scene.image_id, None, fluent).value
        - generative_loss(backend, scene.image_id, None, scrambled).value
    )
    con_delta = abs(
        contrastive_loss(backend, scene.image_id, None, fluent).value
        - contrastive_loss(backend, scene.image_id, None, scrambled).value
    )
    ok = gen_delta > 0.1 and con_delta < 1e-12
    _line(
        3,
        ok,
        f"permuting {fluent} -> {scrambled}: generative gap {gen_delta:.2f} nats "
        f"> 0.1, contrastive gap {con_delta:.1e} < 1e-12",
    )


def test_04_metrics_match_bruteforce_on_randomized_fixtures():
    rng = np.random.default_rng(20260821)
    devs = []
    mismatches = []

    def check(name, got, expected):
        d = abs(got - expected)
        devs.append(d)
        if d > 1e-9:
            mismatches.append(f"{name} off by {d:.3e}")

    for fixture in range(100):
        scored, probs = random_scored(rng)
        check("mean_rank", mean_rank(scored), bf.naive_mean_rank(scored))
        for k in (1, 3, 5, 30):
            check(
                f"mR@{k}",
                mean_recall_at_k(scored, k),
                bf.naive_mean_recall_at_k(scored, k),
            )
            check(f"F1@{k}", overall_f1_at_k(scored, k), bf.naive_f1_at_k(scored, k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                expected = bf.naive_mean_ap(scored)
            except ZeroDivisionError:
                try:
                    mean_average_precision(scored)
                    mismatches.append(f"mAP defined where naive is not ({fixture})")
                except MetricError:
                    pass
            else:
                check("mAP", mean_average_precision(scored), expected)
        for t in (0.3, 0.5, 0.9):
            try:
                expected = bf.naive_balanced_accuracy(scored, probs, t)
            except ZeroDivisionError:
                try:
                    mean_balanced_accuracy(scored, probs, t)
                    mismatches.append(f"mA defined where naive is not ({fixture})")
                except MetricError:
                    pass
            else:
                check(f"mA@{t}", mean_balanced_accuracy(scored, probs, t), expected)
    ok = not mismatches
    detail = (
        f"{len(devs)} comparisons over 100 fixtures; max |dev| {max(devs):.2e} <= 1e-9"
        if ok
        else "; ".join(mismatches[:5])
    )
    _line(4, ok, detail)


def test_05_closed_form_metric_values():
    # "a" is labeled +, -, + across instances, in ascending-score order, so
    # its class AP = (1/1 + 2/3) / 2 = 5/6; z0 and z2 have no positive and
    # z1 no negative, so "a" is the only class averaged
    ap = mean_average_precision(
        [
            make_scored(("a", "z0"), {0}, (1.0, 9.0), image_id="img0"),
            make_scored(("a", "z1"), {1}, (2.0, 0.5), image_id="img1"),
            make_scored(("a", "z2"), {0}, (3.0, 9.0), image_id="img2"),
        ]
    )
    ap_dev = abs(ap - 5 / 6)
    batch = [
        make_scored(("w00", "q0"), {0}, (1.0, 2.0), image_id="img0"),
        make_scored(("w00", "q1"), {0}, (1.0, 2.0), image_id="img1"),
        make_scored(("w00", "q2"), {1}, (1.0, 2.0), image_id="img2"),
        make_scored(("w00", "q3"), {1}, (1.0, 2.0), image_id="img3"),
    ]
    probs = [[0.9, 0.0], [0.1, 0.0], [0.2, 1.0], [0.3, 1.0]]
    # w00 at 0.5: TP 1, FN 1, TN 2, FP 0 -> (0.5 + 1.0) / 2
    ma = mean_balanced_accuracy(batch, probs, 0.5)
    # the AP sum is float arithmetic; one ulp of headroom, no more
    ok = ap_dev < 5e-16 and ma == 0.75
    _line(5, ok, f"AP {ap!r} within one ulp of 5/6; balanced accuracy {ma} == 0.75")


def test_06_calibration_gradients_and_separable_fit():
    rng = np.random.default_rng(17)
    n_cls = 4
    mu = rng.normal(0.0, 2.0, n_cls)
    ls = rng.normal(0.0, 0.5, n_cls)
    cls = rng.integers(0, n_cls, 40)
    losses = rng.normal(0.5, 2.5, 40)
    labels = rng.integers(0, 2, 40)
    _, gmu, gls = bce_and_grads(mu, ls, cls, losses, labels)
    eps = 1e-4
    grad_dev = 0.0
    for i in range(n_cls):
        d = np.zeros(n_cls)
        d[i] = eps
        fd_mu = (
            bce_and_grads(mu + d, ls, cls, losses, labels)[0]
            - bce_and_grads(mu - d, ls, cls, losses, labels)[0]
        ) / (2 * eps)
        fd_ls = (
            bce_and_grads(mu, ls + d, cls, losses, labels)[0]
            - bce_and_grads(mu, ls - d, cls, losses, labels)[0]
        ) / (2 * eps)
        grad_dev = max(grad_dev, abs(fd_mu - gmu[i]), abs(fd_ls - gls[i]))

    scored = separable_batch()
    raw = mean_rank(scored)
    table, _ = fit(scored, desk_config(max_steps=300))
    rescored = [
        ScoredInstance(
            instance=s.instance,
            template_name=s.template_name,
            method=s.method,
            scores=tuple(-p for p in pr),
        )
        for s, pr in zip(scored, apply_calibration(table, scored))
    ]
    cal = mean_rank(rescored)
    improvement = (raw - cal) / raw

    midpoint = calibrated_prob(7.25, 7.25, 0.9)
    ok = grad_dev < 1e-5 and improvement >= 0.30 and midpoint == 0.5
    _line(
        6,
        ok,
        f"max |analytic - FD| {grad_dev:.2e} < 1e-5; mean rank {raw:.3f} -> "
        f"{cal:.3f} ({improvement:.0%} >= 30%); p(loss=mu) == {midpoint}",
    )


def _synthetic_corpus(n_images=2500, boxes_per_image=4):
    """Scene graphs with head-heavy per-object attribute usage.

    Every object draws from a 30-attribute window, weighted toward the
    window head, so each anchor has a non-trivial conditional tier and the
    50-candidate instances must fall back to the prior tier.
    """
    rng = np.random.default_rng(424242)
    objects = [f"obj{j:02d}" for j in range(40)]
    attrs = [f"attr{k:03d}" for k in range(120)]
    windows = {
        o: [attrs[(3 * j + t) % 120] for t in range(30)]
        for j, o in enumerate(objects)
    }
    weights = 1.0 / (1.0 + np.arange(30))
    weights /= weights.sum()
    records = []
    for i in range(n_images):
        boxes = []
        for _ in range(boxes_per_image):
            o = objects[int(rng.integers(40))]
            picks = rng.choice(30, size=int(rng.integers(1, 4)), replace=False, p=weights)
            x, y = rng.uniform(0, 500, size=2)
            boxes.append(
                BoxAnnotation(
                    box=(float(x), float(y), 40.0, 30.0),
                    obj=o,
                    attributes=tuple(sorted(windows[o][t] for t in picks)),
                )
            )
        records.append(SceneGraphRecord(f"img{i:04d}", tuple(boxes)))
    return records


def test_07_dataset_builder_audit(tmp_path):
    records = _synthetic_corpus()
    stats = build_stats(records)
    split, manifest = build_split(
        records, stats, anchor_kind=AnchorKind.OBJECT, seed=123, total=50
    )
    boxes = [
        (rec, bi, box) for rec in records for bi, box in enumerate(rec.boxes)
    ]
    assert len(split) == len(boxes)

    cond_tables = {}
    bad = []
    for inst, (rec, bi, box) in zip(split, boxes):
        if len(inst.candidates) != 50 or len(set(inst.candidates)) != 50:
            bad.append(f"{inst.image_id}/{bi}: candidate list malformed")
            continue
        if inst.anchor != box.obj or inst.region != box.box:
            bad.append(f"{inst.image_id}/{bi}: misaligned with its box")
            continue
        positives = {inst.candidates[p] for p in inst.positives}
        if positives != set(box.attributes):
            bad.append(f"{inst.image_id}/{bi}: positives are not the box attributes")
            continue
        excluded = {
            a
            for bj, other in enumerate(rec.boxes)
            if bj != bi and other.obj == box.obj
            for a in other.attributes
        }
        negatives = set(inst.candidates) - positives
        if negatives & excluded:
            bad.append(f"{inst.image_id}/{bi}: on-image exclusion violated")
            continue
        words = bf.naive_instance_words(rec, bi, stats, 50, "object")
        if list(inst.candidates) != bf.naive_shuffle(words, 123, rec.image_id, bi, "object"):
            bad.append(f"{inst.image_id}/{bi}: differs from the naive builder")
            continue
        if inst.anchor not in cond_tables:
            cond_tables[inst.anchor] = dict(stats.attrs_given_object[inst.anchor])
        table = cond_tables[inst.anchor]
        probs = [table.get(w, 0.0) for w in words[len(positives):]]
        if any(later > earlier for later, earlier in zip(probs[1:], probs)):
            bad.append(f"{inst.image_id}/{bi}: hard negatives out of order")

    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_instances(first, split)
    split2, manifest2 = build_split(
        records, stats, anchor_kind=AnchorKind.OBJECT, seed=123, total=50
    )
    write_instances(second, split2)
    identical = first.read_bytes() == second.read_bytes() and manifest == manifest2

    ok = len(split) == 10_000 and not bad and identical
    detail = (
        f"{len(split)} instances: 50 unique candidates each, exclusions clean, "
        f"equal to the naive builder, hard negatives first, rebuild byte-identical"
        if ok
        else "; ".join(bad[:5]) + ("" if identical else "; rebuild differs")
    )
    _line(7, ok, detail)


def test_08_backends_normalize_and_replay_exactly(bench, gen_plain, tmp_path):
    backend, scenes = bench["backend"], bench["scenes"]
    captions = {sc.image_id: list(caption_process(sc)) for sc in scenes}
    vocab = list(bench["spec"].vocabulary())
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10_000):
        sc = scenes[int(rng.integers(len(scenes)))]
        if rng.random() < 0.5:
            cap = captions[sc.image_id][int(rng.integers(len(captions[sc.image_id])))]
            prefix = cap[: int(rng.integers(0, len(cap) + 1))]
        else:
            prefix = tuple(
                vocab[int(rng.integers(len(vocab)))]
                for _ in range(int(rng.integers(0, 4)))
            )
        dist = backend.next_token_distributions(sc.image_id, None, [prefix])[0]
        worst = max(worst, abs(dist.total() - 1.0))

    scored, _ = gen_plain
    cache_path = tmp_path / "scores.jsonl"
    write_score_cache(cache_path, scored)
    cached = CachedScoreBackend.from_file(cache_path)
    template = parse_template(T_PLAIN)
    replay_mismatch = 0
    replayed = []
    for orig in scored:
        again = rank_instance(cached, orig.instance, template, Method.GENERATIVE)
        replayed.append(again)
        if (
            ranking_order(again.scores) != ranking_order(orig.scores)
            or again.scores != orig.scores
        ):
            replay_mismatch += 1

    subset = bench["instances"][:100]
    with LoopbackServer(backend) as url:
        remote = RemoteBackend(url, capabilities=backend.capabilities, backoff=0.05)
        remote_scored = batch_rank(remote, subset, template, Method.GENERATIVE)
    remote_mismatch = sum(
        1
        for r, c in zip(remote_scored, replayed[:100])
        if ranking_order(r.scores) != ranking_order(c.scores)
    )
    ok = worst <= 1e-6 and replay_mismatch == 0 and remote_mismatch == 0
    _line(
        8,
        ok,
        f"10000 prefix queries, max |sum - 1| {worst:.1e} <= 1e-6; cache replay "
        f"exact on {len(replayed)} instances; loopback remote matches on "
        f"{len(remote_scored)}",
    )


def test_09_cli_pipeline_end_to_end(tmp_path):
    t0 = time.perf_counter()
    world = tmp_path / "world"
    ds = tmp_path / "ds"
    codes = []

    def run(*argv):
        codes.append(main([str(a) for a in argv]))

    run(
        "gen-world", "--out", world, "--seed", 9, "--objects", 12,
        "--attributes", 40, "--attrs-per-object", 6, "--scenes", 40,
        "--min-entities", 1, "--max-entities", 3, "--candidates", 20,
    )
    run(
        "build-dataset", "--out", ds, "--scene-graph", world / "scene_graph.json",
        "--mode", "attribute", "--total", 10, "--seed", 0,
    )
    common = (
        "--instances", ds / "instances.jsonl", "--backend", "oracle",
        "--world", world / "world.json", "--scenes", world / "scenes.jsonl",
    )
    run(
        "score", "--out", tmp_path / "gen", *common,
        "--method", "generative", "--template", T_PLAIN,
    )
    run(
        "score", "--out", tmp_path / "con", *common,
        "--method", "contrastive", "--template", "{A} {O}",
    )
    merged = tmp_path / "merged.jsonl"
    merged.write_bytes(
        (tmp_path / "gen" / "scores.jsonl").read_bytes()
        + (tmp_path / "con" / "scores.jsonl").read_bytes()
    )
    run(
        "calibrate", "--out", tmp_path / "cal",
        "--instances", ds / "instances.jsonl",
        "--cache", tmp_path / "gen" / "scores.jsonl",
        "--lr", 0.3, "--weight-decay", 0, "--batch-size", 0, "--steps", 150,
        "--init-mu", 0, "--init-sigma", 1,
    )
    run(
        "evaluate", "--out", tmp_path / "eval",
        "--instances", ds / "instances.jsonl",
        "--cache", tmp_path / "gen" / "scores.jsonl",
        "--calibration", tmp_path / "cal" / "calibration.json",
        "--k", 1, "--k", 5, "--threshold", 0.5,
    )
    run(
        "report", "--out", tmp_path / "rep",
        "--instances", ds / "instances.jsonl", "--cache", merged,
    )
    elapsed = time.perf_counter() - t0

    report = MetricReport.from_dict(
        json.loads((tmp_path / "eval" / "report.json").read_text())
    )
    comparison = json.loads((tmp_path / "rep" / "comparison.json").read_text())
    methods = {row["method"] for row in comparison["rows"]}
    row_keys = set(comparison["rows"][0])
    table_txt = (tmp_path / "rep" / "comparison.txt").read_text()
    ok = (
        codes == [0] * 7
        and elapsed < 300.0
        and methods == {"generative", "contrastive"}
        and {"method", "template", "mean_rank", "mAP", f"mR@{comparison['k']}"}
        <= row_keys
        and "method" in table_txt.splitlines()[0]
        and set(report.mean_recall_at_k) == {1, 5}
        and 0.5 in report.mean_balanced_accuracy
    )
    _line(
        9,
        ok,
        f"7 commands rc=0 in {elapsed:.1f}s < 300s; comparison table covers "
        f"{sorted(methods)} with mean_rank/mR@{comparison['k']}/mAP columns",
    )
