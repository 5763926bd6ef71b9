"""End-to-end command line coverage, run in-process through cli.main."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from genret import (
    LoopbackServer,
    MetricReport,
    OracleBackend,
    parse_scene_graph,
    read_instances,
    read_scenes,
    read_score_cache,
    read_table,
    read_world,
)
from genret.cli import ENDPOINT_ENV, main

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.filterwarnings(
    "ignore:class .* has positives:RuntimeWarning"
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small world scored both ways, calibrated, with a merged cache."""
    base = tmp_path_factory.mktemp("pipeline")
    world = base / "world"
    rc = main(
        [
            "gen-world", "--out", str(world), "--seed", "5",
            "--objects", "8", "--attributes", "18", "--attrs-per-object", "4",
            "--scenes", "6", "--min-entities", "2", "--max-entities", "3",
            "--candidates", "10",
        ]
    )
    assert rc == 0
    instances = str(world / "instances.jsonl")

    gen, con = base / "gen", base / "con"
    for out, method, template in (
        (gen, "generative", "{O} is {A}"),
        (con, "contrastive", "{A} {O}"),
    ):
        rc = main(
            [
                "score", "--out", str(out), "--instances", instances,
                "--backend", "oracle", "--world", str(world / "world.json"),
                "--scenes", str(world / "scenes.jsonl"),
                "--method", method, "--template", template,
            ]
        )
        assert rc == 0

    both = base / "both"
    both.mkdir()
    merged = both / "scores.jsonl"
    merged.write_bytes(
        (gen / "scores.jsonl").read_bytes() + (con / "scores.jsonl").read_bytes()
    )

    cal = base / "cal"
    rc = main(
        [
            "calibrate", "--out", str(cal), "--instances", instances,
            "--cache", str(gen / "scores.jsonl"),
            "--lr", "0.3", "--batch-size", "0", "--steps", "120",
            "--init-mu", "0.0", "--init-sigma", "1.0",
            "--val-instances", instances, "--val-cache", str(gen / "scores.jsonl"),
        ]
    )
    assert rc == 0

    freqs = {}
    for inst in read_instances(instances):
        for w in inst.candidates:
            freqs[w] = freqs.get(w, 0) + 1
    counts_path = base / "counts.json"
    counts_path.write_text(json.dumps(freqs, sort_keys=True))

    return {
        "base": base,
        "world": world,
        "instances": instances,
        "gen": gen,
        "con": con,
        "merged": merged,
        "cal": cal,
        "counts": counts_path,
    }


# -- artifacts ----------------------------------------------------------------


def test_gen_world_writes_everything(pipeline):
    world = pipeline["world"]
    for name in ("world.json", "scenes.jsonl", "scene_graph.json",
                 "instances.jsonl", "config.json"):
        assert (world / name).exists(), name
    config = json.loads((world / "config.json").read_text())
    assert config["command"] == "gen-world"
    assert config["options"]["seed"] == 5
    assert config["options"]["candidates"] == 10
    # the emitted files load back through the library entry points
    spec = read_world(world / "world.json")
    scenes = read_scenes(world / "scenes.jsonl")
    assert len(spec.objects) == 8
    assert len(scenes) == 6
    assert all(2 <= len(s.entities) <= 3 for s in scenes)
    instances = read_instances(world / "instances.jsonl")
    assert instances
    assert all(len(i.candidates) == 10 for i in instances)


@pytest.mark.parametrize(
    "extra,name",
    [
        (["--min-entities", "3", "--max-entities", "2"], "max_entities - min_entities"),
        (["--attributes", "3", "--attrs-per-object", "4"], "n_attributes - attrs_per_object"),
    ],
)
def test_gen_world_rejects_a_count_outside_its_domain(tmp_path, capsys, extra, name):
    out = tmp_path / "world"
    rc = main(["gen-world", "--out", str(out), *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[ParameterError]: {name} must be")
    assert err.count("\n") == 1
    assert not out.exists()


def test_gen_world_rerun_is_byte_identical(pipeline, tmp_path):
    world = pipeline["world"]
    again = tmp_path / "again"
    rc = main(
        [
            "gen-world", "--out", str(again), "--seed", "5",
            "--objects", "8", "--attributes", "18", "--attrs-per-object", "4",
            "--scenes", "6", "--min-entities", "2", "--max-entities", "3",
            "--candidates", "10",
        ]
    )
    assert rc == 0
    for name in ("world.json", "scenes.jsonl", "scene_graph.json", "instances.jsonl"):
        assert (again / name).read_bytes() == (world / name).read_bytes(), name
    # config differs only in the recorded output directory
    ours = json.loads((again / "config.json").read_text())
    theirs = json.loads((world / "config.json").read_text())
    ours["options"].pop("out")
    theirs["options"].pop("out")
    assert ours == theirs


def test_gen_world_instances_are_pinned(pipeline):
    # object-anchored world instances are built by the dataset planner; this
    # digest holds them byte for byte to what the world-prior builder wrote
    digest = hashlib.sha256(
        (pipeline["world"] / "instances.jsonl").read_bytes()
    ).hexdigest()
    assert digest == "c649127d15b1cc175d08598f91197452f30703cc3221c422d4c93edfe3aef497"


def test_build_dataset_from_emitted_scene_graph(pipeline, tmp_path):
    out = tmp_path / "data"
    rc = main(
        [
            "build-dataset", "--out", str(out),
            "--scene-graph", str(pipeline["world"] / "scene_graph.json"),
            "--total", "4", "--seed", "2",
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    instances = read_instances(out / "instances.jsonl")
    assert manifest["n_instances"] == len(instances)
    assert manifest["total"] == 4
    assert len(manifest["config_hash"]) == 64
    counts = json.loads((out / "counts.json").read_text())
    assert counts  # attribute mode counts attributes
    assert all(isinstance(v, int) for v in counts.values())


def test_attribute_anchors_follow_one_rule_in_both_commands(tmp_path):
    # gen-world --anchor-kind attribute and build-dataset --mode object build
    # through the same planner: equal anchors, positives and regions
    world, data = tmp_path / "world", tmp_path / "data"
    rc = main(
        [
            "gen-world", "--out", str(world), "--seed", "5",
            "--objects", "8", "--attributes", "18", "--attrs-per-object", "4",
            "--scenes", "6", "--min-entities", "2", "--max-entities", "3",
            "--candidates", "4", "--anchor-kind", "attribute",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "build-dataset", "--out", str(data),
            "--scene-graph", str(world / "scene_graph.json"),
            "--mode", "object", "--total", "4", "--seed", "5",
        ]
    )
    assert rc == 0

    def rule(path):
        return [
            (i.image_id, i.anchor_kind, i.anchor, i.region,
             {i.candidates[k] for k in i.positives})
            for i in read_instances(path)
        ]

    built = rule(world / "instances.jsonl")
    assert built
    assert built == rule(data / "instances.jsonl")


# -- scoring and replay ---------------------------------------------------------


def test_cached_replay_is_byte_identical(pipeline, tmp_path):
    out = tmp_path / "replay"
    rc = main(
        [
            "score", "--out", str(out), "--instances", pipeline["instances"],
            "--backend", "cached", "--cache", str(pipeline["gen"] / "scores.jsonl"),
        ]
    )
    assert rc == 0
    assert (out / "scores.jsonl").read_bytes() == (
        pipeline["gen"] / "scores.jsonl"
    ).read_bytes()
    # the single cached combo was inferred and recorded
    config = json.loads((out / "config.json").read_text())
    assert config["options"]["method"] == "generative"
    assert config["options"]["template"] == "{O} is {A}"


def test_score_rerun_is_byte_identical(pipeline, tmp_path):
    out = tmp_path / "rescore"
    rc = main(
        [
            "score", "--out", str(out), "--instances", pipeline["instances"],
            "--backend", "oracle", "--world", str(pipeline["world"] / "world.json"),
            "--scenes", str(pipeline["world"] / "scenes.jsonl"),
            "--method", "generative", "--template", "{O} is {A}",
        ]
    )
    assert rc == 0
    assert (out / "scores.jsonl").read_bytes() == (
        pipeline["gen"] / "scores.jsonl"
    ).read_bytes()


def test_replay_of_merged_cache_needs_disambiguation(pipeline, tmp_path, capsys):
    out = tmp_path / "ambiguous"
    rc = main(
        [
            "score", "--out", str(out), "--instances", pipeline["instances"],
            "--backend", "cached", "--cache", str(pipeline["merged"]),
        ]
    )
    assert rc == 1
    assert "error[ConfigurationError]" in capsys.readouterr().err
    rc = main(
        [
            "score", "--out", str(out), "--instances", pipeline["instances"],
            "--backend", "cached", "--cache", str(pipeline["merged"]),
            "--method", "contrastive", "--template", "{A} {O}",
        ]
    )
    assert rc == 0
    assert (out / "scores.jsonl").read_bytes() == (
        pipeline["con"] / "scores.jsonl"
    ).read_bytes()


def test_remote_backend_from_environment(pipeline, tmp_path, monkeypatch):
    backend = OracleBackend(
        read_world(pipeline["world"] / "world.json"),
        read_scenes(pipeline["world"] / "scenes.jsonl"),
        smoothing=1e-6,
    )
    out = tmp_path / "remote"
    with LoopbackServer(backend) as url:
        monkeypatch.setenv(ENDPOINT_ENV, url)
        rc = main(
            [
                "score", "--out", str(out), "--instances", pipeline["instances"],
                "--backend", "remote", "--terminal",
                "--method", "generative", "--template", "{O} is {A}",
            ]
        )
        # without --terminal the client drops the end-of-sentence term and
        # cannot reproduce a terminal-aware service's scores
        rc_bare = main(
            [
                "score", "--out", str(tmp_path / "bare"),
                "--instances", pipeline["instances"], "--backend", "remote",
                "--method", "generative", "--template", "{O} is {A}",
            ]
        )
    assert rc == 0
    # a round trip over the wire reproduces the local scores exactly
    assert (out / "scores.jsonl").read_bytes() == (
        pipeline["gen"] / "scores.jsonl"
    ).read_bytes()
    config = json.loads((out / "config.json").read_text())
    assert config["options"]["endpoint"].startswith("http://127.0.0.1:")
    assert config["options"]["terminal"] is True
    assert rc_bare == 0
    assert (tmp_path / "bare" / "scores.jsonl").read_bytes() != (
        pipeline["gen"] / "scores.jsonl"
    ).read_bytes()


# -- calibrate ------------------------------------------------------------------


def test_calibrate_outputs(pipeline):
    cal = pipeline["cal"]
    table = read_table(cal / "calibration.json")
    vocab = set()
    for inst in read_instances(pipeline["instances"]):
        vocab.update(inst.candidates)
    assert vocab <= set(table.classes)
    lines = (cal / "loss_curve.csv").read_text().splitlines()
    assert lines[0] == "step,train_loss,val_loss"
    assert len(lines) == 121
    assert not lines[1].endswith(",")  # validation column is populated


def test_calibrate_val_flags_go_together(pipeline, tmp_path, capsys):
    rc = main(
        [
            "calibrate", "--out", str(tmp_path / "cal2"),
            "--instances", pipeline["instances"],
            "--cache", str(pipeline["gen"] / "scores.jsonl"),
            "--val-instances", pipeline["instances"],
        ]
    )
    assert rc == 1
    assert "go together" in capsys.readouterr().err


def _calibrate_on_merged(pipeline, out, val_cache, *extra):
    return main(
        [
            "calibrate", "--out", str(out), "--instances", pipeline["instances"],
            "--cache", str(pipeline["merged"]), "--method", "generative",
            "--template", "{O} is {A}", "--lr", "0.3", "--steps", "40",
            "--init-mu", "0", "--init-sigma", "1",
            "--val-instances", pipeline["instances"], "--val-cache", str(val_cache),
            *extra,
        ]
    )


@pytest.mark.parametrize("batch_size", ["0", "4"])
def test_calibrate_reads_a_cache_named_twice_once(pipeline, tmp_path, monkeypatch, batch_size):
    from genret import cli

    loads = []
    real = cli.CachedScoreBackend

    class Counting:
        @staticmethod
        def from_file(path):
            loads.append(Path(path).name)
            return real.from_file(path)

    monkeypatch.setattr(cli, "CachedScoreBackend", Counting)
    merged = pipeline["merged"]
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(merged.read_bytes())
    same = merged.parent / ".." / merged.parent.name / merged.name  # another spelling
    runs = {}
    for name, val_cache in (("same", merged), ("spelled", same), ("copy", copy)):
        loads.clear()
        rc = _calibrate_on_merged(pipeline, tmp_path / name, val_cache, "--batch-size", batch_size)
        assert rc == 0
        runs[name] = list(loads)
    assert runs == {
        "same": ["scores.jsonl"],
        "spelled": ["scores.jsonl"],
        "copy": ["scores.jsonl", "copy.jsonl"],
    }
    for artifact in ("calibration.json", "loss_curve.csv"):
        once = (tmp_path / "same" / artifact).read_bytes()
        assert (tmp_path / "spelled" / artifact).read_bytes() == once
        assert (tmp_path / "copy" / artifact).read_bytes() == once


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--steps", "-3", "max_steps"),
        ("--init-sigma", "0", "init_sigma"),
        ("--init-sigma", "-0.5", "init_sigma"),
        ("--init-mu", "nan", "init_mu"),
        ("--lr", "-0.3", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
        ("--weight-decay", "-5", "weight_decay"),
        ("--seed", "-1", "seed"),
    ],
)
def test_calibrate_rejects_a_fit_setting_outside_its_domain(
    pipeline, tmp_path, capsys, flag, value, field
):
    out = tmp_path / "cal"
    rc = _calibrate_on_merged(pipeline, out, pipeline["merged"], flag, value)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error[ParameterError]: {field} must be")
    assert captured.err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


def test_calibrate_zero_steps_writes_the_init_table(pipeline, tmp_path, capsys):
    out = tmp_path / "cal"
    rc = _calibrate_on_merged(pipeline, out, pipeline["merged"], "--steps", "0")
    assert rc == 0
    printed = capsys.readouterr().out
    assert ", 0 steps -> " in printed and "nan" not in printed
    assert (out / "loss_curve.csv").read_text() == "step,train_loss,val_loss\n"
    table = read_table(out / "calibration.json")
    assert set(table.mu) == {0.0} and set(table.sigma) == {1.0}


# -- evaluate -------------------------------------------------------------------


def test_evaluate_outputs(pipeline, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate", "--out", str(out), "--instances", pipeline["instances"],
            "--cache", str(pipeline["gen"] / "scores.jsonl"),
            "--k", "1", "--k", "5",
        ]
    )
    assert rc == 0
    report = MetricReport.from_dict(json.loads((out / "report.json").read_text()))
    assert set(report.mean_recall_at_k) == {1, 5}
    assert report.mean_balanced_accuracy == {}
    text = (out / "report.txt").read_text()
    assert text == report.render_text()
    assert capsys.readouterr().out == text


def test_evaluate_with_calibration_and_buckets(pipeline, tmp_path):
    out = tmp_path / "eval_cal"
    rc = main(
        [
            "evaluate", "--out", str(out), "--instances", pipeline["instances"],
            "--cache", str(pipeline["gen"] / "scores.jsonl"),
            "--calibration", str(pipeline["cal"] / "calibration.json"),
            "--class-frequencies", str(pipeline["counts"]),
            "--head-cut", "5", "--tail-cut", "2",
        ]
    )
    assert rc == 0
    report = MetricReport.from_dict(json.loads((out / "report.json").read_text()))
    # ranking by probability defaults the threshold sweep to 0.5
    assert list(report.mean_balanced_accuracy) == [0.5]
    assert report.bucket_cutoffs == {"head_cut": 5, "tail_cut": 2}
    assert report.per_bucket
    config = json.loads((out / "config.json").read_text())
    assert config["options"]["threshold"] == [0.5]


@pytest.mark.parametrize("threshold", ["nan", "-1", "1.5"])
def test_evaluate_rejects_a_threshold_outside_zero_one(pipeline, tmp_path, capsys, threshold):
    rc = main(
        [
            "evaluate", "--out", str(tmp_path / "eval"), "--instances", pipeline["instances"],
            "--cache", str(pipeline["gen"] / "scores.jsonl"),
            "--calibration", str(pipeline["cal"] / "calibration.json"),
            "--threshold", threshold,
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error[ParameterError]: threshold must be")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_evaluate_rejects_a_threshold_without_calibration(pipeline, tmp_path, capsys):
    # balanced accuracy cuts calibrated probabilities; uncalibrated, a
    # threshold would be recorded in config.json and silently ignored
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate", "--out", str(out), "--instances", pipeline["instances"],
            "--cache", str(pipeline["gen"] / "scores.jsonl"), "--threshold", "0.3",
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error[ConfigurationError]: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_commands_that_draw_nothing_take_no_seed(pipeline, tmp_path, capsys, command):
    args = [
        command, "--out", str(tmp_path / "out"), "--instances", pipeline["instances"],
        "--cache", str(pipeline["gen"] / "scores.jsonl"),
    ]
    assert main([*args, "--seed", "1"]) == 2
    assert main(args) == 0
    config = json.loads((tmp_path / "out" / "config.json").read_text())
    assert "seed" not in config["options"]


# -- report ---------------------------------------------------------------------


def test_report_table(pipeline, tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(
        [
            "report", "--out", str(out), "--instances", pipeline["instances"],
            "--cache", str(pipeline["merged"]), "--k", "5",
        ]
    )
    assert rc == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["k"] == 5
    rows = comparison["rows"]
    assert [r["method"] for r in rows] == ["contrastive", "generative"]
    assert rows[0]["template"] == "{A} {O}"
    assert rows[1]["template"] == "{O} is {A}"
    for row in rows:
        assert set(row) == {"method", "template", "mean_rank", "mR@5", "mAP"}
    text = (out / "comparison.txt").read_text()
    lines = text.splitlines()
    assert lines[0].split() == ["method", "template", "mean_rank", "mR@5", "mAP"]
    assert f"{rows[1]['mean_rank']:.4f}" in lines[2]
    assert capsys.readouterr().out == text


# -- exit codes -----------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["score", "--backend", "oracle"]) == 2  # --out and --instances
    capsys.readouterr()


def test_missing_file_exits_3(tmp_path, capsys):
    rc = main(
        [
            "evaluate", "--out", str(tmp_path / "x"),
            "--instances", str(tmp_path / "nope.jsonl"),
            "--cache", str(tmp_path / "nope2.jsonl"),
        ]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[io]:")


@pytest.mark.parametrize(
    "edit,match",
    [
        (lambda rec: {"image_id": "x"}, "instance record missing fields"),
        # a bool is no candidate index, though JSON's true equals 1
        (lambda rec: {**rec, "positives": [True]}, "positive index out of range"),
        (lambda rec: {**rec, "negatives_explicit": [False]}, "explicit-negative index out of range"),
    ],
    ids=["missing-fields", "bool-positive", "bool-explicit-negative"],
)
def test_malformed_instances_exit_4(pipeline, tmp_path, capsys, edit, match):
    rec = json.loads(Path(pipeline["instances"]).read_text().splitlines()[0])
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(edit(rec)) + "\n")
    rc = main(
        [
            "evaluate", "--out", str(tmp_path / "x"), "--instances", str(bad),
            "--cache", str(pipeline["gen"] / "scores.jsonl"),
        ]
    )
    assert rc == 4
    assert capsys.readouterr().err.startswith(f"error[schema]: {bad}:1: {match}")


def test_null_image_id_exits_4_naming_the_line(pipeline, tmp_path, capsys):
    lines = Path(pipeline["instances"]).read_text().splitlines()
    rec = json.loads(lines[1])
    rec["image_id"] = None
    lines[1] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(
        [
            "score", "--out", str(tmp_path / "x"), "--instances", str(bad),
            "--backend", "uniform",
        ]
    )
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error[schema]: {bad}:2: image_id must be a non-empty string")


def test_conflicting_cache_records_exit_4_naming_the_file(pipeline, tmp_path, capsys):
    gen = pipeline["gen"] / "scores.jsonl"
    lines = gen.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["loss"] = [x + 5 for x in rec["loss"]]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines + [json.dumps(rec)]) + "\n")
    rc = main(
        [
            "score", "--out", str(tmp_path / "x"), "--instances", pipeline["instances"],
            "--backend", "cached", "--cache", str(bad),
        ]
    )
    assert rc == 4
    assert capsys.readouterr().err.startswith(f"error[schema]: {bad}: conflicting records")


def _world_json(prior=0.5, compatible=("red",)):
    """A one-object world.json whose values (not its shape) may be bad."""
    return json.dumps(
        {
            "objects": ["cat"],
            "attributes": ["red"],
            "compatibility": {"cat": list(compatible)},
            "attribute_prior": {"cat": {"red": prior}},
            "rng_seed": 0,
        }
    )


@pytest.mark.parametrize(
    "command,flag,content",
    [
        ("score", "--world", "{not json"),
        ("build-dataset", "--scene-graph", '[{"image_id": '),
        ("evaluate", "--calibration", "{"),
        ("evaluate", "--class-frequencies", "counts"),
        ("evaluate", "--calibration", '{"red": {"mu": 0.0}}'),
        ("evaluate", "--class-frequencies", "[1, 2]"),
        ("evaluate", "--class-frequencies", '{"red": 1.5}'),
        ("evaluate", "--class-frequencies", '{"red": -5}'),
        ("evaluate", "--calibration", '{"red": {"mu": 1, "sigma": -1}}'),
        ("evaluate", "--calibration", '{"red": {"mu": 1, "sigma": 0}}'),
        ("score", "--world", '{"objects": ["cat"]}'),
        ("build-dataset", "--scene-graph", '[{"objects": []}]'),
        ("score", "--world", _world_json(prior=2.0)),
        ("score", "--world", _world_json(compatible=["red", "plaid"])),
    ],
)
def test_malformed_json_input_exits_4(pipeline, tmp_path, capsys, command, flag, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    inputs = {
        "score": [
            "--instances", pipeline["instances"], "--backend", "oracle",
            "--scenes", str(pipeline["world"] / "scenes.jsonl"),
        ],
        "build-dataset": [],
        "evaluate": [
            "--instances", pipeline["instances"],
            "--cache", str(pipeline["gen"] / "scores.jsonl"),
        ],
    }[command]
    rc = main([command, "--out", str(tmp_path / "x"), *inputs, flag, str(bad)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error[schema]:")
    assert str(bad) in err


def test_empty_cache_exits_1(pipeline, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(
        [
            "score", "--out", str(tmp_path / "x"),
            "--instances", pipeline["instances"],
            "--backend", "cached", "--cache", str(empty),
        ]
    )
    assert rc == 1
    assert "error[ConfigurationError]: score cache is empty" in capsys.readouterr().err


# -- malformed score caches --------------------------------------------------


def _set(field, value):
    def mutate(rec):
        rec[field] = value
    return mutate


def _set_first(field, value):
    def mutate(rec):
        rec[field][0] = value
    return mutate


def _set_first_token(value):
    def mutate(rec):
        rec["per_token"][0][0] = value
    return mutate


def _drop_last_loss(rec):
    rec["loss"] = rec["loss"][:-1]


NAN = float("nan")
TOO_BIG = 10**400  # a JSON integer literal no float can hold
# name -> (mutation of a per-candidate line, mutation of a per-instance line)
BAD_CACHE_LINES = {
    "loss-string": (_set("loss", "abc"), _set("loss", "abc")),
    "loss-entry-string": (None, _set_first("loss", "abc")),
    "loss-null": (_set("loss", None), _set("loss", None)),
    "loss-nan": (_set("loss", NAN), _set_first("loss", NAN)),
    "loss-too-big-int": (_set("loss", TOO_BIG), _set_first("loss", TOO_BIG)),
    "per-token-too-big-int": (_set_first("per_token", TOO_BIG), _set_first_token(TOO_BIG)),
    "per-token-string": (_set("per_token", "xy"), _set("per_token", "xy")),
    "per-token-int": (_set("per_token", 5), _set("per_token", 5)),
    "per-token-row-string": (None, _set_first("per_token", "xy")),
    "method-foo": (_set("method", "foo"), _set("method", "foo")),
    "region-string": (_set("region", "0 0 1 1"), _set("region", "0 0 1 1")),
    "candidate-int": (_set("candidate", 7), _set_first("candidates", 7)),
    "loss-shorter-than-candidates": (None, _drop_last_loss),
}
BAD_CACHE_CASES = [
    pytest.param(name, form, id=f"{name}-{form}")
    for name, mutations in BAD_CACHE_LINES.items()
    for form, mutate in zip(("v1", "v2"), mutations)
    if mutate is not None
]


@pytest.mark.parametrize("name,form", BAD_CACHE_CASES)
def test_malformed_cache_line_exits_4_naming_the_line(pipeline, tmp_path, capsys, name, form):
    gen = pipeline["gen"] / "scores.jsonl"
    if form == "v1":
        lines = [json.dumps(rec) for rec in read_score_cache(gen)]
    else:
        lines = gen.read_text().splitlines()
    rec = json.loads(lines[1])
    BAD_CACHE_LINES[name][form == "v2"](rec)
    lines[1] = json.dumps(rec)  # NaN goes out as the NaN literal json.loads reads back
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    instances = ["--instances", pipeline["instances"]]
    for command, extra in (
        ("score", ["--backend", "cached"]),
        ("calibrate", ["--steps", "1"]),
        ("evaluate", []),
    ):
        out = tmp_path / command
        rc = main([command, "--out", str(out), *instances, "--cache", str(bad), *extra])
        err = capsys.readouterr().err
        assert rc == 4, (command, err)
        assert err.startswith(f"error[schema]: {bad}:2: "), (command, err)


# -- score options and failure reports ---------------------------------------------


@pytest.mark.parametrize(
    "flags",
    [
        ["--backend", "cached", "--cache", "{gen}"],
        ["--backend", "oracle", "--world", "{world}", "--scenes", "{scenes}",
         "--method", "contrastive"],
    ],
    ids=["cached", "contrastive"],
)
def test_length_normalize_is_rejected_where_it_would_be_ignored(
    pipeline, tmp_path, capsys, flags
):
    paths = {
        "gen": pipeline["gen"] / "scores.jsonl",
        "world": pipeline["world"] / "world.json",
        "scenes": pipeline["world"] / "scenes.jsonl",
    }
    out = tmp_path / "x"
    rc = main(
        [
            "score", "--out", str(out), "--instances", pipeline["instances"],
            "--length-normalize", *(f.format(**paths) for f in flags),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[ConfigurationError]: length_normalize")
    assert not out.exists()


def _ghosted(pipeline, tmp_path):
    """Two thirds of the pipeline's instances moved to unknown images, the
    indices moved, and the untouched instances alone in a second file."""
    lines = Path(pipeline["instances"]).read_text().splitlines()
    ghosts = {i for i in range(len(lines)) if i % 3}
    kept = [line for i, line in enumerate(lines) if i not in ghosts]
    for i in ghosts:
        rec = json.loads(lines[i])
        rec["image_id"] = f"ghost-{i}"
        lines[i] = json.dumps(rec)
    instances = tmp_path / "instances.jsonl"
    instances.write_text("\n".join(lines) + "\n")
    clean = tmp_path / "kept.jsonl"
    clean.write_text("\n".join(kept) + "\n")
    return instances, ghosts, clean


def _oracle_score(pipeline, out, instances):
    return [
        "score", "--out", str(out), "--instances", str(instances),
        "--backend", "oracle", "--world", str(pipeline["world"] / "world.json"),
        "--scenes", str(pipeline["world"] / "scenes.jsonl"),
    ]


def test_score_writes_every_failure_before_exiting_1(pipeline, tmp_path, capsys):
    instances, ghosts, _ = _ghosted(pipeline, tmp_path)
    assert len(ghosts) > 5  # more than the error message lists
    out = tmp_path / "scored"
    args = _oracle_score(pipeline, out, instances)
    rc = main(args)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[BatchScoringError]:")
    failures = [json.loads(x) for x in (out / "failures.jsonl").read_text().splitlines()]
    assert [f["index"] for f in failures] == sorted(ghosts)
    for f in failures:
        assert f["image_id"] == f"ghost-{f['index']}"
        assert f["error"] == "UnknownImageError"
        assert f["image_id"] in f["message"]
    # the instances that did score, in input order
    scored = [json.loads(x) for x in (out / "scores.jsonl").read_text().splitlines()]
    want = [
        inst.image_id
        for i, inst in enumerate(read_instances(instances))
        if i not in ghosts
    ]
    assert [r["image_id"] for r in scored] == want
    # a later clean run to the same directory leaves no stale report
    rc = main([*args[:4], pipeline["instances"], *args[5:]])
    assert rc == 0
    assert not (out / "failures.jsonl").exists()


def test_failed_score_writes_what_a_clean_run_writes_for_the_rest(pipeline, tmp_path):
    instances, _, kept = _ghosted(pipeline, tmp_path)
    assert main(_oracle_score(pipeline, tmp_path / "failed", instances)) == 1
    assert main(_oracle_score(pipeline, tmp_path / "clean", kept)) == 0
    got = (tmp_path / "failed" / "scores.jsonl").read_bytes()
    assert got == (tmp_path / "clean" / "scores.jsonl").read_bytes()
    assert got  # some instances did score


def test_failed_score_replaces_an_earlier_scores_file(pipeline, tmp_path):
    instances, _, kept = _ghosted(pipeline, tmp_path)
    out = tmp_path / "scored"
    assert main(_oracle_score(pipeline, out, pipeline["instances"])) == 0
    earlier = (out / "scores.jsonl").read_bytes()
    assert main(_oracle_score(pipeline, out, instances)) == 1
    assert main(_oracle_score(pipeline, tmp_path / "clean", kept)) == 0
    got = (out / "scores.jsonl").read_bytes()
    assert got != earlier
    assert got == (tmp_path / "clean" / "scores.jsonl").read_bytes()


def _scenes_with(pipeline, tmp_path, edit):
    """The pipeline's scenes.jsonl with edit() applied to the first record's
    first object."""
    lines = (pipeline["world"] / "scenes.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    edit(rec["objects"][0])
    lines[0] = json.dumps(rec)
    path = tmp_path / "scenes.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _score_with_scenes(pipeline, out, scenes):
    return main(
        [
            "score", "--out", str(out), "--instances", pipeline["instances"],
            "--backend", "oracle", "--world", str(pipeline["world"] / "world.json"),
            "--scenes", str(scenes), "--method", "generative", "--template", "{O} is {A}",
        ]
    )


def test_both_scene_files_hold_the_same_records(pipeline):
    world = pipeline["world"]
    lines = (world / "scenes.jsonl").read_text().splitlines()
    graph = json.loads((world / "scene_graph.json").read_text())
    assert [json.loads(line) for line in lines] == graph
    scenes = read_scenes(world / "scenes.jsonl")
    records = parse_scene_graph(world / "scene_graph.json")
    assert [
        (sc.scene_id, [(e.obj, e.attributes) for e in sc.entities], sc.boxes)
        for sc in scenes
    ] == [
        (r.image_id, [(b.obj, b.attributes) for b in r.boxes], tuple(b.box for b in r.boxes))
        for r in records
    ]


@pytest.mark.parametrize(
    "edit,word",
    [
        (lambda ob: ob.update(names=["obj99"]), "obj99"),
        (lambda ob: ob["attributes"].append("attr99"), "attr99"),
    ],
    ids=["object", "attribute"],
)
def test_scene_word_the_world_lacks_exits_4(pipeline, tmp_path, capsys, edit, word):
    scenes = _scenes_with(pipeline, tmp_path, edit)
    assert _score_with_scenes(pipeline, tmp_path / "x", scenes) == 4
    err = capsys.readouterr().err
    assert err.startswith("error[schema]: scene "), err
    assert repr(word) in err
    assert json.loads(scenes.read_text().splitlines()[0])["image_id"] in err


@pytest.mark.parametrize("bad", [5, "", "  ", None])
def test_scene_word_that_is_no_word_exits_4_at_the_line(pipeline, tmp_path, capsys, bad):
    scenes = _scenes_with(pipeline, tmp_path, lambda ob: ob.update(names=[bad]))
    assert _score_with_scenes(pipeline, tmp_path / "x", scenes) == 4
    assert capsys.readouterr().err.startswith(f"error[schema]: {scenes}:1: ")


def _set_object(**fields):
    return lambda recs: recs[0]["objects"][0].update(fields)


def _drop_from_object(*keys):
    return lambda recs: [recs[0]["objects"][0].pop(k) for k in keys]


def _old_layout(recs):
    # the layout scenes.jsonl had before it held scene-graph image records
    recs[0] = {
        "scene_id": recs[0]["image_id"],
        "entities": [{"object": ob["names"][0], "attributes": ob["attributes"]}
                     for ob in recs[0]["objects"]],
        "boxes": [[ob[k] for k in "xywh"] for ob in recs[0]["objects"]],
    }


@pytest.mark.parametrize(
    "edit,lineno,match",
    [
        (lambda recs: recs[0].update(image_id=None), 1, "image_id must be"),
        (lambda recs: recs[0].update(image_id=""), 1, "image_id must be"),
        (lambda recs: recs[0].update(image_id=True), 1, "image_id must be"),
        (lambda recs: recs[0].update(image_id=1.0), 1, "image_id must be"),
        (lambda recs: recs[0].update(image_id=recs[1]["image_id"]), 2, "repeats line 1"),
        (_old_layout, 1, "missing image_id"),
        (lambda recs: recs[0].update(objects=[]), 1, "at least one entity"),
        (lambda recs: recs[0].pop("objects"), 1, "at least one entity"),
        (lambda recs: recs[0].update(objects=7), 1, "objects must be a list"),
        (lambda recs: recs[0]["objects"].__setitem__(0, 5), 1, "object entry must be a dict"),
        (_set_object(names=[]), 1, "empty names"),
        (_set_object(names="obj01"), 1, "names must be a list"),
        (_set_object(attributes="attr01"), 1, "attributes must be a list"),
        (_set_object(attributes=0), 1, "attributes must be a list"),
        (_set_object(attributes=False), 1, "attributes must be a list"),
        (_set_object(attributes={}), 1, "attributes must be a list"),
        (_drop_from_object(*"xywh"), 1, "region must be null or 4 finite numbers"),
        (_set_object(x="a", h=None), 1, "region must be null or 4 finite numbers"),
        (_drop_from_object("h"), 1, "region must be null or 4 finite numbers"),
        (_set_object(x=None, y=None, w=None, h=None), 1, "region must be null or 4 finite numbers"),
    ],
    ids=[
        "null-id", "empty-id", "bool-id", "float-id", "repeated-id", "old-layout",
        "no-entities", "missing-objects", "objects-not-a-list", "object-not-a-dict",
        "empty-names", "names-string", "attributes-string", "attributes-zero",
        "attributes-false", "attributes-empty-dict", "missing-box",
        "non-numeric-box", "short-box", "null-box",
    ],
)
def test_malformed_scene_record_exits_4_at_the_line(
    pipeline, tmp_path, capsys, edit, lineno, match
):
    lines = (pipeline["world"] / "scenes.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    edit(records)
    scenes = tmp_path / "scenes.jsonl"
    scenes.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert _score_with_scenes(pipeline, tmp_path / "x", scenes) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error[schema]: {scenes}:{lineno}: "), err
    assert match in err


def test_upper_case_scene_words_score_as_lower_case(pipeline, tmp_path):
    lines = (pipeline["world"] / "scenes.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for rec in records:
        for ob in rec["objects"]:
            ob["names"] = [f"  {ob['names'][0].upper()} "]
            ob["attributes"] = [a.title() for a in ob["attributes"]]
    shouted = tmp_path / "scenes.jsonl"
    shouted.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert shouted.read_text().lower() != shouted.read_text()
    assert _score_with_scenes(pipeline, tmp_path / "upper", shouted) == 0
    assert (tmp_path / "upper" / "scores.jsonl").read_bytes() == (
        pipeline["gen"] / "scores.jsonl"
    ).read_bytes()


def test_oracle_needs_world_and_scenes(pipeline, tmp_path, capsys):
    rc = main(
        [
            "score", "--out", str(tmp_path / "x"),
            "--instances", pipeline["instances"], "--backend", "oracle",
        ]
    )
    assert rc == 1
    assert "needs --world and --scenes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,extra,message",
    [
        ("calibrate", lambda p: ["--cache", str(p["gen"] / "scores.jsonl")],
         "no candidates to calibrate"),
        ("score", lambda p: ["--backend", "uniform"], "vocabulary is empty"),
    ],
    ids=["calibrate", "score-uniform"],
)
def test_nothing_to_work_on_exits_1_with_one_line(
    pipeline, tmp_path, capsys, command, extra, message
):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main([command, "--out", str(tmp_path / "x"), "--instances", str(empty), *extra(pipeline)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error[ConfigurationError]: {message}\n"


def test_remote_needs_an_endpoint(pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    rc = main(
        [
            "score", "--out", str(tmp_path / "x"),
            "--instances", pipeline["instances"], "--backend", "remote",
        ]
    )
    assert rc == 1
    assert ENDPOINT_ENV in capsys.readouterr().err


# -- running as a module ---------------------------------------------------


def run_module(module, *args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, "-m", module, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("module", ["genret", "genret.cli"])
def test_module_run_prints_help(module, tmp_path):
    proc = run_module(module, "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: genret")


@pytest.mark.parametrize("module", ["genret", "genret.cli"])
def test_module_run_passes_the_exit_code_on(module, tmp_path):
    proc = run_module(
        module, "score", "--out", str(tmp_path / "x"), "--backend", "uniform",
        "--instances", str(tmp_path / "missing.jsonl"), cwd=tmp_path,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error[io]:")


def _documented_commands() -> list[list[str]]:
    """Every `genret ...` command of the CLI module docstring, with its
    backslash-continued lines joined."""
    import shlex

    import genret.cli

    text = genret.cli.__doc__.replace("\\\n", " ")
    return [
        shlex.split(line)[1:]
        for line in text.splitlines()
        if line.strip().startswith("genret ")
    ]


def test_documented_typical_run_succeeds(tmp_path, monkeypatch, capsys):
    commands = _documented_commands()
    assert [c[0] for c in commands] == [
        "gen-world", "build-dataset", "score", "calibrate", "evaluate", "report",
    ]
    # every later step reads the instances the dataset step builds
    build = commands[1]
    built = str(Path(build[build.index("--out") + 1]) / "instances.jsonl")
    read = [c[c.index("--instances") + 1] for c in commands if "--instances" in c]
    assert read == [built] * 4
    monkeypatch.chdir(tmp_path)
    for args in commands:
        rc = main(args)
        assert rc == 0, (args, capsys.readouterr().err)
