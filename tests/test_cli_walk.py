"""Every numeric option of every command, fed values at and past its domain.

Each `int` option gets 0, -1, nan, inf and -inf, and each `float` option
also 1e308.  Ints get no huge value: a size option (--scenes, --objects)
would try to allocate it.  Only a value listed as inside the option's
domain may exit 0; any other exits non-zero with one `error[...]` line, or
2 when argparse rejects a non-integer.  Nothing may escape cli.main as a
traceback, and no artifact of a run that exits 0 may hold a NaN or an
infinity.
"""

import argparse
import re

import pytest

from genret.cli import build_parser, main

pytestmark = pytest.mark.filterwarnings(
    "ignore:class .* has positives:RuntimeWarning"
)

INT_VALUES = ("0", "-1", "nan", "inf", "-inf")
FLOAT_VALUES = INT_VALUES + ("1e308",)

#: (command, option, value) triples whose value lies in the option's domain,
#: mapped to None when the run exits 0, or to the error class of a run that
#: fails on what the value does to its data
IN_DOMAIN = {
    ("gen-world", "--seed", "0"): None,
    ("gen-world", "--scenes", "0"): None,
    ("build-dataset", "--seed", "0"): None,
    ("score", "--seed", "0"): None,
    ("score", "--seed", "-1"): None,  # score draws nothing, so any seed will do
    # unsmoothed, a token no caption of the scene continues with has p = 0
    ("score", "--smoothing", "0"): "BatchScoringError",
    ("calibrate", "--seed", "0"): None,
    ("calibrate", "--batch-size", "0"): None,  # 0 or less: full batch
    ("calibrate", "--batch-size", "-1"): None,
    ("calibrate", "--steps", "0"): None,
    ("calibrate", "--lr", "0"): None,
    ("calibrate", "--lr", "1e308"): "OptimizationError",
    ("calibrate", "--weight-decay", "0"): None,
    ("calibrate", "--weight-decay", "1e308"): "OptimizationError",
    ("calibrate", "--init-mu", "0"): None,
    ("calibrate", "--init-mu", "-1"): None,
    ("calibrate", "--init-mu", "1e308"): "OptimizationError",
    ("calibrate", "--init-sigma", "1e308"): None,
    ("evaluate", "--threshold", "0"): None,
}

NON_FINITE = re.compile(r"\b(NaN|Infinity|nan|inf)\b")


def _numeric_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        for action in p._actions:
            if action.type in (int, float):
                values = INT_VALUES if action.type is int else FLOAT_VALUES
                for value in values:
                    yield command, action.option_strings[0], action.type, value


CASES = list(_numeric_options())


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A tiny world, a generative cache of it, and a calibration table."""
    base = tmp_path_factory.mktemp("walk")
    w = base / "world"
    assert main(
        [
            "gen-world", "--out", str(w), "--seed", "3", "--objects", "5",
            "--attributes", "10", "--attrs-per-object", "3", "--scenes", "3",
            "--min-entities", "1", "--max-entities", "2", "--candidates", "6",
        ]
    ) == 0
    inst = str(w / "instances.jsonl")
    oracle = ["--world", str(w / "world.json"), "--scenes", str(w / "scenes.jsonl")]
    gen = str(base / "gen" / "scores.jsonl")
    assert main(
        [
            "score", "--out", str(base / "gen"), "--instances", inst, "--backend", "oracle",
            *oracle, "--method", "generative", "--template", "{O} is {A}",
        ]
    ) == 0
    fit = ["--lr", "0.3", "--batch-size", "0", "--steps", "20", "--init-mu", "0",
           "--init-sigma", "1"]
    assert main(
        ["calibrate", "--out", str(base / "cal"), "--instances", inst, "--cache", gen, *fit]
    ) == 0
    return {
        "gen-world": [
            "--objects", "5", "--attributes", "10", "--attrs-per-object", "3",
            "--scenes", "3", "--min-entities", "1", "--max-entities", "2",
            "--candidates", "6",
        ],
        "build-dataset": ["--scene-graph", str(w / "scene_graph.json"), "--total", "2"],
        "score": [
            "--instances", inst, "--backend", "oracle", *oracle,
            "--method", "generative", "--template", "{O} is {A}",
        ],
        "calibrate": [
            "--instances", inst, "--cache", gen, *fit,
            "--val-instances", inst, "--val-cache", gen,
        ],
        "evaluate": [
            "--instances", inst, "--cache", gen,
            "--calibration", str(base / "cal" / "calibration.json"),
        ],
        "report": ["--instances", inst, "--cache", gen],
    }


def test_the_walk_covers_every_command():
    assert {c for c, _, _, _ in CASES} == {
        "gen-world", "build-dataset", "score", "calibrate", "evaluate", "report",
    }
    assert {(c, o, v) for c, o, _, v in CASES} >= set(IN_DOMAIN)


@pytest.mark.parametrize(
    "command,option,kind,value", CASES, ids=[f"{c} {o} {v}" for c, o, _, v in CASES]
)
def test_a_numeric_option_runs_in_its_domain_and_fails_cleanly_outside(
    world, tmp_path, capsys, command, option, kind, value
):
    out = tmp_path / "out"
    rc = main([command, "--out", str(out), *world[command], f"{option}={value}"])
    err = capsys.readouterr().err
    case = (command, option, value)
    if case in IN_DOMAIN and IN_DOMAIN[case] is None:
        assert rc == 0, err
        for path in out.iterdir():
            if path.name != "config.json":
                assert not NON_FINITE.search(path.read_text()), path.name
    elif case in IN_DOMAIN:
        assert rc == 1 and err.startswith(f"error[{IN_DOMAIN[case]}]: "), err
        assert err.count("\n") == 1, err
    elif rc == 2:
        assert kind is int and value in ("nan", "inf", "-inf"), err
    else:
        assert rc in (1, 3, 4), (rc, err)
        assert err.startswith("error[") and err.count("\n") == 1, err
