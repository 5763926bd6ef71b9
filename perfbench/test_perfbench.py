"""Tests of the benchmark itself, at the smallest size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import covered

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = json.loads((BENCH / "choices.json").read_text())["seeds"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("seed", [SEEDS["baseline"], SEEDS["held_out"]])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_is_correct_on_both_seeds(workload, seed):
    code, result = bench(workload, seed, trace=0)
    assert code == 0 and result is not None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = values(result)
    assert list(got) == list(run.GATED)
    assert all(v > 0 for v in got.values()), got


def traced_counters(workload: str) -> dict:
    """Counters of two traced runs, which must agree exactly, down to the
    bytes of the counters file each run writes apart from its timings."""
    counters_file = run.OUT / f"{workload}-seed{SEEDS['baseline']}.counters.json"
    runs, files = [], []
    for _ in range(2):
        code, result = bench(workload, SEEDS["baseline"], trace=1)
        assert code == 0 and result["correct"], result
        got = values(result)
        runs.append({k: got[k] for k in run.COUNTED})
        files.append(counters_file.read_bytes())
    assert runs[0] == runs[1], "counters must repeat exactly across runs"
    assert files[0] == files[1]
    assert json.loads(files[0]) == runs[0]
    return runs[0]


def test_remote_counters_repeat_and_match_hand_derived_values():
    c = traced_counters("remote-score")
    n = c["scoring.gen_instances"]
    assert n > 0 and c["scoring.con_instances"] == n
    # {O} is {A} with a terminal token: [], [O], [O, is] and 50 full sentences
    assert c["scoring.prefixes_requested"] == 53 * n
    assert c["backends.remote.posts.logprobs"] == n  # one POST per generative instance
    assert c["backends.remote.posts.embed"] == 51 * n  # image + 50 sentences
    assert c["backends.remote.retries"] == 0 and c["backends.remote.failed_posts"] == 0
    assert c["backends.loopback.requests"] == 52 * n
    assert c["backends.oracle.dist_calls"] == 53 * n  # served on the server side


def test_pipeline_counters_repeat_and_match_hand_derived_values():
    c = traced_counters("oracle-pipeline")
    n = c["scoring.con_instances"]
    assert n > 0 and c["scoring.gen_instances"] == 2 * n
    assert c["scoring.sentences"] == 3 * 50 * n
    # positions: 3 tokens + terminal, and 4 tokens + terminal, per sentence
    assert c["scoring.prefix_positions"] == (4 + 5) * 50 * n
    # {A} {O} is {A} puts the candidate first: [] plus 4 prefixes per sentence
    assert c["scoring.prefixes_requested"] == (53 + 201) * n
    assert c["backends.oracle.dist_calls"] == c["scoring.prefixes_requested"]
    assert c["backends.oracle.embed_image_calls"] == n
    assert c["backends.oracle.embed_text_calls"] == 50 * n
    assert c["backends.remote.posts.logprobs"] == 0


def test_replay_bypasses_token_level_scoring():
    c = traced_counters("replay-eval")
    for name in ("scoring.prefixes_requested", "backends.oracle.dist_calls",
                 "backends.oracle.embed_image_calls", "backends.oracle.embed_text_calls",
                 "backends.remote.posts.logprobs", "backends.remote.posts.embed"):
        assert c[name] == 0, name
    n = c["scoring.replayed_instances"]
    assert n > 0 and c["backends.cached.misses"] == 0
    assert c["backends.cached.lookups"] >= 50 * n


def test_a_failed_stage_is_counted_and_reported(monkeypatch, capsys):
    real = run.cli.main
    monkeypatch.setattr(run.cli, "main", lambda argv: 1 if argv[0] == "score" else real(argv))
    code = run.main(["--workload", "oracle-pipeline", "--seed", str(SEEDS["baseline"]),
                     "--seconds", "0", "--trace", "0", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 8 and result["metrics"] == {}  # every instance of the score


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    code, result = bench("oracle-pipeline", SEEDS["baseline"], trace=0, cwd=tmp_path)
    assert code != 0 and result is None


def test_covered_is_the_union_length_within_the_parent():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 1) == 0
