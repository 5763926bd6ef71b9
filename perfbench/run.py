"""genret benchmark: three closed-loop workloads over the public CLI.

    python3 perfbench/run.py --workload oracle-pipeline --seed 1 --seconds 30 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):

- oracle-pipeline: gen-world -> build-dataset -> score x3 (oracle) ->
  calibrate -> evaluate -> report, all timed;
- remote-score: score through RemoteBackend against a LoopbackServer over
  an OracleBackend in a child process, generative and contrastive;
- replay-eval: the set-up records a merged three-combo score cache with the
  oracle; the timed phase replays it (score --backend cached) and runs
  calibrate, evaluate and report on it.

A run sets up several times, then repeats the timed phase ("round") on
the same inputs until --seconds have passed.  Each metric is the median of
its samples, and every round's outputs are checked.  The bounded metrics
(BENCHMARK.json's end_to_end, apart from setup_s and rss_peak_mb) are
reference CPU seconds: CPU seconds of this process plus, on remote-score,
the scoring server, scaled by a host-speed probe (speed.py).  On a shared
host the wall time of the two-process ping-pong swings twofold with the
host's scheduling and CPU time moves with the host's speed; the scaled CPU
time moves far less.  Wall times are printed beside them.  With --trace 1
the rounds alternate untraced and traced; the per-layer metrics and
bytes_per_inst come from the traced rounds and are written, with their
spans, to
perfbench/_out/<workload>-seed<seed>.{counters.json,timings.json,spans.jsonl}.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import urllib.request
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
if not (ROOT / "src" / "genret" / "__init__.py").is_file():
    raise SystemExit(f"error: no genret sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from genret import (  # noqa: E402
    Method,
    OracleBackend,
    ScoredInstance,
    apply_calibration,
    batch_rank,
    bucketize,
    cli,
    compute_report,
    contrastive_loss,
    generative_loss,
    parse_template,
    random_world,
    read_instances,
    read_scenes,
    read_score_cache,
    read_table,
    read_world,
    render,
    write_instances,
    write_score_cache,
)
from genret.world import SceneSampler  # noqa: E402

from speed import REFERENCE_S, probe  # noqa: E402
from tracing import Instrumentation, Tracer  # noqa: E402

# Instances per workload: one round takes one to three seconds on 2 cores,
# so a run holds a dozen rounds or more.
SIZES = {
    "full": {"oracle-pipeline": 100, "remote-score": 12, "replay-eval": 70},
    "tiny": {"oracle-pipeline": 8, "remote-score": 8, "replay-eval": 8},
}
MIN_ROUNDS = 3
SPEED_WINDOW = 3  # rounds on either side whose host-speed probes scale a round
PIPELINE_WORLD = {"objects": 20, "attributes": 60}  # V = 81, the ROADMAP baseline
REMOTE_WORLD = {"objects": 60, "attributes": 180}  # V = 241: wire cost shows
ATTRS_PER_OBJECT = 5
ENTITIES = 3
CANDIDATES = 50
GEN_OIA = ("gen-oia", "generative", "{O} is {A}")  # 53 prefixes per 50 sentences
GEN_AOIA = ("gen-aoia", "generative", "{A} {O} is {A}")  # candidate first: little sharing
CON_AO = ("con-ao", "contrastive", "{A} {O}")
ALL_COMBOS = (GEN_OIA, GEN_AOIA, CON_AO)

END_TO_END = [  # name, unit; "-" in the table where a workload skips the stage
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("pipeline_cpu_s", "s"),
    ("pipeline_refcpu_s", "s"),
    ("score_refcpu_s", "s"),
    ("gen_inst_per_s", "inst/s"),
    ("con_inst_per_s", "inst/s"),
    ("gen_refcpu_ms_per_inst", "ms/inst"),
    ("con_refcpu_ms_per_inst", "ms/inst"),
    ("gen-world_s", "s"),
    ("build-dataset_s", "s"),
    ("score_s", "s"),
    ("calibrate_s", "s"),
    ("evaluate_s", "s"),
    ("report_s", "s"),
    ("rss_peak_mb", "MB"),
    ("fail_frac", "ratio"),
    ("bytes_per_inst", "B/inst"),
]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# BENCHMARK.json's end_to_end are the bounded metrics: the subset every
# workload reports with a non-zero value.  Its per_layer come from --trace 1.
GATED = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = dict(END_TO_END) | {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNTED = [name for name in PER_LAYER if UNITS[name] in ("count", "B", "ratio")]  # exact


class StageFailed(Exception):
    pass


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """Run state: CLI calls, operation and check accounting."""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.instr: Instrumentation | None = None  # set for traced rounds only
        self.server: Server | None = None  # remote-score's scoring server
        self.attempted = 0
        self.failed = 0
        self.probes_cpu_s = 0.0
        self.scenes = 0
        self.total = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def reading(self) -> tuple[float, float, float, float]:
        """CPU seconds so far and a host-speed probe, of this process and of
        the scoring server (none: 0 s at reference speed).  CPU seconds
        exclude the probes themselves."""
        start = process_time()
        probe_s = probe()
        self.probes_cpu_s += process_time() - start
        server = self.server.cpu() if self.server else {"cpu_s": 0.0, "probe_s": REFERENCE_S}
        return process_time() - self.probes_cpu_s, probe_s, server["cpu_s"], server["probe_s"]

    def cli(self, rec: dict, stage: str, *argv, ops: int = 1, also: tuple = ()) -> None:
        """Run one CLI command in process.  For `stage`, "pipeline" and each
        key in `also`, its wall seconds go to rec[key_s] and its CPU seconds
        in this process and in the server to rec[key_client_cpu_s] and
        rec[key_server_cpu_s].  The host-speed probes taken before and after
        the call are summed in rec[probe_client_s] and rec[probe_server_s].

        The call counts as `ops` operations, all failed if it exits non-zero
        (a failed score writes no scores, so each of its instances failed).
        """
        instr = self.instr
        argv = [stage, *map(str, argv)]
        out, err = io.StringIO(), io.StringIO()
        installed = instr.installed() if instr else contextlib.nullcontext()
        with installed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            before = self.reading()
            start = perf_counter()
            with instr.tracer.region("cli.stage", ident=stage) if instr else contextlib.nullcontext():
                code = cli.main(argv)
            wall = perf_counter() - start
            after = self.reading()
        self.attempted += ops
        if code != 0:
            self.failed += ops
            raise StageFailed(f"genret {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        rec["probes"] += 2
        rec["probe_client_s"] += before[1] + after[1]
        rec["probe_server_s"] += before[3] + after[3]
        for key in (stage, "pipeline", *also):
            rec[f"{key}_s"] += wall
            rec[f"{key}_client_cpu_s"] += after[0] - before[0]
            rec[f"{key}_server_cpu_s"] += after[2] - before[2]
        if instr:
            out_dir = Path(argv[argv.index("--out") + 1])
            instr.tracer.count("cli.calls")
            instr.tracer.count(
                "cli.bytes_written", sum(p.stat().st_size for p in out_dir.iterdir())
            )

    def score(self, rec, n: int, combo, instances: Path, out: Path, *backend_args) -> None:
        _, method, template = combo
        kind = "gen" if method == "generative" else "con"
        self.cli(
            rec, "score", "--out", out, "--seed", self.seed, "--instances", instances,
            "--method", method, "--template", template, *backend_args, ops=n, also=(kind,),
        )
        rec[f"{kind}_inst"] += n

    def import_probe(self) -> None:
        """A fresh interpreter importing the CLI: the start-up every command pays."""
        subprocess.run(
            [sys.executable, "-c", "import genret.cli"],
            env=child_env(), check=True, timeout=120,
        )

    def gen_world(self, rec, out: Path, world: dict) -> None:
        self.cli(
            rec, "gen-world", "--out", out, "--seed", self.seed,
            "--objects", world["objects"], "--attributes", world["attributes"],
            "--attrs-per-object", ATTRS_PER_OBJECT, "--scenes", self.scenes,
            "--min-entities", ENTITIES, "--max-entities", ENTITIES,
            "--candidates", CANDIDATES,
        )

    def check_instances(self, path: Path, n_instances: int) -> None:
        self.check(
            len(read_instances(path)) == n_instances, f"{path.name} holds {n_instances} instances"
        )

    def build_dataset(self, rec, out: Path, scene_graph: Path) -> None:
        self.cli(
            rec, "build-dataset", "--out", out, "--seed", self.seed,
            "--scene-graph", scene_graph, "--mode", "attribute", "--total", self.total,
        )

    def plan_scenes(self, world: dict, n_instances: int) -> int:
        """Scene count whose object-anchored instances number n_instances or
        up to ENTITIES - 1 more, and a dataset size the scenes can fill."""
        spec = random_world(
            seed=self.seed,
            n_objects=world["objects"],
            n_attributes=world["attributes"],
            attrs_per_object=ATTRS_PER_OBJECT,
        )
        sampler = SceneSampler(spec)
        scenes = got = 0
        seen: set[str] = set()
        while got < n_instances:
            scene = sampler.sample_scene(ENTITIES)
            scenes += 1
            for ent in scene.entities:
                got += bool(ent.attributes)
                seen.update(ent.attributes)
        self.scenes = scenes
        # a box's skip set is within its object's compatible attributes
        self.total = min(20, len(seen) - ATTRS_PER_OBJECT)
        return got


def keep_first(path: Path, n: int) -> int:
    """Cut an instances file to its first n instances, so that every seed's
    timed phase scores the same number: the scenes give up to ENTITIES - 1
    more, which is a sixth of remote-score's dozen."""
    write_instances(path, read_instances(path)[:n])
    return n


def merge(paths, out: Path) -> None:
    with open(out, "wb") as fh:
        for p in paths:
            fh.write(p.read_bytes())


def cuts_for(counts_path: Path) -> tuple[int, int]:
    """Head and tail cut-offs at the quartiles of the class counts."""
    counts = sorted(json.loads(counts_path.read_text()).values())
    tail = max(1, counts[len(counts) // 4])
    return max(tail + 1, counts[3 * len(counts) // 4]), tail


def evaluate_args(cuts) -> list:
    head, tail = cuts
    return [
        "--k", 1, "--k", 5, "--k", 15,
        "--threshold", 0.25, "--threshold", 0.5, "--threshold", 0.75,
        "--head-cut", head, "--tail-cut", tail,
    ]


def expected_report(scored, table_path: Path, counts_path: Path, cuts):
    """What `evaluate --calibration --class-frequencies` must report,
    computed in memory from ScoredInstances."""
    head, tail = cuts
    probs = apply_calibration(read_table(table_path), scored)
    ranked = [
        ScoredInstance(
            instance=s.instance,
            template_name=s.template_name,
            method=s.method,
            scores=tuple(float(-v) for v in p),
            per_token=None,
        )
        for s, p in zip(scored, probs)
    ]
    counts = json.loads(counts_path.read_text())
    report = compute_report(
        ranked,
        ks=(1, 5, 15),
        thresholds=(0.25, 0.5, 0.75),
        probs=probs,
        class_meta=bucketize({w: int(c) for w, c in counts.items()}, head, tail),
        head_cut=head,
        tail_cut=tail,
    )
    return json.loads(json.dumps(report.to_dict()))


def oracle_scored(world_dir: Path, instances, combo):
    backend = OracleBackend(
        read_world(world_dir / "world.json"), read_scenes(world_dir / "scenes.jsonl")
    )
    _, method, template = combo
    return batch_rank(backend, instances, parse_template(template), Method(method))


class Server:
    """LoopbackServer(OracleBackend) in a child process (perfbench/server.py)."""

    def __init__(self, world_dir: Path, traced: bool):
        cmd = [
            sys.executable, str(BENCH / "server.py"),
            "--world", str(world_dir / "world.json"),
            "--scenes", str(world_dir / "scenes.jsonl"),
        ]
        if traced:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env()
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("scoring server exited before it was ready")
        ready = json.loads(line)
        self.url = ready["url"]
        self.oracle_setup_s = ready["oracle_setup_s"]
        self._http = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def get(self, path: str) -> dict:
        with self._http.open(self.url + path, timeout=60) as resp:
            return json.load(resp)

    def cpu(self) -> dict:
        return self.get("/bench/cpu")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- workloads -------------------------------------------------------------


class Workload:
    """setup (repeated; the last one is kept) -> prepare_checks -> rounds,
    each followed by check_round -> finish -> close."""

    setups = 5

    def __init__(self, b: Bench):
        self.b = b
        self.n = 0

    def prepare_checks(self, d: Path) -> None:
        pass

    def finish(self, d: Path) -> None:
        pass

    def close(self) -> None:
        pass


class OraclePipeline(Workload):
    """The whole CLI chain in process on the baseline world shape."""

    def __init__(self, b: Bench):
        super().__init__(b)
        self.digests: dict[str, str] | None = None

    def setup(self, d: Path, rec) -> None:
        self.b.import_probe()
        self.n = self.b.plan_scenes(PIPELINE_WORLD, SIZES[self.b.size]["oracle-pipeline"])

    def round(self, d: Path, rec) -> None:
        b = self.b
        world = d / "world"
        b.gen_world(rec, world, PIPELINE_WORLD)
        b.build_dataset(rec, d / "ds", world / "scene_graph.json")
        oracle = ["--backend", "oracle", "--parallelism", 1,
                  "--world", world / "world.json", "--scenes", world / "scenes.jsonl"]
        instances = world / "instances.jsonl"
        for combo in ALL_COMBOS:
            b.score(rec, self.n, combo, instances, d / combo[0], *oracle)
        merge([d / c[0] / "scores.jsonl" for c in ALL_COMBOS], d / "merged.jsonl")
        gen = d / GEN_OIA[0] / "scores.jsonl"
        b.cli(rec, "calibrate", "--out", d / "cal", "--instances", instances, "--cache", gen,
              "--lr", 0.3, "--weight-decay", 0, "--batch-size", 0, "--steps", 200,
              "--init-mu", 0, "--init-sigma", 1)
        b.cli(rec, "evaluate", "--out", d / "eval", "--instances", instances, "--cache", gen,
              "--calibration", d / "cal" / "calibration.json",
              "--class-frequencies", d / "ds" / "counts.json",
              *evaluate_args(cuts_for(d / "ds" / "counts.json")))
        b.cli(rec, "report", "--out", d / "rep", "--instances", instances,
              "--cache", d / "merged.jsonl", "--k", 5)

    def check_round(self, d: Path) -> None:
        files = [f"{c[0]}/scores.jsonl" for c in ALL_COMBOS]
        files += ["eval/report.json", "rep/comparison.json"]
        got = {f: digest(d / f) for f in files}
        if self.digests is None:
            self.digests = got
            self.b.check_instances(d / "world" / "instances.jsonl", self.n)
        for f in files:
            self.b.check(got[f] == self.digests[f], f"{f} is byte-identical across rounds")

    def finish(self, d: Path) -> None:
        """A seeded sample of instances must score bit-equal to the
        single-sentence losses."""
        world = d / "world"
        backend = OracleBackend(
            read_world(world / "world.json"), read_scenes(world / "scenes.jsonl")
        )
        instances = read_instances(world / "instances.jsonl")
        sample = random.Random(self.b.seed).sample(instances, min(6, len(instances)))
        for tag, method, spec in ALL_COMBOS:
            template = parse_template(spec)
            recorded = {
                (r["image_id"], r["anchor"], r["candidate"]): (r["loss"], r["per_token"])
                for r in read_score_cache(d / tag / "scores.jsonl")
            }
            for inst in sample:
                ok = True
                for cand in inst.candidates:
                    sentence = render(template, attribute=cand, obj=inst.anchor)
                    if method == "generative":
                        loss = generative_loss(backend, inst.image_id, inst.region, sentence)
                        want = (loss.value, list(loss.per_token))
                    else:
                        loss = contrastive_loss(backend, inst.image_id, inst.region, sentence)
                        want = (loss.value, None)
                    ok &= recorded[(inst.image_id, inst.anchor, cand)] == want
                self.b.check(ok, f"{tag} {inst.image_id}/{inst.anchor}: single-sentence losses")


class RemoteScore(Workload):
    """score through RemoteBackend against a server in a child process."""

    def __init__(self, b: Bench, parallelism: int, traced: bool):
        super().__init__(b)
        self.parallelism = parallelism
        self.traced = traced
        self.reference: dict[str, str] = {}

    def setup(self, d: Path, rec) -> None:
        b = self.b
        b.import_probe()
        b.plan_scenes(REMOTE_WORLD, SIZES[b.size]["remote-score"])
        self.close()
        b.gen_world(rec, d / "world", REMOTE_WORLD)
        self.world = d / "world"
        self.n = keep_first(self.world / "instances.jsonl", SIZES[b.size]["remote-score"])
        b.server = Server(self.world, self.traced)

    def prepare_checks(self, d: Path) -> None:
        """Reference scores from the in-process oracle, as cache bytes."""
        self.b.check_instances(self.world / "instances.jsonl", self.n)
        instances = read_instances(self.world / "instances.jsonl")
        for combo in (GEN_OIA, CON_AO):
            path = d / f"reference-{combo[0]}.jsonl"
            write_score_cache(path, oracle_scored(self.world, instances, combo))
            self.reference[combo[0]] = digest(path)

    def round(self, d: Path, rec) -> None:
        remote = ["--backend", "remote", "--endpoint", self.b.server.url, "--terminal",
                  "--parallelism", self.parallelism]
        instances = self.world / "instances.jsonl"
        for combo in (GEN_OIA, CON_AO):
            self.b.score(rec, self.n, combo, instances, d / combo[0], *remote)

    def check_round(self, d: Path) -> None:
        for tag, ref in self.reference.items():
            self.b.check(
                digest(d / tag / "scores.jsonl") == ref,
                f"{tag}: remote scores bit-equal to the in-process oracle",
            )

    def close(self) -> None:
        if self.b.server is not None:
            self.b.server.stop()
            self.b.server = None


class ReplayEval(Workload):
    """Replay a recorded merged cache, then calibrate, evaluate, report."""

    def __init__(self, b: Bench):
        super().__init__(b)
        self.expected: dict | None = None

    def setup(self, d: Path, rec) -> None:
        b = self.b
        b.import_probe()
        b.plan_scenes(PIPELINE_WORLD, SIZES[b.size]["replay-eval"])
        world = d / "world"
        b.gen_world(rec, world, PIPELINE_WORLD)
        self.n = keep_first(world / "instances.jsonl", SIZES[b.size]["replay-eval"])
        b.build_dataset(rec, d / "ds", world / "scene_graph.json")
        oracle = ["--backend", "oracle", "--world", world / "world.json",
                  "--scenes", world / "scenes.jsonl"]
        for combo in ALL_COMBOS:
            b.score(rec, self.n, combo, world / "instances.jsonl", d / combo[0], *oracle)
        merge([d / c[0] / "scores.jsonl" for c in ALL_COMBOS], d / "merged.jsonl")
        # every fifth instance validates unless the others miss one of its
        # classes; the table then covers every class evaluate meets
        instances = read_instances(world / "instances.jsonl")
        words = {w for i, x in enumerate(instances) if i % 5 for w in x.candidates}
        held = [not i % 5 and set(x.candidates) <= words for i, x in enumerate(instances)]
        train = [x for x, h in zip(instances, held) if not h]
        val = [x for x, h in zip(instances, held) if h]
        write_instances(d / "train.jsonl", train)
        write_instances(d / "val.jsonl", val)
        self.d = d
        self.cuts = cuts_for(d / "ds" / "counts.json")

    def prepare_checks(self, d: Path) -> None:
        self.b.check_instances(self.d / "world" / "instances.jsonl", self.n)

    def round(self, d: Path, rec) -> None:
        b, s = self.b, self.d
        merged = s / "merged.jsonl"
        instances = s / "world" / "instances.jsonl"
        for combo in ALL_COMBOS:
            b.score(rec, self.n, combo, instances, d / combo[0],
                    "--backend", "cached", "--cache", merged)
        gen = ["--method", GEN_OIA[1], "--template", GEN_OIA[2]]
        b.cli(rec, "calibrate", "--out", d / "cal", "--instances", s / "train.jsonl",
              "--cache", merged, *gen, "--val-instances", s / "val.jsonl", "--val-cache", merged,
              "--lr", 0.3, "--weight-decay", 0, "--batch-size", 0, "--steps", 200,
              "--init-mu", 0, "--init-sigma", 1)
        b.cli(rec, "evaluate", "--out", d / "eval", "--instances", instances, "--cache", merged,
              *gen, "--calibration", d / "cal" / "calibration.json",
              "--class-frequencies", s / "ds" / "counts.json", *evaluate_args(self.cuts))
        b.cli(rec, "report", "--out", d / "rep", "--instances", instances,
              "--cache", merged, "--k", 5)

    def check_round(self, d: Path) -> None:
        b, s = self.b, self.d
        for tag, _, _ in ALL_COMBOS:
            b.check(
                (d / tag / "scores.jsonl").read_bytes() == (s / tag / "scores.jsonl").read_bytes(),
                f"{tag}: replayed scores byte-equal to the recorded cache",
            )
        if self.expected is None:
            instances = read_instances(s / "world" / "instances.jsonl")
            scored = oracle_scored(s / "world", instances, GEN_OIA)
            self.expected = expected_report(
                scored, d / "cal" / "calibration.json", s / "ds" / "counts.json", self.cuts
            )
        report = json.loads((d / "eval" / "report.json").read_text())
        b.check(report == self.expected, "report.json equals compute_report in memory")


# -- measurement -------------------------------------------------------------


def new_rec() -> dict:
    return defaultdict(float)


def run_rounds(b: Bench, w, work: Path, seconds: float, traced: bool):
    """Timed rounds until `seconds` have passed.  Returns untraced and traced
    round records; traced ones carry their Tracer (and server stats)."""
    plain, traced_recs = [], []
    start = perf_counter()
    i = 0
    while i < MIN_ROUNDS * (1 + traced) or perf_counter() - start < seconds:
        with_trace = traced and i % 2 == 1
        b.instr = Instrumentation() if with_trace else None
        server = b.server
        if with_trace and server is not None:
            server.get("/bench/reset")
        d = work / f"round{i:04d}"  # fixed width: paths land in config.json
        rec = new_rec()
        gc.collect()
        w.round(d, rec)
        if with_trace:
            rec["tracer"] = b.instr.tracer
            rec["server"] = Tracer.from_stats(server.get("/bench/stats")) if server else Tracer()
        w.check_round(d)
        if i:
            shutil.rmtree(d)
        (traced_recs if with_trace else plain).append(rec)
        i += 1
    return plain, traced_recs


def end_to_end(setup_walls, setup_recs, rounds, traced_rounds) -> dict:
    """Every end-to-end metric this workload has, the median over the
    untraced rounds; bytes_per_inst, which is exact, from the traced rounds'
    counters.

    CPU seconds count this process and the scoring server.  Reference CPU
    seconds scale a round's CPU seconds in each process by REFERENCE_S over
    the mean of the probes taken in that process during the round and the
    SPEED_WINDOW rounds on either side (see speed.py).  The host's speed
    changes over seconds to minutes; the probes of one round are too few to
    follow it without adding noise of their own.
    """
    def cpu(i, key, scaled=True):
        window = rounds[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1]
        probes = sum(r["probes"] for r in window)
        total = 0.0
        for side in ("client", "server"):
            scale = REFERENCE_S * probes / sum(r[f"probe_{side}_s"] for r in window)
            total += rounds[i][f"{key}_{side}_cpu_s"] * (scale if scaled else 1.0)
        return total

    def per_round(key, recs=rounds):
        return median([r[key] for r in recs]) if recs[0].get(key) else None

    m = {
        "setup_s": median(setup_walls),
        "pipeline_s": per_round("pipeline_s"),
        "pipeline_cpu_s": median([cpu(i, "pipeline", scaled=False) for i in range(len(rounds))]),
        "pipeline_refcpu_s": median([cpu(i, "pipeline") for i in range(len(rounds))]),
        "score_refcpu_s": median([cpu(i, "score") for i in range(len(rounds))]),
    }
    for kind in ("gen", "con"):
        if rounds[0][f"{kind}_inst"]:
            m[f"{kind}_inst_per_s"] = median([r[f"{kind}_inst"] / r[f"{kind}_s"] for r in rounds])
            m[f"{kind}_refcpu_ms_per_inst"] = median(
                [1e3 * cpu(i, kind) / r[f"{kind}_inst"] for i, r in enumerate(rounds)]
            )
        else:
            m[f"{kind}_inst_per_s"] = m[f"{kind}_refcpu_ms_per_inst"] = None
    for stage in ("gen-world", "build-dataset", "score", "calibrate", "evaluate", "report"):
        key = f"{stage}_s"
        m[key] = per_round(key)
        if m[key] is None and setup_recs[0].get(key):
            m[key] = per_round(key, setup_recs)  # the stage runs in set-up
    scored = sum(r["gen_inst"] + r["con_inst"] for r in traced_rounds)
    wire = sum(
        r["tracer"].counters.get("backends.remote.bytes_sent", 0)
        + r["tracer"].counters.get("backends.remote.bytes_received", 0)
        for r in traced_rounds
    )
    m["bytes_per_inst"] = wire / scored if wire else None
    return m


def rss_peak_mb() -> float:
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rnd: Tracer, srv: Tracer, setup: Tracer) -> dict:
    """Per-layer metrics of one traced round.

    Counters and times cover the round: the client process plus, on
    remote-score, the server process.  The world, dataset and oracle set-up
    layers also count the traced set-up, because on remote-score and
    replay-eval that is where their work happens.
    """
    timed = (rnd, srv)
    with_setup = (rnd, srv, setup)

    def busy(prefix, scopes=timed):
        return sum(t.busy(prefix) for t in scopes)

    def own(prefix, scopes=timed):
        return sum(t.self_time(prefix) for t in scopes)

    def n(name, scopes=timed):
        return sum(t.counters.get(name, 0) for t in scopes)

    m = {
        "scoring.batch_rank_s": busy("scoring.batch_rank"),
        "scoring.self_s": own("scoring."),
    }
    for k in ("gen_instances", "con_instances", "replayed_instances", "sentences",
              "prefix_positions", "prefixes_requested", "dist_entries_served"):
        m[f"scoring.{k}"] = n(f"scoring.{k}")
    m["scoring.dedup_ratio"] = ratio(m["scoring.prefixes_requested"], m["scoring.prefix_positions"])
    # the loss reads one entry of a served distribution per position
    m["scoring.dist_entries_used"] = m["scoring.prefix_positions"]
    m["scoring.dist_use_ratio"] = ratio(m["scoring.dist_entries_used"], m["scoring.dist_entries_served"])

    m["backends.oracle.setup_s"] = busy("backends.oracle.setup", with_setup)
    m["backends.oracle.dist_s"] = busy("backends.oracle.dist")
    m["backends.oracle.embed_s"] = busy("backends.oracle.embed")
    for k in ("dist_calls", "embed_image_calls", "embed_text_calls"):
        m[f"backends.oracle.{k}"] = n(f"backends.oracle.{k}")

    posts = rnd.totals["backends.remote.post"][0]
    calls = rnd.totals["backends.remote.dist"][0] + rnd.totals["backends.remote.embed"][0]
    samples = rnd.samples["backends.remote.post_ms"]
    pct = statistics.quantiles(samples, n=100) if len(samples) > 1 else [0.0] * 99
    m.update({
        "backends.remote.posts.logprobs": n("backends.remote.posts.logprobs"),
        "backends.remote.posts.embed": n("backends.remote.posts.embed"),
        "backends.remote.retries": posts - calls,
        "backends.remote.failed_posts": n("backends.remote.failed_posts"),
        "backends.remote.post_s": busy("backends.remote.post"),
        "backends.remote.post_samples": len(samples),
        "backends.remote.post_ms_p50": pct[49],
        "backends.remote.post_ms_p99": pct[98],
        "backends.remote.bytes_sent": n("backends.remote.bytes_sent"),
        "backends.remote.bytes_received": n("backends.remote.bytes_received"),
        "backends.remote.decode_s": own("backends.remote.dist") + own("backends.remote.embed"),
        "backends.remote.transit_s": (
            busy("backends.remote.post") - srv.busy("backends.loopback.handle") if posts else 0.0
        ),
    })

    connections = n("backends.loopback.connections")
    requests_ = n("backends.loopback.requests")
    m.update({
        "backends.loopback.connections": connections,
        "backends.loopback.requests": requests_,
        "backends.loopback.conn_reuse_ratio": ratio(requests_, connections),
        "backends.loopback.handle_s": srv.busy("backends.loopback.handle"),
        "backends.loopback.backend_s": srv.busy("backends.oracle.dist") + srv.busy("backends.oracle.embed"),
        "backends.loopback.self_s": srv.self_time("backends.loopback.handle"),
    })

    for k in ("loads", "records", "lookups", "misses"):
        m[f"backends.cached.{k}"] = n(f"backends.cached.{k}")
    for k in ("load", "lookup", "write"):
        m[f"backends.cached.{k}_s"] = busy(f"backends.cached.{k}")

    m["core.read_instances_s"] = busy("core.read_instances")
    m["core.write_instances_s"] = busy("core.write_instances")
    m["core.instances_read"] = n("core.instances_read")
    for k in ("sample_scenes", "make_instances", "write", "read"):
        m[f"world.{k}_s"] = busy(f"world.{k}", with_setup)
    for k in ("parse_scene_graph", "build_stats", "build_split", "write"):
        m[f"dataset.{k}_s"] = busy(f"dataset.{k}", with_setup)
    m["dataset.instances_built"] = n("dataset.instances_built", with_setup)

    m["calibration.fit_s"] = busy("calibration.fit")
    m["calibration.fit_steps"] = n("calibration.fit_steps")
    m["calibration.fit_examples"] = n("calibration.fit_examples")
    m["calibration.apply_s"] = busy("calibration.apply")
    m["calibration.io_s"] = busy("calibration.io")
    m["metrics.compute_report_s"] = busy("metrics.compute_report")
    m["metrics.reports"] = n("metrics.reports")
    m["metrics.scored_instances"] = n("metrics.scored_instances")
    m["cli.calls"] = n("cli.calls")
    m["cli.self_s"] = own("cli.stage")
    m["cli.bytes_written"] = n("cli.bytes_written")
    m["trace.spans"] = len(rnd.spans)
    return m


def per_layer(b: Bench, plain, traced, setup_tracer: Tracer) -> dict:
    rows = [layer_metrics(r["tracer"], r["server"], setup_tracer) for r in traced]
    b.check(
        all({k: r[k] for k in COUNTED} == {k: rows[0][k] for k in COUNTED} for r in rows),
        "per-layer counters repeat exactly across traced rounds",
    )
    # counters are equal in every traced round; times are the median
    m = {
        name: rows[0][name] if name in COUNTED else median([r[name] for r in rows])
        for name in PER_LAYER
        if name in rows[0]
    }
    m["trace.overhead_s"] = median([r["pipeline_s"] for r in traced]) - median(
        [r["pipeline_s"] for r in plain]
    )
    return m


def make_workload(name: str, b: Bench, parallelism: int, traced: bool):
    if name == "oracle-pipeline":
        return OraclePipeline(b)
    if name == "remote-score":
        return RemoteScore(b, parallelism, traced)
    return ReplayEval(b)


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit}")


def measure(args, b: Bench) -> dict:
    traced = bool(args.trace)
    parallelism = args.parallelism or min(nproc(), 8)
    work = OUT / f"work-{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = make_workload(args.workload, b, parallelism, traced)
    setup_tracer = Tracer()
    try:
        setup_walls, setup_recs = [], []
        for k in range(1 if traced else w.setups):
            b.instr = Instrumentation() if traced else None
            rec = new_rec()
            start = perf_counter()
            w.setup(work / f"setup{k}", rec)
            setup_walls.append(perf_counter() - start)
            setup_recs.append(rec)
            setup_tracer = b.instr.tracer if traced else setup_tracer
        if traced and b.server is not None:
            setup_tracer.totals["backends.oracle.setup"] = [1, b.server.oracle_setup_s, b.server.oracle_setup_s]
        w.prepare_checks(work)
        plain, traced_recs = run_rounds(b, w, work, args.seconds, traced)
        w.finish(work / "round0000")
    finally:
        w.close()
        shutil.rmtree(work, ignore_errors=True)
    metrics = end_to_end(setup_walls, setup_recs, plain, traced_recs)
    metrics["rss_peak_mb"] = rss_peak_mb()
    metrics["fail_frac"] = b.failed / b.attempted
    print_table(f"end-to-end [{args.workload}, seed {args.seed}, {len(plain)} untraced rounds]",
                [(name, metrics[name], unit) for name, unit in END_TO_END])
    if traced:
        layers = per_layer(b, plain, traced_recs, setup_tracer)
        if args.workload == "replay-eval":
            bypassed = ("scoring.prefixes_requested", "backends.oracle.dist_calls",
                        "backends.oracle.embed_image_calls", "backends.oracle.embed_text_calls",
                        "backends.remote.posts.logprobs", "backends.remote.posts.embed")
            b.check(all(layers[k] == 0 for k in bypassed), "replay bypasses token-level scoring")
        # exact counters and measured times go to separate files, so the
        # counters file of two runs of one seed compares byte for byte
        base = OUT / f"{args.workload}-seed{args.seed}"
        for suffix, keep in ((".counters.json", True), (".timings.json", False)):
            values = {k: v for k, v in layers.items() if (k in COUNTED) == keep}
            Path(f"{base}{suffix}").write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
        spans = Path(f"{base}.spans.jsonl")
        spans.unlink(missing_ok=True)
        setup_tracer.write_spans(spans, "setup")
        for i, r in enumerate(traced_recs):
            r["tracer"].write_spans(spans, f"round{i}")
        print_table(f"per-layer [{args.workload}, seed {args.seed}, traced]",
                    [(k, layers[k], UNITS[k]) for k in PER_LAYER])
        print(f"  counters, timings and spans written to {base.relative_to(ROOT)}.*")
        metrics |= layers
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="genret benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["oracle-pipeline", "remote-score", "replay-eval"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="tiny is for the benchmark's own tests")
    ap.add_argument("--parallelism", type=int, default=0,
                    help="remote-score client threads (default: nproc, at most 8)")
    args = ap.parse_args(argv)
    b = Bench(args.seed, args.size)
    try:
        metrics = measure(args, b)
    except StageFailed as exc:
        # the failed operations are counted; the result line says so
        print(f"error: {exc}", file=sys.stderr)
        metrics = {}
    wanted = PER_LAYER if args.trace else GATED
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in wanted if k in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
