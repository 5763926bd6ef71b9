"""Command line front end for the full pipeline.

Typical run, start to finish:

    genret gen-world --out run/world --seed 7
    genret build-dataset --scene-graph run/world/scene_graph.json --out run/data \
        --total 40
    genret score --instances run/data/instances.jsonl --backend oracle \
        --world run/world/world.json --scenes run/world/scenes.jsonl \
        --method generative --template "{O} is {A}" --out run/gen
    genret calibrate --instances run/data/instances.jsonl \
        --cache run/gen/scores.jsonl --steps 200 --lr 0.05 --out run/cal
    genret evaluate --instances run/data/instances.jsonl \
        --cache run/gen/scores.jsonl --out run/eval
    genret report --instances run/data/instances.jsonl \
        --cache run/gen/scores.jsonl --out run/cmp

calibrate's --val-instances and --val-cache add a validation loss column;
--val-cache may name the --cache file (one merged cache holding both
splits), which is then read once.

Every command reads its inputs, computes, writes its artifacts to --out DIR
and returns its resolved options with the text to print; main then writes
the parsed and resolved options to DIR/config.json and prints the text.  The
first artifact written makes DIR, so a run rejected before it writes leaves
no DIR; a failed score writes failures.jsonl and the instances that did
score, and no config.json.  evaluate's --threshold cuts calibrated
probabilities, so it needs --calibration (exit 1 without).  A single --seed
funnels all randomness, every library writer writes atomically
(core.atomic_write: temp file, then rename), and nothing embeds a
timestamp, so a rerun with equal inputs is byte-identical.

Exit codes: 0 success, 1 pipeline error, 2 usage, 3 I/O, 4 bad input (schema
or malformed JSON).  Failures print one line, `error[category]: detail`, to stderr.
A numeric option outside its domain exits 1 with one line, `error[ParameterError]:
<name> must be <domain>, got <value>`; argparse rejects only a non-number.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .backends import (
    CachedScoreBackend,
    Capabilities,
    OracleBackend,
    RemoteBackend,
    UniformBackend,
    write_score_cache,
)
from .calibration import (
    FitConfig,
    apply_calibration,
    fit,
    read_table,
    write_table,
)
from .core import (
    CANONICAL_TEMPLATE_SPECS,
    DOMAINS,
    AnchorKind,
    Method,
    ScoredInstance,
    Template,
    atomic_write,
    check_parameter,
    parse_template,
    read_instances,
    read_json,
    stable_seed,
    write_instances,
    write_json,
    write_jsonl,
)
from .dataset import build_split, build_stats, parse_scene_graph, write_scene_graph
from .errors import BatchScoringError, ConfigurationError, GenretError, SchemaError
from .metrics import bucketize, compute_report, format_table
from .scoring import batch_rank, rank_instance
from .world import (
    make_instances,
    random_world,
    read_scenes,
    read_world,
    sample_scenes,
    scenes_to_records,
    write_scenes,
    write_world,
)

ENDPOINT_ENV = "GENRET_REMOTE_ENDPOINT"


# -- replay --------------------------------------------------------------


def _combo_key(combo: tuple[Method, str]):
    method, name = combo
    try:
        t_idx = CANONICAL_TEMPLATE_SPECS.index(name)
    except ValueError:
        t_idx = len(CANONICAL_TEMPLATE_SPECS)
    return (0 if method is Method.CONTRASTIVE else 1, t_idx, name)


def _combos(cache: CachedScoreBackend) -> list[tuple[Method, str]]:
    """The cache's (method, template name) pairs: contrastive first, then
    canonical templates in canonical order."""
    combos = cache.combos()
    if not combos:
        raise ConfigurationError("score cache is empty")
    return sorted(combos, key=_combo_key)


def _resolve_combo(
    cache: CachedScoreBackend, method_arg: str | None, template_arg: str | None
) -> tuple[Method, Template]:
    """Pick (method, template) for replaying a cache.

    Omitted flags are inferred when the cache holds exactly one choice.
    """
    combos = _combos(cache)
    methods = sorted({m.value for m, _ in combos})
    names = sorted({t for _, t in combos})
    if method_arg is None:
        if len(methods) != 1:
            raise ConfigurationError(
                f"cache holds methods {methods}; pass --method"
            )
        method_arg = methods[0]
    if template_arg is None:
        if len(names) != 1:
            raise ConfigurationError(
                f"cache holds templates {names}; pass --template"
            )
        template_arg = names[0]
    return Method(method_arg), parse_template(template_arg)


def _replay(
    instances: list, cache: CachedScoreBackend, method: Method, template: Template
) -> list[ScoredInstance]:
    """Each instance's recorded scores under (method, template), in input order."""
    return [rank_instance(cache, inst, template, method) for inst in instances]


# -- gen-world -----------------------------------------------------------


def _cmd_gen_world(args: argparse.Namespace, out: Path) -> tuple[dict, str]:
    kind = AnchorKind(args.anchor_kind)
    spec = random_world(
        seed=args.seed,
        n_objects=args.objects,
        n_attributes=args.attributes,
        attrs_per_object=args.attrs_per_object,
    )
    check_parameter("scenes", args.scenes, "an int >= 0")
    check_parameter("min_entities", args.min_entities, "an int >= 1")
    check_parameter("max_entities - min_entities", args.max_entities - args.min_entities,
                    "an int >= 0")
    rng = np.random.default_rng(stable_seed(args.seed, "entity-counts"))
    counts = [
        int(v)
        for v in rng.integers(args.min_entities, args.max_entities + 1, size=args.scenes)
    ]
    scenes = sample_scenes(spec, counts)
    instances = make_instances(spec, scenes, args.candidates, kind, seed=args.seed)
    write_world(out / "world.json", spec)
    write_scenes(out / "scenes.jsonl", scenes)
    write_scene_graph(out / "scene_graph.json", scenes_to_records(scenes))
    write_instances(out / "instances.jsonl", instances)
    return {}, f"{len(scenes)} scenes, {len(instances)} instances -> {out}\n"


# -- build-dataset -------------------------------------------------------


def _cmd_build_dataset(args: argparse.Namespace, out: Path) -> tuple[dict, str]:
    records = parse_scene_graph(args.scene_graph)
    stats = build_stats(records)
    # --mode names the ranked kind; the library speaks of the anchor's kind
    anchor_kind = AnchorKind(args.mode).ranked
    instances, manifest = build_split(
        records, stats, anchor_kind=anchor_kind, seed=args.seed, total=args.total
    )
    counts = (
        stats.attribute_counts if anchor_kind is AnchorKind.OBJECT else stats.object_counts
    )
    write_instances(out / "instances.jsonl", instances)
    write_json(out / "manifest.json", manifest)
    write_json(out / "counts.json", counts)
    return {}, f"{manifest['n_instances']} instances from {manifest['n_images']} images -> {out}\n"


# -- score ---------------------------------------------------------------


def _uniform_vocabulary(instances, template: Template) -> set[str]:
    vocab = {e for e in template.elements if isinstance(e, str)}
    for inst in instances:
        vocab.update(inst.anchor.split())
        for cand in inst.candidates:
            vocab.update(cand.split())
    return vocab


def _cmd_score(args: argparse.Namespace, out: Path) -> tuple[dict, str]:
    instances = read_instances(args.instances)
    resolved: dict = {}

    if args.backend == "cached":
        if not args.cache:
            raise ConfigurationError("--backend cached needs --cache")
        cache = CachedScoreBackend.from_file(args.cache)
        method, template = _resolve_combo(cache, args.method, args.template)
        backend = cache
    else:
        method = Method(args.method or Method.GENERATIVE.value)
        template = parse_template(args.template or "{A} {O}")
        if args.backend == "oracle":
            if not (args.world and args.scenes):
                raise ConfigurationError("--backend oracle needs --world and --scenes")
            backend = OracleBackend(
                read_world(args.world),
                read_scenes(args.scenes),
                smoothing=args.smoothing,
            )
        elif args.backend == "uniform":
            backend = UniformBackend(_uniform_vocabulary(instances, template))
        else:  # remote
            endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV)
            if not endpoint:
                raise ConfigurationError(
                    f"--backend remote needs --endpoint or {ENDPOINT_ENV}"
                )
            backend = RemoteBackend(
                endpoint,
                capabilities=Capabilities(has_terminal_token=args.terminal),
            )
            resolved["endpoint"] = endpoint

    try:
        scored = batch_rank(
            backend,
            instances,
            template,
            method,
            parallelism=args.parallelism,
            length_normalize=args.length_normalize,
        )
    except BatchScoringError as exc:
        write_jsonl(
            out / "failures.jsonl",
            (
                {
                    "index": i,
                    "image_id": instances[i].image_id,
                    "error": type(err).__name__,
                    "message": str(err),
                }
                for i, err in exc.failures
            ),
        )
        # what did score, in input order, replacing any earlier run's scores
        write_score_cache(out / "scores.jsonl", (r for _, r in exc.completed))
        raise
    (out / "failures.jsonl").unlink(missing_ok=True)  # from an earlier, failed run
    write_score_cache(out / "scores.jsonl", scored)
    resolved.update({"method": method.value, "template": template.name})
    return resolved, f"scored {len(scored)} instances [{method.value} / {template.name}] -> {out}\n"


# -- calibrate -----------------------------------------------------------


def _cmd_calibrate(args: argparse.Namespace, out: Path) -> tuple[dict, str]:
    config = FitConfig(
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        batch_size=None if args.batch_size <= 0 else args.batch_size,
        max_steps=args.steps,
        seed=args.seed,
        init_mu=args.init_mu,
        init_sigma=args.init_sigma,
    )
    if (args.val_instances is None) != (args.val_cache is None):
        raise ConfigurationError("--val-instances and --val-cache go together")
    instances = read_instances(args.instances)
    cache = CachedScoreBackend.from_file(args.cache)
    method, template = _resolve_combo(cache, args.method, args.template)
    scored = _replay(instances, cache, method, template)
    validation = None
    if args.val_instances is not None:
        val_instances = read_instances(args.val_instances)
        same = Path(args.val_cache).resolve() == Path(args.cache).resolve()
        val_cache = cache if same else CachedScoreBackend.from_file(args.val_cache)
        validation = _replay(val_instances, val_cache, method, template)
    table, history = fit(scored, config, validation=validation)
    write_table(out / "calibration.json", table)
    history.to_csv(out / "loss_curve.csv")
    loss = f", final train loss {history.train_loss[-1]:.6f}" if history.train_loss else ""
    text = f"calibrated {len(table.classes)} classes, {args.steps} steps{loss} -> {out}\n"
    return {"method": method.value, "template": template.name}, text


# -- evaluate ------------------------------------------------------------


def _counts(raw) -> dict:
    if not isinstance(raw, dict) or not all(map(DOMAINS["an int >= 0"], raw.values())):
        raise SchemaError("counts must map words to integers >= 0")
    return raw


def _cmd_evaluate(args: argparse.Namespace, out: Path) -> tuple[dict, str]:
    instances = read_instances(args.instances)
    cache = CachedScoreBackend.from_file(args.cache)
    method, template = _resolve_combo(cache, args.method, args.template)
    scored = _replay(instances, cache, method, template)
    probs = None
    thresholds = args.threshold or []
    if args.calibration:
        probs = apply_calibration(read_table(args.calibration), scored)
        # rank by calibrated probability: most probable first
        scored = [
            replace(s, scores=tuple(float(-v) for v in pr), per_token=None)
            for s, pr in zip(scored, probs)
        ]
        thresholds = thresholds or [0.5]
    class_meta = None
    if args.class_frequencies:
        freqs = read_json(args.class_frequencies, _counts)
        class_meta = bucketize(freqs, args.head_cut, args.tail_cut)
    ks = args.k or [15]
    report = compute_report(
        scored,
        ks=tuple(ks),
        thresholds=tuple(thresholds),
        probs=probs,
        class_meta=class_meta,
        head_cut=args.head_cut,
        tail_cut=args.tail_cut,
    )
    write_json(out / "report.json", report.to_dict())
    text = report.render_text()
    with atomic_write(out / "report.txt") as fh:
        fh.write(text)
    resolved = {
        "method": method.value,
        "template": template.name,
        "k": list(ks),
        "threshold": list(thresholds),
    }
    return resolved, text


# -- report --------------------------------------------------------------


def _cmd_report(args: argparse.Namespace, out: Path) -> tuple[dict, str]:
    instances = read_instances(args.instances)
    cache = CachedScoreBackend.from_file(args.cache)
    recall = f"mR@{args.k}"
    rows, cells = [], [["method", "template", "mean_rank", recall, "mAP"]]
    for method, name in _combos(cache):
        rep = compute_report(_replay(instances, cache, method, parse_template(name)), ks=(args.k,))
        row = {
            "method": method.value,
            "template": name,
            "mean_rank": rep.mean_rank,
            recall: rep.mean_recall_at_k[args.k],
            "mAP": rep.mean_ap,
        }
        rows.append(row)
        cells.append([method.value, name, *(f"{row[h]:.4f}" for h in cells[0][2:])])
    write_json(out / "comparison.json", {"k": args.k, "rows": rows})
    text = format_table(cells)
    with atomic_write(out / "comparison.txt") as fh:
        fh.write(text)
    return {}, text


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genret",
        description="Generative ranking of region descriptions: data, scoring, "
        "calibration, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed_help: str | None = None) -> None:
        p.add_argument("--out", required=True, help="output directory")
        if seed_help:
            p.add_argument("--seed", type=int, default=0, help=seed_help)

    def inputs(p: argparse.ArgumentParser, cache_help: str, cache_required: bool = True) -> None:
        p.add_argument("--instances", required=True, help="instances JSONL")
        p.add_argument("--cache", required=cache_required, help=cache_help)

    def combo(p: argparse.ArgumentParser) -> None:
        p.add_argument("--method", choices=[m.value for m in Method], default=None)
        p.add_argument("--template", default=None, help='template spec, e.g. "{O} is {A}"')

    p = sub.add_parser("gen-world", help="sample a synthetic world, its scenes, and instances")
    common(p, "seeds the world, its scenes and the candidate shuffles")
    p.add_argument("--objects", type=int, default=20)
    p.add_argument("--attributes", type=int, default=60)
    p.add_argument("--attrs-per-object", type=int, default=5)
    p.add_argument("--scenes", type=int, default=40)
    p.add_argument("--min-entities", type=int, default=2)
    p.add_argument("--max-entities", type=int, default=4)
    p.add_argument(
        "--candidates",
        type=int,
        default=50,
        help="candidate list length; must not exceed the ranked vocabulary",
    )
    p.add_argument(
        "--anchor-kind",
        choices=[k.value for k in AnchorKind],
        default=AnchorKind.OBJECT.value,
        help="object anchors rank attributes; attribute anchors rank objects",
    )
    p.set_defaults(func=_cmd_gen_world)

    p = sub.add_parser("build-dataset", help="build ranking instances from a scene graph")
    common(p, "seeds the candidate shuffles")
    p.add_argument("--scene-graph", required=True, help="scene-graph JSON file")
    p.add_argument(
        "--mode",
        choices=[k.value for k in AnchorKind],
        default=AnchorKind.ATTRIBUTE.value,
        help="the ranked kind: attribute ranks attributes per object box",
    )
    p.add_argument("--total", type=int, default=50, help="candidates per instance")
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("score", help="score instances with a chosen backend")
    common(p, "unused: scoring draws nothing")
    inputs(p, "scores JSONL to replay (cached)", cache_required=False)
    p.add_argument(
        "--backend", required=True, choices=["oracle", "uniform", "cached", "remote"]
    )
    combo(p)
    p.add_argument(
        "--length-normalize",
        action="store_true",
        help="divide each generative sentence loss by its token count "
        "(not with contrastive scoring or --backend cached)",
    )
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--world", help="world JSON (oracle)")
    p.add_argument("--scenes", help="scenes JSONL (oracle)")
    p.add_argument("--smoothing", type=float, default=1e-6, help="oracle smoothing")
    p.add_argument("--endpoint", help=f"scoring service URL (remote; or {ENDPOINT_ENV})")
    p.add_argument(
        "--terminal",
        action="store_true",
        help="remote service models an end-of-sentence token; its terminal "
        "probabilities enter the loss",
    )
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("calibrate", help="fit per-class probability calibration")
    common(p, "seeds the batch shuffles (a full batch draws nothing)")
    inputs(p, "scores JSONL to fit on")
    combo(p)
    p.add_argument("--val-instances", default=None)
    p.add_argument("--val-cache", default=None)
    p.add_argument("--lr", type=float, default=1e-5)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=4, help="0 or less: full batch")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--init-mu", type=float, default=-15.0)
    p.add_argument("--init-sigma", type=float, default=0.5)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("evaluate", help="compute the metric report for one cache")
    common(p)
    inputs(p, "scores JSONL to evaluate")
    combo(p)
    p.add_argument("--k", type=int, action="append", help="recall cutoff, repeatable")
    p.add_argument(
        "--threshold", type=float, action="append",
        help="probability cutoff, repeatable; needs --calibration",
    )
    p.add_argument("--head-cut", type=int, default=5000)
    p.add_argument("--tail-cut", type=int, default=500)
    p.add_argument("--calibration", help="calibration JSON; ranks by probability")
    p.add_argument("--class-frequencies", help="counts JSON for bucket breakdowns")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="side-by-side table over every cached combo")
    common(p)
    inputs(p, "scores JSONL, one or more combos")
    p.add_argument("--k", type=int, default=15)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        out = Path(args.out)
        resolved, text = args.func(args, out)
        options = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
        options.update(resolved)
        write_json(out / "config.json", {"command": args.command, "options": options})
    except SchemaError as exc:
        print(f"error[schema]: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 3
    except GenretError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    print(text, end="")
    return 0


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
