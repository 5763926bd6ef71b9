"""Golden-run digests: the whole command chain at two seeds, every artifact
pinned by its sha256.

One run is `gen-world` -> `build-dataset` -> `score` three times on the
oracle -> `score --backend uniform` -> `score --backend cached` of each of
those four from their merged cache -> a
generative and a contrastive remote `score` through a LoopbackServer ->
`calibrate` -> `evaluate` -> `report`, on a small world, inside a fresh
directory given relative paths.
Each `config.json` is digested as sorted JSON without the entries that
name where the run happened: `out` everywhere, and the remote runs'
`endpoint` (a free port).  A change that alters an artifact on purpose
updates GOLDEN in the same change, printed by `python tests/test_golden.py`,
and names each changed file.

`calibration.json`, `loss_curve.csv` and `report.json` go through numpy's
`exp` and `logaddexp`, whose code paths depend on the CPU; a digest of
theirs that differs on another host is a finding about the determinism
claim, not a reason to loosen this test.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from genret import LoopbackServer, OracleBackend, read_scenes, read_world
from genret.cli import main

pytestmark = pytest.mark.filterwarnings("ignore:class .* has positives:RuntimeWarning")

SEEDS = (1, 1009)

# config.json entries that record where a run happened, not what it did
PLACES = {"out", "endpoint"}


# each replay's output directory -> the run whose scores it replays, which
# it writes byte for byte: lines with per_token rows (the generative runs)
# and with null rows (the contrastive one)
REPLAYS = {
    "replayed": "gen3",
    "replayed_gen": "gen",
    "replayed_con": "con",
    "replayed_uniform": "uniform",
}


def _run(*argv: str) -> None:
    assert main(list(argv)) == 0, argv


def run_chain(seed: int) -> None:
    """The chain, in the current directory."""
    s = str(seed)
    _run("gen-world", "--out", "world", "--seed", s, "--objects", "8", "--attributes", "18",
         "--attrs-per-object", "4", "--scenes", "6", "--min-entities", "2",
         "--max-entities", "3", "--candidates", "10")
    _run("build-dataset", "--out", "data", "--seed", s,
         "--scene-graph", "world/scene_graph.json")
    oracle = ["--instances", "data/instances.jsonl", "--backend", "oracle",
              "--world", "world/world.json", "--scenes", "world/scenes.jsonl"]
    combos = {
        "gen": ("generative", "{O} is {A}"),
        "gen3": ("generative", "{A} {O} is {A}"),
        "con": ("contrastive", "{A} {O}"),
    }
    for out, (method, template) in combos.items():
        _run("score", "--out", out, *oracle, "--method", method, "--template", template)
    _run("score", "--out", "uniform", "--instances", "data/instances.jsonl",
         "--backend", "uniform", "--method", "generative", "--template", "{A} {O}")
    Path("merged.jsonl").write_bytes(
        b"".join(Path(out, "scores.jsonl").read_bytes() for out in [*combos, "uniform"])
    )
    for out, source in REPLAYS.items():
        method, template = {**combos, "uniform": ("generative", "{A} {O}")}[source]
        _run("score", "--out", out, "--instances", "data/instances.jsonl",
             "--backend", "cached", "--cache", "merged.jsonl", "--method", method,
             "--template", template)
    backend = OracleBackend(read_world("world/world.json"), read_scenes("world/scenes.jsonl"))
    with LoopbackServer(backend) as url:
        _run("score", "--out", "remote", "--instances", "data/instances.jsonl",
             "--backend", "remote", "--endpoint", url, "--terminal",
             "--method", "generative", "--template", "{O} is {A}")
        _run("score", "--out", "remote_con", "--instances", "data/instances.jsonl",
             "--backend", "remote", "--endpoint", url,
             "--method", "contrastive", "--template", "{A} {O}")
    _run("calibrate", "--out", "cal", "--instances", "data/instances.jsonl",
         "--cache", "gen/scores.jsonl", "--lr", "0.3", "--batch-size", "0", "--steps", "60")
    _run("evaluate", "--out", "eval", "--instances", "data/instances.jsonl",
         "--cache", "gen/scores.jsonl", "--calibration", "cal/calibration.json",
         "--threshold", "0.5", "--k", "1", "--k", "3", "--class-frequencies", "data/counts.json")
    _run("report", "--out", "report", "--instances", "data/instances.jsonl",
         "--cache", "merged.jsonl")


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "config.json":
            config = json.loads(data)
            for key in PLACES:
                config["options"].pop(key, None)
            data = json.dumps(config, sort_keys=True).encode()
        out[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


GOLDEN: dict[int, dict[str, str]] = {
    1: {
        "cal/calibration.json": "8818ec2523d445d51f870de629cb286b08c2cadc3d8d8e9ad6b0c000d86188e2",
        "cal/config.json": "9b127da3ad35862694843aa87fc5b9f44dd6c646fb6dc8f3fc1a3b82ad6ff897",
        "cal/loss_curve.csv": "13895c4fa7c3c9e0587dd40e11594610eeac583694aa6a16bad4e05b8fe310d1",
        "con/config.json": "8dc22f6bec32aa511827f23eeba10430280811f4adaf30500b487aca25d5b830",
        "con/scores.jsonl": "bc45ec14035eb3bc930f6bd1141502124a4cc763cfb6de94c8600ed584e9f8dd",
        "data/config.json": "15be9acb60f3f149b3c792b4a7378189cae6b93af2704fdae07931a514541d29",
        "data/counts.json": "58db056c08553df4ec5bafb73c1bfaa815003f2afca3cfddb2e0217ddadda493",
        "data/instances.jsonl": "edcf450c1dfc7c4de536b42344a3efa0c623d2297036d6c90de84a5e1524e815",
        "data/manifest.json": "493db37482829ffa9198da8196ff03f2f97dad67a0e5a64f80ff51f262c8d879",
        "eval/config.json": "10ae45614074157116f6c89ae06169a9bc2427d6d2beabe325afaf4a4bf2c102",
        "eval/report.json": "9fa3c5ae641ced0187809f9d4f8acf82596891880bd1a2d7526e04a86ed94f4c",
        "eval/report.txt": "190a908207b93cc60eed62510fdf37173ba6a9187daf278e0f1578999980da1e",
        "gen/config.json": "84f7e617a0b244cea3b3742a6984ca1707d5d688663b1faf1101ff1a593b2fa3",
        "gen/scores.jsonl": "2413257398871c8308619b30d7c230bcd5a896e7bc9a25cfadf462e28b9cf372",
        "gen3/config.json": "b4eb76947cf32ad4cefe0769d4f57c44d2b46f9c84b29a60623451df39e5e6db",
        "gen3/scores.jsonl": "417dd16c229c90d0501853eac31013e79876c8b5117afb92a84feeb1ac1e8f4b",
        "merged.jsonl": "08d18e04273bcb0fe143a52142c3edfa29c40c0fa6cc39c739980cc55a71ff9e",
        "remote/config.json": "72fdc1224b8d226a1f3beccca66ad2173e4d83989c3ef9fdcb34c8d6b51d5920",
        "remote/scores.jsonl": "2413257398871c8308619b30d7c230bcd5a896e7bc9a25cfadf462e28b9cf372",
        "remote_con/config.json": "39c879984e57611ba06f6d139ef1a0a806711553a6c05a4923aa1ab6ee02e4ec",
        "remote_con/scores.jsonl": "bc45ec14035eb3bc930f6bd1141502124a4cc763cfb6de94c8600ed584e9f8dd",
        "replayed/config.json": "3c1b0380665b2a1c5fd45a24069809a96207caea8cd81ab3107b91a3a147887b",
        "replayed/scores.jsonl": "417dd16c229c90d0501853eac31013e79876c8b5117afb92a84feeb1ac1e8f4b",
        "replayed_con/config.json": "e99b85116af8f065fe66aaeaa963b3b87901994bd8709c74ade6309af7812792",
        "replayed_con/scores.jsonl": "bc45ec14035eb3bc930f6bd1141502124a4cc763cfb6de94c8600ed584e9f8dd",
        "replayed_gen/config.json": "11263e7c2dad5eb875cf74fc8b2d8f643906b98de19cfc70b5cfbef02710f2de",
        "replayed_gen/scores.jsonl": "2413257398871c8308619b30d7c230bcd5a896e7bc9a25cfadf462e28b9cf372",
        "replayed_uniform/config.json": "83ff1a3439474bff61f7f2fcd4b0b1dfc491da4eb7cf0d047c29a5dc21d39d9d",
        "replayed_uniform/scores.jsonl": "6d78dc1a52a53e56576b4c1d7f9f8a8a07d27ec9a97f6e462eed53258752ae76",
        "report/comparison.json": "49a20e74bc135753fa7983c688d61fd4a42dbf7217b84ee29310aaf6e2e6f929",
        "report/comparison.txt": "6ee334961a14a88008337d1af1484d8dc1771b9d93adbce7a97188b0bca28a7f",
        "report/config.json": "bd7b20779ecab544e791696c8417c449a221be3fa1f5a11a3f7c686497f9ea50",
        "uniform/config.json": "1d1d33be49f51836fe86e50fafcd8252b21c1468ba0d8b418a847c687d8b0ebc",
        "uniform/scores.jsonl": "6d78dc1a52a53e56576b4c1d7f9f8a8a07d27ec9a97f6e462eed53258752ae76",
        "world/config.json": "bb39579ac82f3a8128fb4545de577c6789897198ad6e6b923afa210e1440eda6",
        "world/instances.jsonl": "b9593a22415566cd47101eacbfe6e345211f974e7a3ee71ac259c5e49c826608",
        "world/scene_graph.json": "29eab8ee2ff0b0b929d4799e0727abc369b211cc1b9eb5c000339b8665ec5535",
        "world/scenes.jsonl": "3acd8a05c76fbab840f2c6b093868f3d0496ae41597c949ce9fe71f4f594320a",
        "world/world.json": "d623e5665d1150f95585683ce7c9e2dffe18772d27fd33739388aec1ed4a4ab2",
    },
    1009: {
        "cal/calibration.json": "f687873266564046d77fd210633b7bcfccde9d5762e8db55d2c00253191fe904",
        "cal/config.json": "9b127da3ad35862694843aa87fc5b9f44dd6c646fb6dc8f3fc1a3b82ad6ff897",
        "cal/loss_curve.csv": "bdf1cc9093dea2ea6f59e2e5d45ae6562ae96da3241c54c25e0bd809650666e5",
        "con/config.json": "8dc22f6bec32aa511827f23eeba10430280811f4adaf30500b487aca25d5b830",
        "con/scores.jsonl": "a286f15e77f547b4f608b5278f1619bde003c0bcdf9521e7e1553ed1806a00b9",
        "data/config.json": "3d606514fd5522220a8aa311e0879514daa7ccfd1eef42fec19f7b008c0cb106",
        "data/counts.json": "4ae803c7116c3c87e2560f7ad7c0a4dabd1601f46205bffc450d1bbd29ce7912",
        "data/instances.jsonl": "38d0950b033a17dec3d765c8c5e4a92d6651db7e49b402cd1302c06267fe8a2b",
        "data/manifest.json": "49c98903aae67efc9390b4b04cde8e58c8267416cdaa2a81b2d3348c676d8b18",
        "eval/config.json": "10ae45614074157116f6c89ae06169a9bc2427d6d2beabe325afaf4a4bf2c102",
        "eval/report.json": "1ca4f6545f8039f29a6bc08a64a46ffe55f3bebe7186f3af27ca965c80e653f5",
        "eval/report.txt": "00462ca43732adf69e139809a2d9089f9fc326ba6dd412dc57cd58afb1990482",
        "gen/config.json": "84f7e617a0b244cea3b3742a6984ca1707d5d688663b1faf1101ff1a593b2fa3",
        "gen/scores.jsonl": "6bcb47d96c48f13b8fb71c1367ff70fe37e92ae29f69e926bac1da760520ff8b",
        "gen3/config.json": "b4eb76947cf32ad4cefe0769d4f57c44d2b46f9c84b29a60623451df39e5e6db",
        "gen3/scores.jsonl": "3b90765acc47e1638b50e079f04a3406a7c043a48dfdf8802adb87b5e6fa1a7e",
        "merged.jsonl": "5ca6ccb173bba3b1937a8633800654a9d5114959160f43069656bc772d1b1c0f",
        "remote/config.json": "72fdc1224b8d226a1f3beccca66ad2173e4d83989c3ef9fdcb34c8d6b51d5920",
        "remote/scores.jsonl": "6bcb47d96c48f13b8fb71c1367ff70fe37e92ae29f69e926bac1da760520ff8b",
        "remote_con/config.json": "39c879984e57611ba06f6d139ef1a0a806711553a6c05a4923aa1ab6ee02e4ec",
        "remote_con/scores.jsonl": "a286f15e77f547b4f608b5278f1619bde003c0bcdf9521e7e1553ed1806a00b9",
        "replayed/config.json": "3c1b0380665b2a1c5fd45a24069809a96207caea8cd81ab3107b91a3a147887b",
        "replayed/scores.jsonl": "3b90765acc47e1638b50e079f04a3406a7c043a48dfdf8802adb87b5e6fa1a7e",
        "replayed_con/config.json": "e99b85116af8f065fe66aaeaa963b3b87901994bd8709c74ade6309af7812792",
        "replayed_con/scores.jsonl": "a286f15e77f547b4f608b5278f1619bde003c0bcdf9521e7e1553ed1806a00b9",
        "replayed_gen/config.json": "11263e7c2dad5eb875cf74fc8b2d8f643906b98de19cfc70b5cfbef02710f2de",
        "replayed_gen/scores.jsonl": "6bcb47d96c48f13b8fb71c1367ff70fe37e92ae29f69e926bac1da760520ff8b",
        "replayed_uniform/config.json": "83ff1a3439474bff61f7f2fcd4b0b1dfc491da4eb7cf0d047c29a5dc21d39d9d",
        "replayed_uniform/scores.jsonl": "e6a5f6e58581772da44f24bc6c621aae6bb61cde6e0ec9d21a7309d7473156c7",
        "report/comparison.json": "86ce5dac536764e2a20f1618e8d956ad4ceed3c2ad9273088720caccd34713fa",
        "report/comparison.txt": "100c7aeccd6b64b705c2b4678d64b64cb28a3765486bf5d0c24ce9daa7fd3597",
        "report/config.json": "bd7b20779ecab544e791696c8417c449a221be3fa1f5a11a3f7c686497f9ea50",
        "uniform/config.json": "1d1d33be49f51836fe86e50fafcd8252b21c1468ba0d8b418a847c687d8b0ebc",
        "uniform/scores.jsonl": "e6a5f6e58581772da44f24bc6c621aae6bb61cde6e0ec9d21a7309d7473156c7",
        "world/config.json": "af567c24506aef6ae590d3dfd955663701b5bc207ea6cb6c8322472402eae031",
        "world/instances.jsonl": "7bbe6439406d8f943f8abd02808b025361e44a9650aa4c5a2760bc9ef919fc96",
        "world/scene_graph.json": "3bf4b9674bbdec82156367e380c4c631d6476227fc481502b1aa08555b83e9a1",
        "world/scenes.jsonl": "015045e37a702de4f1a9dad2fa8131623bf1ff0a020df601ab5362f1a9f5e854",
        "world/world.json": "2a340b7d1654d5dbe3c318c9f77d0dc086698d010f1f69f8f31702abb4bec164",
    },
}


@pytest.mark.parametrize("seed", SEEDS)
def test_every_artifact_of_a_golden_run_is_pinned(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_chain(seed)
    got = digests(tmp_path)
    assert got == GOLDEN[seed]
    for out, source in REPLAYS.items():
        assert got[f"{out}/scores.jsonl"] == got[f"{source}/scores.jsonl"], out


if __name__ == "__main__":
    import contextlib
    import os
    import tempfile

    print("GOLDEN: dict[int, dict[str, str]] = {")
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            home = os.getcwd()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(None):
                    run_chain(seed)
            finally:
                os.chdir(home)
            print(f"    {seed}: {{")
            for name, digest in digests(Path(tmp)).items():
                print(f'        "{name}": "{digest}",')
            print("    },")
    print("}")
