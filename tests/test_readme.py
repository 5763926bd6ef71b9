"""The README's CLI pipeline runs as written, every step exiting 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cli_pipeline_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI pipeline\n", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.S).group(1)


def test_readme_cli_pipeline_runs(tmp_path):
    script = (
        "set -e\n"
        f'genret() {{ {shlex.quote(sys.executable)} -m genret "$@"; }}\n'
        + _cli_pipeline_block()
    )
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        ["bash", "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rep" / "comparison.txt").is_file()
