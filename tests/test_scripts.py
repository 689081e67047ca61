"""Each script under scripts/ runs to exit 0 in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, *argv):
    env = dict(os.environ, FREEJORDAN_CACHE=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scripts_run(tmp_path):
    _run(tmp_path, "scripts/inner_vs_b.py", "2", "4")
    _run(tmp_path, "scripts/counterexample_story.py")
    path = tmp_path / "J.json"
    _run(tmp_path, "scripts/export_tag_input.py", "free-2-3", str(path))
    out = _run(tmp_path, "-m", "freejordan.cli", "tag", "--input", str(path),
               "--homology", "1", "--json")
    assert json.loads(out)["homology_dims"][0] == 1
