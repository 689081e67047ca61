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
    # one builder on g = 1, 2, 3 generators; H_0 = 1 and H_1 = 3g for free
    # truncations
    for kind, g in (("free-2-3", 2), ("free-3-3", 3), ("free-1-4", 1)):
        path = tmp_path / ("%s.json" % kind)
        _run(tmp_path, "scripts/export_tag_input.py", kind, str(path))
        out = _run(tmp_path, "-m", "freejordan.cli", "tag", "--input", str(path),
                   "--homology", "1", "--json")
        assert json.loads(out)["homology_dims"] == [1, 3 * g], kind
