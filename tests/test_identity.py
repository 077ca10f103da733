"""The seven presets' emitted files at ``--scale 10`` against the committed
identity manifest (``tests/identity_manifest.py`` writes and checks it)."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("identity_manifest.py")


def test_presets_match_identity_manifest(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr
