"""The benchmark harness runs end to end on the smoke corpus and sees every model call.

perfbench traces the model layers by replacing `rulkit.models.lstm_forward`
and its siblings; a model dispatch that bypassed those module attributes
would leave their call counts at zero. The harness is copied into a
temporary directory with `src/` linked beside it, so its work files stay
out of the repository.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL_CALLS = [f"models.{kind}_{step}.calls"
               for kind in ("lstm", "mlp") for step in ("forward", "backward")]


def test_perfbench_smoke_run_traces_every_model_call(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "all",
         "--smoke", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "workloads: 0 of 3 failed or incorrect" in proc.stdout
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == 3 and all(r["correct"] and r["failed"] == 0 for r in results)
    lstm_train, mlp_pipeline, verify = (r["metrics"] for r in results)
    for name in MODEL_CALLS:
        assert verify[name]["value"] > 0, name
    for name in MODEL_CALLS[:2]:
        assert lstm_train[name]["value"] > 0, name
    for name in MODEL_CALLS[2:]:
        assert mlp_pipeline[name]["value"] > 0, name
