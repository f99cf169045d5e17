"""sha256 of every artifact the CLI chain writes, for a given rulkit source tree.

Runs, in a temporary directory and with `--src` first on PYTHONPATH:

    simulate (default corpus) -> preprocess --seed 1
    -> train --epochs 2 --seed 1 (mlp and lstm) -> evaluate -> predict

and prints one `<sha256>  <artifact>` line for each of 21 artifacts: the 3
corpus files, the 8 bundle files, then history.csv, checkpoint.json,
eval_report.json, predictions.csv and the stdout of `predict` for each
model kind. A refactor that should leave the numbers alone leaves every
line unchanged, so compare a change against its parent with

    git archive <parent> src | tar -x -C /tmp/parent
    python benchmarks/artifact_digest.py --src /tmp/parent/src > parent.txt
    python benchmarks/artifact_digest.py > change.txt
    diff parent.txt change.txt

The LSTM's two epochs take most of the time, about 10 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS_FILES = ("train_FD001.txt", "test_FD001.txt", "RUL_FD001.txt")
BUNDLE_FILES = ("meta.json", "scaler.json") + tuple(
    f"{split}_{kind}.npy" for split in ("train", "val") for kind in ("rows", "rul", "engines")
)
RUN_FILES = ("history.csv", "checkpoint.json")
REPORT_FILES = ("eval_report.json", "predictions.csv")
KINDS = ("mlp", "lstm")


def _rulkit(src: Path, *args: str) -> bytes:
    """stdout of `python -m rulkit.cli args` run against the tree at `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "rulkit.cli", *args], env=env, capture_output=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(f"rulkit {args[0]} failed:\n{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def digests(src: Path, work: Path) -> list[tuple[str, str]]:
    """(artifact name, sha256) of every artifact of the chain, in a fixed order."""
    corpus, bundle = work / "corpus", work / "bundle"
    _rulkit(src, "simulate", "--out", str(corpus))
    _rulkit(src, "preprocess", "--train-file", str(corpus / "train_FD001.txt"),
            "--out", str(bundle), "--seed", "1")
    out = [(f"corpus/{name}", (corpus / name).read_bytes()) for name in CORPUS_FILES]
    out += [(f"bundle/{name}", (bundle / name).read_bytes()) for name in BUNDLE_FILES]
    scoring = ("--test-file", str(corpus / "test_FD001.txt"),
               "--scaler", str(bundle / "scaler.json"))
    for kind in KINDS:
        run, report = work / f"{kind}_run", work / f"{kind}_report"
        checkpoint = str(run / "checkpoint.json")
        _rulkit(src, "train", "--bundle", str(bundle), "--out", str(run), "--model", kind,
                "--epochs", "2", "--seed", "1")
        _rulkit(src, "evaluate", "--checkpoint", checkpoint, *scoring,
                "--rul-file", str(corpus / "RUL_FD001.txt"), "--out", str(report))
        stdout = _rulkit(src, "predict", "--checkpoint", checkpoint, *scoring)
        out += [(f"{kind}/{name}", (run / name).read_bytes()) for name in RUN_FILES]
        out += [(f"{kind}/{name}", (report / name).read_bytes()) for name in REPORT_FILES]
        out.append((f"{kind}/predict.stdout", stdout))
    return [(name, hashlib.sha256(data).hexdigest()) for name, data in out]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the rulkit package to run (default: this checkout's src)",
    )
    args = parser.parse_args(argv)
    if not (args.src / "rulkit" / "__init__.py").is_file():
        parser.error(f"{args.src} holds no rulkit package")
    with tempfile.TemporaryDirectory(prefix="rulkit-digest-") as work:
        for name, digest in digests(args.src.resolve(), Path(work)):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
