"""sha256 of every artifact the CLI chain writes, for a given rulkit source tree.

Runs, in a temporary directory and with `--src` first on PYTHONPATH:

    simulate (default corpus) -> preprocess --seed 1
    -> train --epochs 2 --seed 1 (mlp and lstm) -> evaluate -> predict
    verify

and prints one `<sha256>  <artifact>` line for each of 22 artifacts: the 3
corpus files, the 8 bundle files, then history.csv, checkpoint.json,
eval_report.json, predictions.csv and the stdout of `predict` for each
model kind, and last the stdout of `verify` at its defaults, which prints
each worst gradient error to four significant digits. A refactor that
should leave the numbers alone leaves every line unchanged, so compare a
change against its parent with

    python benchmarks/artifact_digest.py --against <parent>

which digests `git archive <parent> src` as well, prints each line of either
tree that differs (`-` for <parent>, `+` for this tree) and exits 1 if any do.

Each CLI step's peak resident set size goes to stderr, one line per step,
so memory can be compared the same way without touching stdout.
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
REPO = Path(__file__).resolve().parents[1]


def _rulkit(src: Path, *args: str) -> bytes:
    """stdout of `python -m rulkit.cli args` run against the tree at `src`.

    The child's peak RSS, from the rusage that os.wait4 reaps it with, goes to
    stderr, so stdout stays one digest line per artifact.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "rulkit.cli", *args],
                                env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise SystemExit(f"rulkit {args[0]} failed:\n{err.read().decode(errors='replace')}")
        step = " ".join(Path(a).name if os.sep in a else a for a in args)
        print(f"peak RSS {usage.ru_maxrss / 1024:7.1f} MB  rulkit {step}", file=sys.stderr)
        return out.read()


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
    out.append(("verify.stdout", _rulkit(src, "verify")))
    return [(name, hashlib.sha256(data).hexdigest()) for name, data in out]


def _archive_src(rev: str, dest: Path) -> Path:
    """Extract `git archive rev src` of this checkout under dest; return its src."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=REPO, capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"git archive {rev} failed:\n{archive.stderr.decode(errors='replace')}")
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=REPO / "src",
        help="directory holding the rulkit package to run (default: this checkout's src)",
    )
    parser.add_argument(
        "--against", metavar="REV",
        help="also digest `git archive REV src` and print only the lines that differ",
    )
    args = parser.parse_args(argv)
    if not (args.src / "rulkit" / "__init__.py").is_file():
        parser.error(f"{args.src} holds no rulkit package")
    with tempfile.TemporaryDirectory(prefix="rulkit-digest-") as work:
        trees = {"ours": args.src.resolve()}
        if args.against is not None:
            trees = {"theirs": _archive_src(args.against, Path(work) / "archive"), **trees}
        lines = {}
        for label, src in trees.items():
            print(f"digesting {src}", file=sys.stderr)
            lines[label] = [f"{digest}  {name}"
                            for name, digest in digests(src, Path(work) / label)]
    if args.against is None:
        print("\n".join(lines["ours"]))
        return 0
    changed = [(a, b) for a, b in zip(lines["theirs"], lines["ours"]) if a != b]
    for a, b in changed:
        print(f"-{a}\n+{b}")
    print(f"{len(changed)} of {len(lines['ours'])} artifacts differ from {args.against}",
          file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
