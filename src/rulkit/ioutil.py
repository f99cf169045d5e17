"""Small file and hashing helpers used by every artifact writer.

Artifacts are written atomically (temp file + rename) so an interrupted run
never leaves a truncated checkpoint or CSV behind. Floats destined for CSV
are printed with 17 significant digits, which round-trips IEEE doubles.
JSON files are read through read_json, whose errors name the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from .errors import ValidationError


def fmt_double(x: float) -> str:
    """Format a double with 17 significant digits (lossless round-trip)."""
    return f"{float(x):.17g}"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace drift, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def read_json(path: Path | str) -> Any:
    """Decode a JSON file; malformed content raises ValidationError naming it."""
    return read_json_text(path)[0]


def read_json_text(path: Path | str) -> tuple[Any, str]:
    """read_json's value and the text it was decoded from, from one read."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text), text
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write text to `path` via a temp file in the same directory + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
