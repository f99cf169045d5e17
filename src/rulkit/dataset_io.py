"""Parsing and validation for the turbofan dataset text files.

File layout (train/test trajectory files):
    26 whitespace-delimited numeric columns per row, no header:
    unit id, cycle, 3 operating settings, 21 sensor channels.
    Rows are grouped by engine, cycle-ascending, cycles starting at 1.
    Unit ids and cycles are integers in [1, 2^63), so they fit an int64.

The companion RUL file holds one non-negative integer per line: the
remaining life of the i-th test engine at its last recorded cycle.

Each engine is held as its id and one read-only (L, 24) value matrix, the
file's columns 3-26 (the settings, then the sensors), one row per cycle,
oldest first. The parser checks the cycle column and keeps no copy of it:
a cycle is its row's position, so a head-trimmed trajectory is a view of
its parent's rows.

Parsing is fail-fast: a malformed row raises ParseError with its line
number, and structural violations (cycle gaps, duplicated engine blocks)
raise ValidationError naming the engine. When a file has several faults,
the one reported is the first a line-by-line reader meets; read_* puts
the file's path in front of the message. Values are kept at full double
precision; downstream gradient checks depend on it.

The fast path is one np.loadtxt call and one vectorised screen of the
rows it returns. Only a file that loadtxt rejects, or whose rows fail the
screen, goes to the plain line-by-line reader, which holds the per-row
rules and raises the first fault (see parse_trajectory_file).
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from math import isfinite
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

N_SETTINGS = 3
N_SENSORS = 21
N_VALUES = N_SETTINGS + N_SENSORS
N_COLUMNS = 2 + N_VALUES
# Unit ids and cycles must lie below this bound, so that they fit an int64.
_ID_LIMIT = 2.0**63


@dataclass(frozen=True, eq=False)
class EngineTrajectory:
    """One engine: its integral id and its values (L, 24) float64, one row
    per cycle, oldest first; the 3 operating settings then the 21 sensor
    readings, in preprocess.FEATURE_NAMES order.

    The values are read-only (writing raises ValueError): trimmed copies
    are views that share them. A writable array passed in is copied.
    """

    engine_id: int
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.engine_id, numbers.Integral) or isinstance(self.engine_id, bool):
            raise ValidationError(f"engine id must be an integer, got {self.engine_id!r}")
        engine_id = int(self.engine_id)
        if not 1 <= engine_id < _ID_LIMIT:
            raise ValidationError(f"engine id must be positive and below 2^63, got {engine_id}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
        object.__setattr__(self, "engine_id", engine_id)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != N_VALUES:
            raise ValidationError(
                f"engine {engine_id}: expected {N_SETTINGS} operating settings and "
                f"{N_SENSORS} sensor values per cycle, got values of shape {values.shape}"
            )
        if values.shape[0] == 0:
            raise ValidationError(f"engine {engine_id}: empty trajectory")
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))  # flat index of the first non-finite entry
            raise ValidationError(f"engine {engine_id}: non-finite value "
                                  f"{float(values.flat[i])!r} in values[{i // N_VALUES}]")

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class RulLabelFile:
    """Ordered remaining-life labels; i-th label pairs with i-th test engine."""

    ruls: tuple[int, ...]

    def __post_init__(self):
        if not self.ruls:
            raise ValidationError("RUL label file is empty")
        for i, r in enumerate(self.ruls):
            if r < 0:
                raise ValidationError(f"label {i + 1}: RUL must be non-negative, got {r}")

    def __len__(self) -> int:
        return len(self.ruls)


def _passes_screen(rows: np.ndarray) -> bool:
    """Whether np.loadtxt's rows can be used as they are: there are rows, each
    26 wide, and they pass every per-row check: unit ids and cycles
    are integers in [1, 2^63), no engine appears in two blocks, and every
    setting and sensor value is finite."""
    if rows.shape[0] == 0 or rows.shape[1] != N_COLUMNS:
        return False
    id_cycle = rows[:, :2]
    if not ((id_cycle >= 1) & (id_cycle < _ID_LIMIT) & (id_cycle == np.trunc(id_cycle))).all():
        return False
    block_ids = rows[np.flatnonzero(np.diff(rows[:, 0], prepend=0.0)), 0]
    return len(np.unique(block_ids)) == len(block_ids) and bool(np.isfinite(rows[:, 2:]).all())


def _read_lines(lines: list[str]) -> np.ndarray:
    """Every data row, read line by line with Python's float(). Each line is
    checked for its column count, its tokens, its unit id, its cycle, a
    repeated engine block and non-finite values, in that order; the first
    fault raises, naming its line."""
    rows = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != N_COLUMNS:
            raise ParseError(f"line {lineno}: expected {N_COLUMNS} columns, got {len(tokens)}")
        try:
            values = list(map(float, tokens))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-numeric token ({exc})") from None
        for what, v in (("unit id", values[0]), ("cycle", values[1])):
            if not (1 <= v < _ID_LIMIT and v.is_integer()):
                raise ParseError(f"line {lineno}: {what} must be a positive integer")
        engine_id = values[0]
        if engine_id in seen and engine_id != rows[-1][0]:
            raise ValidationError(
                f"line {lineno}: engine {int(engine_id)} appears in more than one block"
            )
        seen.add(engine_id)
        if not all(map(isfinite, values[2:])):
            bad = next(v for v in values[2:] if not isfinite(v))
            raise ParseError(f"line {lineno}: non-finite value {bad!r} at cycle {int(values[1])}")
        rows.append(values)
    if not rows:
        raise ValidationError("trajectory file contains no data rows")
    return np.array(rows, dtype=np.float64)


def _engine_blocks(rows: np.ndarray) -> list[EngineTrajectory]:
    """Checked rows as one trajectory per engine block, in engine-id order.
    Each block's cycles must run 1, 2, 3, ...; the first block to break
    that raises."""
    starts = np.flatnonzero(np.diff(rows[:, 0], prepend=0.0))
    ends = np.append(starts[1:], rows.shape[0])
    trajectories = []
    for k in np.argsort(rows[starts, 0]):
        block = rows[starts[k] : ends[k]]
        engine_id, cycles = int(block[0, 0]), block[:, 1]
        if cycles[0] != 1:
            raise ValidationError(f"engine {engine_id}: first cycle must be 1, "
                                  f"got {int(cycles[0])}")
        gaps = np.flatnonzero(np.diff(cycles) != 1)
        if gaps.size:
            i = gaps[0]
            raise ValidationError(f"engine {engine_id}: non-contiguous cycles "
                                  f"{int(cycles[i])} -> {int(cycles[i + 1])}")
        trajectories.append(EngineTrajectory(engine_id, block[:, 2:]))
    return trajectories


def parse_trajectory_file(text: str) -> list[EngineTrajectory]:
    """Parse raw trajectory file contents into per-engine trajectories.

    Lines are those of str.splitlines(). Tolerates repeated delimiters,
    blank lines and trailing whitespace (the published files use
    double-space separators). Every row must contribute to the output;
    engine blocks may appear in any order but must not repeat. Unit ids
    and cycles must be integers in [1, 2^63), so that they fit an int64.

    One np.loadtxt call reads the lines, and one vectorised screen checks
    the rows it returns. A file that loadtxt rejects, or whose rows fail
    the screen, is read again line by line with Python's float(), which
    raises the first fault with its line number. Both readers give the
    same values: they share CPython's string-to-double conversion, and
    the spellings only float() accepts (underscores, non-ASCII digits)
    make loadtxt fail.
    """
    lines = text.splitlines()
    try:
        with warnings.catch_warnings():
            # An empty or blank file: the line-by-line reader reports it.
            warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        rows = None
    if rows is None or not _passes_screen(rows):
        rows = _read_lines(lines)
    return _engine_blocks(rows)


def parse_rul_file(text: str) -> RulLabelFile:
    """Parse the companion RUL file: one integer in [0, 2^63) per line."""
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value = int(stripped)
        except ValueError:
            raise ParseError(f"line {lineno}: expected an integer, got {stripped!r}") from None
        if not 0 <= value < 2**63:
            raise ParseError(f"line {lineno}: RUL must be non-negative and below 2^63, got {value}")
        labels.append(value)
    return RulLabelFile(tuple(labels))


def _parse_file(path: Path | str, parse, kind: str):
    """parse(text of `path`); a ParseError or ValidationError is re-raised
    as the same type with the path in front of its message."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    try:
        return parse(path.read_text())
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_trajectories(path: Path | str) -> list[EngineTrajectory]:
    return _parse_file(path, parse_trajectory_file, "trajectory")


def read_rul_labels(path: Path | str) -> RulLabelFile:
    return _parse_file(path, parse_rul_file, "RUL")
