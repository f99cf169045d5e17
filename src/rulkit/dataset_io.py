"""Parsing and validation for the turbofan dataset text files.

File layout (train/test trajectory files):
    26 whitespace-delimited numeric columns per row, no header:
    unit id, cycle, 3 operating settings, 21 sensor channels.
    Rows are grouped by engine, cycle-ascending, cycles starting at 1.

The companion RUL file holds one non-negative integer per line: the
remaining life of the i-th test engine at its last recorded cycle.

Each engine is held column-wise: a cycle-number vector and one matrix
each for the settings and the sensors, all read-only, so a head-trimmed
trajectory can share its parent's arrays without copying.

Parsing is fail-fast: a malformed row raises ParseError with its line
number, and structural violations (cycle gaps, duplicated engine blocks)
raise ValidationError naming the engine. When a file has several faults,
the one reported is the first a row-by-row reader would meet. Values are
kept at full double precision; downstream gradient checks depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

N_SETTINGS = 3
N_SENSORS = 21
N_COLUMNS = 2 + N_SETTINGS + N_SENSORS


def _read_only(values, dtype) -> np.ndarray:
    """`values` as a read-only array; a writable input is copied first, so the
    caller keeps no writable alias of the result."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _non_finite(values: np.ndarray, cycle) -> str:
    """Message naming the first non-finite entry of one cycle's values."""
    return f"non-finite value {float(values[~np.isfinite(values)][0])!r} at cycle {int(cycle)}"


def _check_contiguous(engine_id: int, cycles: np.ndarray) -> None:
    steps = cycles[1:] - cycles[:-1]
    if not (steps == 1).all():
        i = int(np.argmax(steps != 1))
        raise ValidationError(
            f"engine {engine_id}: non-contiguous cycles "
            f"{int(cycles[i])} -> {int(cycles[i + 1])}"
        )


@dataclass(frozen=True, eq=False)
class EngineTrajectory:
    """One engine's cycles as columns: cycle numbers (L,) int64, operating
    settings (L, 3) and sensor readings (L, 21), both float64.

    The arrays are read-only (writing raises ValueError): trimmed copies
    are views that share them. A writable array passed in is copied.
    Cycle numbers must be contiguous ascending integers. Freshly parsed
    trajectories start at cycle 1; head-trimmed ones keep their original
    numbering and start later.
    """

    engine_id: int
    cycles: np.ndarray
    settings_matrix: np.ndarray
    sensors_matrix: np.ndarray

    def __post_init__(self):
        if self.engine_id < 1:
            raise ValidationError(f"engine id must be positive, got {self.engine_id}")
        for name, dtype in (
            ("cycles", np.int64), ("settings_matrix", np.float64), ("sensors_matrix", np.float64)
        ):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        cycles, settings, sensors = self.cycles, self.settings_matrix, self.sensors_matrix
        if cycles.ndim != 1:
            raise ValidationError(
                f"engine {self.engine_id}: cycle numbers must be 1-D, got shape {cycles.shape}"
            )
        n = cycles.shape[0]
        if n == 0:
            raise ValidationError(f"engine {self.engine_id}: empty trajectory")
        for arr, width, what in (
            (settings, N_SETTINGS, "operating settings"), (sensors, N_SENSORS, "sensor values")
        ):
            if arr.shape != (n, width):
                raise ValidationError(
                    f"engine {self.engine_id}: expected {width} {what} for each of "
                    f"{n} cycles, got shape {arr.shape}"
                )
        _check_contiguous(self.engine_id, cycles)
        if cycles[0] < 1:
            raise ValidationError(f"cycle must be positive, got {int(cycles[0])}")
        if not (np.isfinite(settings).all() and np.isfinite(sensors).all()):
            finite = np.isfinite(settings).all(axis=1) & np.isfinite(sensors).all(axis=1)
            row = int(np.argmin(finite))
            values = np.concatenate([settings[row], sensors[row]])
            raise ValidationError(_non_finite(values, cycles[row]))

    def __len__(self) -> int:
        return self.cycles.shape[0]

    def with_sensors(self, sensors: np.ndarray) -> "EngineTrajectory":
        """This trajectory with its sensor matrix replaced by `sensors` (L, 21)."""
        if sensors.shape != (len(self), N_SENSORS):
            raise ValidationError(
                f"engine {self.engine_id}: replacement sensors shape {sensors.shape} "
                f"does not match ({len(self)}, {N_SENSORS})"
            )
        return replace(self, sensors_matrix=sensors)


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


def _check_rows(rows: np.ndarray, linenos: list[int]) -> None:
    """Raise the first per-row fault, in file order, of converted rows.

    Within one row the checks run in a fixed order: unit id, cycle, a
    repeated engine block, then non-finite settings or sensors.
    """
    ids = rows[:, 0]
    new_block = np.ones(len(ids), dtype=bool)
    new_block[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(new_block)
    _, first = np.unique(ids[starts], return_index=True)
    repeated = new_block.copy()
    repeated[starts[first]] = False
    id_cycle = rows[:, :2]
    positive_int = np.isfinite(id_cycle) & (id_cycle == np.trunc(id_cycle)) & (id_cycle >= 1)
    faults = np.column_stack([~positive_int, repeated, ~np.isfinite(rows[:, 2:]).all(axis=1)])
    bad_rows = np.flatnonzero(faults.any(axis=1))
    if not bad_rows.size:
        return
    row = bad_rows[0]
    kind = int(np.argmax(faults[row]))
    lineno = linenos[row]
    if kind == 0:
        raise ParseError(f"line {lineno}: unit id must be a positive integer")
    if kind == 1:
        raise ParseError(f"line {lineno}: cycle must be a positive integer")
    if kind == 2:
        raise ValidationError(
            f"line {lineno}: engine {int(ids[row])} appears in more than one block"
        )
    raise ParseError(f"line {lineno}: {_non_finite(rows[row, 2:], rows[row, 1])}")


def parse_trajectory_file(text: str) -> list[EngineTrajectory]:
    """Parse raw trajectory file contents into per-engine trajectories.

    Tolerates repeated delimiters, blank lines and trailing whitespace (the
    published files use double-space separators). Tokens are read with
    Python's float(). Every row must contribute to the output; engine
    blocks may appear in any order but must not repeat.
    """
    linenos: list[int] = []
    tokens: list[str] = []
    fault = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != N_COLUMNS:
            fault = ParseError(
                f"line {lineno}: expected {N_COLUMNS} columns, got {len(fields)}"
            )
            break
        linenos.append(lineno)
        tokens += fields
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        for i, token in enumerate(tokens):
            try:
                float(token)
            except ValueError as exc:
                fault = ParseError(
                    f"line {linenos[i // N_COLUMNS]}: non-numeric token ({exc})"
                )
                break
        del tokens[i - i % N_COLUMNS :]
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    rows = values.reshape(-1, N_COLUMNS)
    _check_rows(rows, linenos)
    if fault is not None:
        raise fault
    if not rows.shape[0]:
        raise ValidationError("trajectory file contains no data rows")

    starts = np.flatnonzero(np.diff(rows[:, 0], prepend=0.0))
    ends = np.append(starts[1:], rows.shape[0])
    trajectories = []
    for k in np.argsort(rows[starts, 0]):
        block = rows[starts[k] : ends[k]]
        engine_id = int(block[0, 0])
        if block[0, 1] != 1:
            raise ValidationError(
                f"engine {engine_id}: first cycle must be 1, got {int(block[0, 1])}"
            )
        _check_contiguous(engine_id, block[:, 1])
        trajectories.append(EngineTrajectory(
            engine_id,
            block[:, 1].astype(np.int64),
            block[:, 2 : 2 + N_SETTINGS],
            block[:, 2 + N_SETTINGS :],
        ))
    return trajectories


def parse_rul_file(text: str) -> RulLabelFile:
    """Parse the companion RUL file: one non-negative integer per line."""
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value = int(stripped)
        except ValueError:
            raise ParseError(f"line {lineno}: expected an integer, got {stripped!r}") from None
        if value < 0:
            raise ParseError(f"line {lineno}: RUL must be non-negative, got {value}")
        labels.append(value)
    return RulLabelFile(tuple(labels))


def read_trajectories(path: Path | str) -> list[EngineTrajectory]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trajectory file not found: {path}")
    return parse_trajectory_file(path.read_text())


def read_rul_labels(path: Path | str) -> RulLabelFile:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"RUL file not found: {path}")
    return parse_rul_file(path.read_text())
