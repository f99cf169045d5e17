"""The columnar parser against a frozen copy of the record-based parser.

The reference below builds one frozen record of Python floats per line
and checks it line by line; it is the behaviour the columnar parser must
keep. Valid files must give bit-identical arrays (sign bits included),
and malformed ones the same exception class and message, which carries
the line number of the first fault a line-by-line reader meets.

Unit ids and cycles written as nan or inf are left out of the fault
mix: the reference lets int() raise a bare ValueError or OverflowError
there, with no line number, where the columnar parser reports the line
(see test_dataset_io).
"""

import random
import struct
from dataclasses import dataclass
from math import isfinite

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit.dataset_io import N_COLUMNS, parse_trajectory_file
from rulkit.errors import ParseError, ValidationError

# ---------------------------------------------------------------------------
# Frozen reference
# ---------------------------------------------------------------------------

REF_N_SETTINGS = 3
REF_N_SENSORS = 21


@dataclass(frozen=True)
class RefCycleRecord:
    cycle: int
    op_settings: tuple
    sensors: tuple

    def __post_init__(self):
        if self.cycle < 1:
            raise ValidationError(f"cycle must be positive, got {self.cycle}")
        if len(self.op_settings) != REF_N_SETTINGS:
            raise ValidationError(
                f"expected {REF_N_SETTINGS} operating settings, got {len(self.op_settings)}"
            )
        if len(self.sensors) != REF_N_SENSORS:
            raise ValidationError(
                f"expected {REF_N_SENSORS} sensor values, got {len(self.sensors)}"
            )
        for v in self.op_settings + self.sensors:
            if not isfinite(v):
                raise ValidationError(f"non-finite value {v!r} at cycle {self.cycle}")


@dataclass(frozen=True)
class RefEngineTrajectory:
    engine_id: int
    cycles: tuple

    def __post_init__(self):
        if self.engine_id < 1:
            raise ValidationError(f"engine id must be positive, got {self.engine_id}")
        if not self.cycles:
            raise ValidationError(f"engine {self.engine_id}: empty trajectory")
        for prev, cur in zip(self.cycles, self.cycles[1:]):
            if cur.cycle != prev.cycle + 1:
                raise ValidationError(
                    f"engine {self.engine_id}: non-contiguous cycles "
                    f"{prev.cycle} -> {cur.cycle}"
                )


def ref_parse_trajectory_file(text):
    rows_by_engine = {}
    last_engine = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != N_COLUMNS:
            raise ParseError(
                f"line {lineno}: expected {N_COLUMNS} columns, got {len(tokens)}"
            )
        try:
            values = [float(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-numeric token ({exc})") from None
        engine_id = int(values[0])
        if engine_id != values[0] or engine_id < 1:
            raise ParseError(f"line {lineno}: unit id must be a positive integer")
        cycle = int(values[1])
        if cycle != values[1] or cycle < 1:
            raise ParseError(f"line {lineno}: cycle must be a positive integer")
        if engine_id in rows_by_engine and engine_id != last_engine:
            raise ValidationError(
                f"line {lineno}: engine {engine_id} appears in more than one block"
            )
        try:
            record = RefCycleRecord(
                cycle,
                tuple(values[2 : 2 + REF_N_SETTINGS]),
                tuple(values[2 + REF_N_SETTINGS :]),
            )
        except ValidationError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        rows_by_engine.setdefault(engine_id, []).append(record)
        last_engine = engine_id

    if not rows_by_engine:
        raise ValidationError("trajectory file contains no data rows")

    trajectories = []
    for engine_id in sorted(rows_by_engine):
        records = rows_by_engine[engine_id]
        if records[0].cycle != 1:
            raise ValidationError(
                f"engine {engine_id}: first cycle must be 1, got {records[0].cycle}"
            )
        trajectories.append(RefEngineTrajectory(engine_id, tuple(records)))
    return trajectories


# ---------------------------------------------------------------------------
# File generation
# ---------------------------------------------------------------------------

# Token contents and spacing come from a Random seeded by hypothesis, which
# keeps each example cheap; the file structure and the faults are drawn
# by hypothesis itself.

SPECIAL_VALUES = ["0", "-0", "+0.0", "-0.0", "1_000.5", ".5", "-7.", "5e-324", "1e308",
                  "2.2250738585072014e-308", "-4.9406564584124654E-324"]


def value_token(rng):
    """A finite double from anywhere in the range (signed zeros and
    subnormals included), in one of the spellings float() accepts."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(SPECIAL_VALUES)
    if kind == 1:
        v = float("inf")
        while not isfinite(v):
            v = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    else:
        v = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-5, 6)
    return rng.choice([repr, "{:.17g}".format, "{:E}".format, "{:.6f}".format])(v)


def integer_token(rng, n):
    return rng.choice([str(n), f"{n}.0", f"{n}e0", f"+{n}", f"{float(n)!r}", f"{n:_}"])


@st.composite
def engine_rows(draw):
    """A valid file as token rows, whole engine blocks in shuffled order,
    with the (engine id, cycle) of each row alongside."""
    ids = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True))
    lengths = draw(st.lists(st.integers(1, 6), min_size=len(ids), max_size=len(ids)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows, keys = [], []
    for engine_id, length in zip(ids, lengths):
        for cycle in range(1, length + 1):
            rows.append(
                [integer_token(rng, engine_id), integer_token(rng, cycle)]
                + [value_token(rng) for _ in range(N_COLUMNS - 2)]
            )
            keys.append((engine_id, cycle))
    return rows, keys


def render(rng, rows):
    """Join token rows with messy spacing, blank lines and line endings."""
    lines = []
    for row in rows:
        while rng.random() < 0.2:
            lines.append(rng.choice(["", " ", "\t", "   "]))
        line = "".join(rng.choice([" ", "  ", "\t", " \t "]) + tok for tok in row)
        lines.append(line.lstrip() if rng.random() < 0.5 else line)
        lines[-1] += rng.choice(["", " ", "  ", "\t"])
    ending = rng.choice(["\n", "\r\n"])
    return ending.join(lines) + rng.choice(["", ending, ending * 2])


FAULTS = (
    "columns", "non_numeric", "unit_id", "cycle", "non_finite",
    "repeated_block", "first_cycle", "cycle_gap",
)


def inject(draw, rows, keys, kind):
    """Apply one fault of `kind` to the token rows in place."""
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    if kind == "columns":
        if draw(st.booleans()) or len(row) == 1:
            row.insert(draw(st.integers(0, len(row))), "1.0")
        else:
            del row[draw(st.integers(0, len(row) - 1))]
    elif kind == "non_numeric":
        col = draw(st.integers(0, len(row) - 1))
        row[col] = draw(st.sampled_from(["oops", "1.2.3", "0x10", "1,5", "--1", "nan_"]))
    elif kind in ("unit_id", "cycle"):
        col = 0 if kind == "unit_id" else 1
        if col < len(row):
            row[col] = draw(st.sampled_from(["0", "-3", "1.5", "-0.0", "2.000001", "1e-3"]))
    elif kind == "non_finite":
        for _ in range(draw(st.integers(1, 3)) if len(row) > 2 else 0):
            col = draw(st.integers(2, len(row) - 1))
            row[col] = draw(st.sampled_from(
                ["nan", "-nan", "inf", "-inf", "1e400", "-1e999", "NaN", "Infinity"]))
    elif kind == "repeated_block":
        j = draw(st.integers(0, len(rows)))
        rows.insert(j, list(row))
        keys.insert(j, keys[i])
    else:
        # Renumber this engine's cycles: all of them for first_cycle, the
        # ones from this row on for cycle_gap (-1 repeats a cycle number).
        engine_id, cycle = keys[i]
        shift = draw(st.sampled_from([1, 2] if kind == "first_cycle" else [-1, 1, 2]))
        for j, (e, c) in enumerate(keys):
            if e == engine_id and (kind == "first_cycle" or c >= cycle) and len(rows[j]) > 1:
                keys[j] = (e, c + shift)
                rows[j][1] = str(max(c + shift, 1))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_trajectories(text):
    want = ref_parse_trajectory_file(text)
    got = parse_trajectory_file(text)
    assert [t.engine_id for t in got] == [t.engine_id for t in want]
    for g, w in zip(got, want):
        assert type(g.engine_id) is int
        assert g.cycles.dtype == np.int64
        assert g.cycles.tolist() == [r.cycle for r in w.cycles]
        settings = np.array([r.op_settings for r in w.cycles], dtype=np.float64)
        sensors = np.array([r.sensors for r in w.cycles], dtype=np.float64)
        assert np.array_equal(bits(g.settings_matrix), bits(settings))
        assert np.array_equal(bits(g.sensors_matrix), bits(sensors))


def outcome(parse, text):
    try:
        parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 2**32 - 1))
def test_valid_files_parse_bit_identically(data, seed):
    rows, _ = data.draw(engine_rows())
    assert_same_trajectories(render(random.Random(seed), rows))


@settings(max_examples=600, deadline=None)
@given(st.data(), st.sampled_from(FAULTS), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_faulty_files_raise_the_reference_error(data, kind, extra, seed):
    rows, keys = data.draw(engine_rows())
    inject(data.draw, rows, keys, kind)
    for other in data.draw(st.lists(st.sampled_from(FAULTS), max_size=extra)):
        inject(data.draw, rows, keys, other)
    text = render(random.Random(seed), rows)
    want = outcome(ref_parse_trajectory_file, text)
    assert outcome(parse_trajectory_file, text) == want
    if want is None:
        assert_same_trajectories(text)


def test_reference_error_examples():
    # One fixed file per fault kind, so every branch runs on every test run.
    good = [["1", "1"] + ["0.5"] * 24, ["1", "2"] + ["0.5"] * 24, ["2", "1"] + ["0.5"] * 24]
    cases = {
        "columns": [good[0], good[1][:-1]],
        "non_numeric": [good[0], good[1][:5] + ["x"] + good[1][6:]],
        "unit_id": [good[0], ["1.5"] + good[1][1:]],
        "cycle": [good[0], ["1", "0"] + good[1][2:]],
        "non_finite": [good[0], good[1][:7] + ["1e400"] + good[1][8:20] + ["nan"] + good[1][21:]],
        "repeated_block": [good[0], good[2], good[1]],
        "first_cycle": [["1", "2"] + good[0][2:]],
        "cycle_gap": [good[0], ["1", "3"] + good[1][2:]],
        "empty": [],
    }
    for kind, rows in cases.items():
        text = "\n\n".join(" ".join(r) for r in rows) + "\n"
        want = outcome(ref_parse_trajectory_file, text)
        assert want is not None, kind
        assert outcome(parse_trajectory_file, text) == want, kind
