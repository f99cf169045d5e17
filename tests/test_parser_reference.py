"""The columnar parser against a frozen copy of the record-based parser.

The reference below builds one frozen record of Python floats per line
and checks it line by line; it is the behaviour the columnar parser must
keep. Valid files must give bit-identical arrays (sign bits included),
and malformed ones the same exception class and message, which carries
the line number of the first fault a line-by-line reader meets.

Like the parser, the reference takes unit ids and cycles only as finite
integers in [1, 2^63), the int64 bound, and reports any other value with
its line (see test_dataset_io). The unit-id and cycle faults write finite
values, but a column fault can shift a non-finite or large value from a
sensor column into either column.
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
        engine_id = int(values[0]) if isfinite(values[0]) else 0
        if engine_id != values[0] or not 1 <= engine_id < 2**63:
            raise ParseError(f"line {lineno}: unit id must be a positive integer")
        cycle = int(values[1]) if isfinite(values[1]) else 0
        if cycle != values[1] or not 1 <= cycle < 2**63:
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
                  "2.2250738585072014e-308", "-4.9406564584124654E-324",
                  # float() reads these; np.loadtxt rejects the first three.
                  "1_0", "\uff11", "\u0661", "+1"]
# The values whose spellings np.loadtxt reads, so that files written with
# them alone also exercise the loadtxt path.
ASCII_VALUES = [v for v in SPECIAL_VALUES if v.isascii() and "_" not in v]

# Spellings on which np.loadtxt and float() diverge or might.
DIVERGENT_FINITE = ["1_0", "\uff11", "\u0661", "+1", ".5"]
DIVERGENT_NON_FINITE = ["infinity", "-nan", "1e400"]


def value_token(rng, ascii_only):
    """A finite double from anywhere in the range (signed zeros and
    subnormals included), in one of the spellings float() accepts."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(ASCII_VALUES if ascii_only else SPECIAL_VALUES)
    if kind == 1:
        v = float("inf")
        while not isfinite(v):
            v = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    else:
        v = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-5, 6)
    return rng.choice([repr, "{:.17g}".format, "{:E}".format, "{:.6f}".format])(v)


FULLWIDTH_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


def integer_token(rng, n, ascii_only):
    spellings = [str(n), f"{n}.0", f"{n}e0", f"+{n}", f"{float(n)!r}", f"{n:_}"]
    return rng.choice(spellings if ascii_only else spellings + [str(n).translate(FULLWIDTH_DIGITS)])


@st.composite
def engine_rows(draw):
    """A valid file as token rows, whole engine blocks in shuffled order,
    with the (engine id, cycle) of each row alongside. Half of the files
    use ASCII spellings only."""
    ids = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5, unique=True))
    lengths = draw(st.lists(st.integers(1, 6), min_size=len(ids), max_size=len(ids)))
    ascii_only = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows, keys = [], []
    for engine_id, length in zip(ids, lengths):
        for cycle in range(1, length + 1):
            rows.append(
                [integer_token(rng, engine_id, ascii_only), integer_token(rng, cycle, ascii_only)]
                + [value_token(rng, ascii_only) for _ in range(N_COLUMNS - 2)]
            )
            keys.append((engine_id, cycle))
    return rows, keys


def render(rng, rows):
    """Join token rows with messy spacing, blank lines and line endings.

    Whitespace includes characters that str.split() takes as separators
    and np.loadtxt may not, and line endings include every break that
    str.splitlines() honours; a form feed also ends a line there, so it
    only trails a row.
    """
    lines = []
    for row in rows:
        while rng.random() < 0.2:
            lines.append(rng.choice(["", " ", "\t", "   ", "\xa0", "\u3000 ", " \x1f\t"]))
        line = "".join(
            rng.choice([" ", "  ", "\t", " \t ", "\xa0", " \u3000"]) + tok for tok in row
        )
        lines.append(line.lstrip() if rng.random() < 0.5 else line)
        lines[-1] += rng.choice(["", " ", "  ", "\t", "\xa0", "\u3000", "\x0c"])
    ending = rng.choice(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
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
        row[col] = draw(st.sampled_from(
            ["oops", "1.2.3", "0x10", "1,5", "--1", "nan_", "1__0"] + DIVERGENT_FINITE))
    elif kind in ("unit_id", "cycle"):
        col = 0 if kind == "unit_id" else 1
        if col < len(row):
            row[col] = draw(st.sampled_from(
                ["0", "-3", "1.5", "-0.0", "2.000001", "1e-3"] + DIVERGENT_FINITE))
    elif kind == "non_finite":
        for _ in range(draw(st.integers(1, 3)) if len(row) > 2 else 0):
            col = draw(st.integers(2, len(row) - 1))
            row[col] = draw(st.sampled_from(
                ["nan", "-nan", "inf", "-inf", "1e400", "-1e999", "NaN", "Infinity"]
                + DIVERGENT_FINITE + DIVERGENT_NON_FINITE))
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
        # A valid file numbers each engine's cycles 1, 2, ..., L: a row's
        # position is its cycle.
        assert [r.cycle for r in w.cycles] == list(range(1, len(g) + 1))
        settings = np.array([r.op_settings for r in w.cycles], dtype=np.float64)
        sensors = np.array([r.sensors for r in w.cycles], dtype=np.float64)
        assert np.array_equal(bits(g.values), bits(np.hstack([settings, sensors])))


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
        "unit_id_past_int64": [good[0], ["1e19"] + good[1][1:]],
        "cycle_past_int64": [good[0], ["1", "9223372036854775808"] + good[1][2:]],
        "non_finite_cycle": [good[0], ["1", "inf"] + good[1][2:]],
        "empty": [],
    }
    for kind, rows in cases.items():
        text = "\n\n".join(" ".join(r) for r in rows) + "\n"
        want = outcome(ref_parse_trajectory_file, text)
        assert want is not None, kind
        assert outcome(parse_trajectory_file, text) == want, kind


def test_form_feed_ends_a_row():
    # str.splitlines() breaks at \x0c; a reader that split lines only at
    # \n or \r would read one 26-column row here.
    tokens = ["1", "1"] + ["0.5"] * 24
    text = " ".join(tokens[:13]) + " \x0c " + " ".join(tokens[13:]) + "\n"
    want = (ParseError, f"line 1: expected {N_COLUMNS} columns, got 13")
    assert outcome(ref_parse_trajectory_file, text) == want
    assert outcome(parse_trajectory_file, text) == want
