"""Parsing and validation of the 26-column text files."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rulkit.dataset_io import (
    EngineTrajectory,
    N_COLUMNS,
    N_SENSORS,
    N_SETTINGS,
    N_VALUES,
    RulLabelFile,
    parse_rul_file,
    parse_trajectory_file,
    read_rul_labels,
    read_trajectories,
)
from rulkit.errors import ParseError, ValidationError
from rulkit.preprocess import trim_head


def _row(unit: int, cycle: int, settings=None, sensors=None) -> str:
    settings = settings if settings is not None else [0.1 * s for s in range(1, 4)]
    sensors = sensors if sensors is not None else [float(k) for k in range(1, 22)]
    fields = [str(unit), str(cycle)] + [repr(v) for v in settings] + [repr(v) for v in sensors]
    return " ".join(fields)


def _file(rows) -> str:
    return "\n".join(rows) + "\n"


def serialize_trajectories(trajectories) -> str:
    """Re-emit trajectories in the whitespace format parse accepts.

    Floats use shortest round-trip formatting, so parsing the output
    reproduces every value exactly.
    """
    lines = []
    for traj in trajectories:
        for cycle, values in enumerate(traj.values, start=1):
            fields = [str(traj.engine_id), str(cycle)] + [repr(float(v)) for v in values]
            lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _trajectory(length, values=None, engine_id=1):
    values = np.zeros((length, N_VALUES)) if values is None else values
    return EngineTrajectory(engine_id, values)


def test_parse_single_row_oracle():
    # Fully explicit row; every parsed value must match the literal text.
    line = (
        "3 1 -0.0007 0.0003 100.0 "
        "518.67 641.82 1589.7 1400.6 14.62 21.61 554.36 2388.06 9046.19 1.3 "
        "47.47 521.66 2388.02 8138.62 8.4195 0.03 392.0 2388.0 100.0 39.06 23.419"
    )
    trajectories = parse_trajectory_file(line + "\n")
    assert len(trajectories) == 1
    traj = trajectories[0]
    assert traj.engine_id == 3
    assert len(traj) == 1
    assert traj.values[:, :N_SETTINGS].tolist() == [[-0.0007, 0.0003, 100.0]]
    assert traj.values[0, N_SETTINGS] == 518.67
    assert traj.values[0, N_SETTINGS + 1] == 641.82
    assert traj.values[0, N_SETTINGS + 20] == 23.419
    assert traj.values.shape == (1, N_VALUES)


@pytest.mark.parametrize("line_by_line", [False, True])
def test_parsed_values_are_the_files_columns_3_to_26_bit_for_bit(line_by_line):
    gen = np.random.Generator(np.random.PCG64(23))
    rows = gen.uniform(-1e4, 1e4, (7, N_COLUMNS))
    rows[:, 0], rows[:, 1] = [1, 1, 1, 2, 2, 2, 2], [1, 2, 3, 1, 2, 3, 4]
    rows[0, 2:6] = [-0.0, 5e-324, 100.0, -1e-310]
    text = _file(" ".join(repr(float(v)) for v in row) for row in rows)
    if line_by_line:
        # np.loadtxt rejects the underscore, so every line goes to float().
        text = text.replace(" 100.0 ", " 1_00.0 ", 1)
        assert " 1_00.0 " in text
    trajectories = parse_trajectory_file(text)
    values = np.vstack([t.values for t in trajectories])
    assert np.array_equal(values.view(np.uint64), rows[:, 2:].view(np.uint64))
    for traj in trajectories:
        assert traj.values.dtype == np.float64 and traj.values.shape == (len(traj), N_VALUES)
        with pytest.raises(ValueError, match="read-only"):
            traj.values[0, 0] = 1.0


def test_parse_groups_rows_by_engine_and_sorts_ids():
    text = _file([_row(2, 1), _row(2, 2), _row(1, 1)])
    trajectories = parse_trajectory_file(text)
    assert [t.engine_id for t in trajectories] == [1, 2]
    assert [len(t) for t in trajectories] == [1, 2]


def test_parse_tolerates_double_spaces_blank_lines_and_trailing_space():
    messy = _row(1, 1).replace(" ", "  ") + "  \n\n" + _row(1, 2) + " \n"
    trajectories = parse_trajectory_file(messy)
    assert len(trajectories) == 1
    assert len(trajectories[0]) == 2


def test_parse_reports_line_number_for_wrong_column_count():
    text = _file([_row(1, 1), "1 2 0.0 0.0"])
    with pytest.raises(ParseError, match=rf"line 2: expected {N_COLUMNS} columns"):
        parse_trajectory_file(text)


def test_parse_reports_line_number_for_non_numeric_token():
    text = _file([_row(1, 1), _row(1, 2).replace("21.0", "oops")])
    with pytest.raises(ParseError, match="line 2: non-numeric token"):
        parse_trajectory_file(text)


def test_parse_rejects_non_integer_unit_and_cycle():
    with pytest.raises(ParseError, match="unit id"):
        parse_trajectory_file(_file([_row(1, 1).replace("1", "1.5", 1)]))
    with pytest.raises(ParseError, match="cycle"):
        parse_trajectory_file(_file([" ".join(["1", "0"] + _row(1, 1).split()[2:])]))


def test_parse_rejects_cycle_gap():
    text = _file([_row(1, 1), _row(1, 3)])
    with pytest.raises(ValidationError, match="non-contiguous cycles 1 -> 3"):
        parse_trajectory_file(text)
    text = _file([_row(1, 1), _row(1, 2), _row(1, 4)])
    with pytest.raises(ValidationError, match="engine 1: non-contiguous cycles 2 -> 4"):
        parse_trajectory_file(text)
    # A repeated cycle number is a gap too.
    text = _file([_row(2, 1), _row(2, 2), _row(2, 2)])
    with pytest.raises(ValidationError, match="engine 2: non-contiguous cycles 2 -> 2"):
        parse_trajectory_file(text)


def test_parse_rejects_split_engine_block():
    text = _file([_row(1, 1), _row(2, 1), _row(1, 2)])
    with pytest.raises(ValidationError, match="engine 1 appears in more than one block"):
        parse_trajectory_file(text)


def test_parse_rejects_first_cycle_not_one():
    text = _file([_row(1, 5), _row(1, 6)])
    with pytest.raises(ValidationError, match="engine 1: first cycle must be 1, got 5"):
        parse_trajectory_file(text)
    with pytest.raises(ParseError, match="line 1: cycle must be a positive integer"):
        parse_trajectory_file(_file([_row(1, 0), _row(1, 1)]))


def test_parse_reports_the_first_engine_with_a_cycle_fault():
    # Engines are checked in id order, each for its first cycle and then
    # for gaps, so engine 1's gap is reported before engine 3's first cycle.
    text = _file([_row(3, 2), _row(1, 1), _row(1, 3), _row(2, 1)])
    with pytest.raises(ValidationError, match="^engine 1: non-contiguous cycles 1 -> 3$"):
        parse_trajectory_file(text)


def test_parse_rejects_empty_file():
    with pytest.raises(ValidationError, match="no data rows"):
        parse_trajectory_file("\n  \n")


@pytest.mark.parametrize("text", ["", "\n", "  \t\n\n", "\xa0\u3000\r\n\x0c \x1f\n"])
def test_empty_or_blank_text_raises_without_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="no data rows"):
            parse_trajectory_file(text)


def test_serialize_parse_round_trip_is_exact():
    rng = np.random.Generator(np.random.PCG64(17))
    rows = []
    for unit in (1, 2):
        for cycle in range(1, 6):
            settings = [float(v) for v in rng.uniform(-1, 1, N_SETTINGS)]
            sensors = [float(v) for v in rng.uniform(-100, 9000, N_SENSORS)]
            rows.append(_row(unit, cycle, settings, sensors))
    original = parse_trajectory_file(_file(rows))
    recovered = parse_trajectory_file(serialize_trajectories(original))
    assert [t.engine_id for t in recovered] == [t.engine_id for t in original]
    for got, want in zip(recovered, original):
        assert np.array_equal(got.values, want.values)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_serialize_parse_round_trip_property(data):
    """Any engine ids, lengths and finite values (-0.0 and subnormals too) come
    back bit for bit, in id order, whatever order the blocks are written in."""
    ids = data.draw(st.lists(st.integers(1, 10**9), min_size=1, max_size=5, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False)
    original = []
    for engine_id in sorted(ids):
        length = data.draw(st.integers(1, 6))
        matrix = data.draw(hnp.arrays(np.float64, (length, N_COLUMNS - 2), elements=values))
        original.append(_trajectory(length, matrix, engine_id))
    recovered = parse_trajectory_file(serialize_trajectories(data.draw(st.permutations(original))))
    assert [t.engine_id for t in recovered] == sorted(ids)
    for got, want in zip(recovered, original):
        assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def test_read_trajectories_and_labels_from_disk(tmp_path):
    data = tmp_path / "train.txt"
    data.write_text(_file([_row(1, 1), _row(1, 2)]))
    labels = tmp_path / "rul.txt"
    labels.write_text("10\n20\n")
    assert len(read_trajectories(data)) == 1
    assert read_rul_labels(labels).ruls == (10, 20)


def test_read_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_trajectories(tmp_path / "absent.txt")
    with pytest.raises(FileNotFoundError):
        read_rul_labels(tmp_path / "absent.txt")


def test_parse_rul_file_oracle():
    labels = parse_rul_file("112\n98\n 69 \n\n82\n")
    assert labels.ruls == (112, 98, 69, 82)
    assert len(labels) == 4


def test_parse_rul_file_rejects_bad_lines():
    with pytest.raises(ParseError, match="line 2: expected an integer"):
        parse_rul_file("10\nten\n")
    with pytest.raises(ParseError, match="line 1: RUL must be non-negative"):
        parse_rul_file("-3\n")
    # 2^63 does not fit an int64; 2^63 - 1 does.
    with pytest.raises(ParseError, match="line 2: RUL must be non-negative and below 2\\^63"):
        parse_rul_file("10\n9223372036854775808\n")
    assert parse_rul_file("9223372036854775807\n").ruls == (2**63 - 1,)


def test_rul_label_file_rejects_empty_and_negative():
    with pytest.raises(ValidationError, match="empty"):
        RulLabelFile(())
    with pytest.raises(ValidationError, match="non-negative"):
        RulLabelFile((5, -1))


def test_cycle_record_validation():
    width = "engine 1: expected 3 operating settings and 21 sensor values per cycle"
    with pytest.raises(ValidationError, match=rf"{width}, got values of shape \(1, 22\)"):
        _trajectory(1, np.zeros((1, N_VALUES - 2)))
    with pytest.raises(ValidationError, match=rf"{width}, got values of shape \(24,\)"):
        _trajectory(1, np.zeros(N_VALUES))
    with pytest.raises(ValidationError, match=rf"{width}, got values of shape \(2, 3, 24\)"):
        _trajectory(2, np.zeros((2, 3, N_VALUES)))
    values = np.zeros((2, N_VALUES))
    values[1, 1] = np.nan
    with pytest.raises(ValidationError, match=r"engine 1: non-finite value nan in values\[1\]"):
        _trajectory(2, values)
    values = np.zeros((2, N_VALUES))
    values[0, N_SETTINGS + 4] = -np.inf
    values[1, 0] = np.nan
    with pytest.raises(ValidationError, match=r"engine 4: non-finite value -inf in values\[0\]"):
        _trajectory(2, values, engine_id=4)
    with pytest.raises(ValidationError, match="engine id must be positive"):
        _trajectory(1, engine_id=0)
    # make_rows stores ids as int64.
    with pytest.raises(ValidationError, match=r"below 2\^63, got 9223372036854775808"):
        _trajectory(1, engine_id=2**63)
    assert _trajectory(1, engine_id=2**63 - 1).engine_id == 2**63 - 1


@pytest.mark.parametrize("engine_id", [1.5, 1.0, True, "1", None, np.float64(2.0)])
def test_trajectory_rejects_a_non_integral_engine_id(engine_id):
    with pytest.raises(ValidationError, match="engine id must be an integer"):
        EngineTrajectory(engine_id=engine_id, values=np.zeros((2, N_VALUES)))


def test_trajectory_stores_an_integral_engine_id_as_int():
    for engine_id in (3, np.int64(3), np.uint8(3), np.int64(2**63 - 1)):
        traj = EngineTrajectory(engine_id=engine_id, values=np.zeros((2, N_VALUES)))
        assert type(traj.engine_id) is int and traj.engine_id == engine_id


def test_trajectory_matrices_have_expected_shape_and_values():
    traj = parse_trajectory_file(_file([_row(1, 1), _row(1, 2), _row(1, 3)]))[0]
    assert traj.values.shape == (3, N_VALUES)
    assert traj.values[0, :N_SETTINGS].tolist() == [0.1, 0.2, 0.30000000000000004]
    assert traj.values[0, N_SETTINGS] == 1.0


def test_empty_trajectory_rejected():
    with pytest.raises(ValidationError, match="empty trajectory"):
        _trajectory(0)


def test_trajectory_arrays_are_read_only():
    traj = parse_trajectory_file(_file([_row(1, c) for c in range(1, 6)]))[0]
    trimmed = trim_head(traj, 2)
    for t in (traj, trimmed):
        with pytest.raises(ValueError, match="read-only"):
            t.values[0] = 0
    assert np.shares_memory(trimmed.values, traj.values)
    replaced = dataclasses.replace(traj, values=np.ones((5, N_VALUES)))
    with pytest.raises(ValueError, match="read-only"):
        replaced.values[0, 0] = 0.0


def test_trajectory_copies_writable_input():
    values = np.ones((2, N_VALUES))
    traj = _trajectory(2, values)
    values[0, 0] = 5.0
    assert traj.values[0, 0] == 1.0
    assert values.flags.writeable


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e19", "9223372036854775808"])
@pytest.mark.parametrize("column", [0, 1])
def test_parse_rejects_non_finite_unit_or_cycle_with_line_number(token, column):
    # 1e19 and 2^63 are finite but do not fit an int64.
    bad = _row(1, 2).split()
    bad[column] = token
    what = "unit id" if column == 0 else "cycle"
    with pytest.raises(ParseError, match=f"line 2: {what} must be a positive integer"):
        parse_trajectory_file(_file([_row(1, 1), " ".join(bad)]))
