"""Parsing and validation of the 26-column text files."""

import numpy as np
import pytest

from rulkit.dataset_io import (
    EngineTrajectory,
    N_COLUMNS,
    N_SENSORS,
    N_SETTINGS,
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
        for cycle, settings, sensors in zip(
            traj.cycles, traj.settings_matrix, traj.sensors_matrix
        ):
            fields = [str(traj.engine_id), str(cycle)]
            fields += [repr(float(v)) for v in settings]
            fields += [repr(float(v)) for v in sensors]
            lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _trajectory(cycles, settings=None, sensors=None, engine_id=1):
    n = len(cycles)
    settings = np.zeros((n, N_SETTINGS)) if settings is None else settings
    sensors = np.zeros((n, N_SENSORS)) if sensors is None else sensors
    return EngineTrajectory(engine_id, np.asarray(cycles), settings, sensors)


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
    assert traj.cycles.tolist() == [1]
    assert traj.settings_matrix.tolist() == [[-0.0007, 0.0003, 100.0]]
    assert traj.sensors_matrix[0, 0] == 518.67
    assert traj.sensors_matrix[0, 1] == 641.82
    assert traj.sensors_matrix[0, 20] == 23.419
    assert traj.sensors_matrix.shape == (1, N_SENSORS)
    assert traj.cycles.dtype == np.int64


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


def test_parse_rejects_split_engine_block():
    text = _file([_row(1, 1), _row(2, 1), _row(1, 2)])
    with pytest.raises(ValidationError, match="engine 1 appears in more than one block"):
        parse_trajectory_file(text)


def test_parse_rejects_first_cycle_not_one():
    text = _file([_row(1, 5), _row(1, 6)])
    with pytest.raises(ValidationError, match="first cycle must be 1"):
        parse_trajectory_file(text)


def test_parse_rejects_empty_file():
    with pytest.raises(ValidationError, match="no data rows"):
        parse_trajectory_file("\n  \n")


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
        assert np.array_equal(got.cycles, want.cycles)
        assert np.array_equal(got.settings_matrix, want.settings_matrix)
        assert np.array_equal(got.sensors_matrix, want.sensors_matrix)


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


def test_rul_label_file_rejects_empty_and_negative():
    with pytest.raises(ValidationError, match="empty"):
        RulLabelFile(())
    with pytest.raises(ValidationError, match="non-negative"):
        RulLabelFile((5, -1))


def test_cycle_record_validation():
    with pytest.raises(ValidationError, match="cycle must be positive, got 0"):
        _trajectory([0, 1])
    with pytest.raises(ValidationError, match="operating settings"):
        _trajectory([1], settings=np.zeros((1, 1)))
    with pytest.raises(ValidationError, match="sensor values"):
        _trajectory([1], sensors=np.zeros((1, 5)))
    with pytest.raises(ValidationError, match="sensor values"):
        _trajectory([1, 2], sensors=np.zeros((3, N_SENSORS)))
    settings = np.zeros((2, N_SETTINGS))
    settings[1, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite value nan at cycle 2"):
        _trajectory([1, 2], settings=settings)
    sensors = np.zeros((2, N_SENSORS))
    sensors[0, 4] = -np.inf
    with pytest.raises(ValidationError, match="non-finite value -inf at cycle 1"):
        _trajectory([1, 2], sensors=sensors)
    with pytest.raises(ValidationError, match="non-contiguous cycles 2 -> 4"):
        _trajectory([1, 2, 4])
    with pytest.raises(ValidationError, match="engine id must be positive"):
        _trajectory([1], engine_id=0)
    with pytest.raises(ValidationError, match="1-D"):
        _trajectory(np.ones((1, 1)))


def test_trajectory_matrices_have_expected_shape_and_values():
    traj = parse_trajectory_file(_file([_row(1, 1), _row(1, 2), _row(1, 3)]))[0]
    assert traj.settings_matrix.shape == (3, N_SETTINGS)
    assert traj.sensors_matrix.shape == (3, N_SENSORS)
    assert traj.sensors_matrix[0, 0] == 1.0
    assert traj.cycles.tolist() == [1, 2, 3]


def test_with_sensors_replaces_values_and_validates_shape():
    traj = parse_trajectory_file(_file([_row(1, 1), _row(1, 2)]))[0]
    replaced = traj.with_sensors(np.full((2, N_SENSORS), 7.0))
    assert np.all(replaced.sensors_matrix == 7.0)
    assert replaced.settings_matrix.tolist() == traj.settings_matrix.tolist()
    with pytest.raises(ValidationError, match="replacement sensors shape"):
        traj.with_sensors(np.zeros((3, N_SENSORS)))


def test_empty_trajectory_rejected():
    with pytest.raises(ValidationError, match="empty trajectory"):
        _trajectory(np.zeros(0, dtype=np.int64))


def test_trajectory_arrays_are_read_only():
    traj = parse_trajectory_file(_file([_row(1, c) for c in range(1, 6)]))[0]
    trimmed = trim_head(traj, 2)
    for t in (traj, trimmed):
        for arr in (t.cycles, t.settings_matrix, t.sensors_matrix):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
    assert np.shares_memory(trimmed.sensors_matrix, traj.sensors_matrix)
    replaced = traj.with_sensors(np.ones((5, N_SENSORS)))
    with pytest.raises(ValueError, match="read-only"):
        replaced.sensors_matrix[0, 0] = 0.0


def test_trajectory_copies_writable_input():
    sensors = np.ones((2, N_SENSORS))
    traj = _trajectory([1, 2], sensors=sensors)
    sensors[0, 0] = 5.0
    assert traj.sensors_matrix[0, 0] == 1.0
    assert sensors.flags.writeable


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1])
def test_parse_rejects_non_finite_unit_or_cycle_with_line_number(token, column):
    bad = _row(1, 2).split()
    bad[column] = token
    what = "unit id" if column == 0 else "cycle"
    with pytest.raises(ParseError, match=f"line 2: {what} must be a positive integer"):
        parse_trajectory_file(_file([_row(1, 1), " ".join(bad)]))
