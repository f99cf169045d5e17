"""Synthetic corpus generator: determinism and structural guarantees."""

import numpy as np
import pytest

from rulkit import simdata
from rulkit.dataset_io import N_SETTINGS, parse_rul_file, parse_trajectory_file
from rulkit.errors import ConfigError
from rulkit.simdata import CONSTANT_SENSOR_IDS, MIN_TEST_LENGTH, SimConfig, TEST_RUL_RANGE


@pytest.fixture(scope="module")
def small_corpus():
    config = SimConfig(n_train_engines=8, n_test_engines=6, total_train_rows=1400, seed=11)
    return simdata.generate_corpus(config), config


def test_generation_is_deterministic(small_corpus):
    (texts, config) = small_corpus
    again = simdata.generate_corpus(config)
    assert texts == again


def test_seed_changes_output():
    a = simdata.generate_corpus(SimConfig(8, 6, 1400, seed=1))
    b = simdata.generate_corpus(SimConfig(8, 6, 1400, seed=2))
    assert a != b


def test_train_rows_sum_exactly(small_corpus):
    (train_text, _, _), config = small_corpus
    trajectories = parse_trajectory_file(train_text)
    assert len(trajectories) == config.n_train_engines
    assert sum(len(t) for t in trajectories) == config.total_train_rows


def test_engine_and_label_counts(small_corpus):
    (_, test_text, rul_text), config = small_corpus
    test = parse_trajectory_file(test_text)
    labels = parse_rul_file(rul_text)
    assert len(test) == config.n_test_engines
    assert len(labels) == config.n_test_engines


def test_labels_within_range_and_engines_long_enough(small_corpus):
    (_, test_text, rul_text), _ = small_corpus
    labels = parse_rul_file(rul_text)
    lo, hi = TEST_RUL_RANGE
    assert all(lo <= r <= hi for r in labels.ruls)
    test = parse_trajectory_file(test_text)
    assert min(len(t) for t in test) >= MIN_TEST_LENGTH


def test_constant_channels_are_exactly_constant(small_corpus):
    (train_text, test_text, _), _ = small_corpus
    for text in (train_text, test_text):
        for traj in parse_trajectory_file(text):
            settings, sensors = traj.values[:, :N_SETTINGS], traj.values[:, N_SETTINGS:]
            for sid in CONSTANT_SENSOR_IDS:
                column = sensors[:, sid - 1]
                assert np.all(column == column[0]), f"sensor {sid} drifts"
            assert np.all(settings[:, 2] == settings[0, 2])


def test_informative_channels_vary(small_corpus):
    (train_text, _, _), _ = small_corpus
    stacked = np.vstack([t.values[:, N_SETTINGS:] for t in parse_trajectory_file(train_text)])
    for sid in range(1, 22):
        spread = np.ptp(stacked[:, sid - 1])
        if sid in CONSTANT_SENSOR_IDS:
            assert spread == 0.0
        else:
            assert spread > 0.0


def test_degradation_rises_toward_failure(small_corpus):
    # Sensor 2 has a positive span: late-life mean must exceed early-life
    # mean on run-to-failure engines.
    (train_text, _, _), _ = small_corpus
    for traj in parse_trajectory_file(train_text):
        s2 = traj.values[:, N_SETTINGS + 1]
        assert s2[-10:].mean() > s2[:10].mean()


def test_write_corpus_creates_three_files(tmp_path):
    config = SimConfig(n_train_engines=3, n_test_engines=2, total_train_rows=500, seed=3)
    paths = simdata.write_corpus(tmp_path / "data", config)
    assert sorted(paths) == ["rul", "test", "train"]
    for p in paths.values():
        assert p.is_file() and p.stat().st_size > 0
    # Writing again is idempotent byte-for-byte.
    before = {k: p.read_bytes() for k, p in paths.items()}
    simdata.write_corpus(tmp_path / "data", config)
    assert {k: p.read_bytes() for k, p in paths.items()} == before


def test_sim_config_validation():
    with pytest.raises(ConfigError, match="engine counts"):
        SimConfig(n_train_engines=0)
    with pytest.raises(ConfigError, match="cannot be split"):
        SimConfig(n_train_engines=10, total_train_rows=100)
    with pytest.raises(ConfigError, match="seed"):
        SimConfig(seed=-1)


def test_default_corpus_matches_reference_shape(train_trajectories, test_trajectories, rul_labels):
    assert len(train_trajectories) == 100
    assert sum(len(t) for t in train_trajectories) == 20631
    assert len(test_trajectories) == 100
    assert len(rul_labels) == 100
