"""Windows cut at batch time against the old code that stored every window.

`reference_make_windows` is make_windows from when each split held an
(N, W, F) array of pre-cut windows; it is frozen here as the oracle. On
random engine lengths, trims and windows, a SampleSet's gathered windows,
targets and engine ids must equal the oracle's bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit import models, train_eval
from rulkit.dataset_io import EngineTrajectory, N_SENSORS, N_SETTINGS
from rulkit.numerics import SeededRng
from rulkit.preprocess import (
    DEFAULT_ALPHA,
    DEFAULT_TRIM,
    DEFAULT_WINDOW,
    SampleSet,
    apply_minmax,
    label_rul,
    run_pipeline,
    smooth_trajectory,
    split_by_engine,
    trim_head,
)


def reference_make_windows(features: np.ndarray, engine_id: int, rul: np.ndarray, window: int):
    """(windows (N, W, F), targets (N,), engine ids (N,)) of one engine."""
    n = len(features) - window + 1
    idx = np.arange(window)[None, :] + np.arange(n)[:, None]
    return (
        features[idx],
        rul[window - 1 :].copy(),
        np.full(n, engine_id, dtype=np.int64),
    )


def reference_split(trajectories, result, ids, trim, window):
    """The oracle's windows, targets and engine ids for one split, in input order."""
    parts = []
    for traj in trajectories:
        if traj.engine_id in ids:
            prepared = trim_head(smooth_trajectory(traj, DEFAULT_ALPHA), trim)
            scaled = apply_minmax(result.scaler, prepared)
            parts.append(
                reference_make_windows(scaled, traj.engine_id, label_rul(prepared), window)
            )
    features = len(result.scaler.feature_names)
    return tuple(
        np.concatenate([p[k] for p in parts] + [empty])
        for k, empty in enumerate(
            (np.zeros((0, window, features)), np.zeros(0), np.zeros(0, dtype=np.int64))
        )
    )


@st.composite
def corpora(draw):
    window = draw(st.integers(1, 12))
    trim = draw(st.integers(0, 6))
    n_engines = draw(st.integers(2, 6))
    ids = draw(st.lists(st.integers(1, 500), min_size=n_engines, max_size=n_engines,
                        unique=True))
    lengths = draw(st.lists(st.integers(trim + window, trim + window + 25),
                            min_size=n_engines, max_size=n_engines))
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    trajectories = [
        EngineTrajectory(engine_id, np.hstack([
            gen.uniform(-1.0, 1.0, (length, N_SETTINGS)),
            gen.uniform(0.0, 1.0, (length, N_SENSORS)),
        ]))
        for engine_id, length in zip(ids, lengths)
    ]
    n_val = draw(st.integers(0, n_engines - 1))
    seed = draw(st.integers(0, 2**16))
    return trajectories, trim, window, n_val, seed


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_window_count_is_sum_of_engine_lengths_minus_trim_and_window(corpus):
    trajectories, trim, window, n_val, seed = corpus
    result = run_pipeline(trajectories, trim=trim, window=window, n_val=n_val, seed=seed)
    lengths = [len(t) for t in trajectories]
    assert result.total_windows == sum(length - trim - window + 1 for length in lengths)
    assert result.total_rows == sum(length - trim for length in lengths)


@settings(max_examples=60, deadline=None)
@given(corpora(), st.integers(0, 2**16))
def test_gathered_windows_equal_stored_windows_bit_for_bit(corpus, batch_seed):
    trajectories, trim, window, n_val, seed = corpus
    result = run_pipeline(trajectories, trim=trim, window=window, n_val=n_val, seed=seed)
    for ids, samples in ((result.train_ids, result.train_windows),
                         (result.val_ids, result.val_windows)):
        windows, targets, engines = reference_split(trajectories, result, ids, trim, window)
        n = len(samples)
        assert n == windows.shape[0]
        gathered = samples.inputs(np.arange(n))
        assert gathered.shape == windows.shape
        assert gathered.tobytes() == windows.tobytes()
        assert samples.targets.tobytes() == targets.tobytes()
        # Every row of a gathered window belongs to the oracle's engine.
        rows_engine = samples.engine_ids[samples.starts[:, None] + np.arange(window)]
        assert np.array_equal(rows_engine, np.repeat(engines[:, None], window, axis=1))
        # A shuffled batch and a slice gather the same samples as the oracle.
        idx = SeededRng(batch_seed).shuffle(n)[: max(1, n // 3)] if n else np.zeros(0, int)
        assert samples.inputs(idx).tobytes() == windows[idx].tobytes()
        assert samples.inputs(slice(1, 4)).tobytes() == windows[1:4].tobytes()


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_engine_split_is_disjoint_and_exhaustive(corpus):
    trajectories, trim, window, n_val, seed = corpus
    ids = {t.engine_id for t in trajectories}
    train_ids, val_ids = split_by_engine(sorted(ids), n_val, seed)
    assert set(train_ids).isdisjoint(val_ids)
    assert set(train_ids) | set(val_ids) == ids
    assert len(val_ids) == n_val
    result = run_pipeline(trajectories, trim=trim, window=window, n_val=n_val, seed=seed)
    assert (result.train_ids, result.val_ids) == (train_ids, val_ids)
    assert set(result.train_rows.engine_ids.tolist()) == set(train_ids)
    assert set(result.val_rows.engine_ids.tolist()) == set(val_ids)


def _forward_in_blocks(params, inputs):
    """Each block of train_eval's rule forwarded alone, concatenated."""
    block = train_eval.BLOCK_FLOATS // params.row_width
    return np.concatenate([params.forward(inputs[start : start + block])[0]
                           for start in range(0, len(inputs), block)])


def _first(samples: SampleSet, n: int) -> SampleSet:
    """The first n samples of samples, as a SampleSet cut from its rows."""
    end = samples.starts[n - 1] + (samples.window or 1)
    return SampleSet(samples.rows[:end], samples.rul[:end], samples.engine_ids[:end],
                     samples.window)


def test_validation_predictions_on_gathered_chunks_equal_stored_slices(
    train_trajectories, pipeline_seed1
):
    """The validation pass forwards gathered windows (rows) a block at a time,
    128 windows for the recipe's LSTM and 512 rows for its MLP. A random LSTM
    and MLP must predict exactly what forward passes over the same stored
    windows (rows), block by block, predict, at block - 1, block and
    block + 1 samples and on the whole default validation set.

    Against one forward pass over all n samples, blocks change only which
    kernels BLAS sums the last block with. With OpenBLAS 0.3.31 a last block
    of 2-37 MLP rows is summed in another order, so the MLP's whole set must
    leave a longer tail than that and then equal one pass bit for bit. The
    LSTM has the batch as the rows of each step's product, and BLAS sums most
    short batches' last windows in another order: its blocks must equal one
    pass to 1e-12 relative, the bound test_models holds a batch to against its
    windows run alone, as must every case with a one-sample last block."""
    result = pipeline_seed1
    windows, _, _ = reference_split(
        train_trajectories, result, result.val_ids, DEFAULT_TRIM, DEFAULT_WINDOW
    )
    n_features = len(result.scaler.feature_names)
    cases = (  # params, samples, stored inputs, block, longest tail BLAS sums differently
        (models.init_lstm(n_features, 64, SeededRng(3)), result.val_windows, windows, 128, None),
        (models.init_mlp((n_features, 64, 32, 1), SeededRng(3)), result.val_rows,
         result.val_rows.rows.copy(), 512, 37),
    )
    for params, samples, stored, block, short_tail in cases:
        assert train_eval.BLOCK_FLOATS // params.row_width == block
        assert len(samples) > 2 * block
        if short_tail is not None:
            assert len(samples) % block > short_tail
        for n in (block - 1, block, block + 1, len(samples)):
            got = train_eval.predict_in_blocks(params, _first(samples, n))
            expected = params.forward(stored[:n])[0]
            assert got.tobytes() == _forward_in_blocks(params, stored[:n]).tobytes(), n
            if n <= block or (short_tail is not None and n % block > short_tail):
                assert got.tobytes() == expected.tobytes(), n
            else:
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
