"""The corpus generator against a frozen copy of its per-field formatter.

The reference below formats every field of a row with its own f-string on
numpy scalars and joins the fields with spaces; it is the text the
generator must keep writing. The generator formats each row with one
'%'-call on Python floats. Both round through the same correctly rounded
conversion, so all three texts (train, test, RUL) must be equal byte for
byte, the '-0.0000' of a small negative value included.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rulkit import simdata
from rulkit.numerics import SeededRng
from rulkit.simdata import (
    AMP_RANGE, CONSTANT_SETTING_VALUE, MIN_TEST_LENGTH, READING_NOISE_RANGE,
    SENSOR_BASES, SENSOR_BIAS_SD, SENSOR_SPANS, SETTING_JITTER_SD, SHARED_NOISE_SD,
    TAU_RANGE, TEST_FULL_LIFE_RANGE, TEST_RUL_RANGE, TRAIN_LENGTH_LIMITS, SimConfig,
)

# ---------------------------------------------------------------------------
# Frozen reference
# ---------------------------------------------------------------------------


def ref_engine_rows(engine_id, length, full_life, gen, reading_noise):
    tau = gen.uniform(*TAU_RANGE)
    amp = gen.uniform(*AMP_RANGE)
    bias = gen.normal(0.0, SENSOR_BIAS_SD, size=len(SENSOR_BASES))
    jitter1 = gen.normal(0.0, SETTING_JITTER_SD[0], size=length)
    jitter2 = gen.normal(0.0, SETTING_JITTER_SD[1], size=length)
    shared = gen.normal(0.0, SHARED_NOISE_SD, size=length)
    eps = gen.normal(0.0, 1.0, size=(length, len(SENSOR_BASES)))

    cycles = np.arange(1, length + 1)
    rul = full_life - cycles
    level = amp * np.exp(-rul / tau)

    signal = level[:, None] + shared[:, None] + bias[None, :] + eps * reading_noise[None, :]
    readings = np.asarray(SENSOR_BASES) + np.asarray(SENSOR_SPANS) * signal
    rows = []
    for t in range(length):
        fields = [str(engine_id), str(cycles[t]),
                  f"{jitter1[t]:.4f}", f"{jitter2[t]:.4f}",
                  f"{CONSTANT_SETTING_VALUE:.4f}"]
        fields.extend(f"{v:.4f}" for v in readings[t])
        rows.append(" ".join(fields))
    return rows


def ref_generate_corpus(config):
    gen = SeededRng(config.seed).generator
    reading_noise = gen.uniform(*READING_NOISE_RANGE, size=len(SENSOR_BASES))

    train_lines = []
    for engine_id, length in enumerate(simdata._train_lengths(config, gen), start=1):
        length = int(length)
        train_lines.extend(ref_engine_rows(engine_id, length, length, gen, reading_noise))

    test_lines = []
    rul_lines = []
    lo_rul, hi_rul = TEST_RUL_RANGE
    lo_life, hi_life = TEST_FULL_LIFE_RANGE
    for engine_id in range(1, config.n_test_engines + 1):
        rul = int(gen.integers(lo_rul, hi_rul + 1))
        full_life = int(gen.integers(max(lo_life, rul + MIN_TEST_LENGTH), hi_life + 1))
        observed = full_life - rul
        test_lines.extend(ref_engine_rows(engine_id, observed, full_life, gen, reading_noise))
        rul_lines.append(str(rul))

    return (
        "\n".join(train_lines) + "\n",
        "\n".join(test_lines) + "\n",
        "\n".join(rul_lines) + "\n",
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

# sha256 of the default corpus (seed 2014, 100 + 100 engines, 20,631 rows).
DEFAULT_DIGESTS = (
    "8fdf32db921abe571898154b254346fd0d27146fe668615b4f9a1dd318c44347",
    "a74eb5e2414da278fb68283cca5019d0bce17f7784825193ff3fb172e3338e5f",
    "33bdb593a5d3173457025179a9b66677b5e989b7a123667228458fa6174a0abb",
)


def assert_same_texts(config):
    got = simdata.generate_corpus(config)
    want = ref_generate_corpus(config)
    for name, g, w in zip(("train", "test", "rul"), got, want):
        assert g == w, f"{name} text differs for {config}"
    return got


def test_default_corpus_matches_reference_and_pinned_digests():
    texts = assert_same_texts(SimConfig())
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == DEFAULT_DIGESTS
    # Small negative jitter rounds to a signed zero; both formatters keep the sign.
    assert "-0.0000" in texts[0].split()


def test_corpus_seed_7_matches_reference():
    assert_same_texts(SimConfig(seed=7))


def test_verify_corpus_matches_reference():
    # The corpus `rulkit verify` builds (at its default seed 0).
    assert_same_texts(SimConfig(n_train_engines=5, n_test_engines=3, total_train_rows=900, seed=0))


def test_small_corpus_shape_matches_reference():
    # The shape of the small_corpus_paths fixture and of the CLI workspace.
    for seed in (5, 7):
        assert_same_texts(SimConfig(n_train_engines=6, n_test_engines=4,
                                    total_train_rows=960, seed=seed))


@st.composite
def sim_configs(draw):
    n_train = draw(st.integers(1, 6))
    lo, hi = TRAIN_LENGTH_LIMITS
    return SimConfig(
        n_train_engines=n_train,
        n_test_engines=draw(st.integers(1, 5)),
        total_train_rows=draw(st.integers(lo * n_train, hi * n_train)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=20, deadline=None)
@given(sim_configs())
def test_drawn_configs_match_reference(config):
    assert_same_texts(config)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6))
def test_percent_format_equals_numpy_scalar_fstring(x):
    # Values near a rounding tie at the fourth decimal, signed zeros included.
    for v in (x, np.nextafter(x, 0.0), round(x, 4) + 5e-5, -abs(x) * 1e-9):
        assert "%.4f" % float(v) == f"{np.float64(v):.4f}"
