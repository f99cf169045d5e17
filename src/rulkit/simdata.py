"""Deterministic generator of run-to-failure turbofan-style datasets.

Produces the classic 26-column whitespace layout (unit, cycle, three
operating settings, 21 sensors) plus a companion per-engine RUL label
file, so the rest of the toolkit can be exercised end to end without
shipping proprietary data. Engines follow an exponential degradation
curve with engine-specific time constants; sensors observe it through
per-sensor gains, persistent per-engine biases, a shared per-cycle
disturbance, and independent reading noise. Seven sensors and the third
operating setting are emitted exactly constant, matching the structure
the preprocessing stage is built to detect.

Everything is drawn from a single seeded generator in a fixed order, and
each value is written with '%.4f' semantics (correctly rounded, so -0.0000
appears where a small negative value rounds to zero), so one seed fixes
every byte of the output files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .ioutil import atomic_write_text
from .numerics import SeededRng

DEFAULT_SEED = 2014
DEFAULT_TRAIN_ENGINES = 100
DEFAULT_TEST_ENGINES = 100
DEFAULT_TOTAL_TRAIN_ROWS = 20631

TRAIN_LENGTH_RANGE = (150, 260)
TRAIN_LENGTH_LIMITS = (128, 362)
TEST_RUL_RANGE = (7, 145)
TEST_FULL_LIFE_RANGE = (150, 270)
MIN_TEST_LENGTH = 31

# Degradation level for an engine with remaining life r is
# amp * exp(-r / tau): near zero through most of life, rising sharply
# toward failure. tau varies widely per engine, so a level reading alone
# leaves remaining life ambiguous; the local slope-to-level ratio (1/tau)
# resolves it, and only multi-cycle inputs can see that.
TAU_RANGE = (20.0, 185.0)
AMP_RANGE = (0.8, 1.2)

SENSOR_BIAS_SD = 0.04       # persistent per-(engine, sensor) offset
SHARED_NOISE_SD = 0.05      # per-cycle disturbance common to all sensors
READING_NOISE_RANGE = (0.07, 0.12)  # per-sensor independent noise level

SETTING_JITTER_SD = (0.0015, 0.0003)
CONSTANT_SETTING_VALUE = 100.0

# Baseline reading per sensor (1-based index order) and the full-scale
# swing each applies to the degradation level. Zero swing means the
# sensor reads its baseline forever.
SENSOR_BASES = (
    518.67, 642.0, 1585.0, 1400.0, 14.62, 21.61, 554.0,
    2388.0, 9050.0, 1.3, 47.2, 522.0, 2388.05, 8130.0,
    8.4, 0.03, 392.0, 2388.0, 100.0, 39.0, 23.4,
)
SENSOR_SPANS = (
    0.0, 3.2, 14.0, 22.0, 0.0, 0.0, -7.5,
    0.55, 28.0, 0.0, 1.3, -6.5, 0.45, 32.0,
    0.28, 0.0, 5.0, 0.0, 0.0, -1.7, -1.05,
)
CONSTANT_SENSOR_IDS = frozenset(
    i + 1 for i, span in enumerate(SENSOR_SPANS) if span == 0.0
)

# One data row: unit, cycle, two jittered settings, the constant third
# setting, then the sensors, each value rounded as '%.4f' rounds it.
ROW_FORMAT = f"%d %d %.4f %.4f {CONSTANT_SETTING_VALUE:.4f}" + " %.4f" * len(SENSOR_BASES)


@dataclass(frozen=True)
class SimConfig:
    """Shape of one generated corpus."""

    n_train_engines: int = DEFAULT_TRAIN_ENGINES
    n_test_engines: int = DEFAULT_TEST_ENGINES
    total_train_rows: int = DEFAULT_TOTAL_TRAIN_ROWS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n_train_engines < 1 or self.n_test_engines < 1:
            raise ConfigError("engine counts must be >= 1")
        lo, hi = TRAIN_LENGTH_LIMITS
        if not lo * self.n_train_engines <= self.total_train_rows <= hi * self.n_train_engines:
            raise ConfigError(
                f"total_train_rows {self.total_train_rows} cannot be split into "
                f"{self.n_train_engines} lengths within {TRAIN_LENGTH_LIMITS}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _train_lengths(config: SimConfig, gen: np.random.Generator) -> np.ndarray:
    """Per-engine lengths that sum exactly to the requested row total."""
    lo, hi = TRAIN_LENGTH_RANGE
    lengths = gen.integers(lo, hi + 1, size=config.n_train_engines)
    floor, ceil = TRAIN_LENGTH_LIMITS
    diff = config.total_train_rows - int(lengths.sum())
    step = 1 if diff > 0 else -1
    i = 0
    while diff != 0:
        j = i % config.n_train_engines
        candidate = lengths[j] + step
        if floor <= candidate <= ceil:
            lengths[j] = candidate
            diff -= step
        i += 1
    return lengths


def _engine_rows(engine_id: int, length: int, full_life: int, gen: np.random.Generator,
                 reading_noise: np.ndarray) -> list[str]:
    """Formatted data rows for one engine observed for `length` cycles."""
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
    # Constant sensors have zero span, but bias/noise were still drawn for
    # them above so the stream layout does not depend on the span table.
    values = np.column_stack([jitter1, jitter2, readings]).tolist()
    return [ROW_FORMAT % (engine_id, t, *v) for t, v in enumerate(values, start=1)]


def generate_corpus(config: SimConfig = SimConfig()) -> tuple[str, str, str]:
    """Return (train_text, test_text, rul_text) for one seeded corpus."""
    gen = SeededRng(config.seed).generator
    reading_noise = gen.uniform(*READING_NOISE_RANGE, size=len(SENSOR_BASES))

    train_lines: list[str] = []
    for engine_id, length in enumerate(_train_lengths(config, gen).tolist(), start=1):
        train_lines.extend(_engine_rows(engine_id, length, length, gen, reading_noise))

    test_lines: list[str] = []
    rul_lines: list[str] = []
    lo_rul, hi_rul = TEST_RUL_RANGE
    lo_life, hi_life = TEST_FULL_LIFE_RANGE
    for engine_id in range(1, config.n_test_engines + 1):
        rul = int(gen.integers(lo_rul, hi_rul + 1))
        full_life = int(gen.integers(max(lo_life, rul + MIN_TEST_LENGTH), hi_life + 1))
        observed = full_life - rul
        test_lines.extend(_engine_rows(engine_id, observed, full_life, gen, reading_noise))
        rul_lines.append(str(rul))

    return tuple("\n".join(lines) + "\n" for lines in (train_lines, test_lines, rul_lines))


def write_corpus(out_dir: Path | str, config: SimConfig = SimConfig()) -> dict[str, Path]:
    """Write train/test/RUL files into out_dir; returns the three paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = {"train": "train_FD001.txt", "test": "test_FD001.txt", "rul": "RUL_FD001.txt"}
    paths = {key: out / name for key, name in names.items()}
    for path, text in zip(paths.values(), generate_corpus(config)):
        atomic_write_text(path, text)
    return paths
