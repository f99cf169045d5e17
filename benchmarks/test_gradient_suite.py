"""Timings of the finite-difference gradient suite, with pytest-benchmark.

Not part of the test suite (pyproject's testpaths is `tests`). Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/ --benchmark-only

The call is acceptance criterion a3's and `rulkit verify`'s: 100 random
trials at seed 7, each comparing a model's analytic gradients with central
finite differences that one stacked forward pass evaluates.
"""

import pytest

from rulkit.numerics import SeededRng
from rulkit.train_eval import gradient_check_suite

TRIALS, SEED = 100, 7


@pytest.mark.parametrize("kind", ["mlp", "lstm"])
def test_gradient_check_suite(benchmark, kind):
    worst = benchmark(lambda: gradient_check_suite(kind, TRIALS, SeededRng(SEED)))
    assert worst < 1e-5
