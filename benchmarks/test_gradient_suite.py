"""Timings of the finite-difference gradient suite and `rulkit verify`, with
pytest-benchmark.

Not part of the test suite (pyproject's testpaths is `tests`). Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/ --benchmark-only

The suite call is acceptance criterion a3's: 100 random trials at seed 7,
each comparing a model's analytic gradients with central finite differences
that one stacked forward pass evaluates. The CLI case runs `rulkit verify`
at its defaults through `cli.main`, stdout captured: both suites at 20
trials, a 5-engine corpus, its parse and preprocessing pipeline, the EWMA
identities and the preprocessing invariants. The two together are the
verify stage of perfbench.
"""

import contextlib
import io

import pytest

from rulkit import cli
from rulkit.numerics import SeededRng
from rulkit.train_eval import gradient_check_suite

TRIALS, SEED = 100, 7


@pytest.mark.parametrize("kind", ["mlp", "lstm"])
def test_gradient_check_suite(benchmark, kind):
    worst = benchmark(lambda: gradient_check_suite(kind, TRIALS, SeededRng(SEED)))
    assert worst < 1e-5


def test_cli_verify(benchmark):
    def verify():
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            return cli.main(["verify"]), printed.getvalue()

    code, printed = benchmark(verify)
    assert code == 0, printed
    assert "FAIL" not in printed
