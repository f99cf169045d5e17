"""Timing of corpus generation, with pytest-benchmark.

Not part of the test suite (pyproject's testpaths is `tests`). Run with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/ --benchmark-only

`generate_corpus` builds the three texts of the default `simulate` corpus
(seed 2014, 100 training engines with 20,631 rows, 100 test engines): all
of `write_corpus` but the file writes, and so most of perfbench's `setup_s`
on `mlp_pipeline`. Most of its time is the formatting of 35.5k rows of 25
numeric fields each.
"""

from rulkit import simdata


def test_generate_corpus(benchmark):
    train_text, test_text, rul_text = benchmark(simdata.generate_corpus, simdata.SimConfig())
    assert train_text.count("\n") == 20631
    assert rul_text.count("\n") == 100 and test_text.startswith("1 1 ")
