"""File and hashing helpers."""

import json

import numpy as np
import pytest

from rulkit.ioutil import (
    atomic_write_text,
    canonical_json,
    fmt_double,
    sha256_text,
)


def test_fmt_double_prints_17_significant_digits():
    assert fmt_double(0.1) == "0.10000000000000001"
    assert fmt_double(1.0) == "1"
    assert fmt_double(-2.5) == "-2.5"


def test_fmt_double_round_trips_doubles():
    rng = np.random.Generator(np.random.PCG64(123))
    for _ in range(500):
        x = float(rng.uniform(-1e6, 1e6)) * 10.0 ** int(rng.integers(-12, 13))
        assert float(fmt_double(x)) == x


def test_fmt_double_handles_non_finite():
    assert fmt_double(float("nan")) == "nan"
    assert fmt_double(float("inf")) == "inf"


def test_canonical_json_sorts_keys_and_strips_whitespace():
    assert canonical_json({"b": 1, "a": [1.5, None, "x"]}) == '{"a":[1.5,null,"x"],"b":1}'


def test_canonical_json_is_stable_under_key_order():
    a = canonical_json({"x": 1, "y": {"b": 2, "a": 3}})
    b = canonical_json({"y": {"a": 3, "b": 2}, "x": 1})
    assert a == b


def test_canonical_json_round_trips_floats():
    payload = {"v": [0.1, 1e-17, 12345.6789012345678]}
    decoded = json.loads(canonical_json(payload))
    assert decoded["v"] == payload["v"]


def test_sha256_text_known_values():
    # Published SHA-256 digests of the empty string and "abc".
    assert sha256_text("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert sha256_text("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_atomic_write_text_creates_parents_and_leaves_no_temp(tmp_path):
    path = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert list(path.parent.iterdir()) == [path]


def test_atomic_write_replaces_existing_content(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"


@pytest.mark.parametrize("value", [0.0, -0.0, 1e308, 5e-324])
def test_fmt_double_extremes_round_trip(value):
    assert float(fmt_double(value)) == value
