"""In-memory span tracer installed around rulkit's public functions.

rulkit is not edited. Each wrapper replaces one function on the module
attribute its callers actually look up (``from .numerics import sigmoid``
inside ``models`` means the LSTM calls ``rulkit.models.sigmoid``), records
one span per call and calls straight through, so the computation is
untouched. Spans are kept in a list and only written out when the run ends.

A span is ``(name, start, end, parent, run_id, batch)``: ``parent`` is the
index of the enclosing span (-1 for a root), ``run_id`` numbers the traced
pass, and ``batch`` is the leading dimension of the call's batch argument
where one applies (64 for training, 512 for validation chunks, 1 for single
predictions, 1-3 for gradient checks).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _rows(arg_index):
    return lambda args: int(args[arg_index].shape[0])


# (span name, modules whose attribute is replaced, attribute, batch argument).
# A function imported by name into several modules is wrapped once and
# installed on every such name, so all of its callers are seen.
TARGETS = (
    ("simdata.generate_corpus", ("simdata",), "generate_corpus", None),
    ("dataset_io.parse_trajectory_file", ("dataset_io",), "parse_trajectory_file", None),
    ("dataset_io.parse_rul_file", ("dataset_io",), "parse_rul_file", None),
    ("preprocess.select_features", ("preprocess",), "select_features", None),
    ("preprocess.smooth_trajectory", ("preprocess",), "smooth_trajectory", None),
    ("preprocess.ewma_smooth", ("preprocess",), "ewma_smooth", None),
    ("preprocess.trim_head", ("preprocess",), "trim_head", None),
    ("preprocess.fit_minmax", ("preprocess",), "fit_minmax", None),
    ("preprocess.apply_minmax", ("preprocess",), "apply_minmax", None),
    ("preprocess.label_rul", ("preprocess",), "label_rul", None),
    ("preprocess.make_windows", ("preprocess",), "make_windows", None),
    ("preprocess.make_rows", ("preprocess",), "make_rows", None),
    ("preprocess.split_by_engine", ("preprocess",), "split_by_engine", None),
    ("preprocess.write_bundle", ("preprocess",), "write_bundle", None),
    ("preprocess.load_bundle", ("preprocess",), "load_bundle", None),
    ("preprocess.prepare_test_engine", ("preprocess", "train_eval"), "prepare_test_engine", None),
    ("models.lstm_forward", ("models",), "lstm_forward", _rows(1)),
    ("models.lstm_backward", ("models",), "lstm_backward", _rows(2)),
    ("models.mlp_forward", ("models",), "mlp_forward", _rows(1)),
    ("models.mlp_backward", ("models",), "mlp_backward", _rows(2)),
    ("models.mse_loss", ("models",), "mse_loss", _rows(0)),
    ("numerics.sigmoid", ("models",), "sigmoid", _rows(0)),
    ("optim.adam_step", ("train_eval",), "adam_step", None),
    ("train_eval.train", ("train_eval",), "train", None),
    ("train_eval.evaluate", ("train_eval",), "evaluate", None),
    ("train_eval.write_checkpoint", ("train_eval",), "write_checkpoint", None),
    ("train_eval.load_checkpoint", ("train_eval",), "load_checkpoint", None),
    ("train_eval.numeric_gradients", ("train_eval",), "numeric_gradients", None),
    ("train_eval.gradient_check_suite", ("train_eval",), "gradient_check_suite", None),
    ("ioutil.canonical_json", ("preprocess", "train_eval"), "canonical_json", None),
    ("ioutil.atomic_write_text", ("preprocess", "train_eval", "simdata"), "atomic_write_text", None),
    ("cli.main", ("cli",), "main", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)

# What a train_eval.train span may contain: the train span's own work plus
# these layers, and nothing else.
TRAIN_SUBTREE = frozenset({
    "train_eval.train", "models.lstm_forward", "models.lstm_backward",
    "models.mlp_forward", "models.mlp_backward", "models.mse_loss",
    "numerics.sigmoid", "optim.adam_step",
})


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _open(self, name, batch):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.run_id, batch])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own, e.g. one stage of a pass."""
        sid = self._open(name, None)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name, fn, batch_of):
        def traced(*args, **kwargs):
            sid = self._open(name, batch_of(args) if batch_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, modules, attr, batch_of in TARGETS:
            mods = [importlib.import_module(f"rulkit.{m}") for m in modules]
            original = getattr(mods[0], attr)
            wrapper = self._wrap(name, original, batch_of)
            for mod in mods:
                if getattr(mod, attr) is not original:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not {name}")
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def take(self) -> list:
        """Hand over the recorded spans and start an empty list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The program is single-threaded, so children run one after another
    inside their parent and their durations add up to the covered time.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def per_layer(spans) -> dict[str, dict[str, float]]:
    """Self time and call count per wrapped function."""
    own = self_times(spans)
    out = {name: {"s": 0.0, "calls": 0} for name in SPAN_NAMES}
    for span, s in zip(spans, own):
        if span[0] in out:
            out[span[0]]["s"] += s
            out[span[0]]["calls"] += 1
    return out


def train_span_problems(spans) -> list[str]:
    """Check that every train span is fully accounted for by its subtree.

    The self times of a train span and of everything below it must add up
    to the train span's duration, and only the training layers may appear
    below it.
    """
    own = self_times(spans)
    children = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)
    problems = []
    for i, span in enumerate(spans):
        if span[0] != "train_eval.train":
            continue
        total, todo = 0.0, [i]
        while todo:
            j = todo.pop()
            if spans[j][0] not in TRAIN_SUBTREE:
                problems.append(f"{spans[j][0]} runs inside train_eval.train")
            total += own[j]
            todo.extend(children[j])
        duration = span[2] - span[1]
        if abs(total - duration) > 1e-9 * max(duration, 1.0):
            problems.append(f"train span {duration:.6f}s but subtree self times {total:.6f}s")
    return problems


def summary(spans, scale: float = 1.0) -> dict:
    """Self time (times scale) and calls per (stage, function, batch size)."""
    own = [s * scale for s in self_times(spans)]
    stage = [None] * len(spans)
    groups: dict = defaultdict(lambda: [0.0, 0])
    for i, span in enumerate(spans):
        parent = span[3]
        stage[i] = span[0] if parent < 0 else stage[parent]
        g = groups[(stage[i], span[0], span[5])]
        g[0] += own[i]
        g[1] += 1
    return {
        "by_stage_function_batch": [
            {"stage": k[0], "function": k[1], "batch": k[2], "self_s": v[0], "calls": v[1]}
            for k, v in sorted(groups.items(), key=lambda kv: -kv[1][0])
        ]
    }


def write_spans(path: Path, spans) -> None:
    """One JSON array per line: [id, name, start, end, parent, run_id, batch]."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(spans):
            fh.write(json.dumps([i, *span]) + "\n")
