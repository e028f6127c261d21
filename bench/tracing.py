"""Span recorder for the traced benchmark run.

The tracer wraps, from the benchmark's side, the public names that the
opendomain modules look up when they call each other (``trainer.encode``,
``gcn.init_loss``, ``cli.save_checkpoint`` ...). Every call through a wrapped
name records a span: name, parent span, start and end. A span's self time is
its duration minus the time its child spans cover; calls are nested on one
thread, so children never overlap.

Nothing here is installed unless a traced run asks for it, and ``remove``
puts every original function back.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). A module is listed once per name it calls,
# because patching the defining module would miss ``from x import f`` copies.
WRAPPED = (
    ("opendomain.trainer", "run_pipeline", "trainer.pipeline"),
    ("opendomain.trainer", "pretrain_source", "model.pretrain"),
    ("opendomain.trainer", "train_gcn_init", "gcn.init"),
    ("opendomain.trainer", "gcn_reg_loss", "gcn.reg"),
    ("opendomain.trainer", "match_domains", "matching.match"),
    ("opendomain.trainer", "encode", "model.encode"),
    ("opendomain.trainer", "encode_backward", "model.encode_backward"),
    ("opendomain.trainer", "cls_loss", "losses.cls"),
    ("opendomain.trainer", "limited_balance_loss", "losses.balance"),
    ("opendomain.trainer", "balance_loss_vanilla", "losses.balance"),
    ("opendomain.trainer", "sgmd_loss", "losses.sgmd"),
    ("opendomain.trainer", "classifier_responses", "losses.responses"),
    ("opendomain.trainer", "total_loss", "losses.total"),
    ("opendomain.trainer", "predict", "evaluate.predict"),
    ("opendomain.trainer", "accuracy_triple", "evaluate.accuracy"),
    ("opendomain.gcn", "init_loss", "gcn.init_loss"),
    ("opendomain.model", "cls_loss", "losses.cls"),
    ("opendomain.model", "encode", "model.encode"),
    ("opendomain.model", "encode_backward", "model.encode_backward"),
    ("opendomain.model", "save_matrix", "numkit.save_matrix"),
    ("opendomain.model", "load_matrix", "numkit.load_matrix"),
    ("opendomain.numkit", "save_matrix", "numkit.save_matrix"),
    ("opendomain.matching", "pairwise_l1", "matching.l1"),
    ("opendomain.matching", "hungarian", "matching.solve"),
    ("opendomain.synth", "generate", "synth.generate"),
    ("opendomain.synth", "save_dataset", "synth.save"),
    ("opendomain.synth", "load_dataset", "synth.load"),
    ("opendomain.cli", "parse_config", "trainer.parse_config"),
    ("opendomain.cli", "run_pipeline", "trainer.pipeline"),
    ("opendomain.cli", "run_ablation", "trainer.ablation"),
    ("opendomain.cli", "match_domains", "matching.match"),
    ("opendomain.cli", "save_pairs", "matching.save_pairs"),
    ("opendomain.cli", "load_matrix", "numkit.load_matrix"),
    ("opendomain.cli", "save_matrix", "numkit.save_matrix"),
    ("opendomain.cli", "load_graph", "graph.load"),
    ("opendomain.cli", "save_graph", "graph.save"),
    ("opendomain.cli", "save_checkpoint", "model.save_checkpoint"),
    ("opendomain.cli", "load_checkpoint", "model.load_checkpoint"),
    ("opendomain.cli", "predict", "evaluate.predict"),
    ("opendomain.cli", "accuracy_triple", "evaluate.accuracy"),
)

# The span the benchmark opens around each ``opendomain.cli.main`` call.
CLI_SPAN = "cli.main"
_CLI_READS = {"trainer.parse_config", "synth.load", "graph.load",
              "numkit.load_matrix", "model.load_checkpoint"}
_CLI_WRITES = {"synth.save", "graph.save", "numkit.save_matrix",
               "model.save_checkpoint", "matching.save_pairs"}


def _observe_sgmd(counts, args, result):
    gate = result[3]
    counts["sgmd_gated"] += int(gate.sum())
    counts["sgmd_considered"] += int(gate.size)


def _observe_l1(counts, args, result):
    # computed, not measured: the n x m x d float64 temporary of the
    # broadcast difference
    n, d = args[0].shape
    counts["l1_bytes"] += n * args[1].shape[0] * d * 8


_OBSERVERS = {"losses.sgmd": _observe_sgmd, "matching.l1": _observe_l1}

_TIMED = (
    ("gcn.init_s", "gcn.init"), ("gcn.reg_s", "gcn.reg"),
    ("losses.cls_s", "losses.cls"), ("losses.balance_s", "losses.balance"),
    ("losses.sgmd_s", "losses.sgmd"), ("losses.responses_s", "losses.responses"),
    ("losses.total_s", "losses.total"),
    ("model.pretrain_s", "model.pretrain"), ("model.encode_s", "model.encode"),
    ("model.encode_backward_s", "model.encode_backward"),
    ("matching.match_s", "matching.match"), ("matching.l1_s", "matching.l1"),
    ("matching.solve_s", "matching.solve"),
    ("evaluate.predict_s", "evaluate.predict"),
    ("evaluate.accuracy_s", "evaluate.accuracy"),
    ("numkit.load_matrix_s", "numkit.load_matrix"),
    ("numkit.save_matrix_s", "numkit.save_matrix"),
    ("synth.generate_s", "synth.generate"), ("synth.save_s", "synth.save"),
    ("synth.load_s", "synth.load"), ("graph.load_s", "graph.load"),
)
_COUNTED = (
    ("gcn.init_calls", "gcn.init"), ("gcn.init_loss_calls", "gcn.init_loss"),
    ("gcn.reg_calls", "gcn.reg"), ("trainer.pipeline_calls", "trainer.pipeline"),
    ("trainer.steps", "losses.total"),
    ("losses.cls_calls", "losses.cls"), ("losses.balance_calls", "losses.balance"),
    ("losses.sgmd_calls", "losses.sgmd"),
    ("losses.responses_calls", "losses.responses"),
    ("losses.total_calls", "losses.total"),
    ("model.pretrain_calls", "model.pretrain"), ("model.encode_calls", "model.encode"),
    ("matching.match_calls", "matching.match"),
    ("matching.solve_calls", "matching.solve"),
    ("evaluate.predict_calls", "evaluate.predict"),
)


class Tracer:
    """Records spans while installed; ``take`` turns them into layer
    metrics and starts a fresh record."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def _wrap(self, fn, name):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Patch every listed name; a name the package no longer has is
        recorded in ``missing`` and its metrics read 0."""
        self.missing = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def remove(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> dict:
        """Per-layer metrics of everything recorded since the last take."""
        metrics = layer_metrics(self.spans, self.counts)
        self.spans = []
        self.counts = defaultdict(int)
        return metrics


def layer_metrics(spans, counts) -> dict:
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    read = write = 0.0
    for index, (name, parent, start, end) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[index]
        calls[name] += 1
        if parent >= 0 and spans[parent][0] == CLI_SPAN:
            if name in _CLI_READS:
                read += end - start
            elif name in _CLI_WRITES:
                write += end - start

    # prefix: from a pipeline's start to the end of its first matching, i.e.
    # pretrain, GCN init and the initial matching before the joint loop
    prefix = 0.0
    open_pipelines = {}
    for index, (name, parent, start, end) in enumerate(spans):
        if name == "trainer.pipeline":
            open_pipelines[index] = start
        elif name == "matching.match" and parent in open_pipelines:
            prefix += end - open_pipelines.pop(parent)

    metrics = {key: total[name] for key, name in _TIMED}
    metrics.update({key: calls[name] for key, name in _COUNTED})
    considered = counts["sgmd_considered"]
    metrics.update({
        "trainer.self_s": own["trainer.pipeline"] + own["trainer.ablation"],
        "trainer.prefix_s": prefix,
        "losses.sgmd_gate_ratio":
            counts["sgmd_gated"] / considered if considered else 0.0,
        "model.checkpoint_s":
            total["model.save_checkpoint"] + total["model.load_checkpoint"],
        "matching.l1_bytes": counts["l1_bytes"],
        "cli.read_s": read,
        "cli.write_s": write,
        "cli.self_s": own[CLI_SPAN],
        "trace.spans": len(spans),
    })
    return metrics
