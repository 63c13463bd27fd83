"""In-memory spans around calls into prismlab's public functions.

Every wrapper is installed at the module attribute where the caller looks
the name up: ``models.prism_block_forward`` rather than
``cell.prism_block_forward``, because ``models`` imports the name.
Mixer functions are bound into each block when a model is built, so the
tracer is installed before any model of the traced run is built.

Nothing inside ``src/`` changes; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import time

import numpy as np

# Stages whose first call's arguments are kept for the backward replay.
REPLAYED = ("cell.rank_accumulate", "cell.scan_core", "models.gated_la_scan")


class Span:
    __slots__ = ("name", "start", "end", "parent", "model", "nodes")

    def __init__(self, name, start, parent, model):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.model = model
        self.nodes = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans (name, start, end, parent) and tape-node counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.model = None
        self.nodes = 0          # tape nodes since the last backward
        self.nodes_total = 0
        self.captured = {}
        self.originals = {}
        self._patched = []

    # -- spans -----------------------------------------------------------
    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.model))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        """End span ``idx`` and any span still open inside it, such as a
        training step that an exception cut short."""
        end = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top].end = end
            if top == idx:
                return
        raise RuntimeError(f"span {self.spans[idx].name} is not open")

    def top_name(self):
        return self.spans[self.stack[-1]].name if self.stack else None

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, pl, layers=True):
        """Wrap the public functions of the prismlab modules in ``pl``.

        With ``layers`` false only the step clock is installed: batch
        draw, backward and Adam update, a few spans per training step,
        and the tape-node count. The untraced run uses it for per-step
        times and for the no-tape check of evaluation.
        """
        cell, models, optim, tensor, train = (
            pl.cell, pl.models, pl.optim, pl.tensor, pl.train)
        plain = [
            (cell, "compute_anchor", "cell.compute_anchor"),
            (cell, "compute_step_terms", "cell.compute_step_terms"),
            (cell, "serial_forward", "cell.serial_forward"),
            (cell, "chunked_scan_forward", "cell.chunked_scan_forward"),
            (models, "prism_block_forward", "models.block"),
            (models.MixerBlockParams, "forward", "models.block"),
            (models, "mom_forward", "models.mom_forward"),
            (models, "la_mixer_forward", "models.la_mixer_forward"),
            (models, "causal_attention", "models.causal_attention"),
            (models.SequenceModel, "forward", "models.sequence_forward"),
            (train, "query_loss", "train.query_loss"),
        ]
        # evaluate opens a span in both modes, so that the batches it draws
        # inside run_training's final snapshot open no training step.
        self._patch(train, "evaluate", self.wrap(train.evaluate, "train.evaluate"))
        for owner, attr, name in plain if layers else ():
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        for name in REPLAYED if layers else ():
            module = cell if name.startswith("cell.") else models
            attr = name.split(".", 1)[1]
            self.originals[name] = getattr(module, attr)
            self._patch(module, attr, self._capturing(self.originals[name], name))
        # tasks.generate_batch, as train imports it
        self._patch(train, "generate_batch", self._step_opening(train.generate_batch))
        self._patch(optim.Adam, "step", self._step_closing(optim.Adam.step))
        self._patch(tensor, "backward", self._counting_backward(tensor.backward))
        self._patch(tensor, "_record", self._counting_record(tensor._record))

    def uninstall(self):
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def _capturing(self, fn, name):
        traced = self.wrap(fn, name)

        def capture(*args, **kwargs):
            self.captured.setdefault(name, (args, kwargs))
            return traced(*args, **kwargs)
        return capture

    def _step_opening(self, fn):
        # A training step runs from its batch draw to the end of its Adam
        # update; batches drawn inside evaluate open no step.
        traced = self.wrap(fn, "tasks.generate_batch")

        def generate(*args, **kwargs):
            if self.top_name() == "op.train":
                self.open("train.step")
            return traced(*args, **kwargs)
        return generate

    def _step_closing(self, fn):
        traced = self.wrap(fn, "optim.adam_step")

        def step(*args, **kwargs):
            out = traced(*args, **kwargs)
            if self.top_name() == "train.step":
                self.close(self.stack[-1])
            return out
        return step

    def _counting_backward(self, fn):
        def backward(*args, **kwargs):
            idx = self.open("tensor.backward")
            self.spans[idx].nodes, self.nodes = self.nodes, 0
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return backward

    def _counting_record(self, fn):
        def record(*args, **kwargs):
            self.nodes += 1
            self.nodes_total += 1
            return fn(*args, **kwargs)
        return record

    # -- analysis ----------------------------------------------------------
    def self_times(self):
        """Duration of each span minus the time its child spans cover.

        Spans of one thread nest, so the children of a span are disjoint
        and their durations add up to the covered time.
        """
        own = np.array([s.duration for s in self.spans], dtype=np.float64)
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def to_json(self):
        own = self.self_times()
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "model": s.model, "self": float(own[i]),
                 **({"nodes": s.nodes} if s.nodes is not None else {})}
                for i, s in enumerate(self.spans)]
