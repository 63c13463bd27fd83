"""The names the benchmark reaches inside prismlab, checked in tier 1.

``prismbench/run.py --trace 1`` wraps prismlab's functions by name
(``spans.Tracer.install``) and replays the fused stages it captured with
the tape's fused-node hooks swapped out (``suite._UntapedOps``). A rename
in prismlab that breaks either fails here in about a second, not only in
the minute-long ``prismbench/selftest.py``.
"""

import importlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "prismbench"


@pytest.fixture
def bench(monkeypatch):
    """The namespace ``run.py`` builds, and the ``spans`` and ``suite``
    modules. Importing ``run`` pins the BLAS thread variables in
    ``os.environ``, and ``load_prismlab`` puts ``src/`` on ``sys.path``;
    both are undone after the test."""
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", [str(BENCH)] + sys.path)
    run, spans, suite = (importlib.import_module(m) for m in ("run", "spans", "suite"))
    return run.load_prismlab(), spans, suite


def test_tracer_patches_and_restores_every_name(bench):
    pl, spans, suite = bench
    cfg = pl.cell.PrismConfig(d=4, chunk=4)
    params = pl.cell.PrismParams.init(np.random.default_rng(0), cfg, dtype=np.float32)
    x = pl.tensor.Tensor(np.random.default_rng(1).standard_normal((2, 6, 4)),
                         dtype=np.float32)
    tracer = spans.Tracer()
    tracer.install(pl)
    try:
        patched = list(tracer._patched)
        assert patched
        for owner, attr, old in patched:
            assert getattr(owner, attr) is not old, attr
        with pl.tensor.no_grad():
            pl.cell.serial_forward(x, params, cfg)
            pl.cell.chunked_scan_forward(x, params, cfg)
    finally:
        tracer.uninstall()
    for owner, attr, old in patched:
        assert getattr(owner, attr) is old, attr

    # The replay of each captured fused stage, as the traced run does it.
    hooks = (pl.tensor.custom_op, pl.tensor.custom_op_multi)
    assert {"cell.rank_accumulate", "cell.scan_core"} <= set(tracer.captured)
    for name, (args, kwargs) in tracer.captured.items():
        peak_mb, back_s = suite.replay_stage(pl, tracer.originals[name], args, kwargs, 1)
        assert peak_mb > 0 and back_s >= 0, name
    with suite._UntapedOps(pl.tensor):
        assert pl.tensor.custom_op is not hooks[0]
    assert (pl.tensor.custom_op, pl.tensor.custom_op_multi) == hooks


def test_prism_blocks_open_block_spans_around_the_layer_stages(bench):
    # The traced run reads models.block_self_ms.prism from the block spans:
    # each of the two PRISM blocks opens one, apart from the other, and the
    # layer's stages run inside them.
    pl, spans, _ = bench
    tracer = spans.Tracer()
    tracer.install(pl)
    try:
        model = pl.models.build_model(pl.models.ModelKind.PRISM, d=8, vocab=16, n_ctx=12)
        model.forward(np.random.default_rng(2).integers(0, 16, (2, 12)))
    finally:
        tracer.uninstall()

    def enclosing(i):
        """The indices of the spans open around span i."""
        out = set()
        while (i := tracer.spans[i].parent) is not None:
            out.add(i)
        return out

    blocks = [i for i, s in enumerate(tracer.spans) if s.name == "models.block"]
    assert len(blocks) == 2
    assert blocks[0] not in enclosing(blocks[1]) and blocks[1] not in enclosing(blocks[0])
    stages = ("cell.compute_anchor", "cell.compute_step_terms", "cell.rank_accumulate")
    for blk in blocks:
        inside = {s.name for i, s in enumerate(tracer.spans) if blk in enclosing(i)}
        assert set(stages) <= inside, inside
