"""What each per-layer metric should move.

``BENCHMARK.json`` at the repository root holds every metric's name, unit,
direction and bound, and each workload's reason; ``run.py`` reads them
from there. ``BENCHMARK.json`` may hold only its fixed keys, so this map
records, for each per-layer metric, which end-to-end metric it should
move and on which workload, so a change that claims a gain can be checked
against its trace.
"""

MODELS = ("prism", "la", "mom", "transformer")

_TRAIN = "every train_tok_s on train-n128"

SHOULD_MOVE = {
    "cell.compute_anchor_ms": "train_tok_s.prism on train-n128, a small share",
    "cell.compute_step_terms_ms": "train_tok_s.prism on train-n128, a small share",
    "cell.rank_accumulate_ms": ("train_tok_s.prism on train-n128 and long-n2048; "
                                "fwd_tok_s.prism_serial on long-n2048"),
    "cell.rank_accumulate_bwd_ms": ("train_tok_s.prism on train-n128 and long-n2048; "
                                    "never eval_tok_s.prism"),
    "cell.scan_core_ms": ("train_tok_s.prism on train-n128 and long-n2048; "
                          "fwd_tok_s.prism_serial on long-n2048"),
    "cell.scan_core_bwd_ms": ("train_tok_s.prism on train-n128 and long-n2048; "
                              "never eval_tok_s.prism"),
    "cell.chunked_scan_forward_ms": "fwd_tok_s.prism_chunked on long-n2048",
    "cell.rank_accumulate_peak_mb": "peak_rss_mb on long-n2048",
    "cell.scan_core_peak_mb": "peak_rss_mb on long-n2048",
    "models.gated_la_scan_ms": ("train_tok_s.mom on train-n128 and long-n2048; "
                                "eval_tok_s.mom on train-n128"),
    "models.gated_la_scan_bwd_ms": "train_tok_s.mom on train-n128 and long-n2048",
    "models.mom_forward_ms": "train_tok_s.mom and eval_tok_s.mom",
    "models.la_mixer_forward_ms": "train_tok_s.la and eval_tok_s.la",
    "models.causal_attention_ms": "train_tok_s.transformer and eval_tok_s.transformer",
    **{f"models.block_self_ms.{m}": _TRAIN for m in MODELS},
    **{f"models.head_loss_ms.{m}": _TRAIN for m in MODELS},
    **{f"tensor.backward_ms.{m}": f"train_tok_s.{m}; 0 inside evaluate"
       for m in MODELS},
    **{f"tensor.tape_nodes.{m}": f"train_tok_s.{m}; 0 inside evaluate"
       for m in MODELS},
    **{f"tensor.step_peak_mb.{m}": "peak_rss_mb on long-n2048" for m in MODELS},
    **{f"optim.adam_step_ms.{m}": f"train_tok_s.{m}, under 1% of a step: a null control"
       for m in MODELS},
    **{f"tasks.generate_batch_ms.{m}": ("train_tok_s.la on train-n128; "
                                        "eval_tok_s on train-n128") for m in MODELS},
    **{f"train.evaluate_ms.{m}": f"eval_tok_s.{m} on train-n128" for m in MODELS},
    **{f"train.step_ms.p50.{m}": f"train_tok_s.{m}" for m in MODELS},
    **{f"train.step_ms.p90.{m}": f"train_tok_s.{m}, the tail" for m in MODELS},
    "train.tracing_overhead_pct": "nothing: the cost of the traced run over the untraced one",
}
