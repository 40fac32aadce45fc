"""The benchmark's vocabulary: every metric's name, unit, direction and purpose.

``END_TO_END`` is what a user of the system sees; each carries the bound by
which its median may worsen before a change counts as a regression.
``LAYERS`` are single-layer measurements from the traced run; each row says
which end-to-end metric it should move, and on which workload it does most
(``most``) and least (``least``) of the work — written down before measuring,
so a saving that shows up elsewhere than predicted is visible as such.

``BENCHMARK.json`` lists every end-to-end metric and the layer metrics that
have a number on every workload; ``optional`` layer metrics probe a
surface a later change may delete and then report ``null`` with a reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str
    most: Optional[str] = None
    least: Optional[str] = None
    optional: bool = False


# Bounds: the 25 % the driver's contract allows (15 % for memory).  Same-commit ten-seed
# spreads on the sizing VM are 2-8 % for the durations and rates (divided by the host index)
# and 3-16 % for the latencies (README, "Measured spreads"), but the host's bad hours moved
# wall-clock medians by 20-34 %: a bound the next bad hour breaks would reject changes that
# did nothing.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "(interpreter start + imports (median of 3) + dataset generation (median of 3)"
             " + scratch creation) / host index"),
    EndToEnd("lifecycle_s", "s", "lower", 0.25,
             "program segments of one timed pass (no open loop, no harness checks), each / host index"),
    EndToEnd("preprocess_s", "s", "lower", 0.25,
             "Session.preprocess(...) to a file-backed packed store, / host index"),
    EndToEnd("train_epoch_s", "s", "lower", 0.25, "one PPGNNTrainer.train_epoch(), / host index"),
    EndToEnd("serve_closed_qps", "req/s", "higher", 0.25,
             "closed-loop requests answered per second, window of 256 outstanding, x host index"),
    EndToEnd("serve_p50_ms", "ms", "lower", 0.25,
             "open-loop latency from the due time: the p50 of each 0.25 s window, median over windows"),
    EndToEnd("serve_p99_ms", "ms", "lower", 0.25,
             "the p99 of each 0.25 s window (>= 1000 requests), median over the run's windows"),
    EndToEnd("update_s", "s", "lower", 0.25,
             "one Session.apply_updates(delta), engine swap included, / host index"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "ru_maxrss of the workload process after the warm-up and three timed passes"),
)

_ALL = "all"

LAYERS = (
    Layer("datasets.generate_s", "s", "lower", "setup_s", _ALL),
    Layer("graph.operator_build_s", "s", "lower", "preprocess_s", "papers_blocked", "ring_churn"),
    Layer("graph.nnz", "count", "lower", "preprocess_s", "papers_blocked", "ring_churn"),
    Layer("prepropagation.spmm_s", "s", "lower", "preprocess_s", "papers_blocked", "ring_churn"),
    Layer("prepropagation.spmm_gflop", "Gflop", "lower", "preprocess_s", "wiki_expand"),
    Layer("prepropagation.spmm_gflop_per_s", "Gflop/s", "higher", "preprocess_s", "wiki_expand"),
    Layer("prepropagation.store_write_s", "s", "lower", "preprocess_s", "wiki_expand", "papers_blocked"),
    Layer("prepropagation.store_mb", "MB", "lower", "peak_rss_mb", "wiki_expand", "papers_blocked"),
    Layer("prepropagation.expansion_factor", "ratio", "lower", "peak_rss_mb", "wiki_expand"),
    Layer("prepropagation.store_write_mb_per_s", "MB/s", "higher", "preprocess_s", "wiki_expand",
          "papers_blocked"),
    Layer("prepropagation.gather_rows_per_s", "rows/s", "higher", "train_epoch_s", "wiki_expand"),
    Layer("prepropagation.gather_roofline_frac", "ratio", "higher", "serve_closed_qps", "wiki_expand"),
    Layer("dataloading.assembly_s_per_epoch", "s", "lower", "train_epoch_s", "wiki_expand",
          "igbm_lifecycle"),
    Layer("dataloading.gb_per_s", "GB/s", "higher", "train_epoch_s", "wiki_expand", "igbm_lifecycle"),
    Layer("dataloading.roofline_frac", "ratio", "higher", "train_epoch_s", "wiki_expand"),
    Layer("dataloading.batches", "count", "lower", "train_epoch_s", "igbm_lifecycle"),
    Layer("dataloading.stall_s_per_epoch", "s", "lower", "train_epoch_s", "wiki_expand"),
    Layer("dataloading.stall_share", "ratio", "lower", "train_epoch_s", "wiki_expand", "igbm_lifecycle"),
    Layer("models.forward_s_per_epoch", "s", "lower", "train_epoch_s", "igbm_lifecycle", "wiki_expand"),
    Layer("tensor.backward_s_per_epoch", "s", "lower", "train_epoch_s", "igbm_lifecycle", "wiki_expand"),
    Layer("tensor.optimizer_s_per_epoch", "s", "lower", "train_epoch_s", "igbm_lifecycle",
          "wiki_expand"),
    Layer("training.loop_overhead_s", "s", "lower", "train_epoch_s", "papers_blocked"),
    Layer("training.eval_s", "s", "lower", "train_epoch_s", "igbm_lifecycle"),
    Layer("training.final_loss", "loss", "lower", "train_epoch_s", _ALL),
    Layer("serving.submit_call_us", "us", "lower", "serve_closed_qps", "igbm_lifecycle"),
    Layer("serving.resolve_wait_ms", "ms", "lower", "serve_p50_ms", "igbm_lifecycle"),
    Layer("serving.fetch1_hit_us", "us", "lower", "serve_closed_qps", "papers_blocked"),
    Layer("serving.fetch1_miss_us", "us", "lower", "serve_closed_qps", "wiki_expand"),
    Layer("serving.fetch256_us", "us", "lower", "serve_closed_qps", "wiki_expand"),
    Layer("serving.coalesce_overhead_ms", "ms", "lower", "serve_p50_ms", _ALL),
    Layer("serving.cache_hit_rate", "ratio", "higher", "serve_closed_qps", "papers_blocked",
          "wiki_expand"),
    Layer("serving.coalesced_share", "ratio", "higher", "serve_closed_qps", "igbm_lifecycle"),
    Layer("serving.mean_batch_rows", "rows", "higher", "serve_closed_qps", "wiki_expand"),
    Layer("serving.shed", "count", "lower", "serve_closed_qps", _ALL),
    Layer("serving.expired", "count", "lower", "serve_p99_ms", _ALL),
    Layer("serving.retried", "count", "lower", "serve_p99_ms", _ALL),
    Layer("serving.respawns", "count", "lower", "serve_p99_ms", _ALL),
    Layer("serving.cpu_us_per_request", "us", "lower", "serve_closed_qps", "igbm_lifecycle"),
    Layer("serving.p99_ms.r1", "ms", "lower", "serve_p99_ms", _ALL),
    Layer("serving.p99_ms.r2", "ms", "lower", "serve_p99_ms", _ALL),
    Layer("serving.p99_ms.r4", "ms", "lower", "serve_p99_ms", _ALL),
    Layer("serving.max_rate_ok", "req/s", "higher", "serve_p99_ms", _ALL),
    Layer("serving.generator_late_ms", "ms", "lower", "serve_p50_ms", _ALL),
    # the whole open-loop segment of the traced pass, every stall included (on ring_churn:
    # the read tail while the updates run)
    Layer("serving.pass_p99_ms", "ms", "lower", "serve_p99_ms", "ring_churn"),
    Layer("serving.pass_max_ms", "ms", "lower", "serve_p99_ms", "ring_churn"),
    Layer("serving.adopt_store_s", "s", "lower", "update_s", "ring_churn"),
    Layer("updates.apply_delta_s", "s", "lower", "update_s", "papers_blocked", "ring_churn"),
    Layer("updates.frontier_s", "s", "lower", "update_s", "papers_blocked", "ring_churn"),
    Layer("updates.frontier_nodes", "count", "lower", "update_s", "wiki_expand", "ring_churn"),
    Layer("updates.compute_patches_s", "s", "lower", "update_s", "igbm_lifecycle", "ring_churn"),
    Layer("updates.patched_rows", "count", "lower", "update_s", "igbm_lifecycle", "ring_churn"),
    Layer("updates.apply_update_s", "s", "lower", "update_s", "ring_churn"),
    Layer("updates.commit_residual_s", "s", "lower", "update_s", "ring_churn", "igbm_lifecycle"),
    Layer("updates.write_amplification", "ratio", "lower", "update_s", "ring_churn", "wiki_expand"),
    Layer("api.session_close_s", "s", "lower", "lifecycle_s", _ALL),
    Layer("api.unattributed_s", "s", "lower", "lifecycle_s", _ALL),
    Layer("api.fail_share", "ratio", "lower", "lifecycle_s", _ALL),
    Layer("trace.overhead_share", "ratio", "lower", "lifecycle_s", _ALL),
    Layer("host.memcpy_gb_per_s", "GB/s", "higher", "lifecycle_s", _ALL),
    Layer("host.take_gb_per_s", "GB/s", "higher", "train_epoch_s", _ALL),
    Layer("host.fresh_page_gb_per_s", "GB/s", "higher", "preprocess_s", _ALL),
    Layer("host.disturbed_passes", "count", "lower", "lifecycle_s", _ALL),
    # median of the run's host-index bursts: what every duration and rate was divided by
    Layer("host.index", "ratio", "lower", "lifecycle_s", _ALL),
    # --- optional surfaces: null with a reason once the entry point is gone ---
    Layer("dataloading.baseline.rows_per_s", "rows/s", "higher", "train_epoch_s", optional=True),
    Layer("dataloading.fused.rows_per_s", "rows/s", "higher", "train_epoch_s", optional=True),
    Layer("dataloading.chunk.rows_per_s", "rows/s", "higher", "train_epoch_s", optional=True),
    Layer("dataloading.storage.rows_per_s", "rows/s", "higher", "train_epoch_s", optional=True),
    Layer("serving.gather_direct256_us", "us", "lower", "serve_closed_qps", "wiki_expand", optional=True),
    Layer("serving.gather_roofline_frac", "ratio", "higher", "serve_closed_qps", "wiki_expand",
          optional=True),
    Layer("serving.adaptive_depth_ratio", "ratio", "lower", "serve_closed_qps", optional=True),
    Layer("updates.pruned_versions", "count", "higher", "update_s", "ring_churn", optional=True),
)

END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}
LAYERS_BY_NAME = {metric.name: metric for metric in LAYERS}
