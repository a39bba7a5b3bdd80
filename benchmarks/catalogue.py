"""Names shared by the benchmark's files: mechanism kinds, Monte-Carlo keys and metrics.

``BENCHMARK.json`` lists the same metrics; ``smoke.py`` checks that the two agree.
"""

from __future__ import annotations

ALL_KINDS = (
    "output_agreement",
    "peer_truth_serum",
    "correlated_agreement",
    "sqrt_scaled_agreement",
    "double_mixed_agreement",
    "robust_bts",
    "multi_valued_robust_bts",
    "divergence_bts",
    "minimum_truth_serum",
    "peer_insensitive",
)
RULE_KINDS = ("robust_bts", "multi_valued_robust_bts", "divergence_bts", "minimum_truth_serum")
BINARY_ONLY_KINDS = ("robust_bts",)
RULES = ("quadratic", "log")
MC_LABELS = (2, 3)

SOLVERS = {
    "solve_p_ds": "equilibrium.solve_p_ds",
    "solve_p_el": "equilibrium.solve_p_el",
    "solve_p_ex": "equilibrium.solve_p_ex",
    "solve_p_pareto": "equilibrium.solve_p_pareto",
    "check_pareto_bound_condition": "equilibrium.pareto_condition",
}


def mc_keys(k: int) -> list:
    """(kind, rule or None, metric key) for every Monte-Carlo estimate at k labels."""
    keys = []
    for kind in ALL_KINDS:
        if kind in BINARY_ONLY_KINDS and k != 2:
            continue
        for rule in RULES if kind in RULE_KINDS else (None,):
            keys.append((kind, rule, f"{kind}.{rule}.k{k}" if rule else f"{kind}.k{k}"))
    return keys


END_TO_END = {
    "rows_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer() -> dict:
    """Every per-layer metric of a traced run: name -> (unit, better)."""
    metrics = {
        "harness.config_s": ("s", "lower"),
        "harness.emit_rows_per_s": ("1/s", "higher"),
        "harness.sweep_self_rows_per_s": ("1/s", "higher"),
        "equilibrium.table_cells_per_s": ("1/s", "higher"),
    }
    for kind in ALL_KINDS:
        metrics[f"equilibrium.table_cells_per_s.{kind}"] = ("1/s", "higher")
    metrics["equilibrium.table_alloc_peak_mb"] = ("MB", "lower")
    metrics["equilibrium.thresholds_per_s.p50"] = ("1/s", "higher")
    metrics["equilibrium.thresholds_per_s.tail"] = ("1/s", "higher")
    for layer in SOLVERS.values():
        metrics[f"{layer}_per_s"] = ("1/s", "higher")
    metrics["equilibrium.gains_calls_per_row"] = ("count", "lower")
    metrics["equilibrium.solve_alloc_peak_mb"] = ("MB", "lower")
    metrics["equilibrium.solve_failed"] = ("count", "lower")
    metrics["mechanisms.mc_samples_per_s"] = ("1/s", "higher")
    keys = [key for k in MC_LABELS for _, _, key in mc_keys(k)]
    for key in keys:
        metrics[f"mechanisms.mc_samples_per_s.{key}"] = ("1/s", "higher")
    for key in keys:
        metrics[f"mechanisms.mc_z.{key}"] = ("sigma", "lower")
    metrics["trace.overhead_frac"] = ("frac", "lower")
    return metrics
