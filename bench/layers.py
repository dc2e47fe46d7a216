"""The layers the traced replay measures, and what each should move.

Each layer is a public call of bellmodel, wrapped from outside at the names
the CLI (or the calling module) looks it up by.  ``moves`` records, before
any optimization is measured, which end-to-end metric on which workload a
change to that layer should move.  Nothing here imports bellmodel.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    #: span name; the metrics are ``<module>.<call>_s`` and ``_calls``
    span: str
    #: ROADMAP stage the call belongs to
    stage: str
    #: (module, attribute) or (module, class, method) the wrapper replaces
    targets: tuple[tuple[str, ...], ...]
    moves: str


LAYERS = (
    Layer("probspace.chsh_measure", "measure construction",
          (("bellmodel.cli", "chsh_measure"), ("bellmodel.inequalities", "chsh_measure")),
          "no end-to-end metric on any workload (microseconds per call)"),
    Layer("singlet.conditional_joint_probs", "measure construction",
          (("bellmodel.probspace", "conditional_joint_probs"),
           ("bellmodel.lhv", "conditional_joint_probs")),
          "no end-to-end metric on any workload"),
    Layer("probspace.JointMeasure.digest", "serialization",
          (("bellmodel.probspace", "JointMeasure", "digest"),),
          "no end-to-end metric on any workload"),
    Layer("probspace.JointMeasure.to_csv", "serialization",
          (("bellmodel.probspace", "JointMeasure", "to_csv"),),
          "no end-to-end metric on any workload"),
    Layer("inequalities.chsh_conditional", "evaluators",
          (("bellmodel.cli", "chsh_conditional"),), "no end-to-end metric on any workload"),
    Layer("inequalities.chsh_partial", "evaluators",
          (("bellmodel.cli", "chsh_partial"),), "no end-to-end metric on any workload"),
    Layer("inequalities.bell_original", "evaluators",
          (("bellmodel.cli", "bell_original"),), "no end-to-end metric on any workload"),
    Layer("lhv.no_signaling_report", "no-signaling",
          (("bellmodel.cli", "no_signaling_report"),), "no end-to-end metric on any workload"),
    Layer("lhv.factorizability_fit", "product fit",
          (("bellmodel.cli", "factorizability_fit"),),
          "latency_p50_s on cli-quick (about 15% of a factorize request)"),
    Layer("lhv.fourier_witness_check", "quadrature witness",
          (("bellmodel.cli", "fourier_witness_check"),), "negligible everywhere"),
    Layer("lhv.m_separability_search", "compass search",
          (("bellmodel.cli", "m_separability_search"),),
          "latency_p50_s (grid 16) and latency_p50_s.grid4 on lhv-search; "
          "self time excludes the LP and the target table"),
    Layer("lhv.linprog", "mixture LP",
          (("bellmodel.lhv", "linprog"),), "lhv-search latency only through the search it seeds"),
    Layer("montecarlo.sample", "sampler",
          (("bellmodel.cli", "sample"),), "trials_per_s and latency_p50_s on sample-summary"),
    Layer("montecarlo.TrialSeries.to_csv", "serialization",
          (("bellmodel.montecarlo", "TrialSeries", "to_csv"),),
          "latency_p50_s, trials_per_s and peak_rss_mb on sample-csv; nothing on sample-summary"),
    Layer("montecarlo.empirical_measure", "sampler",
          (("bellmodel.cli", "empirical_measure"),), "latency_p50_s on sample-summary"),
    Layer("montecarlo.empirical_partial_expectation", "sampler",
          (("bellmodel.cli", "empirical_partial_expectation"),), "latency_p50_s on sample-summary"),
)

#: The root span of every replayed request; its self time is argparse,
#: option parsing and output formatting.
CLI_MAIN = "cli.main"
CLI_MAIN_MOVES = "latency_p50_s on cli-quick"

#: Layers whose span name carries the latent grid, one metric per grid.
GRID_LAYERS = {"lhv.m_separability_search": (16, 4)}

IMPORT_MODULES = {"bellmodel": "import.bellmodel_s", "scipy.optimize": "import.scipy_optimize_s",
                  "numpy": "import.numpy_s"}
IMPORT_MOVES = ("setup_s, and latency_p50_s on cli-quick, sample-csv and sample-summary; "
                "about 5% of an lhv-search request")

#: Counters taken at the layer boundaries, per replayed request.
COUNTERS = {
    "montecarlo.sample_trials": ("count", "trials_per_s on sample-summary"),
    "montecarlo.csv_bytes": ("bytes", "trials_per_s on sample-csv"),
    "montecarlo.peak_traced_mb": ("MB", "peak_rss_mb (tracemalloc, traced replay only)"),
    "lhv.fits_at_lp_optimum_ratio": ("ratio", "m_hat_gap.grid4 on lhv-search"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced in-process replay time, minus 1"),
    "trace.requests": ("count", "none: requests replayed"),
}


def metric_name(span: str, kind: str) -> str:
    """``lhv.m_separability_search.grid4`` + ``s`` -> ``lhv.m_separability_search_s.grid4``."""
    if span == CLI_MAIN:
        return {"s": "cli.main_self_s", "calls": "cli.main_calls"}[kind]
    for base in GRID_LAYERS:
        if span.startswith(base + ".grid"):
            return f"{base}_{kind}{span[len(base):]}"
    return f"{span}_{kind}"


def timed_spans() -> list[tuple[str, str]]:
    """(span name, what it should move) for the root span and every layer."""
    rows = [(CLI_MAIN, CLI_MAIN_MOVES)]
    for layer in LAYERS:
        grids = GRID_LAYERS.get(layer.span)
        for span in [f"{layer.span}.grid{g}" for g in grids] if grids else [layer.span]:
            rows.append((span, f"[{layer.stage}] {layer.moves}"))
    return rows


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    metrics = [(name, "s") for name in IMPORT_MODULES.values()]
    for span, _moves in timed_spans():
        metrics += [(metric_name(span, "s"), "s"), (metric_name(span, "calls"), "count")]
    metrics += [(name, unit) for name, (unit, _moves) in COUNTERS.items()]
    return metrics
