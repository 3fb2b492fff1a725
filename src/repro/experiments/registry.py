"""Registry mapping experiment ids to driver callables."""

from __future__ import annotations

from repro.experiments.extras import (
    run_ablation_baselines,
    run_ablation_filtering,
    run_ablation_grid,
    run_speedup,
    run_sweep_bench,
    run_transient_bench,
)
from repro.experiments.result import ExperimentResult
from repro.experiments.section3 import (
    run_fig03,
    run_fig06,
    run_fig07,
    run_fig09,
    run_fig10,
)
from repro.experiments.section4_diffpair import (
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_table1,
)
from repro.experiments.section4_tunnel import (
    run_fig16,
    run_fig17,
    run_fig18,
    run_fig19,
    run_table2,
)

__all__ = ["EXPERIMENTS", "run_experiment"]

#: Experiment id -> driver (see the DESIGN.md per-experiment index).
EXPERIMENTS = {
    "FIG3": run_fig03,
    "FIG6": run_fig06,
    "FIG7": run_fig07,
    "FIG9": run_fig09,
    "FIG10": run_fig10,
    "FIG12": run_fig12,
    "FIG13": run_fig13,
    "FIG14": run_fig14,
    "FIG15": run_fig15,
    "TAB1": run_table1,
    "FIG16": run_fig16,
    "FIG17": run_fig17,
    "FIG18": run_fig18,
    "FIG19": run_fig19,
    "TAB2": run_table2,
    "SPEED": run_speedup,
    "TRANSIENT": run_transient_bench,
    "SWEEP": run_sweep_bench,
    "ABL1": run_ablation_grid,
    "ABL2": run_ablation_baselines,
    "ABL3": run_ablation_filtering,
}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by its DESIGN.md id."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[key](**kwargs)
