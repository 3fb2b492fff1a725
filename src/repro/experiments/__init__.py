"""Experiment drivers for the paper's figures and tables (see DESIGN.md index).

Every driver returns an :class:`ExperimentResult`.  :mod:`.section3` holds
one driver per Section III figure and :mod:`.extras` the benches and
ablations.  :mod:`.section4` holds one driver per Section IV step, shared
by the diff-pair and tunnel-diode oscillators, plus the two extraction
figures.  The registry maps the experiment ids (``FIG3`` ... ``TAB2``,
``SPEED``, ``ABL*``) to callables, binding each shared Section IV driver
to its oscillator with :func:`functools.partial`; :func:`run_experiment`
runs one by id.  The benchmark suite is a thin timing wrapper around this
package, and the examples import the same canonical circuits from
:mod:`repro.experiments.circuits` so everything in the repository analyses
literally the same oscillators.
"""

from repro.experiments.circuits import (
    OscillatorSetup,
    diffpair_extraction_circuit,
    diffpair_oscillator,
    diffpair_oscillator_circuit,
    tanh_oscillator,
    tunnel_extraction_circuit,
    tunnel_oscillator,
    tunnel_oscillator_circuit,
)
from repro.experiments.result import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = [
    "OscillatorSetup",
    "tanh_oscillator",
    "diffpair_oscillator",
    "tunnel_oscillator",
    "diffpair_extraction_circuit",
    "diffpair_oscillator_circuit",
    "tunnel_extraction_circuit",
    "tunnel_oscillator_circuit",
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
]
