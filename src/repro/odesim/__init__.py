"""Fast transient simulation of the canonical injected LC oscillator.

The validation experiments need thousands of oscillation cycles (lock
acquisition is a ~Q-cycle process, and lock-range bisection probes many
frequencies).  Running those through the full MNA simulator
(:mod:`repro.spice`) is faithful but slow; this package integrates the
*same circuit equations* in their canonical second-order form,

    C dv/dt = -v/R - i_L - f(v + v_inj(t)) + i_pulse(t)
    L di_L/dt = v

vectorised over a *batch* of simulations (different injection frequencies
and/or initial conditions advance in lock-step through one numpy-powered
RK4 loop).  The equivalence of the two integration paths on short runs is
checked by the cross-validation tests in ``tests/odesim``.

The series injection voltage source ``v_inj`` between the tank and the
nonlinearity realises exactly the paper's Fig. 8a signal flow: the
nonlinearity is excited by the tank output *plus* the injected tone.
"""

from repro.odesim.engine import (
    ENGINES,
    default_engine,
    resolve_engine,
    run_streaming,
    set_default_engine,
)
from repro.odesim.kernels import available_backends, best_compiled_backend
from repro.odesim.oscillator import (
    InjectionSpec,
    PulseSpec,
    SimulationResult,
    simulate_oscillator,
)

__all__ = [
    "InjectionSpec",
    "PulseSpec",
    "SimulationResult",
    "simulate_oscillator",
    "ENGINES",
    "default_engine",
    "set_default_engine",
    "resolve_engine",
    "run_streaming",
    "available_backends",
    "best_compiled_backend",
]
