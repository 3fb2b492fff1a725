"""Canonical oscillator definitions used across experiments and examples.

Component values are calibrated so the observables the paper *reports*
come out (the paper prints waveforms and lock tables but not its R/L/C
values — see the substitution table in DESIGN.md):

* **tanh demo** (Section III figures): ``T_f(0) = R g_m = 2.5``, matching
  the y-axis intercept visible in Fig. 3.
* **diff-pair** (Section IV-A): ``f_c = 503.292 kHz`` from
  ``L = 20 uH, C = 5 nF`` (the paper's 0.5033 MHz), and
  ``R = 4938.8 Ohm`` with ``I_EE = 0.5 mA`` calibrated so the natural
  amplitude predicted *from the DC-sweep-extracted f(v)* is the paper's
  ``A = 0.505 V``; ``Q = 78``.  At this amplitude the swing reaches the
  base-collector forward-bias clamp of the off transistor — a real-device
  effect the extracted curve captures and the ideal tanh law misses,
  which is exactly why the paper extracts ``f(v)`` computationally.
  The L/C ratio (which the paper does not print) is chosen so the
  *relative* 3rd-SHIL lock-range width lands at the paper's
  ``Delta f / f ~ 1.2e-2``.
* **tunnel diode** (Section IV-B): ``f_c = 503.292 MHz`` from
  ``L = 10 nH, C = 10 pF`` (the paper's 0.5033 GHz), appendix model biased
  at 0.25 V, and ``R = 10 kOhm`` calibrated so the predicted natural
  amplitude is the paper's ``A = 0.199 V``; ``Q = 316``, with the L/C
  ratio again chosen to land the paper's ``Delta f / f ~ 3.4e-3``.

Both Section IV experiments use the paper's third sub-harmonic
(``n = 3``) with ``|V_i| = 0.03 V``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.nonlin import (
    BiasedTunnelDiode,
    CrossCoupledDiffPair,
    NegativeTanh,
    TunnelDiode,
)
from repro.nonlin.base import Nonlinearity
from repro.spice import Circuit
from repro.tank import ParallelRLC

__all__ = [
    "OscillatorSetup",
    "tanh_oscillator",
    "diffpair_oscillator",
    "tunnel_oscillator",
    "diffpair_extracted_law",
    "tunnel_law",
    "diffpair_extraction_circuit",
    "diffpair_oscillator_circuit",
    "tunnel_extraction_circuit",
    "tunnel_oscillator_circuit",
    "DIFFPAIR_EXTRACTION_NETLIST",
    "TUNNEL_EXTRACTION_NETLIST",
]

#: Calibrated diff-pair values (see module docstring).
DIFFPAIR_R = 4938.8
DIFFPAIR_L = 20e-6
DIFFPAIR_C = 5e-9
DIFFPAIR_IEE = 5e-4
DIFFPAIR_VCC = 5.0

#: Calibrated tunnel-diode values.
TUNNEL_R = 10e3
TUNNEL_L = 10e-9
TUNNEL_C = 10e-12
TUNNEL_BIAS = 0.25


@dataclass(frozen=True)
class OscillatorSetup:
    """An oscillator plus its default injection experiment parameters.

    Attributes
    ----------
    name:
        Identifier used in reports.
    nonlinearity:
        The negative-resistance law the analysis consumes.
    tank:
        The physical parallel RLC.
    v_i:
        Default injection phasor magnitude (paper: 0.03 V).
    n:
        Default sub-harmonic order (paper: 3).
    """

    name: str
    nonlinearity: Nonlinearity
    tank: ParallelRLC
    v_i: float = 0.03
    n: int = 3

    @property
    def w_c(self) -> float:
        """Tank centre angular frequency."""
        return self.tank.center_frequency


def tanh_oscillator() -> OscillatorSetup:
    """The Section III illustration oscillator (negative tanh)."""
    return OscillatorSetup(
        name="tanh-demo",
        nonlinearity=NegativeTanh(gm=2.5e-3, i_sat=1e-3),
        tank=ParallelRLC(r=1000.0, l=100e-6, c=10e-9),
    )


@functools.lru_cache(maxsize=1)
def diffpair_extracted_law():
    """DC-sweep-extracted diff-pair ``f(v)`` as a fast linear table (cached).

    This is the Fig. 11b/12a flow run on the MNA simulator; the extracted
    curve includes the base-collector clamp the analytic
    :class:`~repro.nonlin.diffpair.CrossCoupledDiffPair` misses, and it is
    the law every diff-pair analysis and simulation in this repository
    consumes (keeping both sides of each validation consistent).
    """
    from repro.nonlin import extract_iv_curve
    from repro.nonlin.tabulated import LinearTableNonlinearity

    table = extract_iv_curve(
        diffpair_extraction_circuit(), "VX", -0.8, 0.8, 161, name="diffpair-fv"
    ).shifted(0.0)
    return LinearTableNonlinearity.from_nonlinearity(table, -0.8, 0.8, 4097)


@functools.lru_cache(maxsize=1)
def tunnel_law():
    """Biased tunnel-diode law as a fast linear table (cached).

    Built from the analytic appendix model (which the DC-sweep extraction
    reproduces exactly — Fig. 16 checks that), densely sampled so the
    prediction and simulation sides of Figs. 17-19 and Table 2 share one
    object.  :func:`tunnel_oscillator` keeps the analytic law itself.
    """
    from repro.nonlin.tabulated import LinearTableNonlinearity

    biased = BiasedTunnelDiode(v_bias=TUNNEL_BIAS)
    return LinearTableNonlinearity.from_nonlinearity(biased, -0.6, 0.6, 4097)


def diffpair_oscillator() -> OscillatorSetup:
    """The Section IV-A cross-coupled BJT diff-pair oscillator.

    The nonlinearity is the *extracted* curve (see
    :func:`diffpair_extracted_law`); the analytic tanh law is available as
    ``CrossCoupledDiffPair(i_ee=DIFFPAIR_IEE)`` for comparisons.
    """
    return OscillatorSetup(
        name="diff-pair",
        nonlinearity=diffpair_extracted_law(),
        tank=ParallelRLC(r=DIFFPAIR_R, l=DIFFPAIR_L, c=DIFFPAIR_C),
    )


def tunnel_oscillator() -> OscillatorSetup:
    """The Section IV-B tunnel diode oscillator."""
    return OscillatorSetup(
        name="tunnel-diode",
        nonlinearity=BiasedTunnelDiode(v_bias=TUNNEL_BIAS),
        tank=ParallelRLC(r=TUNNEL_R, l=TUNNEL_L, c=TUNNEL_C),
    )


# -- SPICE-level circuits ------------------------------------------------------


def diffpair_extraction_circuit() -> Circuit:
    """The Fig. 11b cell: sweep source ``VX`` across the collector port.

    ``VX`` is the source :func:`repro.nonlin.extraction.extract_iv_curve`
    sweeps; ``VCM`` pins the common mode the way the tank (a DC short
    through the inductor to the supply) does in the oscillator.
    """
    ckt = Circuit("diff-pair i=f(v) extraction (Fig. 11b)")
    ckt.add_voltage_source("VCM", "ncr", "0", DIFFPAIR_VCC)
    ckt.add_voltage_source("VX", "ncl", "ncr", 0.0)
    ckt.add_bjt("Q1", "ncl", "ncr", "e")
    ckt.add_bjt("Q2", "ncr", "ncl", "e")
    ckt.add_current_source("IEE", "e", "0", DIFFPAIR_IEE)
    return ckt


def diffpair_oscillator_circuit() -> Circuit:
    """The full Fig. 11a oscillator at SPICE level.

    The floating tank (R, L, C in parallel) sits between the collectors;
    the supply reaches both collectors through the inductor's DC short,
    giving the balanced bias the extraction cell models with ``VCM``.
    A small imbalance capacitor charge is introduced via the initial
    transient's DC solution noise, so no explicit start-up kick is needed
    in practice; tests that require faster start-up pass an initial
    condition instead.
    """
    ckt = Circuit("diff-pair oscillator (Fig. 11a)")
    ckt.add_voltage_source("VCC", "vcc", "0", DIFFPAIR_VCC)
    # Supply tap at the tank mid-point: the paper's schematic feeds VCC to
    # the inductor centre tap; two half-inductors realise that here.
    ckt.add_inductor("L1a", "ncl", "vcc", DIFFPAIR_L / 2.0)
    ckt.add_inductor("L1b", "vcc", "ncr", DIFFPAIR_L / 2.0)
    ckt.add_capacitor("C1", "ncl", "ncr", DIFFPAIR_C)
    ckt.add_resistor("R1", "ncl", "ncr", DIFFPAIR_R)
    ckt.add_bjt("Q1", "ncl", "ncr", "e")
    ckt.add_bjt("Q2", "ncr", "ncl", "e")
    ckt.add_current_source("IEE", "e", "0", DIFFPAIR_IEE)
    return ckt


def tunnel_extraction_circuit() -> Circuit:
    """DC-sweep cell for the tunnel diode's ``i = f(v)`` (Fig. 16b)."""
    ckt = Circuit("tunnel diode i=f(v) extraction (Fig. 16b)")
    ckt.add_voltage_source("VX", "a", "0", 0.0)
    ckt.add_tunnel_diode("TD1", "a", "0", TunnelDiode())
    return ckt


def tunnel_oscillator_circuit() -> Circuit:
    """The Fig. 16a tunnel diode oscillator at SPICE level.

    The bias source feeds the diode through the inductor (a DC short), so
    the diode's operating point sits at ``TUNNEL_BIAS`` and the tank sees
    the incremental negative resistance around it.
    """
    ckt = Circuit("tunnel diode oscillator (Fig. 16a)")
    ckt.add_voltage_source("VB", "vb", "0", TUNNEL_BIAS)
    ckt.add_inductor("L1", "vb", "a", TUNNEL_L)
    ckt.add_capacitor("C1", "a", "0", TUNNEL_C)
    # The inductor is a DC short, so the diode's operating point is the
    # source value even though R draws a static V_bias/R through L.
    ckt.add_resistor("R1", "a", "0", TUNNEL_R)
    ckt.add_tunnel_diode("TD1", "a", "0", TunnelDiode())
    return ckt


#: Netlist-deck version of the extraction cell — exercised by the parser
#: tests and by the quickstart example to show the text-deck entry path.
DIFFPAIR_EXTRACTION_NETLIST = f"""* diff-pair i=f(v) extraction (Fig. 11b)
VCM ncr 0 DC {DIFFPAIR_VCC}
VX  ncl ncr DC 0
Q1  ncl ncr e npn1
Q2  ncr ncl e npn1
IEE e 0 DC {DIFFPAIR_IEE}
.model npn1 NPN(is=1e-12 bf=100 br=1)
.dc VX -0.5 0.5 0.005
.end
"""

TUNNEL_EXTRACTION_NETLIST = """* tunnel diode i=f(v) extraction (Fig. 16b)
VX a 0 DC 0
D1 a 0 td1
.model td1 TUNNEL(is=1e-12 eta=1 vth=0.025 m=2 v0=0.2 r0=1000)
.dc VX 0 0.6 0.005
.end
"""
