"""Declarative sweep descriptions.

A sweep is a list of :class:`SweepPoint` operating points plus shared
solver settings (:class:`SweepSpec`).  Points name their oscillator by
verify-matrix family (:data:`repro.verify.scenarios.FAMILIES`) so a spec
is plain data — JSON/YAML loadable via :func:`load_spec` — and the engine
materialises the circuits.

Two constructors cover the common workloads: :meth:`SweepSpec.tongue`
builds the dense ``(V_i, w_i)`` grid of an Arnol'd-tongue map, and
:meth:`SweepSpec.from_verify_matrix` lifts the verification scenarios
into a batch (the first batch workload of the engine).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np

from repro.core.describing_function import DEFAULT_SAMPLES
from repro.utils.validation import check_positive
from repro.verify.scenarios import FAMILIES, scenario_matrix

__all__ = ["SweepPoint", "SweepSpec", "load_spec"]


@dataclass(frozen=True)
class SweepPoint:
    """One operating point of a sweep.

    Attributes
    ----------
    family:
        Oscillator family key in :data:`repro.verify.scenarios.FAMILIES`.
    n:
        Sub-harmonic order.
    v_i:
        Injection phasor magnitude, volts (must be > 0 — the solvers
        require an actual injection).
    w_injection:
        Absolute injection frequency in rad/s to classify as locked /
        unlocked, or ``None`` for a lock-range-only point (the verify
        workload).
    q_scale:
        Tank-R multiplier, as in the verify scenarios.
    label:
        Optional caller tag carried through to the outcome row.
    """

    family: str
    n: int
    v_i: float
    w_injection: float | None = None
    q_scale: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise KeyError(
                f"unknown oscillator family {self.family!r}; "
                f"known: {', '.join(sorted(FAMILIES))}"
            )
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        check_positive("v_i", self.v_i)
        check_positive("q_scale", self.q_scale)
        if self.w_injection is not None:
            check_positive("w_injection", self.w_injection)


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: points plus the shared solver settings.

    ``engine`` selects the transient integrator for the optional
    simulation referee spot checks (``check_transient`` > 0 picks that
    many locked points per group to referee); it is threaded end to end
    from the CLI's global ``--engine`` flag.
    """

    name: str
    points: tuple[SweepPoint, ...]
    method: str = "fft"
    n_a: int = 121
    n_phi: int = 241
    n_samples: int = DEFAULT_SAMPLES
    escalate: bool = True
    engine: str | None = None
    check_transient: int = 0

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a sweep needs at least one point")
        if self.method not in ("fft", "dense"):
            raise ValueError(f"method must be 'fft' or 'dense', got {self.method!r}")
        if self.check_transient < 0:
            raise ValueError("check_transient must be >= 0")

    @classmethod
    def tongue(
        cls,
        family: str,
        n: int,
        v_is,
        *,
        freq_rel_span: float = 0.005,
        freq_count: int = 32,
        q_scale: float = 1.0,
        name: str | None = None,
        **settings,
    ) -> "SweepSpec":
        """The dense ``(V_i, w_i)`` grid of an Arnol'd-tongue map.

        Frequencies span ``n * w_c * (1 +- freq_rel_span)`` around the
        n-th harmonic of the tank centre — the injection frequencies a
        divide-by-n experiment would scan.
        """
        if family not in FAMILIES:
            raise KeyError(
                f"unknown oscillator family {family!r}; "
                f"known: {', '.join(sorted(FAMILIES))}"
            )
        check_positive("freq_rel_span", freq_rel_span)
        if freq_count < 2:
            raise ValueError("freq_count must be >= 2")
        _, tank = FAMILIES[family]()
        w_c = tank.center_frequency
        w_grid = n * w_c * (1.0 + freq_rel_span * np.linspace(-1.0, 1.0, freq_count))
        points = tuple(
            SweepPoint(
                family=family,
                n=int(n),
                v_i=float(v_i),
                w_injection=float(w),
                q_scale=float(q_scale),
            )
            for v_i in np.atleast_1d(np.asarray(v_is, dtype=float))
            for w in w_grid
        )
        return cls(
            name=name or f"tongue-{family}-n{n}", points=points, **settings
        )

    @classmethod
    def from_verify_matrix(cls, mode: str = "quick", **settings) -> "SweepSpec":
        """One lock-range point per verification scenario."""
        points = tuple(
            SweepPoint(
                family=s.family,
                n=s.n,
                v_i=s.v_i,
                q_scale=s.q_scale,
                label=s.scenario_id,
            )
            for s in scenario_matrix(mode)
        )
        return cls(name=f"verify-{mode}", points=points, **settings)


def _grid(value, what: str) -> list[float]:
    """A list-or-{start,stop,count} spec field as a list of floats."""
    if isinstance(value, dict):
        missing = {"start", "stop", "count"} - set(value)
        if missing:
            raise ValueError(f"{what} grid is missing {sorted(missing)}")
        return [
            float(v)
            for v in np.linspace(
                float(value["start"]), float(value["stop"]), int(value["count"])
            )
        ]
    return [float(v) for v in np.atleast_1d(np.asarray(value, dtype=float))]


def load_spec(path: str | pathlib.Path) -> SweepSpec:
    """Load a sweep spec from a JSON or YAML file.

    Two document shapes are accepted:

    * explicit points::

          name: my-sweep
          points:
            - {family: tanh, n: 3, v_i: 0.03}
            - {family: tanh, n: 3, v_i: 0.03, w_injection: 1.885e7}

    * a tongue-map grid (``v_i`` may be a list or a
      ``{start, stop, count}`` range; frequencies are relative to the
      n-th harmonic of the tank centre)::

          name: tanh-tongue
          tongue:
            family: tanh
            n: 3
            v_i: {start: 0.005, stop: 0.06, count: 32}
            freq: {rel_span: 0.005, count: 32}

    Top-level ``method`` / ``n_a`` / ``n_phi`` / ``n_samples`` /
    ``escalate`` / ``check_transient`` override the solver defaults.
    """
    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        import yaml

        doc = yaml.safe_load(text)
    else:
        doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: sweep spec must be a mapping")
    settings = {
        key: doc[key]
        for key in ("method", "n_a", "n_phi", "n_samples", "escalate", "check_transient")
        if key in doc
    }
    name = str(doc.get("name") or path.stem)

    if "tongue" in doc:
        tongue = doc["tongue"]
        if not isinstance(tongue, dict):
            raise ValueError(f"{path}: 'tongue' must be a mapping")
        freq = tongue.get("freq", {})
        return SweepSpec.tongue(
            str(tongue["family"]),
            int(tongue["n"]),
            _grid(tongue["v_i"], "v_i"),
            freq_rel_span=float(freq.get("rel_span", 0.005)),
            freq_count=int(freq.get("count", 32)),
            q_scale=float(tongue.get("q_scale", 1.0)),
            name=name,
            **settings,
        )

    raw_points = doc.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ValueError(f"{path}: spec needs a non-empty 'points' list or a 'tongue'")
    points = []
    for row in raw_points:
        if not isinstance(row, dict):
            raise ValueError(f"{path}: each point must be a mapping, got {row!r}")
        points.append(
            SweepPoint(
                family=str(row["family"]),
                n=int(row["n"]),
                v_i=float(row["v_i"]),
                w_injection=(
                    float(row["w_injection"]) if row.get("w_injection") else None
                ),
                q_scale=float(row.get("q_scale", 1.0)),
                label=str(row.get("label", "")),
            )
        )
    return SweepSpec(name=name, points=tuple(points), **settings)
