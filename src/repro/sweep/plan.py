"""Grouping of sweep points into amortisation units.

All points sharing ``(family, n, q_scale)`` describe the *same
oscillator* under the same sub-harmonic order — they share the natural
oscillation (hence the amplitude window), the invariant-curve grid, and,
point for point in ``V_i``, the two-tone pre-characterisation.  The plan
makes that sharing explicit: one :class:`SweepGroup` per key, carrying
the sorted unique ``V_i`` grid the stacked FFT pass characterises in one
call, plus the indices of the member points (frequency-axis points of a
tongue map collapse onto their ``V_i``'s single lock-range solve — the
lock range does not depend on ``w_i``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sweep.spec import SweepSpec

__all__ = ["SweepGroup", "SweepPlan", "build_plan"]


@dataclass(frozen=True)
class SweepGroup:
    """One (oscillator, n, Q-scale) amortisation unit of a sweep.

    Attributes
    ----------
    family, n, q_scale:
        The shared oscillator key.
    v_is:
        Sorted unique injection magnitudes of the member points — the
        stacked pre-characterisation axis.
    points:
        Indices into ``spec.points`` belonging to this group.
    """

    family: str
    n: int
    q_scale: float
    v_is: tuple[float, ...]
    points: tuple[int, ...]


@dataclass(frozen=True)
class SweepPlan:
    """The grouped execution order of one sweep."""

    groups: tuple[SweepGroup, ...]

    @property
    def n_points(self) -> int:
        return sum(len(g.points) for g in self.groups)

    @property
    def n_lock_solves(self) -> int:
        """Lock-range solves the batched engine will actually run."""
        return sum(len(g.v_is) for g in self.groups)


def build_plan(spec: SweepSpec) -> SweepPlan:
    """Group a spec's points by ``(family, n, q_scale)``.

    Groups come out in first-appearance order; ``v_is`` sorted ascending
    (deterministic stacking order regardless of point order in the spec).
    """
    order: list[tuple[str, int, float]] = []
    members: dict[tuple[str, int, float], list[int]] = {}
    for index, point in enumerate(spec.points):
        key = (point.family, point.n, point.q_scale)
        if key not in members:
            members[key] = []
            order.append(key)
        members[key].append(index)
    groups = []
    for key in order:
        family, n, q_scale = key
        indices = members[key]
        v_is = tuple(sorted({spec.points[i].v_i for i in indices}))
        groups.append(
            SweepGroup(
                family=family,
                n=n,
                q_scale=q_scale,
                v_is=v_is,
                points=tuple(indices),
            )
        )
    return SweepPlan(groups=tuple(groups))
