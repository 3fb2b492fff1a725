"""Tier-1 tests for sweep specs, loading, and the amortisation plan."""

import json

import pytest

from repro.sweep import SweepPoint, SweepSpec, build_plan, load_spec
from repro.verify.scenarios import FAMILIES, scenario_matrix


class TestSweepPoint:
    def test_valid(self):
        point = SweepPoint(family="tanh", n=3, v_i=0.03)
        assert point.w_injection is None
        assert point.q_scale == 1.0

    def test_unknown_family(self):
        with pytest.raises((KeyError, ValueError)):
            SweepPoint(family="nosuch", n=3, v_i=0.03)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": -1},
            {"v_i": 0.0},
            {"v_i": -0.1},
            {"q_scale": 0.0},
            {"w_injection": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = {"family": "tanh", "n": 3, "v_i": 0.03}
        with pytest.raises((ValueError, TypeError)):
            SweepPoint(**{**base, **kwargs})


class TestTongue:
    def test_grid_shape_and_order(self):
        v_is = [0.01, 0.03]
        spec = SweepSpec.tongue("tanh", 3, v_is, freq_count=5)
        assert len(spec.points) == len(v_is) * 5
        # V_i-major ordering: first 5 points share v_i = 0.01.
        assert {p.v_i for p in spec.points[:5]} == {0.01}
        assert {p.v_i for p in spec.points[5:]} == {0.03}

    def test_frequency_span(self):
        _, tank = FAMILIES["tanh"]()
        spec = SweepSpec.tongue("tanh", 3, [0.03], freq_rel_span=0.01, freq_count=3)
        freqs = [p.w_injection for p in spec.points]
        w_center = 3 * tank.center_frequency
        assert freqs == sorted(freqs)
        assert freqs[0] == pytest.approx(w_center * 0.99)
        assert freqs[1] == pytest.approx(w_center)
        assert freqs[2] == pytest.approx(w_center * 1.01)

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            SweepSpec.tongue("nosuch", 3, [0.03])


class TestFromVerifyMatrix:
    def test_quick_matrix_points(self):
        spec = SweepSpec.from_verify_matrix("quick")
        scenarios = scenario_matrix("quick")
        assert len(spec.points) == len(scenarios)
        assert [p.label for p in spec.points] == [
            s.scenario_id for s in scenarios
        ]
        # Lock-range-only points: no frequency axis.
        assert all(p.w_injection is None for p in spec.points)


class TestLoadSpec:
    def test_points_json(self, tmp_path):
        doc = {
            "name": "two-points",
            "escalate": False,
            "points": [
                {"family": "tanh", "n": 3, "v_i": 0.03},
                {"family": "tanh", "n": 3, "v_i": 0.05, "q_scale": 0.5},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_spec(path)
        assert spec.name == "two-points"
        assert spec.escalate is False
        assert len(spec.points) == 2
        assert spec.points[1].q_scale == 0.5

    def test_tongue_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        doc = {
            "name": "yaml-tongue",
            "tongue": {
                "family": "tanh",
                "n": 3,
                "v_i": {"start": 0.01, "stop": 0.03, "count": 3},
                "freq": {"rel_span": 0.004, "count": 4},
            },
        }
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(doc))
        spec = load_spec(path)
        assert spec.name == "yaml-tongue"
        assert len(spec.points) == 3 * 4
        assert sorted({p.v_i for p in spec.points}) == pytest.approx(
            [0.01, 0.02, 0.03]
        )

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "empty"}))
        with pytest.raises(ValueError, match="points"):
            load_spec(path)

    def test_grid_missing_keys(self, tmp_path):
        doc = {"tongue": {"family": "tanh", "n": 3, "v_i": {"start": 0.01}}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="grid is missing"):
            load_spec(path)


class TestPlan:
    def test_groups_by_oscillator_key(self):
        points = (
            SweepPoint(family="tanh", n=3, v_i=0.03),
            SweepPoint(family="tanh", n=3, v_i=0.01),
            SweepPoint(family="tanh", n=3, v_i=0.03, q_scale=0.5),
            SweepPoint(family="tunnel", n=2, v_i=0.02),
            SweepPoint(family="tanh", n=3, v_i=0.02),
        )
        plan = build_plan(SweepSpec(name="mixed", points=points))
        assert [(g.family, g.n, g.q_scale) for g in plan.groups] == [
            ("tanh", 3, 1.0),
            ("tanh", 3, 0.5),
            ("tunnel", 2, 1.0),
        ]
        # Sorted unique v_i grid per group regardless of point order.
        assert plan.groups[0].v_is == (0.01, 0.02, 0.03)
        assert plan.n_points == 5
        assert plan.n_lock_solves == 5

    def test_tongue_amortisation(self):
        spec = SweepSpec.tongue("tanh", 3, [0.01, 0.02, 0.03], freq_count=8)
        plan = build_plan(spec)
        assert plan.n_points == 24
        # One lock solve per V_i row — the whole point of the batch.
        assert plan.n_lock_solves == 3
