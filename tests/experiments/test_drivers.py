"""Tests for the per-figure experiment drivers (prediction-only ones).

The transient-heavy drivers (FIG13/15/17/19, TAB1/2, SPEED) are exercised
end-to-end by the benchmark suite; here we run the prediction-side drivers
fully and assert the numbers the paper reports.
"""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.result import ExperimentResult


class TestRegistry:
    def test_all_design_md_ids_present(self):
        expected = {
            "FIG3", "FIG6", "FIG7", "FIG9", "FIG10",
            "FIG12", "FIG13", "FIG14", "FIG15", "TAB1",
            "FIG16", "FIG17", "FIG18", "FIG19", "TAB2",
            "SPEED", "TRANSIENT", "SWEEP", "ABL1", "ABL2", "ABL3",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("FIG99")

    def test_case_insensitive(self):
        result = run_experiment("fig3")
        assert result.experiment_id == "FIG3"


class TestExperimentResult:
    def test_add_and_format(self):
        result = ExperimentResult("X", "demo")
        result.add("a float", 1.23456789)
        result.add("a bool", True)
        result.add("an int", 7)
        result.add("a string", "hello")
        text = result.format()
        assert "1.23457" in text
        assert "yes" in text
        assert "hello" in text

    def test_value_lookup(self):
        result = ExperimentResult("X", "demo")
        result.add("key", 1.0)
        assert result.value("key") == "1"
        with pytest.raises(KeyError):
            result.value("missing")


class TestSection3Drivers:
    def test_fig3_values(self):
        result = run_experiment("FIG3")
        assert float(result.value("predicted amplitude A (V)")) == pytest.approx(
            1.20838, rel=1e-4
        )
        assert result.value("stable") == "yes"
        assert "T_f" in result.ascii_plot

    def test_fig6_values(self):
        result = run_experiment("FIG6")
        assert float(result.value("Q")) == pytest.approx(10.0)
        assert float(result.value("peak |H| (Ohm)")) == pytest.approx(1000.0)

    def test_fig7_two_locks(self):
        result = run_experiment("FIG7")
        assert int(result.value("lock states found")) == 2
        assert int(result.value("stable locks")) == 1
        assert int(result.value("unstable locks")) == 1
        assert int(result.value("total physical states (multiple of n)")) % 3 == 0

    def test_fig9_states(self):
        result = run_experiment("FIG9")
        assert result.value("phase spacing uniform at 2pi/n") == "yes"

    def test_fig10_lock_range(self):
        result = run_experiment("FIG10")
        assert float(result.value("phi_d symmetry |lower+upper|")) < 1e-9
        width = float(result.value("lock range width (Hz)"))
        assert 1000.0 < width < 3000.0


class TestSection4PredictionDrivers:
    def test_fig12_reproduces_paper_amplitude(self):
        result = run_experiment("FIG12")
        assert float(result.value("predicted natural amplitude A (V)")) == pytest.approx(
            0.505, abs=1e-3
        )
        assert result.value("BC clamp visible beyond tanh region") == "yes"

    def test_fig14_lock_range_shape(self):
        result = run_experiment("FIG14")
        lower = float(result.value("lower lock limit (MHz)"))
        upper = float(result.value("upper lock limit (MHz)"))
        # Paper Table 1 prediction: 1.501065 / 1.518735 MHz.
        assert lower == pytest.approx(1.5011, abs=0.002)
        assert upper == pytest.approx(1.5187, abs=0.002)
        assert result.value("A under lock < natural A") == "yes"

    def test_fig16_reproduces_paper_amplitude(self):
        result = run_experiment("FIG16")
        assert float(result.value("predicted natural amplitude A (V)")) == pytest.approx(
            0.199, abs=2e-3
        )
        assert result.value("negative resistance at bias") == "yes"

    def test_fig18_lock_range_shape(self):
        result = run_experiment("FIG18")
        lower = float(result.value("lower lock limit (GHz)"))
        upper = float(result.value("upper lock limit (GHz)"))
        # Paper Table 2 prediction: 1.507320 / 1.512429 GHz.
        assert lower == pytest.approx(1.50732, abs=0.001)
        assert upper == pytest.approx(1.51243, abs=0.001)
        width = float(result.value("lock range width (GHz)"))
        assert width == pytest.approx(0.005109, abs=3e-4)
