"""FIG19 bench: the three SHIL states of the tunnel diode oscillator."""

from repro.experiments import run_experiment


def test_fig19_tunnel_states(benchmark, save_report):
    result = benchmark.pedantic(run_experiment, args=("FIG19",), kwargs={"quick": True}, rounds=1, iterations=1)
    save_report(result)
    experiment = result.data["experiment"]
    assert all(seg.locked for seg in experiment.segments)
    assert len(experiment.observed_states) >= 2
    # High Q (316): the finite-Q phase offset is tiny at UHF.
    assert float(max(experiment.state_spacing_errors())) < 0.05
