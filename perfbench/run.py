"""The repository's benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload predict-cold --seed 1 --seconds 15 --trace 0

Workloads: predict-cold, tongue-sweep, serve-mixed, paper-speedup (see
README.md here).  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off; with ``--trace 1`` it traces every other
operation and reports the per-layer metrics.  Every output is checked;
human-readable lines come first and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every check passed.

Each run works in a fresh cache directory under ``.bench_build/`` of the
checkout and removes it on exit; nothing is read from or written to the
user's ``~/.cache``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import harness

harness.pin_thread_pools()

# numpy is imported below this line, after its thread pools are pinned.
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload: str, work: pathlib.Path, index: int) -> float:
    """Time one set-up in a fresh process with an empty cache directory."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(work / f"probe-{index}")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Temporary files of this process and its children (the C compiler
    # included) stay inside the checkout too.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    state = None
    try:
        setups = [probe_setup(args.workload, work, i) for i in range(SETUP_PROBES)]
        state = workloads.setup(args.workload, work / "cache")
        fingerprint = harness.fingerprint(state.backend)
        print(f"# fingerprint {json.dumps(fingerprint, sort_keys=True)}")
        recorded = HERE / "baseline.json"
        baseline = json.loads(recorded.read_text())["fingerprint"] if recorded.exists() else {}
        if baseline and not harness.comparable(fingerprint, baseline):
            print("# NOT COMPARABLE with baseline.json: compiled backend "
                  f"{fingerprint['compiled_backend']} != {baseline.get('compiled_backend')}")
        print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}, fresh cache {work / 'cache'}")
        workloads.prime(args.workload, state, work)
        outcome = workloads.RUNNERS[args.workload](
            state, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        if state is not None and state.host is not None:
            state.host.stop()
        shutil.rmtree(work, ignore_errors=True)

    tally = outcome.tally
    leftover = harness.live_children()
    tally.attempt(not leftover, f"child processes still alive after the run: {leftover}")
    end_to_end = {"setup_s": harness.median(setups), **outcome.end_to_end}
    end_to_end.setdefault("peak_rss_mb", harness.self_peak_rss_mb())
    print(f"# setup_s samples {', '.join(f'{s:.3f}' for s in setups)}"
          + (f"; service warm-up {state.warmup_s:.3f} s" if state.host is not None else ""))
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# error_rate {tally.error_rate:.4f} ({tally.failed} of {tally.attempted} "
          "operations and checks failed)")
    for failure in tally.failures[:20]:
        print(f"# FAILED {failure}")
    if args.trace:
        table = layers.LAYERS
        values = {name: float(outcome.per_layer.get(name, 0.0)) for name, *_ in table}
        print("# per-layer (per operation)            value  -> moves, on workload")
        for name, unit, _, layer, target, where in table:
            print(f"#   {layer:<14} {name:<34} {values[name]:>12.6g} {unit:<5} "
                  f"-> {target}, {where}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in table}
    else:
        units = {name: unit for name, unit, *_ in layers.END_TO_END}
        for name, unit, *_ in layers.END_TO_END:
            print(f"# {name} = {end_to_end[name]:.6g} {unit}")
        metrics = {name: {"value": float(end_to_end[name]), "unit": units[name]}
                   for name in units}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
