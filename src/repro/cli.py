"""Command-line interface: ``python -m repro <command> ...``.

Gives designers the paper's analyses without writing Python:

* ``natural``    — free-running amplitude/frequency (Fig. 3 flow),
* ``locks``      — lock states at one injection frequency (Fig. 7 flow),
* ``lockrange``  — the one-pass lock range (Fig. 10 flow),
* ``experiment`` — run a DESIGN.md experiment by id (FIG3..TAB2, ...),
* ``verify``     — the cross-method verification matrix (DESIGN.md §7):
  every prediction path on every scenario, cross-checked within declared
  tolerance bands; writes ``VERIFY_REPORT.json``,
* ``faults``     — the deterministic fault-injection matrix (DESIGN.md
  §8): break the pipeline on purpose, assert every scenario recovers via
  a documented escalation rung or fails typed; writes
  ``FAULTS_REPORT.json`` (``--serve`` runs the service-layer chaos suite
  of DESIGN.md §13 against a live job service instead),
* ``serve``      — the resilient HTTP job service (DESIGN.md §13):
  lockrange/natural/tongue jobs with per-tenant admission control,
  wall-clock deadlines, transient-fault retries, crash-isolated worker
  subprocesses, and graceful degradation; writes ``SERVE_REPORT.json``
  on shutdown,
* ``obs``        — render a ``--trace`` file as a span tree with
  per-phase totals (or validate its schema with ``--validate``),
* ``cache``      — inspect or clear the persistent surface cache.

The solve commands run through the escalation ladders of
:mod:`repro.robust` by default (disable with ``--no-escalate``) and
print a one-line solve-diagnostics summary.  Typed solve failures map to
documented exit codes (3 no-lock, 4 HB divergence, 5 no-oscillation,
6 numerical fault) with a one-line message on stderr instead of a
traceback.

The oscillator can be one of the built-in calibrated setups
(``--oscillator tanh|diffpair|tunnel``) or a custom tanh cell described by
``--gm/--isat`` with an explicit ``--r/--l/--c`` tank.

Examples
--------
::

    python -m repro natural --oscillator tunnel
    python -m repro lockrange --oscillator diffpair --vi 0.03 --n 3
    python -m repro locks --gm 2.5m --isat 1m --r 1k --l 100u --c 10n \\
        --vi 0.03 --n 3 --finj 477.5k
    python -m repro experiment FIG10
    python -m repro --trace experiment FIG14     # writes TRACE.jsonl
    python -m repro verify --quick               # the 14-scenario CI matrix
    python -m repro verify --scenario tunnel-n3-vi030m

``locks`` and ``lockrange`` accept ``--method dense`` to force the
direct-quadrature referee instead of the FFT-factorised fast path.

``--trace [PATH]`` (before the subcommand) records every span the solve
stack opens — with per-iteration Newton convergence events — into a
JSON-lines trace file (default ``TRACE.jsonl``) and snapshots the metrics
registry, surface-cache hit/miss counters included, into
``OBS_REPORT.json``; ``python -m repro obs TRACE.jsonl`` then renders the
tree and the per-span time totals.  ``--log-json`` switches the
structured log records to one JSON object per line on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.utils.units import format_si, parse_value

__all__ = ["main", "build_parser"]

# Typed failure exit codes (documented in the README):
#   0 success, 1 generic/no-lock-states-at-this-frequency, 2 argparse usage,
#   3..6 the typed solve failures below, so scripts can branch on *why*.
EXIT_NO_LOCK = 3
EXIT_HB_DIVERGENCE = 4
EXIT_NO_OSCILLATION = 5
EXIT_NUMERICAL_FAULT = 6


def _resolve_setup(args):
    """Build (nonlinearity, tank, name) from CLI arguments."""
    from repro.experiments.circuits import (
        diffpair_oscillator,
        tanh_oscillator,
        tunnel_oscillator,
    )

    if args.oscillator:
        setup = {
            "tanh": tanh_oscillator,
            "diffpair": diffpair_oscillator,
            "tunnel": tunnel_oscillator,
        }[args.oscillator]()
        return setup.nonlinearity, setup.tank, setup.name
    if args.r is None or args.l is None or args.c is None:
        raise SystemExit(
            "either --oscillator or a full custom tank (--r --l --c) is required"
        )
    from repro.nonlin import NegativeTanh
    from repro.tank import ParallelRLC

    nonlinearity = NegativeTanh(
        gm=parse_value(args.gm), i_sat=parse_value(args.isat)
    )
    tank = ParallelRLC(
        r=parse_value(args.r), l=parse_value(args.l), c=parse_value(args.c)
    )
    return nonlinearity, tank, "custom-tanh"


def _print_diagnostics(diagnostics) -> None:
    """Render a solve's escalation record (one line, more when it escalated)."""
    if diagnostics is None:
        return
    print(f"solve diagnostics: {diagnostics.summary()}")
    if diagnostics.escalated or diagnostics.faults:
        for line in diagnostics.format().splitlines()[1:]:
            print(line)


def _cmd_natural(args) -> int:
    nonlinearity, tank, name = _resolve_setup(args)
    if args.no_escalate:
        from repro.core import predict_natural_oscillation

        natural, diagnostics = predict_natural_oscillation(nonlinearity, tank), None
    else:
        from repro.robust import robust_natural

        result = robust_natural(nonlinearity, tank)
        natural, diagnostics = result.value, result.diagnostics
    print(f"oscillator: {name}")
    print(f"tank: f_c = {format_si(tank.center_frequency / (2 * np.pi), 'Hz')}, "
          f"R = {format_si(tank.peak_resistance, 'Ohm')}")
    print(f"small-signal loop gain T_f(0) = {natural.loop_gain_small_signal:.4g}")
    print(f"natural oscillation: A = {natural.amplitude:.6g} V at "
          f"{format_si(natural.frequency_hz, 'Hz')} "
          f"({'stable' if natural.stable else 'unstable'})")
    _print_diagnostics(diagnostics)
    return 0


def _cmd_locks(args) -> int:
    nonlinearity, tank, name = _resolve_setup(args)
    if args.finj is not None:
        w_injection = 2.0 * np.pi * parse_value(args.finj)
    else:
        w_injection = args.n * tank.center_frequency
    if args.no_escalate:
        from repro.core import solve_lock_states

        solution = solve_lock_states(
            nonlinearity, tank, v_i=parse_value(args.vi),
            w_injection=w_injection, n=args.n, method=args.method,
        )
        diagnostics = None
    else:
        from repro.robust import robust_solve_lock_states

        result = robust_solve_lock_states(
            nonlinearity, tank, v_i=parse_value(args.vi),
            w_injection=w_injection, n=args.n, method=args.method,
        )
        solution, diagnostics = result.value, result.diagnostics
    print(f"oscillator: {name}; injection "
          f"{format_si(w_injection / (2 * np.pi), 'Hz')} at n = {args.n}, "
          f"V_i = {parse_value(args.vi):g} V")
    print(f"tank phase phi_d = {solution.phi_d:+.5f} rad")
    if not solution.locks:
        print("no lock states: injection frequency is outside the lock range")
        _print_diagnostics(diagnostics)
        return 1
    for k, lock in enumerate(solution.locks):
        tag = "stable" if lock.stable else "unstable"
        states = ", ".join(f"{psi:.4f}" for psi in lock.oscillator_phases)
        print(f"lock {k}: phi = {lock.phi:.5f} rad, A = {lock.amplitude:.6g} V "
              f"({tag}); oscillator states: [{states}] rad")
    print(f"total physical states: {solution.total_states} "
          f"(a multiple of n = {solution.n})")
    _print_diagnostics(diagnostics)
    return 0


def _cmd_lockrange(args) -> int:
    nonlinearity, tank, name = _resolve_setup(args)
    if args.no_escalate:
        from repro.core import predict_lock_range

        lock_range = predict_lock_range(
            nonlinearity, tank, v_i=parse_value(args.vi), n=args.n,
            method=args.method,
        )
        diagnostics = None
    else:
        from repro.robust import robust_predict_lock_range

        result = robust_predict_lock_range(
            nonlinearity, tank, v_i=parse_value(args.vi), n=args.n,
            method=args.method,
        )
        lock_range, diagnostics = result.value, result.diagnostics
    print(f"oscillator: {name}; n = {args.n}, V_i = {parse_value(args.vi):g} V")
    print(f"lower lock limit: {format_si(lock_range.injection_lower_hz, 'Hz')}")
    print(f"upper lock limit: {format_si(lock_range.injection_upper_hz, 'Hz')}")
    print(f"lock range width: {format_si(lock_range.width_hz, 'Hz')}")
    print(f"boundary tank phase: {lock_range.phi_d_at_lower:+.5f} rad "
          f"(symmetric: {lock_range.phi_d_at_upper:+.5f})")
    print(f"amplitude at the edges: {lock_range.amplitude_at_lower:.6g} V")
    _print_diagnostics(diagnostics)
    return 0


def _cmd_faults(args) -> int:
    from repro.robust.injection import fault_scenarios, run_fault_matrix

    if args.list:
        for scenario in fault_scenarios(quick=False):
            print(f"{scenario.scenario_id}: {scenario.description} "
                  f"[expect {scenario.expectation}: {scenario.expected_fault}]")
        if args.serve:
            from repro.serve.chaos import serve_scenarios

            for scenario in serve_scenarios():
                print(f"{scenario.scenario_id}: {scenario.description} "
                      f"[expect {scenario.expectation}: {scenario.expected_fault}]"
                      " [service]")
        return 0
    if args.serve:
        from repro.serve.chaos import run_serve_fault_matrix

        report = run_serve_fault_matrix(
            progress=lambda line: print(f".. {line}", flush=True)
        )
    else:
        quick = not args.full
        report = run_fault_matrix(
            quick=quick, progress=lambda line: print(f".. {line}", flush=True)
        )
    print(report.format())
    path = report.write(args.report)
    print(f"report written to {path}")
    return 0 if report.passed else 1


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import JobService, ServeConfig, write_serve_report
    from repro.serve.admission import load_tenant_config
    from repro.serve.httpd import start_http_server
    from repro.serve.retry import RetryPolicy

    tenants = (
        load_tenant_config(args.tenant_config) if args.tenant_config else {}
    )
    config = ServeConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        tenants=tenants,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        default_deadline_s=parse_value(args.deadline),
        allow_chaos=args.allow_chaos,
    )

    async def _serve_forever() -> int:
        service = JobService(config)
        await service.start()
        server = await start_http_server(
            service, host=args.host, port=args.port
        )
        port = server.sockets[0].getsockname()[1]
        print(
            f"repro serve listening on http://{args.host}:{port} "
            f"({config.workers} workers, queue limit {config.queue_limit}"
            f"{', chaos enabled' if config.allow_chaos else ''})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
            print("shutting down ...", flush=True)
        finally:
            server.close()
            await server.wait_closed()
            await service.stop()
            path = write_serve_report(service, args.report)
            print(f"serve report written to {path}", flush=True)
        return 1 if service.unhandled_errors else 0

    return asyncio.run(_serve_forever())


def _cmd_experiment(args) -> int:
    from repro.experiments import run_experiment

    kwargs = {"quick": True} if args.quick else {}
    try:
        result = run_experiment(args.id, **kwargs)
    except TypeError:
        # Driver without a quick switch.
        result = run_experiment(args.id)
    print(result.format())
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import (
        DEFAULT_GOLDEN_PATH,
        diff_against_golden,
        run_matrix,
        scenario_matrix,
        write_golden,
    )

    if args.list:
        for scenario in scenario_matrix("full"):
            print(scenario.describe())
        return 0
    mode = "full" if args.full else "quick"
    report = run_matrix(
        mode,
        scenario_ids=args.scenario or None,
        progress=lambda line: print(f".. {line}", flush=True),
    )
    print(report.format())
    path = report.write(args.report)
    print(f"report written to {path}")
    code = 0 if report.ok else 1
    if args.update_golden:
        print(f"golden updated: {write_golden(report)}")
        return code
    import pathlib

    if pathlib.Path(DEFAULT_GOLDEN_PATH).exists():
        regressions = diff_against_golden(report)
        for line in regressions:
            print(f"golden regression: {line}")
        if regressions:
            code = 1
    return code


def _cmd_obs(args) -> int:
    from repro.obs import (
        analyze_serve_trace,
        summarise_trace,
        validate_obs_report,
        validate_trace,
    )

    if args.validate:
        problems = validate_trace(args.trace_file)
        if args.obs_report is not None:
            problems += validate_obs_report(args.obs_report)
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        if problems:
            return 1
        checked = "trace and report schemas" if args.obs_report else "trace schema"
        print(f"{checked} valid")
        return 0
    try:
        if args.serve:
            print(analyze_serve_trace(args.trace_file, top=args.top))
        else:
            print(summarise_trace(args.trace_file))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_regress(args) -> int:
    if args.gate == "surfaces":
        from repro.regress import (
            check_surfaces,
            compute_manifest,
            load_manifest,
            write_manifest,
        )

        if args.update:
            path = write_manifest(compute_manifest(), args.manifest)
            print(f"golden surface manifest written to {path}")
            print(
                "commit this file; reviewers should treat fingerprint "
                "changes as algorithm/environment changes"
            )
            return 0
        problems = check_surfaces(args.manifest)
        if problems:
            for problem in problems:
                print(f"surface drift: {problem}", file=sys.stderr)
            return 1
        pinned = len(load_manifest(args.manifest).get("entries", {}))
        print(f"surfaces: {pinned} pinned case(s) match the golden manifest")
        return 0

    # args.gate == "spans"
    from repro.regress import run_serve_span_gate, run_span_gate

    if args.serve:
        result = run_serve_span_gate(trace_out=args.trace_out)
    else:
        result = run_span_gate(
            scenario_ids=tuple(args.scenario) if args.scenario else None,
            trace_out=args.trace_out,
        )
    print(result.format())
    if result.trace_path:
        print(f"trace written to {result.trace_path}")
    if not result.ok:
        print("span budgets violated", file=sys.stderr)
        return 1
    return 0


#: The ``cache.*`` registry counters ``repro cache --stats`` reports.
_CACHE_STATS = ("corrupt", "hits", "misses", "puts")


def _cmd_cache(args) -> int:
    from repro.obs import metrics
    from repro.perf import default_store

    store = default_store()
    if args.clear:
        removed = store.clear()
        print(f"cache cleared: {removed} record(s) removed from {store.root}")
        return 0
    print(f"cache root: {store.root}")
    print(
        f"records on disk: {len(store)} in {len(store.shards())} shard(s) "
        f"(max {store.max_entries_per_shard} per shard)"
    )
    coverage = store.fingerprint_coverage()
    current = coverage["records"] - coverage["legacy"]
    print(
        f"records with output fingerprint: "
        f"{coverage['fingerprinted']}/{current} "
        f"(verified {coverage['verified']}, mismatched {coverage['mismatched']}, "
        f"legacy pre-fingerprint {coverage['legacy']})"
    )
    for stat in _CACHE_STATS:
        print(f"this process {stat}: {metrics.counter(f'cache.{stat}')}")
    return 0


def _cmd_sweep(args) -> int:
    from dataclasses import replace

    from repro.sweep import (
        SweepSpec,
        build_plan,
        load_spec,
        render_table,
        render_tongue,
        run_sweep,
        run_sweep_pointwise,
        write_report,
    )

    if args.spec:
        spec = load_spec(args.spec)
    elif args.matrix:
        spec = SweepSpec.from_verify_matrix(args.matrix)
    elif args.oscillator:
        spec = SweepSpec.tongue(
            args.oscillator,
            args.n,
            np.linspace(
                parse_value(args.vi_start), parse_value(args.vi_stop), args.vi_count
            ),
            freq_rel_span=args.freq_span,
            freq_count=args.freq_count,
            q_scale=args.q_scale,
        )
    else:
        raise SystemExit(
            "one of --spec, --matrix or --oscillator (tongue shortcut) is required"
        )
    overrides = {"engine": args.engine}
    if args.method is not None:
        overrides["method"] = args.method
    if args.no_escalate:
        overrides["escalate"] = False
    if args.check_transient:
        overrides["check_transient"] = args.check_transient
    spec = replace(spec, **overrides)

    plan = build_plan(spec)
    print(
        f"sweep '{spec.name}': {len(spec.points)} point(s) in "
        f"{len(plan.groups)} group(s), {plan.n_lock_solves} lock solve(s) "
        f"({'pointwise' if args.no_batch else 'batched'}, method={spec.method})"
    )
    if args.no_batch:
        result = run_sweep_pointwise(spec)
    else:
        # Progress ticks are per point now; throttle to ~10 lines per sweep.
        def _tick(done, total, _last=[0]):
            stride = max(1, total // 10)
            if done == total or done - _last[0] >= stride:
                _last[0] = done
                print(f".. {done}/{total} points", flush=True)

        result = run_sweep(spec, progress=_tick)
    print(render_table(result))
    tongue = render_tongue(result)
    if tongue:
        print()
        print(tongue)
        if args.tongue:
            import pathlib

            pathlib.Path(args.tongue).write_text(tongue + "\n")
            print(f"tongue map written to {args.tongue}")
    path = write_report(result, args.report)
    print(f"report written to {path}")
    # no-lock and fault points are sweep *data*, not command failures.
    return 0


def _add_oscillator_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("oscillator")
    group.add_argument(
        "--oscillator",
        choices=("tanh", "diffpair", "tunnel"),
        help="one of the calibrated paper oscillators",
    )
    group.add_argument("--gm", default="2.5m", help="custom tanh gm (S)")
    group.add_argument("--isat", default="1m", help="custom tanh saturation (A)")
    group.add_argument("--r", help="tank resistance (Ohm), e.g. 1k")
    group.add_argument("--l", help="tank inductance (H), e.g. 100u")
    group.add_argument("--c", help="tank capacitance (F), e.g. 10n")


def _add_method_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=("fft", "dense"),
        default="fft",
        help="pre-characterisation path: FFT-factorised fast path "
        "(default) or the direct-quadrature dense referee",
    )


def _add_escalation_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-escalate",
        action="store_true",
        help="disable the escalation ladder: fail on the first attempt "
        "instead of retrying with refined grids / widened windows / the "
        "dense referee",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SHIL analysis of LC oscillators (Bhushan, DAC 2014)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="TRACE.jsonl",
        default=None,
        metavar="PATH",
        help="record a span trace of the run (JSON lines; default "
        "TRACE.jsonl) and write OBS_REPORT.json with the metrics "
        "snapshot (place before the subcommand)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured log records as JSON lines on stderr",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "compiled", "reference"),
        default=None,
        help="transient integration engine for any simulation the command "
        "runs: 'compiled' insists on a native kernel, 'reference' forces "
        "the pure-Python referee loop (place before the subcommand; "
        "default auto, also settable via $REPRO_ENGINE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nat = sub.add_parser("natural", help="free-running oscillation prediction")
    _add_oscillator_options(p_nat)
    _add_escalation_option(p_nat)
    p_nat.set_defaults(func=_cmd_natural)

    p_locks = sub.add_parser("locks", help="lock states at one injection frequency")
    _add_oscillator_options(p_locks)
    p_locks.add_argument("--vi", default="0.03", help="injection phasor magnitude (V)")
    p_locks.add_argument("--n", type=int, default=3, help="sub-harmonic order")
    p_locks.add_argument(
        "--finj", help="injection frequency (Hz, SPICE suffixes ok); "
        "defaults to n times the tank centre"
    )
    _add_method_option(p_locks)
    _add_escalation_option(p_locks)
    p_locks.set_defaults(func=_cmd_locks)

    p_range = sub.add_parser("lockrange", help="one-pass lock-range prediction")
    _add_oscillator_options(p_range)
    p_range.add_argument("--vi", default="0.03", help="injection phasor magnitude (V)")
    p_range.add_argument("--n", type=int, default=3, help="sub-harmonic order")
    _add_method_option(p_range)
    _add_escalation_option(p_range)
    p_range.set_defaults(func=_cmd_lockrange)

    p_faults = sub.add_parser(
        "faults",
        help="deterministic fault-injection matrix (writes FAULTS_REPORT.json)",
        description="Inject known failures (singular HB Jacobians, non-finite "
        "nonlinearity samples, truncated cache records, unreachable tank "
        "phase inversions, degenerate circuits) and verify each one either "
        "recovers via a documented escalation rung or fails with its "
        "declared typed fault. Exits non-zero if any scenario misbehaves.",
    )
    group = p_faults.add_mutually_exclusive_group()
    group.add_argument(
        "--quick", action="store_true",
        help="skip the slowest scenarios (default; used by CI)",
    )
    group.add_argument(
        "--full", action="store_true",
        help="all scenarios, including the HB continuation ramp",
    )
    p_faults.add_argument(
        "--list", action="store_true", help="list scenario ids and exit"
    )
    p_faults.add_argument(
        "--report",
        default="FAULTS_REPORT.json",
        help="output path for the machine-readable report",
    )
    p_faults.add_argument(
        "--serve",
        action="store_true",
        help="run the service-layer chaos suite instead (worker kills, "
        "stalls, queue floods, corrupt shards, malformed specs) against a "
        "live repro-serve instance",
    )
    p_faults.set_defaults(func=_cmd_faults)

    p_serve = sub.add_parser(
        "serve",
        help="HTTP job service over the sweep engine (admission control, "
        "deadlines, retries, graceful degradation)",
        description="Serve lockrange/natural/tongue jobs over HTTP with "
        "per-tenant rate limits and quotas, a bounded queue (typed 429/503 "
        "with Retry-After), wall-clock deadlines enforced down into the "
        "escalation ladder, crash-isolated worker subprocesses, and a "
        "stale-cache / coarse-estimate degradation chain. Writes "
        "SERVE_REPORT.json on shutdown.",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8321, help="bind port (0 picks a free one)"
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="solver worker subprocesses"
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="bounded job-queue size (beyond it submissions get 503)",
    )
    p_serve.add_argument(
        "--tenant-config", default=None,
        help="JSON file of per-tenant rate/quota policies "
        '({"default": {...}, "tenants": {...}})',
    )
    p_serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempt cap per job for transient-fault retries",
    )
    p_serve.add_argument(
        "--deadline", default="30",
        help="default per-job wall-clock budget in seconds",
    )
    p_serve.add_argument(
        "--allow-chaos", action="store_true",
        help="honour chaos instrumentation in job specs (testing only)",
    )
    p_serve.add_argument(
        "--report", default="SERVE_REPORT.json",
        help="shutdown report path",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_exp = sub.add_parser("experiment", help="run a DESIGN.md experiment by id")
    p_exp.add_argument("id", help="experiment id, e.g. FIG10 or TAB1")
    p_exp.add_argument("--quick", action="store_true", help="reduced-cost variant")
    p_exp.set_defaults(func=_cmd_experiment)

    p_verify = sub.add_parser(
        "verify",
        help="cross-method verification matrix (writes VERIFY_REPORT.json)",
        description="Run the scenario-matrix oracle: every applicable "
        "prediction path on every scenario, cross-checked pairwise within "
        "declared tolerance bands, plus the paper's structural invariants "
        "(n states spaced 2*pi/n, symmetric lock range, the single-tone "
        "limit, jacobian-vs-slope-rule agreement). Exits non-zero on any "
        "confirmed disagreement or golden-status regression.",
    )
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument(
        "--quick",
        action="store_true",
        help="the 14-scenario CI matrix, DF-side checks only (default)",
    )
    group.add_argument(
        "--full",
        action="store_true",
        help="adds harder scenarios plus transient/PPV ground-truth checks "
        "(minutes, not seconds)",
    )
    p_verify.add_argument(
        "--scenario",
        action="append",
        metavar="ID",
        help="run only this scenario id (repeatable; see --list)",
    )
    p_verify.add_argument(
        "--list", action="store_true", help="list scenario ids and exit"
    )
    p_verify.add_argument(
        "--report",
        default="VERIFY_REPORT.json",
        help="output path for the machine-readable report",
    )
    p_verify.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite the status-only golden artifact from this run",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser(
        "sweep",
        help="batched lock-range sweep / Arnol'd-tongue map (writes "
        "SWEEP_REPORT.json)",
        description="Run a batch of operating points through the batched "
        "sweep engine: points are grouped by (oscillator, n, Q-scale), "
        "each group shares one natural-oscillation solve and one stacked "
        "FFT pre-characterisation, and every distinct V_i runs exactly one "
        "lock-range solve (bitwise identical to the scalar path). Tongue "
        "points classify locked/unlocked by containment; faulted points "
        "degrade to the escalation ladder individually and never abort "
        "the batch.",
    )
    source = p_sweep.add_mutually_exclusive_group()
    source.add_argument(
        "--spec", metavar="FILE", help="sweep spec file (JSON or YAML)"
    )
    source.add_argument(
        "--matrix",
        choices=("quick", "full"),
        help="sweep the verify-matrix scenarios as the batch workload",
    )
    source.add_argument(
        "--oscillator",
        choices=("tanh", "skewed", "diffpair", "tunnel"),
        help="tongue-map shortcut: dense (V_i, f_inj) grid on this family",
    )
    p_sweep.add_argument("--n", type=int, default=3, help="sub-harmonic order")
    p_sweep.add_argument(
        "--vi-start", default="0.005", help="tongue V_i grid start (V)"
    )
    p_sweep.add_argument(
        "--vi-stop", default="0.06", help="tongue V_i grid stop (V)"
    )
    p_sweep.add_argument(
        "--vi-count", type=int, default=16, help="tongue V_i grid points"
    )
    p_sweep.add_argument(
        "--freq-span",
        type=float,
        default=0.005,
        help="tongue frequency half-span relative to n*f_c",
    )
    p_sweep.add_argument(
        "--freq-count", type=int, default=16, help="tongue frequency grid points"
    )
    p_sweep.add_argument(
        "--q-scale", type=float, default=1.0, help="tank-Q scale factor"
    )
    p_sweep.add_argument(
        "--method",
        choices=("fft", "dense"),
        default=None,
        help="override the spec's pre-characterisation path",
    )
    p_sweep.add_argument(
        "--check-transient",
        type=int,
        default=0,
        metavar="K",
        help="referee up to K solved points per group against a quick "
        "transient simulation (honors the global --engine selection)",
    )
    p_sweep.add_argument(
        "--no-batch",
        action="store_true",
        help="run the naive scalar point loop instead (ablation baseline)",
    )
    p_sweep.add_argument(
        "--report",
        default="SWEEP_REPORT.json",
        help="output path for the machine-readable report",
    )
    p_sweep.add_argument(
        "--tongue",
        metavar="PATH",
        help="also write the ASCII tongue map to this file",
    )
    _add_escalation_option(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_obs = sub.add_parser(
        "obs",
        help="render or validate a --trace file (span tree + phase totals)",
        description="Render a JSON-lines trace recorded with --trace as an "
        "indented span tree (durations, iteration counts, residual norms, "
        "convergence-event counts) followed by per-span wall-time totals. "
        "With --validate, structurally check the trace (and optionally an "
        "OBS_REPORT.json) instead, exiting non-zero on any problem.",
    )
    # dest must not collide with the global --trace flag (same namespace).
    p_obs.add_argument(
        "trace_file",
        metavar="TRACE",
        help="path to a trace file written by --trace",
    )
    p_obs.add_argument(
        "--validate",
        action="store_true",
        help="schema-check instead of rendering (CI smoke mode)",
    )
    p_obs.add_argument(
        "--obs-report",
        metavar="PATH",
        help="with --validate, also check this OBS_REPORT.json",
    )
    p_obs.add_argument(
        "--serve",
        action="store_true",
        help="analyze a stitched serve trace instead: per-job span trees "
        "with queue-wait vs solve-time breakdowns and the slowest ladder "
        "rungs across the fleet",
    )
    p_obs.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="with --serve, how many slowest rungs to list (default 5)",
    )
    p_obs.set_defaults(func=_cmd_obs)

    p_regress = sub.add_parser(
        "regress",
        help="regression gates (surfaces, span budgets)",
        description="Run one of the two CI regression gates: 'surfaces' "
        "diffs freshly computed surface fingerprints against the committed "
        "golden manifest, and 'spans' replays a canonical verify-matrix "
        "slice under tracing and asserts the recorded work telemetry against "
        "declared budgets. Both exit non-zero on drift.",
    )
    regress_sub = p_regress.add_subparsers(dest="gate", required=True)

    p_surfaces = regress_sub.add_parser(
        "surfaces",
        help="diff computed surface fingerprints against the golden manifest",
        description="Recompute the pinned pre-characterisation surfaces and "
        "compare their payload fingerprints and cache disk keys against "
        "tests/regress/golden/manifest.json. Payload drift (numerics moved) "
        "and key drift (cache recipe changed) are reported separately; both "
        "require an explicit, reviewed --update to accept.",
    )
    p_surfaces.add_argument(
        "--manifest",
        default="tests/regress/golden/manifest.json",
        help="golden manifest path (default: the committed one)",
    )
    p_surfaces.add_argument(
        "--update",
        action="store_true",
        help="rewrite the golden manifest from the current computation "
        "(an intentional, reviewed regen — never run this to quiet CI)",
    )
    p_surfaces.set_defaults(func=_cmd_regress)

    p_spans = regress_sub.add_parser(
        "spans",
        help="replay verify scenarios under tracing and assert work budgets",
        description="Replay the canonical budget scenarios through the quick "
        "verify matrix with tracing enabled (against a fresh temporary "
        "surface cache, so cache telemetry is the deterministic cold-run "
        "profile) and assert hb.iterations, df.evaluations, ladder "
        "escalations, cache hit rates and span counts against the budgets "
        "declared in repro.regress.budgets.",
    )
    p_spans.add_argument(
        "--scenario",
        action="append",
        metavar="ID",
        help="replay only this scenario id (repeatable; default: the "
        "declared budget scenarios)",
    )
    p_spans.add_argument(
        "--trace-out",
        metavar="PATH",
        help="also write the replay's span trace to this file",
    )
    p_spans.add_argument(
        "--serve",
        action="store_true",
        help="run the serve-layer gate instead: a traced replay through a "
        "live service whose stitched cross-process trace must validate and "
        "stay inside the serve span budgets",
    )
    p_spans.set_defaults(func=_cmd_regress)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clear the persistent surface cache",
        description="Show the on-disk surface-cache location and size plus "
        "this process's hit/miss/corrupt counters from the metrics "
        "registry, or wipe the store with --clear.",
    )
    p_cache.add_argument(
        "--stats",
        action="store_true",
        help="print cache statistics (the default action)",
    )
    p_cache.add_argument(
        "--clear", action="store_true", help="remove every cached record"
    )
    p_cache.set_defaults(func=_cmd_cache)

    return parser


def _typed_exit_codes() -> list[tuple[type, str, int]]:
    """(exception type, human label, exit code), most specific first."""
    from repro.core.natural import NoOscillationError
    from repro.core.harmonic_balance import HbConvergenceError
    from repro.core.lockrange import NoLockError
    from repro.robust import NumericalFaultError

    return [
        (NoLockError, "no lock", EXIT_NO_LOCK),
        (HbConvergenceError, "HB divergence", EXIT_HB_DIVERGENCE),
        (NoOscillationError, "no oscillation", EXIT_NO_OSCILLATION),
        (NumericalFaultError, "numerical fault", EXIT_NUMERICAL_FAULT),
    ]


def _run_command(args) -> int:
    """Dispatch to the subcommand, mapping typed failures to exit codes.

    Solve failures are expected outcomes (the injection is too weak, the
    circuit does not oscillate, Newton diverged); scripts get a one-line
    message plus the escalation diagnostics on stderr and a documented
    exit code instead of a traceback.
    """
    from repro.obs import trace

    with trace(f"cli.{args.command}") as span:
        try:
            code = args.func(args)
        except tuple(t for t, _, _ in _typed_exit_codes()) as exc:
            for exc_type, label, code in _typed_exit_codes():
                if isinstance(exc, exc_type):
                    break
            print(f"error ({label}): {exc}", file=sys.stderr)
            diagnostics = getattr(exc, "diagnostics", None)
            if diagnostics is not None:
                print(diagnostics.format(), file=sys.stderr)
            span.set(error=label, exit_code=code)
            return code
        span.set(exit_code=code)
        return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_json:
        from repro.obs import enable_json_logs

        enable_json_logs()
    if args.engine is not None:
        from repro.odesim import set_default_engine

        set_default_engine(args.engine)
    if args.trace is None:
        return _run_command(args)

    from repro.obs import tracer, write_obs_report

    tracer.enable()
    code = _run_command(args)
    trace_path = tracer.write(args.trace)
    tracer.disable()
    report_path = write_obs_report(
        argv=list(argv) if argv is not None else sys.argv[1:],
        exit_code=code,
        trace_file=str(trace_path),
    )
    print(f"trace written to {trace_path}")
    print(f"observability report written to {report_path}")
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
