"""Closed-loop benchmark of satcycles: one client, seeded requests, every answer checked.

    python3 perfbench/run.py --workload cycles_mixed --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the client sends one request after another for
``--seconds`` seconds with tracing off, checks every answer as it returns and
reports the end-to-end metrics.  Times are in reference seconds: each is
scaled by the speed of a fixed kernel sampled while it runs
(``refclock.py``), so that the host's changes of speed cancel out.  With
``--trace 1`` it runs a fixed number of requests (sized from
``--seconds``), each once untraced and once traced,
requires the two answers to be bitwise equal and reports per-layer metrics.
The last line of standard output is one JSON object; the lines before it list
every request's parameters and every failure.  Spans of a traced run go to
``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_INIT = ROOT / "src" / "satcycles" / "__init__.py"
WORK = HERE / "_work"
# Set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET_S have
# passed (at most SETUP_MAX times); its median is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
TAIL_BEYOND = 10

# Fresh interpreter: time ``import satcycles`` plus one fixed warm-up request.
# The reference kernel samples the host's speed during the warm-up, in the
# same process; the import is scaled by the same samples, the first of which
# is taken right after it.  Prints the raw and the reference seconds.
_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import satcycles, satcycles.cli
import_s = time.perf_counter() - start
from pathlib import Path
if Path(satcycles.__file__).resolve() != Path({init!r}):
    sys.exit("satcycles was imported from " + satcycles.__file__)
sys.path.insert(0, {here!r})
import refclock, workloads
w = workloads.WORKLOADS[{name!r}]
with refclock.Speed() as speed:
    start = time.perf_counter()
    out = w.run(satcycles, w.warmup, Path({work!r}))
    run_s = time.perf_counter() - start - speed.paused_s
problems = w.check(satcycles, w.warmup, out)
if problems:
    sys.exit("warm-up request failed: " + "; ".join(problems))
print(repr(import_s + run_s), repr((import_s + run_s) * speed.scale))
"""


def load_package():
    """Import satcycles from this checkout's src/, never from elsewhere."""
    if not PACKAGE_INIT.is_file():
        raise SystemExit(f"error: {PACKAGE_INIT} not found; run from a satcycles checkout")
    sys.path.insert(0, str(PACKAGE_INIT.parent.parent))
    import satcycles
    import satcycles.cli  # the package does not import its command-line module

    if Path(satcycles.__file__).resolve() != PACKAGE_INIT.resolve():
        raise SystemExit(f"error: satcycles was imported from {satcycles.__file__}")
    return satcycles


def measure_setup(name, work):
    """Median set-up time over fresh interpreters, in reference seconds."""
    code = _SETUP_CHILD.format(src=str(PACKAGE_INIT.parent.parent),
                               init=str(PACKAGE_INIT.resolve()), here=str(HERE),
                               name=name, work=str(work))
    times, raw = [], []
    begin = time.perf_counter()
    while len(times) < SETUP_MIN or (
            len(times) < SETUP_MAX and time.perf_counter() - begin < SETUP_BUDGET_S):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=150)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up run failed: {proc.stderr.strip()}")
        raw_s, ref_s = map(float, proc.stdout.split())
        raw.append(raw_s)
        times.append(ref_s)
    print(f"setup raw median {statistics.median(raw):.4f} s over {len(raw)} fresh interpreters")
    return statistics.median(times)


def attempt(run, sc, req, work):
    """(seconds, output, error text) of one request; an exception is a failure."""
    start = time.perf_counter()
    try:
        out, error = run(sc, req, work), None
    except Exception as exc:  # the request boundary: record and go on
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, error


def check(wl, sc, req, out, error):
    if error is not None:
        return [error]
    try:
        return wl.check(sc, req, out)
    except Exception as exc:  # a malformed answer the check could not parse
        return [f"check raised {type(exc).__name__}: {exc}"]


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


def untraced(sc, wl, name, seed, seconds, work):
    setup_s = measure_setup(name, work)
    wl.run(sc, wl.warmup, work)
    # Each answer is checked as soon as it returns and then dropped, so
    # memory does not grow with throughput.  The reference kernel samples
    # the host's speed during each request and gives that iteration's scale
    # to reference seconds.  The loop stops after ``seconds`` of request
    # time; throughput is over the loop's wall time, checks included and the
    # reference kernel left out.
    times, raw, scales, failed = [], [], [], 0
    wall_ref_s = 0.0
    while sum(raw) < seconds:
        i = len(times)
        req = wl.request(seed, i)
        with refclock.Speed() as speed:
            dt, out, error = attempt(wl.run, sc, req, work)
        dt -= speed.paused_s
        start = time.perf_counter()
        problems = check(wl, sc, req, out, error)
        check_s = time.perf_counter() - start
        raw.append(dt)
        scales.append(speed.scale)
        times.append(dt * speed.scale)
        wall_ref_s += (dt + check_s) * speed.scale
        failed += bool(problems)
        report(i, req, f"{dt:.4f} s ({dt * speed.scale:.4f} ref s)", problems)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = len(times)
    tail_s, tail_pct = tail(times)
    print(f"request_s_tail is p{tail_pct:.1f} of {n} requests ({min(n, TAIL_BEYOND)} beyond it)")
    print(f"fail_frac = {failed / n:.4f} ({failed} of {n})")
    print(f"raw request_s_p50 = {statistics.median(raw):.4f} s; reference kernel at "
          f"{statistics.median(scales):.3f} of its nominal speed")
    metrics = {
        "request_s_p50": (statistics.median(times), "s"),
        "request_s_tail": (tail_s, "s"),
        "requests_per_s": ((n - failed) / wall_ref_s, "1/s"),
        "ok_frac": ((n - failed) / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return n, failed, metrics


def traced(sc, wl, name, seed, seconds, work):
    from tracing import Tracer

    tracer = Tracer(sc)
    n = max(2, round(seconds / wl.pair_s))
    plain_s = 0.0
    failed = 0
    requests = []
    for i in range(n):
        req = wl.request(seed, i)
        requests.append(req)
        # Alternate which run goes first so neither always meets a warm cache.
        if i % 2:
            with tracer.request(i):
                _, out_t, err_t = attempt(wl.run, sc, req, work)
            dt, out, error = attempt(wl.run, sc, req, work)
        else:
            dt, out, error = attempt(wl.run, sc, req, work)
            with tracer.request(i):
                _, out_t, err_t = attempt(wl.run, sc, req, work)
        plain_s += dt
        problems = check(wl, sc, req, out, error)
        if repr((out_t, err_t)) != repr((out, error)):
            problems.append("traced answer differs from untraced answer")
        failed += bool(problems)
        report(i, req, f"{dt:.4f} s", problems)
    tracer.dump(WORK / f"trace-{name}-seed{seed}.json", requests)
    return n, failed, layer_metrics(tracer, n, plain_s, failed)


def layer_metrics(t, n, plain_s, failed):
    """Per-request means of the traced run's counters and times."""
    advances = t.calls("exactflow.advance")
    fun_evals = t.counts["gridscan.fun_evals"]
    roots = t.counts["gridscan.roots_found"]
    m_shift = t.calls("melnikov.M_shift")
    traced_s = t.total_s("request")
    per_req = "count/req"
    return {
        "exactflow.advance.calls": (advances / n, per_req),
        "exactflow.advance.s": (t.total_s("exactflow.advance") / n, "s/req"),
        "exactflow.advance.us_per_call": (
            1e6 * t.total_s("exactflow.advance") / advances if advances else 0.0, "us"),
        "exactflow.advance.share": (t.total_s("exactflow.advance") / traced_s, "ratio"),
        "exactflow.zone_switches": (t.counts["exactflow.zone_switches"] / n, per_req),
        "exactflow.linear_zone_flow.calls": (t.site_count("exactflow.linear_zone_flow") / n, per_req),
        "exactflow.lzf_per_advance": (
            t.site_count("exactflow.linear_zone_flow", "satcycles.exactflow") / advances
            if advances else 0.0, "ratio"),
        "gridscan.scan_roots.calls": (t.calls("gridscan.scan_roots") / n, per_req),
        "gridscan.scan_roots.self_s": (t.self_s("gridscan.scan_roots") / n, "s/req"),
        "gridscan.fun_evals": (fun_evals / n, per_req),
        "gridscan.roots_found": (roots / n, per_req),
        "gridscan.evals_per_root": (fun_evals / roots if roots else 0.0, "ratio"),
        "poincare.find_all_cycles.calls": (t.calls("poincare.find_all_cycles") / n, per_req),
        "poincare.find_all_cycles.self_s": (t.self_s("poincare.find_all_cycles") / n, "s/req"),
        "poincare.displacement_d.calls": (t.calls("poincare.displacement_d") / n, per_req),
        "poincare.half_Q.calls": (t.calls("poincare.half_Q") / n, per_req),
        "melnikov.M_shift.calls": (m_shift / n, per_req),
        "melnikov.M_shift.us_per_call": (
            1e6 * t.total_s("melnikov.M_shift") / m_shift if m_shift else 0.0, "us"),
        "melnikov.count_simple_zeros.s": (t.total_s("melnikov.count_simple_zeros") / n, "s/req"),
        "melnikov.phi.calls": (t.calls("melnikov.phi") / n, per_req),
        "melnikov.zero_set.s": (t.total_s("melnikov.zero_set") / n, "s/req"),
        "crossings.lambda_of_x.calls": (t.calls("crossings.lambda_of_x") / n, per_req),
        "crossings.lambda_of_x.s": (t.total_s("crossings.lambda_of_x") / n, "s/req"),
        "crossings.lambda_of_x.disp_evals": (
            t.by_caller["poincare.displacement_d", "crossings.lambda_of_x"] / n, per_req),
        "crossings.extract_crossings.s": (t.total_s("crossings.extract_crossings") / n, "s/req"),
        "crossings.solve_crossing_system.s": (
            t.total_s("crossings.solve_crossing_system") / n, "s/req"),
        "crossings.residual_evals": (t.site_count("crossings._residual_direct_raw") / n, per_req),
        "cli.main.self_s": (t.self_s("cli.main") / n, "s/req"),
        "trace.requests": (n, "count"),
        "trace.request_s": (traced_s / n, "s/req"),
        "trace.overhead_s": ((traced_s - plain_s) / n, "s/req"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "ratio"),
        "trace.fail_frac": (failed / n, "ratio"),
    }


def report(i, req, timing, problems):
    status = "ok" if not problems else "FAIL: " + " | ".join(problems)
    print(f"request {i} {json.dumps(req)} {timing} {status}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    sc = load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        measure = traced if args.trace else untraced
        attempted, failed, metrics = measure(sc, wl, args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
