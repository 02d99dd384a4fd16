"""The benchmark's three workloads: seeded requests, how each request runs
through satcycles, and the checks the benchmark owns for its answers.

Every function that touches the package takes it as the argument ``sc`` and
looks names up on it (or its submodules) at call time, so the tracer's
patched bindings are the ones called.  This module imports nothing from the
package at import time; ``run.py`` times a fresh ``import satcycles`` as part
of set-up.

Parameters along a run are drawn as randomly shifted low-discrepancy
sequences: request i uses ``frac(u + i*g)`` with ``u`` drawn from the seed and
``g`` irrational.  Each draw is uniform on its range, and a run's draws cover
the range evenly, so the medians of a short run vary little between seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

TWO_PI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Steps of the two-dimensional R2 sequence (powers of 1/1.3247..., the plastic number).
R2 = (0.7548776662466927, 0.5698402909980532)


def _spread(u: float, i: int, step: float) -> float:
    return (u + i * step) % 1.0


def _cli(sc, argv):
    """One in-process ``satcycles`` command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sc.cli.main(argv)
        except SystemExit as exc:  # argparse and missing-flag refusals
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _read_table(text: str):
    """Parse the package's CSV layout: '# key=value' lines, a header, rows."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _flags(req):
    return [arg for key in ("a", "b", "mu", "eps") if key in req
            for arg in (f"--{key}", repr(req[key]))]


# --- cycles_mixed -----------------------------------------------------------

def cycles_request(seed: int, i: int) -> dict:
    base = random.Random(f"cycles_mixed:{seed}")
    u, k = base.random(), base.randrange(2)
    return {"a": -1.0, "b": 1.0, "mu": 0.6 + 1.8 * _spread(u, i, GOLDEN),
            "eps": (1.0, 0.05)[(i + k) % 2], "lam": 0.0}


def cycles_run(sc, req, work: Path):
    path = work / "cycles.csv"
    code, printed, err = _cli(sc, ["cycles", *_flags(req), "--lambda", repr(req["lam"]),
                                   "--out", str(path)])
    csv = path.read_text(encoding="utf-8") if code == 0 else ""
    return code, printed, err, csv


def cycles_check(sc, req, out) -> list[str]:
    code, printed, err, csv = out
    if code != 0:
        return [f"exit code {code}: {err.strip()}"]
    problems = []
    lines = printed.splitlines()
    header = lines[1].split("  ")
    body = [line.split("  ") for line in lines[2:]]
    if int(lines[0].split()[0]) != len(body):
        problems.append(f"title {lines[0]!r} disagrees with {len(body)} table rows")
    meta, csv_header, csv_rows = _read_table(csv)
    if csv_header != header or csv_rows != body:
        problems.append("CSV read back differs from the printed table")
    for key, meta_key in (("a", "a"), ("b", "b"), ("mu", "mu"), ("eps", "eps"), ("lam", "lambda")):
        if meta.get(meta_key) != repr(req[key]):
            problems.append(f"CSV metadata {meta_key}={meta.get(meta_key)!r}, expected {req[key]!r}")
    found = [(float(row[0]), row[1]) for row in body]
    p = sc.Params(**req)
    for rec in sc.analytic_one_zone_cycles(p):
        if not any(abs(x0 - rec.x0) <= 1e-9 and kind == rec.zonal_type for x0, kind in found):
            problems.append(f"analytic {rec.zonal_type} cycle x0={rec.x0!r} not found")
    if req["lam"] == 0.0:
        n_sym = sum(row[4] == "true" for row in body)
        if n_sym != 1:
            problems.append(f"{n_sym} symmetric cycles, expected exactly 1")
    for x0, _ in found:
        gap = oracle.closure_gap(req["a"], req["b"], req["mu"], req["eps"], req["lam"], x0)
        if not gap <= 1e-9:
            problems.append(f"x0={x0!r} does not close: |x(2pi) - x0| = {gap:.3e}")
    return problems


# --- melnikov_diagram -------------------------------------------------------

def _bif(a: float, b: float):
    """(mu2, mu1) from c = pi*b/(b - a), mu1 = c/sin c, mu2 = 1/cos(c/2)."""
    c = math.pi * b / (b - a)
    return 1.0 / math.cos(0.5 * c), c / math.sin(c)


def melnikov_request(seed: int, i: int) -> dict:
    base = random.Random(f"melnikov_diagram:{seed}")
    u = [base.random() for _ in range(5)]
    flip = base.randrange(2)
    s_a = 0.2 + 2.8 * _spread(u[0], i, R2[0])
    s_b = 0.2 + 2.8 * _spread(u[1], i, R2[1])
    a, b = (-s_a, s_b) if (i + flip) % 2 == 0 else (s_a, -s_b)
    mu2, mu1 = _bif(a, b)
    # One mu inside each band (0, mu2), (mu2, mu1) and (mu1, 2*mu1).
    f = [_spread(u[2 + k], i, GOLDEN) for k in range(3)]
    mus = [mu2 * f[0], mu2 + (mu1 - mu2) * f[1], mu1 * (1.0 + f[2])]
    return {"a": a, "b": b, "mus": mus}


def melnikov_run(sc, req, work: Path):
    p = sc.Params(a=req["a"], b=req["b"], mu=0.0)
    counts = [sc.count_simple_zeros(mu, p) for mu in req["mus"]]
    path = work / "zeroset.csv"
    code, printed, err = _cli(sc, ["zeroset", *_flags(req), "--samples", "400",
                                   "--out", str(path)])
    csv = path.read_text(encoding="utf-8") if code == 0 else ""
    return counts, code, printed, err, csv


def melnikov_check(sc, req, out) -> list[str]:
    counts, code, printed, err, csv = out
    problems = []
    if counts != [3, 5, 1]:
        problems.append(f"simple-zero counts {counts} by band, expected [3, 5, 1]")
    if code != 0:
        return problems + [f"zeroset exit code {code}: {err.strip()}"]
    a, b = req["a"], req["b"]
    meta, header, rows = _read_table(csv)
    if header != ["branch", "x", "mu"] or meta.get("a") != repr(a) or meta.get("b") != repr(b):
        problems.append(f"zeroset CSV header {header} or metadata {meta} is wrong")
    if not printed.startswith(f"wrote {len(rows)} zero-set points to "):
        problems.append(f"zeroset printed {printed.strip()!r} for {len(rows)} rows")
    branch = [(float(r[1]), float(r[2])) for r in rows if r[0] == "branch_pp"]
    if len(branch) != 400:
        return problems + [f"branch_pp has {len(branch)} samples, expected 400"]
    mu2, _ = _bif(a, b)
    width = 1.0 - b / a
    (x_first, phi_first), (x_last, phi_last) = branch[0], branch[-1]
    if x_first != 0.0 or not math.isclose(phi_first, mu2, rel_tol=1e-12):
        problems.append(f"phi(0)={phi_first!r} at x={x_first!r}, expected mu2={mu2!r}")
    if not math.isclose(x_last, width, rel_tol=1e-12) or not math.isclose(
            phi_last, -b / a, rel_tol=1e-12):
        problems.append(f"phi({x_last!r})={phi_last!r}, expected phi({width!r})={-b / a!r}")
    for x, mu in branch[100:400:100]:
        m, scale = oracle.averaged_field(a, b, x, mu)
        if not abs(m) <= 1e-6 * scale:
            problems.append(f"averaging integral at branch point ({x!r}, {mu!r}) is {m:.3e}")
    return problems


# --- fold_scan --------------------------------------------------------------

FOLD_POINTS = 12
FOLD_KICK = 1e-3


def fold_request(seed: int, i: int) -> dict:
    base = random.Random(f"fold_scan:{seed}")
    u_s, u_mu = base.random(), base.random()
    s = 0.02 + 0.08 * _spread(u_s, i, R2[0])
    # Above mu ~ 1 the symmetric cycle of the small-slope equation is three-zonal.
    mu = 1.1 + 1.3 * _spread(u_mu, i, R2[1])
    r = random.Random(f"fold_scan:{seed}:{i}")
    lo = -mu - 1.6 + r.uniform(-0.1, 0.1)
    hi = -mu + 1.6 + r.uniform(-0.1, 0.1)
    xs = [lo + (hi - lo) * k / (FOLD_POINTS - 1) for k in range(FOLD_POINTS)]
    kicks = [[r.uniform(-FOLD_KICK, FOLD_KICK) for _ in range(4)] for _ in xs]
    return {"a": -s, "b": s, "mu": mu, "xs": xs, "kicks": kicks}


def fold_run(sc, req, work: Path):
    p = sc.Params(a=req["a"], b=req["b"], mu=req["mu"])
    lams = [sc.lambda_of_x(p, x) for x in req["xs"]]
    folds = [k for k in range(1, len(lams) - 1)
             if (lams[k] - lams[k - 1]) * (lams[k + 1] - lams[k]) < 0.0]
    points = []
    for x, lam, kick in zip(req["xs"], lams, req["kicks"]):
        q = dataclasses.replace(p, lam=lam)
        traj = sc.advance(q, 0.0, x, TWO_PI)
        if len({seg.zone for seg in traj.segments}) < 3:
            points.append(None)
            continue
        cs = sc.extract_crossings(q, x)
        if cs is None:
            points.append((None, None))
            continue
        kicked = [t + dt for t, dt in zip(cs.as_array().tolist(), kick)]
        shift = TWO_PI * math.floor(kicked[0] / TWO_PI)
        guess = sc.CrossingSequence(*(t - shift for t in kicked), lam=lam)
        sol = sc.solve_crossing_system(q, guess)
        points.append((cs.as_array().tolist(), sol.as_array().tolist()))
    return lams, folds, points


def fold_check(sc, req, out) -> list[str]:
    lams, _, points = out
    problems = []
    p = sc.Params(a=req["a"], b=req["b"], mu=req["mu"])
    for x, lam, point in zip(req["xs"], lams, points):
        q = dataclasses.replace(p, lam=lam)
        d = sc.displacement_d(q, x)
        if not abs(d) <= 1e-10:
            problems.append(f"|d(x={x!r}; lam={lam!r})| = {abs(d):.3e} > 1e-10")
        gap = oracle.closure_gap(p.a, p.b, p.mu, p.eps, lam, x)
        if not gap <= 1e-9:
            problems.append(f"x={x!r} with lam={lam!r} does not close: gap {gap:.3e}")
        if point is None:
            continue
        times, solved = point
        if times is None:
            problems.append(f"three-zonal cycle at x={x!r} has no extractable crossings")
            continue
        # lam is solved only to |d| <= 1e-10 and small slopes make the cycle
        # weakly hyperbolic, so the two sequences may differ by ~1e-7 while
        # both meet the residual target.  Near a fold of lam(x) the same lam
        # has a second cycle close by, and the kicked guess may converge to
        # it; that answer is right when the cycle through (t1, 1) closes.
        # Both sequences start in [0, 2*pi); compare the times modulo 2*pi.
        if max(abs(math.remainder(s - t, TWO_PI)) for s, t in zip(solved, times)) > 1e-6:
            gap = oracle.closure_gap(p.a, p.b, p.mu, p.eps, lam, 1.0, t0=solved[0])
            if not gap <= 1e-9:
                problems.append(f"Newton times {solved} differ from extracted {times} "
                                f"at x={x!r} and do not close (gap {gap:.3e})")
        extracted = sc.CrossingSequence(*times, lam=lam)
        newton = sc.CrossingSequence(*solved, lam=lam)
        r_extracted = max(abs(v) for v in sc.residual_direct(q, extracted))
        r_direct = max(abs(v) for v in sc.residual_direct(q, newton))
        r_3z = max(abs(v) for v in sc.residual_3z(q, newton))
        if not (r_extracted <= 1e-8 and r_direct <= 1e-10 and r_3z <= 1e-9):
            problems.append(f"residuals at x={x!r}: extracted {r_extracted:.3e}, "
                            f"Newton {r_direct:.3e}, rearranged {r_3z:.3e}")
    return problems


@dataclass(frozen=True)
class Workload:
    request: Callable[[int, int], dict]
    run: Callable
    check: Callable
    # Fixed request for set-up, so setup_s does not depend on the seed.
    warmup: dict
    # Rough seconds one untraced plus one traced request take; sizes the
    # fixed request count of a traced run.
    pair_s: float


WORKLOADS = {
    "cycles_mixed": Workload(
        cycles_request, cycles_run, cycles_check,
        {"a": -1.0, "b": 1.0, "mu": 1.2, "eps": 1.0, "lam": 0.0}, 4.0),
    "melnikov_diagram": Workload(
        melnikov_request, melnikov_run, melnikov_check,
        {"a": -1.0, "b": 1.0, "mus": [1.0, 1.5, 2.0]}, 0.5),
    "fold_scan": Workload(
        fold_request, fold_run, fold_check,
        fold_request(0, 0), 1.0),
}
