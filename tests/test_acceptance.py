"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from satcycles import (
    M_shift,
    Mx,
    Params,
    advance,
    classify_regime,
    displacement_d,
    extract_crossings,
    find_all_cycles,
    residual_direct,
)
from satcycles.cli import main
from satcycles.gridscan import _newton_bracket, scan_roots
import oracles
from oracles import read_csv

TWO_PI = 2.0 * math.pi


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_bifurcation_constants(capsys):
    code = main(["bifvalues", "--a", "-1", "--b", "1"])
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        key, _, val = line.partition("=")
        values[key.strip()] = float(val)
    ok = (
        code == 0
        and abs(values["c"] - math.pi / 2) <= 1e-7
        and abs(values["mu1"] - 1.5707963) <= 1e-7
        and abs(values["mu2"] - 1.4142136) <= 1e-7
        and abs(values["x1"] - 1.0) <= 1e-7
    )
    with capsys.disabled():
        report(1, ok, f"bifvalues reports {values}")


def test_criterion_02_melnikov_counts():
    from satcycles import count_simple_zeros

    p = Params(a=-1, b=1, mu=0)
    t0 = time.time()
    counts = [count_simple_zeros(mu, p) for mu in (1.0, 1.5, 2.0)]
    elapsed = time.time() - t0
    ok = counts == [3, 5, 1] and elapsed < 1.0
    report(2, ok, f"count_simple_zeros at mu=1.0/1.5/2.0 -> {counts} in {elapsed:.2f}s")


def _melnikov_predicted_initials(mu):
    p = Params(a=-1, b=1, mu=0)
    fun = lambda x: M_shift(x, mu, p)
    exact, brackets = scan_roots(fun, -3.0, 3.0, (-TWO_PI, TWO_PI))  # Mx in 2*pi*[a, b]
    refined = [_newton_bracket(lambda x: (fun(x), Mx(x, mu, p)), lo, hi, pos, 1e-12)
               for lo, hi, pos in brackets]
    zeros = sorted(exact + refined)
    return [z - mu for z in zeros]


def test_criterion_03_flow_counts_match_melnikov(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    t0 = time.time()
    code = main([
        "scan", "--a", "-1", "--b", "1", "--mu-min", "1.0", "--mu-max", "2.0",
        "--n", "3", "--eps-list", "0.05", "--out", str(out_path),
    ])
    elapsed = time.time() - t0
    capsys.readouterr()
    _, _, rows = read_csv(out_path)
    counts = [int(r[2]) for r in rows]
    worst_gap = 0.0
    for row in rows:
        mu = float(row[0])
        found = [float(v) for v in row[3].split(";")]
        predicted = _melnikov_predicted_initials(mu)
        if len(found) != len(predicted):
            worst_gap = math.inf
            continue
        for x0 in found:
            worst_gap = max(worst_gap, min(abs(x0 - z) for z in predicted))
    ok = code == 0 and counts == [3, 5, 1] and worst_gap <= 0.1 and elapsed < 30.0
    with capsys.disabled():
        report(3, ok, f"scan eps=0.05 counts {counts}, worst IC gap "
                      f"{worst_gap:.3f}, {elapsed:.1f}s")


def test_criterion_04_three_one_zonal_cycles():
    t0 = time.time()
    recs = find_all_cycles(Params(a=-1, b=1, mu=1.2))
    elapsed = time.time() - t0
    by_x0 = sorted(recs, key=lambda r: r.x0)
    xs = [r.x0 for r in by_x0]
    stab = [r.stability for r in by_x0]
    ok = (
        len(recs) == 3
        and xs == pytest.approx([-2.6, -0.6, 1.4], abs=1e-6)
        and stab == ["attracting", "repelling", "attracting"]
        and elapsed < 5.0
    )
    report(4, ok, f"cycles at mu=1.2: x0={[round(v, 8) for v in xs]} {stab}, {elapsed:.1f}s")


def test_criterion_05_regime_dichotomy():
    t0 = time.time()
    p_center = Params(a=0, b=0, mu=1)
    worst_center = max(
        abs(displacement_d(p_center, float(x))) for x in np.linspace(-4, 4, 100)
    )
    p_band = Params(a=2, b=0, mu=0.5)
    band_tag = classify_regime(p_band).tag
    worst_band = max(
        abs(displacement_d(p_band, float(x))) for x in np.linspace(-0.95, -0.05, 25)
    )
    recs = find_all_cycles(Params(a=-1, b=-2, mu=5))
    elapsed = time.time() - t0
    ok = (
        worst_center < 1e-10
        and band_tag == "center_no_cycles"
        and worst_band < 1e-10
        and len(recs) == 1
        and recs[0].stability == "attracting"
        and elapsed < 5.0
    )
    report(5, ok, f"|d|_center={worst_center:.1e}, band tag={band_tag} "
                  f"|d|_band={worst_band:.1e}, (-1,-2,5) -> {len(recs)} "
                  f"{recs[0].stability}, {elapsed:.1f}s")


def test_criterion_06_fold_and_pitchfork_signatures():
    p = Params(a=-1, b=1, mu=0)
    fold_m = abs(M_shift(1.0, math.pi / 2, p))
    fold_mx = abs(Mx(1.0, math.pi / 2, p))
    pitch_mx = abs(Mx(0.0, math.sqrt(2.0), p))
    ok = fold_m < 1e-9 and fold_mx < 1e-9 and pitch_mx < 1e-9
    report(6, ok, f"|M(1,pi/2)|={fold_m:.1e} |Mx(1,pi/2)|={fold_mx:.1e} "
                  f"|Mx(0,sqrt2)|={pitch_mx:.1e}")


def test_criterion_07_worked_closed_form_value():
    p = Params(a=-1, b=1, mu=0)
    closed = M_shift(1.0, 2.0, p)
    quad = oracles.melnikov_trapezoid(1.0, 2.0, p)
    ok = abs(closed - (TWO_PI - 8.0)) <= 1e-9 and abs(closed - quad) <= 1e-8
    report(7, ok, f"M(1,2)={closed!r} vs 2*pi-8={TWO_PI - 8.0!r}, quadrature gap "
                  f"{abs(closed - quad):.1e}")


def test_criterion_08_property_suites():
    from satcycles import consistency_identity, half_Q

    checks = {}
    checks["semigroup"] = ("< 1e-8", oracles.semigroup_worst(100), 1e-8)
    checks["rk4_oracle"] = ("< 1e-6", oracles.oracle_worst(100), 1e-6)
    p_mix = Params(a=-1, b=1, mu=1.5)
    checks["QQ=P"] = ("< 1e-8", oracles.qq_equals_p_worst(p_mix, 50), 1e-8)
    checks["Q_decreasing"] = (
        "0 violations",
        float(oracles.q_monotone_violations(p_mix, np.linspace(-5, 5, 200))),
        0.5,
    )
    checks["dP_vs_fd"] = ("rel < 1e-4", oracles.dp_fd_worst_rel(p_mix, 100), 1e-4)

    rng = np.random.default_rng(61)
    p_m = Params(a=-1, b=1, mu=0)
    sym_worst = 0.0
    for x, mu in rng.uniform(-4, 4, (300, 2)):
        sym_worst = max(sym_worst, abs(M_shift(-x, mu, p_m) + M_shift(x, mu, p_m)))
        sym_worst = max(sym_worst, abs(M_shift(x, -mu, p_m) - M_shift(x, mu, p_m)))
    checks["M_odd_even"] = ("< 1e-12", sym_worst, 1e-12)

    ident_worst = max(
        abs(consistency_identity(float(x), float(mu), p_m))
        for x, mu in rng.uniform(-4, 4, (1000, 2))
    )
    checks["identity"] = ("< 1e-9", ident_worst, 1e-9)

    p3 = Params(a=-0.05, b=0.05, mu=1.5)
    res_worst = 0.0
    extracted = 0
    for rec in find_all_cycles(p3):
        if rec.zonal_type != "three_zonal":
            continue
        cs = extract_crossings(p3, rec.x0)
        assert cs is not None
        extracted += 1
        res_worst = max(res_worst, float(np.max(np.abs(residual_direct(p3, cs)))))
    assert extracted >= 1
    checks["three_zonal_residual"] = ("< 1e-8", res_worst, 1e-8)

    ok = all(value <= gate for _, value, gate in checks.values())
    detail = ", ".join(f"{name}={value:.2e}" for name, (_, value, _) in checks.items())
    report(8, ok, detail)


def test_criterion_09_zero_set_geometry():
    from satcycles import phi_branch

    p = Params(a=-1, b=1, mu=0)
    t0 = time.time()
    branch = phi_branch(p, 400)
    elapsed = time.time() - t0
    xs = [x for x, _ in branch.samples]
    mus = [m for _, m in branch.samples]
    k = max(range(len(mus)), key=mus.__getitem__)
    resolution = 2.0 / 399
    unimodal = all(m1 >= m0 - 1e-12 for m0, m1 in zip(mus[:k], mus[1:k + 1])) and all(
        m1 <= m0 + 1e-12 for m0, m1 in zip(mus[k:], mus[k + 1:])
    )
    ok = (
        unimodal
        and abs(xs[k] - 1.0) <= resolution + 1e-12
        and abs(mus[k] - math.pi / 2) <= 1e-4
        and abs(mus[0] - math.sqrt(2.0)) <= 1e-6
        and abs(mus[-1] - 1.0) <= 1e-6
        and elapsed < 10.0
    )
    report(9, ok, f"phi peak at ({xs[k]:.4f}, {mus[k]:.6f}), endpoints "
                  f"({mus[0]:.7f}, {mus[-1]:.7f}), {elapsed:.1f}s")


def test_criterion_10_cylinder_invariance(tmp_path, capsys):
    out_path = tmp_path / "orbit.csv"
    code = main(["orbit3d", "--a", "-1", "--b", "1", "--mu", "1.2",
                 "--x0", "1.4", "--samples", "512", "--out", str(out_path)])
    capsys.readouterr()
    _, _, rows = read_csv(out_path)
    worst = max(
        abs(float(r[2]) ** 2 + float(r[3]) ** 2 - 1.2**2) for r in rows
    )
    ok = code == 0 and worst <= 1e-12
    with capsys.disabled():
        report(10, ok, f"max |y^2+z^2-mu^2| = {worst:.2e} over {len(rows)} rows")
