"""Command-line driver: regime reports, cycle tables, mu sweeps, pointwise
averaging-function evaluation, zero-set and 3D-orbit export, and
crossing-system checks.

CSV files carry '#'-prefixed key=value metadata lines before the header so
they are both plot-tool friendly and self-documenting; rows are emitted in
a deterministic sorted order so runs diff cleanly.

Exit codes: 0 success, 2 refusal (analytic regime or invalid input),
3 numeric non-convergence or failed consistency check, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    BadRegimeError,
    CenterRegimeError,
    InvariantViolatedError,
    SatcyclesError,
    UsageError,
)
from .exactflow import TWO_PI, advance, sample
from .crossings import extract_crossings, residual_3z, residual_direct
from .melnikov import M_orig, M_shift, Mmu, Mx, bif_values, consistency_identity, zero_set
from .model import Params
from .poincare import classify_regime, displacement_d, find_all_cycles

__all__ = ["main", "ScanRow", "write_csv"]

_REFUSAL = (CenterRegimeError, BadRegimeError, UsageError)

_DEFAULTS = {
    "a": None,
    "b": None,
    "mu": 0.0,
    "eps": 1.0,
    "lam": 0.0,
    "out": None,
    "tol_residual": 1e-10,
    "grid": 4096,
}


@dataclass(frozen=True)
class ScanRow:
    """One sweep cell: cycle count plus initial conditions and multipliers."""

    mu: float
    eps: float
    cycle_count: int
    cycle_initials: tuple
    multipliers: tuple


def fmt(v: float) -> str:
    # shortest representation that parses back to the exact double
    return repr(float(v))


def write_csv(path, meta, header, rows):
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _params(args) -> Params:
    if args.a is None or args.b is None:
        raise UsageError("--a and --b are required (flags or --config)")
    try:
        return Params(a=args.a, b=args.b, mu=args.mu, eps=args.eps, lam=args.lam)
    except ValueError as exc:  # a non-finite value, such as nan
        raise UsageError(str(exc)) from None


def _three_cycle_bound(p: Params) -> float:
    return min(-p.b_eff * math.sqrt(p.a_eff**2 + 1.0) / p.a_eff,
               math.sqrt(p.b_eff**2 + 1.0))


def _print_bif_values(p: Params) -> int:
    bv = bif_values(p)
    for name in ("c", "mu1", "mu2", "x1"):
        print(f"{name} = {fmt(getattr(bv, name))}")
    return 0


def cmd_regime(args) -> int:
    p = _params(args)
    regime = classify_regime(p)
    print(f"regime: {regime.tag}")
    print(f"detail: {regime.detail}")
    if p.a_eff * p.b_eff < 0.0:
        print(f"three_cycle_bound = {fmt(_three_cycle_bound(p))}")
        _print_bif_values(p)
    return 0


def _cycles_rows(records):
    return [
        [fmt(r.x0), r.zonal_type, fmt(r.multiplier), r.stability, str(r.symmetric).lower()]
        for r in records
    ]


def cmd_cycles(args) -> int:
    p = _params(args)
    records = find_all_cycles(p, grid=args.grid)
    header = ["x0", "zonal_type", "multiplier", "stability", "symmetric"]
    rows = _cycles_rows(records)
    print(f"{len(records)} limit cycle(s) for a={fmt(p.a)} b={fmt(p.b)} "
          f"mu={fmt(p.mu)} eps={fmt(p.eps)} lambda={fmt(p.lam)}")
    print("  ".join(header))
    for row in rows:
        print("  ".join(row))
    if args.out:
        meta = _meta("cycles", p, args)
        write_csv(args.out, meta, header, rows)
    return 0


def _meta(command, p, args, **extra):
    meta = {
        "tool": f"satcycles {__version__}",
        "command": command,
        "a": fmt(p.a),
        "b": fmt(p.b),
        "mu": fmt(p.mu),
        "eps": fmt(p.eps),
        "lambda": fmt(p.lam),
        "tol_residual": fmt(args.tol_residual),
        "grid": str(args.grid),
    }
    meta.update({k: str(v) for k, v in extra.items()})
    return meta


def _scan_cell(task):
    a, b, mu, eps, lam, grid = task
    p = Params(a=a, b=b, mu=mu, eps=eps, lam=lam)
    records = find_all_cycles(p, grid=grid)
    return ScanRow(
        mu=mu,
        eps=eps,
        cycle_count=len(records),
        cycle_initials=tuple(r.x0 for r in records),
        multipliers=tuple(r.multiplier for r in records),
    )


def cmd_scan(args) -> int:
    p = _params(args)
    try:
        eps_list = [float(v) for v in args.eps_list.split(",")] if args.eps_list else [p.eps]
        if not all(map(math.isfinite, eps_list)):
            raise ValueError
    except ValueError:
        raise UsageError(f"--eps-list {args.eps_list!r} is not a list of finite numbers") from None
    mus = np.linspace(args.mu_min, args.mu_max, args.n)
    tasks = [
        (p.a, p.b, float(mu), eps, p.lam, args.grid)
        for eps in sorted(eps_list)
        for mu in mus
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            cells = list(pool.map(_scan_cell, tasks))
    else:
        cells = [_scan_cell(t) for t in tasks]
    cells.sort(key=lambda r: (r.eps, r.mu))

    header = ["mu", "eps", "count", "x0s", "multipliers"]
    rows = [
        [fmt(c.mu), fmt(c.eps), str(c.cycle_count),
         ";".join(fmt(v) for v in c.cycle_initials),
         ";".join(fmt(v) for v in c.multipliers)]
        for c in cells
    ]
    for prev, cur in zip(cells, cells[1:]):
        if prev.eps == cur.eps and prev.cycle_count != cur.cycle_count:
            print(
                f"transition eps={fmt(cur.eps)}: count {prev.cycle_count} -> "
                f"{cur.cycle_count} between mu={fmt(prev.mu)} and mu={fmt(cur.mu)}"
            )
    if args.out:
        meta = _meta("scan", p, args, mu_min=fmt(args.mu_min), mu_max=fmt(args.mu_max),
                     n=args.n, eps_list=",".join(fmt(e) for e in sorted(eps_list)))
        write_csv(args.out, meta, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    return 0


def cmd_melnikov(args) -> int:
    p = _params(args)
    x, mu = args.x, p.mu
    print(f"M_shift = {fmt(M_shift(x, mu, p))}")
    print(f"M_orig = {fmt(M_orig(x, mu, p))}")
    print(f"Mx = {fmt(Mx(x, mu, p))}")
    print(f"Mmu = {fmt(Mmu(x, mu, p))}")
    print(f"identity_residual = {fmt(consistency_identity(x, mu, p))}")
    return 0


def _require_out(args):
    if not args.out:
        raise UsageError(f"{args.command} requires --out")


def cmd_zeroset(args) -> int:
    p = _params(args)
    _require_out(args)
    polylines = zero_set(p, n_samples=args.samples)
    header = ["branch", "x", "mu"]
    rows = [
        [branch, fmt(x), fmt(mu)]
        for branch, points in polylines
        for x, mu in points
    ]
    meta = _meta("zeroset", p, args, samples=args.samples)
    write_csv(args.out, meta, header, rows)
    print(f"wrote {len(rows)} zero-set points to {args.out}")
    return 0


def cmd_orbit3d(args) -> int:
    p = _params(args)
    _require_out(args)
    x0 = args.x0
    d0 = displacement_d(p, x0)
    if abs(d0) >= 1e-6:
        print(f"warning: x0={fmt(x0)} is not a cycle (|d(x0)|={fmt(abs(d0))})",
              file=sys.stderr)
    traj = advance(p, 0.0, x0, TWO_PI)
    ts = np.linspace(0.0, TWO_PI, args.samples)
    xs = sample(p, traj, ts)
    header = ["t", "x", "y", "z"]
    rows = []
    for t, x in zip(ts, xs):
        y = -p.mu * math.sin(t)
        z = -p.mu * math.cos(t)
        # y^2 + z^2 rounds to about one ulp of mu^2.
        if abs(y * y + z * z - p.mu * p.mu) > 1e-12 * max(1.0, p.mu * p.mu):
            raise InvariantViolatedError("cylinder invariant y^2 + z^2 = mu^2 violated")
        rows.append([fmt(t), fmt(x), fmt(y), fmt(z)])
    meta = _meta("orbit3d", p, args, x0=fmt(x0), samples=args.samples)
    write_csv(args.out, meta, header, rows)
    print(f"wrote {len(rows)} orbit points to {args.out}")
    return 0


def cmd_crossings(args) -> int:
    p = _params(args)
    records = find_all_cycles(p, grid=args.grid)
    three_zonal = [r for r in records if r.zonal_type == "three_zonal"]
    if not three_zonal:
        print("no three-zonal cycles")
        return 0
    print("x0  |direct residual|_inf  |rearranged residual|_inf")
    for rec in three_zonal:
        cs = extract_crossings(p, rec.x0)
        if cs is None:
            print(f"{fmt(rec.x0)}  (crossing pattern not extractable)")
            continue
        rd = float(np.max(np.abs(residual_direct(p, cs))))
        r3 = float(np.max(np.abs(residual_3z(p, cs))))
        note = "" if rd <= args.tol_residual else "  (above --tol-residual)"
        print(f"{fmt(rec.x0)}  {fmt(rd)}  {fmt(r3)}{note}")
        print(f"  times: t1={fmt(cs.t1)} t2={fmt(cs.t2)} t3={fmt(cs.t3)} t4={fmt(cs.t4)}")
    return 0


def _load_config(path):
    """Typed values of a key = value file.  A key is a common flag, spelled
    as on the command line (``tol-residual``, ``lambda``) or as its attribute
    (``tol_residual``, ``lam``)."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            key = "lam" if key == "lambda" else key
            if key not in _DEFAULTS:
                raise UsageError(f"unknown key {key!r} in config file {path}")
            cast = int if key == "grid" else (str if key == "out" else float)
            try:
                values[key] = cast(raw.strip())
            except ValueError:
                raise UsageError(f"bad value {raw.strip()!r} for {key} in config file "
                                 f"{path}") from None
    return values


def _finalize_args(args):
    """Fill unset flags from --config, then from the builtin defaults."""
    config = _load_config(args.config) if args.config else {}
    for key, default in _DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, default))
    for key in ("grid", "n", "samples"):
        if getattr(args, key, 2) < 2:
            raise UsageError(f"--{key} must be >= 2")
    for key in ("x", "x0", "mu_min", "mu_max"):
        if not math.isfinite(getattr(args, key, 0.0)):
            raise UsageError(f"--{key.replace('_', '-')} must be finite")
    return args


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=float, help="outer-zone slope")
    common.add_argument("--b", type=float, help="inner-zone slope")
    common.add_argument("--mu", type=float, help="forcing amplitude (default 0)")
    common.add_argument("--eps", type=float, help="field scale (default 1)")
    common.add_argument("--lambda", dest="lam", type=float, help="constant bias (default 0)")
    common.add_argument("--out", help="output CSV path")
    common.add_argument("--tol-residual", dest="tol_residual", type=float,
                        help="residual tolerance for reports (default 1e-10)")
    common.add_argument("--grid", type=int, help="scan grid size (default 4096)")
    common.add_argument("--config", help="key=value config file for any flag")

    parser = argparse.ArgumentParser(
        prog="satcycles",
        description="Limit cycles of x' = a*x + (b-a)*sat(x) + mu*sin(t)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("regime", parents=[common],
                   help="regime tag, three-cycle bound, bifurcation constants")
    sub.add_parser("bifvalues", parents=[common],
                   help="closed-form bifurcation constants c, mu1, mu2, x1")
    sub.add_parser("cycles", parents=[common], help="table of all limit cycles")

    scan = sub.add_parser("scan", parents=[common], help="cycle counts over a mu sweep")
    scan.add_argument("--mu-min", dest="mu_min", type=float, required=True)
    scan.add_argument("--mu-max", dest="mu_max", type=float, required=True)
    scan.add_argument("--n", type=int, required=True, help="number of mu samples (>= 2)")
    scan.add_argument("--eps-list", dest="eps_list",
                      help="comma-separated eps values (default: --eps)")
    scan.add_argument("--workers", type=int, default=1, help="parallel workers")

    mel = sub.add_parser("melnikov", parents=[common],
                         help="pointwise M, Mx, Mmu evaluation")
    mel.add_argument("--x", type=float, required=True)

    zs = sub.add_parser("zeroset", parents=[common],
                        help="export the averaging-function zero set")
    zs.add_argument("--samples", type=int, default=400, help="branch samples (>= 2)")

    orb = sub.add_parser("orbit3d", parents=[common],
                         help="export a cycle on its invariant cylinder")
    orb.add_argument("--x0", type=float, required=True)
    orb.add_argument("--samples", type=int, default=256, help="orbit samples (>= 2)")

    sub.add_parser("crossings", parents=[common],
                   help="three-zonal crossing-time residual report")
    return parser


_COMMANDS = {
    "regime": cmd_regime,
    "bifvalues": lambda args: _print_bif_values(_params(args)),
    "cycles": cmd_cycles,
    "scan": cmd_scan,
    "melnikov": cmd_melnikov,
    "zeroset": cmd_zeroset,
    "orbit3d": cmd_orbit3d,
    "crossings": cmd_crossings,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _finalize_args(args)
        return _COMMANDS[args.command](args)
    except _REFUSAL as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SatcyclesError as exc:  # every other package error is numeric
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
