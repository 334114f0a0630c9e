"""Command-line front end: rate sweeps, landmarks, finite-blocklength
bounds, seeded simulations and a fast self-validation suite.

Output is deterministic: CSV uses 12 significant digits with LF endings,
JSON is emitted with sorted keys. All values equal the underlying library
calls exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__, binary, finite, simulate, spherical
from .numerics import LN2, ConvergenceError, binary_entropy

# Each channel's curve bounds, in output order, grouped by the call that
# computes them. The binary bounds take and return bits, the spherical nats.
# The calls look their function up when they run, so a patched one is used.
_CURVE_BOUNDS = {
    "bsc": (
        (("gallager",), lambda r, ch, tau: (binary.gallager_exponent(r, ch),)),
        (("bz_e", "bz_x"), lambda r, ch, tau: binary.bz_bounds(r, ch, tau)),
        (("m_plus", "m_minus"), lambda r, ch, tau: binary.tradeoff_bounds(r, ch, tau)),
    ),
    "awgn": (
        (("shannon",), lambda r, ch, tau: (spherical.shannon_exponent(r, ch),)),
        (("m_error",), lambda r, ch, tau: (spherical.tradeoff_exponent(r, ch, tau, "error"),)),
        (("m_erasure",), lambda r, ch, tau: (spherical.tradeoff_exponent(r, ch, tau, "erasure"),)),
    ),
}
_NATIVE_UNITS = {"bsc": "bits", "awgn": "nats"}
# ``validate`` prints a defect below this as "<1e-14": below it a defect is
# rounding noise, and its digits would pin the summation order of a check.
_DEFECT_FLOOR = 1e-14

# Simulate parameters: (conversion, default). A flag beats the config file,
# and the config file beats the default. A config "n" may be one number.
_SIM_PARAMS = {
    "kind": (str, None),
    "seed": (int, None),
    "trials": (int, 100000),
    "workers": (int, 1),
    "n": (lambda ns: [int(n) for n in (ns if isinstance(ns, list) else [ns])], None),
    "k": (int, None),
    "M": (int, None),
    "p": (float, None),
    "snr": (float, None),
    "tau": (float, 0.0),
    "t": (int, 0),
    "phi": (float, None),
    "code_seed": (int, 0),
}
# The parameters each simulation kind cannot do without; bsc and awgn take one n.
_SIM_NEEDS = {
    "bsc": (("n", "k", "p"), "bsc simulation needs exactly one --n, --k and --p"),
    "awgn": (("n", "snr", "M"), "awgn simulation needs exactly one --n, --snr and --M"),
    "cone": (("n", "snr", "phi"), "cone simulation needs --n (one or more), --snr and --phi"),
}


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _make_channel(args):
    if args.channel == "bsc":
        if args.p is None:
            raise UsageError("--p is required for --channel bsc")
        return binary.BscChannel(args.p)
    if args.snr is None:
        raise UsageError("--snr is required for --channel awgn")
    return spherical.AwgnChannel(args.snr)


def _curve_rows(args, ch) -> list[tuple[float, str, float, str, bool]]:
    groups = _CURVE_BOUNDS[args.channel]
    allowed = [b for names, _ in groups for b in names]
    names = args.bounds.split(",") if args.bounds else allowed
    for b in names:
        if not any(b in group for gs in _CURVE_BOUNDS.values() for group, _ in gs):
            raise UsageError(f"unknown bound name: {b}")
        if b not in allowed:
            raise UsageError(f"bound {b} is not defined for channel {args.channel}")

    # Convert the user grid into the channel's native units, and values back.
    in_scale = 1.0
    if args.units != _NATIVE_UNITS[args.channel]:
        in_scale = LN2 if args.units == "bits" else 1.0 / LN2
    out_scale = 1.0 / in_scale

    rows = []
    for r_user in np.linspace(args.rmin, args.rmax, args.steps):
        r = float(r_user) * in_scale
        for group, call in groups:
            if any(b in names for b in group):
                for b, v in zip(group, call(r, ch, args.tau)):
                    if b in names:
                        rows.append((float(r_user), b, v.value * out_scale, v.regime, v.valid))
    return rows


def _rows_to_csv(rows) -> str:
    lines = [f"# eebounds {__version__}", "R,bound,value,regime,valid"]
    for r, b, v, regime, valid in rows:
        lines.append(f"{_fmt(r)},{b},{_fmt(v)},{regime},{'true' if valid else 'false'}")
    return "\n".join(lines) + "\n"


def _rows_to_svg(rows, title: str) -> str:
    """Minimal static SVG: one polyline per bound over the valid points."""
    width, height, margin = 640, 440, 56
    by_bound: dict[str, list[tuple[float, float]]] = {}
    for r, b, v, _, valid in rows:
        if valid and math.isfinite(v):
            by_bound.setdefault(b, []).append((r, v))
    pts = [p for ps in by_bound.values() for p in ps]
    if not pts:
        raise UsageError("no valid points to plot")
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for i, (b, ps) in enumerate(sorted(by_bound.items())):
        color = palette[i % len(palette)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in ps)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i + 10}" '
            f'font-size="11" fill="{color}">{b}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_curve(args) -> int:
    ch = _make_channel(args)
    rows = _curve_rows(args, ch)
    if args.format == "csv":
        _emit(_rows_to_csv(rows), args.out)
    elif args.format == "json":
        obj = {
            "version": __version__,
            "rows": [
                {"R": r, "bound": b, "value": v, "regime": g, "valid": ok}
                for r, b, v, g, ok in rows
            ],
        }
        _emit(_json_dump(obj), args.out)
    else:
        title = f"{args.channel} tau={args.tau:g}"
        _emit(_rows_to_svg(rows, title), args.out)
    return 0


def cmd_landmarks(args) -> int:
    ch = _make_channel(args)
    head = {"version": __version__, "channel": args.channel, "tau": args.tau}
    if args.channel == "bsc":
        lm = binary.landmarks(ch, args.tau)
        obj = {**head, "p": ch.p, **dataclasses.asdict(lm), "residuals": {}}
    else:
        try:
            lm = spherical.spherical_landmarks(args.tau, ch)
        except (ValueError, ConvergenceError) as exc:  # structured root-finding failure
            _emit(_json_dump({**head, "error": str(exc), "snr": ch.A}), args.out)
            return 1
        obj = {**head, "snr": ch.A, **dataclasses.asdict(lm)}
    _emit(_json_dump(obj), args.out)
    return 0


def cmd_finite_bound(args) -> int:
    ch = _make_channel(args)
    if args.channel == "bsc":
        rate = args.rate if args.units == "bits" else args.rate / LN2
        wd = finite.WeightDistribution.gv_ensemble(args.n, rate)
        lb = finite.binary_union_bound(wd, ch.p, finite.MarginParams(t=args.t), args.mode)
        obj = {
            "version": __version__,
            "channel": "bsc",
            "n": args.n,
            "rate_bits": rate,
            "p": ch.p,
            "t": args.t,
            "mode": args.mode,
            "log2_bound": lb,
            "exponent_bits": -lb / args.n,
        }
    else:
        rate = args.rate if args.units == "nats" else args.rate * LN2
        wd = finite.WeightDistribution.binomial_spherical(args.n, rate)
        # The erasure kind negates the margin, as in tradeoff_exponent.
        t = args.tau if args.mode == "error" else -args.tau
        rho = args.rho if args.rho is not None else spherical.decoding_radius(rate, t, ch)
        lb = finite.awgn_union_bound(wd, ch, t, rho)
        obj = {
            "version": __version__,
            "channel": "awgn",
            "n": args.n,
            "rate_nats": rate,
            "snr": ch.A,
            "tau": args.tau,
            "mode": args.mode,
            "rho": rho,
            "ln_bound": lb,
            "exponent_nats": -lb / args.n,
        }
    _emit(_json_dump(obj), args.out)
    return 0


def _tally_fields(tally: simulate.TrialTally) -> dict:
    """The "counts" and "rates" objects of a bsc or awgn simulation."""
    classes = ("correct", "undetected", "erasure")
    return {
        "counts": {c: getattr(tally, c) for c in classes},
        "rates": {c: {"rate": tally.rate(c), "wilson95": list(tally.wilson(c))} for c in classes},
    }


def cmd_simulate(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    v = {}
    for name, (convert, default) in _SIM_PARAMS.items():
        flag = getattr(args, name)
        value = flag if flag is not None else cfg.get(name, default)
        v[name] = None if value is None else convert(value)
    kind, trials, seed, workers = v["kind"], v["trials"], v["seed"], v["workers"]
    if seed is None:
        raise UsageError("a seed is required for simulation (use --seed)")
    if kind is None:
        raise UsageError("simulation kind is required (use --kind bsc|awgn|cone)")
    if kind not in _SIM_NEEDS:
        raise UsageError(f"unknown simulation kind: {kind}")
    needed, usage = _SIM_NEEDS[kind]
    if any(v[name] is None for name in needed) or (kind != "cone" and len(v["n"]) != 1):
        raise UsageError(usage)

    obj = {"version": __version__, "kind": kind, "trials": trials, "seed": seed}
    if kind == "bsc":
        code = simulate.gen_linear_code(v["n"][0], v["k"], v["code_seed"])
        tally = simulate.simulate_bsc(code, v["p"], v["t"], trials, seed, workers)
        obj.update({name: v[name] for name in ("k", "code_seed", "p", "t")}, n=v["n"][0])
        obj.update(_tally_fields(tally))
    elif kind == "awgn":
        cb = simulate.SphericalCodebook.random(v["M"], v["n"][0], v["snr"], v["code_seed"])
        tally = simulate.simulate_awgn(cb, v["tau"], trials, seed, workers)
        obj.update({name: v[name] for name in ("M", "code_seed", "snr", "tau")}, n=v["n"][0])
        obj.update(_tally_fields(tally))
    else:
        ch = spherical.AwgnChannel(v["snr"])
        obj.update(snr=v["snr"], phi=v["phi"], results=[])
        points = []
        for n in v["n"]:
            est, (lo, hi), exits = simulate.simulate_cone_exit(
                n, ch, v["phi"], trials, seed, workers
            )
            obj["results"].append({"n": n, "estimate": est, "exits": exits, "wilson95": [lo, hi]})
            if est > 0.0:
                points.append((float(n), est))
        if len(points) >= 3:
            obj["regression"] = dataclasses.asdict(simulate.estimate_exponent(points))
    _emit(_json_dump(obj), args.out)
    return 0


def _validation_checks():
    """Yield (name, defect, tolerance) triples for the cross-module suite."""
    # Binary: tau=0 reduction of the trade-off pair to the classical bound.
    worst = 0.0
    for p in (0.05, 0.1, 0.3):
        ch = binary.BscChannel(p)
        for r in np.linspace(1e-3, ch.capacity - 1e-6, 40):
            e0 = binary.gallager_exponent(float(r), ch).value
            mp, mm = binary.tradeoff_bounds(float(r), ch, 0.0)
            worst = max(worst, abs(mp.value - e0), abs(mm.value - e0))
    yield "binary tau=0 reduction", worst, 1e-9

    # Binary: trade-off pair dominates the linear bounds where both valid.
    ch = binary.BscChannel(0.07)
    worst = 0.0
    for r in np.linspace(0.01, ch.capacity - 1e-6, 60):
        ee, ex = binary.bz_bounds(float(r), ch, 0.03)
        mp, mm = binary.tradeoff_bounds(float(r), ch, 0.03)
        if ee.valid and mp.valid:
            worst = max(worst, ee.value - mp.value)
        if ex.valid and mm.valid:
            worst = max(worst, ex.value - mm.value)
    yield "binary trade-off dominance", worst, 1e-12

    # Binary: case-(b) value agrees with its alternative form.
    lmb = binary.landmarks(ch, 0.03)
    worst = 0.0
    for sign in (+1, -1):
        inner = (lmb.rho0_plus if sign > 0 else lmb.rho0_minus) - 2 * sign * 0.03
        r_mid = 0.5 * ((1.0 - binary_entropy(lmb.omega0_tau)) + (1.0 - binary_entropy(inner)))
        direct = binary._tradeoff_one(r_mid, ch, 0.03, sign).value
        alt = binary.tradeoff_case_b_alternative(ch, 0.03, sign, r_mid)
        worst = max(worst, abs(direct - alt))
    yield "binary case-b identity", worst, 1e-6

    # Spherical: G vanishes at tau=0.
    chA = spherical.AwgnChannel(4.0)
    worst = max(abs(spherical.big_g(phi, 0.0, chA)) for phi in np.linspace(0.2, 1.4, 25))
    yield "G(phi, 0) = 0", worst, 1e-14

    # Spherical: tau=0 trade-off collapses onto the classical bound.
    worst = 0.0
    for r in np.linspace(0.02, chA.capacity - 1e-3, 25):
        sh = spherical.shannon_exponent(float(r), chA).value
        me = spherical.tradeoff_exponent(float(r), chA, 0.0, "error").value
        worst = max(worst, abs(me - sh))
    yield "spherical tau=0 reduction", worst, 1e-6

    # Spherical: tau=0 landmark collapse.
    lms = spherical.spherical_landmarks(0.0, chA)
    defect = max(abs(lms.theta_1 - lms.theta_e), abs(lms.theta_2 - lms.theta_c))
    yield "tau=0 landmark collapse", defect, 1e-9

    # Neighbor-angle identity at tau=0: cos(theta) = cos^2(x).
    worst = 0.0
    for x in np.linspace(0.15, 1.5, 15):
        th = spherical.elias_theta(float(x), 0.0)
        worst = max(worst, abs(math.cos(th) - math.cos(float(x)) ** 2))
    yield "tau=0 neighbor-angle identity", worst, 1e-10

    # Closed-form boundary identity and its Rankin-rate consequence.
    te_root = spherical.elias_theta(spherical.theta_s(lms.R_star), 0.0)
    lhs = 1.0 / math.sin(te_root) ** 2
    rhs = 0.5 * (1.0 + math.sqrt(1.0 + chA.A**2 / 4.0))
    yield "critical-angle identity", abs(lhs - rhs), 1e-9
    worst = 0.0
    for r in (0.2, 0.4, 0.6):
        te = spherical.elias_theta(spherical.theta_s(r), 0.0)
        worst = max(worst, abs(spherical.rankin_rate(te) - r))
    yield "Rankin rate identity", worst, 1e-9

    # Landmark residuals reported by the solver.
    defect = max(abs(v) for v in lms.residuals.values())
    yield "landmark residuals", defect, 1e-10

    # Triangle counts against brute force at n=6: every word z is counted by
    # (k, wt(z ^ x), wt(z ^ y)) with x = 0 and y the first k coordinates.
    n = 6
    z, ks = np.arange(1 << n), np.arange(n + 1)
    cells = (ks[:, None] * (n + 1) + np.bitwise_count(z)) * (n + 1)
    cells += np.bitwise_count(z ^ ((1 << ks[:, None]) - 1))
    brute = np.bincount(cells.ravel(), minlength=(n + 1) ** 3).reshape((n + 1,) * 3)
    r = range(n + 1)
    exact = [[[finite.triangle_count(n, k, i, j) for j in r] for i in r] for k in r]
    worst = int(np.abs(brute - exact).max())
    yield "triangle-count brute force", float(worst), 0.5

    # Exhaustive oracle: probabilities sum to one, union bound dominates.
    worst_sum, worst_dom = 0.0, 0.0
    for seed in (1, 2, 3):
        code = simulate.gen_linear_code(12, 5, seed)
        wd = simulate.weight_distribution(code)
        for p in (0.05, 0.1):
            for t in (0, 1):
                pc, pu, pe = finite.exact_margin_probability(code, p, t)
                worst_sum = max(worst_sum, abs(pc + pu + pe - 1.0))
                mb = finite.MarginParams(t=t)
                ub_e = finite.binary_union_bound(wd, p, mb, "error")
                ub_x = finite.binary_union_bound(wd, p, mb, "erasure")
                if pu > 0:
                    worst_dom = max(worst_dom, math.log2(pu) - ub_e)
                if pu + pe > 0:
                    worst_dom = max(worst_dom, math.log2(pu + pe) - ub_x)
    yield "oracle total probability", worst_sum, 1e-12
    yield "union bound dominates oracle", worst_dom, 1e-9


def cmd_validate(args) -> int:
    failures = 0
    lines = []
    for name, defect, tol in _validation_checks():
        ok = defect <= tol
        failures += 0 if ok else 1
        shown = f"<{_DEFECT_FLOOR:.0e}" if defect < _DEFECT_FLOOR else f"={defect:.3e}"
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: defect{shown} tol={tol:.0e}")
    report = "\n".join(lines) + f"\n{'OK' if failures == 0 else f'{failures} FAILED'}\n"
    _emit(report, args.out)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eebounds",
        description="Error/erasure exponent bounds for margin decoding on BSC and AWGN channels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_channel(sp):
        sp.add_argument("--channel", choices=("bsc", "awgn"), required=True)
        sp.add_argument("--p", type=float, help="BSC crossover probability")
        sp.add_argument("--snr", type=float, help="AWGN signal-to-noise ratio A")
        sp.add_argument("--tau", type=float, default=0.0, help="decoding margin")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("curve", help="sweep bounds over a rate grid")
    add_channel(sp)
    sp.add_argument("--rmin", type=float, required=True)
    sp.add_argument("--rmax", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--units", choices=("bits", "nats"), default=None)
    sp.add_argument("--bounds", help="comma-separated subset of bound names")
    sp.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("landmarks", help="regime boundaries and saddle parameters")
    add_channel(sp)
    sp.set_defaults(func=cmd_landmarks)

    sp = sub.add_parser("finite-bound", help="finite-blocklength union bound")
    add_channel(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rate", type=float, required=True)
    sp.add_argument("--t", type=int, default=0, help="binary margin")
    sp.add_argument("--rho", type=float, help="decoding radius override (awgn)")
    sp.add_argument("--mode", choices=("error", "erasure"), default="error")
    sp.add_argument("--units", choices=("bits", "nats"), default=None)
    sp.set_defaults(func=cmd_finite_bound)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo simulation")
    sp.add_argument("config", nargs="?", help="JSON config file")
    sp.add_argument("--kind", choices=("bsc", "awgn", "cone"))
    sp.add_argument("--n", type=int, nargs="+")
    sp.add_argument("--k", type=int)
    sp.add_argument("--M", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--snr", type=float)
    sp.add_argument("--tau", type=float)
    sp.add_argument("--t", type=int)
    sp.add_argument("--phi", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--workers", type=int)
    sp.add_argument("--code-seed", dest="code_seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("validate", help="run the fast cross-module identity suite")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    if hasattr(args, "units") and args.units is None:
        args.units = _NATIVE_UNITS[args.channel]
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, json.JSONDecodeError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
