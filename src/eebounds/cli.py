"""Command-line front end: rate sweeps, landmarks, finite-blocklength
bounds, seeded simulations and a fast self-validation suite.

Output is deterministic: CSV uses 12 significant digits with LF endings,
JSON is emitted with sorted keys. All values equal the underlying library
calls exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, binary, spherical
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


def _shown(value) -> str:
    """A flag's string or a config value for a message: a JSON boolean, list
    or object in its JSON form."""
    return json.dumps(value) if isinstance(value, (bool, list, dict)) else str(value)


def _number(value) -> float:
    """float(value) for a real simulate parameter, from a flag's string or a
    config number. A JSON boolean is not a number, though float() reads
    true as 1.0; nor is a list or an object."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"expected a number, got {_shown(value)}")


def _finite(text: str) -> float:
    """float(text) for a real flag of the bound commands; argparse exits 2 on
    NaN or an infinity, as on a string that is no number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _integer(value) -> int:
    """int(value) for an integer simulate parameter, from a flag's string or
    a config value, which must not truncate: 7, 7.0 and "7.0" pass, 7.9 and
    "7.9" raise ValueError, as do NaN, inf, a JSON boolean, list or object,
    and a string that is no number. int() reads an integer first, exactly at
    any size."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    try:
        value = _number(value)
    except ValueError:
        pass
    if not (isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {_shown(value)}")
    return int(value)


# Simulate parameters: (conversion, default), in flag order. Each is a flag
# (--code-seed for code_seed) and a config key, read by the one conversion; a
# flag beats the config, which beats the default. --n takes one or more.
_SIM_PARAMS = {
    "kind": (str, None),
    "n": (lambda ns: [_integer(n) for n in (ns if isinstance(ns, list) else [ns])], None),
    "k": (_integer, None),
    "M": (_integer, None),
    "p": (_number, None),
    "snr": (_number, None),
    "tau": (_number, 0.0),
    "t": (_integer, 0),
    "phi": (_number, None),
    "trials": (_integer, 100000),
    "seed": (_integer, None),
    "workers": (_integer, 1),
    "code_seed": (_integer, 0),
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
    if args.steps < 1:
        raise UsageError(f"--steps must be at least 1, got {args.steps}")
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
    from . import finite

    ch = _make_channel(args)
    obj = {"version": __version__, "channel": args.channel, "n": args.n, "mode": args.mode}
    if args.channel == "bsc":
        rate = args.rate if args.units == "bits" else args.rate / LN2
        wd = finite.WeightDistribution.gv_ensemble(args.n, rate)
        lb = finite.binary_union_bound(wd, ch.p, finite.MarginParams(t=args.t), args.mode)
        obj.update(rate_bits=rate, p=ch.p, t=args.t, log2_bound=lb, exponent_bits=-lb / args.n)
    else:
        rate = args.rate if args.units == "nats" else args.rate * LN2
        wd = finite.WeightDistribution.binomial_spherical(args.n, rate)
        # The erasure kind negates the margin, as in tradeoff_exponent.
        t = args.tau if args.mode == "error" else -args.tau
        rho = args.rho if args.rho is not None else spherical.decoding_radius(rate, t, ch)
        lb = finite.awgn_union_bound(wd, ch, t, rho)
        obj.update(rate_nats=rate, snr=ch.A, tau=args.tau, rho=rho)
        obj.update(ln_bound=lb, exponent_nats=-lb / args.n)
    _emit(_json_dump(obj), args.out)
    return 0


def _tally_fields(tally) -> dict:
    """The "counts" and "rates" objects of a bsc or awgn simulation's
    ``simulate.TrialTally``."""
    classes = ("correct", "undetected", "erasure")
    return {
        "counts": {c: getattr(tally, c) for c in classes},
        "rates": {c: {"rate": tally.rate(c), "wilson95": list(tally.wilson(c))} for c in classes},
    }


def cmd_simulate(args) -> int:
    from . import finite, simulate

    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise UsageError("config must be a JSON object")
    v = {}
    for name, (convert, default) in _SIM_PARAMS.items():
        flag = getattr(args, name)
        value = flag if flag is not None else cfg.get(name, default)
        try:
            v[name] = None if value is None else convert(value)
        except ValueError as exc:
            raise UsageError(f"{name}: {exc}") from None
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
        code = finite.gen_linear_code(v["n"][0], v["k"], v["code_seed"])
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


_Claim = NamedTuple("_Claim", [("result", str), ("tol", float), ("check", Callable[..., float])])


def _value(bound) -> float:
    """A bound's value, NaN where it is not valid, so a defect it enters is inf."""
    return bound.value if bound.valid else math.nan


def _worst(defects) -> float:
    """The largest defect, at least 0; inf if one is NaN or infinite, which a
    bare max() would pass over or let through."""
    d = np.fromiter(defects, float)
    return float(d.max(initial=0.0)) if np.isfinite(d).all() else math.inf


def _binary_reduction(ps=(0.05, 0.1, 0.3), rates=lambda cap: np.linspace(1e-3, cap - 1e-6, 40)):
    defects = []
    for ch in map(binary.BscChannel, ps):
        for r in map(float, rates(ch.capacity)):
            e0 = _value(binary.gallager_exponent(r, ch))
            defects += [abs(_value(m) - e0) for m in binary.tradeoff_bounds(r, ch, 0.0)]
    return _worst(defects)


def _binary_dominance(rates=lambda cap: np.linspace(0.01, cap - 1e-6, 60)):
    ch = binary.BscChannel(0.07)
    pairs = (zip(binary.bz_bounds(r, ch, 0.03), binary.tradeoff_bounds(r, ch, 0.03))
             for r in map(float, rates(ch.capacity)))
    return _worst(s.value - m.value for pair in pairs for s, m in pair if s.valid and m.valid)


def _case_b_identity(rates=lambda lo, hi: (0.5 * (lo + hi),)):
    """``rates`` maps the ends of a member's regime (b) to its rates checked."""
    ch, tau = binary.BscChannel(0.07), 0.03
    lm = binary.landmarks(ch, tau)
    defects = []
    for member, sign, rho0 in ((0, 1, lm.rho0_plus), (1, -1, lm.rho0_minus)):
        ends = (1.0 - binary_entropy(lm.omega0_tau), 1.0 - binary_entropy(rho0 - 2 * sign * tau))
        defects += [abs(_value(binary.tradeoff_bounds(r, ch, tau)[member])
                        - binary.tradeoff_case_b_alternative(ch, tau, sign, r))
                    for r in map(float, rates(*ends))]
    return _worst(defects)


def _g_sign(snrs=(4.0,), phis=np.linspace(0.2, 1.4, 25), taus=(0.005, 0.05, 0.0995)):
    """|G(phi, 0)|, and inf where G(phi, tau) > 0 at a tau > 0: the sign has no slack."""
    defects = []
    for ch in map(spherical.AwgnChannel, snrs):
        for phi in map(float, phis):
            defects.append(abs(spherical.big_g(phi, 0.0, ch)))
            defects += [0.0 if spherical.big_g(phi, t, ch) <= 0.0 else math.inf
                        for t in map(float, taus)]
    return _worst(defects)


def _spherical_reduction(snrs=(4.0,), rates=lambda cap: np.linspace(0.02, cap - 1e-3, 25)):
    pairs = ((spherical.tradeoff_exponent(r, ch, 0.0, "error"), spherical.shannon_exponent(r, ch))
             for ch in map(spherical.AwgnChannel, snrs) for r in map(float, rates(ch.capacity)))
    return _worst(abs(_value(m) - _value(s)) for m, s in pairs)


def _landmarks(snrs, taus=(0.0,)):
    chs = map(spherical.AwgnChannel, snrs)
    return [spherical.spherical_landmarks(tau, ch) for ch in chs for tau in taus]


def _landmark_collapse(snrs=(4.0,)):
    lms = _landmarks(snrs)
    return _worst(abs(d) for lm in lms for d in (lm.theta_1 - lm.theta_e, lm.theta_2 - lm.theta_c))


def _neighbor_angle(xs=np.linspace(0.15, 1.5, 15)):
    thetas = [spherical.elias_theta(float(x), 0.0) for x in xs]
    return _worst(abs(math.cos(t) - math.cos(float(x)) ** 2) for t, x in zip(thetas, xs))


def _critical_angle(snrs=(4.0,)):
    thetas = [spherical.elias_theta(spherical.theta_s(lm.R_star), 0.0) for lm in _landmarks(snrs)]
    return _worst(abs(1.0 / math.sin(t) ** 2 - 0.5 * (1.0 + math.sqrt(1.0 + A**2 / 4.0)))
                  for t, A in zip(thetas, snrs))


def _rankin(rates=(0.2, 0.4, 0.6)):
    thetas = [spherical.elias_theta(spherical.theta_s(float(r)), 0.0) for r in rates]
    return _worst(abs(spherical.rankin_rate(t) - r) for t, r in zip(thetas, rates))


def _landmark_residuals(snrs=(4.0,), taus=(0.0,)):
    return _worst(abs(v) for lm in _landmarks(snrs, taus) for v in lm.residuals.values())


def _triangle_counts(ns=(6,)):
    """Each word z of length n adds 1 to cell (k, wt(z ^ x), wt(z ^ y)) of its
    brute-force table, with x = 0 and y the first k coordinates."""
    from . import finite

    defects = []
    for n in ns:
        z, k = np.arange(1 << n), np.arange(n + 1)[:, None]
        brute = np.zeros((n + 1,) * 3, int)
        np.add.at(brute, (k, np.bitwise_count(z), np.bitwise_count(z ^ ((1 << k) - 1))), 1)
        exact = np.vectorize(finite.triangle_count)(n, *np.indices(brute.shape))
        defects.append(np.abs(brute - exact).max())
    return _worst(defects)


# The oracle checks' grid: the (n, k, seed) of a ``finite.gen_linear_code``,
# each with the crossover probabilities and margins it runs at.
_ORACLE_CASES = tuple(((12, 5, seed), (0.05, 0.1), (0, 1)) for seed in (1, 2, 3))


def _oracle_total(cases=_ORACLE_CASES):
    """|P_c + P_u + P_e - 1|, and inf where one is negative: a probability has no slack."""
    from . import finite

    codes = ((finite.gen_linear_code(*spec), ps, ts) for spec, ps, ts in cases)
    probs = (finite.exact_margin_probability(code, p, t)
             for code, ps, ts in codes for p in ps for t in ts)
    return _worst(abs(sum(pr) - 1.0) if min(pr) >= 0.0 else math.inf for pr in probs)


def _union_dominance(cases=_ORACLE_CASES):
    """Excess of log2 of an exact probability over its union bound."""
    from . import finite

    defects = []
    for spec, ps, ts in cases:
        code = finite.gen_linear_code(*spec)
        wd = finite.weight_distribution(code)
        for p, t in itertools.product(ps, ts):
            _, pu, pe = finite.exact_margin_probability(code, p, t)
            mb = finite.MarginParams(t)
            defects += [math.log2(q) - finite.binary_union_bound(wd, p, mb, mode)
                        for q, mode in ((pu, "error"), (pu + pe, "erasure")) if q > 0]
    return _worst(defects)


# The claims ``validate`` reports, in report order: the paper result or identity
# each reproduces, the tolerance on its defect, and the check that returns the
# defect. A check's keyword arguments are its grid, validate's by default; the
# acceptance tests run the same checks on wider grids. Checks look package
# functions up through their module when they run, so a patched one is used.
_CLAIMS = {
    "binary tau=0 reduction": _Claim(
        "At tau = 0, M+ and M- equal Gallager's exponent E0 on the BSC", 1e-9, _binary_reduction),
    "binary trade-off dominance": _Claim(
        "Where both are valid, M+ and M- dominate the symmetric shifts", 1e-12, _binary_dominance),
    "binary case-b identity": _Claim(
        "In regime (b), M+ and M- equal their omega0-only closed form", 1e-6, _case_b_identity),
    "G(phi, 0) = 0": _Claim(
        "The correction term G(phi, tau) is 0 at tau = 0, <= 0 for tau > 0", 1e-14, _g_sign),
    "spherical tau=0 reduction": _Claim(
        "At tau = 0, the error trade-off is Shannon's AWGN bound", 1e-6, _spherical_reduction),
    "tau=0 landmark collapse": _Claim(
        "At tau = 0, theta_1, theta_2 are Shannon's theta_e, theta_c", 1e-9, _landmark_collapse),
    "tau=0 neighbor-angle identity": _Claim(
        "At tau = 0, the neighbor angle theta(x) has cos theta = cos^2 x", 1e-10, _neighbor_angle),
    "critical-angle identity": _Claim(
        "At R*, the neighbor angle of theta_s(R*) is Shannon's theta_e", 1e-9, _critical_angle),
    "Rankin rate identity": _Claim(
        "At tau = 0, the neighbor angle of theta_s(R) has Rankin rate R", 1e-9, _rankin),
    "landmark residuals": _Claim(
        "The solved landmarks theta_1 and R* satisfy their equations", 1e-10, _landmark_residuals),
    "triangle-count brute force": _Claim(
        "triangle_count(n, k, i, j) equals a count over all 2^n words", 0.5, _triangle_counts),
    "oracle total probability": _Claim(
        "The exact oracle's probabilities are nonnegative and sum to 1", 1e-12, _oracle_total),
    "union bound dominates oracle": _Claim(
        "The finite-n union bounds are at least the exact oracle's values", 1e-9, _union_dominance),
}


def cmd_validate(args) -> int:
    failures = 0
    lines = []
    for name, claim in _CLAIMS.items():
        defect = claim.check()
        ok = defect <= claim.tol
        failures += 0 if ok else 1
        shown = f"<{_DEFECT_FLOOR:.0e}" if defect < _DEFECT_FLOOR else f"={defect:.3e}"
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: defect{shown} tol={claim.tol:.0e}")
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
        sp.add_argument("--p", type=_finite, help="BSC crossover probability")
        sp.add_argument("--snr", type=_finite, help="AWGN signal-to-noise ratio A")
        sp.add_argument("--tau", type=_finite, default=0.0, help="decoding margin")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("curve", help="sweep bounds over a rate grid")
    add_channel(sp)
    sp.add_argument("--rmin", type=_finite, required=True)
    sp.add_argument("--rmax", type=_finite, required=True)
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
    sp.add_argument("--rate", type=_finite, required=True)
    sp.add_argument("--t", type=int, default=0, help="binary margin")
    sp.add_argument("--rho", type=_finite, help="decoding radius override (awgn)")
    sp.add_argument("--mode", choices=("error", "erasure"), default="error")
    sp.add_argument("--units", choices=("bits", "nats"), default=None)
    sp.set_defaults(func=cmd_finite_bound)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo simulation")
    sp.add_argument("config", nargs="?", help="JSON config file")
    for name in _SIM_PARAMS:
        sp.add_argument("--" + name.replace("_", "-"), nargs="+" if name == "n" else None)
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
