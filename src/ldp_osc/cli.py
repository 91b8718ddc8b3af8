"""Command line front end.

    ldp-osc catalog
    ldp-osc conditions --method beta:0.5 --h 0.5
    ldp-osc rates      --method beta:0.5 --observable mean-position --h 0.1
    ldp-osc prob       --method beta:0.5 --observable mean-position \\
                       --h 0.1 --N-sweep 10:10000:4 --interval 0.9:1.1
    ldp-osc msq        --method em --h 0.1
    ldp-osc simulate   --method beta:0.5 --h 0.1 --N 1000 --samples 100000
    ldp-osc search     --observable mean-velocity --out ./found

`--method` accepts a catalog id (see `catalog`) or a path to a method file.
A single `--h` expands to a refinement sweep h, h/2, ..., h/64 wherever a
verdict needs several step sizes; `--h-sweep lo:hi:n` pins the sweep
explicitly (geometric spacing). Output is CSV by default (`#` starts a
footer line) or a JSON document with `--format json`; `--out` writes the
report to a file instead of stdout (for `search` it names the directory that
receives one method file per hit).

The CLI parses and renders: argparse rejects `--h` with `--h-sweep` and
`--N` with `--N-sweep`, and the library checks the values, a step sweep in
`methods.decreasing_sweep`, so a rule holds the same for library calls.

Exit codes: 0 success, 1 bad usage or bad input, 2 no applicable result.
`simulate` checks its configuration and laws before it imports the sampler
(numpy); every other command runs on the standard library. Each command
imports the modules it runs when it runs, so `catalog`, `conditions` and
`msq` load neither `laws` nor `ldp`. `msq` computes the exact law of its
error and ignores `--samples` and `--seed`, which it still accepts, with a
note on stderr. Worker threads for the sampler come from LDP_OSC_THREADS;
results are bit-identical for any thread count. The parser is built on the
first `main()` call and reused by every later call in the same process.
"""

import argparse
import csv
import functools
import io
import math
import os
import re
import sys
import warnings

from .methods import COEFFICIENT_KEYS, catalog, condition_b_diagnostics, \
    get_method, parse_method_file
from .oscillator import MEAN_POSITION, OBSERVABLES, DivergentMomentsError, \
    OscillatorParams, SimConfig, rate_infimum

SCHEMA = "ldp-osc/1"

VERDICT_SWEEP_POINTS = 7
MSQ_SWEEP_POINTS = 5
# most points --h-sweep or --N-sweep may ask for
MAX_SWEEP_POINTS = 1000


class _NoApplicableResult(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-inf:0" or "-0.5:0.5" after a space as an option
        # flag; no option name holds a colon, so such a token is a value
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-[^-].*:")

    # argparse exits with status 2 on bad usage; route it through the single
    # exit-code policy in main() instead
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


# --------------------------------------------------------------------------
# serialization


def emit_csv(rows, footers=()):
    out = io.StringIO()
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: str(value) for key, value in row.items()})
    for line in footers:
        out.write(f"# {line}\n")
    return out.getvalue()


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def emit_json(payload):
    import json  # only JSON output loads it
    return json.dumps(_jsonable(payload), indent=2) + "\n"


def _render(args, command, rows, footers=(), **extra):
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": command}
        payload.update(extra)
        payload["rows"] = rows
        if footers:
            payload["notes"] = list(footers)
        return emit_json(payload)
    return emit_csv(rows, footers)


# --------------------------------------------------------------------------
# argument helpers


def _resolve_method(identifier):
    if os.path.isfile(identifier):
        with open(identifier, encoding="utf-8") as handle:
            text = handle.read()
        stem = os.path.splitext(os.path.basename(identifier))[0]
        return parse_method_file(text, fallback_name=stem)
    return get_method(identifier)


def _params(args):
    # the model fields the command has; OscillatorParams fills in the rest
    return OscillatorParams(**{name: value for name, value in vars(args).items()
                               if name in OscillatorParams._fields})


def _parse_colon_floats(text, count, what):
    parts = text.split(":")
    if len(parts) != count:
        raise ValueError(f"{what} must have {count} colon-separated fields, "
                         f"got {text!r}")
    try:
        return [float(part) for part in parts]
    except ValueError:
        raise ValueError(f"bad number in {what} {text!r}") from None


def _geomspace(start, stop, n):
    """numpy.geomspace(start, stop, n) by numpy's formula, endpoints exact."""
    step = (math.log10(stop) - math.log10(start)) / (n - 1)
    inner = (10.0 ** (k * step + math.log10(start)) for k in range(1, n - 1))
    return [start, *inner, stop]


def _is_point_count(n):
    return n.is_integer() and 2 <= n <= MAX_SWEEP_POINTS


def _h_values(args, points):
    """The step sweep: explicit --h-sweep, or --h expanded by halving. The
    commands' library calls check it (`methods.decreasing_sweep`)."""
    if args.h_sweep is None:
        return [args.h * 2.0 ** -k for k in range(points)]
    lo, hi, n = _parse_colon_floats(args.h_sweep, 3, "--h-sweep")
    if not 0.0 < lo < hi < math.inf or not _is_point_count(n):
        raise ValueError(f"--h-sweep needs 0 < lo < hi < inf and an integer "
                         f"2 <= n <= {MAX_SWEEP_POINTS}, got {args.h_sweep!r}")
    return _geomspace(hi, lo, int(n))


def _n_values(args):
    """The step counts: --N, or the rounded points of --N-sweep. The laws
    check them (`laws._check_steps`)."""
    if args.N_sweep is None:
        return [args.N]
    lo, hi, n = _parse_colon_floats(args.N_sweep, 3, "--N-sweep")
    if not 1 <= lo < hi < math.inf or not _is_point_count(n):
        raise ValueError(f"--N-sweep needs 1 <= lo < hi < inf and an integer "
                         f"2 <= n <= {MAX_SWEEP_POINTS}, got {args.N_sweep!r}")
    return sorted({round(v) for v in _geomspace(lo, hi, int(n))})


def _parse_interval(text):
    lo, hi = _parse_colon_floats(text, 2, "--interval")
    if not lo < hi:
        raise ValueError(f"--interval needs lo < hi, got {text!r}")
    return lo, hi


# --------------------------------------------------------------------------
# commands


def _cmd_catalog(args):
    rows = [{"name": m.name, "h_min": m.h_range[0],
             "h_max": "inf" if math.isinf(m.h_range[1]) else m.h_range[1],
             "description": m.description} for m in catalog()]
    return _render(args, "catalog", rows)


def _cmd_conditions(args):
    method = _resolve_method(args.method)
    diag = condition_b_diagnostics(method, _h_values(args, VERDICT_SWEEP_POINTS))
    rows = [{"h": h, "det": rep.det, "tr": rep.tr, "a1": rep.a1, "a2": rep.a2,
             "a3": rep.a3, "a4": rep.a4, "excluded": rep.excluded}
            for h, rep in zip(diag.h_values, diag.reports)]
    footers = [f"method: {method.name}",
               f"small-step consistency: {diag.verdict} "
               f"(r3 -> {diag.r3[-1]:.6g}, r4 -> {diag.r4[-1]:.6g})"]
    diagnostics = {"r1": diag.r1, "r2": diag.r2, "r3": diag.r3, "r4": diag.r4,
                   "verdict": diag.verdict}
    return _render(args, "conditions", rows, footers, method=method.name,
                   diagnostics=diagnostics)


def _cmd_rates(args):
    from .ldp import preservation_report
    method = _resolve_method(args.method)
    params = _params(args)
    report = preservation_report(method, args.observable,
                                 _h_values(args, VERDICT_SWEEP_POINTS), params)
    if not report.steps:
        raise _NoApplicableResult(f"no admissible step size for {method.name}: "
                                  f"{report.skipped[0][1]}")
    rows = [{"h": h, "regime": cls.regime,
             "log_mgf_coefficient": cls.log_mgf_coefficient,
             "rate_coefficient": cls.rate,
             "modified_coefficient": cls.modified_rate, "gap": gap}
            for h, cls, gap in zip(report.h_values, report.steps, report.gaps)]
    footers = [f"observable: {args.observable}",
               f"target coefficient: {report.target!r}"]
    extra = {"method": method.name, "observable": args.observable,
             "target": report.target}
    if report.verdict is not None:
        footers.append(f"verdict: {report.verdict}")
        if report.proof is not None:
            footers.append(f"proof: {report.proof}")
        extra.update(verdict=report.verdict, symbolic=report.symbolic,
                     proof=report.proof)
    footers += [f"skipped h = {h:g}: {reason}" for h, reason in report.skipped]
    return _render(args, "rates", rows, footers, **extra)


def _cmd_prob(args):
    from .laws import interval_probability
    from .ldp import observable_law, rate_function
    method = _resolve_method(args.method)
    params = _params(args)
    interval = _parse_interval(args.interval)
    try:
        predicted = rate_infimum(
            rate_function(method, args.h, args.observable, params).rate,
            *interval)
    except ValueError as exc:
        predicted = None
        rate_note = f"no decay-rate prediction: {exc}"
    else:
        rate_note = None
    rows = []
    for N in _n_values(args):
        law = observable_law(method, args.observable, args.h, N, params)
        prob = interval_probability(law, *interval)
        rows.append({
            "N": N,
            "mean": law.mean,
            "sigma": law.sigma,
            "p": prob.p,
            "log_p": prob.log_p,
            "rate": -prob.log_p / N,
            "predicted": math.nan if predicted is None else predicted,
        })
    footers = [f"method: {method.name}",
               f"observable: {args.observable}",
               f"interval: [{interval[0]:g}, {interval[1]:g}], h = {args.h:g}",
               "rate = -log(p)/N; predicted = infimum of the per-step rate"]
    if rate_note:
        footers.append(rate_note)
    extra = {"method": method.name, "observable": args.observable,
             "h": args.h, "interval": list(interval)}
    return _render(args, "prob", rows, footers, **extra)


def _cmd_msq(args):
    if args.samples is not None or args.seed is not None:
        print("note: msq computes the exact mean-square error law; it ignores "
              "--samples and --seed", file=sys.stderr)
    method = _resolve_method(args.method)
    params = _params(args)
    hs = _h_values(args, MSQ_SWEEP_POINTS)
    from .strong import msq_order
    report = msq_order(method, hs, T0=args.T0, params=params)
    rows = [{"h": h, "steps": steps, "error": err}
            for h, steps, err in zip(report.h_values, report.steps, report.errors)]
    footers = [f"method: {method.name}",
               f"T0 = {args.T0:g}",
               "error = max over the grid of (E|z_n - Z(t_n)|^2)^(1/2), "
               "from its exact law",
               f"fitted mean-square order: {report.slope:.4f}"]
    return _render(args, "msq", rows, footers, method=method.name,
                   slope=report.slope, T0=args.T0)


def _cmd_simulate(args):
    from .ldp import observable_law
    method = _resolve_method(args.method)
    params = _params(args)
    config = SimConfig(method=method, h=args.h, steps=args.N,
                       samples=args.samples, seed=args.seed, params=params)
    observables = (("mean-position", "position"), ("mean-velocity", "velocity"))
    # the laws go first: a law with no result ends the command before numpy
    # loads
    laws = [observable_law(method, observable, args.h, args.N, params)
            if args.N >= 2 else None for observable, _ in observables]
    from .sim import simulate_summary  # the sampler imports numpy
    summary = simulate_summary(config)
    rows = []
    for (observable, key), law in zip(observables, laws):
        stats = summary[key]
        rows.append({
            "observable": observable,
            "samples": config.samples,
            "mean": stats["mean"],
            "variance": stats["variance"],
            "min": stats["min"],
            "max": stats["max"],
            "law_mean": "" if law is None else law.mean,
            "law_variance": "" if law is None else law.variance,
        })
    footers = [f"method: {method.name}",
               f"h = {args.h:g}, N = {args.N}, seed = {args.seed}"]
    return _render(args, "simulate", rows, footers, method=method.name,
                   h=args.h, N=args.N, seed=args.seed)


def _cmd_search(args):
    from .ldp import exact_preservation_search
    hits = exact_preservation_search(args.observable)
    rows = []
    for hit in hits:
        # each hit's definition is `key = expression` lines
        fields = dict(line.split(" = ", 1) for line in hit.definition.splitlines())
        rows.append({"name": hit.name, **{k: fields[k] for k in COEFFICIENT_KEYS}})
    footers = [f"observable: {args.observable}", f"hits: {len(hits)}"]
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for hit in hits:
            filename = hit.name.replace(":", "_").replace(",", "_") + ".method"
            path = os.path.join(args.out_dir, filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(hit.definition)
            footers.append(f"wrote {path}")
    return _render(args, "search", rows, footers, observable=args.observable)


# --------------------------------------------------------------------------
# parser assembly


def _add_format(parser, out=True):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if out:
        parser.add_argument("--out")


def _add_model(parser, state=True):
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="noise intensity (default 1)")
    if state:  # rates and verdicts do not depend on the initial state
        parser.add_argument("--x0", type=float, default=0.0)
        parser.add_argument("--y0", type=float, default=0.0)


def _add_method(parser):
    parser.add_argument("--method", required=True,
                        help="catalog id or path to a method file")


def _add_observable(parser):
    parser.add_argument("--observable", choices=OBSERVABLES,
                        default=MEAN_POSITION)


def _add_steps(parser):
    steps = parser.add_mutually_exclusive_group(required=True)
    steps.add_argument("--h", type=float,
                       help="step size; expands to a halving sweep for verdicts")
    steps.add_argument("--h-sweep", dest="h_sweep", metavar="LO:HI:N",
                       help="explicit geometric step sweep")


@functools.cache  # parse_args keeps no state, so every call can share one
def _build_parser():
    parser = _Parser(prog="ldp-osc",
                     description="long-horizon decay-rate analysis of one-step "
                                 "methods for the linear stochastic oscillator")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("catalog", help="list built-in methods")
    _add_format(p)
    p.set_defaults(run=_cmd_catalog)

    p = sub.add_parser("conditions", help="admissibility flags per step size")
    _add_method(p)
    _add_steps(p)
    _add_format(p)
    p.set_defaults(run=_cmd_conditions)

    p = sub.add_parser("rates", help="decay-rate coefficients and verdict")
    _add_method(p)
    _add_observable(p)
    _add_steps(p)
    _add_model(p, state=False)
    _add_format(p)
    p.set_defaults(run=_cmd_rates)

    p = sub.add_parser("prob", help="exact interval probabilities at finite N")
    _add_method(p)
    _add_observable(p)
    p.add_argument("--h", type=float, required=True)
    counts = p.add_mutually_exclusive_group(required=True)
    counts.add_argument("--N", type=int)
    counts.add_argument("--N-sweep", dest="N_sweep", metavar="LO:HI:N")
    p.add_argument("--interval", required=True, metavar="LO:HI")
    _add_model(p)
    _add_format(p)
    p.set_defaults(run=_cmd_prob)

    p = sub.add_parser("msq", help="mean-square convergence order")
    _add_method(p)
    _add_steps(p)
    p.add_argument("--T0", type=float, default=1.0, help="comparison horizon")
    # accepted for scripts that still pass them; the exact law needs neither
    p.add_argument("--samples", type=int, help="ignored")
    p.add_argument("--seed", type=int, help="ignored")
    _add_model(p)
    _add_format(p)
    p.set_defaults(run=_cmd_msq)

    p = sub.add_parser("simulate", help="Monte Carlo sampling of both observables")
    _add_method(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--N", type=int, required=True, help="steps per path")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    _add_model(p)
    _add_format(p)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("search", help="scan for exactly rate-preserving methods")
    _add_observable(p)
    _add_format(p, out=False)
    p.add_argument("--out", dest="out_dir", metavar="DIR",
                   help="directory receiving one method file per hit")
    p.set_defaults(run=_cmd_search)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    # CLI users get the message only, not the Python source location
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return _main(argv)


def _main(argv):
    try:
        args = _build_parser().parse_args(argv)
        text = args.run(args)
    except (_NoApplicableResult, DivergentMomentsError) as exc:
        print(f"no applicable result: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
