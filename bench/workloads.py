"""The four workloads: fixed CLI invocations and the check of each output.

Each workload is a closed loop with one client: a fresh interpreter runs its
commands one after another. The seed is the only input that varies between
runs; it becomes `--seed` for `mc` and `msq` and picks the initial state for
`laws`. `verdicts` has no random input.

    mc        simulate, 1e8 path-steps: rng and the sim recursion
    laws      prob at N up to 1e7: the O(N) law routes; the det = 1
              velocity command is a control on the O(1) route
    verdicts  rates and search: sympy proofs and symbolic coefficients
    msq       msq: the exact path sampler, 3 normals per rng call

A check returns (ok, detail, worst relative gap to a reference or None).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from functools import partial

import reference

HERE = os.path.dirname(os.path.abspath(__file__))

MC_SAMPLES = 100_000
MC_STEPS = 1000
MC_H = 0.1
LAWS_H = 0.1
LAWS_N = (100, 1000, 10_000, 100_000, 1_000_000, 10_000_000)
LAWS_PAIRS = (("beta:0.5", "mean-position"), ("theta:1", "mean-position"),
              ("theta:1", "mean-velocity"), ("beta:0.5", "mean-velocity"))
MSQ_H = 0.1
MSQ_METHODS = ("em", "beta:0.5")
MSQ_POINTS = 5
MSQ_SAMPLES = 20_000

# relative tolerance of a reported law against the doubling reference; the
# closed forms agree to 3e-10 at N = 1e7 today
LAW_RTOL = 1e-8
# Monte Carlo estimates may stray this many standard errors from the law
MC_Z = 5.0
# strong order 1 of the methods msq fits; 20000 paths give 0.97-0.98
MSQ_SLOPE_BAND = (0.9, 1.1)


def _rows(text):
    lines = [line for line in text.splitlines()
             if line.strip() and not line.startswith("#")]
    return list(csv.DictReader(lines))


def _footer(text, prefix):
    for line in text.splitlines():
        if line.startswith("# " + prefix):
            return line[len("# " + prefix):].strip()
    return None


def check_mc(code, stdout):
    if code != 0:
        return False, f"exit code {code}", None
    rows = {row["observable"]: row for row in _rows(stdout)}
    if sorted(rows) != ["mean-position", "mean-velocity"]:
        return False, f"rows {sorted(rows)}", None
    problems = []
    worst = 0.0
    for observable, row in rows.items():
        ref_mean, ref_var = reference.observable_law(
            "beta:0.5", observable, MC_H, MC_STEPS)
        gap = reference.law_gap(float(row["law_mean"]),
                                math.sqrt(float(row["law_variance"])),
                                ref_mean, ref_var)
        worst = max(worst, gap)
        if not gap <= LAW_RTOL:
            problems.append(f"{observable} law gap {gap:.3g}")
        n = int(row["samples"])
        z_mean = abs(float(row["mean"]) - ref_mean) / math.sqrt(ref_var / n)
        z_var = abs(float(row["variance"]) - ref_var) \
            / (ref_var * math.sqrt(2.0 / (n - 1)))
        if n != MC_SAMPLES or not (z_mean <= MC_Z and z_var <= MC_Z):
            problems.append(f"{observable} samples {n}, mean off by "
                            f"{z_mean:.2f} se, variance by {z_var:.2f} se")
    return not problems, "; ".join(problems) or "ok", worst


def check_laws(method, observable, x0, y0, code, stdout):
    if code != 0:
        return False, f"exit code {code}", None
    rows = _rows(stdout)
    Ns = tuple(int(row["N"]) for row in rows)
    if Ns != LAWS_N:
        return False, f"N column {Ns}", None
    worst = 0.0
    for row in rows:
        ref = reference.observable_law(method, observable, LAWS_H,
                                       int(row["N"]), x0, y0)
        worst = max(worst, reference.law_gap(float(row["mean"]),
                                             float(row["sigma"]), *ref))
    ok = worst <= LAW_RTOL
    return ok, "ok" if ok else f"law gap {worst:.3g}", worst


def check_msq(code, stdout):
    if code != 0:
        return False, f"exit code {code}", None
    rows = _rows(stdout)
    hs = [float(row["h"]) for row in rows]
    errors = [float(row["error"]) for row in rows]
    expected = [MSQ_H * 2.0 ** -k for k in range(MSQ_POINTS)]
    slope = float(_footer(stdout, "fitted mean-square order:") or "nan")
    lo, hi = MSQ_SLOPE_BAND
    ok = (hs == expected and lo <= slope <= hi
          and all(b < a for a, b in zip(errors, errors[1:])))
    return ok, f"slope {slope}" if ok else f"h {hs}, errors {errors}, " \
        f"slope {slope} outside [{lo}, {hi}]", None


def check_verdict(expected, code, stdout):
    if code != expected["exit"]:
        return False, f"exit code {code}, expected {expected['exit']}", None
    if code != 0:
        return True, "ok", None
    payload = json.loads(stdout)
    if "hits" in expected:
        hits = [row["name"] for row in payload["rows"]]
        ok = hits == expected["hits"]
        return ok, "ok" if ok else f"hits {hits}", None
    got = (payload.get("verdict"), payload.get("symbolic"))
    want = (expected["verdict"], expected["symbolic"])
    if got == want:
        return True, "ok", None
    return False, f"{got[0]} (symbolic {got[1]}), expected {want[0]} " \
        f"(symbolic {want[1]})", None


def commands(workload, seed):
    """[(argv, check, known_defect)] of one workload for one seed."""
    if workload == "mc":
        argv = ["simulate", "--method", "beta:0.5", "--h", str(MC_H),
                "--N", str(MC_STEPS), "--samples", str(MC_SAMPLES),
                "--seed", str(seed)]
        return [(argv, check_mc, False)]
    if workload == "laws":
        pick = random.Random(seed)
        x0 = round(pick.uniform(-0.5, 0.5), 3)
        y0 = round(pick.uniform(-0.5, 0.5), 3)
        sweep = f"{LAWS_N[0]}:{LAWS_N[-1]}:{len(LAWS_N)}"
        return [(["prob", "--method", method, "--observable", observable,
                  "--h", str(LAWS_H), "--interval", "0.9:1.1",
                  "--x0", repr(x0), "--y0", repr(y0), "--N-sweep", sweep],
                 partial(check_laws, method, observable, x0, y0), False)
                for method, observable in LAWS_PAIRS]
    if workload == "verdicts":
        with open(os.path.join(HERE, "expected_verdicts.json"),
                  encoding="utf-8") as handle:
            table = json.load(handle)["commands"]
        return [(row["argv"], partial(check_verdict, row),
                 bool(row.get("known_defect"))) for row in table]
    if workload == "msq":
        return [(["msq", "--method", method, "--h", str(MSQ_H),
                  "--samples", str(MSQ_SAMPLES), "--seed", str(seed)],
                 check_msq, False)
                for method in MSQ_METHODS]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("mc", "laws", "verdicts", "msq")
