"""Which functions the traced run wraps, and the per-layer metrics built from
their spans.

Layers are the package's modules. Times are sums of span durations; spans
that run on sampler threads (`sim._run_block` and the `rng` calls inside it)
add up over threads, so on `mc` their times are thread-seconds, not wall time.
A self time is a span's duration minus the part its wrapped children cover.
"""

from __future__ import annotations

import math
import re

PACKAGE = "ldp_osc"


def _draws(args, kwargs, result):
    return {"draws": int(result.size)}


def _path_steps(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"path_steps": int(config.samples) * int(config.steps)}


def _path_bytes(args, kwargs, result):
    arrays = [v for v in vars(result).values() if hasattr(v, "nbytes")]
    return {"path_bytes": int(sum(a.nbytes for a in arrays))}


def _law_N(args, kwargs, result):
    return {"N": int(args[2] if len(args) > 2 else kwargs["N"])}


def _proved(args, kwargs, result):
    return {"proved": int(result is True)}


def _hits(args, kwargs, result):
    return {"hits": len(result)}


# (module, attribute, annotate, track allocations)
TARGETS = (
    ("cli", "main", None, False),
    ("methods", "evaluate", None, False),
    ("methods", "evaluate_symbolic", None, False),
    ("rng", "normals", _draws, False),
    ("rng", "uniforms", None, False),
    ("rng", "mix64", None, False),
    ("rng", "stream_keys", None, False),
    ("sim", "simulate_paths", _path_steps, False),
    ("sim", "_run_block", None, False),
    ("sim", "msq_order", None, False),
    ("oscillator", "sample_exact_path", _path_bytes, False),
    ("laws", "law_NA_N", _law_N, True),
    ("laws", "law_x_N", _law_N, True),
    ("laws", "interval_probability", None, False),
    ("spectral", "weight_vector", None, False),
    ("spectral", "alpha_hat", None, False),
    ("ldp", "rate_function", None, False),
    ("ldp", "preservation_report", None, False),
    ("ldp", "_prove_modified_rate", _proved, False),
    ("ldp", "exact_preservation_search", _hits, False),
    ("ldp", "_exact_at_probes", None, False),
)

# every per-layer metric, in report order, with its unit
UNITS = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.sympy_s": "s",
    "import.ldp_osc_self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "methods.evaluate_calls": "count",
    "methods.evaluate_s": "s",
    "methods.evaluate_symbolic_calls": "count",
    "methods.evaluate_symbolic_s": "s",
    "rng.normals_calls": "count",
    "rng.draws": "count",
    "rng.draws_per_call": "count",
    "rng.uniforms_s": "s",
    "rng.mix64_s": "s",
    "rng.ndtri_s": "s",
    "rng.ns_per_draw": "ns",
    "sim.simulate_paths_s": "s",
    "sim.recursion_self_s": "s",
    "sim.path_steps": "count",
    "sim.path_steps_per_s": "1/s",
    "sim.threads": "count",
    "sim.parallel_speedup": "ratio",
    "sim.msq_order_s": "s",
    "sim.msq_self_s": "s",
    "oscillator.sample_exact_path_s": "s",
    "oscillator.sample_exact_path_self_s": "s",
    "oscillator.path_bytes_computed": "B",
    "laws.law_calls": "count",
    "laws.law_NA_N_s": "s",
    "laws.law_x_N_s": "s",
    "spectral.weight_vector_s": "s",
    "spectral.alpha_hat_s": "s",
    "laws.interval_probability_s": "s",
    "laws.peak_alloc_mb": "MiB",
    "laws.time_vs_N_slope": "ratio",
    "laws.alloc_vs_N_slope": "ratio",
    "laws.max_rel_err": "ratio",
    "ldp.rate_function_calls": "count",
    "ldp.rate_function_s": "s",
    "ldp.preservation_report_s": "s",
    "ldp.proof_self_s": "s",
    "ldp.proof_max_s": "s",
    "ldp.proofs_attempted": "count",
    "ldp.proofs_succeeded": "count",
    "ldp.proof_success_ratio": "ratio",
    "ldp.search_s": "s",
    "ldp.search_candidates": "count",
    "ldp.search_hits": "count",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.absent_names": "count",
}


def span_metrics(spans, self_time):
    """Per-layer metrics of one traced worker, from its spans.

    Returns (metrics, absent): metrics that the spans cannot give (a layer
    the workload never enters) are set to 0 and named in `absent`.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def own(name):
        return sum(self_time[s["id"]] for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    absent = []

    def ratio(metric, num, den):
        if den:
            return num / den
        absent.append(metric)
        return 0.0

    m = {}
    m["cli.calls"] = calls("cli.main")
    m["cli.self_s"] = own("cli.main")
    m["methods.evaluate_calls"] = calls("methods.evaluate")
    m["methods.evaluate_s"] = total("methods.evaluate")
    m["methods.evaluate_symbolic_calls"] = calls("methods.evaluate_symbolic")
    m["methods.evaluate_symbolic_s"] = total("methods.evaluate_symbolic")

    draws = attr_sum("rng.normals", "draws")
    m["rng.normals_calls"] = calls("rng.normals")
    m["rng.draws"] = draws
    m["rng.draws_per_call"] = ratio("rng.draws_per_call", draws,
                                    calls("rng.normals"))
    m["rng.uniforms_s"] = total("rng.uniforms")
    m["rng.mix64_s"] = total("rng.mix64")
    m["rng.ndtri_s"] = own("rng.normals")
    m["rng.ns_per_draw"] = ratio("rng.ns_per_draw",
                                 1e9 * total("rng.normals"), draws)

    steps = attr_sum("sim.simulate_paths", "path_steps")
    m["sim.simulate_paths_s"] = total("sim.simulate_paths")
    m["sim.recursion_self_s"] = own("sim._run_block")
    m["sim.path_steps"] = steps
    m["sim.path_steps_per_s"] = ratio("sim.path_steps_per_s", steps,
                                      m["sim.simulate_paths_s"])
    m["sim.msq_order_s"] = total("sim.msq_order")
    m["sim.msq_self_s"] = own("sim.msq_order")

    m["oscillator.sample_exact_path_s"] = total("oscillator.sample_exact_path")
    m["oscillator.sample_exact_path_self_s"] = own("oscillator.sample_exact_path")
    m["oscillator.path_bytes_computed"] = attr_sum(
        "oscillator.sample_exact_path", "path_bytes")

    laws = by_name.get("laws.law_NA_N", []) + by_name.get("laws.law_x_N", [])
    m["laws.law_calls"] = len(laws)
    m["laws.law_NA_N_s"] = total("laws.law_NA_N")
    m["laws.law_x_N_s"] = total("laws.law_x_N")
    m["spectral.weight_vector_s"] = total("spectral.weight_vector")
    m["spectral.alpha_hat_s"] = total("spectral.alpha_hat")
    m["laws.interval_probability_s"] = total("laws.interval_probability")
    m["laws.peak_alloc_mb"] = max(
        (s["attrs"].get("peak_alloc", 0) for s in laws), default=0) / 2 ** 20
    time_slope, alloc_slope = _law_slopes(spans, laws)
    if time_slope is None:
        absent += ["laws.time_vs_N_slope", "laws.alloc_vs_N_slope"]
    m["laws.time_vs_N_slope"] = time_slope or 0.0
    m["laws.alloc_vs_N_slope"] = alloc_slope or 0.0

    proofs = by_name.get("ldp._prove_modified_rate", [])
    m["ldp.rate_function_calls"] = calls("ldp.rate_function")
    m["ldp.rate_function_s"] = total("ldp.rate_function")
    m["ldp.preservation_report_s"] = total("ldp.preservation_report")
    m["ldp.proof_self_s"] = own("ldp._prove_modified_rate")
    m["ldp.proof_max_s"] = max((s["end"] - s["start"] for s in proofs),
                               default=0.0)
    m["ldp.proofs_attempted"] = len(proofs)
    m["ldp.proofs_succeeded"] = attr_sum("ldp._prove_modified_rate", "proved")
    m["ldp.proof_success_ratio"] = ratio(
        "ldp.proof_success_ratio", m["ldp.proofs_succeeded"], len(proofs))
    m["ldp.search_s"] = total("ldp.exact_preservation_search")
    m["ldp.search_candidates"] = calls("ldp._exact_at_probes")
    m["ldp.search_hits"] = attr_sum("ldp.exact_preservation_search", "hits")
    m["trace.spans"] = len(spans)
    return m, absent


def self_time_by_thread(spans, self_time, name):
    """Self time of the spans called name, per thread, largest first."""
    by_thread = {}
    for span in spans:
        if span["name"] == name:
            by_thread[span["tid"]] = by_thread.get(span["tid"], 0.0) \
                + self_time[span["id"]]
    return sorted(by_thread.values(), reverse=True)


def _law_slopes(spans, laws):
    """Worst log-log slope of law time and of peak allocation against N.

    Law calls are grouped by command and kind; each group with at least three
    distinct N is fitted over its three largest N, where the per-call
    constant no longer dominates. None when no group qualifies.
    """
    by_id = {s["id"]: s for s in spans}
    groups = {}
    for span in laws:
        if "N" not in span["attrs"]:
            continue
        command = span["parent"]
        while command is not None and by_id[command]["name"] != "cli.main":
            command = by_id[command]["parent"]
        groups.setdefault((command, span["name"]), {})[span["attrs"]["N"]] = span
    time_slopes, alloc_slopes = [], []
    for group in groups.values():
        if len(group) < 3:
            continue
        top = sorted(group)[-3:]
        xs = [math.log(n) for n in top]
        time_slopes.append(_slope(xs, [math.log(max(
            group[n]["end"] - group[n]["start"], 1e-9)) for n in top]))
        alloc_slopes.append(_slope(xs, [math.log(max(
            group[n]["attrs"].get("peak_alloc", 0), 1)) for n in top]))
    if not time_slopes:
        return None, None
    return max(time_slopes), max(alloc_slopes)


def _slope(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
        / sum((x - mx) ** 2 for x in xs)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_metrics(importtime_log):
    """Import cost by package from `python -X importtime` output.

    Each module's self time goes to the outermost third-party package on its
    import chain, so modules that sympy pulls in (mpmath) count as sympy;
    `ldp_osc_self_s` is the self time of the package's own modules.
    """
    # the log lists a module after all of its children (post-order)
    pending = []
    for line in importtime_log.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, _, indent, name = match.groups()
        depth = len(indent) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name, int(self_us), children[::-1]))
    totals = {"numpy": 0, "scipy": 0, "sympy": 0, PACKAGE: 0}

    def visit(node, group):
        _, name, self_us, children = node
        top = name.split(".")[0]
        if top == PACKAGE:
            totals[PACKAGE] += self_us
        elif group is None and top in totals:
            group = top
        if group is not None and top != PACKAGE:
            totals[group] += self_us
        for child in children:
            visit(child, group)

    for node in pending:
        visit(node, None)
    return {
        "import.numpy_s": totals["numpy"] * 1e-6,
        "import.scipy_s": totals["scipy"] * 1e-6,
        "import.sympy_s": totals["sympy"] * 1e-6,
        "import.ldp_osc_self_s": totals[PACKAGE] * 1e-6,
    }
