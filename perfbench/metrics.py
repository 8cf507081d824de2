"""Metric arithmetic of the ringsim benchmark.

Pure functions only, so perfbench/test_metrics.py can pin each rule:
percentiles with enough samples beyond them, the model's error read
off a rendered Figure 3 table, failure accounting, the naming rules
BENCHMARK.json must follow, the per-run spread, the compare verdict,
and the "where a fig3 sweep's time goes" breakdown from spans.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(n, q):
    # Rounded first, so 99.9% of 10000 is rank 9990 and not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def nearest_rank(values, q):
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail(values, q):
    """The q-th percentile, or None when fewer than MIN_BEYOND samples
    lie beyond it (the percentile would then be one or two outliers)."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return nearest_rank(values, q)


def parse_figure_rows(text):
    """Rows of a rendered figure table as dicts keyed by column name."""
    header, rows = None, []
    for line in text.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
            continue
        rows.append(dict(zip(header, cells)))
    return rows


def model_err_pct(text, cycle_ns="20"):
    """Mean |model - sim| / sim miss latency over the figure's
    validation pairs, in percent; returns (value, pairs)."""
    sim, model = {}, {}
    for row in parse_figure_rows(text):
        key = (row.get("workload"), row.get("series"))
        if row.get("source") == "sim":
            sim[key] = float(row["miss lat (ns)"])
        elif row.get("source") == "model" and row.get("cycle (ns)") == cycle_ns:
            model[key] = float(row["miss lat (ns)"])
    pairs = [(sim[k], model[k]) for k in sim if k in model and sim[k] > 0]
    if not pairs:
        return None, 0
    return 100.0 * statistics.fmean(abs(m - s) / s for s, m in pairs), len(pairs)


def pair_err_pct(pairs):
    """model_err_pct over explicit (sim, model) miss-latency pairs."""
    pairs = [(s, m) for s, m in pairs if s > 0]
    if not pairs:
        return None
    return 100.0 * statistics.fmean(abs(m - s) / s for s, m in pairs)


def failures(attempted, failed=0, shed=0, timed_out=0, wrong=0):
    """Failure accounting: (attempted, failed, ok_frac).

    Everything that did not produce the right answer in time counts
    against the attempts: errors, sheds, timeouts and wrong bytes. A
    run that attempted nothing counts as one failed attempt."""
    bad = failed + shed + timed_out + wrong
    if attempted <= 0:
        return 1, max(1, bad), 0.0
    bad = min(bad, attempted)
    return attempted, bad, 1.0 - bad / attempted


def spread(values):
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(base, change, better, bound=None):
    """Compare one metric's runs on the parent (base) and a change.

    improved: the change wins at least nine tenths of the pairs (ties
    count for neither) and the medians differ by more than the
    parent's own quartile distance. unresolved: a side's spread is
    wider than the bound and not every change run beats every parent
    run. worse: the change's median is worse by more than the bound
    (for a metric without a bound: the parent wins by the gain rule).
    unchanged: none of these."""
    mb, mc = statistics.median(base), statistics.median(change)
    pairs = list(zip(base, change))
    iqr = 0.0
    if len(base) >= 2:
        q1, _, q3 = statistics.quantiles(base, n=4)
        iqr = q3 - q1
    wins = sum(1 for b, c in pairs if is_better(c, b, better))
    losses = sum(1 for b, c in pairs if is_better(b, c, better))
    if pairs and wins >= 0.9 * len(pairs) and abs(mc - mb) > iqr and \
            is_better(mc, mb, better):
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(mc - mb) > iqr:
            return "worse"
        return "unchanged"
    all_better = all(is_better(c, b, better) for c in change for b in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    worse_by = (mc - mb) if better == "lower" else (mb - mc)
    if mb and worse_by / abs(mb) > bound:
        return "worse"
    return "unchanged"


def check_benchmark_json(doc):
    """Problems with BENCHMARK.json under the benchmark contract."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(doc) != keys:
        problems.append("keys must be exactly %s" % sorted(keys))
        return problems
    if not 1 <= len(doc["paths"]) <= 16 or not all(
            PATH_RE.match(p) and not p.startswith("/") and ".." not in
            p.split("/") for p in doc["paths"]):
        problems.append("bad paths")
    cmd = doc["command"]
    if not 1 <= len(cmd) <= 32 or not all(
            isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
            for c in cmd):
        problems.append("bad command")
    if not isinstance(doc["run_seconds"], int) or \
            not 1 <= doc["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    names = []
    if not 2 <= len(doc["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    for w in doc["workloads"]:
        names.append(w.get("name", ""))
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or \
                "\n" in w["why"]:
            problems.append("workload %r: needs exactly name and a "
                            "one-line why" % w.get("name"))
    sections = (("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
                ("per_layer", {"name", "unit", "better"}, 1, 128))
    for section, fields, lo, hi in sections:
        if not lo <= len(doc[section]) <= hi:
            problems.append("%s: %d to %d metrics" % (section, lo, hi))
        for m in doc[section]:
            names.append(m.get("name", ""))
            if set(m) != fields:
                problems.append("%s %r: keys must be %s"
                                % (section, m.get("name"), sorted(fields)))
                continue
            if not UNIT_RE.match(m["unit"]):
                problems.append("bad unit %r" % m["unit"])
            if m["better"] not in ("lower", "higher"):
                problems.append("bad better %r" % m["better"])
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append("bound of %s must be in (0, 0.25]"
                                % m["name"])
    for n in names:
        if not NAME_RE.match(n):
            problems.append("bad name %r" % n)
    if len(set(names)) != len(names):
        problems.append("names must be used once")
    setup = [m for m in doc["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        problems.append("setup_s (s, lower) is required")
    return problems


def span_s(span):
    return (span["end_us"] - span["start_us"]) / 1e6


def fig3_breakdown(spans, probe_spans):
    """Where one traced fig3 sweep's time goes, per sweep span.

    Blocks run in parallel, so the terms are serial seconds summed over
    blocks. Trace generation happens inside every block (a census or a
    simulation drains its workload's streams once); its cost per
    workload comes from the probe's timed drains and is taken out of
    the block it sits in. A series block is one census plus 12 model
    solves, whose cost also comes from the probe. Runner idle is the
    worker capacity (jobs x wall) that no block or the assembly used.
    """
    gen = {s["attrs"]["workload"]: span_s(s)
           for s in probe_spans if s["name"] == "trace.generate"}
    records = {s["attrs"]["workload"]: s["attrs"]["records"]
               for s in probe_spans if s["name"] == "trace.generate"}
    solve = {}
    for s in probe_spans:
        if s["name"] == "model.solve":
            solve[s["attrs"]["workload"]] = span_s(s) / s["attrs"]["solves"]
    out = []
    for sweep in (s for s in spans if s["name"] == "fig3.sweep"):
        kids = [s for s in spans if s["parent"] == sweep["id"]]
        blocks = [s for s in kids if s["name"] == "figures.block"]
        assemble = sum(span_s(s) for s in kids
                       if s["name"] == "figures.assemble")
        wall = span_s(sweep)
        jobs = sweep["attrs"]["jobs"]
        t = {"trace_gen": 0.0, "census": 0.0, "model": 0.0, "snoop": 0.0,
             "directory": 0.0}
        sim_records = 0
        for b in blocks:
            wl, kind, dur = b["attrs"]["workload"], b["attrs"]["kind"], span_s(b)
            g = gen.get(wl, 0.0)
            t["trace_gen"] += g
            if kind == "series":
                m = 12 * solve.get(wl, 0.0)
                t["model"] += m
                t["census"] += dur - g - m
            else:
                t[kind] += dur - g
                sim_records += records.get(wl, 0)
        serial = sum(span_s(b) for b in blocks)
        capacity = jobs * wall
        t["assemble"] = assemble
        t["runner_idle"] = max(0.0, capacity - serial - assemble)
        sim_s = sum(span_s(b) for b in blocks
                    if b["attrs"]["kind"] in ("snoop", "directory"))
        out.append({
            "wall_s": wall, "jobs": jobs, "serial_s": serial,
            "capacity_s": capacity, "terms_s": t,
            "shares": {k: v / capacity for k, v in t.items()},
            "blocks": len(blocks),
            "max_block_s": max((span_s(b) for b in blocks), default=0.0),
            "snoop_s": sum(span_s(b) for b in blocks
                           if b["attrs"]["kind"] == "snoop"),
            "directory_s": sum(span_s(b) for b in blocks
                               if b["attrs"]["kind"] == "directory"),
            "series_s": sum(span_s(b) for b in blocks
                            if b["attrs"]["kind"] == "series"),
            "sim_records": sim_records, "sim_s": sim_s,
            "assemble_s": assemble,
        })
    return out
