#!/usr/bin/env python3
"""Gate the paper's claims on paper_bench output, and keep the docs'
paper numbers generated from BENCH_paper.json.

Usage:

    paper_check.py gate CURRENT BASELINE
        CURRENT is a fresh `paper_bench --json` document, BASELINE the
        checked-in BENCH_paper.json.  Fails (exit 1) unless
          * exact facts hold: g = d on every binding of every point,
            dynamic-mode branch-and-bound prunes nothing, start-up cost
            evaluations = DAG nodes - choose nodes, and the exhaustive,
            branch-and-bound and executed runs agree with the dynamic plan;
          * the paper's directions hold within the run: static/dynamic
            execution cost > 1 at every point, run-time-opt/dynamic effort
            > 2 at Q5, dynamic/static optimize time <= 3 at Q5;
          * every deterministic column (everything but the TIMED ones)
            equals BASELINE within a relative 1e-9, with the same rows and
            columns.  A change that moves one regenerates BENCH_paper.json.

    paper_check.py docs BENCH_JSON FILE... [--write]
        Renders every `<!-- paper:NAME -->` ... `<!-- /paper:NAME -->`
        block in FILEs from BENCH_JSON; exits 1 when a block differs (or,
        with --write, rewrites it).

Exit codes: 0 ok, 1 check failed, 2 usage error.
"""

import json
import math
import re
import sys

# Columns read from a clock: they vary run to run and are never compared
# with the baseline.  Every other column is deterministic.
TIMED = {
    "fig3": {"static_total", "runtime_opt_total", "dynamic_total", "best"},
    "fig5": {"static_opt_a", "dynamic_opt_e", "dynamic/static"},
    "fig7": {"cpu_measured", "activation_f"},
    "fig8": {"runtime_opt_a+d", "dynamic_f+g", "ratio"},
    "breakeven": {"a", "e", "f_avg", "a_runtime_avg", "N_be_vs_static",
                  "N_be_vs_runtime"},
    "exhaustive": {"opt_time_dyn", "opt_time_exh"},
    "shrink": {"startup_speedup"},
    "startup_bnb": {"cpu_full", "cpu_bnb"},
}
REL_TOL = 1e-9


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("bench") != "paper" or not isinstance(doc.get("rows"), list):
        raise SystemExit(f"paper_check: {path} is not a paper_bench document")
    return {row["name"]: row for row in doc["rows"]}


def section(rows, name):
    return {k: r for k, r in rows.items() if k.split("/")[0] == name}


def same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        if not all(isinstance(v, (int, float)) for v in (a, b)):
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def gate(current_path, baseline_path):
    rows = load_rows(current_path)
    baseline = load_rows(baseline_path)
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    # Exact facts.
    for name, r in section(rows, "fig8").items():
        expect(r["g_equals_d"] is True, f"{name}: g != d on some binding")
    for name, r in section(rows, "fig5").items():
        expect(r["pruned_dynamic"] == 0,
               f"{name}: dynamic mode pruned {r['pruned_dynamic']} plans")
    for name, r in section(rows, "fig7").items():
        expect(r["cost_evals"] == r["nodes"] - r["choose_nodes"],
               f"{name}: {r['cost_evals']} start-up cost evaluations != "
               f"{r['nodes']} nodes - {r['choose_nodes']} choose nodes")
    for sec, flag in (("exhaustive", "costs_agree"),
                      ("startup_bnb", "plans_agree"),
                      ("actual", "results_agree")):
        for name, r in section(rows, sec).items():
            expect(r[flag] is True, f"{name}: {flag} is false")

    # The paper's directions, within this run.
    for name, r in section(rows, "fig4").items():
        expect(r["static/dynamic"] > 1.0,
               f"{name}: static/dynamic execution cost "
               f"{r['static/dynamic']} <= 1")
    for setting in ("sel", "sel+mem"):
        r = rows.get(f"fig8/Q5/{setting}")
        expect(r is not None and r["ratio"] > 2.0,
               f"fig8/Q5/{setting}: run-time-opt/dynamic effort "
               f"{r and r['ratio']} <= 2")
        r = rows.get(f"fig5/Q5/{setting}")
        expect(r is not None and r["dynamic/static"] <= 3.0,
               f"fig5/Q5/{setting}: dynamic/static optimize time "
               f"{r and r['dynamic/static']} > 3")

    # Deterministic columns equal the checked-in baseline.
    for name in sorted(set(baseline) - set(rows)):
        failures.append(f"{name}: row missing from {current_path}")
    for name in sorted(set(rows) - set(baseline)):
        failures.append(f"{name}: row not in {baseline_path}")
    for name in sorted(set(rows) & set(baseline)):
        cur, base = rows[name], baseline[name]
        if set(cur) != set(base):
            failures.append(f"{name}: columns {sorted(set(cur) ^ set(base))} "
                            f"differ from {baseline_path}")
            continue
        timed = TIMED.get(name.split("/")[0], set())
        for key in cur:
            if key not in timed and not same(cur[key], base[key]):
                failures.append(f"{name}: {key} = {cur[key]!r}, "
                                f"{baseline_path} has {base[key]!r}")

    for failure in failures:
        print(f"paper: FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    q5 = rows["fig8/Q5/sel"]
    print(f"paper: {len(rows)} rows ok; g = d on every binding; "
          f"deterministic columns match {baseline_path}; Q5 run-time-opt/"
          f"dynamic {q5['ratio']:.2f}x, dynamic/static optimize "
          f"{rows['fig5/Q5/sel']['dynamic/static']:.2f}x")
    return 0


# ---- Docs rendering ----------------------------------------------------


def fmt(value, spec):
    if value is None:
        return "never"
    if isinstance(value, bool):
        return "yes" if value else "**NO**"
    if isinstance(value, str):
        return value
    return format(value, spec)


def table(rows, columns):
    """Markdown table; columns are (header, key, format spec) triples."""
    lines = ["| " + " | ".join(h for h, _, _ in columns) + " |",
             "|" + "---|" * len(columns)]
    for r in rows.values():
        lines.append("| " + " | ".join(fmt(r[k], spec)
                                       for _, k, spec in columns) + " |")
    return "\n".join(lines)


def span(values, spec):
    lo, hi = format(min(values), spec), format(max(values), spec)
    return lo if lo == hi else f"{lo}–{hi}"


def counts(values):
    """Distinct break-even counts as "2–3", or "never"."""
    ordered = sorted(set(values), key=lambda v: math.inf if v is None else v)
    return "–".join(fmt(v, "g") for v in ordered)


POINT = [("query", "query", ""), ("setting", "setting", ""),
         ("vars", "uncertain_vars", "d")]


def render_readme(rows):
    fig4 = [r["static/dynamic"] for r in section(rows, "fig4").values()]
    fig5 = [r["dynamic/static"] for r in section(rows, "fig5").values()]
    f5, f6 = rows["fig5/Q5/sel"], rows["fig6/Q5/sel"]
    f7 = rows["fig7/Q5/sel"]
    evals_ok = all(r["cost_evals"] == r["nodes"] - r["choose_nodes"]
                   for r in section(rows, "fig7").values())
    gd = all(r["g_equals_d"] for r in section(rows, "fig8").values())
    be = section(rows, "breakeven").values()
    by_query = {}
    for r in be:
        by_query.setdefault(r["query"], set()).add(r["N_be_vs_runtime"])
    by_value = {}
    for query, values in by_query.items():
        by_value.setdefault(counts(values), []).append(query)
    vs_runtime = "; ".join(f"{v} at {', '.join(qs)}"
                           for v, qs in by_value.items())
    io = [r["io_time_ratio"] for r in section(rows, "actual").values()]
    out = [
        "| Paper result | Reproduction |",
        "|---|---|",
        "| Fig. 4: dynamic plans beat static plans 5–24x in avg execution "
        f"cost | {span(fig4, '.1f')}x across Q1–Q5, both uncertainty "
        "settings |",
        "| Fig. 5: dynamic optimization ≤ 3x slower, due to weakened B&B | "
        f"{span(fig5, '.1f')}x; at Q5 pruning collapses from "
        f"{f5['pruned_static']} to {f5['pruned_dynamic']} exactly as §3 "
        "predicts |",
        "| Fig. 6: dynamic plans much larger, polynomial thanks to DAG "
        f"sharing | {f6['dynamic_nodes']} vs {f6['static_nodes']} nodes at "
        f"Q5 — representing {f6['embedded_plans']:.1e} embedded plans |",
        "| Fig. 7: start-up CPU small, parallels plan size | "
        + ("one cost evaluation per non-choose DAG node at every point"
           if evals_ok else "**cost evaluations != DAG nodes - choose "
           "nodes**")
        + f"; {f7['cpu_measured'] * 1e3:.2f} ms measured at Q5 "
        f"({f7['cpu_modeled']:.4f} s paper-style model) |",
        "| Fig. 8: dynamic beats run-time optimization >2x at Q5; g = d "
        f"always | {rows['fig8/Q5/sel']['ratio']:.2f}x (sel) and "
        f"{rows['fig8/Q5/sel+mem']['ratio']:.2f}x (sel+mem) at Q5; "
        + ("g = d on every binding of every point" if gd
           else "**g != d on some binding**") + " |",
        "| Break-even vs static = 1; vs run-time opt 2–4 | vs static "
        f"{counts(r['N_be_vs_static'] for r in be)} everywhere; vs "
        f"run-time opt {vs_runtime} |",
        "| beyond the paper | plans *executed* on the real engine: "
        f"{span(io, '.1f')}x less device-weighted physical I/O |",
    ]
    return "\n".join(out)


BLOCKS = {
    "readme": render_readme,
    "fig3": lambda rows: table(section(rows, "fig3"), [
        ("k", "invocations", "d"), ("static", "static_total", ".1f"),
        ("run-time opt", "runtime_opt_total", ".1f"),
        ("dynamic", "dynamic_total", ".1f"), ("best", "best", "")]),
    "fig4": lambda rows: table(section(rows, "fig4"), POINT + [
        ("static c̄", "avg_static_c", ".3f"),
        ("dynamic ḡ", "avg_dynamic_g", ".3f"),
        ("ratio", "static/dynamic", ".1f")]),
    "fig5": lambda rows: table(section(rows, "fig5"), POINT + [
        ("static a (s)", "static_opt_a", ".6f"),
        ("dynamic e (s)", "dynamic_opt_e", ".6f"),
        ("dynamic/static", "dynamic/static", ".2f"),
        ("considered s", "considered_static", "d"),
        ("considered d", "considered_dynamic", "d"),
        ("pruned s", "pruned_static", "d"),
        ("pruned d", "pruned_dynamic", "d")]),
    "fig6": lambda rows: table(section(rows, "fig6"), POINT + [
        ("static nodes", "static_nodes", "d"),
        ("dynamic nodes", "dynamic_nodes", "d"),
        ("choose nodes", "choose_nodes", "d"),
        ("tree expansion", "dyn_tree_nodes", ".2g"),
        ("embedded plans", "embedded_plans", ".2g"),
        ("module KB", "module_KB", ".1f")]),
    "fig7": lambda rows: table(section(rows, "fig7"), POINT + [
        ("nodes", "nodes", "d"), ("choose", "choose_nodes", "d"),
        ("cost evals", "cost_evals", "g"),
        ("CPU measured (s)", "cpu_measured", ".6f"),
        ("CPU modeled (s)", "cpu_modeled", ".4f"),
        ("transfer (s)", "io_transfer", ".4f"),
        ("activation f (s)", "activation_f", ".3f")]),
    "fig8": lambda rows: table(section(rows, "fig8"), POINT + [
        ("run-time a+d (s)", "runtime_opt_a+d", ".3f"),
        ("dynamic f+g (s)", "dynamic_f+g", ".3f"),
        ("ratio", "ratio", ".2f"), ("g = d", "g_equals_d", "")]),
    "breakeven": lambda rows: table(section(rows, "breakeven"), POINT + [
        ("a", "a", ".3f"), ("e", "e", ".3f"), ("f̄", "f_avg", ".3f"),
        ("ā run-time", "a_runtime_avg", ".3f"), ("c̄", "c_avg", ".3f"),
        ("ḡ = d̄", "g_avg", ".3f"), ("N_be vs static", "N_be_vs_static", "g"),
        ("N_be vs run-time", "N_be_vs_runtime", "g")]),
    "actual": lambda rows: table(section(rows, "actual"), [
        ("query", "query", ""), ("reads static", "reads_static", ".1f"),
        ("reads dynamic", "reads_dynamic", ".1f"),
        ("I/O s static", "io_s_static", ".3f"),
        ("I/O s dynamic", "io_s_dynamic", ".3f"),
        ("ratio", "io_time_ratio", ".2f"), ("avg rows", "avg_rows", ".1f"),
        ("agree", "results_agree", "")]),
    "startup_bnb": lambda rows: table(section(rows, "startup_bnb"), POINT + [
        ("nodes", "nodes", "d"), ("evals full", "evals_full", ".1f"),
        ("evals B&B", "evals_bnb", ".1f"), ("saved %", "saved%", ".1f"),
        ("CPU full (s)", "cpu_full", ".6f"), ("CPU B&B (s)", "cpu_bnb", ".6f"),
        ("agree", "plans_agree", "")]),
    "shrink": lambda rows: table(section(rows, "shrink"), POINT + [
        ("nodes full", "nodes_full", "d"),
        ("nodes shrunk", "nodes_shrunk", "d"),
        ("choose full", "choose_full", "d"),
        ("choose shrunk", "choose_shrunk", "d"),
        ("start-up speedup", "startup_speedup", ".2f"),
        ("avg regret %", "fresh_regret%", ".2f"),
        ("worst regret %", "worst_regret%", ".1f")]),
    "exhaustive": lambda rows: table(section(rows, "exhaustive"), POINT + [
        ("nodes dynamic", "nodes_dynamic", "d"),
        ("nodes exhaustive", "nodes_exhaustive", "d"),
        ("optimize dynamic (s)", "opt_time_dyn", ".3f"),
        ("optimize exhaustive (s)", "opt_time_exh", ".3f"),
        ("costs agree", "costs_agree", "")]),
    "skew": lambda rows: table(section(rows, "skew"), [
        ("query", "query", ""), ("static", "static", ".3f"),
        ("uniform", "dyn_uniform", ".3f"),
        ("histograms", "dyn_histograms", ".3f"),
        ("observed", "dyn_observed", ".3f"), ("best", "best", "")]),
}

BLOCK_RE = re.compile(r"(<!-- paper:(\w+) -->\n)(.*?)(<!-- /paper:\2 -->)",
                      re.S)


def docs(bench_path, paths, write):
    rows = load_rows(bench_path)
    status = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        stale = []

        def render(match):
            name = match.group(2)
            if name not in BLOCKS:
                raise SystemExit(f"paper_check: {path}: unknown block {name}")
            body = BLOCKS[name](rows) + "\n"
            if body != match.group(3):
                stale.append(name)
            return match.group(1) + body + match.group(4)

        rendered = BLOCK_RE.sub(render, text)
        if write and stale:
            with open(path, "w", encoding="utf-8") as f:
                f.write(rendered)
            print(f"{path}: rewrote {', '.join(stale)}")
        elif stale:
            print(f"paper: {path}: blocks {', '.join(stale)} differ from "
                  f"{bench_path}; run tools/paper_check.py docs "
                  f"{bench_path} {path} --write", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: paper blocks match {bench_path}")
    return status


def main(argv):
    if len(argv) == 3 and argv[0] == "gate":
        return gate(argv[1], argv[2])
    if len(argv) >= 3 and argv[0] == "docs":
        write = "--write" in argv
        files = [a for a in argv[2:] if a != "--write"]
        return docs(argv[1], files, write)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
