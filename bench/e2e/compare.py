#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results (parent vs change).

    compare.py PARENT CHANGE     each a directory searched for
                                 *.result.json (run.sh --out) or a file
    compare.py --selftest        runs the fixtures in testdata/
    compare.py --check-list BENCHMARK.json < <(d3t_bench --list)

For every workload and end-to-end metric it prints each side's median
and quartiles and a verdict, using the metric's bound from
BENCHMARK.json:

  worse       the change's median is worse by more than the bound
  better      better by more than the bound
  same        within the bound
  unresolved  a side's quartile spread exceeds the bound, so the runs
              cannot tell (unless every change run beats every parent
              run: better)

Quality outputs (loss_pct, messages) must match exactly for every
workload and seed both sides ran, and the failed/attempted ratio must
not rise. Exit status: 0 clean, 1 on a regression, a higher failed
ratio or a quality drift, 2 on bad input. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_results(path):
    """Result records from a run.sh --out directory or one JSON file
    (a record or a list of records)."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.result.json"),
                                 recursive=True))
        records = []
        for name in files:
            with open(name) as f:
                records.append(json.load(f))
        return records
    with open(path) as f:
        data = json.load(f)
    return data if isinstance(data, list) else [data]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(parent, change, better, bound):
    """One of worse / better / same / unresolved (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    if max(spread(parent), spread(change)) > bound:
        all_better = all(sign * (c - p) < 0 for c in change for p in parent)
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "same"


def compare(bench, parent, change, out=sys.stdout):
    """Prints the comparison; returns (exit code, {workload/metric:
    verdict})."""
    verdicts = {}
    failing = False
    untraced = lambda rs: [r for r in rs if r.get("trace", 0) == 0]
    workloads = sorted({r["workload"] for r in parent + change})
    header = "%-13s %-14s %-32s %-32s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3] n",
        "change median [q1, q3] n", "change", "verdict")
    print(header, file=out)
    for w in workloads:
        p_runs = [r for r in untraced(parent) if r["workload"] == w]
        c_runs = [r for r in untraced(change) if r["workload"] == w]
        if not p_runs or not c_runs:
            print("%-13s missing on the %s side" %
                  (w, "parent" if not p_runs else "change"), file=out)
            verdicts[w + "/*"] = "missing"
            failing = True
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs
                 if name in r["metrics"]]
            if not p or not c:
                continue
            v = verdict(p, c, metric["better"], metric["bound"])
            verdicts[w + "/" + name] = v
            failing = failing or v == "worse"
            p_med, c_med = statistics.median(p), statistics.median(c)
            fmt = lambda vs: "%.5g [%.5g, %.5g] %d" % (
                quartiles(vs)[1], quartiles(vs)[0], quartiles(vs)[2], len(vs))
            print("%-13s %-14s %-32s %-32s %+7.2f%%  %s" % (
                w, name, fmt(p), fmt(c),
                100.0 * (c_med - p_med) / p_med if p_med else 0.0, v),
                file=out)

        ratio = lambda rs: (sum(r["failed"] for r in rs) /
                            max(1, sum(r["attempted"] for r in rs)))
        all_p = [r for r in parent if r["workload"] == w]
        all_c = [r for r in change if r["workload"] == w]
        if ratio(all_c) > ratio(all_p):
            verdicts[w + "/failed_ratio"] = "worse"
            failing = True
            print("%-13s failed_ratio rose from %.4g to %.4g" %
                  (w, ratio(all_p), ratio(all_c)), file=out)
        else:
            verdicts[w + "/failed_ratio"] = "same"

        p_quality = {r["seed"]: r.get("quality") for r in p_runs}
        drift = False
        for r in c_runs:
            q = p_quality.get(r["seed"])
            if q is not None and r.get("quality") is not None \
                    and q != r["quality"]:
                drift = True
                print("%-13s quality drift at seed %s: %s -> %s" %
                      (w, r["seed"], q, r["quality"]), file=out)
        verdicts[w + "/quality"] = "drift" if drift else "same"
        failing = failing or drift
    return (1 if failing else 0), verdicts


def check_list(bench, listing):
    """Diffs `d3t_bench --list` output against BENCHMARK.json."""
    want = {("workload", w["name"]) for w in bench["workloads"]}
    for kind in ("end_to_end", "per_layer"):
        want |= {(kind, m["name"], m["unit"], m["better"])
                 for m in bench[kind]}
    have = {tuple(line.split()) for line in listing.splitlines()
            if line.strip()}
    for entry in sorted(want - have):
        print("only in BENCHMARK.json: " + " ".join(entry))
    for entry in sorted(have - want):
        print("only in d3t_bench --list: " + " ".join(entry))
    return 0 if want == have else 1


def selftest(bench):
    failures = 0
    fixtures = sorted(glob.glob(os.path.join(HERE, "testdata", "*.json")))
    for path in fixtures:
        with open(path) as f:
            fixture = json.load(f)
        with open(os.devnull, "w") as sink:
            code, verdicts = compare(bench, fixture["parent"],
                                     fixture["change"], out=sink)
        wrong = {k: (v, verdicts.get(k)) for k, v in fixture["expect"].items()
                 if verdicts.get(k) != v}
        ok = code == fixture["expect_exit"] and not wrong
        failures += not ok
        print("%-4s %s%s" % ("ok" if ok else "FAIL",
                             os.path.basename(path),
                             "" if ok else " exit %d, wrong %s" % (code, wrong)))
    if not fixtures:
        print("no fixtures found")
        return 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--check-list", metavar="BENCHMARK_JSON")
    args = parser.parse_args()
    try:
        if args.check_list:
            with open(args.check_list) as f:
                return check_list(json.load(f), sys.stdin.read())
        with open(args.benchmark) as f:
            bench = json.load(f)
        if args.selftest:
            return selftest(bench)
        if not args.parent or not args.change:
            parser.print_usage()
            return 2
        return compare(bench, load_results(args.parent),
                       load_results(args.change))[0]
    except (OSError, ValueError, KeyError) as error:
        print("compare.py: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
