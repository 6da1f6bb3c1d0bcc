"""Alternated benchmark pairs of two checkouts, written as one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<sha>.json \\
        --first-seed 701

PARENT and CHANGE are two checkouts of this repository. Each workload
gets ten pairs, the number a gain claim is judged on; pair i runs
``python3 bench/run.py --workload W --seed S --seconds 20 --trace 0``
(bench/README.md's run length) in each checkout, the parent first when i
is even and the change first when i is odd; both runs of a pair use the
same seed. The j-th workload takes seeds first_seed + 10 * j onward, so
no two workloads share one.

From each run it reads the JSON line run.py prints last (attempted and
failed calls, the end-to-end metrics) and the result file run.py leaves in
its checkout's bench/out/results/ (the per-subcommand times, the named rate
and the uncalibrated medians). Apart from what run.py itself leaves in
bench/out/, it writes only the --out file.

The output has the layout of the BENCH_<sha>.json files at the repository
root: per workload the seeds, which side ran first, attempted and failed
calls, and for every metric the per-pair values of both sides, each side's
median and quartiles (statistics.quantiles, n=4) and the pairs the change
won (ties count for neither side); raw_median_s holds each run's
uncalibrated medians and the pairs in which the change's was lower. A
metric in seconds or MB is better lower, a rate higher. The file is
rewritten after every pair, so an interrupted run keeps the pairs it
finished.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("explain", "foil", "train-rank")
SIDES = ("parent", "change")
PAIRS = 10
SECONDS = 20


def run_once(checkout: Path, workload: str, seed: int):
    """(summary line, result file) of one bench/run.py process."""
    proc = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {checkout}: {workload} seed {seed} "
                         f"exited {proc.returncode}")
    summary = json.loads(out.strip().splitlines()[-1])
    result_path = (checkout / "bench" / "out" / "results"
                   / f"{workload}-seed{seed}-trace0-{proc.pid}.json")
    return summary, json.loads(result_path.read_text())


def quartiles(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs) -> dict:
    """One workload's section from its pairs' runs, {side: [(summary,
    result), ...]} in pair order, with its seeds and first sides."""
    section = {
        "seeds": runs["seeds"], "first": runs["first"],
        "attempted": {s: [r[0]["attempted"] for r in runs[s]]
                      for s in SIDES},
        "failed": {s: [r[0]["failed"] for r in runs[s]] for s in SIDES},
        "metrics": {}, "raw_median_s": {},
    }

    def metric_values(run):
        summary, result = run
        values = {k: (m["value"], m["unit"])
                  for k, m in summary["metrics"].items()}
        values.update((k, (m["value"], m["unit"]))
                      for k, m in result["by_op"].items())
        return values

    values = {s: [metric_values(r) for r in runs[s]] for s in SIDES}
    for name, (_, unit) in sorted(values["parent"][0].items()):
        better = "lower" if unit in ("s", "MB") else "higher"
        per = {s: [v[name][0] for v in values[s]] for s in SIDES}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(per["parent"], per["change"]))
        entry = {"unit": unit, "better": better, "change_wins": wins, **per}
        if len(per["parent"]) >= 2:
            for s in SIDES:
                entry[f"{s}_stats"] = quartiles(per[s])
        section["metrics"][name] = entry

    for name in sorted(runs["parent"][0][1]["raw_median_s"]):
        per = {s: [r[1]["raw_median_s"][name] for r in runs[s]]
               for s in SIDES}
        section["raw_median_s"][name] = {
            **per,
            "parent_median": statistics.median(per["parent"]),
            "change_median": statistics.median(per["change"]),
            "change_lower": sum(c < p for p, c
                                in zip(per["parent"], per["change"]))}
    return section


def provenance(result: dict) -> dict:
    return {k: v for k, v in result["provenance"].items()
            if k not in ("workload", "seed", "seconds", "trace")}


def describe(done, prov) -> str:
    seeds = "; ".join(f"{w}: seeds {done[w]['seeds'][0]}-"
                      f"{done[w]['seeds'][-1]}" for w in done)
    return (f"Alternated pairs of bench/run.py --seconds {SECONDS} "
            f"--trace 0, parent commit {prov['parent']['git_sha'][:7]} "
            f"against {prov['change']['git_sha'][:7]}; pair i runs "
            f"the parent first when i is even and the change first when i "
            f"is odd. {seeds}. Each metric: per-pair values, each side's "
            f"median and quartiles (statistics.quantiles, n=4), and the "
            f"pairs the change won (ties count for neither side). Times are "
            f"calibrated seconds (bench/README.md); raw_median_s holds each "
            f"run's uncalibrated medians.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    checkouts = {s: getattr(args, s).resolve() for s in SIDES}
    for s, path in checkouts.items():
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"{s} checkout {path} has no bench/run.py")

    done, prov = {}, {}
    for j, workload in enumerate(WORKLOADS):
        runs = {"seeds": [], "first": [], "parent": [], "change": []}
        for i in range(PAIRS):
            seed = args.first_seed + j * PAIRS + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs["seeds"].append(seed)
            runs["first"].append(order[0])
            for s in order:
                run = run_once(checkouts[s], workload, seed)
                runs[s].append(run)
                prov.setdefault(s, provenance(run[1]))
                metrics = run[0]["metrics"]
                print(f"{workload} pair {i} seed {seed} {s}: "
                      + ", ".join(f"{k} {m['value']:.4g}"
                                  for k, m in metrics.items()),
                      file=sys.stderr, flush=True)
            done[workload] = summarise(runs)
            document = {"description": describe(done, prov),
                        "provenance": prov, "workloads": done}
            args.out.write_text(json.dumps(document, indent=2,
                                           sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
