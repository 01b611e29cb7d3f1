"""The repository's benchmark: four workloads, end to end and layer by layer.

One workload in this process (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload plan_cold --seed 1 --seconds 39 --trace 0

prints a readable report and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``).
The exit code is non-zero when an output check fails.

Without ``--workload`` the harness runs a *run-set*: every workload
``--runs`` times timed plus once traced, each run in its own fresh
subprocess, writes a stamped record under ``--out`` and appends it to
``history.jsonl`` there.  ``--compare A B`` judges two run-sets under the
bounds in ``BENCHMARK.json``; ``--sweep serve_recurring --rates ...`` draws
the latency-vs-offered-rate curve; ``--smoke`` runs everything at toy scale
with the harness's self-tests.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO_ROOT / "src"))

import stats  # noqa: E402
from common import DEFAULT_OUT, DEFAULT_SEED, NAMED, Config, Result  # noqa: E402

WORKLOADS = ("plan_cold", "serve_recurring", "cluster_pack", "crash_resume")


def load_contract() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def load_workload(name: str):
    """Import one workload module (each imports the program under test)."""
    import importlib

    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as exc:
        if exc.name and exc.name.split(".")[0] == "repro":
            raise SystemExit(f"error: the program under test is not at "
                             f"{REPO_ROOT / 'src'}: {exc}") from exc
        raise


# -- one workload, in this process ------------------------------------------

def contract_metrics(result: Result, contract: dict, trace: bool) -> dict:
    """The metrics the contract names for this pass, each with its unit.

    A per-layer metric a workload does not exercise reads 0; an end-to-end
    metric must be measured by every workload.
    """
    declared = contract["per_layer" if trace else "end_to_end"]
    measured = result.per_layer if trace else result.end_to_end
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"error: {result.workload} reports metrics "
                         f"BENCHMARK.json does not declare: {unknown}")
    if not trace:
        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            raise SystemExit(f"error: {result.workload} did not measure "
                             f"{missing}")
    return {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
            for m in declared}


def print_report(result: Result, metrics: dict) -> None:
    """Readable form of one run, ahead of the JSON line."""
    print(f"== {result.workload}: attempted {result.attempted}, "
          f"failed {result.failed}, "
          f"{'correct' if result.correct else 'INCORRECT'}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result.named.items():
        print(f"  {'[' + name + ']':<32} {value:>16.6g} {NAMED[name][0]}")
    if result.samples:
        print("  samples: " + ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in result.samples.items()))
    for error in result.errors:
        print(f"  CHECK FAILED: {error}")


def run_workload(args) -> int:
    """Run ``--workload`` here and print the contract's JSON line last."""
    contract = load_contract()
    goldens = json.loads(Path(args.goldens).read_text())
    cfg = Config(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                 smoke=args.smoke, out=Path(args.out).resolve(),
                 goldens=goldens, rate=args.rate)
    result = load_workload(args.workload).run(cfg)
    metrics = contract_metrics(result, contract, cfg.trace)
    print_report(result, metrics)
    line = {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}
    if args.detail:
        line["detail"] = {"named": result.named, "samples": result.samples,
                          "errors": result.errors}
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if result.correct and result.failed == 0 else 1


# -- run-sets: every workload, each run in a fresh subprocess ----------------

def provenance() -> dict:
    """Where and on what this run-set was measured."""
    import numpy

    def git(*argv: str) -> str | None:
        try:
            proc = subprocess.run(["git", *argv], cwd=REPO_ROOT, timeout=20,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(git("status", "--porcelain")) if sha else None,
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def spawn(args, workload: str, seed: int, trace: int,
          rate: float | None = None) -> dict:
    """One workload run in a fresh interpreter; returns its JSON line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", args.out,
               "--goldens", args.goldens, "--detail",
               "--rate", str(args.rate if rate is None else rate)]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"error: {workload} (seed {seed}, trace {trace}) "
                         f"printed no result, exit {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    detail = line.pop("detail", {})
    return {"seed": seed, "correct": line["correct"],
            "attempted": line["attempted"], "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()},
            "named": detail.get("named", {}),
            "samples": detail.get("samples", {}),
            "errors": detail.get("errors", [])}


def summarize(values: list[float]) -> dict:
    """Sample count, quartiles and spread of one metric's repetitions."""
    q1, q2, q3 = stats.quartiles(values)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "spread": stats.spread(values)}


def run_set(args) -> int:
    """Run every workload ``--runs`` times timed and once traced; record it."""
    contract = load_contract()
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"started": stamp,
              "provenance": provenance(), "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "runs": args.runs, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        timed = []
        for i in range(args.runs):
            # the same seed every time: the spread is run-to-run noise only
            print(f"-- {workload}: timed run {i + 1}/{args.runs} "
                  f"(seed {args.seed})", flush=True)
            timed.append(spawn(args, workload, args.seed, trace=0))
        print(f"-- {workload}: traced run (seed {args.seed})", flush=True)
        traced = spawn(args, workload, args.seed, trace=1)
        ok = ok and all(r["correct"] and not r["failed"]
                        for r in timed + [traced])
        record["workloads"][workload] = {
            "timed": timed, "traced": traced,
            "summary": {name: summarize([r["metrics"][name] for r in timed])
                        for name in timed[0]["metrics"]},
            "named": {name: summarize([r["named"][name] for r in timed])
                      for name in timed[0]["named"]},
        }
    print_run_set(record, units)
    path = out / f"runset-{stamp}-{record['provenance']['git_sha'][:10]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    history = {k: record[k] for k in ("started", "provenance", "seed",
                                      "seconds", "smoke", "runs")}
    history["workloads"] = {
        name: {"summary": w["summary"], "named": w["named"],
               "per_layer": w["traced"]["metrics"],
               "failed": sum(r["failed"] for r in w["timed"]),
               "correct": all(r["correct"] for r in w["timed"])}
        for name, w in record["workloads"].items()}
    with open(out / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(history, separators=(",", ":")) + "\n")
    print(f"\nrecord: {path}\nhistory: {out / 'history.jsonl'}")
    if not ok:
        print("FAILED: an output check failed or an operation failed")
    return 0 if ok else 1


def print_run_set(record: dict, units: dict) -> None:
    """The end-to-end table, the issue's names, then the per-layer table."""
    prov = record["provenance"]
    print(f"\n== run-set {record['started']}  sha {prov['git_sha'][:10]}"
          f"{'+dirty' if prov['git_dirty'] else ''}  {prov['host']}  "
          f"nproc {prov['nproc']}  python {prov['python']}  "
          f"numpy {prov['numpy']}  seed {record['seed']}  "
          f"runs {record['runs']}")
    print(f"{'workload':<16} {'metric':<24} {'median':>14} {'q1':>14} "
          f"{'q3':>14}  unit")
    for workload, body in record["workloads"].items():
        attempted = sum(r["attempted"] for r in body["timed"])
        failed = sum(r["failed"] for r in body["timed"])
        for name, s in body["summary"].items():
            print(f"{workload:<16} {name:<24} {s['median']:>14.6g} "
                  f"{s['q1']:>14.6g} {s['q3']:>14.6g}  {units[name]}")
        for name, s in body["named"].items():
            print(f"{workload:<16} {'[' + name + ']':<24} "
                  f"{s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g}"
                  f"  {NAMED[name][0]}")
        print(f"{workload:<16} operations: attempted {attempted}, "
              f"failed {failed}; samples {body['timed'][0]['samples']}")
        for run in body["timed"] + [body["traced"]]:
            for error in run["errors"]:
                print(f"{workload:<16} CHECK FAILED (seed {run['seed']}): "
                      f"{error}")
    print(f"\n{'per-layer (traced pass)':<32} "
          + " ".join(f"{w:>16}" for w in record["workloads"]))
    names = list(next(iter(record["workloads"].values()))["traced"]["metrics"])
    for name in names:
        cells = [body["traced"]["metrics"][name]
                 for body in record["workloads"].values()]
        if any(cells):
            print(f"{name + ' [' + units[name] + ']':<32} "
                  + " ".join(f"{c:>16.6g}" if c else f"{'-':>16}"
                             for c in cells))


# -- comparing two run-sets --------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Judge run-set B against run-set A under ``BENCHMARK.json``'s bounds."""
    contract = load_contract()
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    print(f"A: {path_a}  sha {a['provenance']['git_sha'][:10]}  "
          f"runs {a['runs']}\nB: {path_b}  sha "
          f"{b['provenance']['git_sha'][:10]}  runs {b['runs']}")
    print(f"{'workload':<16} {'metric':<22} {'A median [q1..q3]':>36} "
          f"{'B median [q1..q3]':>36} {'bound':>6}  verdict")

    def cell(values: list[float]) -> str:
        q1, q2, q3 = stats.quartiles(values)
        return f"{q2:.6g} [{q1:.6g}..{q3:.6g}]"

    regressed = False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        timed_a = a["workloads"][workload]["timed"]
        timed_b = b["workloads"][workload]["timed"]
        # the contract's metrics, then the issue's names this workload reports
        rows = [("metrics", m["name"], m["name"], m["better"], m["bound"])
                for m in contract["end_to_end"]]
        rows += [("named", name, f"[{name}]", better, bound)
                 for name, (_, better, bound) in NAMED.items()
                 if name in timed_a[0]["named"] and name in timed_b[0]["named"]]
        for key, name, shown, better, bound in rows:
            va = [r[key][name] for r in timed_a]
            vb = [r[key][name] for r in timed_b]
            judged = stats.verdict(va, vb, better, bound)
            regressed = regressed or judged == "regressed"
            print(f"{workload:<16} {shown:<22} {cell(va):>36} {cell(vb):>36} "
                  f"{bound:>6.1%}  {judged}")
    return 1 if regressed else 0


# -- latency against offered rate --------------------------------------------

def sweep(args) -> int:
    """``serve_recurring`` at each offered rate, each on a fresh service."""
    if args.sweep != "serve_recurring":
        raise SystemExit("error: only serve_recurring has an offered rate")
    rates = [float(r) for r in args.rates.split(",")]
    print(f"{'rate 1/s':>9} {'arrivals':>9} {'failed':>7} {'p50 s':>9} "
          f"{'p80 s':>9} {'late max ms':>12} {'backlog':>8}  limit")
    best = None
    for rate in rates:
        run = spawn(args, "serve_recurring", args.seed, trace=0, rate=rate)
        named, samples = run["named"], run["samples"]
        met = bool(samples.get("limit_met"))
        if met:
            best = rate if best is None else max(best, rate)
        print(f"{rate:>9.3g} {run['attempted']:>9} {run['failed']:>7} "
              f"{named.get('serve_latency_p50_s', float('nan')):>9.4g} "
              f"{named.get('serve_latency_p80_s', float('nan')):>9.4g} "
              f"{samples.get('late_max_ms', float('nan')):>12.4g} "
              f"{samples.get('backlog_growth', float('nan')):>8.3g}  "
              f"{'met' if met else 'MISSED'}")
    print("highest offered rate meeting the limit (p80 <= 2 s, every run "
          "finished, no growing backlog): "
          + (f"{best:g}/s" if best is not None else "none"))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="drives every generated input (default 1)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="length of serve_recurring's open-loop window, "
                             "one arrival a second and one at each end; the "
                             "batch workloads run fixed counts "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: install the wrappers, report per-layer "
                             "metrics, write trace-<workload>.json")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="where records, traces and journals are written")
    parser.add_argument("--goldens", default=str(HERE / "goldens.json"),
                        help="reference outputs for the default seed")
    parser.add_argument("--smoke", action="store_true",
                        help="toy scale (<20 s) plus the harness self-tests")
    parser.add_argument("--rate", type=float, default=1.0,
                        help="serve_recurring arrivals per second")
    parser.add_argument("--detail", action="store_true",
                        help="add sample counts to the JSON line (run-sets)")
    parser.add_argument("--runs", type=int, default=3,
                        help="timed runs per workload in a run-set, all on "
                             "--seed (default 3)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="judge run-set B against run-set A")
    parser.add_argument("--sweep", metavar="WORKLOAD",
                        help="latency against offered rate (serve_recurring)")
    parser.add_argument("--rates", default="0.5,1,1.5,2",
                        help="offered rates of --sweep, 1/s")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative (numpy takes no such seed)")
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 8 if args.smoke else load_contract()["run_seconds"]
    if args.workload:
        return run_workload(args)
    if args.sweep:
        return sweep(args)
    if args.smoke:
        import selftest

        args.runs, args.rate = 1, 2.0
        return run_set(args) or selftest.main()
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
