"""relpoly benchmark: four workloads through the paper's pipeline.

    python3 perfbench/run.py --workload detect|paley|basis|certify|all \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Workloads (closed loop, one client, jobs back to back, no threads):
  detect   detect_polynomial on every gallery entry with four patterns and
           five quantifier-free formulas, plus criterion 5's named fits.
  paley    hom(C4, Paley_37), hom(C4, Paley_61), hom(C5, Paley_37) and the
           Paley experiment for C4 over q = 5..37 with homomorphic images.
  basis    seeded random formulas over one binary relation through
           qf_to_hom_basis, evaluated on seeded random structures.
  certify  gallery_check for every entry and n, the first n past each
           entry's canonical cap, criterion 4's spot checks and criterion 8's
           line-graph quotients.

Every pass runs in a fresh process, because relpoly's lru_caches
(canon._canonical_key, logic._compiled) would otherwise stay warm; a user of
the CLI pays them cold on every invocation.  Passes repeat until --seconds of
pass time is measured (at least one); the result is the median.  Set-up is
measured in five more fresh processes as well.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics of the traced one, with the
spans written to .perfbench_out/.  --smoke runs a reduced pass of every
workload with all reference checks, twice traced, and fails unless every
output is right and the work counters repeat exactly.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  `correct` is false when a job raised or gave an output that differs
from its reference; `failed` also counts jobs that missed their deadline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("detect", "paley", "basis", "certify")
SETUP_PROBES = 5
# Times are at the reference speed (see worker.py); pass_raw_s is the
# unscaled median and calibration_scale the factor applied.
RUN_LIMIT_S = 170.0   # per workload: a run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
WAIT_NOTE = "no layer has a queue or a retry, so wait time does not apply"


class BenchError(Exception):
    pass


class Runner:
    def __init__(self):
        self.started = time.monotonic()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def worker(self, workload: str, seed: int, *flags: str) -> dict:
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError(f"out of time before a {workload} pass could start")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), *flags, "--started-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} worker passed the {RUN_LIMIT_S:g} s run limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Run record

def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """Identifies the measured code where there is no git checkout."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "relpoly").rglob("*.py")) + sorted(HERE.rglob("*.py")) \
        + sorted((HERE / "refs").glob("*.json"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record() -> dict:
    return {
        "commit": _commit(),
        "source": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Measurement

def job_percentiles(latencies: list[float]) -> dict:
    """p50 and p90 of one pass, each only where >= 10 jobs lie beyond it."""
    out = {}
    if len(latencies) >= 2:
        cuts = statistics.quantiles(latencies, n=10)
        for label, cut in (("job_p50_ms", cuts[4]), ("job_p90_ms", cuts[8])):
            if sum(1 for x in latencies if x > cut) >= 10:
                out[label] = cut * 1000
    return out


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    probes = [runner.worker(workload, seed, "--setup-only") for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    passes = []
    while not passes or sum(p["pass_raw_s"] for p in passes) < seconds:
        if passes and runner.remaining() < 1.5 * passes[-1]["pass_raw_s"] + 5:
            break
        passes.append(runner.worker(workload, seed))
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_raw_s": statistics.median(p["setup_raw_s"] for p in probes + passes),
        "pass_raw_s": statistics.median(p["pass_raw_s"] for p in passes),
        "calibration_scale": statistics.median(p["calibration_scale"] for p in passes),
    }
    per_pass = [job_percentiles(p["latencies_s"]) for p in passes]
    for label in ("job_p50_ms", "job_p90_ms"):
        if all(label in pp for pp in per_pass):
            metrics[label] = statistics.median(pp[label] for pp in per_pass)
    return {"passes": passes, "metrics": metrics, "setup_samples": len(setups)}


def _counts_path(workload: str, seed: int) -> Path:
    return OUT_DIR / f"counts-{workload}-seed{seed}.json"


def count_drift(workload: str, seed: int, per_layer: dict, source: str) -> list[str]:
    """Exact counters that differ from the last traced run of the same code,
    workload and seed; the current values replace the stored ones."""
    import tracing

    counts = {name: per_layer[name] for name in tracing.EXACT_COUNTERS}
    path = _counts_path(workload, seed)
    drifted = []
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous.get("source") == source:
            drifted = [n for n, v in counts.items() if previous["counts"].get(n) != v]
    path.write_text(json.dumps({"source": source, "counts": counts}, indent=1))
    return drifted


def measure_traced(runner: Runner, workload: str, seed: int) -> dict:
    import tracing

    plain = runner.worker(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"
    traced = runner.worker(workload, seed, "--trace", "--spans", str(spans))
    per_layer = dict(traced["per_layer"])
    per_layer["trace_overhead_frac"] = traced["pass_s"] / plain["pass_s"] - 1
    drifted = count_drift(workload, seed, per_layer, source_digest())
    per_layer["count_drift"] = len(drifted)
    metrics = {name: per_layer.get(name, 0) for name in tracing.PER_LAYER_UNITS}
    return {"passes": [plain, traced], "metrics": metrics, "drifted": drifted,
            "missing": traced["missing"], "sites": traced["sites"],
            "spans_file": str(spans.relative_to(ROOT)), "spans": traced["spans"]}


# ---------------------------------------------------------------------------
# Reporting

def _outcome(passes) -> tuple[bool, int, int, list]:
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    correct = all(p["wrong"] == 0 for p in passes)
    return correct, attempted, len(failures), failures


def _units(trace: bool) -> dict:
    if trace:
        import tracing

        return tracing.PER_LAYER_UNITS
    return dict(END_TO_END_UNITS, job_p50_ms="ms", job_p90_ms="ms", setup_raw_s="s", pass_raw_s="s",
                calibration_scale="ratio")


def report(workload: str, seed: int, trace: bool, result: dict) -> dict:
    correct, attempted, failed, failures = _outcome(result["passes"])
    units = _units(trace)
    jobs = result["passes"][0]["attempted"]
    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"passes={len(result['passes'])}  jobs/pass={jobs}")
    for name, value in result["metrics"].items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}")
    if not trace:
        for label in ("job_p50_ms", "job_p90_ms"):
            if label not in result["metrics"]:
                print(f"  {label:42s} {'omitted':>16s} (fewer than 10 of {jobs} jobs beyond it)")
        print(f"  {'setup samples':42s} {result['setup_samples']:>16d} fresh processes")
    print(f"  {'failed_frac':42s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    for f in failures:
        print(f"    FAILED {f['job']}: {f['status']}: {f['detail']}")
    if trace:
        for name, sites in result["sites"].items():
            print(f"  {name} wrapped at {', '.join(sites)}")
        print(f"  spans: {result['spans']} in {result['spans_file']}")
        if result["missing"]:
            print(f"  not found, reported as 0: {', '.join(result['missing'])}")
        drift = ", ".join(result["drifted"]) or "none"
        print(f"  exact counters drifted since the last traced run of this code: {drift}")
    print(f"  wait: {WAIT_NOTE}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()
                    if n in units and (trace or n in END_TO_END_UNITS)},
    }


def smoke(runner: Runner, seed: int) -> bool:
    """Reduced pass of every workload: all outputs right, counters repeat."""
    import tracing

    ok = True
    for workload in WORKLOADS:
        plain = runner.worker(workload, seed, "--small")
        traced = [runner.worker(workload, seed, "--small", "--trace") for _ in range(2)]
        correct, attempted, failed, failures = _outcome([plain, *traced])
        counts = [{n: t["per_layer"][n] for n in tracing.EXACT_COUNTERS} for t in traced]
        repeat = counts[0] == counts[1]
        print(f"smoke {workload}: {attempted} jobs, {failed} failed, outputs "
              f"{'right' if correct else 'WRONG'}, counters "
              f"{'repeat' if repeat else 'DRIFT'}, pass {plain['pass_s']:.3f} s")
        for f in failures:
            print(f"    FAILED {f['job']}: {f['status']}: {f['detail']}")
        if traced[0]["missing"]:
            print(f"    traced functions not found: {traced[0]['missing']}")
        ok = ok and correct and repeat and not traced[0]["missing"]
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "relpoly" / "__init__.py").is_file():
        print(f"perfbench: no relpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print("record " + json.dumps(run_record()))
    try:
        if args.smoke:
            ok = smoke(Runner(), args.seed)
            print(json.dumps({"smoke": "pass" if ok else "fail"}))
            return 0 if ok else 1
        trace = bool(args.trace)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in names:
            if trace:
                measured = measure_traced(Runner(), workload, args.seed)
            else:
                measured = measure(Runner(), workload, args.seed, args.seconds)
            results[workload] = report(workload, args.seed, trace, measured)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
