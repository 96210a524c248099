"""One pass of one workload in a fresh process; run.py starts it.

    worker.py --workload W --seed S --started-at T [--setup-only] [--trace]
              [--small] [--spans FILE]

T is `time.monotonic()` read by the parent just before starting this process
(the clock is shared by all processes), so setup_s covers interpreter start,
`import relpoly` and building the inputs.  Prints one JSON object.

Times are reported at the reference speed.  The machines this runs on are
shared, and their speed drifts by 10-30% over minutes; that drift, not the
code, dominated the spread of raw pass times between runs.  So a pass samples
the machine's speed as it goes: every CALIBRATION_PERIOD_S of CPU time a
SIGPROF handler times one fixed piece of pure-Python work that does not touch
relpoly (garbage collection off).  A time t measured while that work took a
median of c seconds is reported as t * CALIBRATION_REF_S / c.  The time the
handler spends inside a job is taken out of the job's latency.  Raw times are
reported alongside.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


# Median sample on the reference machine: 2 vCPUs of an Intel Xeon at
# 2.1 GHz, Python 3.11.
CALIBRATION_REF_S = 0.0004
CALIBRATION_PERIOD_S = 0.2   # of process CPU time between samples
CALIBRATION_MIN_SAMPLES = 10


def _calibration_work() -> int:
    table = {}
    seen = set()
    for i in range(1000):
        key = (i, i * 7 % 13)
        table[key] = i
        seen.add(key)
    return sum(v for k, v in table.items() if k in seen)


class Calibration:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0   # wall time spent sampling, to take out of latencies

    def sample(self) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _calibration_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - start

    def start(self) -> None:
        for _ in range(CALIBRATION_MIN_SAMPLES):
            self.sample()
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self) -> float:
        """Factor from this machine's current speed to the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


class JobDeadline(BaseException):
    """Raised into a job that outlives its deadline.  A BaseException, so no
    handler inside the library swallows it."""


class Deadline:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise JobDeadline()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(jobs, deadline_s: float, tracer=None) -> dict:
    """Run every job back to back; compare each output with its reference,
    untimed, afterwards."""
    timer = Deadline()
    calibration = Calibration()
    latencies = []
    failures = []
    wrong = 0
    calibration.start()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(index)
        status, detail = "ok", None
        sampling = calibration.spent
        start = time.perf_counter()
        try:
            try:
                timer.arm(deadline_s)
                output = job.run()
            finally:
                timer.disarm()
            latency = time.perf_counter() - start - (calibration.spent - sampling)
        except JobDeadline:
            status, detail, latency = "deadline", f"missed the {deadline_s:g} s deadline", None
        except Exception as exc:  # a job that raises is a failed job; keep going
            latency = time.perf_counter() - start - (calibration.spent - sampling)
            status = "raised"
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        latencies.append(latency)
        if status == "ok":
            if tracer is not None:
                tracer.paused = True
            try:
                expected = job.reference()
                if output != expected:
                    detail = f"output {output!r} != reference {expected!r}"
            except Exception as exc:  # a reference that cannot be computed is a failure
                detail = f"reference raised {exc!r}"
            finally:
                if tracer is not None:
                    tracer.paused = False
            if detail is not None:
                status = "wrong"
        if status != "ok":
            wrong += status != "deadline"
            failures.append({"job": job.id, "status": status, "detail": detail})
    calibration.stop()
    scale = calibration.scale()
    # A job that missed its deadline counts the deadline itself, unscaled.
    raw = [deadline_s if x is None else x for x in latencies]
    scaled = [deadline_s if x is None else x * scale for x in latencies]
    return {
        "pass_s": sum(scaled),
        "pass_raw_s": sum(raw),
        "latencies_s": scaled,
        "calibration_scale": scale,
        "calibration_samples": len(calibration.samples),
        "attempted": len(jobs),
        "failures": failures,
        "wrong": wrong,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import workloads

    jobs, deadline_s = workloads.build(args.workload, args.seed, args.small)
    setup_raw_s = time.monotonic() - args.started_at
    calibration = Calibration()
    for _ in range(CALIBRATION_MIN_SAMPLES):
        calibration.sample()
    result = {"setup_s": setup_raw_s * calibration.scale(), "setup_raw_s": setup_raw_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        result.update(run_pass(jobs, deadline_s, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["per_layer"] = tracer.metrics()
            result["missing"] = tracer.missing
            result["sites"] = tracer.sites
            if args.spans:
                result["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
