"""Benchmark of the toda-whittaker library: seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload operator --seed 1 --seconds 55 --trace 0

The seed fixes a pass of cases, generated before any timing.  One client in
one process issues the pass back to back (a closed loop: the next case starts
when the previous one returns), and repeats it while whole passes fit in
``--seconds``; the first pass always runs.  numpy's BLAS is pinned to one
thread.  Every case's first output is checked against its reference after
the timed loop, and every repeat's output against the first, bit for bit.

``--trace 0`` reports the end-to-end metrics: cases per second, per-case
latency (median and p90 over every issue), the share of cases that passed,
set-up time (the median of several fresh-process imports plus warm-up) and
peak RSS.  ``--trace 1`` issues each case of one pass twice, untraced and
with every layer boundary wrapped in a span, and reports the per-layer
metrics of the traced calls and the tracing overhead; the spans are written
to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` is the
number of cases in the pass and ``failed`` the number of them that raised,
did not converge, missed their reference bound or were not bit-identical
across passes, so both are fixed by the seed.  ``correct`` is false when a
failure is not a known, labelled defect (see ``workloads.MACDONALD_DEFECT``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 7  # this process plus six fresh ones
#: Cases in one pass of each workload.  The pass is fixed by the seed; the
#: timed loop repeats it while whole passes fit in ``--seconds``.
PASS_CASES = {"duality": 52, "operator": 18, "coordinate": 1000}

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_ms_p50", "ms"),
    ("case_ms_p90", "ms"),
    ("pass_frac", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("duality", "operator", "coordinate"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cases", type=int, default=0,
                   help="cases in one pass (default: the workload's own pass size)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(workload: str) -> float:
    """Seconds to import the library (with numpy) and warm it up."""
    t0 = time.perf_counter()
    import workloads

    workloads.warm_up(workload)
    return time.perf_counter() - t0


def _probe_setup(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Outcome:
    __slots__ = ("case", "out", "error", "seconds")

    def __init__(self, case, out, error, seconds):
        self.case = case
        self.out = out
        self.error = error
        self.seconds = seconds


def _issue(case, tracer=None, index=-1) -> Outcome:
    if tracer is not None:
        tracer.case = index
    t0 = time.perf_counter()
    try:
        out, error = case.call(), ""
    except Exception as exc:  # a failing case is counted, and the loop goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(case, out, error, time.perf_counter() - t0)


def run_passes(cases, seconds: float) -> tuple[list[list[Outcome]], float]:
    """Issue the pass of cases back to back, and repeat it while another pass
    of the mean duration so far ends within ``seconds``; the first pass always
    runs.  Only whole passes run, so every case is issued equally often.
    Returns every case's outcomes, first pass first, and the loop's wall
    time."""
    runs: list[list[Outcome]] = [[] for _ in cases]
    start = time.perf_counter()
    passes = 0
    while True:
        for i, case in enumerate(cases):
            runs[i].append(_issue(case))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return runs, elapsed


def judge(runs) -> list[dict]:
    """Check every case's first outcome against its reference, and its later
    outcomes against the first bit for bit.  Returns one record per failing
    case."""
    from workloads import fingerprint, unconverged

    failures = []
    for i, (o, *again) in enumerate(runs):
        reason, verdict = "", None
        if o.error:
            reason = "raised " + o.error
        elif unconverged(o.out):
            reason = "converged=False"
        else:
            try:
                verdict = o.case.check(o.out)
            except Exception as exc:  # a malformed output is a failed case
                reason = f"check raised {type(exc).__name__}: {exc}"
            else:
                if not verdict.ok:
                    reason = "missed bound" + (f" ({verdict.detail})" if verdict.detail else "")
        if not reason and any(a.error or fingerprint(a.out) != fingerprint(o.out) for a in again):
            reason = "not bit-identical across passes"
        if reason:
            failures.append({
                "index": i,
                "kind": o.case.kind,
                "params": o.case.params,
                "reason": reason,
                "value": _short(o.out),
                "reference": _short(verdict.reference) if verdict else None,
                "error": verdict.error if verdict else None,
                "bound": verdict.bound if verdict else None,
                "known_defect": o.case.defect,
            })
    return failures


def _short(v):
    text = repr(getattr(v, "value", v))
    return text if len(text) <= 120 else text[:117] + "..."


def _quantile(values, q: float) -> float:
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def _report(args, attempted, failures, metrics, units) -> int:
    known = sum(1 for f in failures if f["known_defect"])
    for f in failures:
        tag = f" [known defect: {f['known_defect']}]" if f["known_defect"] else ""
        print(f"FAIL case {f['index']} {f['kind']} {f['params']}: {f['reason']}; "
              f"value={f['value']} reference={f['reference']} "
              f"error={f['error']} bound={f['bound']}{tag}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} cases, "
          f"{len(failures)} failed ({known} known defects), "
          f"fail_frac {len(failures) / max(attempted, 1):.6g}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": known == len(failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "toda_whittaker", "__init__.py")):
        print(f"error: the library source is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        print(repr(measure_setup(args.workload)))
        return 0

    t_start = time.perf_counter()
    setups = [measure_setup(args.workload)]
    import workloads

    cases = workloads.build(args.workload, args.seed, args.cases or PASS_CASES[args.workload])
    if args.trace:
        return _traced(args, cases)
    setups += [_probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    t_loop = time.perf_counter()
    runs, elapsed = run_passes(cases, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_check = time.perf_counter()
    failures = judge(runs)
    issued = sum(len(r) for r in runs)
    print(f"phases: set-up probes {t_loop - t_start:.2f} s, loop {elapsed:.2f} s "
          f"({issued} cases issued, {issued / len(cases):.2f} passes), "
          f"checks {time.perf_counter() - t_check:.2f} s")
    # Every case ran in the same number of whole passes, so the pooled issues
    # keep the pass's mix of cases.
    ms = [o.seconds * 1e3 for r in runs for o in r]
    metrics = {
        "cases_per_s": len(ms) / (sum(ms) / 1e3),
        "case_ms_p50": statistics.median(ms),
        "case_ms_p90": _quantile(ms, 0.9) if len(ms) > 1 else ms[0],
        "pass_frac": 1.0 - len(failures) / len(runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return _report(args, len(runs), failures, metrics, dict(END_TO_END))


def _traced(args, cases) -> int:
    """Issue each case of one pass untraced and traced, back to back, so that
    both calls see the same machine state; the order alternates, since a
    repeated call runs a little faster."""
    import tracing

    tracer = tracing.Tracer()

    def traced(case, i):
        tracer.install()
        try:
            return _issue(case, tracer, i)
        finally:
            tracer.uninstall()

    runs = []
    for i, case in enumerate(cases):
        if i % 2:
            replay = traced(case, i)
            runs.append([_issue(case), replay])
        else:
            runs.append([_issue(case), traced(case, i)])
    failures = judge(runs)
    metrics = tracer.metrics(sum(r[1].seconds for r in runs), sum(r[0].seconds for r in runs))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed,
                  "cases": [r[0].case.kind for r in runs]})
    return _report(args, len(runs), failures, metrics, dict(tracing.per_layer_metrics()))


if __name__ == "__main__":
    sys.exit(main())
