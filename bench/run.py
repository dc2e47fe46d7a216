"""bellmodel benchmark: cold CLI requests in a closed loop, and a traced replay.

Run from the repository root:

    python3 bench/run.py --workload cli-quick --seed 1 --seconds 25 --trace 0

With ``--trace 0`` one client sends cold ``python -m bellmodel ...``
requests from the workload's seeded stream, each after the previous one
has exited and its output has been checked (a closed loop with one client;
nothing runs in parallel).  Among them, several cold processes that only
run ``import bellmodel`` give the set-up time.

The speed of a shared host drifts by a third or more over tens of seconds,
for CPU time as much as for wall time.  So a fixed reference process, which
imports numpy and runs a fixed loop and uses no bellmodel code, runs before
the first measured process and after every one.  Each measured wall time is
scaled by ``REFERENCE_S`` over the mean wall time of the two reference
processes around it: the time the process would have taken at the speed at
which the reference takes ``REFERENCE_S``.  The declared times
(``latency_p50_s``, ``setup_s``) are these adjusted times; the raw wall
times are reported next to them.  With ``--trace 1`` the
same requests are replayed in one process by replay.py, which records
spans around the public calls and reports per-layer self times.

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records,
spans and the SHA-256 of every sample output go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = OUT_DIR / "sample_sha256.json"

#: Cold `import bellmodel` processes per run; set-up time is their median.
#: The machine's speed drifts by up to a quarter over seconds, so a closed-loop
#: run spreads them evenly over its length instead of running them up front.
SETUP_PROCESSES = 7
#: `python -X importtime` processes per traced run; each module's import is their median.
IMPORTTIME_PROCESSES = 3
#: A request that has not exited after this long is killed and counts as failed.
REQUEST_TIMEOUT_S = 60.0
#: The reference process: a cold interpreter that imports numpy and runs a
#: fixed loop of the kind the requests run (integer formatting, array work).
REFERENCE_CODE = (
    "import numpy as np\n"
    "n = sum(len(f'{k},{k & 1},{k % 3}') for k in range(150_000))\n"
    "n += int(np.sort(np.arange(300_000, dtype=np.int64) * 7919 % 300_007)[-1])\n"
)
#: Nominal wall time (s) of the reference process: about its median on the
#: 2-vCPU shared host the benchmark was tuned on, so adjusted times read close
#: to seconds there.  It is a fixed scale: changing it changes every adjusted time.
REFERENCE_S = 0.2

#: End-to-end metrics compared between versions; every workload reports all of them.
END_TO_END = {"setup_s": "s", "latency_p50_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    """The whole environment of every child: no inherited settings leak in."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
        # one BLAS thread: requests never run in parallel, and nproc may be 2
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


@dataclass
class Child:
    rc: int
    out: bytes
    err: bytes
    wall_s: float
    maxrss_mb: float


def run_child(argv: list[str], timeout: float = REQUEST_TIMEOUT_S) -> Child:
    """Spawn ``argv``, read stdout to the end, reap it with wait4.

    ``wall_s`` runs from spawn until the process has exited with its stdout
    fully read; ``maxrss_mb`` is the child's own peak resident set.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer = threading.Timer(timeout, proc.kill)
    try:
        reader.start()
        killer.start()
        out = proc.stdout.read()
        reader.join()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, err[0] if err else b"", wall, usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# Provenance and set-up
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def provenance(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "child_env": child_env(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one request at a time",
    }


SETUP_ARGV = [sys.executable, "-c", "import bellmodel"]


def require_ok(child: Child, what: str) -> Child:
    """``child``, or exit with its stderr if it failed."""
    if child.rc != 0:
        raise SystemExit(f"error: {what} failed:\n{child.err.decode(errors='replace')}")
    return child


def setup_probe() -> float:
    """Wall time of one cold process that only runs ``import bellmodel``."""
    return require_ok(run_child(SETUP_ARGV), "`import bellmodel`").wall_s


def reference_probe() -> float:
    """Wall time of one reference process."""
    return require_ok(run_child([sys.executable, "-c", REFERENCE_CODE]), "the reference process").wall_s


class ReferencePaced:
    """Runs children between reference processes and scales their wall times.

    ``run`` returns the child and its adjusted time: its wall time times
    ``REFERENCE_S`` over the mean of the reference times just before and just
    after it.
    """

    def __init__(self) -> None:
        self.before = reference_probe()
        self.references = [self.before]

    def run(self, argv: list[str]) -> tuple[Child, float, float]:
        child = run_child(argv)
        after = reference_probe()
        self.references.append(after)
        reference = (self.before + after) / 2
        self.before = after
        return child, child.wall_s * REFERENCE_S / reference, reference


def import_breakdown(processes: int) -> dict[str, float]:
    """Median cumulative import time (s) of the modules in layers.IMPORT_MODULES."""
    samples: dict[str, list[float]] = {name: [] for name in layers.IMPORT_MODULES}
    for _ in range(processes):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import bellmodel"])
        for line in child.err.decode(errors="replace").splitlines():
            # "import time:      self [us] | cumulative | imported package"
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1e6)
    missing = [name for name, values in samples.items() if not values]
    if missing:
        raise SystemExit(f"error: -X importtime did not report {', '.join(missing)}")
    return {name: statistics.median(values) for name, values in samples.items()}


# ---------------------------------------------------------------------------
# Closed loop of cold requests (--trace 0)
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value.

    None when fewer than 20 samples would put it below the median.
    """
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < len(ordered) / 2:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def closed_loop(workload: str, seed: int, seconds: float,
                digests: dict) -> tuple[list[dict], list[dict], list[float]]:
    """Cold requests one after another for ``seconds``, with set-up probes among them.

    Returns the request records, the set-up records and every reference time.
    """
    requests = workloads.stream(workload, seed)
    records, setup = [], []
    paced = ReferencePaced()

    def probe_setup() -> None:
        child, adjusted, reference = paced.run(SETUP_ARGV)
        setup.append({"wall_s": require_ok(child, "`import bellmodel`").wall_s, "adjusted_s": adjusted,
                      "reference_s": reference})

    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        if len(setup) < SETUP_PROCESSES * (time.perf_counter() - start) / seconds:
            probe_setup()
        request = next(requests)
        child, adjusted, reference = paced.run([sys.executable, "-m", "bellmodel", *request.argv])
        verdict = checks.check(request, child.rc, child.out, child.err, digests)
        records.append({"request": request.key, "kind": request.kind, "group": request.group,
                        "n": request.params.get("n"), "wall_s": child.wall_s,
                        "adjusted_s": adjusted, "reference_s": reference,
                        "maxrss_mb": child.maxrss_mb, "ok": verdict.ok,
                        "detail": verdict.detail, "info": verdict.info})
    while len(setup) < SETUP_PROCESSES:
        probe_setup()
    return records, setup, paced.references


def cold_report(workload: str, records: list[dict], setup: list[dict],
                references: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics and the report lines of a closed-loop run.

    Every latency is the reference-adjusted time; the raw wall-time medians
    are reported as ``*_wall_s``.
    """
    headline = f"lhv-fit.grid{workloads.LHV_SUPPORT_GRID}" if workload == "lhv-search" else None
    timed = [r for r in records if headline in (None, r["group"])]
    latencies = [r["adjusted_s"] for r in timed]
    metrics = {
        "setup_s": statistics.median(s["adjusted_s"] for s in setup),
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": max(r["maxrss_mb"] for r in records),
    }
    failed = sum(not r["ok"] for r in records)
    extra = {
        "failed_ratio": (failed / len(records), "ratio"),
        "latency_p50_wall_s": (statistics.median(r["wall_s"] for r in timed), "s (raw wall time)"),
        "setup_wall_s": (statistics.median(s["wall_s"] for s in setup), "s (raw wall time)"),
        "reference_p50_s": (statistics.median(references),
                            f"s (nominal {REFERENCE_S}, min {min(references):.4f}, "
                            f"max {max(references):.4f})"),
    }
    tail_point = tail(latencies)
    if tail_point is not None:
        extra["latency_tail_s"] = (tail_point[1], f"s (p{tail_point[0]:.1f} of {len(latencies)})")
    groups = sorted({r["group"] for r in records})
    if workload == "lhv-search":
        for group in groups:
            walls = [r["adjusted_s"] for r in records if r["group"] == group]
            extra[f"latency_p50_s.{group.split('.')[1]}"] = (statistics.median(walls), "s")
        below = f"lhv-fit.grid{workloads.LHV_BELOW_GRID}"
        gaps = [r["info"]["m_hat"] - r["info"]["lp_optimum"]
                for r in records if r["group"] == below and r["ok"]]
        if gaps:
            extra[f"m_hat_gap.grid{workloads.LHV_BELOW_GRID}"] = (statistics.fmean(gaps), "1")
        fits = [r for r in records if r["kind"] == "lhv-fit" and r["ok"]]
        if fits:
            extra["fits_at_lp_optimum_ratio"] = (
                sum(r["info"]["at_optimum"] for r in fits) / len(fits), "ratio")
    sampled = [r for r in records if r["kind"] == "sample"]
    if sampled:
        extra["trials_per_s"] = (sum(r["n"] for r in sampled) / sum(r["adjusted_s"] for r in sampled),
                                 "1/s")

    lines = [f"requests: {len(records)} attempted, {failed} failed"]
    for name, value in metrics.items():
        lines.append(f"  {name:<28} {value:14.6f} {END_TO_END[name]}")
    for name, (value, unit) in extra.items():
        lines.append(f"  {name:<28} {value:14.6f} {unit}")
    lines.append("adjusted latency by request group (cold process, spawn to exit):")
    for group in groups:
        walls = [r["adjusted_s"] for r in records if r["group"] == group]
        lines.append(f"  {group:<18} n={len(walls):<4} p50={statistics.median(walls):.4f} s  "
                     f"min={min(walls):.4f} s  max={max(walls):.4f} s")
    for r in records:
        if not r["ok"]:
            lines.append(f"FAILED {r['request']}: {r['detail']}")
    return metrics, lines


# ---------------------------------------------------------------------------
# Traced replay (--trace 1)
# ---------------------------------------------------------------------------


def traced_run(args: argparse.Namespace, setup_s: float, imports: dict[str, float]) -> tuple[dict, dict, list[str]]:
    stem = f"{args.workload}-seed{args.seed}"
    summary_path = OUT_DIR / f"{stem}-replay.json"
    spans_path = OUT_DIR / f"{stem}-spans.jsonl"
    child = run_child([sys.executable, str(Path(__file__).with_name("replay.py")),
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--digests", str(DIGESTS),
                       "--summary", str(summary_path), "--spans", str(spans_path)],
                      timeout=min(160.0, args.seconds + 100.0))
    if child.rc != 0:
        raise SystemExit(f"error: traced replay failed:\n{child.err.decode(errors='replace')}")
    summary = json.loads(summary_path.read_text())
    metrics = {layers.IMPORT_MODULES[name]: seconds for name, seconds in imports.items()}
    metrics.update(summary["metrics"])

    # a cold request is roughly a set-up process plus the in-process work
    cold_s = setup_s + statistics.fmean(summary["untraced_s"])
    lines = [f"traced replay: {summary['attempted']} requests, {summary['failed']} failed; "
             f"tracing overhead {100 * metrics['trace.overhead_ratio']:+.1f}% "
             f"(traced {sum(summary['traced_s']):.3f} s vs untraced {sum(summary['untraced_s']):.3f} s)",
             f"per request: cold latency estimate {cold_s:.4f} s = set-up {setup_s:.4f} s + "
             f"in-process {cold_s - setup_s:.4f} s",
             f"  {'layer metric':<46} {'value':>12} {'calls/req':>10} {'share':>7}  moves"]
    for name in layers.IMPORT_MODULES.values():
        lines.append(f"  {name:<46} {metrics[name]:12.6f} {'':>10} "
                     f"{100 * metrics[name] / cold_s:6.1f}%  {layers.IMPORT_MOVES}")
    for span, moves in layers.timed_spans():
        seconds = metrics[layers.metric_name(span, "s")]
        lines.append(f"  {layers.metric_name(span, 's'):<46} {seconds:12.6f} "
                     f"{metrics[layers.metric_name(span, 'calls')]:10.3f} "
                     f"{100 * seconds / cold_s:6.1f}%  {moves}")
    for name, (unit, moves) in layers.COUNTERS.items():
        lines.append(f"  {name:<46} {metrics[name]:12.6f} {unit:>10} {'':>7}  {moves}")
    for failure in summary["failures"]:
        lines.append(f"FAILED {failure['request']}: {failure['detail']}")
    return metrics, summary, lines


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="bellmodel end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=int, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: cold requests, end-to-end metrics; 1: traced replay, per-layer metrics")
    args = parser.parse_args()
    if not (ROOT / "src" / "bellmodel" / "__init__.py").is_file():
        print(f"error: no bellmodel sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    record = {"provenance": provenance(args)}
    print(f"bellmodel benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))

    if args.trace == 0:
        imports = import_breakdown(1)
        records, setup_records, references = closed_loop(args.workload, args.seed, args.seconds,
                                                         digests)
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True))
        metrics, lines = cold_report(args.workload, records, setup_records, references)
        units = END_TO_END
        attempted, failed = len(records), sum(not r["ok"] for r in records)
        record["requests"] = records
        record["setup"] = setup_records
        record["reference_s"] = references
        setup = [s["adjusted_s"] for s in setup_records]
    else:
        imports = import_breakdown(IMPORTTIME_PROCESSES)
        setup = [setup_probe() for _ in range(SETUP_PROCESSES)]
        # the replay reads and extends the same store of sample digests
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True))
        metrics, summary, lines = traced_run(args, statistics.median(setup), imports)
        units = dict(layers.per_layer_metrics())
        attempted, failed = summary["attempted"], summary["failed"]
        record["replay"] = summary
    record["setup_s"] = setup
    record["import_s"] = imports
    print(f"set-up: `import bellmodel` median {statistics.median(setup):.4f} s "
          f"({'reference-adjusted' if args.trace == 0 else 'wall'}) over {len(setup)} "
          "processes; -X importtime cumulative: "
          + ", ".join(f"{name} {seconds:.4f} s" for name, seconds in imports.items()))
    record["metrics"] = metrics
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
