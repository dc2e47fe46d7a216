"""Traced in-process replay of one workload's requests.

run.py starts this script in a fresh process with ``src`` on PYTHONPATH.
It replays the workload's request stream through ``bellmodel.cli.main``
with stdout and stderr captured, each request twice: once with span
recorders wrapped around the public calls listed in layers.py and once
without them (alternating which goes first), so the difference is the
tracing overhead.  The first request of each latency group is replayed a
third time under tracemalloc for the peak traced memory.  Outputs are
checked with the same independent checks as the cold requests, and the
traced output must equal the untraced output.

Spans (name, start, end, parent span, request id) stay in memory and are
written out at the end, together with a summary that run.py reports.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import time
import traceback
import tracemalloc
from collections import defaultdict

import bellmodel.cli
import checks
import layers
import workloads

# counters taken at a span boundary: span -> (counter, value from (args, kwargs, result))
_COUNTERS = {
    "montecarlo.sample": ("montecarlo.sample_trials", lambda args, kwargs, result: len(result)),
    "montecarlo.TrialSeries.to_csv": ("montecarlo.csv_bytes",
                                      lambda args, kwargs, result: len(result)),
}


class SpanRecorder:
    """Wraps callables so that each call records a span; spans stay in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counters: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, span: str, fn):
        grid_named = span in layers.GRID_LAYERS
        counter = _COUNTERS.get(span)

        def traced(*args, **kwargs):
            name = f"{span}.grid{kwargs.get('grid_size', 16)}" if grid_named else span
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def prepare(self) -> None:
        """Build one wrapper per patch point; `install` swaps them in."""
        for layer in layers.LAYERS:
            for target in layer.targets:
                owner = importlib.import_module(target[0])
                if len(target) == 3:
                    owner = getattr(owner, target[1])
                attr = target[-1]
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original, self.wrap(layer.span, original)))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time (duration minus direct children) and calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _request in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            totals[name] += end - start - child_time[index]
            calls[name] += 1
        return totals, calls


def call_cli(main, argv) -> tuple[int, bytes, bytes]:
    """Run ``main(argv)`` with stdout and stderr captured, as a process would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except Exception:  # an uncaught error is exit 1 with a traceback, as in a process
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue().encode(), err.getvalue().encode()


def replay(workload: str, seed: int, seconds: float, digests: dict) -> tuple[dict, SpanRecorder]:
    recorder = SpanRecorder()
    recorder.prepare()
    plain_main = bellmodel.cli.main
    traced_main = recorder.wrap(layers.CLI_MAIN, plain_main)
    requests = workloads.stream(workload, seed)
    untraced_s, traced_s, failures, peaks = [], [], [], {}
    fits = fits_at_optimum = 0
    deadline = time.perf_counter() + seconds
    while not untraced_s or time.perf_counter() < deadline:
        request = next(requests)
        number = len(untraced_s)
        results = {}
        for traced in ((False, True) if number % 2 == 0 else (True, False)):
            if traced:
                recorder.request = number
                recorder.install()
            start = time.perf_counter()
            try:
                results[traced] = call_cli(traced_main if traced else plain_main, request.argv)
            finally:
                elapsed = time.perf_counter() - start
                recorder.uninstall()
            (traced_s if traced else untraced_s).append(elapsed)
        verdict = checks.check(request, *results[False], digests)
        if verdict.ok and results[True][:2] != results[False][:2]:
            verdict = checks.Verdict(False, "tracing changed stdout or the exit code")
        if not verdict.ok:
            failures.append({"request": request.key, "detail": verdict.detail})
        if request.kind == "lhv-fit" and verdict.ok:
            fits += 1
            fits_at_optimum += bool(verdict.info["at_optimum"])
        if request.group not in peaks:
            tracemalloc.start()
            try:
                call_cli(plain_main, request.argv)
                peaks[request.group] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

    requests_done = len(untraced_s)
    totals, calls = recorder.self_times()
    metrics = {}
    for span, _moves in layers.timed_spans():
        metrics[layers.metric_name(span, "s")] = totals.get(span, 0.0) / requests_done
        metrics[layers.metric_name(span, "calls")] = calls.get(span, 0) / requests_done
    for counter, _value in _COUNTERS.values():
        metrics[counter] = recorder.counters.get(counter, 0.0) / requests_done
    metrics["montecarlo.peak_traced_mb"] = max(peaks.values())
    metrics["lhv.fits_at_lp_optimum_ratio"] = fits_at_optimum / fits if fits else 0.0
    metrics["trace.overhead_ratio"] = sum(traced_s) / sum(untraced_s) - 1.0
    metrics["trace.requests"] = requests_done
    summary = {
        "metrics": metrics,
        "attempted": requests_done,
        "failed": len(failures),
        "failures": failures,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "peak_traced_mb_by_group": peaks,
        "lhv_fits": fits,
    }
    return summary, recorder


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--digests", required=True, help="JSON file of known sample SHA-256s")
    parser.add_argument("--summary", required=True, help="where to write the summary JSON")
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON lines)")
    args = parser.parse_args()
    with open(args.digests, encoding="utf-8") as handle:
        digests = json.load(handle)
    summary, recorder = replay(args.workload, args.seed, args.seconds, digests)
    with open(args.digests, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
    with open(args.spans, "w", encoding="utf-8") as handle:
        for name, start, end, parent, request in recorder.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
    with open(args.summary, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)


if __name__ == "__main__":
    main()
