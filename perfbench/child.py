"""One workload in one fresh process: set up, run the request list, check answers.

Started by run.py.  Prints ``ready <monotonic ns>`` when the inputs are
written (the end of set-up), then one JSON line with the run's figures.
Requests go through ``boxtopo.cli.main(argv)`` in this process, one at a
time (a closed loop with one client).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import make_plan  # noqa: E402

MAX_PROBLEMS_SHOWN = 5


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a single value is every percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Runner:
    """Runs one plan's requests and collects latencies and problems."""

    def __init__(self, plan, cli, digest_file: Path):
        self.plan = plan
        self.cli = cli
        self.digest_file = digest_file
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: list[str] | None = None

    def run_pass(self, tracer: Tracer | None = None) -> tuple[float, list[float]]:
        """One pass over the request list; returns (wall s, request latencies s)."""
        for out in self.plan.outputs:
            out.unlink(missing_ok=True)
        codes: list[object] = []
        latencies: list[float] = []
        start = time.perf_counter()
        for i, argv in enumerate(self.plan.requests):
            if tracer is not None:
                tracer.begin_request(i)
                tracer.counters["cli.bytes_in"] += sum(_file_size(a) for a in argv[:-2])
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a raising request is a failed one
                code = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            codes.append(code)
            if tracer is not None:
                tracer.counters["cli.bytes_out"] += _file_size(argv[-1])
                tracer.end_request()
        wall = time.perf_counter() - start
        self._check(codes)
        return wall, latencies

    def _check(self, codes: list[object]) -> None:
        datas = []
        for out in self.plan.outputs:
            try:
                datas.append(out.read_bytes())
            except OSError:
                datas.append(b"")
        answers = self.plan.check(datas)
        digests = [hashlib.sha256(d).hexdigest() for d in datas]
        if self.first_digests is None:
            self.first_digests = digests
            stored = self._stored_digests(digests)
        else:
            stored = self.first_digests
        for i, (code, answer) in enumerate(zip(codes, answers)):
            problem = ""
            if code != 0:
                problem = f"exit {code}"
            elif answer:
                problem = answer
            elif digests[i] != stored[i]:
                problem = "output bytes differ from an earlier run with the same inputs"
            self.attempted += 1
            if problem:
                self.failed += 1
                self.problems.append(f"request {i} ({' '.join(self.plan.requests[i][:2])}): {problem}")

    def _stored_digests(self, digests: list[str]) -> list[str]:
        """Digests kept from the first run with the same inputs in this checkout."""
        if self.digest_file.is_file():
            stored = json.loads(self.digest_file.read_text())
            if len(stored) == len(digests):
                return stored
        self.digest_file.parent.mkdir(parents=True, exist_ok=True)
        self.digest_file.write_text(json.dumps(digests))
        return digests

    def output_digest(self) -> str:
        return hashlib.sha256("".join(self.first_digests or []).encode()).hexdigest()


def run(args) -> dict:
    from boxtopo import cli

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = make_plan(args.workload, args.seed, work)
        print(f"ready {time.monotonic_ns()}", flush=True)
        if args.setup_only:
            return {}
        digests = WORK_DIR / "digests" / f"{args.workload}-{plan.input_digest[:16]}.json"
        runner = Runner(plan, cli, digests)
        walls: list[float] = []
        passes: list[list[float]] = []
        start = time.perf_counter()
        while True:
            wall, lat = runner.run_pass()
            walls.append(wall)
            passes.append(lat)
            # End the run nearest to the budget: make another pass of this
            # length if at least half of it fits, so that bounds makes two
            # passes (a median, not one sample) even when the machine runs slow.
            if time.perf_counter() - start + wall / 2 > args.seconds:
                break
        # Each request's median over the passes, so that the tail percentile
        # does not jump with one request's jitter in one pass.
        per_request = [statistics.median(col) for col in zip(*passes)]
        result = {
            "attempted": runner.attempted,
            "failed": runner.failed,
            "problems": runner.problems[:MAX_PROBLEMS_SHOWN],
            "passes": len(walls),
            "wall_s": statistics.median(walls),
            "req_p50_ms": _percentile(per_request, 50) * 1e3,
            "req_p90_ms": _percentile(per_request, 90) * 1e3,
            "req_n": len(per_request) * len(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "input_digest": plan.input_digest,
            "output_digest": runner.output_digest(),
        }
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_wall, _ = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            residual = tracer.check_self_times()
            if residual:
                runner.failed += 1
                runner.problems.append(f"span self times miss a request's duration by {residual} ns")
            result.update(
                attempted=runner.attempted,
                failed=runner.failed,
                problems=runner.problems[:MAX_PROBLEMS_SHOWN],
                traced_wall_s=traced_wall,
                spans=len(tracer.spans),
                per_layer=tracer.metrics(traced_wall / result["wall_s"] - 1),
            )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    import boxtopo

    if not Path(boxtopo.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: boxtopo imported from {boxtopo.__file__}, not this checkout", file=sys.stderr)
        return 2
    result = run(args)
    if not args.setup_only:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
