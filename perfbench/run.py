"""Benchmark of boxtopo: run workloads in fresh child processes and report metrics.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 38 --trace 0

Run from the root of a checkout that holds ``src/boxtopo``.  Each workload
runs in its own child process (child.py).  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` the child also makes one traced pass
and the per-layer metrics are printed.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from tracer import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Set-up is timed in this many extra children, plus the measuring child.
SETUP_PROBES = 4
# Every child of one workload must end by then, so a run ends within 180 s.
RUN_DEADLINE_S = 170


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run child.py; return (set-up seconds, its JSON result or None)."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child {' '.join(args)} did not end before the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    lines = out.splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise RuntimeError(f"child {' '.join(args)} never reported set-up done")
    setup_s = (int(lines[0].split()[1]) - t0) * 1e-9
    result = json.loads(lines[-1]) if len(lines) > 1 else None
    return setup_s, result


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(common + ["--seconds", "0", "--setup-only"], deadline)[0])
    setup_s, result = spawn(
        common + ["--seconds", str(seconds), "--trace", str(trace)], deadline
    )
    setups.append(setup_s)
    result["setup_s"] = statistics.median(setups)
    return result


def report(workload: str, seed: int, result: dict, trace: int) -> dict[str, dict]:
    """Print a workload's figures by name and unit; return its metrics object."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload}  seed {seed}  passes {result['passes']}")
    print(f"  inputs sha256 {result['input_digest']}")
    print(f"  outputs sha256 {result['output_digest']}")
    print(f"  attempted {attempted}  failed {failed}  fail_frac {failed / attempted:.6g}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = result["per_layer"] if trace else result
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    if not trace:
        print(f"  req_n {result['req_n']} count")
    else:
        print(f"  untraced wall_s {result['wall_s']:.6g} s, traced {result['traced_wall_s']:.6g} s, "
              f"{result['spans']} spans")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "boxtopo" / "cli.py").is_file():
        print(f"perfbench: no boxtopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in workloads:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        own = report(workload, args.seed, result, args.trace)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in own.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
