#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a source checkout:

    python3 perfbench/selftest.py

1. A sweep draw whose residual_threshold is 10 x tol (the lowest value the
   scenario validation accepts) must fail its check.  The failure must be
   counted in the result line, and the run must exit nonzero while still
   printing every end-to-end metric.  The program is not edited: the draw
   is an input like any other.
2. Two traced runs of each workload in BENCHMARK.json with the same seed
   must print every per-layer metric, pass the trace accounting check, and
   give exactly the same counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import run


def check(condition: bool, message: str) -> bool:
    print(("ok    " if condition else "FAIL  ") + message)
    return condition


def failure_is_counted(spec: dict) -> bool:
    """Run main() on one strict-threshold sweep draw."""
    real_setup = run.setup

    def strict_setup(workload, seed, run_dir):
        ops = real_setup(workload, seed, run_dir)[:1]
        if run_dir is not None:
            path = run_dir / "inputs" / f"{ops[0].name}.json"
            data = json.loads(path.read_text())
            data["residual_threshold"] = 10.0 * data.get("tol", 1e-10)
            path.write_text(json.dumps(data, indent=2) + "\n")
        return ops

    run.setup = strict_setup
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                             "--trace", "0"])
    finally:
        run.setup = real_setup
    from sweep import draw_scenarios

    result = json.loads(out.getvalue().strip().splitlines()[-1])
    names = {m["name"] for m in spec["end_to_end"]}
    first = draw_scenarios(1)[0]["name"]
    return all([
        check(code == 1, f"strict draw {first}: exit code {code}, expected 1"),
        check(result["failed"] == 1 and result["attempted"] == 1,
              f"failed {result['failed']} of attempted {result['attempted']}, expected 1 of 1"),
        check(result["correct"] is False, "result is marked not correct"),
        check(set(result["metrics"]) == names, "every end-to-end metric is still printed"),
        check(result["metrics"]["margin_min_decades"]["value"] < 0.0,
              "margin of the failed draw is negative"),
    ])


def traced(workload: str) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts_repeat(spec: dict, workload: str) -> bool:
    names = {m["name"] for m in spec["per_layer"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    first, second = traced(workload), traced(workload)
    differ = [n for n in counts
              if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
    return all([
        check(set(first["metrics"]) == names, f"{workload}: every per-layer metric is printed"),
        check(first["correct"] and second["correct"],
              f"{workload}: both traced runs pass their checks and the accounting"),
        check(not differ, f"{workload}: {len(counts)} counts repeat exactly"
              + (f" (differ: {differ})" if differ else "")),
    ])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if not (run.SRC / "rrshift" / "__init__.py").is_file():
        print(f"selftest: no rrshift package under {run.SRC}", file=sys.stderr)
        return 2
    ok = failure_is_counted(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        ok = counts_repeat(spec, workload) and ok
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
