"""The edense benchmark.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {corpus,scale,sweep} --seed N \
        --seconds S --trace {0,1}

It writes the workload's inputs under ``.bench_work/``, then runs the
workload over and over, each pass in a fresh child interpreter (see
``child.py``), until ``--seconds`` have gone, and checks every output.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it describes the run: interpreter, ``nproc``, pass and sample counts.
See ``NOTES.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 150
MIN_PASSES = 3


def check_output(op: dict, code, out: str) -> str | None:
    """Why the output of one operation is wrong, or None if it is right."""
    expect = op["expect"]
    want_code = expect.get("exit", 0)
    if code != want_code:
        return f"exit status {code!r}, expected {want_code}"
    if "golden" in expect:
        if out != (BENCH_DIR / expect["golden"]).read_text():
            return "output differs from the golden file"
        return None
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    findings = report.get("findings") if isinstance(report, dict) else None
    if not isinstance(findings, list) or not all(
        isinstance(f, dict) and isinstance(f.get("name"), str) for f in findings
    ):
        return "report has no list of named findings"
    if report.get("ok") is not (want_code == 0):
        return f"\"ok\" is {report.get('ok')!r}"
    failing = [f["name"] for f in findings if f.get("pass") is not True]
    if failing != expect.get("failing", []):
        return f"failing findings {failing[:3]}"
    names = [f["name"] for f in findings]
    if "names" in expect and names != expect["names"]:
        return f"finding names {names} != {expect['names']}"
    missing = set(expect.get("required", ())) - set(names)
    if missing:
        return f"missing findings {sorted(missing)[:3]}"
    witness = {f["name"]: f.get("witness") for f in findings}
    for name, value in expect.get("witness", {}).items():
        if witness.get(name) != value:
            return f"{name} = {witness.get(name)!r}, expected {value!r}"
    if expect.get("recovered") and witness.get("recovered-plaintext") != witness.get("plaintext"):
        return "protocol did not recover the plaintext"
    return None


def run_child(spec_path: Path, result_path: Path) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), str(result_path)],
        check=True,
        timeout=CHILD_TIMEOUT_S,
        stdin=subprocess.DEVNULL,
    )
    with open(result_path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "edense" / "__init__.py").is_file():
        print(f"error: no edense package under {src}; run from a source checkout", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, src: Path, work: Path) -> int:
    ops = workloads.WORKLOADS[args.workload](args.seed, work)
    spec_paths = {}
    for trace in (0, 1):
        spec_paths[trace] = work / f"spec{trace}.json"
        spec = {"src": str(src), "trace": bool(trace), "ops": [op["argv"] for op in ops]}
        spec_paths[trace].write_text(json.dumps(spec))
    result_path = work / "result.json"

    # One unmeasured set-up compiles the bytecode and warms the file cache.
    setup_spec = work / "setup.json"
    setup_spec.write_text(json.dumps({"src": str(src), "trace": False, "ops": []}))
    run_child(setup_spec, result_path)

    # The untraced run times passes until the time is up.  The traced run
    # alternates untraced and traced passes, so that the tracing overhead
    # is measured under the same conditions.
    passes = {0: [], 1: []}
    errors = []
    deadline = time.monotonic() + args.seconds
    pass_s = []
    while True:
        trace = args.trace and len(passes[0]) > len(passes[1])
        started = time.monotonic()
        result = run_child(spec_paths[trace], result_path)
        pass_s.append(time.monotonic() - started)
        for op, code, out in zip(ops, result["codes"], result["outputs"]):
            why = check_output(op, code, out)
            if why is not None:
                errors.append(f"{' '.join(op['argv'])}: {why}")
        del result["outputs"]
        passes[trace].append(result)
        done = len(passes[0]) + len(passes[1])
        if done >= MIN_PASSES * (1 + args.trace) and (
            time.monotonic() + statistics.median(pass_s) > deadline
        ):
            break

    attempted = len(ops) * sum(len(p) for p in passes.values())
    failed = len(errors)
    for message in errors[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    untraced = passes[0]
    latencies_ms = [1000 * s for p in untraced for s in p["latencies_s"]]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": {"untraced": len(untraced), "traced": len(passes[1])},
        "ops_per_pass": len(ops),
        "op_samples": len(latencies_ms),
        "fail_ratio": failed / attempted,
    }
    if args.trace:
        traced = passes[1]
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        layers["trace_overhead_s"] = statistics.median(
            p["wall_s"] for p in traced
        ) - statistics.median(p["wall_s"] for p in untraced)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in untraced), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall_s"] for p in untraced), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
            "op_p90_ms": {
                "value": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
                "unit": "ms",
            },
            "peak_rss_mb": {
                "value": statistics.median(p["peak_rss_mb"] for p in untraced),
                "unit": "MB",
            },
        }
    print(json.dumps(info))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
