"""One workload pass in a fresh interpreter.

Usage: python child.py SPEC.json RESULT.json

The spec names the package source directory, whether to trace, and the
operations: CLI argument lists for ``edense.cli.main``.  The child times
set-up (import plus ``construction.corpus()``), then every operation with
its stdout captured, and writes timings, outputs, exit codes and peak RSS
to the result file.  A fresh interpreter is needed because the package's
module-level caches are keyed by table value: a second pass in the same
process would time cache hits, not work.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run(spec: dict) -> dict:
    clock = time.perf_counter
    t0 = clock()
    sys.path.insert(0, spec["src"])
    import edense
    from edense import cli, construction

    t_import = clock()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(edense)
    t_corpus = clock()
    construction.corpus()
    t_setup = clock()

    outputs, codes, latencies = [], [], []
    for argv in spec["ops"]:
        buf = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except (Exception, SystemExit):
            code = traceback.format_exc()
        latencies.append(clock() - start)
        outputs.append(buf.getvalue())
        codes.append(code)
    wall = clock() - t_setup

    result = {
        "setup_s": (t_import - t0) + (t_setup - t_corpus),
        "wall_s": wall,
        "latencies_s": latencies,
        "codes": codes,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["layers"]["import_s"] = t_import - t0
    return result


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
