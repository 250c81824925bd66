"""One benchmark iteration in a fresh process: run CLI commands, time them.

Usage: python worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds {"commands": [[argv...], ...], "outputs": [[path...], ...],
"trace": bool}. The worker imports `spinchain.cli`, then calls
`spinchain.cli.main(argv)` for each command in order, as the `spinchain`
entry point would, and writes wall time, CPU time, peak RSS, exit codes
and (when tracing) per-layer metrics to RESULT_JSON. Set-up time is not
measured here; `run.py` measures it with separate import-only processes.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def run_commands(cli, commands):
    """Call cli.main on each argv; return (exit codes, per-command walls)."""
    codes, walls = [], []
    for argv in commands:
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse errors exit with status 2
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - an unexpected crash is a failed command
            traceback.print_exc()
            code = "exception"
        walls.append(time.perf_counter() - start)
        codes.append(code)
    return codes, walls


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import spinchain.cli as cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    codes, walls = run_commands(cli, spec["commands"])
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    bytes_written = sum(
        os.path.getsize(p) for paths in spec["outputs"] for p in paths if os.path.exists(p)
    )
    result = {
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "codes": codes,
        "command_walls_s": walls,
        "bytes_written": bytes_written,
        "spinchain_file": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.report(bytes_written)
        result["absent_hooks"] = tracer.absent
        result["absent_metrics"] = tracer.absent_metrics()
        result["threads"] = tracer.thread_summary()
    else:
        from spinchain import scans

        thread_count = getattr(scans, "thread_count", None)
        result["thread_count"] = thread_count() if thread_count else None
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
