"""Run one `lathom` command in this fresh process, with probes installed.

    python3 perfbench/child.py SRC PROBE_JSON TRACE -- LATHOM_ARGS...

SRC is the checkout's `src` directory, PROBE_JSON the file the spans are
written to when the command returns, TRACE 0 (solve entry and exit only)
or 1 (every function in probes.TRACED).  The exit code is the command's.
"""

import json
import os
import sys
import time


def main(argv):
    src, probe_path, trace = argv[1], argv[2], argv[3] == "1"
    if argv[4] != "--":
        raise SystemExit("usage: child.py SRC PROBE_JSON TRACE -- LATHOM_ARGS...")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, src)
    import lathom.cli
    import probes

    recorder = probes.Recorder()
    probes.install(recorder, probes.TRACED if trace else probes.UNTRACED)
    main_ns = time.perf_counter_ns()
    try:
        code = lathom.cli.main(argv[5:])
    finally:
        end_ns = time.perf_counter_ns()
        record = {
            "main_ns": main_ns,
            "end_ns": end_ns,
            "lathom_file": lathom.cli.__file__,
            "spans": recorder.spans,
        }
        with open(probe_path, "w") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
