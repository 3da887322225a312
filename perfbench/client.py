"""One benchmark op: a fresh interpreter that runs CLI commands one after
another through `schottky_workbench.cli.main` and reports what they printed.

    python3 client.py SRC_DIR REQUEST_JSON RESULT_JSON

REQUEST_JSON holds {"commands": [argv, ...], "trace": bool}.  RESULT_JSON
receives the exit code and standard output of each command, the
`time.perf_counter()` reading at the first subcommand dispatch (the clock is
system-wide, so the parent can subtract its own spawn time), and, when
tracing, the spans and counters of the run.
"""

import io
import json
import sys
import traceback
from time import perf_counter


def main(src_dir: str, request_path: str, result_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    sys.path.insert(0, src_dir)
    from schottky_workbench import cli

    dispatch_at = []

    def stamp(fn):
        def wrapper(*args, **kwargs):
            if not dispatch_at:
                dispatch_at.append(perf_counter())
            return fn(*args, **kwargs)
        return wrapper

    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        setattr(cli, name, stamp(getattr(cli, name)))

    tracer = bound = None
    if request["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        bound = tracing.install(tracer)

    results = []
    real_stdout = sys.stdout
    for argv in request["commands"]:
        out = io.StringIO()
        sys.stdout = out
        try:
            code, error = cli.main(argv), None
        except Exception:  # a crash is a failed command; keep running
            code, error = None, traceback.format_exc()
        finally:
            sys.stdout = real_stdout
        results.append({"exit": code, "stdout": out.getvalue(),
                        "error": error})

    doc = {"dispatch_at": dispatch_at[0] if dispatch_at else None,
           "package": cli.__file__, "commands": results}
    if tracer is not None:
        doc["trace"] = tracer.snapshot()
        doc["bound"] = bound
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
