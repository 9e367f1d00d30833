"""One measured process: import the engine, load a scene, run one CLI command.

Started by ``run.py`` as ``python3 child.py SPEC.json``.  The spec names the
checkout's ``src`` directory, the scene, the CLI arguments, the output
directory, whether to trace, and the file to write the result to.  With
``"setup_only": true`` the process stops after the scene is loaded.

The result file holds the monotonic-clock time at which the scene was
loaded (the parent holds the time it started the process), the wall time of
``liesphere.cli.main``, its exit code and standard output, and the per-layer
metrics of a traced run.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import liesphere.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"liesphere was imported from {cli.__file__}, not from {src}")
    cli.load_scene(spec["scene"])
    loaded = time.monotonic()
    result = {"scene_loaded": loaded}
    if not spec.get("setup_only"):
        result.update(_run(cli, spec))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run(cli, spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer  # beside this file, so first on sys.path

        tracer = Tracer()
        tracer.install()
    stdout = io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(spec["argv"])
    except Exception:  # an escaped traceback is a failed run, reported by the parent
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    out = {"wall_s": wall, "exit_code": code, "stdout": stdout.getvalue(), "error": error}
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        out["missing_spans"] = tracer.missing
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
