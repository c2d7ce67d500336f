"""Entry point of every untraced `gradmix run` the benchmark measures.

    python3 launch.py <stamp.json> run|setup run --config ... --out ... --jobs N

It runs `gradmix.cli.main` as `python -m gradmix.cli` would, and reads the
monotonic clock when the parent process's `cli.build_benchmark` first
returns, which is when the `Task` is built. The parent records the
monotonic clock before starting this process; the difference is the set-up
time, interpreter start included. With `run` the whole grid runs and the
stamp file gets {"ready": ...} when it ends. With `setup` the process stops
right after that point and the stamp file also gets the numeric stack it
saw (Python, numpy, BLAS and its thread count, where gradmix came from).
"""

import json
import os
import sys
import time


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stack_record() -> dict:
    import gradmix
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "gradmix_file": gradmix.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
    }


def main(argv) -> int:
    stamp_path, mode, cli_args = argv[0], argv[1], argv[2:]
    from gradmix import cli

    stamp: dict = {}
    build = cli.build_benchmark
    parent = os.getpid()

    def stamped_build(cfg):
        result = build(cfg)
        if os.getpid() == parent and "ready" not in stamp:
            stamp["ready"] = time.monotonic()
            if mode == "setup":
                raise SystemExit(0)
        return result

    cli.build_benchmark = stamped_build
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        if "ready" not in stamp:
            raise
        code = exc.code
    if mode == "setup":
        stamp.update(stack_record())
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(stamp, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
