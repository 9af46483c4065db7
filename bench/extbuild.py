"""Out-of-tree build of the optional C extension, and the host block.

The compiled backend is part of what the ledger measures, so the
benchmark builds it itself, as its first set-up step, into
``bench/build`` -- never into ``src/`` -- and the worker processes load
it by appending ``bench/build/lib/repro/fastpath`` to
``repro.fastpath.__path__``.  The build is keyed by a digest of its
inputs and reused until one of them changes.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
import sysconfig
import time

from ledger import BENCH_DIR, ROOT

BUILD_DIR = os.path.join(BENCH_DIR, "build")
LIB_DIR = os.path.join(BUILD_DIR, "lib")
EXT_DIR = os.path.join(LIB_DIR, "repro", "fastpath")
RECORD = os.path.join(BUILD_DIR, "build.json")
_INPUTS = ("setup.py", os.path.join("src", "repro", "fastpath", "_core.c"))


def _digest() -> str:
    h = hashlib.sha1(sys.version.encode())
    for rel in _INPUTS:
        with open(os.path.join(ROOT, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _compiler() -> str:
    """First line of ``$CC --version``, or why there is none."""
    cc = shlex.split(os.environ.get("CC")
                     or sysconfig.get_config_var("CC") or "cc")
    try:
        out = subprocess.run(cc[:1] + ["--version"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return (out.stdout or out.stderr).strip().splitlines()[0]


def built_extension() -> list:
    return glob.glob(os.path.join(EXT_DIR, "_core*.so"))


def ensure_extension() -> dict:
    """Build ``repro.fastpath._core`` under ``bench/build`` unless a
    build of the same inputs is already there; return its record
    (``ok``, ``build_s``, ``compiler``, ``cached``)."""
    digest = _digest()
    if os.path.exists(RECORD):
        with open(RECORD) as fh:
            record = json.load(fh)
        if record.get("digest") == digest and (
                bool(built_extension()) == record["ok"]):
            return dict(record, cached=True)
    os.makedirs(BUILD_DIR, exist_ok=True)
    for stale in built_extension():
        os.remove(stale)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", LIB_DIR,
         "--build-temp", os.path.join(BUILD_DIR, "tmp")],
        cwd=ROOT, capture_output=True, text=True)
    record = {
        "digest": digest,
        "ok": proc.returncode == 0 and bool(built_extension()),
        "build_s": time.perf_counter() - t0,
        "compiler": _compiler(),
        "log_tail": (proc.stdout + proc.stderr)[-2000:],
    }
    with open(RECORD, "w") as fh:
        json.dump(record, fh, indent=1)
    return dict(record, cached=False)


def load_extension() -> None:
    """Make the out-of-tree ``_core`` importable as
    ``repro.fastpath._core`` (no-op when it was never built)."""
    import repro.fastpath

    if os.path.isdir(EXT_DIR) and EXT_DIR not in repro.fastpath.__path__:
        repro.fastpath.__path__.append(EXT_DIR)


def host_block() -> dict:
    """Where the numbers came from; written once per output file."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "git unavailable"
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "commit": commit,
    }
