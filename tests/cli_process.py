"""Run the `affrep` command line in a fresh interpreter, so that nothing
(module caches, the hash seed, an exception escaping `main`) is shared with
the test process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_affrep(*args: str, hashseed: str | None = None,
               timeout: float = 600) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, "-m", "affrep.cli", *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
