"""The machine a run measured on, and the import-time breakdown.

Everything here only reads: os and platform calls, /proc/cpuinfo and the
cache entries under /sys/devices/system/cpu.  The harness changes no machine
setting.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

NO_SETTINGS_CHANGED = (
    "The harness changed no machine setting: no page-cache drop, no CPU "
    "pinning or affinity change, no cgroup or /proc or /sys writes, no "
    "frequency or huge-page changes.  It only reads /proc/cpuinfo and "
    "/sys/devices/system/cpu.")


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for entry in sorted(base.glob("index*")):
        try:
            level = (entry / "level").read_text().strip()
            kind = (entry / "type").read_text().strip()
            size = (entry / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine_settings": NO_SETTINGS_CHANGED,
    }


def parse_importtime(text: str) -> dict:
    """Seconds for `holderlab` and for the outermost scipy imports, from the
    stderr of `python -X importtime`.

    Lines read `import time: self | cumulative | <indent>name`, children
    before their parent, two spaces of indent per level.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip(), int(fields[1]) * 1e-6))
    holderlab_s = scipy_s = 0.0
    stack = []  # ancestors, walking parents before children
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy_s += cumulative
        if name == "holderlab" and not stack:
            holderlab_s = cumulative
        stack.append((level, is_scipy))
    return {"holderlab_s": holderlab_s, "scipy_s": scipy_s}


def import_breakdown(env: dict) -> dict:
    """Median of three fresh `python -X importtime -c 'import holderlab'`."""
    runs = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import holderlab"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, check=True, timeout=120)
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
