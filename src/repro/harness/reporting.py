"""ASCII report rendering in the paper's table/figure layouts."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "fmt_time", "fmt_si", "fmt_bytes", "host_meta", "render_table", "render_stacked",
]


def fmt_time(seconds: float) -> str:
    """Format a duration the way the paper's tables do (ms/s/m/h)."""
    if seconds < 0:
        return "-" + fmt_time(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120.0:
        return f"{seconds:.1f}s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.1f}m"
    return f"{seconds / 3600.0:.1f}h"


def fmt_si(x: float) -> str:
    """1234567 -> '1.2M' (message counts, edge counts)."""
    for suffix, scale in (("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if abs(x) >= scale:
            return f"{x / scale:.1f}{suffix}"
    return f"{x:.0f}" if float(x).is_integer() else f"{x:.2f}"


def fmt_bytes(n: int) -> str:
    """Bytes with binary units, Table-III style."""
    for suffix, scale in (("TB", 1 << 40), ("GB", 1 << 30), ("MB", 1 << 20), ("KB", 1 << 10)):
        if n >= scale:
            return f"{n / scale:.1f}{suffix}"
    return f"{n}B"


def host_meta(checkout: Path) -> dict[str, object]:
    """Provenance for a benchmark record: the host's CPU count and the git
    commit of ``checkout`` (``None`` when it is not a git work tree)."""
    try:
        sha: str | None = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=checkout, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"cpu_count": os.cpu_count(), "git_sha": sha}


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Monospace table with aligned columns."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_stacked(
    label: str,
    phase_times: dict[str, float],
    *,
    width: int = 46,
) -> str:
    """One 'stacked bar' as text: phase breakdown with proportional bars
    (the textual analogue of the paper's Figs. 3-5)."""
    total = sum(phase_times.values())
    lines = [f"{label}  total={fmt_time(total)}"]
    for name, t in phase_times.items():
        frac = (t / total) if total > 0 else 0.0
        bar = "#" * max(0, round(frac * width))
        lines.append(f"  {name:<24} {fmt_time(t):>8} |{bar}")
    return "\n".join(lines)
