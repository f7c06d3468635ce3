"""Process facts read from ``/proc`` (Linux): CPU ticks, peak RSS, relatives."""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List

TICKS = os.sysconf("SC_CLK_TCK")


def stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` fields from field 3 (state) on."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        data = fh.read()
    return data[data.rindex(")") + 2:].split()


def pids_where(keep: Callable[[List[str]], bool]) -> List[int]:
    """Live processes whose stat fields satisfy ``keep``."""
    pids = []
    for entry in sorted(os.listdir("/proc")):
        if not entry.isdigit():
            continue
        try:
            fields = stat_fields(int(entry))
        except OSError:
            continue  # exited while we looked
        if fields[0] != "Z" and keep(fields):
            pids.append(int(entry))
    return pids


def process_tree() -> List[int]:
    """This process and its children (fields 4 = ppid)."""
    me = os.getpid()
    return [me] + pids_where(lambda f: int(f[1]) == me)


def process_group(pgid: int) -> List[int]:
    """Live members of process group ``pgid`` (field 5)."""
    return pids_where(lambda f: int(f[2]) == pgid)


def cpu_ticks(pids: Iterable[int]) -> Dict[int, int]:
    """utime+stime clock ticks (fields 14 and 15) of each live pid."""
    out = {}
    for pid in pids:
        try:
            fields = stat_fields(pid)
        except OSError:
            continue
        out[pid] = int(fields[11]) + int(fields[12])
    return out


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Largest VmHWM among ``pids``, in MiB."""
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests (``/proc/stat`` steal).

    Host-wide, summed over CPUs: a repetition whose wall time rises while
    its CPU time does not shows it here.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / TICKS if len(fields) > 8 else 0.0
