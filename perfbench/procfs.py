"""/proc readers: the harness's process tree, its peak RSS, CPU steal,
and the check that no Ray process outlives the benchmark."""

from __future__ import annotations

import os
import signal
import time


def _stat(pid: int) -> tuple[int, int] | None:
    """(ppid, start time in clock ticks), or None if the pid is gone or
    a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    fields = s[s.rindex(")") + 2:].split()
    if fields[0] == "Z":
        return None
    return int(fields[1]), int(fields[19])


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode("utf-8", "replace")
    except OSError:
        return ""


def descendants() -> dict[int, int]:
    """pid -> start time for this process and every process below it."""
    root = os.getpid()
    parent, start = {}, {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st:
                parent[int(name)], start[int(name)] = st
    out, frontier = {}, [root]
    while frontier:
        p = frontier.pop()
        if p in start:
            out[p] = start[p]
        frontier.extend(c for c, pp in parent.items() if pp == p)
    return out


def reset_peak_rss(pids) -> None:
    """Reset VmHWM to the current RSS (``clear_refs`` <- 5)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(pids) -> float:
    """Sum of VmHWM over ``pids`` in MiB."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return kb / 1024.0


def cpu_times() -> tuple[int, int]:
    """(total, steal) jiffies from the aggregate ``cpu`` line."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    # guest time is already folded into user/nice
    return sum(vals[:8]), vals[7] if len(vals) > 7 else 0


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def survivors(tracked: dict[int, int], marker: str) -> list[str]:
    """Processes still alive that were in ``tracked`` (pid -> start
    time, so recycled pids don't count) or whose command line holds
    ``marker`` (the Ray session directory: it catches Ray processes
    re-parented away from the harness)."""
    me = os.getpid()
    alive = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        pid = int(name)
        st = _stat(pid)
        if st is None:
            continue
        cmd = _cmdline(pid)
        if tracked.get(pid) == st[1] or (marker and marker in cmd):
            alive.append(f"{pid} {cmd[:120]}")
    return alive


def reap(tracked: dict[int, int], marker: str, wait_s: float = 15.0
         ) -> list[str]:
    """Wait for tracked processes to exit; kill what remains and return
    a description of every process that had to be killed."""
    deadline = time.time() + wait_s
    left = survivors(tracked, marker)
    while left and time.time() < deadline:
        time.sleep(0.25)
        left = survivors(tracked, marker)
    for line in left:
        try:
            os.kill(int(line.split()[0]), signal.SIGKILL)
        except OSError:
            pass
    return left
