#!/usr/bin/env python
"""Where one perfbench operation's CPU goes, thread role by thread role.

Usage::

    python tools/profile_statement.py --workload point_read [--seconds 5]
        [--cprofile]

Runs one perfbench workload in this process, pinned to one CPU as the
benchmark is, at the benchmark's seed (201): the workload's own cluster,
warm-up and closed-loop load,
imported from ``perfbench.workloads`` (nothing under ``perfbench/`` is
changed). Around the timed load it reads every thread's counters from
``/proc/self/task/<tid>/stat`` (user and system CPU) and ``.../status``
(voluntary and involuntary context switches), and prints them per
operation for each thread role:

- ``controller*-conn``: the controller's channel handlers (the front end);
- ``*-mux``: the controller's statement workers;
- ``db-*-conn``: the replica database servers' session handlers;
- ``mux-reader-*``: the cluster driver's trunk reader;
- ``perfbench-session*``: the load generator's session threads (the
  application and its driver; they also run the calibration spin);
- ``other``: every other thread, and ``exited``: threads that ended
  during the load (the process's counters less the threads'). Session
  threads are read just before they return, so they are never here.

CPU times are in reference time (perfbench's ``SpeedMeter``: wall-clock
time multiplied by the machine speed the load's own spins measured), so
figures from a slow and a fast minute compare. Context switches are
counts.

``--cprofile`` adds one profile merged over every thread started after
the tool began (all of the cluster's), taken over the timed load only
and timed by each thread's own CPU clock, so a blocked call costs what
blocking costs, not the wait; it prints the 30 functions with the most
own CPU time. It inflates the CPU figures by the profiler's own cost.
It needs Python 3.11 or older: it gives each thread its own profiler,
and from 3.12 cProfile runs on ``sys.monitoring``, where only one
profiler can be active in the whole interpreter, so the tool refuses
``--cprofile`` there.

Why it does not sample stacks (``sys._current_frames()``): on one pinned
CPU a sampling thread runs only when the running thread releases the GIL,
which it does when it blocks, so every sample lands on a blocking call
(a queue ``get``, a lock, a ``recv``) and the CPU time between blocking
calls is never seen. Per-thread counters and a deterministic profile see
all of it.

Linux only (``/proc``).
"""

from __future__ import annotations

import argparse
import cProfile
import fnmatch
import os
import pstats
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.measure import pin_to_one_cpu  # noqa: E402
from perfbench.workloads import WORKLOADS_BY_NAME, build_and_warm, session_ops  # noqa: E402

#: (role, thread-name pattern), first match wins.
ROLES: Tuple[Tuple[str, str], ...] = (
    ("controller*-conn", "controller*-conn"),
    ("*-mux", "*-mux_*"),
    ("db-*-conn", "db-*-conn"),
    ("mux-reader-*", "mux-reader-*"),
    ("perfbench-session*", "perfbench-session*"),
)
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
#: perfbench's contract seed.
SEED = 201
#: Functions the merged profile prints.
TOP = 30

#: (user seconds, system seconds, voluntary switches, involuntary switches)
Counters = Tuple[float, float, int, int]


def read_counters(task: str = "self") -> Counters:
    """One thread's (``/proc/self/task/<tid>``) or, by default, the whole
    process's CPU seconds and context switches."""
    base = "/proc/self" if task == "self" else f"/proc/self/task/{task}"
    with open(f"{base}/stat", "r", encoding="ascii") as handle:
        # Fields after the parenthesised name; utime and stime are 14 and 15.
        fields = handle.read().rsplit(")", 1)[1].split()
    user, system = int(fields[11]) * _TICK_S, int(fields[12]) * _TICK_S
    switches = {}
    with open(f"{base}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if "ctxt_switches" in line:
                name, value = line.split(":")
                switches[name] = int(value)
    return user, system, switches.get("voluntary_ctxt_switches", 0), switches.get(
        "nonvoluntary_ctxt_switches", 0
    )


def role_of(name: str) -> str:
    for role, pattern in ROLES:
        if fnmatch.fnmatchcase(name, pattern):
            return role
    return "other"


def snapshot() -> Dict[int, Tuple[str, Counters]]:
    """Every live thread's name and counters, by native id."""
    taken = {}
    for thread in threading.enumerate():
        tid = thread.native_id
        try:
            taken[tid] = (thread.name, read_counters(str(tid)))
        except OSError:  # it ended meanwhile
            continue
    return taken


def _minus(after: Counters, before: Counters) -> Counters:
    return tuple(a - b for a, b in zip(after, before))  # type: ignore[return-value]


class ThreadProfiles:
    """A cProfile profile per thread started after :meth:`install`, and
    their merged difference between :meth:`mark` and :meth:`merged`."""

    def __init__(self) -> None:
        self.profiles: List[cProfile.Profile] = []
        self._marks: Dict[int, dict] = {}

    def install(self) -> None:
        threading.setprofile(self._start)

    def _start(self, frame, event, arg) -> None:  # noqa: ANN001 - a profile hook
        profile = cProfile.Profile(time.thread_time)
        self.profiles.append(profile)
        profile.enable()  # replaces this hook on the new thread

    @staticmethod
    def _stats(profile: cProfile.Profile) -> dict:
        # snapshot_stats reads the profile without disabling it (which only
        # its own thread could do); the GIL keeps the read consistent.
        profile.snapshot_stats()
        return dict(profile.stats)

    def mark(self) -> None:
        self._marks = {id(profile): self._stats(profile) for profile in self.profiles}

    def merged(self) -> Optional[pstats.Stats]:
        merged = None
        for profile in self.profiles:
            before = self._marks.get(id(profile), {})
            delta = {}
            for func, (cc, nc, tt, ct, callers) in self._stats(profile).items():
                cc0, nc0, tt0, ct0, callers0 = before.get(func, (0, 0, 0.0, 0.0, {}))
                if nc - nc0 <= 0:
                    continue
                delta[func] = (
                    cc - cc0, nc - nc0, tt - tt0, ct - ct0,
                    {caller: tuple(a - b for a, b in zip(value, callers0.get(caller, (0,) * len(value))))
                     for caller, value in callers.items()},
                )
            if not delta:  # pstats refuses an empty profile
                continue
            holder = _StatsHolder(delta)
            if merged is None:
                merged = pstats.Stats(holder)
            else:
                merged.add(holder)
        return merged


class _StatsHolder:
    """What :class:`pstats.Stats` loads from: an object with ``stats``."""

    def __init__(self, stats: dict) -> None:
        self.stats = stats

    def create_stats(self) -> None:
        pass


def profile_workload(name: str, seconds: float, cprofile: bool) -> None:
    """Run ``name`` for ``seconds`` and print its per-role table (and,
    with ``cprofile``, the top functions of the merged profile)."""
    spec = WORKLOADS_BY_NAME[name]
    pin_to_one_cpu()
    profiles = ThreadProfiles() if cprofile else None
    if profiles is not None:
        profiles.install()
    cluster, _, warm = build_and_warm(spec, SEED, spec.warmup_ops, phase="profile-warmup")
    problems: List[str] = []
    try:
        if warm.failed:
            raise RuntimeError(f"{name}: warm-up failed: {warm.errors[:3]}")
        count = max(1, int(spec.generated_ops_per_second * seconds))
        ops = session_ops(spec, SEED, "profile", cluster.sessions, count)
        sessions: Dict[int, Tuple[str, Counters]] = {}
        session_loop = cluster._session_loop

        def sampled_session_loop(*args, **kwargs):
            try:
                return session_loop(*args, **kwargs)
            finally:
                thread = threading.current_thread()
                sessions[thread.native_id] = (thread.name, read_counters(str(thread.native_id)))

        cluster._session_loop = sampled_session_loop
        before, process_before = snapshot(), read_counters()
        if profiles is not None:
            profiles.mark()
        load = cluster.run_load(ops, seconds)
        after, process_after = snapshot(), read_counters()
        merged = profiles.merged() if profiles is not None else None
        problems = cluster.verify()
    finally:
        problems += cluster.close()
    if load.failed or problems:
        raise RuntimeError(f"{name}: {load.failed} operations failed {load.errors[:3]}; {problems[:3]}")

    after.update(sessions)
    totals: Dict[str, List[float]] = {}
    for tid, (thread_name, counters) in after.items():
        delta = _minus(counters, before[tid][1] if tid in before else (0.0, 0.0, 0, 0))
        row = totals.setdefault(role_of(thread_name), [0.0, 0.0, 0, 0])
        for position, value in enumerate(delta):
            row[position] += value
    process = _minus(process_after, process_before)
    accounted = [sum(row[position] for row in totals.values()) for position in range(4)]
    totals["exited"] = [max(0, total - part) for total, part in zip(process, accounted)]

    ops_done, speed = load.completed, load.meter.speed()
    per_op = {
        role: {
            "user_us": row[0] * speed / ops_done * 1e6,
            "sys_us": row[1] * speed / ops_done * 1e6,
            "cs": (row[2] + row[3]) / ops_done,
        }
        for role, row in totals.items()
    }
    per_op["total"] = {key: sum(figures[key] for figures in per_op.values()) for key in ("user_us", "sys_us", "cs")}
    print(f"{name}: {ops_done} operations in {load.wall_s:.1f} s, machine speed {speed:.3f} "
          f"(CPU in reference us per operation)")
    print(f"  {'role':20s} {'user_us':>9s} {'sys_us':>9s} {'cs/op':>7s}")
    for role in [role for role, _ in ROLES] + ["other", "exited", "total"]:
        if role in per_op:
            figures = per_op[role]
            print(f"  {role:20s} {figures['user_us']:9.1f} {figures['sys_us']:9.1f} {figures['cs']:7.2f}")
    if merged is not None:
        print(f"\nmerged profile of every thread over the timed load (top {TOP} by own CPU time):")
        merged.sort_stats("tottime").print_stats(TOP)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seconds", type=float, default=5.0, help="timed load (default 5)")
    parser.add_argument("--cprofile", action="store_true", help="add a merged profile of all threads")
    args = parser.parse_args(argv)
    if not os.path.isdir("/proc/self/task"):
        sys.stderr.write("profile_statement: needs Linux's /proc\n")
        return 2
    if args.cprofile and sys.version_info >= (3, 12):
        sys.stderr.write("profile_statement: --cprofile needs Python 3.11 or older "
                         "(one profiler per thread)\n")
        return 2
    profile_workload(args.workload, args.seconds, args.cprofile)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
