"""Run one ``seasondid`` CLI command in this fresh process and report its cost.

Usage: ``python3 child.py <src dir> <report.json> <cli arguments...>``

The report holds the CLI's exit code, the wall time of ``cli.main``, the
wall time of the set-up calls it makes before the first task
(``read_prices``, ``ProtectionCalendar.from_csv``, ``expand_tasks``), and
the peak resident set size of this process and of its largest worker.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import types


def own_peak_kib() -> int:
    """Peak resident set of this process in KiB. ``ru_maxrss`` of a process
    started by exec also counts the peak of the process that started it, so
    the kernel's high-water mark of this process's own memory is read where
    there is one."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    src, report_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import seasondid.cli as cli

    setup_s = 0.0

    def timed(fn):
        def call(*args, **kwargs):
            nonlocal setup_s
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setup_s += time.perf_counter() - start

        return call

    cli.read_prices = timed(cli.read_prices)
    cli.expand_tasks = timed(cli.expand_tasks)
    cli.ProtectionCalendar = types.SimpleNamespace(
        from_csv=timed(cli.ProtectionCalendar.from_csv)
    )
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    workers_peak_kib = usage[1].ru_maxrss
    with open(report_path, "w") as handle:
        json.dump(
            {
                "exit_code": code,
                "wall_s": wall,
                "setup_s": setup_s,
                "peak_rss_mb": max(own_peak_kib(), workers_peak_kib) / 1024.0,
                # Of this process and its workers; start-up before cli.main included.
                "cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
            },
            handle,
        )


if __name__ == "__main__":
    main()
