"""Keep every CPU of the benchmark busy-idle while a served workload runs.

On a virtual machine an idle CPU halts, and the hypervisor takes it
off its host core; waking it for the next request costs a host
scheduling decision. That cost is 0.1 ms on a quiet host and several
ms on a busy one, and a served request crosses processes and threads
several times, so on a shared host the wake-ups, not the program, set
how much latency varies from run to run. (Measured on a 2-vCPU KVM
guest: a pipe round trip after 10 ms idle took p50 0.1 ms, p99 7 ms
with the CPUs halting, and p50 0.05 ms, p99 0.5 to 1.7 ms with them
kept awake.)

:func:`cpus_kept_awake` runs one spinning process per CPU under
``SCHED_IDLE``, the policy the kernel runs only when nothing else on
that CPU wants to: any request the program wakes preempts it at once,
and it takes no measurable share of the CPU from the program. The
effect is that of booting the guest with ``idle=poll``. Each spinner
exits by itself once its parent is gone, however the parent ended.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from typing import Iterator, List

_SPIN = """\
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
sys.stdout.write("idle\\n")
sys.stdout.flush()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


@contextmanager
def cpus_kept_awake() -> Iterator[int]:
    """Spin ``SCHED_IDLE`` on every CPU this process may use; yield how many.

    Yields 0 and spins nothing where the platform has no ``SCHED_IDLE``
    or a spinner cannot take it. Returns once every spinner has been
    stopped and reaped.
    """
    spinners = _start_spinners()
    try:
        yield len(spinners)
    finally:
        _stop(spinners)


def _start_spinners() -> List[subprocess.Popen]:
    if not hasattr(os, "SCHED_IDLE") or not hasattr(os, "sched_getaffinity"):
        return []
    spinners: List[subprocess.Popen] = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            spinner = subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(cpu)],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                text=True,
            )
            spinners.append(spinner)
            # Wait until it runs under SCHED_IDLE, so it never competes.
            if spinner.stdout.readline().strip() != "idle":
                print(f"warning: no SCHED_IDLE spinner on CPU {cpu}; "
                      "measuring with CPUs free to halt", file=sys.stderr)
                _stop(spinners)
                return []
    except BaseException:
        _stop(spinners)
        raise
    return spinners


def _stop(spinners: List[subprocess.Popen]) -> None:
    for spinner in spinners:
        spinner.terminate()
    for spinner in spinners:
        spinner.wait()
        spinner.stdout.close()
