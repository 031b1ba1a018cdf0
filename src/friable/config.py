"""The library's default budgets and the default thread count.

The only runtime setting, the thread count T, is the CLI's ``--threads``
flag, passed to the functions it splits.  It defaults to ``usable_cpus()``,
which also caps every worker pool.  Threads split the segments of the mask
sieve behind ``count`` (once N + 1 > ``DEFAULT_SEGMENT_SIZE``) and the
U^3/U^4 derivative blocks of the Gowers norms (at least two blocks per
worker; two threads ran U^3 1.39-1.51x faster at 9 blocks and 1.74x at 33
on 2 vCPUs, see ``friable.gowers``).  Results are identical for every T.
The shared Dickman table has no setting: it ships as data on [0, 50]
(see ``friable.dickman``).
"""

import os

DEFAULT_SEGMENT_SIZE = 1 << 20   # entries per sieve segment
DEFAULT_MAX_TABLE = 1 << 26      # largest in-memory factor table
DEFAULT_MAX_SIEVE_N = 1 << 40    # largest supported sieve bound


def usable_cpus() -> int:
    """The CPUs this process may run on (``os.cpu_count()`` where the
    platform has no affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
