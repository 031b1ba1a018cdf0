"""The library's default budgets and the default thread count.

The only runtime setting, the thread count T, is the CLI's ``--threads``
flag.  It defaults to ``usable_cpus()``, which also caps the package's one
set of workers: the calling thread and plain threads that take the U^3/U^4
derivative blocks of the Gowers norms one at a time as each is free (at
least two blocks per worker; see ``friable.gowers`` for its speed-ups,
which need a free second CPU).  Every other computation, the mask sieve
behind ``count`` included, runs in the calling thread.  Results are
identical for every T.
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
