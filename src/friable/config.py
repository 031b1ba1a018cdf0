"""The library's default budgets, and the extent of the shared Dickman table.

The only runtime setting, the thread count, is the CLI's ``--threads``
flag, passed as an argument to the functions it splits.
"""

DEFAULT_SEGMENT_SIZE = 1 << 20   # entries per sieve segment
DEFAULT_MAX_TABLE = 1 << 26      # largest in-memory factor table
DEFAULT_MAX_SIEVE_N = 1 << 40    # largest supported sieve bound
DEFAULT_DICKMAN_UMAX = 20.0      # u_max of the shared rho table's first build
