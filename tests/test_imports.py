import os
import subprocess
import sys

import friable

# what a fresh CLI process imports before its first job: the set-up that
# the benchmark's probe times (import the CLI, read the shared Dickman
# table, sieve the first primes)
SETUP = (
    "import sys, friable.cli, friable.dickman, friable.sieve; "
    "friable.dickman.default_table(); friable.sieve.primes_up_to(2); "
    "print(sorted(m for m in ('numpy.polynomial', 'concurrent.futures', 'logging')"
    " if m in sys.modules))"
)


def test_setup_imports_neither_numpy_polynomial_nor_concurrent_futures():
    src = os.path.dirname(os.path.dirname(friable.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", SETUP], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
