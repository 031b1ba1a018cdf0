"""Every public name of the library is used by the library.

Test-only code lives in ``tests/oracles.py``: a public top-level function or
class of ``src/friable`` that nothing in ``src/friable`` calls belongs there,
or to a command that calls it.
"""

import ast
from pathlib import Path

import friable

# read by the benchmark's worker (perfbench/worker.py) to size each body
ALLOWED = {("forms", "lattice_point_count")}


def test_every_public_name_has_a_caller_in_the_library():
    package = Path(friable.__file__).parent
    statements = [
        (path.stem, node)
        for path in sorted(package.glob("*.py"))
        if path.name != "_rho_pieces.py"  # generated data
        for node in ast.parse(path.read_text()).body
    ]
    # the identifiers each top-level statement reads, as a Name or an Attribute
    reads = [
        {n.id if isinstance(n, ast.Name) else n.attr
         for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
        for _, node in statements
    ]
    unused = [
        (module, node.name)
        for i, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for j, names in enumerate(reads) if j != i)
    ]
    assert sorted(set(unused) - ALLOWED) == []
