"""Command-line front end: runs verification campaigns and persists results.

Every invocation writes a result JSON, a manifest JSON (parameters,
version, thread count, wall clock, peak memory, sha256 digest of the
result), and optionally CSV tables, into the output directory; a table is
written block by block as it is rendered (``csv_chunks``).  Numeric output uses
17 significant digits for floats and exact decimal integers, so a rerun
with identical parameters reproduces byte-identical result files.

Exit codes: 0 success, 2 argument/precondition/numeric error,
3 resource-budget error, 64 usage error, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import re
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__, analytic, config, correlate, criteria, dickman, forms, gowers, sieve
from .errors import ArgumentError, FriableError, ResourceError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------


def _fmt(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return f'"{v}"'
        return format(v, ".17g")
    if isinstance(value, complex):
        return _fmt({"re": value.real, "im": value.imag}, indent)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if value is None:
        return "null"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{k}": {_fmt(v, indent + 2)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = [f"{pad}  {_fmt(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dump_json(obj) -> str:
    return _fmt(obj, 0) + "\n"


# ---------------------------------------------------------------------------
# spec parsers (forms, bodies, u lists, phases)
# ---------------------------------------------------------------------------


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentError(f"cannot parse rational {text!r}") from exc


def parse_body_spec(text: str, dimension: int) -> forms.ConvexBody:
    """``box:lo,hi;...``, ``simplex:lower,total`` or ``hpoly:c1,..,cd,b;...``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "box":
        coords = [c for c in rest.split(";") if c.strip()]
        if len(coords) != dimension:
            raise ArgumentError(
                f"box needs {dimension} coordinate ranges, got {len(coords)}"
            )
        bounds = []
        for c in coords:
            parts = c.split(",")
            if len(parts) != 2:
                raise ArgumentError(f"box range {c!r} must be 'lo,hi'")
            bounds.append((_parse_rational(parts[0]), _parse_rational(parts[1])))
        return forms.ConvexBody.box(bounds)
    if kind == "simplex":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ArgumentError("simplex spec must be 'lower,total'")
        return forms.ConvexBody.simplex(
            dimension, _parse_rational(parts[0]), _parse_rational(parts[1])
        )
    if kind == "hpoly":
        rows = [r for r in rest.split(";") if r.strip()]
        A, b = [], []
        for r in rows:
            entries = [_parse_rational(x) for x in r.split(",")]
            if len(entries) != dimension + 1:
                raise ArgumentError(
                    f"hpoly row {r!r} needs {dimension} coefficients plus rhs"
                )
            A.append(entries[:-1])
            b.append(entries[-1])
        return forms.ConvexBody.halfspaces(A, b)
    raise ArgumentError(f"unknown body kind {kind!r} (box | simplex | hpoly)")


def _parse_number(convert, text: str, spec: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise ArgumentError(f"cannot parse {text!r} in {spec!r}") from exc


def parse_u_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ArgumentError(f"cannot parse u list {text!r}") from exc


def parse_phase_spec(text: str) -> correlate.PhaseSequence:
    """Preset name or ``kind:param,param,...``."""
    if text in correlate.PHASE_PRESETS:
        return correlate.phase_preset(text)
    kind, _, rest = text.partition(":")
    params = [_parse_number(float, x, text) for x in rest.split(",") if x.strip()]
    kind = kind.strip().lower()
    if kind == "constant":
        return correlate.PhaseSequence.constant(*params[:1])
    if kind == "linear" and 1 <= len(params) <= 2:
        return correlate.PhaseSequence.linear(*params)
    if kind == "quadratic" and 1 <= len(params) <= 3:
        return correlate.PhaseSequence.quadratic(*params)
    if kind == "bracket" and len(params) == 2:
        return correlate.PhaseSequence.bracket(*params)
    raise ArgumentError(f"cannot parse phase spec {text!r}")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


_QUOTED = re.compile(r'[,"\r\n\x00]')  # what csv would quote, and the pad byte
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)
_BLOCK_ROWS = 2**15  # rows per rendered block: the block buffer stays cache-sized
_FLOAT_CELL = b"%24.17g"  # 24 bytes hold the widest, "-2.2250738585072014e-308"
_SPACE_TO_PAD = bytes.maketrans(b" ", b"\0")


@functools.cache
def _group_table() -> np.ndarray:
    """The four ASCII bytes of each 4-digit group g < 10^4 read as one
    uint32, in three variants: entry g zero-padded (``0042``), entry
    10^4 + g with pad bytes for its leading zeros (``\\0\\042``, all pad
    for 0), entry 2 * 10^4 + g the same but ``0`` for 0.  Built on first
    use, so an import that writes no CSV does not pay for it."""
    g = np.arange(10**4)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    digits = (g // place % 10 + ord("0")).astype(np.uint8)
    lead = g < place
    units = lead & (place > 1)
    variants = np.concatenate((digits, np.where(lead, 0, digits), np.where(units, 0, digits)))
    return variants.astype(np.uint8).view(np.uint32).ravel()


def _int_cells(col: np.ndarray):
    """Width and block renderer of an integer column, planned from its
    extremes.  The magnitude (``uint32`` when every one fits, ``uint64``
    otherwise) is split into 4-digit groups, each one gather from
    ``_group_table()``: zero-padded below a row's leading group, pad bytes
    from it on.  A ``-`` goes in before the first digit of each negative."""
    lo, hi = (int(col.min()), int(col.max())) if col.size else (0, 0)
    width = max(len(str(lo)), len(str(hi)))
    digits = len(str(max(-lo, hi)))
    groups = -(-digits // 4)
    kind = np.uint32 if max(-lo, hi) < 2**32 else np.uint64

    def render(start: int, stop: int, out: np.ndarray) -> None:
        part = col[start:stop]
        # |-2^63| wraps to -2^63 in int64 and back to 2^63 in uint64
        mag = (np.abs(part.astype(np.int64)) if lo < 0 else part).astype(kind)
        out[:, : width - digits] = 0  # the sign byte of the widest negative
        rest = mag
        for j in range(groups):
            pad = kind(2 * 10**4 if j == 0 else 10**4)  # offset of the padded variant
            if j == groups - 1:  # no row has a digit above this group
                index = rest + pad
            else:
                q = rest // kind(10**4)
                index = rest - q * kind(10**4)
                index += (q == 0) * pad
                rest = q
            cells = _group_table().take(index)
            end = width - 4 * j
            if j < groups - 1 or digits % 4 == 0:
                out[:, end - 4 : end].view(np.uint32)[:, 0] = cells
            else:  # the top group is narrower: byte by byte, each one strided copy
                cell_bytes = cells.view(np.uint8).reshape(-1, 4)
                for k in range(1, digits % 4 + 1):
                    out[:, end - k] = cell_bytes[:, 4 - k]
        if lo < 0:
            neg = np.flatnonzero(part < 0)
            lengths = 1 + np.searchsorted(_POWERS_OF_TEN, mag[neg], side="right")
            out[neg, width - 1 - lengths] = ord("-")

    return width, render


def _float_cells(col: np.ndarray):
    """Width and block renderer of a float column: one ``%``-format pass
    over a block, each cell 17 significant digits space-padded to 24 bytes,
    the spaces turned into pad bytes."""

    def render(start: int, stop: int, out: np.ndarray) -> None:
        text = (_FLOAT_CELL * (stop - start)) % tuple(col[start:stop].tolist())
        out[:] = np.frombuffer(text.translate(_SPACE_TO_PAD), np.uint8).reshape(out.shape)

    return len(_FLOAT_CELL % 0.0), render


def _text_cells(cells):
    """Width and block renderer of any other column, rendered cell by cell
    by ``_texts`` (which refuses a cell csv would quote) into an
    ``S``-dtype byte matrix."""
    data = np.array([t.encode("utf-8") for t in _texts(cells)], dtype=bytes)
    mat = data.view(np.uint8).reshape(len(data), data.itemsize)

    def render(start: int, stop: int, out: np.ndarray) -> None:
        out[:] = mat[start:stop]

    return data.itemsize, render


def _texts(cells) -> list[str]:
    """Cells as csv writes them unquoted: 17 significant digits for a float,
    ``str`` for the rest.  A cell that csv would quote raises ValueError."""
    texts = [format(x, ".17g") if isinstance(x, float) else str(x) for x in cells]
    if not all(texts) or _QUOTED.search("".join(texts)):
        bad = next(t for t in texts if not t or _QUOTED.search(t))
        raise ValueError(f"CSV cell {bad!r} would need quoting")
    return texts


def csv_chunks(header: list[str], columns: list) -> Iterator[bytes]:
    """The CSV bytes of a table given column by column, one ``\\r\\n`` line
    per row, as a generator of chunks: the header line, then one chunk per
    block of ``_BLOCK_ROWS`` rows.

    A planning pass, before any chunk, finds each integer column's widest
    cell and sign and renders the header and every text column, so a cell
    csv would quote raises ValueError here, not halfway through a file.
    Each block is rendered column by column into one reused ``(rows,
    width)`` byte buffer, cells right-aligned after zero pad bytes between
    fixed ``,`` and ``\\r\\n`` columns, and the pad bytes are dropped.  So
    the writer holds the table plus one block."""
    if not header or len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    lengths = {len(col) for col in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    head = (",".join(_texts(header)) + "\r\n").encode("utf-8")
    plans = []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
            plans.append(_int_cells(col))
        elif isinstance(col, np.ndarray) and col.dtype.kind == "f":
            plans.append(_float_cells(col))
        else:
            plans.append(_text_cells(col.tolist() if isinstance(col, np.ndarray) else col))
    return _blocks(head, lengths.pop(), plans)


def _blocks(head: bytes, n: int, plans: list) -> Iterator[bytes]:
    yield head
    starts = np.cumsum([0] + [width + 1 for width, _ in plans])  # column c at starts[c]
    buf = np.zeros((min(n, _BLOCK_ROWS), starts[-1] + 1), dtype=np.uint8)
    buf[:, starts[1:] - 1] = ord(",")
    buf[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = buf[: stop - start]
        for (width, render), at in zip(plans, starts.tolist()):
            render(start, stop, block[:, at : at + width])
        yield block.tobytes().translate(None, b"\0")


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MiB; ``ru_maxrss`` counts
    KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _write_outputs(
    outdir: Path,
    command: str,
    params: dict,
    result: dict,
    threads: int,
    elapsed: float,
    tables: dict[str, tuple[list[str], list]] | None = None,
) -> None:
    """Write the result, each ``(header, columns)`` table as CSV and the
    manifest.  Every table is planned first, so a refused cell raises
    before any file is written; each is then streamed chunk by chunk."""
    csvs = {name: csv_chunks(*table) for name, table in (tables or {}).items()}
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    result_text = dump_json({"command": command, "params": params, "result": result})
    result_path = outdir / f"{command}_result.json"
    result_path.write_text(result_text, encoding="utf-8")
    files.append(result_path.name)
    # wall-clock fields are excluded from the digest so reruns reproduce it
    stable = {k: v for k, v in result.items() if k != "elapsed"}
    digest_text = dump_json({"command": command, "params": params, "result": stable})
    for name, chunks in csvs.items():
        csv_path = outdir / f"{command}_{name}.csv"
        with csv_path.open("wb") as fh:
            fh.writelines(chunks)
        files.append(csv_path.name)
    manifest = {
        "command": command,
        "params": params,
        "version": __version__,
        "threads": threads,
        "wall_clock_s": elapsed,
        "peak_rss_mb": _peak_rss_mb(),
        "output_digest": hashlib.sha256(digest_text.encode("utf-8")).hexdigest(),
        "output_files": files,
    }
    (outdir / f"{command}_manifest.json").write_text(
        dump_json(manifest), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sieve(args) -> tuple[dict, dict, dict]:
    table = sieve.build_factor_sieve(args.lo, args.hi)
    ns = np.arange(table.lo, table.hi + 1)
    result = {
        "lo": table.lo,
        "hi": table.hi,
        "entries": len(table),
        "primes": int(np.count_nonzero((table.lpf == ns) & (ns >= 2))),
        "squarefree": int(np.count_nonzero(table.mu != 0)),
    }
    tables = {}
    if args.csv:
        spf = np.where(table.spf == sieve.SPF_INFINITY, -1, table.spf)
        header = ["n", "lpf", "spf_or_minus1_for_inf", "mu"]
        tables["table"] = (header, [ns, table.lpf, spf, table.mu])
    params = {"lo": args.lo, "hi": args.hi}
    return params, result, tables


_MAX_TABLE_ROWS = 10**6  # largest `dickman --table` output


def _cmd_dickman(args) -> tuple[dict, dict, dict]:
    tables = {}
    if args.table is not None:
        u_max, step = args.table
        if not (math.isfinite(u_max) and u_max >= 0.0):
            raise ArgumentError(f"--table U_MAX must be finite and >= 0, got {u_max}")
        if not (math.isfinite(step) and step > 0.0):
            raise ArgumentError(f"--table STEP must be finite and > 0, got {step}")
        if (u_max + step / 2) / step > _MAX_TABLE_ROWS:
            raise ResourceError(f"--table {u_max} {step} exceeds {_MAX_TABLE_ROWS} rows")
        grid = np.arange(0.0, u_max + step / 2, step)
        values = dickman.rho(np.minimum(grid, u_max))
        tables["table"] = (["u", "rho"], [grid, values])
        params = {"table_u_max": u_max, "step": step}
        result = {"rows": grid.size}
    else:
        value = float(dickman.rho(args.u))
        print(format(value, ".17g"))
        params = {"u": args.u}
        result = {"u": args.u, "rho": value}
    return params, result, tables


def _cmd_count(args) -> tuple[dict, dict, dict]:
    system = forms.parse_form_system(args.forms)
    body_text = args.body.replace("N", str(args.N))
    body = parse_body_spec(body_text, system.dimension)
    u = parse_u_list(args.u)
    start = time.perf_counter()
    count = forms.count_friable_values(system, body, args.N, u)
    elapsed = time.perf_counter() - start
    vol = forms.volume(body)
    main = forms.main_term(vol, u)
    result = {
        "count": count,
        "main_term": main,
        "ratio": count / main if main else float("inf"),
        "volume": float(vol),
        "elapsed": elapsed,
    }
    params = {"forms": args.forms, "body": args.body, "N": args.N, "u": u}
    return params, result, {}


def _cmd_saddle(args) -> tuple[dict, dict, dict]:
    sp = analytic.solve_saddle_alpha(args.N, args.y)
    params = {"N": args.N, "y": args.y}
    result = {"alpha": sp.alpha, "residual": sp.residual, "log_N": math.log(args.N)}
    return params, result, {}


def _cmd_harper(args) -> tuple[dict, dict, dict]:
    terms = analytic.harper_prediction(args.N, args.y)
    return {"N": args.N, "y": args.y}, terms._asdict(), {}


def _cmd_mertens(args) -> tuple[dict, dict, dict]:
    value, tail = analytic.sifted_sums(args.N, args.u, args.tau)
    rho_u = float(dickman.rho(args.u))
    result = {
        "sum": value,
        "rho_u": rho_u,
        "abs_error": abs(value - rho_u),
        "relative_bound_hint": args.u * math.log(args.u + 1) / math.log(args.N),
    }
    params = {"N": args.N, "u": args.u}
    if args.tau is not None:
        result["mu2_tail"] = tail
        result["mu2_tail_scale"] = args.tau * args.u**2
        params["tau"] = args.tau
    return params, result, {}


def _load_gowers_input(spec: str, k: int, interval: bool) -> np.ndarray:
    """The sequence of ``--input`` as an array; a preset's size is checked
    against the U^k guardrail before the sequence is built."""
    parts = spec.split(":")
    if parts[0] == "balanced" and len(parts) == 3:
        N, u = _parse_number(int, parts[1], spec), _parse_number(float, parts[2], spec)
        gowers._check_k_and_size(k, N + 1, interval=interval)
        return correlate.balanced_friable(N, u).values
    if parts[0] in correlate.PHASE_PRESETS and len(parts) == 2:
        N = _parse_number(int, parts[1], spec)
        gowers._check_k_and_size(k, N + 1, interval=interval)
        return correlate.phase_preset(parts[0]).values(N)
    path = Path(spec)
    if not path.exists():
        raise ArgumentError(
            f"gowers input {spec!r} is neither a readable CSV nor a preset "
            "('balanced:N:u' or '<phase_preset>:N')"
        )
    try:
        with path.open() as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:
        raise ArgumentError(f"cannot read gowers input {spec!r}: {exc}") from exc
    values = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) > 2:
            raise ArgumentError(f"gowers input row {line!r} has more than two cells")
        re_part = _parse_number(float, cells[0], spec)
        im_part = _parse_number(float, cells[1], spec) if len(cells) > 1 else 0.0
        values.append(complex(re_part, im_part))
    return np.array(values)


def _cmd_gowers(args) -> tuple[dict, dict, dict]:
    seq = _load_gowers_input(args.input, args.k, args.mode == "interval")
    if args.mode == "cyclic":
        norm = gowers.gowers_norm_cyclic(seq, args.k, threads=args.threads)
    else:
        norm = gowers.gowers_norm_interval(seq, args.k, threads=args.threads)
    params = {"input": args.input, "k": args.k, "mode": args.mode}
    result = {"k": args.k, "mode": args.mode, "length": len(seq), "norm": norm}
    return params, result, {}


def _cmd_correlate(args) -> tuple[dict, dict, dict]:
    phase = parse_phase_spec(args.phase)
    h = correlate.balanced_friable(args.N, args.u)
    g = phase.values(args.N)
    c = correlate.correlation(h.values, g)
    params = {"N": args.N, "u": args.u, "phase": args.phase}
    result = {
        "correlation_re": c.real,
        "correlation_im": c.imag,
        "correlation_abs": abs(c),
        "rho_u": h.rho_u,
    }
    if args.tau is not None:
        ct = correlate.correlation(correlate.h_tau(args.N, args.u, args.tau), g)
        params["tau"] = args.tau
        result["h_tau_correlation_abs"] = abs(ct)
    return params, result, {}


def _cmd_decompose(args) -> tuple[dict, dict, dict]:
    phase = parse_phase_spec(args.phase)
    tau = args.tau if args.tau is not None else correlate.default_tau(args.N)
    (split,) = correlate.sigma_split(args.N, args.u, tau, [phase.values(args.N)])
    scale = correlate.sigma2_bound_scale(args.N, args.u, tau)
    params = {"N": args.N, "u": args.u, "tau": tau, "phase": args.phase}
    result = {
        "sigma1": split.sigma1,
        "sigma2": split.sigma2,
        "total": split.total,
        "reconstruction_error": split.reconstruction_error,
        "sigma2_abs": abs(split.sigma2),
        "sigma2_bound_scale": scale,
        "sigma2_fitted_constant": abs(split.sigma2) / scale if scale else float("inf"),
    }
    return params, result, {}


def _cmd_verify(args) -> tuple[dict, dict, dict]:
    if args.suite not in criteria.SUITES:
        raise ArgumentError(
            f"unknown suite {args.suite!r}; choose from {sorted(criteria.SUITES)}"
        )
    run_suite = criteria.SUITES[args.suite]
    result, tables = run_suite(args.N)
    params = {"suite": args.suite}
    if args.N is not None:
        params["N"] = args.N
    return params, result, tables


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later
    ``run`` in the process.  It holds no value that can change while the
    process runs: ``--threads`` defaults to None, which ``run`` resolves."""
    parser = _Parser(prog="friable", description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument(
        "--threads", type=int,
        help="threads for the U^3/U^4 derivative blocks of gowers, two blocks per "
        "thread at least; results are the same for every count, and every other "
        "command runs in one thread (default: the usable CPUs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="factor tables over a segment")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="emit the full table as CSV")

    p = sub.add_parser("dickman", help="Dickman rho values and tables")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--u", type=float)
    g.add_argument("--table", nargs=2, type=float, metavar=("U_MAX", "STEP"))

    p = sub.add_parser("count", help="exact friable count vs main term")
    p.add_argument("--forms", required=True, help="e.g. 'x1; x2; x1+x2'")
    p.add_argument("--body", required=True, help="box:.. | simplex:.. | hpoly:..")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--u", required=True, help="comma list, one per form")

    p = sub.add_parser("saddle", help="saddle point alpha(N, y)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--y", type=float, required=True)

    p = sub.add_parser("harper", help="ternary prediction S0 S1 Psi^3 / N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--y", type=float, required=True)

    p = sub.add_parser("mertens", help="sifted Mobius sums")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--tau", type=float)

    p = sub.add_parser("gowers", help="Gowers uniformity norms")
    p.add_argument("--input", required=True, help="csv path | balanced:N:u | preset:N")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["interval", "cyclic"], default="interval")

    p = sub.add_parser("correlate", help="balanced friable against a phase")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--tau", type=float)
    p.add_argument("--phase", required=True)

    p = sub.add_parser("decompose", help="sigma1 + sigma2 split of the correlation")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--tau", type=float)
    p.add_argument("--phase", required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--N", type=int)

    return parser


_DISPATCH = {
    "sieve": _cmd_sieve,
    "dickman": _cmd_dickman,
    "count": _cmd_count,
    "saddle": _cmd_saddle,
    "harper": _cmd_harper,
    "mertens": _cmd_mertens,
    "gowers": _cmd_gowers,
    "correlate": _cmd_correlate,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    """Parse argv, execute, persist outputs; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is None:
            args.threads = config.usable_cpus()
        if args.threads < 1:
            raise ArgumentError("thread count must be >= 1")
        start = time.perf_counter()
        params, result, tables = _DISPATCH[args.command](args)
        elapsed = time.perf_counter() - start
        _write_outputs(
            Path(args.out), args.command, params, result, args.threads, elapsed, tables
        )
        summary = {
            k: (abs(v) if isinstance(v, complex) else v)
            for k, v in result.items()
            if not isinstance(v, (list, dict))
        }
        print(f"{args.command}: " + ", ".join(f"{k}={_fmt(v, 0)}" for k, v in summary.items()))
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (FriableError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (``| head``): send what is still buffered to
        # devnull, so the flush at exit raises nothing, and exit as a shell
        # reports a process ended by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
