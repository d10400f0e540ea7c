"""Command-line interface: CSV in, CSV out, reproducible by construction.

Commands: ``fit`` (subspace + spectrum from a data CSV), ``angles``
(principal angles between two basis CSVs), ``bounds`` (closed-form bound
evaluation), ``experiment`` (preset result tables).  Every output starts with
'#'-prefixed metadata echoing the resolved configuration, floats are printed
with 17 significant digits, files are written atomically, and exit codes are
0 (success), 2 (usage or input error), 1 (internal error).

A flat key=value config file (one ``--config`` per run) can preload flags
for any command: section names match the command ("fit", "angles",
"experiment", "bounds.perturbation" and friends); explicit command-line
flags win over file values.  Relative output paths resolve under
$WINPCA_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import inspect
import itertools
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .bounds import (
    breakdown_lower_bounds_from_values,
    concentration_bound,
    asymptotic_rate,
    perturbation_bound,
)
from .experiments import PRESETS, ResultTable, format_value
from .subspace import ORTHONORMAL_TOL, _is_orthonormal, fit_pc_subspace, principal_angles
from .transform import RadiusSpec

__all__ = ["main", "read_matrix_csv", "parse_radius"]

# Config keys that map to flag presence rather than a value.
_BOOL_KEYS = {"center", "subgaussian"}


def parse_radius(text: str) -> RadiusSpec:
    """Parse a radius flag: none | spherical | median | fixed:<r> | power:<beta>."""
    t = text.strip().lower()
    if t == "none":
        return RadiusSpec.none()
    if t == "spherical":
        return RadiusSpec.spherical()
    if t == "median":
        return RadiusSpec.median_norm()
    if t.startswith("fixed:"):
        return RadiusSpec.fixed(float(t[len("fixed:"):]))
    if t.startswith("power:"):
        return RadiusSpec.power_law(float(t[len("power:"):]))
    raise ValueError(
        f"unknown radius {text!r}; use none, spherical, median, fixed:<r>, power:<beta>"
    )


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _data_lines(fh):
    """The lines of ``fh`` that are neither blank nor '#' comments.

    A line that leaves a quoted cell open raises ``ValueError``: its record
    spans lines, which only the record loop reads as one record.
    """
    for line in fh:
        if '"' in line:
            try:
                next(csv.reader((line,), strict=True))
            except csv.Error:
                raise ValueError("quoted cell spans lines") from None
        head = line.lstrip()
        if head and not head.startswith("#"):
            yield line


def _read_fast(fh) -> np.ndarray:
    """Parse through numpy's C reader; ``ValueError`` on anything it rejects."""
    lines = _data_lines(fh)
    first = next(lines, None)
    if first is not None and not any(map(_parses, next(csv.reader((first,))))):
        first = next(lines, None)  # a header: no cell is a number
    if first is None:
        raise ValueError("no data rows")  # loadtxt warns on empty input
    return np.loadtxt(itertools.chain((first,), lines), delimiter=",",
                      comments=None, quotechar='"', ndmin=2)


def _read_records(fh, path: str) -> np.ndarray:
    """The record loop: accepts all ``float()`` does, errors name file lines."""
    lines = []  # the file lines of the record being read
    reader = csv.reader(lines.append(line) or line for line in fh)
    records = []
    try:
        for rec in reader:
            # As on the fast route, a comment is decided by its raw line, not its cell.
            if not lines[0].lstrip().startswith("#") and any(cells := [c.strip() for c in rec]):
                records.append((reader.line_num, cells))
            lines.clear()
    except csv.Error as exc:
        raise ValueError(f"{path}: unreadable CSV in row {reader.line_num}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no data rows")
    if not any(map(_parses, records[0][1])):
        records = records[1:]
        if not records:
            raise ValueError(f"{path}: header present but no data rows")
    width = len(records[0][1])
    out = np.empty((len(records), width))
    for i, (line, rec) in enumerate(records):
        if len(rec) != width:
            raise ValueError(
                f"{path}: ragged CSV, row {line} has {len(rec)} cells, expected {width}")
        try:
            out[i] = [float(c) for c in rec]
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric cell in row {line}: {exc}") from None
    return out


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a numeric matrix from CSV: blank and '#' lines skipped, and a
    first row with no numeric cell taken as a header.

    numpy's C reader parses the file; only when it fails (or the input is a
    pipe) does the record loop read it, to accept what ``float()`` accepts or
    to name the bad line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        if fh.seekable():
            try:
                return _read_fast(fh)
            except ValueError:
                fh.seek(0)
        return _read_records(fh, path)


def _resolve_out_path(out: str) -> str:
    base = os.environ.get("WINPCA_OUT_DIR", "")
    if base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = _resolve_out_path(out)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".winpca-", dir=directory, text=True)
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_table(columns, rows, metadata: dict[str, object], out: str | None) -> None:
    """Write one table in the ``ResultTable`` format, metadata and all."""
    meta = {key: format_value(val) for key, val in metadata.items()}
    _emit(ResultTable(tuple(columns), list(rows), meta).csv_text(timestamp=False), out)


def _parse_float_list(text: str) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError:
        raise ValueError(f"could not parse float list {text!r}") from None
    if vals.size == 0:
        raise ValueError("empty float list")
    return vals


def cmd_fit(args: argparse.Namespace) -> int:
    X = read_matrix_csv(args.input)
    n, p = X.shape
    if args.d >= p:
        raise ValueError(f"d={args.d} must be smaller than the column count p={p}")
    if args.center:
        X = X - X.mean(axis=0)
    spec = parse_radius(args.radius)
    fit = fit_pc_subspace(X, args.d, spec)
    meta = {
        "command": "fit",
        "input": args.input,
        "n": n,
        "p": p,
        "d": args.d,
        "radius": args.radius,
        "center": str(bool(args.center)).lower(),
        "mode": {0.0: "spherize", math.inf: "identity"}.get(fit.radius, "winsorize"),
        "effective_radius": fit.radius if 0.0 < fit.radius < math.inf else "none",
        "eigenvalues": ",".join(format_value(v) for v in fit.eigenvalues),
        "degenerate_gap": str(fit.degenerate_gap).lower(),
    }
    if fit.degenerate_gap:
        meta["warning"] = "eigen-gap at d is degenerate; the subspace is not unique"
        print(f"warning: {meta['warning']}", file=sys.stderr)
    _emit_table([f"basis_{j + 1}" for j in range(args.d)], fit.basis, meta, args.out)
    return 0


def _orthonormalize_if_needed(B: np.ndarray, label: str) -> np.ndarray:
    if _is_orthonormal(B):
        return B
    Q, R = np.linalg.qr(B)
    diag = np.abs(np.diag(R))  # shorter than the column count when B is wide
    if diag.size < B.shape[1] or diag.min() <= ORTHONORMAL_TOL * diag.max():
        raise ValueError(f"{label}: basis columns are linearly dependent")
    print(f"warning: {label} is not orthonormal within {ORTHONORMAL_TOL:g}; "
          "re-orthonormalizing", file=sys.stderr)
    return Q * np.sign(np.diag(R))


def cmd_angles(args: argparse.Namespace) -> int:
    A = read_matrix_csv(args.basis_a)
    B = read_matrix_csv(args.basis_b)
    if A.shape != B.shape:
        raise ValueError(f"basis shapes differ: {A.shape} vs {B.shape}")
    for M, label in ((A, args.basis_a), (B, args.basis_b)):
        if not np.isfinite(M).all():
            raise ValueError(f"{label}: basis must be finite")
    A = _orthonormalize_if_needed(A, args.basis_a)
    B = _orthonormalize_if_needed(B, args.basis_b)
    angles = principal_angles(A, B)
    meta = {
        "command": "angles",
        "basis_a": args.basis_a,
        "basis_b": args.basis_b,
        "smallest": float(angles[0]),
        "largest": float(angles[-1]),
        "sin_largest": math.sin(angles[-1]),
    }
    _emit_table(("index", "angle"), enumerate(angles, start=1), meta, args.out)
    return 0


def _perturbation(a: argparse.Namespace):
    if a.gap < 0:
        raise ValueError("gap must be nonnegative")
    report = perturbation_bound(a.gap, 0.0, a.r, a.eps)
    return {}, [("bound1", report.components["bound1"]),
                ("bound2", report.components.get("bound2")),
                ("min_bound", report.value)]


def _breakdown(a: argparse.Namespace):
    weak, strong = breakdown_lower_bounds_from_values(_parse_float_list(a.eigs), a.r2, a.d)
    return {}, [("weak_lb", weak), ("strong_lb", strong)]


def _concentration(a: argparse.Namespace):
    report = concentration_bound(a.lam1, a.lamp, np.sort(_parse_float_list(a.weigs))[::-1],
                                 a.r, a.d, a.eps, a.n, a.p,
                                 math.inf if a.sigma is None else a.sigma)
    family = "elliptical" if a.sigma is None else "subgaussian"
    rows = [("value", report.value), *report.components.items(), ("clipped", report.clipped)]
    return {"family": family}, rows


def _rate(a: argparse.Namespace):
    terms = asymptotic_rate(a.beta, a.p, a.n, a.eps, a.subgaussian)
    return {}, zip(("contamination_term", "sampling_term"), terms)


# The ``bounds`` subcommands: help text, flags in metadata order as
# (name, type, default, help), and the function from the parsed flags to
# (leading metadata, quantity rows).  A default of ``...`` marks a required
# flag; type ``bool`` marks a switch.
_BOUNDS = {
    "perturbation": ("contamination perturbation bounds", [
        ("gap", float, ..., "winsorized sample eigen-gap at d"),
        ("r", float, 1.0, "winsorization radius"),
        ("eps", float, ..., "contamination fraction in [0, 0.5)"),
    ], _perturbation),
    "breakdown": ("breakdown-point lower bounds", [
        ("eigs", str, ..., "comma-separated descending winsorized sample eigenvalues"),
        ("r2", float, ..., "radius squared"),
        ("d", int, ..., None),
    ], _breakdown),
    "concentration": ("expected-loss concentration bounds", [
        ("lam1", float, ..., "largest population eigenvalue"),
        ("lamp", float, ..., "smallest population eigenvalue"),
        ("weigs", str, ..., "comma-separated winsorized eigenvalues (length > d)"),
        ("r", float, ..., "winsorization radius"),
        ("d", int, ..., None),
        ("eps", float, ..., None),
        ("n", int, ..., None),
        ("p", int, ..., None),
        ("sigma", float, None, "subgaussian parameter of the whitened vector; "
                               "omit for the elliptical bound"),
    ], _concentration),
    "rate": ("asymptotic rate shapes for power-law radii", [
        ("beta", float, ..., None),
        ("p", int, ..., None),
        ("n", int, ..., None),
        ("eps", float, 0.0, None),
        ("subgaussian", bool, False, None),
    ], _rate),
}


def cmd_bounds(args: argparse.Namespace) -> int:
    """Evaluate one ``bounds`` subcommand; echo every flag, unset ones as none."""
    _, flags, quantities = _BOUNDS[args.bounds_command]
    lead, rows = quantities(args)
    meta = {"command": f"bounds.{args.bounds_command}", **lead}
    for name, kind, _, _ in flags:
        value = getattr(args, name)
        meta[name] = str(value).lower() if kind is bool else "none" if value is None else value
    _emit_table(("quantity", "value"), rows, meta, args.out)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    run = PRESETS[args.preset]
    if args.scale is not None and not 0 < args.scale < math.inf:
        raise ValueError(f"--scale must be positive and finite, got {args.scale}")
    if args.replications is not None and args.replications < 1:
        raise ValueError(f"--replications must be at least 1, got {args.replications}")
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    # Flags the preset does not take keep its own defaults.
    params = inspect.signature(run).parameters
    kwargs = {"seed": args.seed}
    ignored = []
    if args.scale is not None:
        if "scale" in params:
            kwargs["scale"] = args.scale
        elif "replications" in params:
            # A preset without a size parameter scales its replication count.
            scaled = params["replications"].default * args.scale
            if scaled == math.inf:
                raise ValueError("--scale must be small enough for a finite "
                                 f"replication count, got {args.scale}")
            kwargs["replications"] = max(1, round(scaled))
        else:
            ignored.append("--scale")
    for name in ("replications", "jobs"):
        value = getattr(args, name)
        if value is not None:
            if name in params:
                kwargs[name] = value
            else:
                ignored.append(f"--{name}")
    if ignored:
        print(f"note: {args.preset} takes no {' or '.join(ignored)}; ignored", file=sys.stderr)
    _emit(run(**kwargs).csv_text(), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winpca",
        description="Winsorized PCA: robust subspace fitting, angle diagnostics, "
                    "bound calculus, and preset experiments.",
    )
    parser.add_argument("--version", action="version", version=f"winpca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None,
                       help="output path (default stdout); relative paths resolve "
                            "under $WINPCA_OUT_DIR")

    p_fit = sub.add_parser("fit", help="fit a PC subspace from a data CSV")
    p_fit.add_argument("input", help="CSV with n rows and p numeric columns")
    p_fit.add_argument("--d", type=int, required=True, help="subspace dimension")
    p_fit.add_argument("--radius", default="median",
                       help="none | spherical | median | fixed:<r> | power:<beta> "
                            "(default median)")
    p_fit.add_argument("--center", action="store_true",
                       help="subtract column means before winsorizing")
    add_out(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_ang = sub.add_parser("angles", help="principal angles between two basis CSVs")
    p_ang.add_argument("basis_a")
    p_ang.add_argument("basis_b")
    add_out(p_ang)
    p_ang.set_defaults(func=cmd_angles)

    p_bounds = sub.add_parser("bounds", help="evaluate closed-form bounds")
    bsub = p_bounds.add_subparsers(dest="bounds_command", required=True)
    for name, (text, flags, _) in _BOUNDS.items():
        p_bound = bsub.add_parser(name, help=text)
        for flag, kind, default, flag_help in flags:
            how = ({"action": "store_true"} if kind is bool else
                   {"type": kind, "default": default, "required": default is ...})
            p_bound.add_argument(f"--{flag}", help=flag_help, **how)
        add_out(p_bound)
        p_bound.set_defaults(func=cmd_bounds)

    p_exp = sub.add_parser("experiment", help="run a preset experiment grid")
    p_exp.add_argument("preset", choices=sorted(PRESETS))
    p_exp.add_argument("--scale", type=float, default=None,
                       help="size multiplier (fig1: n and replications; fig2: p; "
                            "fig3: replications)")
    p_exp.add_argument("--seed", type=int, default=42)
    p_exp.add_argument("--jobs", type=int, default=None,
                       help="threads that run replications (fig1, fig2, fig3; "
                            "default 1); with one job each replication spreads "
                            "its eigensolves over the CPUs instead (taskset -c 0 "
                            "keeps a run on one CPU); output bytes depend on neither")
    p_exp.add_argument("--replications", type=int, default=None,
                       help="override the preset replication count (fig2, fig3)")
    add_out(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def _extract_config(argv: list[str]) -> tuple[str | None, list[str]]:
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config requires a file path")
            return argv[i + 1], argv[:i] + argv[i + 2:]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1], argv[:i] + argv[i + 1:]
    return None, argv


def _config_tokens(path: str, section: str) -> list[str]:
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_string(fh.read())
    if section not in cp:
        return []
    tokens: list[str] = []
    for key, val in cp[section].items():
        flag = "--" + key.replace("_", "-")
        if key in _BOOL_KEYS:
            if val.strip().lower() in ("1", "true", "yes", "on"):
                tokens.append(flag)
        else:
            tokens.extend([flag, val.strip()])
    return tokens


def _apply_config(argv: list[str]) -> list[str]:
    path, rest = _extract_config(argv)
    if path is None or not rest:
        return rest
    cmd = rest[0]
    insert_at = 1
    section = cmd
    if cmd == "bounds" and len(rest) > 1 and not rest[1].startswith("-"):
        section = f"bounds.{rest[1]}"
        insert_at = 2
    elif cmd == "experiment" and len(rest) > 1 and not rest[1].startswith("-"):
        insert_at = 2
    return rest[:insert_at] + _config_tokens(path, section) + rest[insert_at:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _apply_config(argv)
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
