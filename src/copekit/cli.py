"""Command-line interface.

Documents go to stdout (or ``--output``); diagnostics go to stderr.  When
no input path is given, commands read stdin, so generation and analysis
compose: ``copekit generate --theory boxworld | copekit certify | copekit check``.

Exit codes: 0 success / noncontextual, 10 contextual, 20 undetermined,
2 usage or document errors, 3 computation guard exceeded, 1 internal
check failed (a bug, reported without a traceback).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Optional

from . import cope as cope_mod
from . import jsonio
from . import rational_linalg as rla
from .backend import floating
from .certify import CONTEXTUAL, NONCONTEXTUAL, UNDETERMINED, certify
from .cope import CopeMatrix, FragmentRestriction, cope_matrix
from .models import (
    classify_model,
    fiducial_tomography_test,
    gpt,
    pregpt_from_svd,
    quasi_from_gpt,
    trivial_ontological,
)
from .nmf import NmfOptions, enmf, nmf
from .polytope import GuardExceeded
from .theories import (
    boxworld,
    cardinal_directions,
    discrete_qubit,
    extended_boxworld,
    generic_directions,
    spekkens,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_CONTEXTUAL = 10
EXIT_UNDETERMINED = 20

_VERDICT_EXIT = {NONCONTEXTUAL: EXIT_OK, CONTEXTUAL: EXIT_CONTEXTUAL, UNDETERMINED: EXIT_UNDETERMINED}


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read_input(path: Optional[str]) -> bytes:
    if path and path != "-":
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise _CliError(f"cannot read {path}: {exc}") from exc
    return sys.stdin.buffer.read()


def _write_output(data: bytes, path: Optional[str]) -> None:
    if path and path != "-":
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise _CliError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.buffer.write(data)


def _load_matrix(args) -> CopeMatrix:
    c = jsonio.parse_cope(_read_input(getattr(args, "input", None)))
    backend, eps = getattr(args, "backend", None), getattr(args, "eps", None)
    if eps is not None and not (backend == "float" and c.backend.is_exact):
        raise _CliError("--eps applies only with --backend float on a rational document")
    if backend == "float" and c.backend.is_exact:
        c = cope_matrix(
            blocks=[[[float(x) for x in row] for row in block] for block in c.blocks],
            backend=floating(1e-9 if eps is None else eps),
            prep_labels=c.prep_labels,
            measurement_labels=c.measurement_labels,
            outcome_labels=c.outcome_labels,
        )
    elif backend == "rational" and not c.backend.is_exact:
        raise _CliError("cannot promote a float document to the rational backend")
    return c


def _indices(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _CliError(f"bad {what} index list {text!r}") from exc


def _nmf_options(args) -> NmfOptions:
    return NmfOptions(
        max_restarts=args.restarts,
        max_iterations=args.iterations,
        seed=args.seed,
        snap_tol=args.snap_tol,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", default=None, help="input document (default: stdin)")
    parser.add_argument("--output", default=None, help="output path (default: stdout)")
    parser.add_argument("--backend", choices=["rational", "float"], default=None)
    parser.add_argument("--eps", type=float, default=None, help="float comparison tolerance")


def _add_search(parser: argparse.ArgumentParser) -> None:
    # Only the commands that run the factorization search read these.
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=400)
    parser.add_argument("--snap-tol", type=float, default=1e-6, dest="snap_tol")
    parser.add_argument("--max-k", type=int, default=None, dest="max_k")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="copekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dimensions, rank, fiducial tomography flags")
    _add_common(p)

    p = sub.add_parser("validate", help="check a matrix document")
    _add_common(p)

    p = sub.add_parser("quotient", help="extremal quotienting")
    _add_common(p)

    p = sub.add_parser("merge", help="merge all measurements into one block")
    _add_common(p)

    p = sub.add_parser("restrict", help="restrict to a fragment")
    _add_common(p)
    p.add_argument("--keep-preps", required=True, help="comma-separated 0-based indices")
    p.add_argument("--keep-measurements", required=True, help="comma-separated 0-based indices")

    p = sub.add_parser("factorize", help="produce a model document")
    _add_common(p)
    _add_search(p)
    p.add_argument(
        "--kind",
        required=True,
        choices=["pregpt", "gpt", "quasi", "trivial", "nmf", "enmf"],
    )
    p.add_argument("--inner-dim", type=int, default=None, dest="inner_dim", help="nmf only")
    p.add_argument("--tom-columns", default=None, dest="tom_columns", help="quasi only")

    p = sub.add_parser("verify", help="classify a model against a matrix")
    _add_common(p)
    p.add_argument("--model", required=True, help="model document path")

    p = sub.add_parser("certify", help="decide contextuality")
    _add_common(p)
    _add_search(p)

    p = sub.add_parser("check", help="re-derive a certificate; exit with its verdict's code")
    p.add_argument("input", nargs="?", default=None, help="certificate document (default: stdin)")

    p = sub.add_parser("generate", help="emit a built-in theory")
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.add_argument(
        "--theory",
        required=True,
        choices=["spekkens", "boxworld", "extended-boxworld", "qubit"],
    )
    p.add_argument("--directions", type=int, default=None, help="qubit: number of directions (5)")
    p.add_argument("--seed", type=int, default=None, help="qubit: direction seed (11)")
    p.add_argument("--cardinal", action="store_true", help="qubit: use the x,y,z axes")
    p.add_argument("--no-antipodes", action="store_true", help="qubit: omit -v preparations")
    p.add_argument("--eps", type=float, default=None, help="qubit: float comparison tolerance (1e-9)")

    return parser


def _independent_state_columns(model) -> list[int]:
    """Lexicographically first set of linearly independent state columns."""
    r = model.inner_dim
    columns = [list(col) for col in zip(*model.states)]
    if model.backend.is_exact:
        return rla.independent_rows(columns)
    chosen: list[int] = []
    for j in range(len(columns)):
        if cope_mod.float_rank([columns[i] for i in chosen + [j]], model.backend.eps) > len(chosen):
            chosen.append(j)
            if len(chosen) == r:
                break
    return chosen


def _cmd_info(args) -> int:
    c = _load_matrix(args)
    r = cope_mod.rank(c)
    states_fid, effects_fid = fiducial_tomography_test(c)
    lines = [
        f"preparations: {c.n_preparations}",
        f"measurements: {c.n_measurements}",
        f"outcomes per measurement: {', '.join(str(s) for s in c.block_sizes)}",
        f"stacked shape: {c.n_rows} x {c.n_preparations}",
        f"backend: {c.backend.kind}",
        f"rank: {r}",
        f"fiducial states possible: {states_fid}",
        f"fiducial effects possible: {effects_fid}",
    ]
    _write_output(("\n".join(lines) + "\n").encode(), args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    _load_matrix(args)
    _write_output(b"ok\n", args.output)
    return EXIT_OK


def _cmd_quotient(args) -> int:
    c = _load_matrix(args)
    report = cope_mod.quotient_extremal(c)
    _write_output(jsonio.emit_cope(report.quotiented), args.output)
    return EXIT_OK


def _cmd_merge(args) -> int:
    c = _load_matrix(args)
    _write_output(jsonio.emit_cope(cope_mod.merge_measurements(c)), args.output)
    return EXIT_OK


def _cmd_restrict(args) -> int:
    c = _load_matrix(args)
    restriction = FragmentRestriction(
        parent=c,
        kept_preparations=tuple(_indices(args.keep_preps, "preparation")),
        kept_measurements=tuple(_indices(args.keep_measurements, "measurement")),
    )
    _write_output(jsonio.emit_cope(cope_mod.restrict_fragment(restriction)), args.output)
    return EXIT_OK


def _cmd_factorize(args) -> int:
    # A flag the kind would not read is refused (certify reads --max-k too).
    for flag, value, kind in (("--inner-dim", args.inner_dim, "nmf"), ("--max-k", args.max_k, "enmf"),
                              ("--tom-columns", args.tom_columns, "quasi")):
        if value is not None and args.kind != kind:
            raise _CliError(f"{flag} applies only to --kind {kind}, not --kind {args.kind}")
    c = _load_matrix(args)
    opts = _nmf_options(args)
    if args.kind == "pregpt":
        model = pregpt_from_svd(c)
    elif args.kind == "gpt":
        model = gpt(c)
    elif args.kind == "quasi":
        base = gpt(c)
        if args.tom_columns:
            cols = _indices(args.tom_columns, "tomographic column")
        else:
            cols = _independent_state_columns(base)
        model = quasi_from_gpt(base, cols)
    elif args.kind == "trivial":
        model = trivial_ontological(c)
    elif args.kind == "nmf":
        k = cope_mod.rank(c) if args.inner_dim is None else args.inner_dim
        model = nmf(c, dataclasses.replace(opts, inner_dim=k))
        if model is None:
            raise _CliError(f"no nonnegative factorization found at inner dimension {k}", EXIT_GUARD)
    else:
        model = enmf(c, opts, max_k=args.max_k)
        if model is None:
            raise _CliError("no equirank nonnegative factorization found", EXIT_GUARD)
    _write_output(jsonio.emit_model(model), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    c = _load_matrix(args)
    model = jsonio.parse_model(_read_input(args.model))
    report = classify_model(c, model)
    doc = dataclasses.asdict(report)
    doc["inferred_kinds"] = sorted(k.value for k in report.inferred_kinds)
    _write_output((json.dumps(doc, sort_keys=True, indent=2) + "\n").encode(), args.output)
    return EXIT_OK


def _cmd_certify(args) -> int:
    c = _load_matrix(args)
    opts = _nmf_options(args)
    start = time.monotonic()
    cert = certify(c, opts, max_k=args.max_k)
    elapsed_ms = (time.monotonic() - start) * 1000.0
    _write_output(jsonio.emit_certificate(cert, c, wall_time_ms=elapsed_ms), args.output)
    return _VERDICT_EXIT[cert.verdict]


def _cmd_check(args) -> int:
    cert, _ = jsonio.parse_certificate(_read_input(args.input))
    return _VERDICT_EXIT[cert.verdict]


def _cmd_generate(args) -> int:
    # A flag the theory would not read is refused, as factorize does for kinds.
    for flag, given in (("--directions", args.directions is not None), ("--seed", args.seed is not None),
                        ("--cardinal", args.cardinal), ("--no-antipodes", args.no_antipodes),
                        ("--eps", args.eps is not None)):
        if given and args.theory != "qubit":
            raise _CliError(f"{flag} applies only to --theory qubit, not --theory {args.theory}")
    for flag, value in (("--directions", args.directions), ("--seed", args.seed)):
        if args.cardinal and value is not None:
            raise _CliError(f"{flag} does not apply with --cardinal")
    if args.theory == "spekkens":
        c = spekkens()
    elif args.theory == "boxworld":
        c = boxworld()
    elif args.theory == "extended-boxworld":
        c = extended_boxworld()
    else:
        if args.cardinal:
            dirs = cardinal_directions()
        else:
            n = 5 if args.directions is None else args.directions
            dirs = generic_directions(n, seed=11 if args.seed is None else args.seed)
        c = discrete_qubit(
            dirs,
            include_antipodes=not args.no_antipodes,
            eps=1e-9 if args.eps is None else args.eps,
        )
    _write_output(jsonio.emit_cope(c), args.output)
    return EXIT_OK


_COMMANDS = {
    "info": _cmd_info,
    "validate": _cmd_validate,
    "quotient": _cmd_quotient,
    "merge": _cmd_merge,
    "restrict": _cmd_restrict,
    "factorize": _cmd_factorize,
    "verify": _cmd_verify,
    "certify": _cmd_certify,
    "check": _cmd_check,
    "generate": _cmd_generate,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except jsonio.ParseError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"error: {exc}{field}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
