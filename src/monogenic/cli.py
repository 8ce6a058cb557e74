"""Command-line interface: compute objects, serialize them, verify identities.

Every command is one entry of `_COMMANDS`: its help line, its argument
specs and a compute function, which reads the command's input files and
returns one result.  `build_parser` adds the entries in table order, each
followed by the shared --format and --output flags, and `_run` prints a
result by its type through `_PRINTERS` (polynomial, Fock element or
scalar); a verify report prints itself and exits 1 when a check reports
fail.  A check whose identity holds at n = 1 only reports known-false at
n >= 2 and does not fail the run.

Exit codes: 0 success, 1 an identity that holds at this n failed,
2 input/schema error, an unwritable --output path or a stdout closed by
its reader, 3 bounds exceeded, 4 domain precondition (non-monogenic
input).  A rational past the interpreter's int-string digit limit is an
input error when read and a bound exceeded when a result would print it.
The --output path is checked before any work; a command that exits 2-4
leaves an existing --output file unchanged.
The MONOGENIC_MAX_DEGREE environment variable overrides the total-degree cap
for the duration of one `main` call.
"""

from __future__ import annotations

import argparse
import contextvars
import json
import os
import sys

from . import fock, gauss, serialize, transform
from .clifford import BoundsError, GaussianRational
from .poly import CliffordPolynomial, DegreeCapError, set_degree_cap
from .serialize import SchemaError
from .transform import NotMonogenicError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_BOUNDS = 3
EXIT_DOMAIN = 4


def _parse_beta(text: str) -> tuple[int, ...]:
    # ASCII digit runs only: int() would also read "1_0", "+2", " 1" and
    # non-ASCII digits, which a JSON multi-index rejects
    parts = text.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise SchemaError(f"bad multi-index {text!r}; expected comma-separated ints")
    return tuple(map(int, parts))


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"cannot read JSON from {path}: {exc}")


def _poly(path: str) -> CliffordPolynomial:
    return serialize.poly_from_json(_read_json(path))


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write to {args.output}: {exc}")
    else:
        try:
            print(text, flush=True)
        except OSError as exc:
            # stdout was closed by its reader: point it at devnull, so that
            # the shutdown flush of what is left in its buffer cannot fail too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValueError(f"cannot write to stdout: {exc}")


def _claim_output(path: str) -> bool:
    """Check that --output can be opened for writing before any work is
    done, without changing an existing file; True when the path was
    created here and must go again if the command fails."""
    created = not os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ValueError(f"cannot write to {path}: {exc}")
    return created


def _verify(args):
    from . import verify  # imported here: only this command needs it, and it is slow to import

    return verify.run_verification(n=args.n, max_degree=args.max_degree,
                                   trials=args.trials, seed=args.seed)


_N = ("--n", {"type": int, "required": True})
_INPUT = ("--input", {"required": True})
_IO_FLAGS = [("--format", {"choices": ("json", "text"), "default": "json"}),
             ("--output", {"help": "write to file instead of stdout"})]

# command -> (help, argument specs, compute)
_COMMANDS = {
    "hermite": ("Hermite basis polynomial for a multi-index",
                [_N, ("--beta", {"required": True, "help": "comma-separated multi-index, e.g. 2,0"})],
                lambda args: transform.hermite(args.n, _parse_beta(args.beta))),
    "pbasis": ("monogenic basis polynomial for a multi-index",
               [_N, ("--beta", {"required": True})],
               lambda args: transform.p_basis(args.n, _parse_beta(args.beta))),
    "ck": ("Cauchy-Kowalevski extension of an x0-free polynomial",
           [("--input", {"required": True, "help": "polynomial JSON file, or - for stdin"})],
           lambda args: transform.ck_extend(_poly(args.input))),
    "transform": ("apply the Segal-Bargmann transform",
                  [_INPUT, ("--hermite", {"action": "store_true", "help":
                            "treat the input as a Hermite expansion instead of a polynomial"})],
                  lambda args: transform.sb_transform(
                      (serialize.expansion_from_json if args.hermite else serialize.poly_from_json)(
                          _read_json(args.input)))),
    "inverse": ("invert the transform on a monogenic polynomial", [_INPUT],
                lambda args: transform.sb_inverse(_poly(args.input))),
    "taylor": ("Taylor map of a monogenic polynomial", [_INPUT],
               lambda args: fock.taylor_map(_poly(args.input))),
    "fock-inverse": ("monogenic polynomial of a Fock element", [_INPUT],
                     lambda args: fock.fock_to_monogenic(
                         serialize.fock_from_json(_read_json(args.input)))),
    "inner": ("exact Gaussian inner product of two polynomials",
              [("--measure", {"choices": ("rho", "mu"), "required": True}),
               ("--lhs", {"required": True}), ("--rhs", {"required": True})],
              lambda args: (gauss.inner_rho if args.measure == "rho" else gauss.inner_mu)(
                  _poly(args.lhs), _poly(args.rhs))),
    "verify": ("run the full identity verification suite",
               [("--n", {"type": int, "default": 2}), ("--max-degree", {"type": int, "default": 4}),
                ("--trials", {"type": int, "default": 100}), ("--seed", {"type": int, "default": 0})],
               _verify),
}

# result type -> (text printer, JSON printer)
_PRINTERS = {
    CliffordPolynomial: (serialize.poly_to_text, serialize.poly_to_json),
    fock.FockElement: (serialize.fock_to_text, serialize.fock_to_json),
    GaussianRational: (serialize.scalar_to_text, serialize.scalar_to_json),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monogenic",
        description="Exact Clifford-valued Segal-Bargmann transform and Taylor isomorphism")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, specs, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, options in specs + _IO_FLAGS:
            p.add_argument(flag, **options)
    return parser


def _run(args) -> int:
    """Read and compute through the command's table entry, then print the
    result by its type; a verify report with a failing check exits 1."""
    result = _COMMANDS[args.command][2](args)
    if type(result) in _PRINTERS:
        to_text, to_json = _PRINTERS[type(result)]
        text = to_text(result) if args.format == "text" else json.dumps(to_json(result))
        code = EXIT_OK
    else:  # a verify report
        text = result.to_text() if args.format == "text" else json.dumps(result.to_json())
        code = EXIT_OK if result.passed else EXIT_VERIFY_FAILED
    _emit(args, text)
    return code


def main(argv=None) -> int:
    # a copied context drops the cap that MONOGENIC_MAX_DEGREE sets when main returns
    return contextvars.copy_context().run(_parse_and_run, argv)


def _parse_and_run(argv) -> int:
    args = build_parser().parse_args(argv)
    cap = os.environ.get("MONOGENIC_MAX_DEGREE")
    if cap is not None:
        try:
            set_degree_cap(int(cap))
        except ValueError:
            print(f"bad MONOGENIC_MAX_DEGREE value {cap!r}", file=sys.stderr)
            return EXIT_INPUT
    created = False
    try:
        if args.output:
            created = _claim_output(args.output)
        return _run(args)
    except NotMonogenicError as exc:
        code, message = EXIT_DOMAIN, exc
    except (DegreeCapError, BoundsError) as exc:
        code, message = EXIT_BOUNDS, exc
    except (SchemaError, ValueError) as exc:
        code, message = EXIT_INPUT, exc
    if created:
        os.remove(args.output)
    print(f"error: {message}", file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
