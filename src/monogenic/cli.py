"""Command-line interface: compute objects, serialize them, verify identities.

Exit codes: 0 success, 1 verification failure, 2 input/schema error or
an unwritable --output path, 3 bounds exceeded, 4 domain precondition
(non-monogenic input).  A rational past the interpreter's int-string
digit limit is an input error when read and a bound exceeded when a
result would print it.  The --output path is checked before any work;
a command that exits 2-4 leaves an existing --output file unchanged.
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
from .clifford import BoundsError, _part_text
from .poly import CliffordPolynomial, DegreeCapError, set_degree_cap
from .serialize import SchemaError
from .transform import NotMonogenicError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_BOUNDS = 3
EXIT_DOMAIN = 4


def _parse_beta(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SchemaError(f"bad multi-index {text!r}; expected comma-separated ints")


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"cannot read JSON from {path}: {exc}")


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write to {args.output}: {exc}")
    else:
        print(text)


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


def _emit_poly(args, f: CliffordPolynomial) -> None:
    if args.format == "text":
        _emit(args, serialize.poly_to_text(f))
    else:
        _emit(args, json.dumps(serialize.poly_to_json(f)))


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monogenic",
        description="Exact Clifford-valued Segal-Bargmann transform and Taylor isomorphism")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hermite", help="Hermite basis polynomial for a multi-index")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", required=True, help="comma-separated multi-index, e.g. 2,0")
    _add_io_flags(p)

    p = sub.add_parser("pbasis", help="monogenic basis polynomial for a multi-index")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", required=True)
    _add_io_flags(p)

    p = sub.add_parser("ck", help="Cauchy-Kowalevski extension of an x0-free polynomial")
    p.add_argument("--input", required=True, help="polynomial JSON file, or - for stdin")
    _add_io_flags(p)

    p = sub.add_parser("transform", help="apply the Segal-Bargmann transform")
    p.add_argument("--input", required=True)
    p.add_argument("--hermite", action="store_true",
                   help="treat the input as a Hermite expansion instead of a polynomial")
    _add_io_flags(p)

    p = sub.add_parser("inverse", help="invert the transform on a monogenic polynomial")
    p.add_argument("--input", required=True)
    _add_io_flags(p)

    p = sub.add_parser("taylor", help="Taylor map of a monogenic polynomial")
    p.add_argument("--input", required=True)
    _add_io_flags(p)

    p = sub.add_parser("fock-inverse", help="monogenic polynomial of a Fock element")
    p.add_argument("--input", required=True)
    _add_io_flags(p)

    p = sub.add_parser("inner", help="exact Gaussian inner product of two polynomials")
    p.add_argument("--measure", choices=("rho", "mu"), required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    _add_io_flags(p)

    p = sub.add_parser("verify", help="run the full identity verification suite")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_io_flags(p)

    return parser


def _cmd_hermite(args) -> int:
    _emit_poly(args, transform.hermite(args.n, _parse_beta(args.beta)))
    return EXIT_OK


def _cmd_pbasis(args) -> int:
    _emit_poly(args, transform.p_basis(args.n, _parse_beta(args.beta)))
    return EXIT_OK


def _cmd_ck(args) -> int:
    f = serialize.poly_from_json(_read_json(args.input))
    _emit_poly(args, transform.ck_extend(f))
    return EXIT_OK


def _cmd_transform(args) -> int:
    data = _read_json(args.input)
    if args.hermite:
        f = serialize.expansion_from_json(data)
    else:
        f = serialize.poly_from_json(data)
    _emit_poly(args, transform.sb_transform(f))
    return EXIT_OK


def _cmd_inverse(args) -> int:
    F = serialize.poly_from_json(_read_json(args.input))
    _emit_poly(args, transform.sb_inverse(F))
    return EXIT_OK


def _cmd_taylor(args) -> int:
    F = serialize.poly_from_json(_read_json(args.input))
    alpha = fock.taylor_map(F)
    if args.format == "text":
        _emit(args, serialize.fock_to_text(alpha))
    else:
        _emit(args, json.dumps(serialize.fock_to_json(alpha)))
    return EXIT_OK


def _cmd_fock_inverse(args) -> int:
    alpha = serialize.fock_from_json(_read_json(args.input))
    _emit_poly(args, fock.fock_to_monogenic(alpha))
    return EXIT_OK


def _cmd_inner(args) -> int:
    f = serialize.poly_from_json(_read_json(args.lhs))
    g = serialize.poly_from_json(_read_json(args.rhs))
    if args.measure == "rho":
        value = gauss.inner_rho(f, g)
    else:
        value = gauss.inner_mu(f, g)
    if args.format == "text":
        _emit(args, serialize.scalar_to_text(value))
    else:
        # printed like every JSON part, so a part past the digit limit is a bound
        re, im = value.re, value.im
        _emit(args, json.dumps({"re": _part_text(re.numerator, re.denominator),
                                "im": _part_text(im.numerator, im.denominator)}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify  # imported here: only this command needs it, and it is slow to import

    report = verify.run_verification(n=args.n, max_degree=args.max_degree,
                                     trials=args.trials, seed=args.seed)
    if args.format == "text":
        _emit(args, report.to_text())
    else:
        _emit(args, json.dumps(report.to_json()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


_HANDLERS = {
    "hermite": _cmd_hermite,
    "pbasis": _cmd_pbasis,
    "ck": _cmd_ck,
    "transform": _cmd_transform,
    "inverse": _cmd_inverse,
    "taylor": _cmd_taylor,
    "fock-inverse": _cmd_fock_inverse,
    "inner": _cmd_inner,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    # a copied context drops the cap that MONOGENIC_MAX_DEGREE sets when main returns
    return contextvars.copy_context().run(_main, argv)


def _main(argv) -> int:
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
        return _HANDLERS[args.command](args)
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
