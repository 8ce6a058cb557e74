"""CLI surface: subcommands, exit codes, determinism."""

import contextlib
import io
import json
import operator
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monogenic
import monogenic.verify as verify_module
from monogenic import get_degree_cap, p_basis
from monogenic.cli import main
from monogenic.serialize import poly_from_json, poly_to_json

DATA = Path(__file__).resolve().parent / "data"


def write_poly(tmp_path, name, f):
    path = tmp_path / name
    path.write_text(json.dumps(poly_to_json(f)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pbasis_json(capsys):
    code, out, _ = run(capsys, ["pbasis", "--n", "2", "--beta", "2,0"])
    assert code == 0
    assert poly_from_json(json.loads(out)) == p_basis(2, (2, 0))


def test_hermite_constant(capsys):
    code, out, _ = run(capsys, ["hermite", "--n", "1", "--beta", "0"])
    assert code == 0
    blob = json.loads(out)
    assert blob["terms"] == [{"x0": 0, "beta": [0],
                              "coeff": [{"blade": [], "re": "1", "im": "0"}]}]


def test_inner_mu_diagonal(capsys, tmp_path):
    path = write_poly(tmp_path, "p20.json", p_basis(2, (2, 0)))
    code, out, _ = run(capsys, ["inner", "--measure", "mu", "--lhs", path,
                                "--rhs", path, "--format", "text"])
    assert code == 0
    assert out.strip() == "2/1"


def test_inner_rho_rejects_x0_terms(capsys, tmp_path):
    path = write_poly(tmp_path, "p10.json", p_basis(2, (1, 0)))
    code, out, err = run(capsys, ["inner", "--measure", "rho", "--lhs", path, "--rhs", path])
    assert (code, out) == (2, "")
    assert "the R^n measure requires x0-free polynomials" in err


def test_ck_transform_inverse_taylor_pipeline(capsys, tmp_path):
    from monogenic import CliffordPolynomial
    x1 = CliffordPolynomial.variable(2, 1)
    path = write_poly(tmp_path, "x1.json", x1)

    code, out, _ = run(capsys, ["ck", "--input", path])
    assert code == 0
    F = poly_from_json(json.loads(out))
    assert F == p_basis(2, (1, 0))

    fpath = write_poly(tmp_path, "F.json", F)
    code, out, _ = run(capsys, ["inverse", "--input", fpath])
    assert code == 0
    assert poly_from_json(json.loads(out)) == x1

    code, out, _ = run(capsys, ["taylor", "--input", fpath])
    assert code == 0
    blob = json.loads(out)
    assert blob["entries"] == [{"beta": [1, 0],
                                "value": [{"blade": [], "re": "1", "im": "0"}]}]

    epath = tmp_path / "alpha.json"
    epath.write_text(out)
    code, out, _ = run(capsys, ["fock-inverse", "--input", str(epath)])
    assert code == 0
    assert poly_from_json(json.loads(out)) == F


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, ["hermite", "--n", "1", "--beta", "2",
                                "--output", str(target)])
    assert code == 0
    assert out == ""
    blob = json.loads(target.read_text())
    assert blob["n"] == 1


def test_unwritable_output_exit_2(capsys, tmp_path):
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        code, out, err = run(capsys, ["hermite", "--n", "1", "--beta", "2",
                                      "--output", str(target)])
        assert code == 2
        assert out == "" and err.startswith("error: cannot write")


def test_closed_stdout_exit_2():
    # a reader that has gone, as `| head -c 100` leaves a long result,
    # is an unwritable output: one error line, no traceback
    src = str(Path(monogenic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               MONOGENIC_MAX_DEGREE="1000")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", "from monogenic.cli import run; run()",
                               "hermite", "--n", "1", "--beta", "400"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to stdout")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_unwritable_output_fails_before_the_work(capsys, tmp_path, monkeypatch):
    def fail(**kwargs):
        raise AssertionError("the command ran before its --output path was checked")

    monkeypatch.setattr(verify_module, "run_verification", fail)
    code, out, err = run(capsys, ["verify", "--n", "3", "--max-degree", "6", "--trials", "100",
                                  "--output", str(tmp_path / "missing" / "x.json")])
    assert code == 2
    assert out == "" and err.startswith("error: cannot write")


def test_failed_command_leaves_output_untouched(capsys, tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"previous bytes\n")
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2}')
    nonmonogenic = write_poly(tmp_path, "x1.json", monogenic.CliffordPolynomial.variable(2, 1))
    for argv, expected in ((["ck", "--input", str(bad)], 2),
                           (["hermite", "--n", "17", "--beta", "1"], 3),
                           (["inverse", "--input", nonmonogenic], 4)):
        code, out, _ = run(capsys, argv + ["--output", str(target)])
        assert code == expected
        assert target.read_bytes() == b"previous bytes\n"
    # a path that did not exist before a failed command does not exist after it
    fresh = tmp_path / "fresh.json"
    code, _, _ = run(capsys, ["ck", "--input", str(bad), "--output", str(fresh)])
    assert code == 2
    assert not fresh.exists()


def test_deeply_nested_json_exit_2(capsys, tmp_path):
    # deeper than the interpreter's recursion limit, which json.load hits
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, ["ck", "--input", str(deep)])
    assert code == 2
    assert out == "" and "error" in err


def test_schema_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "terms": [{"x0": 0, "beta": [0, 0], "coeff": [{"blade": [2, 1], "re": "1", "im": "0"}]}]}')
    code, _, err = run(capsys, ["ck", "--input", str(bad)])
    assert code == 2
    assert "error" in err


def test_malformed_beta_exit_2(capsys):
    code, _, _ = run(capsys, ["hermite", "--n", "2", "--beta", "a,b"])
    assert code == 2


@pytest.mark.parametrize("beta", ["1_0", "+2", " 1", "1 ", "\u0663", "\uff12",
                                  "1,,0", "1,", ""])
@pytest.mark.parametrize("command", ["hermite", "pbasis"])
def test_beta_accepts_only_ascii_digit_runs(capsys, command, beta):
    # int() reads each of these (except the empty runs), a JSON multi-index
    # reads none of them
    code, out, err = run(capsys, [command, "--n", str(beta.count(",") + 1), "--beta", beta])
    assert (code, out) == (2, "")
    assert f"bad multi-index {beta!r}" in err


def test_transform_and_inverse_preconditions_keep_their_exit_codes(capsys, tmp_path, monkeypatch):
    from monogenic import CliffordPolynomial, ck_extend
    x0x1 = CliffordPolynomial.monomial(2, 1, (1, 0))
    code, out, err = run(capsys, ["transform", "--input", write_poly(tmp_path, "x0x1.json", x0x1)])
    assert (code, out) == (2, "") and "x0-free" in err
    x1_5 = CliffordPolynomial.monomial(2, 0, (5, 0))
    over, F = write_poly(tmp_path, "x1_5.json", x1_5), write_poly(tmp_path, "F5.json", ck_extend(x1_5))
    monkeypatch.setenv("MONOGENIC_MAX_DEGREE", "4")
    for command, path in (("transform", over), ("inverse", F)):
        code, out, err = run(capsys, [command, "--input", path])
        assert (code, out) == (3, "") and "exceeds cap 4" in err


def test_non_monogenic_exit_4(capsys, tmp_path):
    from monogenic import CliffordPolynomial
    path = write_poly(tmp_path, "x1.json", CliffordPolynomial.variable(2, 1))
    code, _, _ = run(capsys, ["inverse", "--input", path])
    assert code == 4
    code, _, _ = run(capsys, ["taylor", "--input", path])
    assert code == 4


def test_verify_bounds_reject_bools_and_floats():
    # True passed as n = 1 into the report, and trials=1.5 failed inside range()
    from monogenic.clifford import BoundsError
    for args, message in (((True, 1, 1), r"dimension must be in \[1, 3\], got True"),
                          ((1, 2.0, 1), r"max_degree must be in \[0, 6\], got 2.0"),
                          ((1, 1, 1.5), "trials must be nonnegative"),
                          ((1, 1, -1), "trials must be nonnegative")):
        with pytest.raises(BoundsError, match=message):
            verify_module.run_verification(*args)


def test_verify_seed_must_be_an_int():
    # Random(None) seeded from the operating system: the report printed
    # "seed": null and two runs differed
    for seed in (None, True, 1.0, "1"):
        with pytest.raises(TypeError, match="seed must be an int"):
            verify_module.run_verification(1, 1, 1, seed)
    report = verify_module.run_verification(1, 1, 1, -5)
    assert report.to_json()["params"]["seed"] == -5 and report.passed


def test_bounds_exit_3(capsys, tmp_path):
    code, _, _ = run(capsys, ["verify", "--n", "5"])
    assert code == 3
    code, _, _ = run(capsys, ["verify", "--max-degree", "9"])
    assert code == 3
    # the C_n dimension bound (n <= 16) is a parameter bound too
    # whatever the length of the multi-index
    beta17 = ",".join(["0"] * 16 + ["1"])
    for command, n, beta in (("pbasis", "17", beta17), ("hermite", "17", beta17),
                             ("pbasis", "17", "1"), ("hermite", "0", "1")):
        code, out, err = run(capsys, [command, "--n", n, "--beta", beta])
        assert code == 3
        assert out == "" and "dimension" in err
    # and so is the dimension of input files
    for argv, blob in ((["transform"], {"n": 17, "terms": []}),
                       (["transform", "--hermite"], {"n": 17, "coeffs": []}),
                       (["fock-inverse"], {"n": 17, "entries": []})):
        path = tmp_path / "n17.json"
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, argv + ["--input", str(path)])
        assert code == 3
        assert out == "" and "dimension" in err
    # and so is the degree cap, for both multi-index containers
    beta13 = {"beta": [13, 0], "value": [{"blade": [], "re": "1", "im": "0"}]}
    for argv, blob in ((["fock-inverse"], {"n": 2, "entries": [beta13]}),
                       (["transform", "--hermite"], {"n": 2, "coeffs": [beta13]})):
        path = tmp_path / "deg13.json"
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, argv + ["--input", str(path)])
        assert code == 3
        assert out == "" and err == "error: total degree 13 exceeds cap 12\n"


_DIM17 = "error: dimension must be in [1, 16], got 17\n"
_GOOD_PART = {"blade": [1], "re": "1", "im": "0"}
_FAULTS = {
    "noncanonical": ([{"blade": [1], "re": "2/4", "im": "0"}],
                     "error: rational '2/4' is not in lowest terms\n"),
    "duplicate blade": ([_GOOD_PART, {"blade": [1], "re": "2", "im": "0"}],
                        "error: duplicate blade [1]\n"),
    "above cap": ([_GOOD_PART], _DIM17),
    # blades past C_16, which n = 17 admits until the dimension is refused
    "duplicate blade past 16": ([{"blade": [17], "re": "1", "im": "0"},
                                 {"blade": [17], "re": "2", "im": "0"}],
                                "error: duplicate blade [17]\n"),
    "unordered blade past 16": ([{"blade": [17, 17], "re": "1", "im": "0"}],
                                "error: blade indices must be strictly increasing, got [17, 17]\n"),
}


def _two_fault_document(field, fault, second):
    """An n = 17 object whose first (or, with `second`, second) entry
    carries `fault`; an entry above the cap has beta_1 = 13."""
    coeffs = [[_GOOD_PART], _FAULTS[fault][0]] if second else [_FAULTS[fault][0]]
    items = []
    for i, coeff in enumerate(coeffs):
        beta = [0] * 17
        beta[i] = 13 if fault == "above cap" else 1
        items.append({"x0": 0, "beta": beta, "coeff": coeff} if field == "terms"
                     else {"beta": beta, "value": coeff})
    return {"n": 17, field: items}


@pytest.mark.parametrize("argv, field", [(["transform"], "terms"),
                                         (["transform", "--hermite"], "coeffs"),
                                         (["fock-inverse"], "entries")])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("second", [False, True])
def test_error_precedence_of_two_fault_inputs(capsys, tmp_path, argv, field, fault, second):
    # n = 17 is reported once the first entry's value has been read: a
    # fault inside that value comes first (exit 2), a fault in any later
    # entry after it (exit 3), and the degree cap after every other check
    path = tmp_path / "two-faults.json"
    path.write_text(json.dumps(_two_fault_document(field, fault, second)))
    code, out, err = run(capsys, argv + ["--input", str(path)])
    message = _DIM17 if second else _FAULTS[fault][1]
    assert (code, out, err) == (3 if message == _DIM17 else 2, "", message)


def test_degree_cap_is_checked_after_the_schema_and_on_zero_terms(capsys, tmp_path):
    over = {"x0": 13, "beta": [0], "coeff": []}
    bad = {"x0": 0, "beta": [1], "coeff": [{"blade": [], "re": "01", "im": "0"}]}
    zero_part = [{"blade": [], "re": "0", "im": "0"}]
    for argv, blob, expected in (
            (["transform"], {"n": 1, "terms": [over, bad]},
             (2, "error: malformed rational '01'\n")),
            (["transform"], {"n": 1, "terms": [over]},
             (3, "error: total degree 13 exceeds cap 12\n")),
            (["transform"], {"n": 1, "terms": [dict(over, coeff=zero_part)]},
             (3, "error: total degree 13 exceeds cap 12\n")),
            (["fock-inverse"], {"n": 1, "entries": [{"beta": [13], "value": zero_part}]},
             (3, "error: total degree 13 exceeds cap 12\n"))):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, argv + ["--input", str(path)])
        assert (code, out, err) == expected[:1] + ("",) + expected[1:]


def test_rationals_past_the_digit_limit(capsys, tmp_path):
    # the interpreter converts int <-> str only up to a digit limit: a longer
    # rational in the input is malformed input, a result that would print a
    # longer one is a bound exceeded, and an existing --output file stays
    limit = sys.get_int_max_str_digits()
    unreadable = (2, f"error: rational exceeds the {limit}-digit int limit\n")
    unprintable = (3, f"error: coefficient exceeds the {limit}-digit limit of int conversion\n")
    target = tmp_path / "out.json"
    target.write_bytes(b"previous bytes\n")
    path = tmp_path / "big.json"

    def poly(n, beta, blade, digits):
        path.write_text(json.dumps({"n": n, "terms": [{"x0": 0, "beta": beta, "coeff": [
            {"blade": blade, "re": digits, "im": "0"}]}]}))

    # a 4300-digit part is accepted, but its transform has longer ones;
    # the inner product of a (limit - 300)-digit constant with itself too
    for digits, expected in (("1" * (limit + 700), unreadable), ("9" * limit, unprintable)):
        poly(2, [6, 6], [1], digits)
        for fmt in ("json", "text"):
            argv = ["transform", "--input", str(path), "--format", fmt, "--output", str(target)]
            code, out, err = run(capsys, argv)
            assert (code, err) == expected
            assert out == "" and target.read_bytes() == b"previous bytes\n"
    poly(1, [0], [], "9" * (limit - 300))
    for fmt in ("json", "text"):
        code, out, err = run(capsys, ["inner", "--measure", "rho", "--lhs", str(path), "--rhs",
                                      str(path), "--format", fmt, "--output", str(target)])
        assert (code, err) == unprintable
        assert out == "" and target.read_bytes() == b"previous bytes\n"


def test_degree_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MONOGENIC_MAX_DEGREE", "3")
    code, _, _ = run(capsys, ["hermite", "--n", "1", "--beta", "5"])
    assert code == 3
    # the variable sets the cap for one main call, not for the process
    monkeypatch.setenv("MONOGENIC_MAX_DEGREE", "20")
    code, _, _ = run(capsys, ["hermite", "--n", "1", "--beta", "15"])
    assert code == 0
    assert get_degree_cap() == 12
    monkeypatch.setenv("MONOGENIC_MAX_DEGREE", "junk")
    code, _, _ = run(capsys, ["hermite", "--n", "1", "--beta", "2"])
    assert code == 2


def test_verify_n1_passes_and_is_deterministic(capsys):
    code, out1, _ = run(capsys, ["verify", "--n", "1", "--max-degree", "4",
                                 "--trials", "25", "--seed", "42"])
    assert code == 0
    report = json.loads(out1)
    assert report["passed"] is True
    assert all(c["status"] == "pass" for c in report["checks"])

    code, out2, _ = run(capsys, ["verify", "--n", "1", "--max-degree", "4",
                                 "--trials", "25", "--seed", "42"])
    # the total and each check's timing are the only fields that may differ
    untimed = [re.subn(r', "elapsed_seconds": [0-9.e+-]+', "", out) for out in (out1, out2)]
    assert untimed[0] == untimed[1] and untimed[0][1] == 10


def test_verify_degenerate_degree_zero(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "1", "--max-degree", "0",
                                "--trials", "5", "--format", "text"])
    assert code == 0
    assert "all checks passed" in out


# the checks whose first failing witness holds at n = 1 only, at the
# parameters of the n = 2 tests below
P_TABLE = "monogenic basis orthogonality (scalar and full pairing)"
SB_CHECK = "segal-bargmann isometry and round trip"
KNOWN_FALSE_AT_N2 = {P_TABLE, SB_CHECK, "taylor map isometry"}
# a map that a witness reads, by its name in the verify module: the n at
# which it is spoiled, the check that fails when the map's result is
# doubled, and its witness.  A map of an every-n witness is spoiled at
# n = 2; `inner_mu`, the scalar route of the pairing, at n = 1, the scope
# of the three checks that read it
SPOILED = {
    "CliffordNumber.blade": (2, "clifford generator relations and associativity",
                             "2 * 2 = 4, not +-2"),
    "CliffordPolynomial.laplacian": (2, "dirac squared equals minus laplacian", "trial 1: f = "),
    "ck_extend": (2, "cauchy-kowalevski extension is monogenic and restricts back",
                  "trial 0: restriction mismatch for "),
    "hermite": (2, "hermite orthogonality table", "<H_(0, 0), H_(0, 0)> = 4, expected 1"),
    "sb_inverse": (2, SB_CHECK, "trial 0: round trip failed for "),
    "fock_to_monogenic": (2, "taylor map round trips in both directions", "trial 0: alpha = "),
    "fock_norm_sq": (2, "triad closure: fock norm of transformed input matches source norm",
                     "trial 0: "),
    # the full pairing is intact, so only the second branch of the table
    # fires, at its first diagonal entry
    "inner_mu": (1, P_TABLE, "scalar pairing disagrees at ((0,), (0,))"),
}


@pytest.mark.parametrize("name", SPOILED)
def test_verify_fails_the_check_of_each_spoiled_map(capsys, monkeypatch, name):
    # At n = 2 three checks are known false; a regression of an identity
    # that holds for every n must still fail the run and exit 1.  At n = 1
    # the spoiled `inner_mu` fails all three, which are the checks that
    # read it.  Seed 4 is one whose first trial already breaks both isometries.
    n, check, witness = SPOILED[name]
    original = operator.attrgetter(name)(verify_module)
    monkeypatch.setattr(f"monogenic.verify.{name}", lambda *args: original(*args) * 2)
    code, out, _ = run(capsys, ["verify", "--n", str(n), "--max-degree", "2",
                                "--trials", "10", "--seed", "4"])
    assert code == 1
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    failing = {check} if n == 2 else KNOWN_FALSE_AT_N2
    assert statuses == {other: "fail" if other in failing else
                        "known-false" if other in KNOWN_FALSE_AT_N2 else "pass" for other in statuses}
    assert report["checks"][list(statuses).index(check)]["witness"].startswith(witness)


# products e_a e_b of one-blade operands at dimension n, by the masks (a, b)
# of each spoiled pair, each spoiled by setting blade `mask` of its result
# (the product's own blade a ^ b when None) to `sign` times its true blade,
# and the witness of the algebra relations
@pytest.mark.parametrize("n, pairs, mask, sign, witness", [
    (3, [(1, 2)], 0, 1, "(1)e{1} * (1)e{2} = 1 + (1)e{1,2}, not +-(1)e{1,2}"),  # two blades
    (3, [(1, 1)], 0, -1, "e_1 e_1 + e_1 e_1 = 2"),  # e_1 e_1 = +1
    # a generator pair stays intact, so only the cocycle condition fails
    (3, [(3, 4)], 7, -1, "associativity broken on (1)e{1}, (1)e{2}, (1)e{3}"),
    # 1 x = x 1 = -x: the cocycle condition holds and e_1 e_1 = -1 still,
    # so only the unit fails
    (1, [(0, 0), (0, 1), (1, 0)], None, -1, "1 * 1 = -1 and 1 * 1 = -1, not both 1"),
    # e_3 squares to +1 in every product: the algebra of another signature,
    # associative with the unit intact, so only the generator relation of
    # e_3, the last generator, fails
    (3, [(a, b) for a in range(8) for b in range(8) if a & b & 4], None, -1,
     "e_3 e_3 + e_3 e_3 = 2"),
])
def test_verify_catches_a_spoiled_blade_product(capsys, monkeypatch, n, pairs, mask, sign, witness):
    product = monogenic.clifford._product_numerators

    def spoiled(acc, left, right):
        product(acc, left, right)
        pair = (*left, *right)
        if pair in pairs:
            re, im = acc[pair[0] ^ pair[1]]
            acc[pair[0] ^ pair[1] if mask is None else mask] = (sign * re, sign * im)

    monkeypatch.setattr(monogenic.clifford, "_product_numerators", spoiled)
    assert verify_module._algebra_relations(n, 0) == witness
    code, out, _ = run(capsys, ["verify", "--n", str(n)])
    check = json.loads(out)["checks"][0]
    assert (code, check["name"], check["status"], check["witness"]) == (
        1, "clifford generator relations and associativity", "fail", witness)


def test_verify_checks_every_round_trip_at_n2(capsys, monkeypatch):
    # seed 4 fails the isometry at trial 0; the round trip of all ten
    # trials is still checked, and the isometry witness is still reported
    calls = []
    original = verify_module.sb_inverse

    def counting(F):
        calls.append(F)
        return original(F)

    monkeypatch.setattr(verify_module, "sb_inverse", counting)
    code, out, _ = run(capsys, ["verify", "--n", "2", "--seed", "4", "--trials", "10"])
    assert code == 0
    assert len(calls) == 10
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check = checks[SB_CHECK]
    assert check["status"] == "known-false"
    assert check["witness"].startswith("trial 0: ") and "round trip" not in check["witness"]


def test_verify_expands_each_hermite_expansion_once_per_trial(capsys, monkeypatch):
    # the isometry and triad checks reuse one to_polynomial() per expansion
    expanded = []
    original = verify_module.HermiteExpansion.to_polynomial

    def counting(self):
        expanded.append(self)
        return original(self)

    monkeypatch.setattr(verify_module.HermiteExpansion, "to_polynomial", counting)
    code, _, _ = run(capsys, ["verify", "--n", "1", "--trials", "10", "--seed", "4"])
    assert code == 0
    # the n = 1 isometry holds, so each sb trial expands f and h, each triad trial f
    assert len(expanded) == 30
    assert max(Counter(map(id, expanded)).values()) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_verify_report_is_pinned(capsys, n):
    # the full report, witnesses included, as recorded before the Gram
    # tables moved to the integer kernel; the three checks of
    # KNOWN_FALSE_AT_N2 report known-false, and only the timings (the
    # total and one per check) may differ
    code, out, _ = run(capsys, ["verify", "--n", str(n), "--max-degree", "4",
                                "--trials", "20", "--seed", "0"])
    assert code == 0
    out, count = re.subn(r', "elapsed_seconds": [0-9.e+-]+', "", out)
    assert count == 10
    assert out == (DATA / f"verify_n{n}_deg4_trials20_seed0.json").read_text()


def test_importing_the_cli_leaves_verify_unloaded():
    src = str(Path(monogenic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, monogenic.cli; print('monogenic.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


# healthy runs at n >= 2, and the checks that report known-false in each
HEALTHY_RUNS = {
    "--n 2 --max-degree 2 --trials 10 --seed 0": {P_TABLE, "taylor map isometry"},
    "--n 2 --max-degree 0": set(),
    "--n 3 --trials 0": {P_TABLE},
    "--n 2 --max-degree 3 --trials 5 --seed 0": {P_TABLE, SB_CHECK},
}


@pytest.mark.parametrize("args", HEALTHY_RUNS)
def test_verify_n2_reports_broken_orthogonality(capsys, args):
    # At n >= 2 the identities that hold at n = 1 only fail with witnesses,
    # reported as known-false, and no check fails, so the exit is 0.  A
    # witness that holds reports pass whatever its scope: at degree 0 all
    # three hold, with no trials both isometries do, and one of the two
    # isometries holds on the trials of the first and the last run.
    code, out, _ = run(capsys, ["verify", *args.split(), "--format", "text"])
    assert code == 0
    *lines, summary = out.splitlines()[1:]
    shown = {name: (status, bool(witness))
             for status, name, *witness in (line.split("  ") for line in lines)}
    assert shown == {name: ("KNOWN-FALSE", True) if name in HEALTHY_RUNS[args] else ("PASS", False)
                     for name, _, _ in verify_module._IDENTITIES}
    assert summary.startswith("no check failed" if HEALTHY_RUNS[args] else "all checks passed")


def test_verify_draws_do_not_depend_on_earlier_failures(monkeypatch):
    # A broken Fock norm fails the taylor check at trial 0; the round-trip
    # check after it must still be fed the same random Fock elements.
    from monogenic.serialize import fock_to_json
    original_draw, original_norm = verify_module.rand_fock_element, verify_module.fock_norm_sq

    def drawn_elements():
        drawn = []

        def recording(*args, **kwargs):
            alpha = original_draw(*args, **kwargs)
            drawn.append(fock_to_json(alpha))
            return alpha

        monkeypatch.setattr(verify_module, "rand_fock_element", recording)
        report = verify_module.run_verification(n=1, max_degree=4, trials=10, seed=0)
        return drawn, {c.name: c for c in report.checks}

    clean, clean_checks = drawn_elements()
    assert all(c.passed for c in clean_checks.values())
    monkeypatch.setattr(verify_module, "fock_norm_sq", lambda alpha: original_norm(alpha) + 1)
    broken, broken_checks = drawn_elements()
    # an n = 1-only identity that fails at n = 1 is a failure, not known-false
    assert broken_checks["taylor map isometry"].status == "fail"
    assert broken_checks["taylor map isometry"].detail.startswith("trial 0: ")
    assert len(clean) == 10
    assert broken == clean


def test_verify_holds_one_trial_at_a_time(monkeypatch):
    # each trial is checked as it is drawn, so memory does not grow with
    # --trials: while a witness runs, no other trial of any check is alive,
    # and the report is the one the unwrapped checks give
    import weakref

    class Trial:
        def __init__(self, inputs):
            self.inputs = inputs

    alive, seen = weakref.WeakSet(), []

    def held(draw):
        def drawing(*args):
            trial = Trial(draw(*args))
            alive.add(trial)
            return trial
        return drawing

    def checked(witness):
        def checking(trial):
            seen.append(len(alive))
            return witness(trial.inputs)
        return checking

    def outcomes():
        report = verify_module.run_verification(n=2, max_degree=3, trials=12, seed=0)
        return [(c.name, c.status, c.detail) for c in report.checks]

    expected = outcomes()
    monkeypatch.setattr(verify_module, "_IDENTITIES", tuple(
        (name, draw, witnesses) if draw is None else
        (name, held(draw), tuple((checked(witness), scope) for witness, scope in witnesses))
        for name, draw, witnesses in verify_module._IDENTITIES))
    assert outcomes() == expected
    assert sorted(status for _, status, _ in expected) == ["known-false"] * 3 + ["pass"] * 6
    # four checks with a draw pass all 12 trials, and the Segal-Bargmann
    # round trip runs on every trial too
    assert len(seen) >= 5 * 12 and set(seen) == {1}


# -- witness precedence of the checks that test two conditions per trial --

def _recorder(draw, values):
    """draw, appending every value it returns to values."""
    def recording(*args, **kwargs):
        values.append(draw(*args, **kwargs))
        return values[-1]
    return recording


def _ck_check_detail(monkeypatch, faults):
    """Detail of the C-K check when the extension of trial t is spoiled by
    faults[t]: "monogenic" adds x0 (restriction kept, not monogenic),
    "restriction" adds 1 (monogenic, restriction changed), "both" adds both."""
    from monogenic import CliffordNumber, CliffordPolynomial
    original_extend, drawn = verify_module.ck_extend, []

    def spoiled(f):
        # the C-K check extends the second batch of three drawn polynomials
        F = original_extend(f)
        fault = next((faults.get(t, "") for t, g in enumerate(drawn[3:6]) if g is f), "")
        one = CliffordNumber.scalar(f.n, 1)
        if fault in ("monogenic", "both"):
            F = F + CliffordPolynomial.monomial(f.n, 1, [0] * f.n, one)
        if fault in ("restriction", "both"):
            F = F + CliffordPolynomial.constant(one)
        return F

    monkeypatch.setattr(verify_module, "rand_poly", _recorder(verify_module.rand_poly, drawn))
    monkeypatch.setattr(verify_module, "ck_extend", spoiled)
    report = verify_module.run_verification(n=1, max_degree=3, trials=3, seed=0)
    check, = [c for c in report.checks if c.name.startswith("cauchy-kowalevski")]
    assert len(drawn) == 9  # dirac, C-K and round-trip checks, three trials each
    assert not check.passed
    return check.detail


def test_ck_check_reports_non_monogenic_before_restriction_in_one_trial(monkeypatch):
    detail = _ck_check_detail(monkeypatch, {1: "both"})
    assert detail.startswith("trial 1: extension of ") and detail.endswith(" not monogenic")


@pytest.mark.parametrize("faults, expected", [
    ({0: "restriction", 1: "monogenic"}, "trial 0: restriction mismatch for "),
    ({0: "monogenic", 1: "restriction"}, "trial 0: extension of "),
    ({1: "restriction", 2: "both"}, "trial 1: restriction mismatch for "),
])
def test_ck_check_reports_the_first_failing_trial(monkeypatch, faults, expected):
    assert _ck_check_detail(monkeypatch, faults).startswith(expected)


def _round_trip_check_detail(monkeypatch, faults):
    """Detail of the Fock round-trip check when fock_to_monogenic is off by
    one on the sides named in faults[t]: "alpha" (the map of a drawn
    element) or "F" (the map of the Taylor coefficients of ck_extend(f))."""
    from monogenic import CliffordNumber, CliffordPolynomial
    original_map, elements, polys = verify_module.fock_to_monogenic, [], []

    def spoiled(alpha):
        F = original_map(alpha)
        # the alpha side maps a drawn element; the F side maps back to
        # ck_extend(f) for the f of its trial, drawn after the three polynomials
        # of the Dirac check and the three of the C-K check
        trial = next((t for t, a in enumerate(elements) if a is alpha), None)
        side = "F" if trial is None else "alpha"
        if trial is None:
            trial = next(t for t, f in enumerate(polys[6:]) if F.restrict() == f)
        if side in faults.get(trial, ()):
            F = F + CliffordPolynomial.constant(CliffordNumber.scalar(F.n, 1))
        return F

    monkeypatch.setattr(verify_module, "rand_fock_element",
                        _recorder(verify_module.rand_fock_element, elements))
    monkeypatch.setattr(verify_module, "rand_poly", _recorder(verify_module.rand_poly, polys))
    monkeypatch.setattr(verify_module, "fock_to_monogenic", spoiled)
    report = verify_module.run_verification(n=1, max_degree=3, trials=3, seed=0)
    check, = [c for c in report.checks if c.name.startswith("taylor map round trips")]
    assert len(elements) == 3 and len(set(map(repr, polys[-3:]))) == 3
    assert not check.passed
    return check.detail


@pytest.mark.parametrize("faults, expected", [
    ({0: ("alpha", "F")}, "trial 0: alpha = "),
    ({1: ("F",)}, "trial 1: F = "),
    ({0: ("F",), 1: ("alpha",)}, "trial 0: F = "),
    ({1: ("alpha",), 2: ("F",)}, "trial 1: alpha = "),
])
def test_round_trip_check_reports_the_alpha_side_first(monkeypatch, faults, expected):
    assert _round_trip_check_detail(monkeypatch, faults).startswith(expected)


# -- the parser surface, read from the parser rather than its help layout --

_SUBCOMMANDS = {
    "hermite": "Hermite basis polynomial for a multi-index",
    "pbasis": "monogenic basis polynomial for a multi-index",
    "ck": "Cauchy-Kowalevski extension of an x0-free polynomial",
    "transform": "apply the Segal-Bargmann transform",
    "inverse": "invert the transform on a monogenic polynomial",
    "taylor": "Taylor map of a monogenic polynomial",
    "fock-inverse": "monogenic polynomial of a Fock element",
    "inner": "exact Gaussian inner product of two polynomials",
    "verify": "run the full identity verification suite",
}
# (flags, dest, type, default, choices, required, action, help)
_HELP = (("-h", "--help"), "help", None, "==SUPPRESS==", None, False, "_HelpAction",
         "show this help message and exit")
_IO = [(("--format",), "format", None, "json", ("json", "text"), False, "_StoreAction", None),
       (("--output",), "output", None, None, None, False, "_StoreAction",
        "write to file instead of stdout")]
_INPUT = (("--input",), "input", None, None, None, True, "_StoreAction", None)
_ARGUMENTS = {
    "hermite": [(("--n",), "n", "int", None, None, True, "_StoreAction", None),
                (("--beta",), "beta", None, None, None, True, "_StoreAction",
                 "comma-separated multi-index, e.g. 2,0")],
    "pbasis": [(("--n",), "n", "int", None, None, True, "_StoreAction", None),
               (("--beta",), "beta", None, None, None, True, "_StoreAction", None)],
    "ck": [(("--input",), "input", None, None, None, True, "_StoreAction",
            "polynomial JSON file, or - for stdin")],
    "transform": [_INPUT, (("--hermite",), "hermite", None, False, None, False, "_StoreTrueAction",
                           "treat the input as a Hermite expansion instead of a polynomial")],
    "inverse": [_INPUT],
    "taylor": [_INPUT],
    "fock-inverse": [_INPUT],
    "inner": [(("--measure",), "measure", None, None, ("rho", "mu"), True, "_StoreAction", None),
              (("--lhs",), "lhs", None, None, None, True, "_StoreAction", None),
              (("--rhs",), "rhs", None, None, None, True, "_StoreAction", None)],
    "verify": [(("--n",), "n", "int", 2, None, False, "_StoreAction", None),
               (("--max-degree",), "max_degree", "int", 4, None, False, "_StoreAction", None),
               (("--trials",), "trials", "int", 100, None, False, "_StoreAction", None),
               (("--seed",), "seed", "int", 0, None, False, "_StoreAction", None)],
}


def test_parser_surface_is_pinned():
    import argparse
    from monogenic.cli import build_parser
    parser = build_parser()
    assert (parser.prog, parser.description) == (
        "monogenic", "Exact Clifford-valued Segal-Bargmann transform and Taylor isomorphism")
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert {a.dest: a.help for a in sub._choices_actions} == _SUBCOMMANDS
    assert list(sub.choices) == list(_SUBCOMMANDS)
    for name, subparser in sub.choices.items():
        surface = [(tuple(a.option_strings), a.dest, a.type.__name__ if a.type else None,
                    a.default, a.choices, a.required, type(a).__name__, a.help)
                   for a in subparser._actions]
        assert surface == [_HELP, *_ARGUMENTS[name], *_IO], name


# -- fuzz: arbitrary and near-valid JSON through every input-reading command --

_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats(allow_nan=False)
    | st.sampled_from(["1", "-1/2", "2/4", "1/0", "01", "-0", "x", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["n", "terms", "coeffs", "entries", "x0", "beta", "coeff", "value",
                         "blade", "re", "im", "extra"]), inner, max_size=4),
    max_leaves=8)


@st.composite
def _document(draw, n, field):
    """A valid wire object in C_n of degree <= 11, under the default cap 12."""
    def rational():
        return str(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4))))

    items = []
    for _ in range(draw(st.integers(0, 3))):
        blades = draw(st.sets(st.frozensets(st.integers(1, n)), max_size=3))
        item = {"beta": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                "value": [{"blade": sorted(b), "re": rational(), "im": rational()}
                          for b in blades]}
        if field == "terms":
            item = {"x0": draw(st.sampled_from([0, 0, 0, 1, 2])), "beta": item["beta"],
                    "coeff": item["value"]}
        items.append(item)
    return {"n": n, field: items}


def _nodes(doc):
    """(container, key) of every value below the root."""
    keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
    for key in keys:
        yield doc, key
        if isinstance(doc[key], (dict, list)):
            yield from _nodes(doc[key])


_COMMANDS = [(["ck"], "terms"), (["transform"], "terms"), (["transform", "--hermite"], "coeffs"),
             (["inverse"], "terms"), (["taylor"], "terms"), (["fock-inverse"], "entries"),
             (["inner", "--measure", "rho"], "terms"), (["inner", "--measure", "mu"], "terms")]


@st.composite
def _requests(draw):
    """argv and input texts: valid, valid with one node replaced or dropped,
    arbitrary JSON, or arbitrary text."""
    argv, field = draw(st.sampled_from(_COMMANDS))
    texts = []
    for _ in range(2 if argv[0] == "inner" else 1):
        kind = draw(st.sampled_from(["valid", "valid", "mutated", "mutated", "junk", "text"]))
        if kind == "text":
            texts.append(draw(st.text(max_size=12)))
            continue
        doc = draw(_junk) if kind == "junk" else draw(_document(draw(st.integers(1, 3)), field))
        nodes = list(_nodes(doc)) if isinstance(doc, (dict, list)) else []
        if kind == "mutated" and nodes:
            container, key = draw(st.sampled_from(nodes))
            if isinstance(container, dict) and draw(st.booleans()):
                del container[key]
            else:
                container[key] = draw(_junk)
        texts.append(json.dumps(doc))
    return argv, texts


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(_requests())
def test_fuzzed_json_input_maps_to_an_exit_code(fuzz_dir, request):
    argv, texts = request
    paths = []
    for i, text in enumerate(texts):
        path = fuzz_dir / f"input{i}.json"
        path.write_text(text)
        paths.append(str(path))
    if argv[0] == "inner":
        argv = argv + ["--lhs", paths[0], "--rhs", paths[1]]
    else:
        argv = argv + ["--input", paths[0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
