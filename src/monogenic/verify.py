"""Seeded verification suite reproducing every exact identity.

Random inputs come from Python's `random.Random` (Mersenne Twister)
seeded explicitly, each rational part p/q drawn as p from [-4, 4] and
then q from [1, 4], so a report is a pure function of (seed, parameters).

The generators build values the way the kernels store them.  A part is
read from a table of the 36 possible draws: the shared `Fraction(p, q)`
for `rand_fraction` and `rand_gaussian_rational` (built by `_gaussian`,
with no second conversion), its numerator over lcm(1, ..., 4) = 12 for
the others.  `rand_clifford` collects those numerators by blade mask and
reduces them once (`CliffordNumber._reduced`); `rand_poly` and both
container generators add each drawn coefficient's numerators into its
term (`_add_scaled`), check the degree cap on every drawn term and
reduce the sum once (`poly._adopt` of `_reduce`).  No generator goes
through a public constructor or a `+` of values.  Since the stored form
is unique, they draw the same stream and return the same values as the
generators that built one `Fraction` per part and summed terms with `+`
(kept in the test oracles): the pinned reports, the byte-pinned
transcripts and the inputs of the benchmark do not change.

Every check is one entry of `_IDENTITIES`, in report order: a name, a
draw and its witnesses.  One runner, `_check`, applies an entry.  It
checks each trial as it draws it from the shared generator, so memory
holds one trial whatever `trials` is, and it draws every trial even
after a failure, so the random stream the next check reads does not
depend on where an earlier check failed.  Each witness is kept to its
first failure, and the first failing witness in entry order is
reported, prefixed `trial t:`.  Witness precedence follows: a witness
that tests two conditions reports the first failing trial, and within a
trial its first condition (C-K extension: not monogenic before a
restriction mismatch; Fock round trips: the alpha side before the F
side); the Segal-Bargmann entry has two witnesses, so a round-trip
failure in any trial comes before an isometry failure.  The entries
without a draw (the algebra relations and both Gram tables) are checked
once, with no trial prefix.  The algebra relations are read off the
blade product table of C_n: each blade pair is multiplied once (4^n
products), each product must be a signed blade, and the generator
relations and associativity are conditions on those signs.

Each witness carries its scope: "all n", or "n = 1 only" for the three
identities that fail for n >= 2 as a mathematical fact (the P_beta
table, the Segal-Bargmann isometry and the Taylor isometry; README,
"Status of the isometry identities").  A check reports "pass" when every
witness holds, whatever its scope; otherwise its first failing witness
decides: "known-false" if it holds at n = 1 only and n >= 2, "fail"
else.  The report passes, and the CLI exits 0, when no check reports
"fail".  Each identity is stated here once: the acceptance criteria of
the test suite apply these witnesses to their own samples.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .clifford import (
    BoundsError,
    CliffordNumber,
    GaussianRational,
    _add_scaled,
    _check_dimension,
    _gaussian,
    _is_int,
    _reduce,
    indices_from_mask,
)
from .fock import FockElement, fock_norm_sq, fock_to_monogenic, taylor_map
from .gauss import _MU_TILDE, _RHO, Measure, gram, inner_mu, inner_rho
from .poly import CliffordPolynomial, MultiIndex, _check_degree_cap, _over_factorials
from .transform import HermiteExpansion, ck_extend, hermite, p_basis, sb_inverse, sb_transform


MAX_VERIFY_DIMENSION = 3
MAX_VERIFY_DEGREE = 6


# ---------------------------------------------------------------------------
# combinatorics and random generators
# ---------------------------------------------------------------------------

def multi_indices(n: int, max_degree: int) -> Iterator[MultiIndex]:
    """All multi-indices of length n with total degree at most max_degree,
    ordered by (degree, lexicographic)."""
    for d in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), d):
            beta = [0] * n
            for i in combo:
                beta[i] += 1
            yield MultiIndex(beta)


# Every drawn part is p/q with p from [-4, 4], then q from [1, 4]: entry
# 4 * (p + 4) + q - 1 of these tables is Fraction(p, q), and its numerator
# over _DEN = lcm(1, ..., 4), the denominator the value generators build over.
_DEN = 12
_FRACTIONS = tuple(Fraction(p, q) for p in range(-4, 5) for q in range(1, 5))
_NUMERATORS = tuple(p * _DEN // q for p in range(-4, 5) for q in range(1, 5))


def _rand_part(rng: random.Random) -> int:
    """The table entry of one drawn part: p, then q."""
    return 4 * rng.randint(-4, 4) + rng.randint(1, 4) + 15


def rand_fraction(rng: random.Random) -> Fraction:
    return _FRACTIONS[_rand_part(rng)]


def rand_gaussian_rational(rng: random.Random) -> GaussianRational:
    return _gaussian(rand_fraction(rng), rand_fraction(rng))


def _rand_blades(rng: random.Random, n: int, max_terms: int) -> dict[int, tuple[int, int]]:
    """The numerators over _DEN of a random Clifford number: up to max_terms
    blades, a blade drawn again keeping its last value, and a blade whose
    last value is zero left out, as the kernels leave no zero pair."""
    blades = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(2 ** n)
        re, im = _NUMERATORS[_rand_part(rng)], _NUMERATORS[_rand_part(rng)]
        if re or im:
            blades[mask] = (re, im)
        else:
            blades.pop(mask, None)
    return blades


def rand_clifford(rng: random.Random, n: int, max_terms: int = 3) -> CliffordNumber:
    _check_dimension(n)
    return CliffordNumber._reduced(n, _DEN, _rand_blades(rng, n, max_terms))


def rand_multi_index(rng: random.Random, n: int, max_degree: int) -> MultiIndex:
    degree = rng.randint(0, max_degree)
    beta = [0] * n
    for _ in range(degree):
        beta[rng.randrange(n)] += 1
    return MultiIndex(beta)


def _rand_x0_free(rng: random.Random, n: int, max_degree: int,
                  max_terms: int) -> CliffordPolynomial:
    """Up to max_terms terms x^beta c, the c of a beta drawn again added to
    its earlier ones, summed over _DEN and reduced once; the degree cap is
    checked on every drawn beta, zero-valued ones included."""
    _check_dimension(n)
    data = {}
    for _ in range(rng.randint(1, max_terms)):
        beta = rand_multi_index(rng, n, max_degree)
        _add_scaled(data.setdefault((0, beta), {}), _rand_blades(rng, n, 3), 1)
    _check_degree_cap(data)
    return CliffordPolynomial._adopt(n, *_reduce(_DEN, data))


def rand_poly(rng: random.Random, n: int, max_degree: int,
              max_terms: int = 4) -> CliffordPolynomial:
    """Random x0-free polynomial with Clifford coefficients."""
    return _rand_x0_free(rng, n, max_degree, max_terms)


def rand_hermite_expansion(rng: random.Random, n: int, max_degree: int,
                           max_terms: int = 3) -> HermiteExpansion:
    return HermiteExpansion._of(_rand_x0_free(rng, n, max_degree, max_terms))


def rand_fock_element(rng: random.Random, n: int, max_degree: int,
                      max_terms: int = 3) -> FockElement:
    """Random Fock element: the entries are a random x0-free polynomial's
    coefficients, stored over beta!."""
    return FockElement._of(_over_factorials(_rand_x0_free(rng, n, max_degree, max_terms)))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """One check: its status ("pass", "fail" or "known-false"), the
    witness of a check that does not pass, and its wall time."""
    name: str
    status: str
    detail: str = ""
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerifyReport:
    suite: str
    n: int
    max_degree: int
    trials: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        """No check reports fail; a known-false check does not fail the run."""
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": {"n": self.n, "max_degree": self.max_degree,
                       "trials": self.trials, "seed": self.seed},
            "checks": [
                {"name": c.name, "status": c.status,
                 **({"witness": c.detail} if not c.passed else {}),
                 "elapsed_seconds": c.elapsed}
                for c in self.checks
            ],
            "passed": self.passed,
            "elapsed_seconds": self.elapsed,
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: n={self.n} max_degree={self.max_degree} "
                 f"trials={self.trials} seed={self.seed}"]
        for c in self.checks:
            suffix = f"  [{c.detail}]" if not c.passed else ""
            lines.append(f"{c.status.upper()}  {c.name}{suffix}")
        summary = ("FAILURES PRESENT" if not self.passed else "all checks passed"
                   if all(c.passed for c in self.checks) else "no check failed")
        lines.append(f"{summary} ({self.elapsed:.2f}s)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# identities: draws and witnesses
# ---------------------------------------------------------------------------
# A draw makes the inputs of one trial from (rng, n, max_degree).  A witness
# maps them to a failure text, or to None when the identity holds; the
# witness of an entry without a draw reads (n, max_degree) once instead.
# Both look up the generators and maps of this module when they run, so a
# test can replace one of those names.

def _algebra_relations(n: int, max_degree: int) -> str | None:
    """The relations of C_n, read off its blade product table.

    Each pair of blades is multiplied once, through the public product:
    4^n products.  Each e_A e_B must equal s(A, B) e_{A xor B} for a sign
    s(A, B) = +-1, compared with `==`.  On that sign table the scalar
    blade 1 = e_{} is the unit, s({}, A) = s(A, {}) = 1, the generator
    relations e_i e_j + e_j e_i = -2 delta_ij read s(e_i, e_i) = -1 and
    s(e_i, e_j) = -s(e_j, e_i) for i != j, and associativity of blades,
    (e_A e_B) e_C = e_A (e_B e_C), is the integer cocycle condition
    s(A, B) s(A xor B, C) = s(B, C) s(A, B xor C) over all triples.  The
    blades span C_n and the product is bilinear, so associativity of the
    blades gives associativity on all of C_n.  Bilinearity itself is
    checked by the tests on signed, non-unit operands.
    """
    masks = range(2 ** n)
    blades = [CliffordNumber.blade(n, indices_from_mask(m)) for m in masks]
    table = [[a * b for b in blades] for a in blades]
    # +1 or -1, and 0 for a product that is neither blade nor its negation
    signs = [[(ab == blades[a ^ b]) - (ab == -blades[a ^ b]) for b, ab in enumerate(row)]
             for a, row in enumerate(table)]
    for a, b in itertools.product(masks, repeat=2):
        if not signs[a][b]:
            return f"{blades[a]!r} * {blades[b]!r} = {table[a][b]!r}, not +-{blades[a ^ b]!r}"
    for a in masks:
        if signs[0][a] != 1 or signs[a][0] != 1:
            return (f"1 * {blades[a]!r} = {table[0][a]!r} and {blades[a]!r} * 1 = "
                    f"{table[a][0]!r}, not both {blades[a]!r}")
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        a, b = 1 << (i - 1), 1 << (j - 1)
        if signs[a][b] + signs[b][a] != (-2 if i == j else 0):
            return f"e_{i} e_{j} + e_{j} e_{i} = {table[a][b] + table[b][a]!r}"
    for a, b, c in itertools.product(masks, repeat=3):
        if signs[a][b] * signs[a ^ b][c] != signs[b][c] * signs[a][b ^ c]:
            return f"associativity broken on {blades[a]!r}, {blades[b]!r}, {blades[c]!r}"
    return None


def _gram_entries(basis, measure: Measure, n: int, max_degree: int):
    """(alpha, f, beta, g, pairing(f, g)) over the basis table up to max_degree."""
    betas = list(multi_indices(n, max_degree))
    polys = [basis(n, beta) for beta in betas]
    for a, f, row in zip(betas, polys, gram(polys, polys, measure)):
        for b, g, pairing in zip(betas, polys, row):
            yield a, f, b, g, pairing


def _hermite_table(n: int, max_degree: int) -> str | None:
    # the scalar part of each entry, compared through its stored numerators
    for a, _, b, _, pairing in _gram_entries(hermite, _RHO, n, max_degree):
        expected = b.factorial if a == b else 0
        if pairing._blades.get(0, (0, 0)) != (expected * pairing._den, 0):
            return f"<H_{tuple(a)}, H_{tuple(b)}> = {pairing.scalar_part()!r}, expected {expected}"
    return None


def _pbasis_table(n: int, max_degree: int) -> str | None:
    for a, f, b, g, pairing in _gram_entries(p_basis, _MU_TILDE, n, min(max_degree, 4)):
        expected = CliffordNumber.scalar(n, b.factorial) if a == b else CliffordNumber.zero(n)
        if pairing != expected:
            return f"pairing(P_{tuple(a)}, P_{tuple(b)}) = {pairing!r}"
        if pairing.scalar_part() != inner_mu(f, g):
            return f"scalar pairing disagrees at ({tuple(a)}, {tuple(b)})"
    return None


def _draw_poly(rng: random.Random, n: int, max_degree: int) -> CliffordPolynomial:
    return rand_poly(rng, n, max_degree)


def _draw_expansion(rng: random.Random, n: int, max_degree: int) -> HermiteExpansion:
    return rand_hermite_expansion(rng, n, min(max_degree, 4))


def _sb_inputs(f: HermiteExpansion, h: HermiteExpansion):
    """The inputs of both Segal-Bargmann witnesses: f's transform and
    polynomial are kept with it, since both witnesses read them."""
    return f, sb_transform(f), f.to_polynomial(), h


def _draw_sb(rng: random.Random, n: int, max_degree: int):
    return _sb_inputs(_draw_expansion(rng, n, max_degree), _draw_expansion(rng, n, max_degree))


def _draw_fock_pair(rng: random.Random, n: int, max_degree: int):
    return rand_fock_element(rng, n, max_degree), rand_poly(rng, n, max_degree)


def _dirac_squared(f: CliffordPolynomial) -> str | None:
    return f"f = {f!r}" if f.dirac().dirac() != -f.laplacian() else None


def _ck_extension(f: CliffordPolynomial) -> str | None:
    F = ck_extend(f)
    if not F.is_monogenic():
        return f"extension of {f!r} not monogenic"
    if F.restrict() != f:
        return f"restriction mismatch for {f!r}"
    return None


def _sb_round_trip(drawn) -> str | None:
    f, Ff, pf, _ = drawn
    return f"round trip failed for {f!r}" if sb_inverse(Ff) != pf else None


def _sb_isometry(drawn) -> str | None:
    _, Ff, pf, h = drawn
    lhs = inner_mu(Ff, sb_transform(h))
    rhs = inner_rho(pf, h.to_polynomial())
    return f"{lhs!r} != {rhs!r}" if lhs != rhs else None


def _taylor_isometry(f: HermiteExpansion) -> str | None:
    F = sb_transform(f)
    return f"F = {F!r}" if fock_norm_sq(taylor_map(F)) != inner_mu(F, F) else None


def _fock_round_trips(drawn) -> str | None:
    alpha, f = drawn
    if taylor_map(fock_to_monogenic(alpha)) != alpha:
        return f"alpha = {alpha!r}"
    F = ck_extend(f)
    if fock_to_monogenic(taylor_map(F)) != F:
        return f"F = {F!r}"
    return None


def _triad(f: HermiteExpansion) -> str | None:
    lhs = fock_norm_sq(taylor_map(sb_transform(f)))
    pf = f.to_polynomial()
    rhs = inner_rho(pf, pf)
    return f"{lhs} != {rhs}" if lhs != rhs else None


# The scope of a witness: the n at which its identity holds.  A witness
# that fails outside its scope reports "known-false", not "fail".
ALL_N, N1_ONLY = "all n", "n = 1 only"

# (name, draw, ((witness, scope), ...)) in report order.  A failure of an
# earlier witness of an entry takes precedence over one of a later witness
# in any trial, so the Segal-Bargmann round trip (true for every n) is
# reported before the isometry (true for n = 1 only).
_IDENTITIES = (
    ("clifford generator relations and associativity", None, ((_algebra_relations, ALL_N),)),
    ("dirac squared equals minus laplacian", _draw_poly, ((_dirac_squared, ALL_N),)),
    ("cauchy-kowalevski extension is monogenic and restricts back", _draw_poly,
     ((_ck_extension, ALL_N),)),
    ("hermite orthogonality table", None, ((_hermite_table, ALL_N),)),
    ("monogenic basis orthogonality (scalar and full pairing)", None, ((_pbasis_table, N1_ONLY),)),
    ("segal-bargmann isometry and round trip", _draw_sb,
     ((_sb_round_trip, ALL_N), (_sb_isometry, N1_ONLY))),
    ("taylor map isometry", _draw_expansion, ((_taylor_isometry, N1_ONLY),)),
    ("taylor map round trips in both directions", _draw_fock_pair, ((_fock_round_trips, ALL_N),)),
    ("triad closure: fock norm of transformed input matches source norm", _draw_expansion,
     ((_triad, ALL_N),)),
)


def _check(name: str, draw, witnesses, rng: random.Random, n: int, max_degree: int,
           trials: int) -> CheckResult:
    """One entry of `_IDENTITIES`: each trial checked as it is drawn, and
    every trial drawn whatever fails, so that one trial is held at a time
    and the stream is read as far as `trials` says.  A trial runs the
    witnesses before the first that has failed, each to its first failure,
    so the first failing witness in order is reported with its first
    failing trial, as "known-false" when n is outside its scope."""
    start, first, failure = time.perf_counter(), len(witnesses), None
    if draw is None:
        first, failure = 0, witnesses[0][0](n, max_degree)
    for t in range(trials if draw else 0):
        inputs = draw(rng, n, max_degree)
        for i in range(first):
            detail = witnesses[i][0](inputs)
            if detail is not None:
                first, failure = i, f"trial {t}: {detail}"
                break
    status = "pass" if failure is None else (
        "known-false" if n > 1 and witnesses[first][1] == N1_ONLY else "fail")
    return CheckResult(name, status, failure or "", time.perf_counter() - start)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_verification(n: int = 2, max_degree: int = 4, trials: int = 100,
                     seed: int = 0) -> VerifyReport:
    """Run every check at the given parameters; deterministic per seed,
    which must be an int (TypeError otherwise)."""
    if not _is_int(n, 1, MAX_VERIFY_DIMENSION):
        raise BoundsError(f"dimension must be in [1, {MAX_VERIFY_DIMENSION}], got {n}")
    if not _is_int(max_degree, 0, MAX_VERIFY_DEGREE):
        raise BoundsError(f"max_degree must be in [0, {MAX_VERIFY_DEGREE}], got {max_degree}")
    if not _is_int(trials, 0):
        raise BoundsError("trials must be nonnegative")
    if not _is_int(seed):
        raise TypeError(f"seed must be an int, got {seed!r}")

    rng = random.Random(seed)
    report = VerifyReport(suite="monogenic-verify", n=n, max_degree=max_degree,
                          trials=trials, seed=seed)
    start = time.perf_counter()
    report.checks = [_check(*entry, rng, n, max_degree, trials) for entry in _IDENTITIES]
    report.elapsed = time.perf_counter() - start
    return report
