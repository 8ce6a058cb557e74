"""Seeded verification suite reproducing every exact identity.

Random inputs come from Python's `random.Random` (Mersenne Twister)
seeded explicitly, with numerators and denominators drawn from [-4, 4],
so a report is a pure function of (seed, parameters).  Checks run in a
fixed order and every failure carries a witness.  A check draws the
inputs of all its trials before it checks any, so the random stream the
next check reads does not depend on where an earlier check failed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .clifford import BoundsError, CliffordNumber, GaussianRational, indices_from_mask
from .fock import FockElement, fock_norm_sq, fock_to_monogenic, taylor_map
from .gauss import Measure, gram, inner_mu, inner_rho
from .poly import CliffordPolynomial, MultiIndex
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


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def rand_gaussian_rational(rng: random.Random) -> GaussianRational:
    return GaussianRational(rand_fraction(rng), rand_fraction(rng))


def rand_clifford(rng: random.Random, n: int, max_terms: int = 3) -> CliffordNumber:
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        blade = indices_from_mask(rng.randrange(2 ** n))
        coeffs[blade] = rand_gaussian_rational(rng)
    return CliffordNumber(n, {b: v for b, v in coeffs.items()})


def rand_multi_index(rng: random.Random, n: int, max_degree: int) -> MultiIndex:
    degree = rng.randint(0, max_degree)
    beta = [0] * n
    for _ in range(degree):
        beta[rng.randrange(n)] += 1
    return MultiIndex(beta)


def rand_poly(rng: random.Random, n: int, max_degree: int,
              max_terms: int = 4) -> CliffordPolynomial:
    """Random x0-free polynomial with Clifford coefficients."""
    total = CliffordPolynomial.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        beta = rand_multi_index(rng, n, max_degree)
        total = total + CliffordPolynomial.monomial(n, 0, beta, rand_clifford(rng, n))
    return total


def _rand_index_map(cls, rng: random.Random, n: int, max_degree: int, max_terms: int):
    data: dict[MultiIndex, CliffordNumber] = {}
    for _ in range(rng.randint(1, max_terms)):
        beta = rand_multi_index(rng, n, max_degree)
        value = rand_clifford(rng, n)
        data[beta] = data[beta] + value if beta in data else value
    return cls(n, data)


def rand_hermite_expansion(rng: random.Random, n: int, max_degree: int,
                           max_terms: int = 3) -> HermiteExpansion:
    return _rand_index_map(HermiteExpansion, rng, n, max_degree, max_terms)


def rand_fock_element(rng: random.Random, n: int, max_degree: int,
                      max_terms: int = 3) -> FockElement:
    return _rand_index_map(FockElement, rng, n, max_degree, max_terms)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


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
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": {"n": self.n, "max_degree": self.max_degree,
                       "trials": self.trials, "seed": self.seed},
            "checks": [
                {"name": c.name, "status": "pass" if c.passed else "fail",
                 **({"witness": c.detail} if not c.passed else {})}
                for c in self.checks
            ],
            "passed": self.passed,
            "elapsed_seconds": self.elapsed,
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: n={self.n} max_degree={self.max_degree} "
                 f"trials={self.trials} seed={self.seed}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f"  [{c.detail}]" if not c.passed else ""
            lines.append(f"{status}  {c.name}{suffix}")
        lines.append(f"{'all checks passed' if self.passed else 'FAILURES PRESENT'} "
                     f"({self.elapsed:.2f}s)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_algebra_relations(n: int) -> CheckResult:
    name = "clifford generator relations and associativity"
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e_i = CliffordNumber.basis(n, i)
            e_j = CliffordNumber.basis(n, j)
            anti = e_i * e_j + e_j * e_i
            expected = CliffordNumber.scalar(n, -2) if i == j else CliffordNumber.zero(n)
            if anti != expected:
                return CheckResult(name, False, f"e_{i} e_{j} + e_{j} e_{i} = {anti!r}")
    blades = [CliffordNumber.blade(n, indices_from_mask(m)) for m in range(2 ** n)]
    for a in blades:
        for b in blades:
            ab = a * b
            for c in blades:
                if (ab) * c != a * (b * c):
                    return CheckResult(name, False, f"associativity broken on {a!r}, {b!r}, {c!r}")
    return CheckResult(name, True)


def _check_dirac_squared(rng: random.Random, n: int, max_degree: int,
                         trials: int) -> CheckResult:
    name = "dirac squared equals minus laplacian"
    for t, f in enumerate([rand_poly(rng, n, max_degree) for _ in range(trials)]):
        if f.dirac().dirac() != -f.laplacian():
            return CheckResult(name, False, f"trial {t}: f = {f!r}")
    return CheckResult(name, True)


def _check_ck_extension(rng: random.Random, n: int, max_degree: int,
                        trials: int) -> CheckResult:
    name = "cauchy-kowalevski extension is monogenic and restricts back"
    for t, f in enumerate([rand_poly(rng, n, max_degree) for _ in range(trials)]):
        F = ck_extend(f)
        if not F.is_monogenic():
            return CheckResult(name, False, f"trial {t}: extension of {f!r} not monogenic")
        if F.restrict() != f:
            return CheckResult(name, False, f"trial {t}: restriction mismatch for {f!r}")
    return CheckResult(name, True)


def _check_hermite_table(n: int, max_degree: int) -> CheckResult:
    name = "hermite orthogonality table"
    betas = list(multi_indices(n, max_degree))
    polys = [hermite(n, beta) for beta in betas]
    for a, row in zip(betas, gram(polys, polys, Measure.RHO)):
        for b, pairing in zip(betas, row):
            value = pairing.scalar_part()
            expected = GaussianRational(b.factorial if a == b else 0)
            if value != expected:
                return CheckResult(name, False,
                                   f"<H_{tuple(a)}, H_{tuple(b)}> = {value!r}, expected {expected!r}")
    return CheckResult(name, True)


def _check_pbasis_table(n: int, max_degree: int) -> CheckResult:
    name = "monogenic basis orthogonality (scalar and full pairing)"
    betas = list(multi_indices(n, max_degree))
    polys = [p_basis(n, beta) for beta in betas]
    for a, f, row in zip(betas, polys, gram(polys, polys, Measure.MU_TILDE)):
        for b, g, pairing in zip(betas, polys, row):
            expected = (CliffordNumber.scalar(n, b.factorial)
                        if a == b else CliffordNumber.zero(n))
            if pairing != expected:
                return CheckResult(name, False,
                                   f"pairing(P_{tuple(a)}, P_{tuple(b)}) = {pairing!r}")
            if pairing.scalar_part() != inner_mu(f, g):
                return CheckResult(name, False,
                                   f"scalar pairing disagrees at ({tuple(a)}, {tuple(b)})")
    return CheckResult(name, True)


def _check_sb_isometry(rng: random.Random, n: int, max_degree: int,
                       trials: int) -> CheckResult:
    name = "segal-bargmann isometry and round trip"
    deg = min(max_degree, 4)
    isometry_failure = None
    pairs = [(rand_hermite_expansion(rng, n, deg), rand_hermite_expansion(rng, n, deg))
             for _ in range(trials)]
    for t, (f, h) in enumerate(pairs):
        Ff = sb_transform(f)
        pf = f.to_polynomial()
        # the round trip holds for every n, so it is checked on every trial;
        # the isometry holds only for n = 1, and its first failure is kept
        if sb_inverse(Ff) != pf:
            return CheckResult(name, False, f"trial {t}: round trip failed for {f!r}")
        if isometry_failure is None:
            lhs = inner_mu(Ff, sb_transform(h))
            rhs = inner_rho(pf, h.to_polynomial())
            if lhs != rhs:
                isometry_failure = CheckResult(name, False, f"trial {t}: {lhs!r} != {rhs!r}")
    return isometry_failure or CheckResult(name, True)


def _check_taylor_isometry(rng: random.Random, n: int, max_degree: int,
                           trials: int) -> CheckResult:
    name = "taylor map isometry"
    deg = min(max_degree, 4)
    for t, f in enumerate([rand_hermite_expansion(rng, n, deg) for _ in range(trials)]):
        F = sb_transform(f)
        if fock_norm_sq(taylor_map(F)) != inner_mu(F, F).re:
            return CheckResult(name, False, f"trial {t}: F = {F!r}")
    return CheckResult(name, True)


def _check_round_trips(rng: random.Random, n: int, max_degree: int,
                       trials: int) -> CheckResult:
    name = "taylor map round trips in both directions"
    draws = [(rand_fock_element(rng, n, max_degree), rand_poly(rng, n, max_degree))
             for _ in range(trials)]
    for t, (alpha, f) in enumerate(draws):
        if taylor_map(fock_to_monogenic(alpha)) != alpha:
            return CheckResult(name, False, f"trial {t}: alpha = {alpha!r}")
        F = ck_extend(f)
        if fock_to_monogenic(taylor_map(F)) != F:
            return CheckResult(name, False, f"trial {t}: F = {F!r}")
    return CheckResult(name, True)


def _check_triad(rng: random.Random, n: int, max_degree: int,
                 trials: int) -> CheckResult:
    name = "triad closure: fock norm of transformed input matches source norm"
    deg = min(max_degree, 4)
    for t, f in enumerate([rand_hermite_expansion(rng, n, deg) for _ in range(trials)]):
        lhs = fock_norm_sq(taylor_map(sb_transform(f)))
        pf = f.to_polynomial()
        rhs = inner_rho(pf, pf).re
        if lhs != rhs:
            return CheckResult(name, False, f"trial {t}: {lhs} != {rhs}")
    return CheckResult(name, True)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_verification(n: int = 2, max_degree: int = 4, trials: int = 100,
                     seed: int = 0) -> VerifyReport:
    """Run every check at the given parameters; deterministic per seed."""
    if not 1 <= n <= MAX_VERIFY_DIMENSION:
        raise BoundsError(f"dimension must be in [1, {MAX_VERIFY_DIMENSION}], got {n}")
    if not 0 <= max_degree <= MAX_VERIFY_DEGREE:
        raise BoundsError(f"max_degree must be in [0, {MAX_VERIFY_DEGREE}], got {max_degree}")
    if trials < 0:
        raise BoundsError("trials must be nonnegative")

    rng = random.Random(seed)
    report = VerifyReport(suite="monogenic-verify", n=n, max_degree=max_degree,
                          trials=trials, seed=seed)
    start = time.perf_counter()
    report.checks.append(_check_algebra_relations(n))
    report.checks.append(_check_dirac_squared(rng, n, max_degree, trials))
    report.checks.append(_check_ck_extension(rng, n, max_degree, trials))
    report.checks.append(_check_hermite_table(n, max_degree))
    report.checks.append(_check_pbasis_table(n, min(max_degree, 4)))
    report.checks.append(_check_sb_isometry(rng, n, max_degree, trials))
    report.checks.append(_check_taylor_isometry(rng, n, max_degree, trials))
    report.checks.append(_check_round_trips(rng, n, max_degree, trials))
    report.checks.append(_check_triad(rng, n, max_degree, trials))
    report.elapsed = time.perf_counter() - start
    return report
