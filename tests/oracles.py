"""Independent oracles used by the test suite.

Each oracle deliberately recomputes a quantity by a route the library
does not use: naive generator-by-generator blade reduction, the
per-coordinate Hermite recurrence, the 1-D moment recurrence, a direct
power-expansion evaluator, the polynomial operators composed from
`partial` and Clifford products with one `Fraction` per coefficient per
step (the Dirac operator, the Laplacian, the Cauchy-Riemann operator,
and the heat and Cauchy-Kowalevski series built on them), the heat and
C-K series of `transform._series` run on the whole polynomial instead
of applied through the cached images of its monomials, a Gaussian
pairing that sums Clifford products of conjugated terms weighted by
recurrence moments, the same pairing as a Fischer sum of heat images
that builds its own heat series from `partial`, the monogenic basis by
the Fueter recursion, both squared container norms and both Taylor-side
maps summed or scaled one `Fraction` entry at a time, and Gram tables
of the monogenic basis that integrate the materialised product
conj(P_alpha) * P_beta instead of going through `gauss`.  The last
route also feeds an exact row reduction that decides whether *any*
moment functional on R^{n+1} makes the basis orthogonal with squared
norms beta!.  The reduced form of integer numerators over a denominator,
from one `Fraction` per part.  Then the JSON and text
wire codec as it worked one `CliffordNumber`, `GaussianRational` and
`Fraction` per term.  Last, the seeded input generators of `verify` as
they drew one `Fraction` per part and built through the public
constructors, and the bit scan that read blade indices off a mask.
"""

import itertools
import random
import re
from fractions import Fraction
from math import factorial, lcm
from typing import Sequence

from monogenic import (
    CliffordNumber,
    CliffordPolynomial,
    FockElement,
    GaussianRational,
    HermiteExpansion,
    Measure,
    MultiIndex,
    p_basis,
)
from monogenic.poly import _dirac_into, _laplacian_into
from monogenic.serialize import SchemaError, _table
from monogenic.transform import _series

# denominators for seeded test data whose common denominator is a large lcm
PRIMES_TO_97 = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def naive_blade_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Reduce the concatenated generator word left to right.

    Adjacent equal generators annihilate with a -1; out-of-order
    adjacent generators swap with a -1.  Terminates because each pass
    shrinks the word or reduces its inversion count.
    """
    word = list(a) + list(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(word) - 1:
            if word[i] == word[i + 1]:
                del word[i:i + 2]
                sign = -sign
                changed = True
            elif word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
            else:
                i += 1
    return sign, tuple(word)


def hermite_recurrence(n: int, beta: tuple[int, ...]) -> CliffordPolynomial:
    """Product of 1-D probabilists' Hermite polynomials built from
    H_{k+1}(t) = t*H_k(t) - k*H_{k-1}(t), one coordinate at a time."""
    result = CliffordPolynomial.monomial(n, 0, (0,) * n)
    for axis, k in enumerate(beta):
        h_prev = CliffordPolynomial.monomial(n, 0, (0,) * n)  # H_0 = 1
        if k == 0:
            continue
        t = CliffordPolynomial.variable(n, axis + 1)
        h_curr = t  # H_1 = t
        for m in range(1, k):
            h_next = t * h_curr - h_prev * m
            h_prev, h_curr = h_curr, h_next
        result = result * h_curr
    return result


def naive_dirac(f: CliffordPolynomial) -> CliffordPolynomial:
    """sum_j e_j * d_j f, each e_j applied as a constant polynomial on the left."""
    n = f.n
    out = CliffordPolynomial.zero(n)
    for j in range(1, n + 1):
        out = out + CliffordPolynomial.constant(CliffordNumber.basis(n, j)) * f.partial(j)
    return out


def naive_laplacian(f: CliffordPolynomial) -> CliffordPolynomial:
    """sum_j d_j d_j f over x1..xn."""
    out = CliffordPolynomial.zero(f.n)
    for j in range(1, f.n + 1):
        out = out + f.partial(j).partial(j)
    return out


def naive_cauchy_riemann(f: CliffordPolynomial) -> CliffordPolynomial:
    return f.partial(0) + naive_dirac(f)


def naive_heat(f: CliffordPolynomial, inverse: bool = False) -> CliffordPolynomial:
    """sum_k (+-1)^k Lap^k f / (2^k k!), one polynomial per term."""
    total = CliffordPolynomial.zero(f.n)
    term = f
    k = 0
    while term:
        sign = (-1) ** k if inverse else 1
        total = total + term * Fraction(sign, 2 ** k * factorial(k))
        term = naive_laplacian(term)
        k += 1
    return total


def naive_ck_extend(f: CliffordPolynomial) -> CliffordPolynomial:
    """sum_k (-x0)^k D^k f / k! by polynomial products."""
    n = f.n
    total = CliffordPolynomial.zero(n)
    term = f
    k = 0
    while term:
        x0k = CliffordPolynomial.monomial(n, k, (0,) * n)
        total = total + x0k * term * Fraction((-1) ** k, factorial(k))
        term = naive_dirac(term)
        k += 1
    return total


def series_heat(f: CliffordPolynomial, inverse: bool = False) -> CliffordPolynomial:
    """exp(+-Laplacian/2) f as one `_series` over the whole polynomial."""
    return CliffordPolynomial._raw(f.n, *_series(f._den, f._num, _laplacian_into,
                                                 -1 if inverse else 1, 2, 0))


def series_ck_extend(f: CliffordPolynomial) -> CliffordPolynomial:
    """sum_k (-x0)^k D^k f / k! as one `_series` over the whole polynomial."""
    return CliffordPolynomial._raw(f.n, *_series(f._den, f._num, _dirac_into, -1, 1, 1))


def moment_recurrence(k: int, variance: Fraction) -> Fraction:
    """1-D centered Gaussian moment by integration-by-parts recurrence."""
    if k % 2:
        return Fraction(0)
    value = Fraction(1)
    while k > 0:
        value *= (k - 1) * variance
        k -= 2
    return value


def naive_clifford_pairing(f: CliffordPolynomial, g: CliffordPolynomial,
                           measure: Measure) -> CliffordNumber:
    """Integral of conj(f) * g, one term pair at a time in `Fraction`s:
    each Clifford product conj(c_a) * c_b weighted by the moments of the
    combined exponents (variance 1 under RHO, 1/2 under MU_TILDE)."""
    variance = Fraction(1) if measure is Measure.RHO else Fraction(1, 2)
    total = CliffordNumber.zero(f.n)
    for k0a, ba, ca in f.hermitian_conj().terms():
        for k0b, bb, cb in g.terms():
            weight = moment_recurrence(k0a + k0b, variance)
            for x, y in zip(ba, bb):
                weight *= moment_recurrence(x + y, variance)
            if weight:
                total = total + (ca * cb) * weight
    return total


def fischer_pairing(f: CliffordPolynomial, g: CliffordPolynomial, measure: Measure,
                    heat: bool = True) -> CliffordNumber:
    """Integral of conj(f) * g as the Fischer sum of heat images,
    sum_key s^|key| key! conj(A_key) B_key with A = exp(s Lap_X / 2) f and
    B likewise (s the per-axis variance, X = x1..xn under RHO and x0..xn
    under MU_TILDE), in `Fraction`s.  The heat image is its own series of
    polynomials built from `partial`; without `heat`, A = f and B = g."""
    rho = measure is Measure.RHO
    s = Fraction(1) if rho else Fraction(1, 2)
    axes = range(1 if rho else 0, f.n + 1)

    def image(p: CliffordPolynomial) -> dict:
        total, term, k = CliffordPolynomial.zero(p.n), p, 0
        while heat and term:
            total = total + term * (s / 2) ** k * Fraction(1, factorial(k))
            step = CliffordPolynomial.zero(p.n)
            for i in axes:
                step = step + term.partial(i).partial(i)
            term, k = step, k + 1
        return {(k0, beta): c for k0, beta, c in (total if heat else p).terms()}

    right = image(g)
    total = CliffordNumber.zero(f.n)
    for (k0, beta), a in image(f).items():
        b = right.get((k0, beta))
        if b is not None:
            weight = s ** (k0 + beta.degree) * factorial(k0) * beta.factorial
            total = total + a.hermitian_conj() * b * weight
    return total


def fueter_basis(n: int, max_degree: int) -> dict:
    """{beta: P_beta} for |beta| <= max_degree by the Fueter recursion
    P_beta = (1/|beta|) sum_j beta_j P_{beta - e_j} z_j with
    z_j = x_j - x0 e_j, from P_0 = 1: the symmetrised Fueter products of
    Brackx, Delanghe and Sommen, *Clifford Analysis*, 1982."""
    x0 = CliffordPolynomial.variable(n, 0)
    z = [CliffordPolynomial.variable(n, j) - x0 * CliffordNumber.basis(n, j)
         for j in range(1, n + 1)]
    basis = {(0,) * n: CliffordPolynomial.monomial(n, 0, (0,) * n)}
    betas = [b for b in itertools.product(range(max_degree + 1), repeat=n) if 0 < sum(b) <= max_degree]
    for beta in sorted(betas, key=sum):
        total = CliffordPolynomial.zero(n)
        for j, b in enumerate(beta):
            if b:
                total = total + basis[beta[:j] + (b - 1,) + beta[j + 1:]] * z[j] * b
        basis[beta] = total * Fraction(1, sum(beta))
    return basis


def expand_eval(f: CliffordPolynomial, x0: Fraction, xs: list[Fraction]) -> CliffordNumber:
    """Evaluate by explicit repeated multiplication, term by term."""
    total = CliffordNumber.zero(f.n)
    for k0, beta, coeff in f.terms():
        scale = Fraction(1)
        for _ in range(k0):
            scale = scale * x0
        for x, b in zip(xs, beta):
            for _ in range(b):
                scale = scale * x
        total = total + scale * coeff
    return total


def naive_reduce(den: int, maps: dict) -> tuple[int, dict]:
    """The reduced form of {key: {mask: (re, im)}} over den, one `Fraction`
    per part: every part divided by den on its own, zero pairs and then
    keys without a blade dropped, and the parts put back over the lcm of
    their denominators."""
    values = {key: {m: (Fraction(re, den), Fraction(im, den)) for m, (re, im) in blades.items()
                    if re or im}
              for key, blades in maps.items()}
    values = {key: parts for key, parts in values.items() if parts}
    common = lcm(*(part.denominator for parts in values.values()
                   for pair in parts.values() for part in pair))
    return common, {key: {m: (int(re * common), int(im * common)) for m, (re, im) in parts.items()}
                    for key, parts in values.items()}


def naive_expansion_norm_sq(f: HermiteExpansion) -> Fraction:
    """sum_beta beta! * |w_beta|^2, one `Fraction` per entry."""
    total = Fraction(0)
    for beta, value in f.coefficients():
        total += beta.factorial * value.norm_sq()
    return total


def naive_fock_norm_sq(alpha: FockElement) -> Fraction:
    """sum_beta |alpha(e^beta)|^2 / beta!, one `Fraction` per entry."""
    total = Fraction(0)
    for beta, value in alpha.entries():
        total += value.norm_sq() / beta.factorial
    return total


def naive_taylor_map(F: CliffordPolynomial) -> dict:
    """{beta: beta! * coefficient of x^beta in F(0, x)}, one Clifford
    scalar product per entry."""
    return {beta: coeff * beta.factorial for k0, beta, coeff in F.terms() if not k0}


def naive_fock_to_function(alpha: FockElement) -> dict:
    """{(0, beta): alpha(e^beta) / beta!}, one Clifford scalar product per
    entry."""
    return {(0, beta): value * Fraction(1, beta.factorial) for beta, value in alpha.entries()}


def _conj_products(n: int, betas: Sequence[MultiIndex]):
    """Yield (alpha, beta, conj(P_alpha) * P_beta) as materialised polynomials."""
    basis = {beta: p_basis(n, beta) for beta in betas}
    conj = {beta: P.hermitian_conj() for beta, P in basis.items()}
    for a in betas:
        for b in betas:
            yield a, b, conj[a] * basis[b]


def gram_table(n: int, betas: Sequence[MultiIndex]) -> dict:
    """Clifford-valued Gram table {(alpha, beta): integral of conj(P_alpha) P_beta}
    under the variance-1/2 Gaussian on R^{n+1}, monomial by monomial with
    `moment_recurrence`."""
    half = Fraction(1, 2)
    table = {}
    for a, b, product in _conj_products(n, betas):
        total = CliffordNumber.zero(n)
        for k0, gamma, coeff in product.terms():
            weight = moment_recurrence(k0, half)
            for k in gamma:
                weight *= moment_recurrence(k, half)
            if weight:
                total = total + coeff * weight
        table[a, b] = total
    return table


def gram_moment_contradiction(n: int, betas: Sequence[MultiIndex], full: bool):
    """Decide whether some real linear functional L on polynomials over
    R^{n+1} gives L(conj(P_alpha) P_beta) = beta! * delta_{alpha beta}
    for all alpha, beta in `betas`.

    The unknowns are the moments L(x0^k x^gamma); each table entry is
    linear in them.  With `full` every blade component and real or
    imaginary part of an entry is one equation (the Clifford pairing);
    without it only the scalar part is (the scalar inner product).  The
    scalar real part of every entry is always an equation, even when
    both sides vanish identically.

    Equations are Gauss-Jordan reduced one at a time in exact
    arithmetic.  Returns None when the system is consistent; otherwise
    the first equation that reduces to 0 = c with c != 0, as
    (alpha, beta, (blade, part), c).
    """
    pivots: dict = {}  # pivot unknown -> (row, rhs); row[pivot] == 1, zero at other pivots
    for a, b, product in _conj_products(n, betas):
        rows: dict = {((), "re"): {}}
        for k0, gamma, coeff in product.terms():
            for blade, value in coeff.terms():
                if blade and not full:
                    continue
                for part, x in (("re", value.re), ("im", value.im)):
                    if x:
                        rows.setdefault((blade, part), {})[k0, gamma] = x
        for component, row in rows.items():
            rhs = Fraction(b.factorial if a == b and component == ((), "re") else 0)
            for pivot, (prow, prhs) in pivots.items():
                c = row.get(pivot)
                if c:
                    _axpy(row, prow, -c)
                    rhs -= c * prhs
            if not row:
                if rhs:
                    return a, b, component, rhs
                continue
            pivot = min(row)
            scale = 1 / row[pivot]
            row = {u: x * scale for u, x in row.items()}
            rhs *= scale
            for other, (prow, prhs) in pivots.items():
                c = prow.get(pivot)
                if c:
                    _axpy(prow, row, -c)
                    pivots[other] = (prow, prhs - c * rhs)
            pivots[pivot] = (row, rhs)
    return None


def _axpy(row: dict, other: dict, c: Fraction) -> None:
    """row += c * other on sparse rows, dropping entries that cancel."""
    for u, x in other.items():
        y = row.get(u, 0) + c * x
        if y:
            row[u] = y
        else:
            row.pop(u, None)


# -- the wire codec through per-term objects ----------------------------------
#
# The JSON and text codec as it read and wrote values one `CliffordNumber`,
# `GaussianRational` and `Fraction` per term, kept as the reference the
# numerator codec of `monogenic.serialize` is compared against: the same
# bytes out, the same values in, the same error for the same input.

_RATIONAL_RE = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")


def oracle_parse_fraction(text) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise SchemaError(f"malformed rational {text!r}")
    value = Fraction(text)
    if str(value) != text:
        raise SchemaError(f"rational {text!r} is not in lowest terms")
    return value


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _oracle_blade(data, n: int) -> tuple[int, ...]:
    _require(isinstance(data, list), f"blade must be a list, got {data!r}")
    prev = 0
    for i in data:
        _require(isinstance(i, int) and not isinstance(i, bool), f"blade index {i!r} not an int")
        _require(1 <= i <= n, f"blade index {i} out of range [1, {n}]")
        _require(i > prev, f"blade indices must be strictly increasing, got {data}")
        prev = i
    return tuple(data)


def _oracle_beta(data, n: int) -> MultiIndex:
    _require(isinstance(data, list) and len(data) == n,
             f"multi-index must be a list of {n} ints, got {data!r}")
    for b in data:
        _require(isinstance(b, int) and not isinstance(b, bool) and b >= 0,
                 f"multi-index entry {b!r} must be a nonnegative int")
    return MultiIndex(data)


def _oracle_dimension(data) -> int:
    _require(isinstance(data, dict) and "n" in data, "object must carry an 'n' field")
    n = data["n"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1, f"bad dimension {n!r}")
    return n


def oracle_clifford_to_json(value: CliffordNumber) -> list[dict]:
    return [{"blade": list(indices), "re": str(coeff.re), "im": str(coeff.im)}
            for indices, coeff in value.terms()]


def oracle_clifford_from_json(data, n: int) -> CliffordNumber:
    _require(isinstance(data, list), f"Clifford value must be a list of terms, got {data!r}")
    coeffs: dict[tuple[int, ...], GaussianRational] = {}
    for item in data:
        _require(isinstance(item, dict) and set(item) == {"blade", "re", "im"},
                 f"Clifford term must have keys blade/re/im, got {item!r}")
        blade = _oracle_blade(item["blade"], n)
        _require(blade not in coeffs, f"duplicate blade {list(blade)}")
        coeffs[blade] = GaussianRational(oracle_parse_fraction(item["re"]),
                                         oracle_parse_fraction(item["im"]))
    return CliffordNumber(n, coeffs)


def oracle_poly_to_json(f: CliffordPolynomial) -> dict:
    return {"n": f.n, "terms": [
        {"x0": k0, "beta": list(beta), "coeff": oracle_clifford_to_json(coeff)}
        for k0, beta, coeff in f.terms()]}


def oracle_poly_from_json(data) -> CliffordPolynomial:
    n = _oracle_dimension(data)
    _require(set(data) == {"n", "terms"} and isinstance(data["terms"], list),
             "polynomial must have exactly the fields n and terms")
    terms: dict[tuple[int, MultiIndex], CliffordNumber] = {}
    for item in data["terms"]:
        _require(isinstance(item, dict) and set(item) == {"x0", "beta", "coeff"},
                 f"polynomial term must have keys x0/beta/coeff, got {item!r}")
        k0 = item["x0"]
        _require(isinstance(k0, int) and not isinstance(k0, bool) and k0 >= 0,
                 f"x0 exponent {k0!r} must be a nonnegative int")
        beta = _oracle_beta(item["beta"], n)
        _require((k0, beta) not in terms, f"duplicate term x0^{k0} * x^{tuple(beta)}")
        terms[(k0, beta)] = oracle_clifford_from_json(item["coeff"], n)
    return CliffordPolynomial(n, terms)


# field name -> (class, object noun, entry noun) for the {"n", field} wire shape
ORACLE_INDEX_MAPS = {
    "coeffs": (HermiteExpansion, "expansion", "expansion entry"),
    "entries": (FockElement, "Fock element", "Fock entry"),
}


def oracle_index_map_to_json(container, field: str) -> dict:
    return {"n": container.n, field: [
        {"beta": list(beta), "value": oracle_clifford_to_json(value)}
        for beta, value in container._items()]}


def oracle_index_map_from_json(data, field: str):
    cls, noun, entry_noun = ORACLE_INDEX_MAPS[field]
    n = _oracle_dimension(data)
    _require(set(data) == {"n", field} and isinstance(data[field], list),
             f"{noun} must have exactly the fields n and {field}")
    entries: dict[MultiIndex, CliffordNumber] = {}
    for item in data[field]:
        _require(isinstance(item, dict) and set(item) == {"beta", "value"},
                 f"{entry_noun} must have keys beta/value, got {item!r}")
        beta = _oracle_beta(item["beta"], n)
        _require(beta not in entries, f"duplicate multi-index {tuple(beta)}")
        entries[beta] = oracle_clifford_from_json(item["value"], n)
    return cls(n, entries)


def oracle_scalar_to_text(value: GaussianRational) -> str:
    re_part = f"{value.re.numerator}/{value.re.denominator}"
    if not value.im:
        return re_part
    sign = "+" if value.im > 0 else "-"
    im = abs(value.im)
    return f"{re_part} {sign} {im.numerator}/{im.denominator} i"


def oracle_clifford_to_text(value: CliffordNumber) -> str:
    if value.is_zero():
        return "0"
    parts = []
    for indices, coeff in value.terms():
        blade = "e" + "".join(str(i) for i in indices) if indices else "1"
        parts.append(f"({oracle_scalar_to_text(coeff)}) {blade}")
    return " + ".join(parts)


def oracle_poly_to_text(f: CliffordPolynomial) -> str:
    return _table([("x0", "beta", "coeff")] + [
        (str(k0), ",".join(map(str, beta)), oracle_clifford_to_text(coeff))
        for k0, beta, coeff in f.terms()])


def oracle_fock_to_text(alpha: FockElement) -> str:
    return _table([("beta", "value")] + [
        (",".join(map(str, beta)), oracle_clifford_to_text(value)) for beta, value in alpha.entries()])


# -- the seeded input generators of `monogenic.verify`, as they were written
# before they built stored numerators directly: one Fraction per draw, the
# public constructors, and one `+` per polynomial term.  Blade indices come
# from the bit scan below.

def bit_scan_indices(mask: int) -> tuple[int, ...]:
    """The generator indices of a blade mask, one bit position at a time."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def oracle_rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def oracle_rand_gaussian_rational(rng: random.Random) -> GaussianRational:
    return GaussianRational(oracle_rand_fraction(rng), oracle_rand_fraction(rng))


def oracle_rand_clifford(rng: random.Random, n: int, max_terms: int = 3) -> CliffordNumber:
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        blade = bit_scan_indices(rng.randrange(2 ** n))
        coeffs[blade] = oracle_rand_gaussian_rational(rng)
    return CliffordNumber(n, {b: v for b, v in coeffs.items()})


def oracle_rand_multi_index(rng: random.Random, n: int, max_degree: int) -> MultiIndex:
    degree = rng.randint(0, max_degree)
    beta = [0] * n
    for _ in range(degree):
        beta[rng.randrange(n)] += 1
    return MultiIndex(beta)


def oracle_rand_poly(rng: random.Random, n: int, max_degree: int,
                     max_terms: int = 4) -> CliffordPolynomial:
    total = CliffordPolynomial.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        beta = oracle_rand_multi_index(rng, n, max_degree)
        total = total + CliffordPolynomial.monomial(n, 0, beta, oracle_rand_clifford(rng, n))
    return total


def _oracle_rand_index_map(cls, rng: random.Random, n: int, max_degree: int, max_terms: int):
    data: dict[MultiIndex, CliffordNumber] = {}
    for _ in range(rng.randint(1, max_terms)):
        beta = oracle_rand_multi_index(rng, n, max_degree)
        value = oracle_rand_clifford(rng, n)
        data[beta] = data[beta] + value if beta in data else value
    return cls(n, data)


def oracle_rand_hermite_expansion(rng: random.Random, n: int, max_degree: int,
                                  max_terms: int = 3) -> HermiteExpansion:
    return _oracle_rand_index_map(HermiteExpansion, rng, n, max_degree, max_terms)


def oracle_rand_fock_element(rng: random.Random, n: int, max_degree: int,
                             max_terms: int = 3) -> FockElement:
    return _oracle_rand_index_map(FockElement, rng, n, max_degree, max_terms)
