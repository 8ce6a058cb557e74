"""Guards for the library's source and for the tooling next to it.

Most of the file is `ROWS`, one row per rule that has one home in the
library: C_n's product sign, the reduction, scaling and text of blade-map
numerators, key! and beta!, the pairing forms and their one kernel, the
argument and precondition messages, the numerator-only codec and the
seeded generators.  A row holds a scan, its scope (the library or one
module), the exact "module:function" list that the scan finds there, a
probe source each of whose statements the scan must catch, and one that
it must pass over.  `test_one_home` checks every row against one parse
of the library per session; a failing case is named by its row, and a
change that moves a helper edits that row.

Outside the table, over the same parse: the stdlib-only imports, bounded
caches, the names that the product chooser loads, the two `_PACK_`
constants and the words clifford must not read, the constructor's
`_over_lcm` with no reducer after it, zeros built only in module-level
tuples, the tuples of clifford and verify, and that every private
function is used.  The rest guards the tooling: the benchmark's tracer,
the claim rule and order effect of `tools/ab.py`, the README's list of
CLI commands, the verify witnesses that the acceptance criteria apply,
and one product per blade pair in the algebra witness."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


class Source(NamedTuple):
    name: str
    text: str
    tree: ast.Module
    nodes: list  # every node of tree, walked once
    functions: list


def _parse(name, text):
    tree = ast.parse(text, name)
    nodes = list(ast.walk(tree))
    return Source(name, text, tree, nodes, [node for node in nodes if isinstance(node, ast.FunctionDef)])


@pytest.fixture(scope="session")
def library():
    """{file name: Source} of every module of the library, parsed once."""
    return {path.name: _parse(path.name, path.read_text())
            for path in sorted((ROOT / "src" / "monogenic").glob("*.py"))}


def _where(source, line):
    """"module:function" of the innermost function around line, or
    "module:" at module level."""
    around = [f for f in source.functions if f.lineno <= line <= f.end_lineno]
    return f"{source.name}:{max(around, key=lambda f: f.lineno).name if around else ''}"


def _enclosing(sources, scan):
    """Sorted "module:function" of each line that scan finds in sources."""
    return sorted({_where(source, line) for source in sources for line in scan(source)})


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer, path, name", _tracer_targets())
def test_tracer_target_is_defined_where_it_is_wrapped(layer, path, name):
    # the tracer reads owner.__dict__[attr], which misses a method that a
    # class inherits from a base class, so the traced run would fail
    owner = importlib.import_module(f"monogenic.{layer}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{name}: {path} is not defined on monogenic.{layer}"


TRACED_CHAIN = """
import importlib.util, json, sys
import monogenic
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
# imported after install, so that these names are bound to the wrappers
from monogenic import (CliffordNumber, CliffordPolynomial, fock_to_monogenic,
                       sb_inverse, sb_transform, taylor_map)
t.active = True
f = CliffordPolynomial(2, {(0, (2, 1)): CliffordNumber.blade(2, (1,)),
                           (0, (0, 1)): CliffordNumber.one(2)})
back = sb_inverse(fock_to_monogenic(taylor_map(sb_transform(f))))
t.active = False
print(json.dumps({"round_trip": back == f, "calls": dict(t.calls)}))
"""


def test_tracer_sees_every_operator_call():
    # the tracer wraps the public names only, so an operator that the
    # two-step maps reach through a private twin goes uncounted; it cannot
    # be uninstalled, so it runs in a child process.  The round trip calls
    # heat in sb_transform and sb_inverse, and ck_extend in sb_transform
    # and fock_to_monogenic
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_CHAIN, str(TRACER)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["round_trip"]
    calls = out["calls"]
    assert (calls.get("transform.heat"), calls.get("transform.ck_extend")) == (2, 2)
    assert (calls.get("transform.sb_transform"), calls.get("transform.sb_inverse")) == (1, 1)
    assert (calls.get("fock.taylor_map"), calls.get("fock.fock_to_monogenic")) == (1, 1)


def test_no_private_twin_of_a_traced_function(library):
    # a private _<name> next to a traced <name> is a second entry that the
    # tracer does not see
    twins = []
    for layer, path, _ in _tracer_targets():
        body = library[f"{layer}.py"].tree.body
        *cls_path, attr = path.split(".")
        for name in cls_path:
            body, = [node.body for node in body if isinstance(node, ast.ClassDef) and node.name == name]
        if f"_{attr}" in {node.name for node in body if isinstance(node, ast.FunctionDef)}:
            twins.append(f"{layer}: _{attr} next to {path}")
    assert twins == []


def _ab():
    spec = importlib.util.spec_from_file_location("tools_ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


# ten parent runs: median 1.00, quartiles 0.9775 and 1.0225
AB_PARENT = [1.00, 0.98, 1.02, 0.99, 1.01, 1.03, 0.97, 1.00, 1.04, 0.96]


@pytest.mark.parametrize("change, wins, direction, holds", [
    ([0.90] * 10, 9, "lower", True),  # nine tenths won, 0.10 past a spread of 0.045
    ([0.90] * 10, 8, "lower", False),  # eight tenths won
    ([0.96] * 10, 10, "lower", False),  # every pair won, but 0.04 is inside the spread
    ([1.10] * 10, 10, "higher", True),
])
def test_ab_claim_rule(change, wins, direction, holds):
    # the rule that tools/ab.py prints per metric: the change wins at least
    # nine tenths of the pairs, and its median beats the parent's by more
    # than the distance between the parent's quartiles
    assert _ab().claim_holds(AB_PARENT, change, wins, direction) is holds


def test_ab_reports_the_order_effect_of_each_side():
    # ten alternating pairs on a host whose later run is 5% slower: each
    # side reads 1.05, its median when it ran second over its median when it
    # ran first, whichever side the change is
    pairs = [{"first": first, "parent": {"op_ms_p50": 1.0 if first == "parent" else 1.05},
              "change": {"op_ms_p50": 0.9 if first == "change" else 0.945}}
             for first in ["parent", "change"] * 5]
    row, = _ab().summary(pairs, {"op_ms_p50": "lower"})
    assert [round(effect, 12) for effect in row[-1]] == [1.05, 1.05]


def test_library_imports_only_the_standard_library(library):
    # the library is stdlib-only at runtime; relative imports stay inside it
    assert library
    for source in library.values():
        for node in source.nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{source.name} imports {name}"


# -- the scans: each maps a Source to the lines it finds ----------------------------

def _calls_of(callee):
    return lambda source: [node.lineno for node in source.nodes if isinstance(node, ast.Call)
                           and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _defs_of(name):
    return lambda source: [node.lineno for node in source.functions if node.name == name]


def _matching(pattern):
    return lambda source: [source.text.count("\n", 0, m.start()) + 1 for m in pattern.finditer(source.text)]


def _texts_holding(phrase):
    """Lines of a string constant, alone or in an f-string, holding phrase."""
    return lambda source: [node.lineno for node in source.nodes if isinstance(node, ast.Constant)
                           and isinstance(node.value, str) and phrase in node.value]


def _numerator_printers(source):
    """Lines of a gcd call in a function that also writes "/" into a text:
    an f-string, a `+` or `%`, or a join on a string constant holding "/"."""
    def slash(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and "/" in node.value

    printing = {_where(source, node.lineno) for node in source.nodes
                if isinstance(node, ast.JoinedStr) and any(map(slash, node.values))
                or isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod))
                and (slash(node.left) or slash(node.right))
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join" and slash(node.func.value)}
    return [line for line in _calls_of("gcd")(source) if _where(source, line) in printing]


def _zero_pair_tests(source):
    """Lines of a zero-pair test: (0, 0) in or not in a map's values,
    `not a and not b`, or `a or b` over two parts, each a plain name or
    the item 0 or 1 of one."""
    def zero_pair(node):
        return (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and all(isinstance(e, ast.Constant) and e.value == 0 for e in node.elts))

    def part(node):
        return isinstance(node, ast.Name) or (
            isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and isinstance(node.slice, ast.Constant) and node.slice.value in (0, 1))

    def negated_part(node):
        return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and part(node.operand)

    return [node.lineno for node in source.nodes
            if isinstance(node, ast.Compare) and zero_pair(node.left)
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            or isinstance(node, ast.BoolOp) and len(node.values) == 2
            and all(map(negated_part if isinstance(node.op, ast.And) else part, node.values))]


def _scaling_comprehensions(source):
    """Lines of a comprehension whose element is a pair that scales both
    its parts by one factor: (c * re, c * im) in either operand order, or
    (-re, -im), the factor -1."""
    def factors(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return {"-1"}
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return {ast.dump(node.left), ast.dump(node.right)}
        return set()

    lines = []
    for node in source.nodes:
        if isinstance(node, (ast.DictComp, ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            pair = node.value if isinstance(node, ast.DictComp) else node.elt
            if (isinstance(pair, ast.Tuple) and len(pair.elts) == 2
                    and factors(pair.elts[0]) & factors(pair.elts[1])):
                lines.append(node.lineno)
    return lines


def _factorials(source):
    """Lines that call or pass math's factorial, bare or as `math.factorial`
    (not the `MultiIndex.factorial` property)."""
    return [node.lineno for node in source.nodes
            if isinstance(node, ast.Name) and node.id == "factorial"
            or isinstance(node, ast.Attribute) and node.attr == "factorial"
            and isinstance(node.value, ast.Name) and node.value.id == "math"]


# the classes whose container check `clifford._checked` is the home of
CONTAINER_CLASSES = ("CliffordPolynomial", "HermiteExpansion", "FockElement")


def _container_messages(source):
    """Lines of a TypeError(...) whose text, plain or formatted, says
    "takes a" or names a container class."""
    return [node.lineno for node in source.nodes
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TypeError"
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and ("takes a" in c.value or any(cls in c.value for cls in CONTAINER_CLASSES))
                    for c in ast.walk(node))]


def _zero_builds(source):
    """Lines that build a zero value: a `_raw` number over an empty blade
    map, or a Gaussian rational from two zero parts."""
    def zero(node):
        return (isinstance(node, ast.Constant) and type(node.value) is int and node.value == 0
                or isinstance(node, ast.Name) and node.id == "_ZERO")

    lines = []
    for node in source.nodes:
        callee = isinstance(node, ast.Call) and (getattr(node.func, "id", None)
                                                 or getattr(node.func, "attr", None))
        if (callee == "_raw" and any(isinstance(a, ast.Dict) and not a.keys for a in node.args)
                or callee in ("_gaussian", "_gaussian_over") and len(node.args) >= 2
                and all(map(zero, node.args[:2]))):
            lines.append(node.lineno)
    return lines


def _range_reads(source):
    """Lines that read item 6 or 7 of a value: the degree range of a
    pairing form."""
    return [node.lineno for node in source.nodes if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant) and node.slice.value in (6, 7)]


def _member_reads(source):
    """Lines that read a member of `Measure`: an attribute, bare or
    qualified, a lookup by name or a call by value."""
    def measure(node):
        return (isinstance(node, ast.Name) and node.id == "Measure"
                or isinstance(node, ast.Attribute) and node.attr == "Measure")

    return [node.lineno for node in source.nodes
            if isinstance(node, ast.Attribute) and node.attr in ("RHO", "MU_TILDE") and measure(node.value)
            or isinstance(node, ast.Subscript) and measure(node.value)
            or isinstance(node, ast.Call) and measure(node.func)]


def _starred_gcds(source):
    """Lines of a gcd call, bare or as an attribute, with a starred argument."""
    return [node.lineno for node in source.nodes if isinstance(node, ast.Call)
            and "gcd" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and any(isinstance(arg, ast.Starred) for arg in node.args)]


# the classes and per-term views that the wire codec must not build or read
CODEC_CLASSES = {"Fraction", "GaussianRational", "CliffordNumber"}
CODEC_VIEWS = {"terms", "entries", "coefficients", "_items", "coefficient", "entry", "scalar_part"}


def _codec_objects(source):
    """Lines of a call that builds a Fraction, GaussianRational or
    CliffordNumber, bare or by a class attribute, or reads a per-term view."""
    return [node.lineno for node in source.nodes if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in CODEC_CLASSES
        or isinstance(node.func, ast.Attribute) and (
            node.func.attr in CODEC_VIEWS
            or isinstance(node.func.value, ast.Name) and node.func.value.id in CODEC_CLASSES))]


# the value classes whose public constructors the generators of verify skip
VALUES = {"Fraction", "GaussianRational", "CliffordNumber", "CliffordPolynomial",
          "HermiteExpansion", "FockElement"}


def _generator_draws(source):
    """Lines, in a module-level rand_* or _rand_* function, of a call of a
    value's public constructor, and of a `+` in one of its loops that is
    not a step by an int literal."""
    lines = []
    for fn in source.tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.lstrip("_").startswith("rand_")):
            continue
        for node in ast.walk(fn):
            func = getattr(node, "func", None)
            if (isinstance(func, ast.Name) and func.id in VALUES
                    or isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in VALUES and not func.attr.startswith("_")):
                lines.append(node.lineno)
        for loop in (node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While))):
            for node in (n for stmt in loop.body for n in ast.walk(stmt)):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Add):
                    operands = [node.left, node.right] if isinstance(node, ast.BinOp) else [node.value]
                    if not any(isinstance(o, ast.Constant) and type(o.value) is int for o in operands):
                        lines.append(node.lineno)
    return lines


# -- the one-home table -----------------------------------------------------------

class Row(NamedTuple):
    """A rule with one home: scan finds exactly found in scope (one module,
    or the whole library for None), something in each top-level statement
    of catch and nothing in miss."""
    id: str
    scan: Callable
    found: list
    scope: str | None = None
    catch: str = ""
    miss: str = ""


# a popcount parity and the sign mask; the squared form x * x + y * y and
# the real part of the conjugate product, xr * yr + xi * yi, in the names
# the numerator kernels use; the operator series' K!/k!
SIGN = re.compile(r"_sign_mask\b|bit_count\(\) \+ 1\) & 2|bit_count\(\) (& 1|% 2)\b")
BLADE_SUM = re.compile(r"\b(\w+) \* \1 \+ (\w+) \* \2\b|\b(\w*)r \* (\w*)r \+ \3i \* \4i\b")
SERIES = re.compile(r"factorial\(top\) // factorial\(k\)")
# "an int, not a bool": a bool in an isinstance test, alone or in a tuple,
# or an exact type test against int or bool
INT_RULE = re.compile(r"isinstance\([^()]+,\s*(\([^()]*)?\bbool\b|\btype\([^()]+\) is (not )?(bool|int)\b")
# a derivative's key shift: exponent b on one axis of beta becomes b - k, or
# the x0 exponent k0 becomes k0 - k
KEY_SHIFT = re.compile(r"\w+\[:[^\]]*\] \+ \(\w+ - \w+,\) \+ \w+\[[^\]]*:\]|\(k0 - \w+, \w+\)")

# a second definition of `_over_lcm`, two callers (one with a reducer after
# it), and an lcm, qualified or bare, in other functions
OVER_LCM = "def _over_lcm(values):\n    return 1, {}\n"
OVER_LCM_CALLERS = ("def clifford_from_json(data, n):\n    den, num = _over_lcm({0: read(data)})\n"
                    "    return CliffordNumber._reduced(n, den, num[0])\n"
                    "def parse(terms):\n    return _adopt(2, *_reduce(*_over_lcm(terms)))\n")
LCMS = "def over(qs):\n    return math.lcm(*qs)\ndef over_two():\n    return lcm(2, 3)\n"
# the messages that the monogenic precondition, the cap and the grade check replaced
MONOGENIC = ("def taylor_map(F):\n    if not F.is_monogenic():\n"
             "        raise NotMonogenicError('the Taylor map is defined on monogenic polynomials')\n")
CAP = "def init(k0, beta, cap):\n    raise DegreeCapError(f'total degree {k0 + beta.degree} exceeds cap {cap}')\n"
GRADE = "def grade(k):\n    raise ValueError('grade must be nonnegative')\n"
# a module-level list of zeros and a tuple of one, a second key-set test,
# blade sum and measure message, zeros built in a pairing, and a copy
ZERO_LIST = "ZEROS = [CliffordNumber._raw(n, 1, {}) for n in range(1, 17)]\n"
ZERO_TUPLE = "PAIR = (_gaussian(_ZERO, _ZERO),)\n"
KEY_TEST = "def _pairing(a, b):\n    return a[2].isdisjoint(b[2])\n"
SCALAR_PAIRING = ("def _scalar_pairing(f, g, mu):\n    if keys.isdisjoint(other):\n"
                  "        return _gaussian_over(0, 0, 1)\n    return _shared_blade_sum(triples)\n")
MEASURE_CHECK = ("def clifford_pairing(f, g, measure):\n    if not isinstance(measure, Measure):\n"
                 "        raise TypeError(f'measure must be a Measure, got {measure!r}')\n"
                 "    return CliffordNumber._raw(f.n, 1, {})\n")
COPY = "def neg(z):\n    return _raw(z.n, z._den, {m: v for m, v in z._blades.items()})\n"
# a gcd over an unpacked iterable, bare and qualified
STARRED_GCDS = ("def f(g, b):\n    return gcd(g, *chain.from_iterable(b.values()))\n"
                "def g(xs):\n    return math.gcd(*xs)\n")

ROWS = [
    # C_n's product and conjugation signs are stated in clifford only; the
    # scan sees the parity that the Dirac operator used to restate the sign
    # of e_j, and not a grade test
    Row("sign", _matching(SIGN), [
        "clifford.py:", "clifford.py:_conjugate_plan", "clifford.py:_conjugated",
        "clifford.py:_generator_product", "clifford.py:_packed_product", "clifford.py:_plan_pairing",
        "clifford.py:_plan_product", "clifford.py:_product_numerators", "clifford.py:_sign_mask",
        "clifford.py:_sign_plan", "clifford.py:blade_product"],
        catch="c = -b if (mask & low).bit_count() & 1 else b\ns = (q & m).bit_count() % 2\n",
        miss="k = m.bit_count() == 1\n"),
    Row("generator-product", _calls_of("_generator_product"), ["poly.py:_dirac_into"]),
    # the operator series (heat, C-K, the pairings' heat images) is written
    # once and runs once per monomial, in the cached `_image`
    Row("series", _matching(SERIES), ["transform.py:_series"]),
    Row("series-callers", _calls_of("_series"), ["transform.py:_image"]),
    # a general Clifford product is `*` of a value class only: the operators
    # and the full pairing multiply cached plans through their own kernels,
    # and a product packs only through the choice in `_product_numerators`
    Row("product-numerators", _calls_of("_product_numerators"), ["clifford.py:__mul__", "poly.py:__mul__"]),
    Row("plan-product", _calls_of("_plan_product"), ["transform.py:_apply"]),
    Row("plan-pairing", _calls_of("_plan_pairing"), ["gauss.py:_pairing"]),
    Row("packed-product", _calls_of("_packed_product"), ["clifford.py:_product_numerators"]),
    # no blade map holds a zero pair: a kernel deletes a blade whose sum
    # cancels where it makes the sum, and a pair that enters from outside
    # (`_over_lcm`, the draws of `verify`) is left out if zero, so no reducer
    # tests a pair.  The scan sees (0, 0) in a map's values, a test of two
    # parts and a filter of nonzero pairs, not a test of calls or other items
    Row("zero-pair", _zero_pair_tests, [
        "clifford.py:_add_scaled", "clifford.py:_generator_product", "clifford.py:_over_lcm",
        "clifford.py:_packed_product", "clifford.py:_plan_pairing", "clifford.py:_plan_product",
        "clifford.py:_product_numerators", "verify.py:_rand_blades"],
        catch="def f(b):\n    return (0, 0) in b.values()\n"
              "def g(b):\n    return (0, 0) not in b.values()\n"
              "def h(b):\n    return any(not re and not im for re, im in b.values())\n"
              "def k(b):\n    return {m: v for m, v in b.items() if v[0] or v[1]}\n"
              "def p(acc, m, re, im):\n    if re or im:\n        acc[m] = (re, im)\n",
        miss="def r(mu, f):\n    return not mu and not f.is_x0_free()\n"
             "def s(a, f):\n    return a[5] or f()[5]\n"),
    Row("has-zero-pair", _defs_of("_has_zero_pair"), []),
    # reduced parts become stored numerators in `clifford._over_lcm` only
    # (no reducer follows, `test_no_reducer_follows_over_lcm`); serialize
    # takes no lcm of its own but the scalar printer's
    Row("over-lcm", _defs_of("_over_lcm"), ["clifford.py:_over_lcm"],
        catch=OVER_LCM, miss=OVER_LCM_CALLERS + LCMS),
    Row("over-lcm-callers", _calls_of("_over_lcm"), [
        "clifford.py:__init__", "serialize.py:_from_json", "serialize.py:clifford_from_json"],
        catch=OVER_LCM_CALLERS, miss=OVER_LCM + LCMS),
    Row("serialize-lcm", _calls_of("lcm"), ["serialize.py:scalar_to_text"], scope="serialize.py",
        catch=LCMS, miss=OVER_LCM + OVER_LCM_CALLERS),
    # a (weighted) sum of conj(a_A) b_A or |a_A|^2 over blade maps is
    # written once; the scan sees the forms of loop bodies, and not the
    # product or a scalar's abs_sq
    Row("blade-sum", _matching(BLADE_SUM), ["clifford.py:_shared_blade_sum"],
        catch="def f():\n    return sum(re * re + im * im for re, im in b.values())\n"
              "def g():\n    t = ar * br + ai * bi\n",
        miss="def h():\n    re, im = ar * br - ai * bi, ar * bi + ai * br\n"
             "def k(self):\n    return self.re * self.re + self.im * self.im\n"),
    Row("shared-blade-sum", _calls_of("_shared_blade_sum"), [
        "clifford.py:inner", "gauss.py:_pairing", "transform.py:norm_sq"],
        catch=SCALAR_PAIRING, miss=ZERO_LIST + ZERO_TUPLE + KEY_TEST + MEASURE_CHECK + COPY),
    # a blade map is scaled into a new map by `clifford._scaled` only (a
    # Fock element's beta! is divided out where it is built); the scan sees
    # negations and weightings, bare or in a map of maps, and not the
    # conjugation or a pair of parts with a factor each
    Row("scaling", _scaling_comprehensions, ["clifford.py:_scaled"],
        catch="def f(b):\n    return {m: (-re, -im) for m, (re, im) in b.items()}\n"
              "def g(num):\n    return {k: {m: (-re, -im) for m, (re, im) in b.items()}\n"
              "                for k, b in num.items()}\n"
              "def h(b, w):\n    return {m: (re * w, im * w) for m, (re, im) in b.items()}\n",
        miss="def k(b):\n    return {m: (re, -im) for m, (re, im) in b.items()}\n"
             "def r(parts, d):\n"
             "    return {m: (p * (d // q), s * (d // t)) for m, (p, q, s, t) in parts}\n"),
    Row("scaled-callers", _calls_of("_scaled"), [
        "clifford.py:__neg__", "clifford.py:_conjugate_plan", "poly.py:__init__", "poly.py:__neg__",
        "poly.py:_over_factorials"]),
    # the monogenic precondition, the cap message and the grade check
    Row("monogenic-message", _texts_holding("is defined on monogenic polynomials"),
        ["transform.py:_check_monogenic"], catch=MONOGENIC, miss=CAP + GRADE),
    Row("check-monogenic", _calls_of("_check_monogenic"), ["fock.py:taylor_map", "transform.py:sb_inverse"]),
    Row("cap-message", _texts_holding("exceeds cap"), ["poly.py:_check_degree_cap"],
        catch=CAP, miss=MONOGENIC + GRADE),
    Row("check-degree-cap", _calls_of("_check_degree_cap"), [
        "poly.py:__init__", "poly.py:_raw", "serialize.py:_from_json", "transform.py:_basis",
        "transform.py:ck_extend", "transform.py:heat", "verify.py:_rand_x0_free"]),
    Row("grade-message", _texts_holding("grade must be nonnegative"), ["clifford.py:_check_grade"],
        catch=GRADE, miss=MONOGENIC + CAP),
    Row("check-grade", _calls_of("_check_grade"), ["clifford.py:grade", "fock.py:grade"]),
    # a numerator becomes text in `clifford._part_text` only, which serialize
    # memoises; the scan sees the inline forms, not a parser that splits at "/"
    Row("numerator-text", _numerator_printers, ["clifford.py:_part_text"],
        catch="def f(p, q):\n    g = gcd(p, q)\n    return f'{p // g}/{q // g}'\n"
              "def g(p, q):\n    d = math.gcd(p, q)\n    return str(p // d) + '/' + str(q // d)\n"
              "def h(p, q):\n    d = gcd(p, q)\n    return '/'.join(map(str, (p // d, q // d)))\n",
        miss="def k(t):\n    p, _, q = t.partition('/')\n    return gcd(int(p), int(q))\n"),
    Row("part-text", _calls_of("_part_text"), ["serialize.py:__missing__"], scope="serialize.py"),
    # every integer argument is tested by `clifford._is_int`; the scan sees
    # the inline forms, not an isinstance test of int alone or an annotation
    Row("int-test", _matching(INT_RULE), ["clifford.py:_is_int"],
        catch="def f(x):\n    return isinstance(x, bool) or not isinstance(x, int)\n"
              "def g(x):\n    return not isinstance(x, (bool, float))\n"
              "def h(x):\n    return type(x) is int and x >= 0\n",
        miss="def k(x, flag: bool):\n    return isinstance(x, (int, Fraction))\n"),
    # a derivative shifts a key in `poly._partial_into` only, and in the
    # Dirac operator's signed blade permutation; the scan sees both axis forms
    # and the x0 form, and not a product's key sum
    Row("key-shift", _matching(KEY_SHIFT), ["poly.py:_dirac_into", "poly.py:_partial_into"],
        catch="def f(k0, beta, b, i):\n    return (k0, beta[:i - 1] + (b - 1,) + beta[i:])\n"
              "def g(k0, beta, b, j):\n    return (k0, beta[:j] + (b - 2,) + beta[j + 1:])\n"
              "def h(k0, beta):\n    return (k0 - 1, beta)\n",
        miss="def k(k0, beta, k):\n    return (k0 + k, beta[:1] + beta[2:])\n"),
    Row("partial-into", _calls_of("_partial_into"), [
        "poly.py:_cauchy_riemann", "poly.py:_full_laplacian_into", "poly.py:_laplacian_into",
        "poly.py:partial"]),
    # key! = k0! beta! is computed in `poly._key_factorial` only, behind
    # beta!, the pairing weights, the Hermite (and Fock) norm and a Fock
    # element's boundary, where `_over_factorials` divides by it; the series
    # takes its own K!/k!.  The scan sees both spellings and a factorial
    # passed to map, and not the `MultiIndex.factorial` property
    Row("factorial", _factorials, ["poly.py:_key_factorial", "transform.py:_series"],
        catch="def f(beta):\n    return prod(map(factorial, beta))\n"
              "def g(k0, beta):\n"
              "    return math.factorial(k0) * math.prod(math.factorial(b) for b in beta)\n",
        miss="def h(beta):\n    return beta.factorial\ndef k(b):\n    return math.perm(b, 2)\n"),
    Row("key-factorial", _calls_of("_key_factorial"), [
        "gauss.py:_form", "poly.py:_over_factorials", "poly.py:factorial",
        "serialize.py:_index_map_to_json", "serialize.py:_text_rows", "transform.py:norm_sq"]),
    Row("over-factorials", _calls_of("_over_factorials"), [
        "poly.py:__init__", "serialize.py:_from_json", "verify.py:rand_fock_element"]),
    Row("norm-sq", _calls_of("norm_sq"), ["fock.py:fock_norm_sq"]),
    # "<name> takes a <class>, got <type>" is formatted in `clifford._checked`
    # only, and the pairings keep their one guard message; the scan sees the
    # forms used before, not another TypeError or a docstring
    Row("container-message", _container_messages, ["clifford.py:_checked"],
        catch="def f(name, f):\n    if not isinstance(f, CliffordPolynomial):\n"
              "        raise TypeError(f'{name} takes a CliffordPolynomial, got {type(f)}')\n"
              "def g(f):\n    raise TypeError('sb_transform takes a HermiteExpansion or a '\n"
              "                    f'CliffordPolynomial, got {type(f).__name__}')\n"
              "def h(alpha):\n    raise TypeError(f'expected a FockElement, got {alpha!r}')\n",
        miss="def k(measure):\n    \"\"\"It takes a measure.\"\"\"\n"
             "    raise TypeError(f'measure must be a Measure, got {measure!r}')\n"),
    Row("checked", _calls_of("_checked"), [
        "clifford.py:_items", "clifford.py:inner", "fock.py:fock_norm_sq", "fock.py:fock_to_function",
        "fock.py:fock_to_monogenic", "fock.py:taylor_map", "poly.py:constant",
        "transform.py:ck_extend", "transform.py:heat", "transform.py:restrict",
        "transform.py:sb_inverse", "transform.py:sb_transform"]),
    Row("not-polynomials", _matching(re.compile(r"\b_NOT_POLYNOMIALS\b")), [
        "gauss.py:", "gauss.py:_pairing", "gauss.py:gram"]),
    # gauss builds its pairing forms in one place: the right role (`_form`)
    # holds the heat image, its keys, the weights and the degree range, the
    # lazy left role (`_with_left`) the sign plans of the weighted conjugates
    Row("gauss-apply", _calls_of("_apply"), ["gauss.py:_form"], scope="gauss.py"),
    Row("gauss-frozenset", _calls_of("frozenset"), ["gauss.py:_form"], scope="gauss.py"),
    Row("gauss-min", _calls_of("min"), ["gauss.py:_form"], scope="gauss.py"),
    Row("gauss-max", _calls_of("max"), ["gauss.py:_form"], scope="gauss.py"),
    Row("gauss-conjugated", _calls_of("_conjugated"), [], scope="gauss.py"),
    Row("conjugate-plan", _calls_of("_conjugate_plan"), ["gauss.py:_with_left"]),
    # the one kernel `_pairing` reads the degree range, items 6 and 7 of a
    # form (not a slice or the left role), and tests the key sets
    Row("degree-range", _range_reads, ["gauss.py:_pairing"], scope="gauss.py",
        catch="def f(a, b):\n    return a[7] < b[6]\ndef g(a):\n    return a[6]\n",
        miss="def h(form, left):\n    return form[:5] + (left,) + form[6:], form[5]\n"),
    Row("key-sets", _calls_of("isdisjoint"), ["gauss.py:_pairing"], scope="gauss.py",
        catch=KEY_TEST + SCALAR_PAIRING, miss=ZERO_LIST + ZERO_TUPLE + MEASURE_CHECK + COPY),
    Row("pairing-callers", _calls_of("_pairing"), [
        "gauss.py:clifford_pairing", "gauss.py:gram", "gauss.py:inner_mu", "gauss.py:inner_rho"],
        scope="gauss.py"),
    # the measure is checked in `_check_measure` only.  On CPython 3.11 a
    # member read costs about five plain attribute reads (EnumType's
    # __getattr__), so gauss binds both members at import; the scan sees
    # reads and lookups, not an annotation, isinstance test or docstring
    Row("measure-message", _texts_holding("must be a Measure"), ["gauss.py:_check_measure"],
        catch=MEASURE_CHECK, miss=ZERO_LIST + ZERO_TUPLE + KEY_TEST + SCALAR_PAIRING + COPY),
    Row("check-measure", _calls_of("_check_measure"), [
        "gauss.py:clifford_pairing", "gauss.py:gram", "gauss.py:moment"]),
    Row("measure-members", _member_reads, ["gauss.py:"],
        catch="_RHO, _MU = Measure.RHO, Measure.MU_TILDE\n"
              "def f(measure):\n    return measure is Measure.MU_TILDE\n"
              "def g(f, measure=Measure.RHO):\n    return gauss.Measure.RHO\n"
              "def h(name):\n    return Measure[name], Measure('mu')\n",
        miss="def k(measure: Measure):\n    \"\"\"Under Measure.RHO.\"\"\"\n"
             "    return isinstance(measure, Measure) and measure is _RHO\n"),
    # the canonical zeros are built once, at clifford's module level
    Row("zero-builds", _zero_builds, ["clifford.py:"],
        catch=ZERO_LIST + ZERO_TUPLE + SCALAR_PAIRING + MEASURE_CHECK, miss=KEY_TEST + COPY),
    # the reduction gcd, taken pair by pair up to the first unit in
    # `clifford._numerator_gcd`: a starred gcd reads every numerator first,
    # and a second pair-by-pair loop (the probe's r) is a gcd call outside it
    Row("starred-gcd", _starred_gcds, [], catch=STARRED_GCDS,
        miss="def h(g, re, im):\n    return gcd(g, re, im)\ndef k(ds):\n    return lcm(*ds)\n"),
    Row("clifford-gcd", _calls_of("gcd"), ["clifford.py:_numerator_gcd", "clifford.py:_part_text"],
        scope="clifford.py",
        catch=STARRED_GCDS + "def h(g, re, im):\n    return gcd(g, re, im)\n"
              "def r(cls, n, den, blades):\n    g = den\n"
              "    for re, im in blades.values():\n        g = gcd(g, re, im)\n"
              "        if g == 1:\n            break\n",
        miss="def k(ds):\n    return lcm(*ds)\n"),
    Row("numerator-gcd", _calls_of("_numerator_gcd"), ["clifford.py:_reduce", "clifford.py:_reduced"],
        scope="clifford.py"),
    # the wire codec reads and writes stored numerators: outside the public
    # scalar parser and `clifford_from_json` it builds no scalar or number
    # and reads no per-term view
    Row("codec", _codec_objects, ["serialize.py:clifford_from_json", "serialize.py:parse_fraction"],
        scope="serialize.py",
        catch="x = Fraction(p, q)\ny = CliffordNumber._raw(n, den, blades)\nz = f.terms()\n",
        miss="w = _parse_int(text, 'numerator')\n"),
    # the seeded generators of verify build each value once through the
    # private builders: no public constructor and no `+` of values per drawn
    # term; the scan sees the forms they used to take
    Row("generator-draws", _generator_draws, [], scope="verify.py",
        catch="def rand_a(rng, n):\n    return CliffordNumber(n, {(): 1})\n"
              "def rand_e(rng):\n    return Fraction(1, 2)\n"
              "def rand_b(rng, n):\n    return CliffordPolynomial.zero(n)\n"
              "def rand_f(rng, n):\n    total = 0\n"
              "    for _ in range(3):\n        total = total + draw(rng)\n    return total\n"
              "def _rand_c(rng, data):\n    for beta in data:\n        data[beta] += rng.random()\n",
        miss="def rand_d(rng, beta):\n    for _ in range(3):\n        beta[0] += 1\n"
             "    return CliffordNumber._reduced(1, 1, {}) + 1\n"
             "def draw(n):\n    return CliffordNumber.one(n)\n"),
]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_one_home(row, library):
    sources = [library[row.scope]] if row.scope else library.values()
    assert _enclosing(sources, row.scan) == row.found, row.id
    probe = _parse("probe.py", row.catch)
    lines = row.scan(probe)
    missed = [ast.unparse(stmt) for stmt in probe.tree.body
              if not any(stmt.lineno <= line <= stmt.end_lineno for line in lines)]
    assert missed == [], f"{row.id} misses a probe"
    assert row.scan(_parse("probe.py", row.miss)) == [], f"{row.id} flags a probe it must pass over"


# -- rules outside the table, over the same parse ------------------------------------

def test_the_product_chooser_reads_only_its_operands(library):
    # a Clifford product takes the packed path only through the choice in
    # `_product_numerators`, and that choice reads the operands alone: the
    # function loads nothing but its locals, builtins, helpers and the rule's
    # two constants, each an int literal bound once at module level, and
    # clifford reads no environment variable, context variable or flag
    clifford = library["clifford.py"]
    chooser, = [node for node in clifford.tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_product_numerators"]
    body = [node for stmt in chooser.body for node in ast.walk(stmt)]

    def names(ctx):
        return {node.id for node in body if isinstance(node, ast.Name) and isinstance(node.ctx, ctx)}

    local = names(ast.Store) | {a.arg for a in chooser.args.args}
    assert names(ast.Load) - local == {"len", "max", "_sign_mask", "_packed_product",
                                       "_PACK_MIN_PAIRS", "_PACK_PAIRS_PER_BLADE"}
    rule = [(node, target.id) for node in clifford.nodes if isinstance(node, (ast.Assign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if getattr(target, "id", "").startswith("_PACK_")]
    assert sorted(name for _, name in rule) == ["_PACK_MIN_PAIRS", "_PACK_PAIRS_PER_BLADE"]
    assert all(node in clifford.tree.body and type(getattr(node.value, "value", None)) is int
               for node, _ in rule)
    words = {node.id for node in clifford.nodes if isinstance(node, ast.Name)}
    words |= {node.attr for node in clifford.nodes if isinstance(node, ast.Attribute)}
    words |= {part for node in clifford.nodes if isinstance(node, (ast.Import, ast.ImportFrom))
              for part in [node.module or "", *(alias.name for alias in node.names)]}
    assert not words & {"os", "environ", "getenv", "contextvars", "ContextVar", "_degree_cap",
                        "argv", "flags"}


def test_no_reducer_follows_over_lcm(library):
    # reduced parts over the lcm of their denominators are already coprime
    # to it: no caller of `_over_lcm` reduces, and the scan sees a caller
    # that does; the `__init__` that calls it is `CliffordNumber`'s
    both = [*library.values(), _parse("probe.py", OVER_LCM_CALLERS)]
    reducing = set(_enclosing(both, _calls_of("_reduce")) + _enclosing(both, _calls_of("_reduced")))
    assert sorted(reducing & set(_enclosing(both, _calls_of("_over_lcm")))) == [
        "probe.py:clifford_from_json", "probe.py:parse"]
    clifford = library["clifford.py"]
    number, = [node for node in clifford.tree.body
               if isinstance(node, ast.ClassDef) and node.name == "CliffordNumber"]
    init, = [node for node in number.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    calls = _calls_of("_over_lcm")(clifford)
    assert calls and all(init.lineno <= line <= init.end_lineno for line in calls)


def _module_tuple_lines(tree):
    """Lines of the module-level assignments of a tuple display."""
    return {line for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
            for line in range(node.lineno, node.end_lineno + 1)}


def test_zeros_are_built_in_module_level_tuples(library):
    # the canonical zeros sit in a module-level tuple of clifford, out of
    # reach of the guard against process-global lists, dicts and sets; the
    # check sees a module-level list of zeros and zeros built in a pairing
    clifford = library["clifford.py"]
    assert set(_zero_builds(clifford)) <= _module_tuple_lines(clifford.tree)
    probe = _parse("probe.py", ZERO_LIST + ZERO_TUPLE + KEY_TEST + SCALAR_PAIRING + MEASURE_CHECK + COPY)
    assert set(_zero_builds(probe)) - _module_tuple_lines(probe.tree) == {1, 7, 12}


def test_module_level_values_are_tuples(library):
    # the generators that the generator-draws row scans exist; their tables,
    # like every module-level value of clifford and verify, are tuples: no
    # process-global container that a call could change
    assert {fn.name for fn in library["verify.py"].tree.body if isinstance(fn, ast.FunctionDef)} >= {
        "rand_fraction", "rand_gaussian_rational", "rand_clifford", "rand_multi_index",
        "rand_poly", "rand_hermite_expansion", "rand_fock_element"}
    clifford, verify = (importlib.import_module(f"monogenic.{name}") for name in ("clifford", "verify"))
    for module in (clifford, verify):
        assert [key for key, value in vars(module).items() if not key.startswith("__")
                and isinstance(value, (list, dict, set, bytearray))] == [], module.__name__
    assert type(clifford._BYTE_INDICES) is tuple and len(clifford._BYTE_INDICES) == 256
    assert type(verify._FRACTIONS) is tuple and type(verify._NUMERATORS) is tuple


def test_every_private_function_is_used(library):
    # every module-level private function is used somewhere in the library,
    # so a replaced helper cannot linger next to its replacement
    defined = {f"{source.name}:{node.name}" for source in library.values() for node in source.tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    used = {getattr(node, "id", None) or getattr(node, "attr", None) or node.name
            for source in library.values() for node in source.nodes
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert defined
    assert sorted(d for d in defined if d.split(":")[1] not in used) == []


def _unbounded_caches(source):
    """Every use of functools' lru_cache or cache in source that is not a
    call with a positive int maxsize, as "name:line"."""
    local = {}  # local name -> functools name
    for node in source.nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            local.update((a.asname or a.name, a.name) for a in node.names
                         if a.name in ("lru_cache", "cache"))
    called = {id(node.func): node for node in source.nodes if isinstance(node, ast.Call)}
    found = []
    for node in source.nodes:
        if isinstance(node, ast.Name) and node.id in local:
            kind = local[node.id]
        elif (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            kind = node.attr
        else:
            continue
        call = called.get(id(node))
        sizes = [*call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")] if call else []
        if not (kind == "lru_cache" and len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                and type(sizes[0].value) is int and sizes[0].value > 0):
            found.append(node.lineno)
    return [f"{source.name}:{line}" for line in sorted(found)]


def test_every_lru_cache_has_a_finite_int_maxsize(library):
    # an unbounded cache grows for the life of the process
    assert [found for source in library.values() for found in _unbounded_caches(source)] == []
    assert sum(source.text.count("@lru_cache(maxsize=") for source in library.values()) >= 2
    # the scan sees the forms that leave a cache unbounded or its size unstated
    probe = ("import functools\nfrom functools import lru_cache, cache as memo\n"
             "@lru_cache\ndef a(): pass\n@lru_cache(maxsize=None)\ndef b(): pass\n"
             "@functools.cache\ndef c(): pass\n@memo\ndef d(): pass\n"
             "@lru_cache(maxsize=SIZE)\ndef e(): pass\n"
             "@lru_cache(64)\ndef f(): pass\n@functools.lru_cache(maxsize=8)\ndef g(): pass\n")
    assert _unbounded_caches(_parse("probe", probe)) == [f"probe:{line}" for line in (3, 5, 7, 9, 11)]


def test_readme_cli_block_names_every_subcommand():
    # the README's CLI code block shows one `monogenic <command>` line per
    # subcommand of the parser, no more and no fewer
    import argparse
    from monogenic.cli import build_parser
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = [line.split()[1] for line in block.splitlines() if line.startswith("monogenic ")]
    sub, = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(shown) == sorted(sub.choices)


def _uncalled_witnesses(source):
    """The witnesses of `verify._IDENTITIES` that source neither calls nor
    passes to a call (as to the criteria's `_failures`), by name."""
    from monogenic.verify import _IDENTITIES
    called = {getattr(node, "id", getattr(node, "attr", None))
              for call in ast.walk(ast.parse(source)) if isinstance(call, ast.Call)
              for node in (call.func, *call.args)}
    return sorted({witness.__name__ for _, _, witnesses in _IDENTITIES
                   for witness, _ in witnesses} - called)


def test_every_verify_witness_is_applied_by_the_acceptance_criteria():
    # each identity is stated once, as a witness of verify: the acceptance
    # criteria call it on their samples instead of restating it
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert _uncalled_witnesses(acceptance) == []
    # a witness that is imported but no longer applied is caught
    assert _uncalled_witnesses(acceptance.replace("_failures(_triad,", "_failures(str,")) == ["_triad"]


@pytest.mark.parametrize("n", range(1, 5))
def test_algebra_witness_multiplies_each_blade_pair_once(monkeypatch, n):
    # the relations of C_n are read off the 4^n blade products, not
    # checked by multiplying each of the 8^n blade triples
    from monogenic.verify import CliffordNumber, _algebra_relations
    product, calls = CliffordNumber.__mul__, []

    def counting(a, b):
        calls.append(b)
        return product(a, b)

    monkeypatch.setattr(CliffordNumber, "__mul__", counting)
    assert _algebra_relations(n, 0) is None
    assert len(calls) == 4 ** n
