"""Guards for the tooling next to the library: the benchmark's tracer,
the library's stdlib-only imports, the numerator-only wire codec, the
seeded generators that build numerators directly, one home
for each numerator rule (the scaling of a blade map, the monogenic
precondition, the cap message and the grade check included), for the
integer-argument test, for the
derivative's key shift, for key! and the container check, for the
pairing forms, their degree range and the one pairing kernel
of gauss, its measure check and the canonical zeros, measure members
read at import only, a reducer gcd that stops at the first unit, bounded
caches, the README's list of CLI commands, the claim rule of the A/B
script, a call of every verify
witness in the acceptance criteria, and one product per blade pair in
the algebra witness."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
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


def test_no_private_twin_of_a_traced_function():
    # a private _<name> next to a traced <name> is a second entry that the
    # tracer does not see
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    twins = []
    for layer, path, _ in _tracer_targets():
        body = ast.parse((package / f"{layer}.py").read_text()).body
        *cls_path, attr = path.split(".")
        for name in cls_path:
            body, = [node.body for node in body if isinstance(node, ast.ClassDef) and node.name == name]
        if f"_{attr}" in {node.name for node in body if isinstance(node, ast.FunctionDef)}:
            twins.append(f"{layer}: _{attr} next to {path}")
    assert twins == []


AB = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
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
    spec = importlib.util.spec_from_file_location("tools_ab", AB)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    assert ab.claim_holds(AB_PARENT, change, wins, direction) is holds


def test_library_imports_only_the_standard_library():
    # the library is stdlib-only at runtime; relative imports stay inside it
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def _calls_outside(node, allowed, where="<module>"):
    """(enclosing function, call) for every call below node, skipping the
    bodies of the functions named in allowed."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            if child.name not in allowed:
                yield from _calls_outside(child, allowed, child.name)
            continue
        if isinstance(child, ast.Call):
            yield where, child
        yield from _calls_outside(child, allowed, where)


def test_codec_builds_no_per_term_objects():
    # the wire codec reads and writes stored numerators: outside the public
    # scalar helpers and `clifford_from_json`, serialize constructs no
    # Fraction, GaussianRational or CliffordNumber and reads no per-term view
    path = Path(__file__).resolve().parent.parent / "src" / "monogenic" / "serialize.py"
    tree = ast.parse(path.read_text(), str(path))
    classes = {"Fraction", "GaussianRational", "CliffordNumber"}
    views = {"terms", "entries", "coefficients", "_items", "coefficient", "entry", "scalar_part"}

    def offenders(allowed):
        found = []
        for where, call in _calls_outside(tree, allowed):
            func = call.func
            if isinstance(func, ast.Name) and func.id in classes:
                found.append(f"{where}: {func.id}(...)")
            elif isinstance(func, ast.Attribute) and (
                    func.attr in views or isinstance(func.value, ast.Name) and func.value.id in classes):
                found.append(f"{where}: .{func.attr}(...)")
        return found

    assert offenders({"parse_fraction", "scalar_to_text", "clifford_from_json"}) == []
    # the scan sees the calls those functions make
    assert offenders(set()) == ["parse_fraction: Fraction(...)",
                                "clifford_from_json: ._raw(...)"]


# the value classes whose public constructors the generators of verify skip
VALUES = {"Fraction", "GaussianRational", "CliffordNumber", "CliffordPolynomial",
          "HermiteExpansion", "FockElement"}


def _generator_offenders(tree):
    """"function: call" for each public constructor of a value called in a
    rand_* or _rand_* function of tree, and "function: +" for each `+` in
    one of their loops that is not a step by an int literal."""
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.lstrip("_").startswith("rand_")):
            continue
        for node in ast.walk(fn):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name) and func.id in VALUES:
                found.append(f"{fn.name}: {func.id}(...)")
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in VALUES and not func.attr.startswith("_")):
                found.append(f"{fn.name}: {func.value.id}.{func.attr}(...)")
        for loop in (node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While))):
            for node in (n for stmt in loop.body for n in ast.walk(stmt)):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Add):
                    operands = [node.left, node.right] if isinstance(node, ast.BinOp) else [node.value]
                    if not any(isinstance(o, ast.Constant) and type(o.value) is int for o in operands):
                        found.append(f"{fn.name}: +")
    return found


def test_generators_draw_straight_to_stored_numerators():
    # the seeded generators of verify collect numerators and build each value
    # once through the private builders: no public constructor of a value and
    # no `+` of values per drawn term.  Their tables, like every module-level
    # value of clifford and verify, are tuples: no process-global container
    # that a call could change
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    tree = ast.parse((package / "verify.py").read_text())
    assert _generator_offenders(tree) == []
    assert {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)} >= {
        "rand_fraction", "rand_gaussian_rational", "rand_clifford", "rand_multi_index",
        "rand_poly", "rand_hermite_expansion", "rand_fock_element"}
    # the scan sees the forms the generators used to take
    probe = ("def rand_a(rng, n):\n    return CliffordNumber(n, {(): Fraction(1, 2)})\n"
             "def rand_b(rng, n):\n    total = CliffordPolynomial.zero(n)\n"
             "    for _ in range(3):\n        total = total + draw(rng)\n    return total\n"
             "def _rand_c(rng, data):\n    for beta in data:\n        data[beta] += rng.random()\n"
             "def rand_d(rng, beta):\n    for _ in range(3):\n        beta[0] += 1\n"
             "    return CliffordNumber._reduced(1, 1, {}) + 1\n")
    assert _generator_offenders(ast.parse(probe)) == [
        "rand_a: CliffordNumber(...)", "rand_a: Fraction(...)",
        "rand_b: CliffordPolynomial.zero(...)", "rand_b: +", "_rand_c: +"]
    clifford, verify = (importlib.import_module(f"monogenic.{name}") for name in ("clifford", "verify"))
    for module in (clifford, verify):
        assert [key for key, value in vars(module).items() if not key.startswith("__")
                and isinstance(value, (list, dict, set, bytearray))] == [], module.__name__
    assert type(clifford._BYTE_INDICES) is tuple and len(clifford._BYTE_INDICES) == 256
    assert type(verify._FRACTIONS) is tuple and type(verify._NUMERATORS) is tuple


# the squared form x * x + y * y and the real part of the conjugate
# product, xr * yr + xi * yi, in the names the numerator kernels use
BLADE_SUM = re.compile(r"\b(\w+) \* \1 \+ (\w+) \* \2\b|\b(\w*)r \* (\w*)r \+ \3i \* \4i\b")


def _enclosing(sources, lines):
    """"module:function" of the innermost function around each line of
    lines(name, text, tree), or "module:" at module level, sorted."""
    found = set()
    for name, text in sources.items():
        tree = ast.parse(text, name)
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for line in lines(name, text, tree):
            around = [f for f in functions if f.lineno <= line <= f.end_lineno]
            found.add(f"{name}:{max(around, key=lambda f: f.lineno).name if around else ''}")
    return sorted(found)


def _calls_of(callee):
    return lambda name, text, tree: [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
        and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _defs_of(name):
    return lambda _, text, tree: [node.lineno for node in ast.walk(tree)
                                  if isinstance(node, ast.FunctionDef) and node.name == name]


def _slash_texts(name, text, tree):
    """Lines that write "/" into a text: an f-string, a `+` or `%`, or a
    join on a string constant holding "/"."""
    def slash(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and "/" in node.value

    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.JoinedStr) and any(map(slash, node.values))
                or isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod))
                and (slash(node.left) or slash(node.right))
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join" and slash(node.func.value)):
            lines.append(node.lineno)
    return lines


def _numerator_printers(sources):
    """"module:function" of every function that both calls gcd and writes
    a "/" into a text."""
    return sorted(set(_enclosing(sources, _calls_of("gcd"))) & set(_enclosing(sources, _slash_texts)))


def _matching(pattern):
    return lambda name, text, tree: [text.count("\n", 0, m.start()) + 1
                                     for m in pattern.finditer(text)]


_blade_sums = _matching(BLADE_SUM)


def _zero_pair_tests(name, text, tree):
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

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and zero_pair(node.left)
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            or isinstance(node, ast.BoolOp) and len(node.values) == 2
            and all(map(negated_part if isinstance(node.op, ast.And) else part, node.values))]


def _scaling_comprehensions(name, text, tree):
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
    for node in ast.walk(tree):
        if isinstance(node, (ast.DictComp, ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            pair = node.value if isinstance(node, ast.DictComp) else node.elt
            if (isinstance(pair, ast.Tuple) and len(pair.elts) == 2
                    and factors(pair.elts[0]) & factors(pair.elts[1])):
                lines.append(node.lineno)
    return lines


def test_each_numerator_rule_has_one_home():
    # the product sign and the conjugation sign are stated in clifford only:
    # the sign mask, the conjugation's grade test and a popcount parity,
    # which the scan sees in the form the Dirac operator used to restate
    # the sign of e_j (and not in a grade test)
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    rule = re.compile(r"_sign_mask\b|bit_count\(\) \+ 1\) & 2|bit_count\(\) (& 1|% 2)\b")
    probe = {"dirac.py": "c = -b if (mask & low).bit_count() & 1 else b\n",
             "mod.py": "s = (q & m).bit_count() % 2\n", "grade.py": "k = m.bit_count() == 1\n"}
    assert [name for name, text in probe.items() if rule.search(text)] == ["dirac.py", "mod.py"]
    assert [name for name, text in sources.items() if rule.search(text)] == ["clifford.py"]
    # a generator times a numerator map is one clifford helper, which only
    # the Dirac operator calls
    assert _enclosing(sources, _calls_of("_generator_product")) == ["poly.py:_dirac_into"]
    # the operator series (heat, C-K, and the heat images of the pairings)
    # is written once, in transform
    series = re.compile(r"factorial\(top\) // factorial\(k\)")
    assert [name for name, text in sources.items() if series.search(text)] == ["transform.py"]
    # and runs once per monomial: inside the library only the cached
    # `transform._image` calls `_series` (the test oracles run it on whole values)
    assert _enclosing(sources, _calls_of("_series")) == ["transform.py:_image"]
    # the operators multiply by their cached images through one kernel: no
    # general product is left in transform, and only `_apply` calls the kernel
    assert _enclosing({"transform.py": sources["transform.py"]},
                      _calls_of("_product_numerators")) == []
    assert _enclosing(sources, _calls_of("_plan_product")) == ["transform.py:_apply"]
    # the full pairing multiplies the cached left plans through one kernel,
    # which only `gauss._pairing` calls
    assert _enclosing(sources, _calls_of("_plan_pairing")) == ["gauss.py:_pairing"]
    # a Clifford product takes the packed path only through the choice in
    # `_product_numerators`, and that choice reads the operands alone: the
    # function loads nothing but its locals, builtins, helpers and the
    # rule's two constants, each an int literal bound once at module level,
    # and clifford reads no environment variable, context variable or flag
    assert _enclosing(sources, _calls_of("_packed_product")) == ["clifford.py:_product_numerators"]
    tree = ast.parse(sources["clifford.py"])
    chooser, = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_product_numerators"]
    body = [node for stmt in chooser.body for node in ast.walk(stmt)]

    def names(ctx):
        return {node.id for node in body if isinstance(node, ast.Name) and isinstance(node.ctx, ctx)}

    local = names(ast.Store) | {a.arg for a in chooser.args.args}
    assert names(ast.Load) - local == {"len", "max", "_sign_mask", "_packed_product",
                                       "_PACK_MIN_PAIRS", "_PACK_PAIRS_PER_BLADE"}
    rule = [(node, target.id) for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if getattr(target, "id", "").startswith("_PACK_")]
    assert sorted(name for _, name in rule) == ["_PACK_MIN_PAIRS", "_PACK_PAIRS_PER_BLADE"]
    assert all(node in tree.body and type(getattr(node.value, "value", None)) is int
               for node, _ in rule)
    words = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    words |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    words |= {part for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              for part in [node.module or "", *(alias.name for alias in node.names)]}
    assert not words & {"os", "environ", "getenv", "contextvars", "ContextVar", "_degree_cap",
                        "argv", "flags"}
    # no blade map holds a zero pair: a pair is tested for zero only where
    # a kernel makes a sum, in the accumulate branch of each kernel and the
    # decode of the packed product, which delete a blade whose sum cancels,
    # and where a pair enters from outside (`_over_lcm`, the draws of
    # `verify`), which leave a zero one out.  No reducer tests a pair for
    # zero.  The scan sees a membership test of (0, 0), a test of two
    # parts for zero or nonzero and a filter that keeps nonzero pairs,
    # and not a test of two calls or of other items
    probe = {"probe.py": "def f(b):\n    return (0, 0) in b.values()\n"
                         "def g(b):\n    return (0, 0) not in b.values()\n"
                         "def h(b):\n    return any(not re and not im for re, im in b.values())\n"
                         "def k(b):\n    return {m: v for m, v in b.items() if v[0] or v[1]}\n"
                         "def p(acc, m, re, im):\n    if re or im:\n        acc[m] = (re, im)\n"
                         "def r(mu, f):\n    return not mu and not f.is_x0_free()\n"
                         "def s(a, f):\n    return a[5] or f()[5]\n"}
    assert _enclosing(probe, _zero_pair_tests) == ["probe.py:f", "probe.py:g", "probe.py:h",
                                                   "probe.py:k", "probe.py:p"]
    assert _enclosing(sources, _zero_pair_tests) == [
        "clifford.py:_add_scaled", "clifford.py:_generator_product", "clifford.py:_over_lcm",
        "clifford.py:_packed_product", "clifford.py:_plan_pairing", "clifford.py:_plan_product",
        "clifford.py:_product_numerators", "verify.py:_rand_blades"]
    assert _enclosing(sources, _defs_of("_has_zero_pair")) == []
    # reduced parts become stored numerators in `clifford._over_lcm` only,
    # which the constructor and the two parsers call and no reducer follows;
    # serialize takes no lcm of its own but the scalar printer's.  The scans
    # see a second definition, a second caller, a reducer after it and an
    # lcm, bare or qualified, in another function
    probe = {"probe.py": "def _over_lcm(values):\n    return 1, {}\n"
                         "def clifford_from_json(data, n):\n    den, num = _over_lcm({0: read(data)})\n"
                         "    return CliffordNumber._reduced(n, den, num[0])\n"
                         "def parse(terms):\n    return _adopt(2, *_reduce(*_over_lcm(terms)))\n"
                         "def over(qs):\n    return math.lcm(*qs), lcm(2, 3)\n"}
    both = {**sources, **probe}
    assert _enclosing(sources, _defs_of("_over_lcm")) == ["clifford.py:_over_lcm"]
    assert _enclosing(both, _defs_of("_over_lcm")) == ["clifford.py:_over_lcm", "probe.py:_over_lcm"]
    callers = ["clifford.py:__init__", "serialize.py:_from_json", "serialize.py:clifford_from_json"]
    probed = ["probe.py:clifford_from_json", "probe.py:parse"]
    assert _enclosing(sources, _calls_of("_over_lcm")) == callers
    assert _enclosing(both, _calls_of("_over_lcm")) == sorted(callers + probed)
    reducing = set(_enclosing(both, _calls_of("_reduce")) + _enclosing(both, _calls_of("_reduced")))
    assert sorted(reducing & {*callers, *probed}) == probed
    serialize = {"serialize.py": sources["serialize.py"]}
    assert _enclosing(serialize, _calls_of("lcm")) == ["serialize.py:scalar_to_text"]
    assert _enclosing({**serialize, **probe}, _calls_of("lcm")) == ["probe.py:over",
                                                                    "serialize.py:scalar_to_text"]
    # and the `__init__` that calls it is the constructor's
    number, = [node for node in ast.parse(sources["clifford.py"]).body
               if isinstance(node, ast.ClassDef) and node.name == "CliffordNumber"]
    assert _enclosing({"clifford.py": ast.unparse(number)}, _calls_of("_over_lcm")) == ["clifford.py:__init__"]
    # a (weighted) sum of conj(a_A) b_A or |a_A|^2 over blade maps is
    # written once, in `clifford._shared_blade_sum`; the scan sees the
    # forms that loop bodies use, and not the product or a scalar's abs_sq
    probe = {"probe.py": "def f():\n    return sum(re * re + im * im for re, im in b.values())\n"
                         "def g():\n    t = ar * br + ai * bi\n"
                         "def h():\n    re, im = ar * br - ai * bi, ar * bi + ai * br\n"
                         "def k(self):\n    return self.re * self.re + self.im * self.im\n"}
    assert _enclosing(probe, _blade_sums) == ["probe.py:f", "probe.py:g"]
    assert _enclosing(sources, _blade_sums) == ["clifford.py:_shared_blade_sum"]
    # a blade map is scaled into a new map by `clifford._scaled` only (and
    # accumulated by `_add_scaled`, a loop); a Fock element's weights beta!
    # are divided out where it is built (`poly._over_factorials`), and its
    # maps scale nothing; the scan sees the negations and
    # the weightings it replaced, bare or nested in a map of maps, and not
    # the conjugation or a pair of parts with a factor each
    probe = {"probe.py": "def f(b):\n    return {m: (-re, -im) for m, (re, im) in b.items()}\n"
                         "def g(num):\n    return {k: {m: (-re, -im) for m, (re, im) in b.items()}\n"
                         "                for k, b in num.items()}\n"
                         "def h(b, w):\n    return {m: (re * w, im * w) for m, (re, im) in b.items()}\n"
                         "def k(b):\n    return {m: (re, -im) for m, (re, im) in b.items()}\n"
                         "def r(parts, d):\n"
                         "    return {m: (p * (d // q), s * (d // t)) for m, (p, q, s, t) in parts}\n"}
    assert _enclosing(probe, _scaling_comprehensions) == ["probe.py:f", "probe.py:g", "probe.py:h"]
    assert _enclosing(sources, _scaling_comprehensions) == ["clifford.py:_scaled"]
    assert _enclosing(sources, _calls_of("_scaled")) == [
        "clifford.py:__neg__", "clifford.py:_conjugate_plan", "poly.py:__init__", "poly.py:__neg__",
        "poly.py:_over_factorials"]
    # the monogenic precondition, the degree-cap message and the grade
    # check are each written once; the scans see the messages they replaced
    probe = {"probe.py": "def taylor_map(F):\n    if not F.is_monogenic():\n"
                         "        raise NotMonogenicError('the Taylor map is defined on monogenic polynomials')\n"
                         "def init(k0, beta, cap):\n"
                         "    raise DegreeCapError(f'total degree {k0 + beta.degree} exceeds cap {cap}')\n"
                         "def grade(k):\n    raise ValueError('grade must be nonnegative')\n"}
    for phrase, caught, home, callers in (
            ("is defined on monogenic polynomials", "probe.py:taylor_map",
             "transform.py:_check_monogenic", ["fock.py:taylor_map", "transform.py:sb_inverse"]),
            ("exceeds cap", "probe.py:init", "poly.py:_check_degree_cap",
             ["poly.py:__init__", "poly.py:_raw", "serialize.py:_from_json", "transform.py:_basis",
              "transform.py:ck_extend", "transform.py:heat", "verify.py:_rand_x0_free"]),
            ("grade must be nonnegative", "probe.py:grade", "clifford.py:_check_grade",
             ["clifford.py:grade", "fock.py:grade"])):
        assert _enclosing(probe, _texts_holding(phrase)) == [caught], phrase
        assert _enclosing(sources, _texts_holding(phrase)) == [home], phrase
        assert _enclosing(sources, _calls_of(home.split(":")[1])) == callers, phrase
    # a numerator becomes text in `clifford._part_text` only: no other
    # function both takes a gcd and writes a "/" into a text, and serialize
    # only memoises `_part_text`; the scan sees the inline forms, and not
    # a parser that splits at "/"
    probe = {"probe.py": "def f(p, q):\n    g = gcd(p, q)\n    return f'{p // g}/{q // g}'\n"
                         "def g(p, q):\n    d = math.gcd(p, q)\n    return str(p // d) + '/' + str(q // d)\n"
                         "def h(p, q):\n    d = gcd(p, q)\n    return '/'.join(map(str, (p // d, q // d)))\n"
                         "def k(t):\n    p, _, q = t.partition('/')\n    return gcd(int(p), int(q))\n"}
    assert _numerator_printers(probe) == ["probe.py:f", "probe.py:g", "probe.py:h"]
    assert _numerator_printers(sources) == ["clifford.py:_part_text"]
    assert _enclosing({"serialize.py": sources["serialize.py"]},
                      _calls_of("_part_text")) == ["serialize.py:__missing__"]
    # every module-level private function is used somewhere in the library,
    # so a replaced helper cannot linger next to its replacement
    defined, used = set(), set()
    for name, text in sources.items():
        tree = ast.parse(text, name)
        defined.update(f"{name}:{node.name}" for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined
    assert sorted(d for d in defined if d.split(":")[1] not in used) == []


# "an int, not a bool": a bool in an isinstance test, alone or in a tuple,
# or an exact type test against int or bool
INT_RULE = re.compile(r"isinstance\([^()]+,\s*(\([^()]*)?\bbool\b|\btype\([^()]+\) is (not )?(bool|int)\b")
# a derivative's key shift: exponent b on one axis of beta becomes b - k, or
# the x0 exponent k0 becomes k0 - k
KEY_SHIFT = re.compile(r"\w+\[:[^\]]*\] \+ \(\w+ - \w+,\) \+ \w+\[[^\]]*:\]|\(k0 - \w+, \w+\)")


def test_integer_and_derivative_rules_have_one_home():
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    # every integer argument is tested by `clifford._is_int`; the scan sees
    # the inline forms, and not an isinstance test against int alone or a
    # bool annotation
    probe = {"probe.py": "def f(x):\n    return isinstance(x, bool) or not isinstance(x, int)\n"
                         "def g(x):\n    return not isinstance(x, (bool, float))\n"
                         "def h(x):\n    return type(x) is int and x >= 0\n"
                         "def k(x, flag: bool):\n    return isinstance(x, (int, Fraction))\n"}
    assert _enclosing(probe, _matching(INT_RULE)) == ["probe.py:f", "probe.py:g", "probe.py:h"]
    assert _enclosing(sources, _matching(INT_RULE)) == ["clifford.py:_is_int"]
    # a partial derivative moves a key in `poly._partial_into` only, which
    # `partial`, both Laplacians and d0 of Cauchy-Riemann call; the Dirac
    # operator's signed blade permutation shifts its own keys.  The scan
    # sees both axis forms and the x0 form, and not a product's key sum
    probe = {"probe.py": "def f(k0, beta, b, i):\n    return (k0, beta[:i - 1] + (b - 1,) + beta[i:])\n"
                         "def g(k0, beta, b, j):\n    return (k0, beta[:j] + (b - 2,) + beta[j + 1:])\n"
                         "def h(k0, beta):\n    return (k0 - 1, beta)\n"
                         "def k(k0, beta, k):\n    return (k0 + k, beta[:1] + beta[2:])\n"}
    assert _enclosing(probe, _matching(KEY_SHIFT)) == ["probe.py:f", "probe.py:g", "probe.py:h"]
    assert _enclosing(sources, _matching(KEY_SHIFT)) == ["poly.py:_dirac_into", "poly.py:_partial_into"]
    assert _enclosing(sources, _calls_of("_partial_into")) == [
        "poly.py:_cauchy_riemann", "poly.py:_full_laplacian_into", "poly.py:_laplacian_into",
        "poly.py:partial"]


def _factorials(name, text, tree):
    """Lines that call or pass math's factorial, bare or as `math.factorial`
    (not the `MultiIndex.factorial` property)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "factorial"
            or isinstance(node, ast.Attribute) and node.attr == "factorial"
            and isinstance(node.value, ast.Name) and node.value.id == "math"]


# the classes whose container check `clifford._checked` is the home of
CONTAINER_CLASSES = ("CliffordPolynomial", "HermiteExpansion", "FockElement")


def _container_messages(name, text, tree):
    """Lines of a TypeError(...) whose text, plain or formatted, says
    "takes a" or names a container class."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TypeError"
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and ("takes a" in c.value or any(cls in c.value for cls in CONTAINER_CLASSES))
                    for c in ast.walk(node))]


def test_key_factorial_and_the_container_check_have_one_home():
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    # key! = k0! beta! of a term key is computed in `poly._key_factorial`
    # only, behind beta!, the Gaussian pairing weights, the Hermite norm
    # (which is the Fock norm too) and the boundary of a Fock element: the
    # one division of its entries by beta! (`poly._over_factorials`, which
    # the constructor, the parser and the draw of `verify` call) and the
    # printers' weights; the operator series takes its own K!/k!.
    # The scan sees both spellings and a factorial passed to map, and not
    # the `MultiIndex.factorial` property
    probe = {"probe.py": "def f(beta):\n    return prod(map(factorial, beta))\n"
                         "def g(k0, beta):\n"
                         "    return math.factorial(k0) * math.prod(math.factorial(b) for b in beta)\n"
                         "def h(beta):\n    return beta.factorial\n"
                         "def k(b):\n    return math.perm(b, 2)\n"}
    assert _enclosing(probe, _factorials) == ["probe.py:f", "probe.py:g"]
    assert _enclosing(sources, _factorials) == ["poly.py:_key_factorial", "transform.py:_series"]
    assert _enclosing(sources, _calls_of("_key_factorial")) == [
        "gauss.py:_form", "poly.py:_over_factorials", "poly.py:factorial",
        "serialize.py:_index_map_to_json", "serialize.py:_text_rows", "transform.py:norm_sq"]
    assert _enclosing(sources, _calls_of("_over_factorials")) == [
        "poly.py:__init__", "serialize.py:_from_json", "verify.py:rand_fock_element"]
    # the Fock norm is the Hermite norm of the stored polynomial: one
    # weighted blade sum, in `HermiteExpansion.norm_sq`
    assert _enclosing(sources, _calls_of("norm_sq")) == ["fock.py:fock_norm_sq"]
    assert _enclosing(sources, _calls_of("_shared_blade_sum")) == [
        "clifford.py:inner", "gauss.py:_pairing", "transform.py:norm_sq"]
    # the container message "<name> takes a <class>, got <type>" is formatted
    # in `clifford._checked` only, which every operator and Fock map,
    # `CliffordNumber.inner` and `CliffordPolynomial.constant` call under
    # their own names, and `_items` under the name of each constructor that
    # takes a mapping; the pairings keep their one guard message.  The scan
    # sees the forms the library used before, and not another TypeError or
    # a docstring that says "takes a"
    probe = {"probe.py": "def f(name, f):\n    if not isinstance(f, CliffordPolynomial):\n"
                         "        raise TypeError(f'{name} takes a CliffordPolynomial, got {type(f)}')\n"
                         "def g(f):\n    raise TypeError('sb_transform takes a HermiteExpansion or a '\n"
                         "                    f'CliffordPolynomial, got {type(f).__name__}')\n"
                         "def h(alpha):\n    raise TypeError(f'expected a FockElement, got {alpha!r}')\n"
                         "def k(measure):\n    \"\"\"It takes a measure.\"\"\"\n"
                         "    raise TypeError(f'measure must be a Measure, got {measure!r}')\n"}
    assert _enclosing(probe, _container_messages) == ["probe.py:f", "probe.py:g", "probe.py:h"]
    assert _enclosing(sources, _container_messages) == ["clifford.py:_checked"]
    assert _enclosing(sources, _calls_of("_checked")) == [
        "clifford.py:_items", "clifford.py:inner", "fock.py:fock_norm_sq", "fock.py:fock_to_function",
        "fock.py:fock_to_monogenic", "fock.py:taylor_map", "poly.py:constant",
        "transform.py:ck_extend", "transform.py:heat", "transform.py:restrict",
        "transform.py:sb_inverse", "transform.py:sb_transform"]
    assert _enclosing(sources, _matching(re.compile(r"\b_NOT_POLYNOMIALS\b"))) == [
        "gauss.py:", "gauss.py:_pairing", "gauss.py:gram"]


def _texts_holding(phrase):
    """Lines of a string constant, alone or in an f-string, holding phrase."""
    return lambda name, text, tree: [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value]


def _zero_builds(name, text, tree):
    """Lines that build a zero value: a `_raw` number over an empty blade
    map, or a Gaussian rational from two zero parts."""
    def zero(node):
        return (isinstance(node, ast.Constant) and type(node.value) is int and node.value == 0
                or isinstance(node, ast.Name) and node.id == "_ZERO")

    lines = []
    for node in ast.walk(tree):
        callee = isinstance(node, ast.Call) and (getattr(node.func, "id", None)
                                                 or getattr(node.func, "attr", None))
        if (callee == "_raw" and any(isinstance(a, ast.Dict) and not a.keys for a in node.args)
                or callee in ("_gaussian", "_gaussian_over") and len(node.args) >= 2
                and all(map(zero, node.args[:2]))):
            lines.append(node.lineno)
    return lines


def _module_tuple_lines(tree):
    """Lines of the module-level assignments of a tuple display."""
    return {line for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
            for line in range(node.lineno, node.end_lineno + 1)}


def _range_reads(name, text, tree):
    """Lines that read item 6 or 7 of a value: the degree range of a
    pairing form."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant) and node.slice.value in (6, 7)]


def test_pairing_forms_are_built_in_one_place():
    # gauss takes heat images, weights and conjugate copies in its form
    # builders only: the right role (`_form`) holds the image and the
    # weights key! 2^(T - |key|), the lazy left role (`_with_left`) the
    # sign plans of the weighted conjugates, built by the one plan builder
    # of clifford, and every pairing reads them from the cache
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    library = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    sources = {"gauss.py": library["gauss.py"]}
    assert _enclosing(sources, _calls_of("_apply")) == ["gauss.py:_form"]
    assert _enclosing(sources, _calls_of("_key_factorial")) == ["gauss.py:_form"]
    assert _enclosing(sources, _calls_of("frozenset")) == ["gauss.py:_form"]
    assert _enclosing(library, _calls_of("_conjugate_plan")) == ["gauss.py:_with_left"]
    for callee in ("_conjugated", "_scaled"):
        assert _enclosing(sources, _calls_of(callee)) == [], callee
    # the total-degree range of a heat image is computed in `_form` only
    # and read in `_pairing` only, as items 6 and 7 of a form; the scan
    # sees a read of either, and not a slice or a read of the left role
    for callee in ("min", "max"):
        assert _enclosing(sources, _calls_of(callee)) == ["gauss.py:_form"], callee
    assert _enclosing(sources, _range_reads) == ["gauss.py:_pairing"]
    probe = {"probe.py": "def f(a, b):\n    return a[7] < b[6]\n"
                         "def g(a):\n    return a[6]\n"
                         "def h(form, left):\n    return form[:5] + (left,) + form[6:], form[5]\n"}
    assert _enclosing(probe, _range_reads) == ["probe.py:f", "probe.py:g"]
    # one kernel pairs: the key-set test, the product of the left plans
    # with the right role and the weighted blade sum are called in
    # `_pairing` only, which `clifford_pairing`, `inner_rho` and `inner_mu`
    # each call once, and `gram` once per entry after it has checked the
    # measure; no general Clifford product is left in gauss
    for callee in ("isdisjoint", "_plan_pairing", "_shared_blade_sum"):
        assert _enclosing(sources, _calls_of(callee)) == ["gauss.py:_pairing"], callee
    assert _enclosing(sources, _calls_of("_product_numerators")) == []
    assert _enclosing(sources, _calls_of("_pairing")) == [
        "gauss.py:clifford_pairing", "gauss.py:gram", "gauss.py:inner_mu", "gauss.py:inner_rho"]
    # the measure is checked in `_check_measure` only
    phrase = _texts_holding("must be a Measure")
    assert _enclosing(library, phrase) == ["gauss.py:_check_measure"]
    # the canonical zeros are built once, in a module-level tuple of
    # clifford, so they stay out of reach of the guard against
    # process-global lists, dicts and sets; gauss only reads them
    assert _enclosing(library, _zero_builds) == ["clifford.py:"]
    tree = ast.parse(library["clifford.py"])
    assert set(_zero_builds("clifford.py", library["clifford.py"], tree)) <= _module_tuple_lines(tree)
    # the scans see a second key-set test and blade sum, a second measure
    # message, zeros built in a pairing, and a module-level list of zeros
    probe = {"probe.py": "ZEROS = [CliffordNumber._raw(n, 1, {}) for n in range(1, 17)]\n"
                         "PAIR = (_gaussian(_ZERO, _ZERO),)\n"
                         "def _pairing(a, b):\n    return a[2].isdisjoint(b[2])\n"
                         "def _scalar_pairing(f, g, mu):\n    if keys.isdisjoint(other):\n"
                         "        return _gaussian_over(0, 0, 1)\n"
                         "    return _shared_blade_sum(triples)\n"
                         "def clifford_pairing(f, g, measure):\n"
                         "    if not isinstance(measure, Measure):\n"
                         "        raise TypeError(f'measure must be a Measure, got {measure!r}')\n"
                         "    return CliffordNumber._raw(f.n, 1, {})\n"
                         "def neg(z):\n    return _raw(z.n, z._den, {m: v for m, v in z._blades.items()})\n"}
    assert _enclosing(probe, _calls_of("isdisjoint")) == ["probe.py:_pairing", "probe.py:_scalar_pairing"]
    assert _enclosing(probe, _calls_of("_shared_blade_sum")) == ["probe.py:_scalar_pairing"]
    assert _enclosing(probe, phrase) == ["probe.py:clifford_pairing"]
    assert _enclosing(probe, _zero_builds) == [
        "probe.py:", "probe.py:_scalar_pairing", "probe.py:clifford_pairing"]
    tree = ast.parse(probe["probe.py"])
    assert set(_zero_builds("probe.py", probe["probe.py"], tree)) - _module_tuple_lines(tree) == {1, 7, 12}


def _member_reads(name, text, tree):
    """Lines that read a member of `Measure`: an attribute, bare or
    qualified, a lookup by name or a call by value."""
    def measure(node):
        return (isinstance(node, ast.Name) and node.id == "Measure"
                or isinstance(node, ast.Attribute) and node.attr == "Measure")

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("RHO", "MU_TILDE") and measure(node.value)
            or isinstance(node, ast.Subscript) and measure(node.value)
            or isinstance(node, ast.Call) and measure(node.func)]


def test_measure_members_are_read_at_import_only():
    # on CPython 3.11 a member read goes through EnumType.__getattr__, about
    # five times a plain attribute's cost, once per Gram entry when a
    # pairing reads it.  gauss binds both members once at module level, and
    # `_check_measure`, the one home of the "must be a Measure" message,
    # tests them by identity for the three entry points that take a measure
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _enclosing(sources, _member_reads) == ["gauss.py:"]
    assert _enclosing(sources, _calls_of("_check_measure")) == [
        "gauss.py:clifford_pairing", "gauss.py:gram", "gauss.py:moment"]
    assert _enclosing(sources, _texts_holding("must be a Measure")) == ["gauss.py:_check_measure"]
    # the scan sees the module-level binding (as "probe.py:") and a member
    # read in a test, a default, a qualified read and a lookup by name or by
    # value, and not a type annotation, an isinstance test or a docstring
    # that names a member
    probe = {"probe.py": "_RHO, _MU = Measure.RHO, Measure.MU_TILDE\n"
                         "def f(measure):\n    return measure is Measure.MU_TILDE\n"
                         "def g(f, measure=Measure.RHO):\n    return gauss.Measure.RHO\n"
                         "def h(name):\n    return Measure[name], Measure('mu')\n"
                         "def k(measure: Measure):\n    \"\"\"Under Measure.RHO.\"\"\"\n"
                         "    return isinstance(measure, Measure) and measure is _RHO\n"}
    assert _enclosing(probe, _member_reads) == ["probe.py:", "probe.py:f", "probe.py:g", "probe.py:h"]


def _starred_gcds(name, text, tree):
    """Lines of a gcd call, bare or as an attribute, with a starred argument."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "gcd" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and any(isinstance(arg, ast.Starred) for arg in node.args)]


def test_no_gcd_reads_a_whole_map():
    # `clifford._numerator_gcd` takes the reduction gcd pair by pair and
    # stops at the first unit: a gcd over an unpacked iterable reads every
    # numerator before it can stop.  The scan sees both spellings, and not a
    # pairwise gcd or another function's starred call
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    probe = {"probe.py": "def f(g, b):\n    return gcd(g, *chain.from_iterable(b.values()))\n"
                         "def g(xs):\n    return math.gcd(*xs)\n"
                         "def h(g, re, im):\n    return gcd(g, re, im)\n"
                         "def k(ds):\n    return lcm(*ds)\n"
                         "def r(cls, n, den, blades):\n    g = den\n"
                         "    for re, im in blades.values():\n        g = gcd(g, re, im)\n"
                         "        if g == 1:\n            break\n"}
    assert _enclosing(probe, _starred_gcds) == ["probe.py:f", "probe.py:g"]
    assert _enclosing(sources, _starred_gcds) == []
    # that gcd has one home, which both reducers call: a second pair-by-pair
    # gcd loop, as in the probe's r, is a gcd call outside it
    assert _enclosing(probe, _calls_of("gcd")) == ["probe.py:f", "probe.py:g", "probe.py:h",
                                                   "probe.py:r"]
    clifford = {"clifford.py": sources["clifford.py"]}
    assert _enclosing(clifford, _calls_of("gcd")) == ["clifford.py:_numerator_gcd",
                                                      "clifford.py:_part_text"]
    assert _enclosing(clifford, _calls_of("_numerator_gcd")) == ["clifford.py:_reduce",
                                                                 "clifford.py:_reduced"]


def _unbounded_caches(source, name):
    """Every use of functools' lru_cache or cache in source that is not a
    call with a positive int maxsize, as "name:line"."""
    tree = ast.parse(source, name)
    local = {}  # local name -> functools name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            local.update((a.asname or a.name, a.name) for a in node.names
                         if a.name in ("lru_cache", "cache"))
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
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
    return [f"{name}:{line}" for line in sorted(found)]


def test_every_lru_cache_has_a_finite_int_maxsize():
    # an unbounded cache grows for the life of the process
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert [found for name, text in sources.items() for found in _unbounded_caches(text, name)] == []
    assert sum(text.count("@lru_cache(maxsize=") for text in sources.values()) >= 2
    # the scan sees the forms that leave a cache unbounded or its size unstated
    probe = ("import functools\nfrom functools import lru_cache, cache as memo\n"
             "@lru_cache\ndef a(): pass\n@lru_cache(maxsize=None)\ndef b(): pass\n"
             "@functools.cache\ndef c(): pass\n@memo\ndef d(): pass\n"
             "@lru_cache(maxsize=SIZE)\ndef e(): pass\n"
             "@lru_cache(64)\ndef f(): pass\n@functools.lru_cache(maxsize=8)\ndef g(): pass\n")
    assert _unbounded_caches(probe, "probe") == [f"probe:{line}" for line in (3, 5, 7, 9, 11)]


def test_readme_cli_block_names_every_subcommand():
    # the README's CLI code block shows one `monogenic <command>` line per
    # subcommand of the parser, no more and no fewer
    import argparse
    from monogenic.cli import build_parser
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
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
    acceptance = (Path(__file__).resolve().parent / "test_acceptance.py").read_text()
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
