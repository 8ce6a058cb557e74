"""Guards for the tooling next to the library: the benchmark's tracer,
the library's stdlib-only imports, the numerator-only wire codec, the
seeded generators that build numerators directly, one home
for each numerator rule, for the integer-argument test, for the
derivative's key shift and for the pairing forms of gauss, bounded caches,
and the README's list of CLI commands."""

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
                                "clifford_from_json: ._reduced(...)"]


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


def test_each_numerator_rule_has_one_home():
    # the product sign and the conjugation sign are stated in clifford only
    package = Path(__file__).resolve().parent.parent / "src" / "monogenic"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    rule = re.compile(r"_sign_mask\b|bit_count\(\) \+ 1\) & 2")
    assert [name for name, text in sources.items() if rule.search(text)] == ["clifford.py"]
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
    # a (weighted) sum of conj(a_A) b_A or |a_A|^2 over blade maps is
    # written once, in `clifford._shared_blade_sum`; the scan sees the
    # forms that loop bodies use, and not the product or a scalar's abs_sq
    probe = {"probe.py": "def f():\n    return sum(re * re + im * im for re, im in b.values())\n"
                         "def g():\n    t = ar * br + ai * bi\n"
                         "def h():\n    re, im = ar * br - ai * bi, ar * bi + ai * br\n"
                         "def k(self):\n    return self.re * self.re + self.im * self.im\n"}
    assert _enclosing(probe, _blade_sums) == ["probe.py:f", "probe.py:g"]
    assert _enclosing(sources, _blade_sums) == ["clifford.py:_shared_blade_sum"]
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


def test_pairing_forms_are_built_in_one_place():
    # gauss takes heat images, weights and conjugate copies in its form
    # builders only: the right role (`_form`) holds the image and the
    # weights key! 2^(T - |key|), the lazy left role (`_with_left`) the
    # weighted conjugates, and every pairing reads them from the cache
    path = Path(__file__).resolve().parent.parent / "src" / "monogenic" / "gauss.py"
    sources = {"gauss.py": path.read_text()}
    assert _enclosing(sources, _calls_of("_apply")) == ["gauss.py:_form"]
    assert _enclosing(sources, _calls_of("factorial")) == ["gauss.py:_form"]
    assert _enclosing(sources, _calls_of("frozenset")) == ["gauss.py:_form"]
    assert _enclosing(sources, _calls_of("_conjugated")) == ["gauss.py:_with_left"]
    assert _enclosing(sources, _calls_of("_add_scaled")) == ["gauss.py:_with_left"]


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
