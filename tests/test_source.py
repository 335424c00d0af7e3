"""Source hygiene: every function in src/ has a caller there and names
every parameter it takes, every attribute that src/ stores is read there,
no guard in src/ is an assert statement (python -O would strip it), and
no true division in src/ starts from an int literal (with int coefficients,
``1 / c`` is a float; ``Fraction(1) / c`` is exact), no cache in src/ is
unbounded (a long-lived process that calls ``cli.main`` at many primes must
not grow without limit), only ``gf`` decides how fields are built, kept
and refused, ``actions`` takes a rank over the tower only in its exact
span certificate, no JSON dump in src/ is indented (an indented dump
runs the standard library's pure-Python encoder), and the runner and the
CLI read catalog entries by attribute, never by a string key, and the
runner imports no curve model and of the catalog only its schema
constants (the entry builds every curve it counts)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "picardlab"


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _code_names(tree):
    """Names that code uses: Name and Attribute nodes and import aliases,
    never the words of comments or docstrings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_function_is_named_elsewhere_in_src():
    trees = _trees()
    named = {name for tree in trees.values() for name in _code_names(tree)}
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in named:
                unused.append("%s:%d %s" % (name, node.lineno, node.name))
    assert unused == []


def _stored_attributes(tree):
    """(class, attribute, line) for each non-dunder attribute that a class
    sets in its body or on self."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                       else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield cls.name, target.id, stmt.lineno
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                yield cls.name, node.attr, node.lineno


def test_every_stored_attribute_is_read_in_src():
    trees = _trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = ["%s:%d %s.%s" % (name, line, cls, attr)
              for name, tree in trees.items()
              for cls, attr, line in _stored_attributes(tree)
              if not (attr.startswith("__") and attr.endswith("__"))
              and attr not in read]
    assert unread == []


def test_no_assert_statements_in_src():
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_parameter_is_named_in_its_function():
    unused = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name)}
            unused.extend("%s:%d %s" % (name, node.lineno, param)
                          for param in params
                          if param not in ("self", "cls") and param not in named)
    assert unused == []


def test_no_true_division_of_an_int_literal_in_src():
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
             and isinstance(node.left, ast.Constant)
             and type(node.left.value) is int]
    assert found == []



def _unbounded_caches(tree):
    """Lines that import or name ``functools.cache``, or call ``lru_cache``
    with maxsize None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            sizes = node.args[:1] + [kw.value for kw in node.keywords
                                     if kw.arg == "maxsize"]
            if name == "lru_cache" and any(
                    isinstance(v, ast.Constant) and v.value is None
                    for v in sizes):
                yield node.lineno


def test_no_unbounded_cache_in_src():
    found = ["%s:%d" % (name, line) for name, tree in _trees().items()
             for line in _unbounded_caches(tree)]
    assert found == []


def test_unbounded_cache_rule_flags_each_form():
    flagged = [
        "from functools import cache",
        "@functools.cache\ndef f(p): pass",
        "@lru_cache(maxsize=None)\ndef f(p): pass",
        "@functools.lru_cache(None)\ndef f(p): pass",
    ]
    allowed = [
        "@lru_cache(maxsize=128)\ndef f(p): pass",
        "@functools.lru_cache\ndef f(p): pass",
        "from functools import cached_property, lru_cache",
        "cache = {}",
    ]
    for text in flagged + allowed:
        hit = any(True for _ in _unbounded_caches(ast.parse(text)))
        assert hit == (text in flagged), text


# names that only the finite-field layer, gf, may use: it alone constructs
# fields and their root tables, and it alone keeps them
FIELD_CONSTRUCTORS = {"ExtField"}
FIELD_NAMES = {"TABLE_MAX", "FIELD_CACHE", "lru_cache"}


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _field_layer_uses(tree):
    """Lines that construct ExtField, or name TABLE_MAX, FIELD_CACHE or
    lru_cache, apart from the bounded cache that decorates ``is_prime``."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "is_prime":
            allowed.update(id(n) for d in node.decorator_list
                           for n in ast.walk(d))
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Call) and \
                _name_of(node.func) in FIELD_CONSTRUCTORS:
            yield node.lineno
        elif _name_of(node) in FIELD_NAMES:
            yield node.lineno


def test_only_gf_builds_and_keeps_fields():
    found = ["%s:%s" % (name, line) for name, tree in _trees().items()
             if name != "gf.py" for line in _field_layer_uses(tree)]
    assert found == []


def test_field_layer_rule_flags_each_form():
    flagged = [
        "F = ExtField(5, 2)",
        "F = gf.ExtField(13, 1)",
        "big = p > TABLE_MAX",
        "from .gf import FIELD_CACHE",
        "from functools import lru_cache",
        "@functools.lru_cache(maxsize=8)\ndef count(p): pass",
        "@lru_cache(maxsize=8)\ndef is_prime(n): pass\nlru_cache(8)(f)",
    ]
    allowed = [
        "@functools.lru_cache(maxsize=1024)\ndef is_prime(n): pass",
        "F = gf.field(5, 2)",
        "n = gf.field(13).cubic(c)",
        "from .gf import ExtField",
        "from functools import cached_property",
    ]
    for text in flagged + allowed:
        hit = any(True for _ in _field_layer_uses(ast.parse(text)))
        assert hit == (text in flagged), text


def _specialization_reads(tree):
    """Lines that name ``specializations`` in code: a call, a bound method
    or a getattr string, never the words of a comment or docstring."""
    for node in ast.walk(tree):
        if _name_of(node) == "specializations" or (
                isinstance(node, ast.Constant)
                and node.value == "specializations"):
            yield node.lineno


def test_runner_walks_the_specializations_in_one_place():
    # run_entry reads them once and hands each row to its stages
    assert len(list(_specialization_reads(_trees()["runner.py"]))) == 1


def test_specialization_rule_flags_each_form():
    flagged = [
        "rows = entry.specializations()",
        "for value, factors, bad in entry.specializations():\n    pass",
        "walk = entry.specializations",
        "rows = getattr(entry, 'specializations')()",
        "from .catalog import specializations",
    ]
    allowed = [
        '"""Walks the specializations once."""',
        "for value, factors, bad in rows:\n    pass",
        "specialization = rows[0]",
        "entry.specialization()",
    ]
    for text in flagged + allowed:
        hit = any(True for _ in _specialization_reads(ast.parse(text)))
        assert hit == (text in flagged), text


# the names that hold an entry or one of its records in runner.py and cli.py
_CATALOG_NAMES = {"entry", "spec", "summand", "item", "factor", "factors", "f"}


def _root(node):
    """The name that a chain of attributes and subscripts starts from; a
    value that a call returns has none."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _keyed_reads(tree):
    """Lines that read catalog data by a string key: a subscript load such
    as ``spec["target"]`` or a call such as ``item.get("t")`` on a name of
    _CATALOG_NAMES, or on a name that an assignment or a loop binds from
    one.  A value that a call returns, such as a check's evidence, is not
    catalog data, and a write such as ``evidence["note"] = text`` is not a
    read."""
    bindings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            bindings += [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.For, ast.comprehension)):
            bindings.append((node.target, node.iter))
    catalog, size = set(_CATALOG_NAMES), 0
    while size != len(catalog):
        size = len(catalog)
        for target, value in bindings:
            if _root(value) in catalog:
                catalog.update(name.id for name in ast.walk(target)
                               if isinstance(name, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            base, key = node.value, node.slice
        elif isinstance(node, ast.Call) and _name_of(node.func) == "get":
            base, key = node.func.value, node.args[0] if node.args else None
        else:
            continue
        if (_root(base) in catalog and isinstance(key, ast.Constant)
                and isinstance(key.value, str)):
            yield node.lineno


def test_runner_and_cli_read_catalog_entries_by_attribute():
    # the JSON shape of an entry is known in catalog.py only: its records
    # are read by attribute
    trees = _trees()
    found = ["%s:%d" % (name, line) for name in ("runner.py", "cli.py")
             for line in _keyed_reads(trees[name])]
    assert found == []


def test_keyed_read_rule_flags_each_form():
    flagged = [
        'kind = entry.model["kind"]',
        'uvar = spec["target"]["variables"][0]',
        'for text in spec["pullback"]:\n    pass',
        'name = summand.get("map")',
        'origin = spec.get("origin", "")',
        'for f in factors:\n    disc = f["disc"]',
        'target = spec.target\nuvar = target["variables"]',
        'for row in entry.rows:\n    t = row["t"]',
    ]
    allowed = [
        'evidence["note"] = "map verifies but was declared expected-fail"',
        'ok, evidence = action.verify_decomposition(partition)\n'
        'stable = [block["stable"] for block in evidence]',
        'row = hodge_row(args.d, n)\nd = row["d"]',
        "name = spec.name",
        "row = checks[0]",
        "count = counts.get(p)",
        'kind = entry.model[key]',
    ]
    for text in flagged + allowed:
        hit = any(True for _ in _keyed_reads(ast.parse(text)))
        assert hit == (text in flagged), text


# what runner.py may import from the model and catalog layers: the entry
# builds every curve, so the runner names no model class, and it reads of
# the catalog only its schema constants
_RUNNER_IMPORTS = {"curves": {"InvariantError"},
                   "catalog": {"AUX_CHECKS", "PRIME_CAP"}}


def _layer_imports(tree):
    """(line, module, name) of each name that a ``from .curves`` or
    ``from .catalog`` import takes, or of the module itself for a plain
    ``import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            if module in _RUNNER_IMPORTS:
                for alias in node.names:
                    yield node.lineno, module, alias.name
            elif module == "" or node.module == "picardlab":
                for alias in node.names:
                    if alias.name in _RUNNER_IMPORTS:
                        yield node.lineno, alias.name, "*"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.rpartition(".")[2]
                if module in _RUNNER_IMPORTS:
                    yield node.lineno, module, "*"


def _runner_boundary_breaches(tree):
    return ["%d %s.%s" % (line, module, name)
            for line, module, name in _layer_imports(tree)
            if name not in _RUNNER_IMPORTS[module]]


def test_runner_builds_no_curve():
    assert _runner_boundary_breaches(_trees()["runner.py"]) == []


def test_runner_boundary_rule_flags_each_form():
    flagged = [
        "from .curves import HyperellipticModel, InvariantError",
        "from .curves import SuperellipticModel",
        "from .catalog import AUX_CHECKS, bad_reduction_number",
        "from picardlab.catalog import CatalogEntry",
        "from . import curves",
        "import picardlab.catalog",
    ]
    allowed = [
        "from .curves import InvariantError",
        "from .catalog import AUX_CHECKS, PRIME_CAP",
        "from .elliptic import cm_consistency",
        "from . import elliptic",
    ]
    for text in flagged + allowed:
        hit = bool(_runner_boundary_breaches(ast.parse(text)))
        assert hit == (text in flagged), text


def _exact_rank_uses(tree):
    """Lines that name ``matrix_rank`` outside ``_exact_certificate``,
    apart from its import: generator rank and irreducibility are exact mod
    ell, so only a span certificate takes a rank over the tower."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and \
                node.name == "_exact_certificate":
            allowed.update(id(n) for n in ast.walk(node))
        elif isinstance(node, ast.ImportFrom):
            allowed.update(id(n) for n in node.names)
    for node in ast.walk(tree):
        if id(node) not in allowed and _name_of(node) == "matrix_rank":
            yield node.lineno


def test_actions_takes_exact_ranks_only_in_its_certificate():
    assert list(_exact_rank_uses(_trees()["actions.py"])) == []


def test_exact_rank_rule_flags_each_form():
    flagged = [
        "def character_norm(self, indices):\n    return matrix_rank(rows)",
        "def _reduced_matrix(k, mat):\n    if matrix_rank(mat) < 2: pass",
        "rank = linalg.matrix_rank(rows)",
        "rank = matrix_rank",
    ]
    allowed = [
        "from .linalg import matrix_rank",
        "def _exact_certificate(self):\n    return matrix_rank(rows)",
        "rank = _rank_mod(rows, ell)",
    ]
    for text in flagged + allowed:
        hit = any(True for _ in _exact_rank_uses(ast.parse(text)))
        assert hit == (text in flagged), text


JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}


def _indented_dumps(tree):
    """Lines that call ``json.dump``, ``json.dumps`` or ``JSONEncoder`` with
    an ``indent`` other than None: with an indent, json runs its
    pure-Python encoder instead of the C one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name_of(node.func) in JSON_WRITERS:
            if any(kw.arg == "indent" and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is None) for kw in node.keywords):
                yield node.lineno


def test_no_indented_json_dump_in_src():
    found = ["%s:%d" % (name, line) for name, tree in _trees().items()
             for line in _indented_dumps(tree)]
    assert found == []


def test_indented_dump_rule_flags_each_form():
    flagged = [
        "text = json.dumps(doc, sort_keys=True, indent=2)",
        "json.dump(doc, fh, indent=2)",
        "from json import dumps\ntext = dumps(doc, indent=width)",
        "text = json.JSONEncoder(indent=2).encode(doc)",
        "text = json.dumps(doc, indent='  ', separators=(',', ': '))",
    ]
    allowed = [
        "text = json.dumps(doc, sort_keys=True, separators=(',', ':'))",
        "json.dump(doc, fh)",
        "text = json.dumps(doc, indent=None)",
        "text = textwrap.indent(body, '  ')",
        "text = json_text(doc)",
    ]
    for text in flagged + allowed:
        hit = any(True for _ in _indented_dumps(ast.parse(text)))
        assert hit == (text in flagged), text
