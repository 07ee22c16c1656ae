"""Every function, class, method and module-level constant under
src/splitflow has a use.

A definition counts as used when its name appears anywhere in the package,
the tests, the demos or the benchmark other than at the definition itself:
as a name read, an attribute, an import or an identifier string (the
benchmark wraps functions it looks up by name).  Assigning to a name is not
a use.  A method counts as used only when it is named as an attribute or as
an identifier string: a bare name is a local variable or a module-level
function, never a method.  Methods are told apart by class: ``C.m`` and,
inside class ``C``, ``self.m`` or ``cls.m`` name only ``C``'s method ``m``;
any other mention of ``m`` names a method only when one class alone defines
a method of that name.  Dunder names are exempt.

Stricter, the program itself must name every definition: a name counts
only when ``src``, ``demos`` or ``perfbench`` mentions it, outside the
re-exports of ``splitflow/__init__.py``, so that no definition lives in the
package for the tests alone (test oracles live under ``tests/``).

Likewise every ``self.<attr>`` stored under src/splitflow must be read by
the program: as an attribute load in ``src``, ``demos`` or ``perfbench`` (a
test's read, a dict key or a ``getattr`` string does not count).  Every
field of a dataclass there must be read somewhere: as an attribute load or
as an identifier string (``getattr``).

Every optional parameter of a function, method or class constructor under
src/splitflow (a dataclass field with a default and ``init`` included) must
be set by some call in ``src``, ``demos`` or ``perfbench``: by position, by
keyword, through ``dataclasses.replace`` or, for a dataclass field, by an
attribute store.  A call names its callee by function, attribute or class
name, and counts for every definition of that name.  Parameters that start
with an underscore are exempt, and so are the functions the benchmark wraps
(``TRACED`` in ``perfbench/tracer.py``), whose parameters it freezes.

Only ``cocycle.py`` under src/splitflow names the parts of the pruned
spectral max (``spectral_norms``, ``_frobenius``, ``FROBENIUS_SLACK``): every
other module takes a max of matrix norms through ``spectral_argmax`` or the
functions built on it, so the pruning rule has one implementation.
Likewise only ``greens.py`` names ``_band_for``: every span of impulse
solves comes from ``greens._impulse_span``; only ``hyperbolic.py`` names
``eta_row`` and ``eta_epsilon``: every eta ladder and cutoff search goes
through ``hyperbolic.ladder`` and ``hyperbolic.eta_cutoff``; only
``sde_bridge.py`` names ``StratonovichSpec``, ``random_ode_problem`` and
``build_wave_system``, re-exports in ``splitflow/__init__.py`` aside: every
program model is built by ``sde_bridge.cubic_problem`` or
``sde_bridge.wave_problem``; only ``sde_bridge.py`` names
``LAMBDA_SAMPLES``: the wave's lambda sampling travels on the problem that
``wave_problem`` returns; and only ``cli.py`` names ``json``: every JSON
output goes through ``cli._write_json``.

src/splitflow imports nothing of scipy, wherever the import statement
stands: the package runs on numpy alone, and any scipy module would weigh on
every start-up, or on the first call that reaches a deferred import.

No comparison under src/splitflow tests ``==`` or ``!=`` against
``math.inf`` or ``np.inf`` (negated or not): such a guard lets a NaN
through, where ``not x < math.inf`` fails closed.

No code under src/splitflow reads ``__self__``: an object that a reader
needs is held in a field of its own, not reached through the owner of a
bound method passed for one of its methods.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitflow"
SEARCHED = ("src", "tests", "demos", "perfbench")
PROGRAM = ("src", "demos", "perfbench")
# named by tests only until the hyperbolic rows record the a-posteriori
# bound (ROADMAP open item 8)
PROGRAM_EXEMPT = {"SUP_OVER_LAMBDA"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _trees(tops=SEARCHED):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _scoped(node, cls=None):
    """``(node, cls)`` for every node below ``node``, ``cls`` the name of
    the innermost class whose body holds it."""
    for child in ast.iter_child_nodes(node):
        yield child, cls
        yield from _scoped(child, child.name if isinstance(child, ast.ClassDef)
                           else cls)


def _mentions(tree):
    """``(name, as_member, receiver)`` per mention; ``as_member`` marks an
    attribute or an identifier string, the only ways a method can be named.
    ``receiver`` is the class an attribute is read from when the code says
    which: the enclosing class for ``self.m`` and ``cls.m``, else the last
    name of the receiver (``C`` in ``C.m`` and ``sf.C.m``)."""
    for node, cls in _scoped(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, False, None
        elif isinstance(node, ast.Attribute):
            value = node.value
            receiver = value.id if isinstance(value, ast.Name) else \
                value.attr if isinstance(value, ast.Attribute) else None
            if isinstance(value, ast.Name) and receiver in ("self", "cls"):
                receiver = cls
            yield node.attr, True, receiver
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], False, None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, True, None


def _definitions(tree):
    """``(name, line, cls)`` of every function, class, method and
    module-level constant; ``cls`` names the class of a method, else None."""
    owner = {id(node): cls.name for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, FUNCTIONS)}
    for node in ast.walk(tree):
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node.lineno, owner.get(id(node))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, None


def _unnamed(tops, skip=()):
    """``path:line name`` of every package definition that no file under
    ``tops`` names, mentions in the files ``skip`` not counted; a method is
    reported as ``Class.method``."""
    mentions = []
    defined = []
    for path, tree in _trees(tops):
        if path not in skip:
            mentions.extend(_mentions(tree))
        if path.is_relative_to(PACKAGE):
            defined.extend((name, path.relative_to(ROOT), line, cls)
                           for name, line, cls in _definitions(tree))
    methods = {(cls, name) for name, _, _, cls in defined if cls}
    classes = {cls for cls, _ in methods}
    definers = Counter(name for _, name in methods)
    named = set()
    for name, as_member, receiver in mentions:
        named.add((None, name))
        if not as_member:
            continue
        if receiver in classes:  # the code says whose attribute it is
            named.add((receiver, name))
        elif definers[name] == 1:
            named.update(m for m in methods if m[1] == name)
    return [f"{path}:{line} {cls + '.' if cls else ''}{name}"
            for name, path, line, cls in defined
            if not (name.startswith("__") and name.endswith("__"))
            and (cls, name) not in named]


def test_every_definition_is_named_elsewhere():
    unused = _unnamed(SEARCHED)
    assert not unused, "defined but never named:\n" + "\n".join(unused)


def test_every_definition_serves_the_program():
    test_only = [entry for entry in
                 _unnamed(PROGRAM, skip={PACKAGE / "__init__.py"})
                 if entry.split()[-1] not in PROGRAM_EXEMPT]
    assert not test_only, ("named by tests or __init__ only:\n"
                           + "\n".join(test_only))


def _stored_attributes(tree):
    """``(attr, line)`` of every ``self.<attr>`` assignment target."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            yield node.attr, node.lineno


def _attribute_reads(tree):
    """Names read as an attribute or given as an identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def _dataclass_fields(tree):
    """``(class, field, line)`` of every field of a ``@dataclass`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    yield node.name, item.target.id, item.lineno


def _unread(stored):
    """``path:line what`` of every ``(attr, what, path, line)`` in
    ``stored`` whose ``attr`` no file reads (:func:`_attribute_reads`)."""
    read = set()
    for _, tree in _trees():
        read.update(_attribute_reads(tree))
    return [f"{path.relative_to(ROOT)}:{line} {what}"
            for attr, what, path, line in stored if attr not in read]


def test_every_stored_attribute_is_read():
    read = {node.attr for _, tree in _trees(PROGRAM) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.relative_to(ROOT)}:{line} self.{attr}"
              for path, tree in _trees(("src",))
              for attr, line in _stored_attributes(tree) if attr not in read]
    assert not unread, ("stored but never read by the program:\n"
                        + "\n".join(unread))


def test_every_dataclass_field_is_read():
    unread = _unread([(name, f"{cls}.{name}", path, line)
                      for path, tree in _trees(("src",))
                      for cls, name, line in _dataclass_fields(tree)])
    assert not unread, "dataclass field never read:\n" + "\n".join(unread)


def _init_field(item):
    """Whether the dataclass field ``item`` is a constructor parameter: it
    is not ``field(..., init=False)``."""
    value = item.value
    return not (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords))


def _signatures(tree):
    """``(name, params, dataclass, line)`` of every function, method and
    class constructor: ``params`` the ``(parameter, position)`` pairs of
    its optional parameters, ``position`` the index a positional argument
    takes (bound ``self`` and ``cls`` not counted), None for a keyword-only
    one.  A class is its ``__init__``, or for a dataclass its ``init``
    fields, ``dataclass`` True."""
    methods = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods.update(id(item) for item in node.body)
        if _is_dataclass(node):
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and _init_field(item)]
            yield node.name, [(item.target.id, i) for i, item in
                              enumerate(fields) if item.value is not None], \
                True, node.lineno
        for item in node.body:
            if isinstance(item, FUNCTIONS):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                name = node.name if item.name == "__init__" else item.name
                yield name, _optional(item.args, not static), False, item.lineno
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS) and id(node) not in methods:
            yield node.name, _optional(node.args, False), False, node.lineno


def _optional(args, bound):
    """The ``(parameter, position)`` pairs of :func:`_signatures` for the
    arguments ``args`` of a function, ``bound`` when the first is ``self``
    or ``cls``."""
    positional = [p.arg for p in args.posonlyargs + args.args][int(bound):]
    first = len(positional) - len(args.defaults)
    return ([(p, i) for i, p in enumerate(positional) if i >= first]
            + [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _settings(tree):
    """``(callee, n_positional, keywords)`` of every call, the callee named
    by its function, attribute or class name (None when a ``*`` argument
    passes any number of positional ones), and ``(None, 0, names)`` for the
    fields set by ``dataclasses.replace`` or by an attribute store."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            keywords = {k.arg for k in node.keywords}
            if name == "replace":
                yield None, 0, keywords
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield name, None if starred else len(node.args), keywords
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            yield None, 0, {node.attr}


def _traced():
    """The ``(module, function)`` pairs that ``perfbench/tracer.py`` wraps;
    their parameters are frozen by the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TRACED")


def test_every_optional_parameter_is_set_by_the_program():
    # an optional parameter that no command, demo or benchmark sets is a
    # constant, and belongs in the body
    calls = [s for _, tree in _trees(PROGRAM) for s in _settings(tree)]
    stored = set().union(*(kw for name, _, kw in calls if name is None))
    traced = set(_traced())
    unset = []
    for path, tree in _trees(("src",)):
        for name, params, dataclass, line in _signatures(tree):
            if (path.stem, name) in traced:
                continue
            unset.extend(
                f"{path.relative_to(ROOT)}:{line} {name}({param})"
                for param, at in params
                if not param.startswith("_")
                and not (dataclass and param in stored)
                and not any(callee == name and (param in kw or at is not None
                                                and (n is None or at < n))
                            for callee, n, kw in calls))
    assert not unset, ("optional parameter no program caller sets:\n"
                       + "\n".join(unset))


SPECTRAL_PARTS = {"spectral_norms", "_frobenius", "FROBENIUS_SLACK"}
MODEL_PARTS = {"StratonovichSpec", "random_ode_problem", "build_wave_system"}


def _named_outside(owner, names, skip=()):
    """``path name`` of every mention of ``names`` under src/splitflow
    outside the module ``owner`` and the modules ``skip``."""
    return sorted({f"{path.relative_to(ROOT)} {name}"
                   for path, tree in _trees(("src",))
                   if path not in {PACKAGE / m for m in (owner, *skip)}
                   for name, _, _ in _mentions(tree)
                   if name in names})


def test_only_cocycle_names_the_spectral_max_parts():
    stray = _named_outside("cocycle.py", SPECTRAL_PARTS)
    assert not stray, ("spectral max rebuilt outside cocycle:\n"
                       + "\n".join(stray))


def test_only_greens_names_the_band_rule():
    # every span of impulse solves comes from greens._impulse_span
    stray = _named_outside("greens.py", {"_band_for"})
    assert not stray, ("span rule rebuilt outside greens:\n"
                       + "\n".join(stray))


def test_only_hyperbolic_names_the_row_and_the_search():
    # every eta ladder and cutoff goes through hyperbolic.ladder and
    # hyperbolic.eta_cutoff
    stray = _named_outside("hyperbolic.py", {"eta_row", "eta_epsilon"})
    assert not stray, ("eta row or cutoff search outside hyperbolic:\n"
                       + "\n".join(stray))


def test_only_sde_bridge_builds_models():
    # every program model is built by a model function of sde_bridge
    # (cubic_problem, wave_problem); the package re-exports its parts
    stray = _named_outside("sde_bridge.py", MODEL_PARTS, skip=("__init__.py",))
    assert not stray, ("model built outside sde_bridge:\n" + "\n".join(stray))


def test_only_sde_bridge_names_the_wave_sampling():
    # the wave problem carries its lambda sampling (lambda_samples)
    stray = _named_outside("sde_bridge.py", {"LAMBDA_SAMPLES"})
    assert not stray, ("wave sampling named outside sde_bridge:\n"
                       + "\n".join(stray))


def test_only_cli_names_json():
    # every JSON output goes through cli._write_json
    stray = _named_outside("cli.py", {"json"})
    assert not stray, ("JSON written outside cli:\n" + "\n".join(stray))


def _imported_modules(tree):
    """``(line, module)`` of every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_scipy_is_not_imported():
    stray = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stray.extend(f"{path.relative_to(ROOT)}:{line} {module}"
                     for line, module in _imported_modules(tree)
                     if module.split(".")[0] == "scipy")
    assert not stray, "scipy imported:\n" + "\n".join(stray)


def _is_inf(node):
    """Whether ``node`` is ``math.inf``, ``np.inf`` or ``numpy.inf``, or
    one of them negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("math", "np", "numpy"))


def _inf_equalities(tree):
    """Lines of every ``==`` or ``!=`` comparison with an infinity."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Eq, ast.NotEq))
                   and (_is_inf(a) or _is_inf(b))
                   for op, a, b in zip(node.ops, sides, sides[1:])):
                yield node.lineno


def test_no_equality_with_infinity():
    # x == inf is False for a NaN x, so the guard it makes lets NaN through
    stray = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in _trees(("src",))
             for line in _inf_equalities(tree)]
    assert not stray, ("equality with an infinity misses NaN:\n"
                       + "\n".join(stray))


def test_no_bound_method_owner_is_read():
    # a bound method's owner is a second, hidden field of whatever holds it
    stray = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path, tree in _trees(("src",)) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__self__"]
    assert not stray, "owner read through __self__:\n" + "\n".join(stray)
