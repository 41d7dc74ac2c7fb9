"""Every name ``mfclab`` exports, and every public method of its classes,
is read by the package's own code.

A public name that only tests call is surface that no certificate, no
experiment and no CLI path reaches.  This test walks the syntax trees of
``src/mfclab/*.py`` (``__init__.py`` aside) and requires each exported name
to appear as a ``Name`` or an ``Attribute`` outside its own top-level
``def`` or ``class``; a mention in a docstring or a comment does not count.
A public ``def`` in a class body (a method, property or classmethod) must be
read the same way, anywhere outside its own class or inside it.  A public
``__slots__`` attribute of a class must be read as an attribute (an
``Attribute`` load, in any class or function), so a slot that package code
only writes fails.  A public field of a top-level ``@dataclass`` or
``NamedTuple`` must be read the same way, so a field that every run fills
and only tests read fails.  Every optional parameter of a public top-level
function or of a public method must be passed by some call in package code,
by position or by keyword, so an option that every caller leaves at its
default fails.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mfclab"

#: paper formulas that the tests check against closed forms but that no
#: certificate reads yet
KEPT_PAPER_FORMULAS = (
    # the generator on exp(ixy) test functions, the paper's law-process
    # generator: the candidate reader is the planned law-term experiment
    # (ROADMAP item 4), which pairs it with the adjoint; if that experiment
    # settles on the derivative-process estimator instead, it goes
    "generator_on_test_fn",
)

#: public methods that only the benchmark harness reads, as ``Class.name``
READ_BY_BENCHMARK = (
    # perfbench/tracing.py counts a simulation's jump events with it; the
    # planned run record (ROADMAP item 1) is to read it instead
    "NoiseBank.n_events",
)

#: public dataclass fields that no package code reads, as ``Class.name``
REPORTED_ONLY_FIELDS = (
    # the standard errors of the finite-difference and adjoint slopes: a
    # caller's reading of the slope check, pinned by the gateaux/control
    # digest; the planned run record (ROADMAP item 1), which holds every
    # check's inputs, is to read them
    "GateauxResult.fd_se",
    "GateauxResult.adjoint_se",
)

#: optional parameters that are for callers outside the package, as ``name.param``
EXTERNAL_OPTIONS = (
    # the console entry point reads sys.argv unless a caller passes argv
    "main.argv",
)


def _modules() -> list[ast.Module]:
    return [
        ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _references() -> set[str]:
    """Names read in module code, each outside the top-level def or class
    that defines it."""
    seen = set()
    for tree in _modules():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    seen.add(name)
    return seen


def _public_methods() -> dict[str, str]:
    """``Class.name`` to ``name`` for every public def in a top-level class."""
    return {
        f"{cls.name}.{fn.name}": fn.name
        for tree in _modules()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }


def _public_slots() -> dict[str, str]:
    """``Class.name`` to ``name`` for every public entry of a top-level
    class's ``__slots__``."""
    slots = {}
    for tree in _modules():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    for name in ast.literal_eval(stmt.value):
                        if not name.startswith("_"):
                            slots[f"{cls.name}.{name}"] = name
    return slots


def _is_record_class(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` (bare or called) or a ``NamedTuple`` subclass."""
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)


def _public_fields() -> dict[str, str]:
    """``Class.name`` to ``name`` for every public annotated field of a
    top-level dataclass or NamedTuple."""
    return {
        f"{cls.name}.{stmt.target.id}": stmt.target.id
        for tree in _modules()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_record_class(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not stmt.target.id.startswith("_")
    }


def _attribute_loads() -> set[str]:
    return {
        node.attr
        for tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_export_is_read_by_package_code():
    exports = _exports()
    assert set(KEPT_PAPER_FORMULAS) <= exports
    unread = sorted(exports - _references() - set(KEPT_PAPER_FORMULAS))
    assert not unread, f"exported but read only by tests: {unread}"


def test_every_public_method_is_read_by_package_code():
    methods = _public_methods()
    assert set(READ_BY_BENCHMARK) <= set(methods)
    read = _references()
    unread = sorted(
        key for key, name in methods.items() if name not in read and key not in READ_BY_BENCHMARK
    )
    assert not unread, f"public methods read only by tests: {unread}"


def test_kept_paper_formulas_are_still_unread():
    """An exception that package code has started to read is no longer one."""
    read = sorted(set(KEPT_PAPER_FORMULAS) & _references())
    assert not read, f"read by package code, drop from KEPT_PAPER_FORMULAS: {read}"


def test_benchmark_read_methods_are_still_unread():
    """As for the paper formulas: package code reading one ends its exception."""
    methods = _public_methods()
    read = sorted(key for key in READ_BY_BENCHMARK if methods[key] in _references())
    assert not read, f"read by package code, drop from READ_BY_BENCHMARK: {read}"


def test_every_public_slot_is_read_by_package_code():
    slots = _public_slots()
    assert "StepView.x" in slots
    read = _attribute_loads()
    unread = sorted(key for key, name in slots.items() if name not in read)
    assert not unread, f"public slots that package code never reads: {unread}"


def test_every_dataclass_field_is_read_by_package_code():
    fields = _public_fields()
    assert {"ConsumptionModel.sigma", "CheckResult.detail"} <= set(fields)
    assert set(REPORTED_ONLY_FIELDS) <= set(fields)
    read = _attribute_loads()
    unread = sorted(
        key for key, name in fields.items() if name not in read and key not in REPORTED_ONLY_FIELDS
    )
    assert not unread, f"public fields that package code never reads: {unread}"


def test_reported_only_fields_are_still_unread():
    """As for the paper formulas: package code reading one ends its exception."""
    fields = _public_fields()
    read = sorted(key for key in REPORTED_ONLY_FIELDS if fields[key] in _attribute_loads())
    assert not read, f"read by package code, drop from REPORTED_ONLY_FIELDS: {read}"


def _optional_parameters() -> dict[str, tuple[str, int, bool]]:
    """``name.param`` to (name, position, is a method) for every optional
    parameter of a public top-level function or a public method of a
    top-level class.  Keyword-only parameters have position -1; a method's
    positions count ``self`` or ``cls``."""
    out = {}
    for tree in _modules():
        defs = [(fn, False) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        defs += [
            (fn, True)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        ]
        for fn, is_method in defs:
            if fn.name.startswith("_"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first_optional = len(positional) - len(fn.args.defaults)
            for pos, arg in enumerate(positional[first_optional:], first_optional):
                out[f"{fn.name}.{arg.arg}"] = (fn.name, pos, is_method)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    out[f"{fn.name}.{arg.arg}"] = (fn.name, -1, is_method)
    return out


def _passed(name: str, param: str, pos: int, is_method: bool) -> bool:
    """Does a call in package code pass ``param`` of ``name``?  A method is
    called as an attribute, with its receiver in the first position."""
    for tree in _modules():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Attribute):
                callee, offset = func.attr, int(is_method)
            elif isinstance(func, ast.Name) and not is_method:
                callee, offset = func.id, 0
            else:
                continue
            if callee != name:
                continue
            if any(kw.arg in (param, None) for kw in call.keywords):
                return True
            if any(isinstance(a, ast.Starred) for a in call.args):
                return True
            if pos >= 0 and len(call.args) + offset > pos:
                return True
    return False


def test_every_optional_parameter_is_passed_by_package_code():
    options = _optional_parameters()
    assert {"simulate.noise", "main.argv"} <= set(options)
    unpassed = sorted(
        key for key, (name, pos, is_method) in options.items()
        if key not in EXTERNAL_OPTIONS and not _passed(name, key.split(".")[1], pos, is_method)
    )
    assert not unpassed, f"optional parameters that package code never passes: {unpassed}"


def test_external_options_are_still_unpassed():
    """As for the paper formulas: package code passing one ends its exception."""
    options = _optional_parameters()
    passed = sorted(
        key for key in EXTERNAL_OPTIONS
        if _passed(options[key][0], key.split(".")[1], *options[key][1:])
    )
    assert not passed, f"passed by package code, drop from EXTERNAL_OPTIONS: {passed}"
