"""Every name ``mfclab`` exports is read by the package's own code.

A public name that only tests call is surface that no certificate, no
experiment and no CLI path reaches.  This test walks the syntax trees of
``src/mfclab/*.py`` (``__init__.py`` aside) and requires each exported name
to appear as a ``Name`` or an ``Attribute`` outside its own top-level
``def`` or ``class``; a mention in a docstring or a comment does not count.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mfclab"

#: paper formulas that the tests check against closed forms but that no
#: certificate reads; each is kept as the lab's tested paper content
KEPT_PAPER_FORMULAS = (
    # the truncated trapezoid rule: an independent cross-check of Gauss-Hermite quadrature
    "trapezoid_rule",
    # the generator on exp(ixy) test functions, the paper's law-process generator
    "generator_on_test_fn",
    # the paper's bound of ||M'(t)|| by the order-4 norm of M(t)
    "m4_norm_bound_check",
)


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
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
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


def test_every_export_is_read_by_package_code():
    exports = _exports()
    assert set(KEPT_PAPER_FORMULAS) <= exports
    unread = sorted(exports - _references() - set(KEPT_PAPER_FORMULAS))
    assert not unread, f"exported but read only by tests: {unread}"


def test_kept_paper_formulas_are_still_unread():
    """An exception that package code has started to read is no longer one."""
    read = sorted(set(KEPT_PAPER_FORMULAS) & _references())
    assert not read, f"read by package code, drop from KEPT_PAPER_FORMULAS: {read}"
