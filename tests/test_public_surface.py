"""Every public name has a user: the package's own code, the acceptance
suite, or the README.

A name in a module's __all__ passes when it is read somewhere in src/ (as a
name or an attribute), when tests/test_acceptance.py imports or reads it, or
when README.md names it in backticks.  Unit tests alone do not keep a public
name alive.
"""

import ast
import glob
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "vortexlab", "*.py")))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _read_names(tree):
    """Every identifier read as a name or an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported_names(tree):
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _readme_names():
    with open(os.path.join(ROOT, "README.md")) as fh:
        spans = re.findall(r"`([^`\n]+)`", fh.read())
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_name_has_a_user():
    trees = {path: _parse(path) for path in MODULES}
    undeclared = [os.path.basename(path) for path, tree in trees.items()
                  if not _exported(tree) and not path.endswith("__init__.py")]
    assert undeclared == [], "modules without __all__ escape the audit"
    used = set().union(*(_read_names(t) for t in trees.values()))
    acceptance = _parse(os.path.join(ROOT, "tests", "test_acceptance.py"))
    used |= _read_names(acceptance) | _imported_names(acceptance) | _readme_names()
    unused = [f"{os.path.basename(path)[:-3]}.{name}"
              for path, tree in trees.items() for name in _exported(tree)
              if name not in used]
    assert unused == [], f"public names with no user: {', '.join(unused)}"
