"""No code without a caller: every public function, class and method of the
package is referenced by the package itself, a demo or a perfbench script,
every option of the package is set by one of them, and to more than one
value, and every value the package stores is read by one of them.

Names that only tests reach belong in tests/oracles.py. The name scan is by
name (ast Name, Attribute and import alias nodes), so it catches a public
name that nothing outside tests mentions; it cannot tell two same-named
methods apart. The option scan matches calls the same way: a call of a
function, method or class by its name may pass a defaulted parameter or
dataclass field by keyword, by position, or through * or ** unpacking.
The value scan reads what each such call gives the option: a literal, the
default when the call leaves it out, or anything else, which may vary.
The state scan is by name as well: a dataclass field or an attribute set
on self counts as read when an attribute of that name is loaded anywhere,
so a copy such as op.lam would pass on a read of coeff.lam.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conical_lab"

# the documented coefficient-file format (README, "Binary formats") is public
# API for files, not for the program: to_file is how a user writes one
ALLOWED = {"CoefficientField.to_file"}

# the gradients' only program caller is the benchmark's oracle script, whose
# files stay fixed between benchmark changes; it passes mode="full" each time
CONSTANT_ALLOWED = {
    "elliptic.EllipticOperator.heat_gradient(mode=)",
    "elliptic.EllipticOperator.poisson_gradient(mode=)",
}


def _caller_files():
    yield from sorted(PACKAGE.glob("*.py"))
    yield from sorted((ROOT / "demos").glob("*.py"))
    yield from (p for p in sorted((ROOT / "perfbench").glob("*.py"))
                if not p.name.startswith("test_"))


def _referenced_names():
    names = set()
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    names.add(node.asname)
    return names


def _public_definitions(path):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_name_has_a_caller():
    referenced = _referenced_names()
    uncalled = [f"{path.stem}.{qual}" for path in sorted(PACKAGE.glob("*.py"))
                for qual, name in _public_definitions(path)
                if name not in referenced and qual not in ALLOWED]
    assert uncalled == []


# ------------------------------------------------------------------ options


def _name(node):
    """The name a call or decorator uses: f(...), obj.f(...), @f or @f(...)."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _function_options(fn, skip):
    """(parameter, position or None, default) of each defaulted parameter of
    fn; position counts the arguments a call writes, after the skip bound
    ones."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    for i, (arg, default) in enumerate(zip(args[first:], fn.args.defaults), first):
        yield arg.arg, i - skip, default
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _dataclass_options(cls, field_names):
    """(field, position, default) of each defaulted dataclass field; a
    field(...) default is state built per instance, not an option, and is
    skipped."""
    fields = [s for s in cls.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    for i, stmt in enumerate(fields):
        value = stmt.value
        if value is None or (isinstance(value, ast.Call)
                             and _name(value) in field_names):
            continue
        yield stmt.target.id, i, value


def _options(path):
    """(qualified name, callee name, parameter, position, default) of every
    option of the public functions, methods and dataclasses defined in path."""
    tree = ast.parse(path.read_text())
    # the local names of dataclasses.field, e.g. "field as dfield"
    field_names = {a.asname or a.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                   for a in node.names if a.name == "field"}
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        if isinstance(node, ast.FunctionDef):
            for option in _function_options(node, 0):
                yield node.name, node.name, *option
            continue
        if "dataclass" in map(_name, node.decorator_list):
            for option in _dataclass_options(node, field_names):
                yield node.name, node.name, *option
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__":
                callee = node.name  # a constructor is called by its class
            elif item.name.startswith("_"):
                continue
            else:
                callee = item.name
            bound = 0 if "staticmethod" in map(_name, item.decorator_list) else 1
            for option in _function_options(item, bound):
                yield f"{node.name}.{item.name}", callee, *option


class _Calls(ast.NodeVisitor):
    """Every call in a file as (callee name, positional, keywords);
    positional lists the plain positional argument nodes, or is None when a
    * argument may fill any position, and keywords maps each keyword to its
    value node, or is None when ** may pass any."""

    def __init__(self):
        self.calls = []
        self.classes = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node):
        name = _name(node)
        if name == "cls" and isinstance(node.func, ast.Name) and self.classes:
            name = self.classes[-1]
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg: k.value for k in node.keywords}
        self.calls.append((name, None if starred else node.args,
                           None if None in keywords else keywords))
        self.generic_visit(node)


def _calls():
    visitor = _Calls()
    for path in _caller_files():
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return visitor.calls


def _is_set(callee, param, pos, calls):
    for name, positional, keywords in calls:
        if name != callee:
            continue
        if keywords is None or param in keywords:
            return True
        if pos is not None and (positional is None or pos < len(positional)):
            return True
    return False


def test_every_option_has_a_caller():
    # an option that no program path sets is a constant: write it as one
    calls = _calls()
    unset = [f"{path.stem}.{qual}({param}=)"
             for path in sorted(PACKAGE.glob("*.py"))
             for qual, callee, param, pos, _ in _options(path)
             if not _is_set(callee, param, pos, calls)]
    assert unset == []


_VARYING = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _VARYING


def _given(param, pos, default, positional, keywords):
    """The value one call gives an option, or _VARYING."""
    if keywords is None:
        return _VARYING
    if param in keywords:
        return _literal(keywords[param])
    if pos is not None:
        if positional is None:
            return _VARYING
        if pos < len(positional):
            return _literal(positional[pos])
    return _literal(default)


def test_every_option_takes_more_than_one_value():
    # an option that every program call sets to the same value is a
    # constant written at each call: write it once
    calls = _calls()
    constant = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, callee, param, pos, default in _options(path):
            given = [_given(param, pos, default, positional, keywords)
                     for name, positional, keywords in calls if name == callee]
            if (given and _VARYING not in given
                    and all(v == given[0] for v in given)):
                constant.append(f"{path.stem}.{qual}({param}=)")
    assert sorted(set(constant) - CONSTANT_ALLOWED) == []


# ------------------------------------------------------------- stored state


def _loaded_attributes():
    """Every attribute name an ast.Attribute loads in the caller files."""
    names = set()
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _stored_values(path):
    """(qualified name, attribute) of every dataclass field and every
    attribute stored on self by the classes defined in path."""
    for cls in ast.parse(path.read_text()).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if "dataclass" in map(_name, cls.decorator_list):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{cls.name}.{stmt.target.id}", stmt.target.id
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                yield f"{cls.name}.{node.attr}", node.attr


def test_every_stored_value_has_a_reader():
    # a value that no program path reads is dead state: stop storing it
    loaded = _loaded_attributes()
    unread = sorted({f"{path.stem}.{qual}"
                     for path in sorted(PACKAGE.glob("*.py"))
                     for qual, attr in _stored_values(path) if attr not in loaded})
    assert unread == []
