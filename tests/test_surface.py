"""The public surface is what the program uses: every public top-level
function, class and method of `gentac` is referenced by name from the
package itself (outside its own definition), `perfbench/`, `demos/` or the
console-script entry in pyproject.toml. A name only tests call is deleted.
The number of values a caller can set is capped and can only go down."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gentac"

# kept without a caller in the program, each for a stated reason
UNREFERENCED_ALLOWED = {
    # the per-sample loss that the batch loss is tested against
    "events.hierarchical_loss",
    # the EPV grid file format that README documents: read and write
    "metrics.load_epv",
    "data.save_epv_grid",
}

# defaulted parameters of public functions and methods plus defaulted init
# fields of public dataclasses; a change may lower this, never raise it
SETTABLE_VALUES_MAX = 122

# option strings of every `gentac` subcommand, help aside; likewise
CLI_FLAGS_MAX = 102


def _public_definitions():
    """{"module.name" or "module.Class.method": (kind, name)} from the AST
    of each package module; properties are attributes, not methods."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text("utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            found[f"{module}.{node.name}"] = ("global", module, node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_") \
                            and not any(isinstance(d, ast.Name) and d.id == "property"
                                        for d in item.decorator_list):
                        found[f"{module}.{node.name}.{item.name}"] = (
                            "method", module, item.name)
    return found


class _References(ast.NodeVisitor):
    """References in one file: (module, name) for names resolved through the
    file's imports (or defined in the file, for a package module), method
    names read as attributes, and identifier strings (the benchmark's tracer
    wraps entry points named by strings). A use inside the definition it
    names does not count."""

    def __init__(self, module, modules):
        self.module = module          # the package module this file is, or None
        self.modules = modules        # package module names
        self.aliases = {}             # local name -> package module
        self.imported = {}            # local name -> (package module, name)
        self.inside = []              # (module, name) of the enclosing defs
        self.globals = set()          # (module, name) referenced
        self.attributes = set()       # method names referenced

    def _package_module(self, dotted, level):
        parts = dotted.split(".") if dotted else []
        if level and self.module is not None:
            return parts[0] if parts else None
        if parts[:1] == ["gentac"]:
            return parts[1] if len(parts) > 1 else None
        return None

    def visit_Import(self, node):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "gentac" and len(parts) == 2 and alias.asname:
                self.aliases[alias.asname] = parts[1]

    def visit_ImportFrom(self, node):
        source = self._package_module(node.module, node.level)
        for alias in node.names:
            local = alias.asname or alias.name
            if source is None and (node.level or node.module == "gentac") \
                    and alias.name in self.modules:
                self.aliases[local] = alias.name     # from gentac import data
            elif source is not None:
                self.imported[local] = (source, alias.name)

    def _count(self, ref):
        if ref not in self.inside:
            self.globals.add(ref)

    def visit_Name(self, node):
        if node.id in self.imported:
            self._count(self.imported[node.id])
        elif self.module is not None:
            self._count((self.module, node.id))

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.aliases:
            self._count((self.aliases[node.value.id], node.attr))
        if ("method", node.attr) not in self.inside:
            self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.attributes.add(node.value)
            for module in self.modules:
                self.globals.add((module, node.value))

    def _definition(self, node, key):
        self.inside.append(key)
        self.generic_visit(node)
        self.inside.pop()

    def visit_FunctionDef(self, node):
        in_class = bool(self.inside) and self.inside[-1][0] == "class"
        key = ("method", node.name) if in_class else (self.module, node.name)
        self._definition(node, key)

    def visit_ClassDef(self, node):
        self.inside.append((self.module, node.name))
        self.inside.append(("class", node.name))
        self.generic_visit(node)
        del self.inside[-2:]


def _references():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    globals_, attributes = set(), set()
    files = [(p, p.stem) for p in sorted(PACKAGE.glob("*.py"))]
    files += [(p, None) for d in ("perfbench", "demos")
              for p in sorted((ROOT / d).glob("*.py"))]
    for path, module in files:
        visitor = _References(module, modules)
        visitor.visit(ast.parse(path.read_text("utf-8")))
        globals_ |= visitor.globals
        attributes |= visitor.attributes
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))
    for target in scripts["project"]["scripts"].values():
        dotted, _, name = target.partition(":")
        globals_.add((dotted.split(".")[-1], name))
    return globals_, attributes


def test_every_public_name_has_a_caller_in_the_program():
    globals_, attributes = _references()
    unreferenced = sorted(
        qualified for qualified, (kind, module, name) in _public_definitions().items()
        if qualified not in UNREFERENCED_ALLOWED
        and ((module, name) not in globals_ if kind == "global"
             else name not in attributes))
    assert not unreferenced, f"public names only tests call: {unreferenced}"


def test_the_allowed_exceptions_still_exist():
    assert UNREFERENCED_ALLOWED <= set(_public_definitions())


def _settable_values():
    """"module.function(param)", "module.Class.method(param)" and
    "module.Class.field" for every defaulted parameter or init field."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"gentac.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            functions = [(f"{path.stem}.{name}", obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    names += [f"{path.stem}.{name}.{f.name}" for f in dataclasses.fields(obj)
                              if f.init and (f.default is not dataclasses.MISSING
                                             or f.default_factory is not dataclasses.MISSING)]
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        functions.append((f"{path.stem}.{name}.{attr}", member))
            names += [f"{qualified}({p.name})" for qualified, function in functions
                      for p in inspect.signature(function).parameters.values()
                      if p.default is not p.empty]
    return names


def test_settable_values_do_not_grow():
    names = _settable_values()
    assert len(names) <= SETTABLE_VALUES_MAX, \
        f"{len(names)} settable values, at most {SETTABLE_VALUES_MAX}: {names}"


def test_cli_flags_do_not_grow():
    from gentac.cli import build_parser

    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    flags = [f"{name} {option}" for name, sub in commands.items()
             for action in sub._actions if action.dest != "help"
             for option in action.option_strings]
    assert len(flags) <= CLI_FLAGS_MAX, \
        f"{len(flags)} CLI flags, at most {CLI_FLAGS_MAX}: {flags}"
