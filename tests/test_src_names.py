"""Every public function and class of the package has a reader outside the tests.

A module-level definition of `src/mhbounds` is read when the package's
module-level code, `scripts/`, `perfbench/` or the body of another read
definition loads it by name, by an imported name or as an attribute of its
module; any other attribute (`self.x`), and a string in `scripts/` or
`perfbench/` (perfbench patches functions by name), counts for every
module's `x`.  Grown to a fixpoint, so a helper read only by unread ones is
caught too.

A public method of a class of `src/mhbounds` is read when an attribute of
its name is read anywhere in `src/`, `scripts/` or `perfbench/`, or a
string there names it; dunder methods are called by the language and are
exempt.

A parameter default of a function or method of `src/mhbounds` is read when
a call in `src/`, `scripts/` or `perfbench/` leaves the parameter out.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mhbounds"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _aliases(tree) -> tuple[dict, dict]:
    """(names, modules) bound by the package imports of `tree`: an imported
    name maps to its `module.name`, an imported package module to its stem."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = (node.module or "").removeprefix("mhbounds").lstrip(".")
        if not (node.level or (node.module or "").startswith("mhbounds")):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            if source:
                names[bound] = f"{source}.{alias.name}"
            else:
                modules[bound] = alias.name
    return names, modules


def _reads(node, module: str, local: set, aliases: tuple, strings: bool = False) -> set:
    """What `node` loads: qualified `module.name`s, and `*.name` for an
    attribute (or, with `strings`, a string) that may belong to any module."""
    names, modules = aliases
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in names:
                out.add(names[sub.id])
            elif sub.id in local:
                out.add(f"{module}.{sub.id}")
        elif isinstance(sub, ast.Attribute):
            owner = sub.value.id if isinstance(sub.value, ast.Name) else None
            out.add(f"{modules[owner]}.{sub.attr}" if owner in modules else f"*.{sub.attr}")
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(f"*.{sub.value}")
    return out


def unread_public_names(package: Path = PACKAGE, readers=("scripts", "perfbench")) -> list:
    """`module.name` of every public module-level function or class of
    `package` that nothing outside the tests reads, sorted."""
    bodies = {}  # module.name -> what its definition reads
    live = set()
    for path in sorted(package.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(), filename=str(path))
        local = {node.name for node in tree.body if isinstance(node, DEFINITIONS)}
        aliases = _aliases(tree)
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                bodies[f"{module}.{node.name}"] = _reads(node, module, local, aliases)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                live |= _reads(node, module, local, aliases)
    for folder in readers:
        for path in sorted((package.parents[1] / folder).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            live |= _reads(tree, path.stem, set(), _aliases(tree), strings=True)

    def is_read(qualified):
        return qualified in live or "*." + qualified.split(".", 1)[1] in live

    expanded = set()
    while grow := [q for q in bodies if q not in expanded and is_read(q)]:
        for qualified in grow:
            expanded.add(qualified)
            live |= bodies[qualified]
    return sorted(q for q in bodies if not q.split(".", 1)[1].startswith("_") and not is_read(q))


def test_every_public_src_name_has_a_reader():
    unread = unread_public_names()
    assert not unread, f"public names that only the tests read (move them to tests/): {unread}"


def unread_public_methods(package: Path = PACKAGE, readers=("scripts", "perfbench")) -> list:
    """`module.Class.method` of every public method of a class of `package`
    whose name no attribute (or, outside `package`, string) read in
    `package` or `readers` carries, sorted."""
    methods, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= _reads(tree, path.stem, set(), ({}, {}))
        methods += [
            f"{path.stem}.{node.name}.{item.name}"
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
        ]
    for folder in readers:
        for path in sorted((package.parents[1] / folder).glob("*.py")):
            read |= _reads(ast.parse(path.read_text(), filename=str(path)), path.stem, set(), ({}, {}), strings=True)
    return sorted(m for m in methods if "*." + m.rsplit(".", 1)[1] not in read)


def test_every_public_src_method_has_a_reader():
    unread = unread_public_methods()
    assert not unread, f"public methods that only the tests read (move them to tests/): {unread}"


# A stencil is applied as an operator, `mats.M(v, ...)` or `A(v, ...)`, and
# such a call cannot be resolved to its class, so these are the names that
# `Stencil.__call__` is called by.
CALLED_AS = {"femcore.Stencil.__call__": {"K", "M", "matrix", "A", "op"}}


def _names(node) -> set:
    """Every name and attribute name in the expression `node`."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def _defaulted(package: Path) -> dict:
    """{(definition, parameter): (the names a call of it goes by, the index of
    the positional argument that passes it, or None)} of every parameter
    with a default of a module-level function or a method of `package`.

    A method is called by its name and `__init__` by its class's, and the
    index of a method's argument does not count `self`.
    """
    out = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(None, node) for node in tree.body] + [
            (cls, item) for cls in tree.body if isinstance(cls, ast.ClassDef) for item in cls.body
        ]
        for cls, fn in scopes:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qualified = ".".join([path.stem] + ([cls.name] if cls else []) + [fn.name])
            names = CALLED_AS.get(qualified, {cls.name if cls and fn.name == "__init__" else fn.name})
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first - (cls is not None)):
                out[(qualified, arg.arg)] = (names, index)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[(qualified, arg.arg)] = (names, None)
    return out


def _calls(folders) -> list:
    """(the names the callee may go by, the call) of every call in the files
    of `folders`: a called name, a called attribute's name, and for a name
    bound by an assignment in the same file (`solve = a if c else b`) every
    name in what was assigned."""
    calls = []
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            aliases = {}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and isinstance(node.value, (ast.IfExp, ast.Name, ast.Attribute))):
                    aliases.setdefault(node.targets[0].id, set()).update(_names(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    calls.append(({node.func.id} | aliases.get(node.func.id, set()), node))
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    calls.append(({node.func.attr}, node))
    return calls


def _omits(call: ast.Call, parameter: str, index) -> bool:
    """Whether `call` leaves the parameter out; one with *args or **kwargs may."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return True
    passed = index is not None and index < len(call.args)
    return not passed and parameter not in {kw.arg for kw in call.keywords}


def unreached_defaults(package: Path = PACKAGE, readers=("scripts", "perfbench")) -> list:
    """`module.definition(parameter)` of every parameter default of `package`
    that no call in `package` or `readers` relies on, sorted; a call is
    matched to a definition by name."""
    calls = _calls([package] + [package.parents[1] / folder for folder in readers])
    return sorted(
        f"{qualified}({parameter})"
        for (qualified, parameter), (names, index) in _defaulted(package).items()
        if not any(names & callee and _omits(call, parameter, index) for callee, call in calls)
    )


def test_every_src_default_has_a_reader():
    unreached = unreached_defaults()
    assert not unreached, f"parameter defaults that only the tests rely on (make them required): {unreached}"
