"""What the benchmark in bench/ calls of gclab still exists.

bench/run.py hands every workload a namespace `gc` of gclab's modules, so a
renamed or deleted function shows up only when the benchmark runs. This
guard reads bench/*.py with `ast`, without importing or running them, and
resolves against the installed gclab every attribute chain that starts at
`gc.<module>` (also `self.gc.<module>`, or `<anything>.gc.<module>`), and at a
name that a function binds to `gc`, to `self.gc` or to `gc.<module>`, tuple
unpacking included (`cv` in `SpectralOperators._steps`).

It cannot see what is only known at run time: attributes of instances, such
as `layer.weights`, `scheme.vectors` or `source.alpha` on an object a call
returned, and the names that bench/spans.py looks up with `getattr` from a
tuple of strings.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def outermost_functions(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from outermost_functions(child)


def denoted(node, aliases):
    """The path (module, name, ...) below the namespace gc that node names, () for gc itself, else None."""
    if isinstance(node, ast.Name):
        return () if node.id == "gc" else aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        if node.attr == "gc":
            return ()
        base = denoted(node.value, aliases)
        return None if base is None else (*base, node.attr)
    return None


def aliases_of(function):
    """The names function binds to gc or to one of its modules, nested functions included, in source order."""
    aliases = {}
    assigns = sorted((n for n in ast.walk(function) if isinstance(n, ast.Assign)), key=lambda n: n.lineno)
    for assign in assigns:
        for target in assign.targets:
            pairs = [(target, assign.value)]
            if isinstance(target, ast.Tuple) and isinstance(assign.value, ast.Tuple):
                pairs = zip(target.elts, assign.value.elts)
            for name, value in pairs:
                path = denoted(value, aliases)
                if isinstance(name, ast.Name) and path is not None and len(path) <= 1:
                    aliases[name.id] = path
    return aliases


def references(tree):
    """{(line, column, path)} of every chain below gc in tree, each prefix of a chain included."""
    refs = set()
    for scope, aliases in [(tree, {}), *((f, aliases_of(f)) for f in outermost_functions(tree))]:
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and (path := denoted(node, aliases)):
                refs.add((node.lineno, node.col_offset, path))
    return refs


def modules_of_the_namespace():
    """run.MODULES, the modules bench/run.py puts in gc, read from its source."""
    tree = ast.parse((BENCH / "run.py").read_text())
    (value,) = [n.value for n in tree.body if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "MODULES"]
    return ast.literal_eval(value)


def unresolved(path, modules):
    """Why path does not resolve against gclab, or None."""
    if path[0] not in modules:
        return f"gc has no module {path[0]!r}"
    owner = importlib.import_module(f"gclab.{path[0]}")
    for depth, name in enumerate(path[1:], 2):
        if not hasattr(owner, name):
            return f"gclab.{'.'.join(path[:depth])} does not exist"
        owner = getattr(owner, name)
    return None


def test_every_gclab_name_the_benchmark_calls_exists():
    modules, names, broken = modules_of_the_namespace(), set(), []
    for path in sorted(BENCH.glob("*.py")):
        for line, _, chain in sorted(references(ast.parse(path.read_text()))):
            names.add(chain[:2])
            if why := unresolved(chain, modules):
                broken.append(f"{path.name}:{line}: {why}")
    assert not broken, "\n".join(broken)
    assert sum(len(name) == 2 for name in names) >= 30  # gc.<module>.<name>: 37 when this guard was written
