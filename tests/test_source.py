"""Guards over the package source itself."""

import ast
import importlib
import pathlib

import symilp


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead.
    found = []
    for path in sorted(pathlib.Path(symilp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_config_fields_are_read():
    # A field that no code reads is a dead knob: setting it changes nothing.
    # Reads inside the class itself (its own validation) do not count.
    classes = {"SolveLimits", "TrainConfig", "GnnConfig", "GenSpec", "AdamState"}
    fields: dict[str, list[str]] = {}
    reads: set[str] = set()
    for path in sorted(pathlib.Path(symilp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                fields[node.name] = [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
                inside |= {id(sub) for sub in ast.walk(node)}
        reads |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside
        }
    assert set(fields) == classes
    unread = [f"{cls}.{name}" for cls, names in sorted(fields.items()) for name in names if name not in reads]
    assert not unread, f"config fields never read in the package: {unread}"


def test_function_parameters_are_read():
    # A parameter that its function never reads is a dead knob, or one left
    # behind by a deletion: passing it changes nothing. Reads in nested
    # functions count, since a closure reads its parameters there.
    unread = []
    for path in sorted(pathlib.Path(symilp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            reads = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{node.lineno} {name}({a.arg})" for a in params if a and a.arg not in reads]
    assert not unread, f"function parameters never read in the package: {unread}"


def test_traced_span_targets_resolve():
    # perfbench's traced run wraps these (module, attribute) pairs by name;
    # a rename in the package would otherwise only fail at trace time.
    spans = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"), filename=str(spans))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"span targets missing from the package: {missing}"
