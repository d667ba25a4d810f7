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


def test_only_oracle_imports_private_scipy_modules():
    # A private scipy module (oracle's scipy.optimize._highspy) may change
    # in any release; one module holds that dependency.
    found = []
    for path in sorted(pathlib.Path(symilp.__file__).parent.glob("*.py")):
        if path.stem == "oracle":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] == "scipy" and any(part.startswith("_") for part in name.split("."))
            ]
    assert not found, f"private scipy imports outside oracle: {found}"


def test_no_module_reads_another_modules_private_names():
    # A leading underscore marks a name as its module's own; another module
    # that reads it couples to an implementation detail.
    modules = {path.stem for path in pathlib.Path(symilp.__file__).parent.glob("*.py")}
    found = []
    for path in sorted(pathlib.Path(symilp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        aliases[alias.asname or alias.name] = alias.name
                    elif node.module in modules and alias.name.startswith("_"):
                        found.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, path.stem) != path.stem
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                found.append(f"{path.name}:{node.lineno} {aliases[node.value.id]}.{node.attr}")
    assert not found, f"private names read across modules: {found}"


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


# Names that nothing in the package reads, kept for a stated contract.
KEPT_UNREFERENCED = {
    "instance.apply_solution_permutation": "acceptance criterion 3",
    "net.sample_loss": "acceptance criterion 4",
    "train.risk_symaware": "acceptance criterion 5",
    "perm.inverse": "acceptance criteria 1-3",
    "perm.enumerate_symmetric": "acceptance criteria 1-3",
    "oracle.brute_force": "acceptance criterion 9",
    "evalx.top_m_error": "acceptance criteria 7 and 10",
    "train.risk_classic": "a perfbench span",
    "train.aligned_risk": "a perfbench span",
    "oracle.lp_relax": "the linprog reference for the solver's HiGHS model",
    "perm.Permutation.apply": "the action that test_perm checks compose against",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node, is member) for every top-level function, class
    and constant, and every method, property and class constant; dunders
    are called implicitly and left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id, node, False
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            names = []
            if isinstance(member, ast.FunctionDef):
                names = [member.name]
            elif isinstance(member, ast.Assign):
                names = [t.id for t in member.targets if isinstance(t, ast.Name)]
            for name in names:
                yield f"{module}.{node.name}.{name}", name, member, True


def test_every_name_is_referenced():
    # A function, class, method or constant that nothing in the package
    # reads is dead code, unless KEPT_UNREFERENCED names its contract.
    # Top-level names count as read by a bare or a qualified load, members
    # only by an attribute load; loads inside the definition do not count.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(pathlib.Path(symilp.__file__).parent.glob("*.py"))
    }
    loads = []  # (name, node id, is attribute)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((node.id, id(node), False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((node.attr, id(node), True))
    unread, found = [], set()
    for module, tree in trees.items():
        for qualname, name, node, is_member in _definitions(module, tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            found.add(qualname)
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(n == name and i not in inside and (attr or not is_member) for n, i, attr in loads):
                unread.append(qualname)
    assert set(KEPT_UNREFERENCED) <= found, f"kept names not defined: {set(KEPT_UNREFERENCED) - found}"
    stale = set(KEPT_UNREFERENCED) - set(unread)
    assert not stale, f"kept names that the package now reads: {sorted(stale)}"
    dead = sorted(set(unread) - set(KEPT_UNREFERENCED))
    assert not dead, f"names nothing in the package reads: {dead}"
