"""Every public module-level function and class of talbot_lab, and every
public method and property of a public class, has a caller in the package
itself: a name that only tests reach is dead weight.  Every default a public
function, method or dataclass offers is set by some call in the program or
its benchmark: a setting that only tests turn is a knob no run covers.
What an exact integer or modulus is, expsum alone decides, and the offset
window counterexample alone.  Every function the benchmark traces exists
under its traced name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "talbot_lab"
CALL_SITES = ("src", "perfbench")

# Public names whose callers in src/ are scheduled, each with its ROADMAP item.
SCHEDULED = {
    "audit_separated_maximal": "ROADMAP item 2: maximality audits of uncapped families",
}

# Settings that only tests set, each with the reason it stays.
ALLOWED_SETTINGS = {
    "fractal.py: build_nested_levels(max_children)": "ROADMAP item 2: uncapped nested builds",
    "fractal.py: build_nested_levels(retain)": "ROADMAP item 2: uncapped nested builds",
}


def _referenced_names(node: ast.AST) -> set[str]:
    """Names read inside node, as bare names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _is_public(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield str(path.relative_to(SRC)), ast.parse(path.read_text(encoding="utf-8"))


def _sites(matches) -> set[tuple[str, str | None]]:
    """(module, innermost enclosing function or None) of every node where matches holds."""
    out = set()

    def visit(module, node, function):
        if matches(node):
            out.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(module, child, child.name if isinstance(child, ast.FunctionDef) else function)

    for module, tree in _modules():
        visit(module, tree, None)
    return out


def test_expsum_owns_the_integer_rule():
    # one helper converts exact integers and one bounds a modulus; a second
    # copy anywhere else could drift from them
    index = _sites(lambda n: isinstance(n, ast.Attribute) and n.attr == "index"
                   and getattr(n.value, "id", None) == "operator")
    limit = _sites(lambda n: isinstance(n, ast.Compare)
                   and "MODULUS_LIMIT" in _referenced_names(n))
    assert index == {("expsum.py", "_integers")}
    assert limit == {("expsum.py", "_modulus")}


def test_counterexample_owns_the_offset_window():
    # the offset window (c1, c2) = (1/200, 1/100) is written once, as the
    # CounterexampleParams defaults; the config and the nested twins read it
    def window_call(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"
                and [getattr(a, "value", None) for a in node.args] in ([1, 200], [1, 100]))

    assert {module for module, _ in _sites(window_call)} == {"counterexample.py"}


def test_every_traced_function_exists():
    # the benchmark reads a traced function's counters by name and reports 0
    # for a name nothing calls, so a rename or fold would go unseen there
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    (table,) = [node.value for node in run.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
    traced = [key.value for key in table.keys]  # "layer.function"
    public = {f"{module.removesuffix('.py')}.{stmt.name}" for module, tree in _modules()
              for stmt in tree.body if _is_public(stmt) and isinstance(stmt, ast.FunctionDef)}
    assert traced
    assert [name for name in traced if name not in public] == []


def _public_api_without_caller() -> list[str]:
    """Public names that no other part of src/ reads.  Code is split into
    units keyed by their place: a top-level statement is (module, index),
    and each statement of a public class body is (module, index, member).
    A name has a caller when a unit outside the one defining it reads it."""
    definitions = []  # (module, qualified name, name, key)
    units = []  # (key, names read there)
    for module, tree in _modules():
        for index, stmt in enumerate(tree.body):
            key = (module, index)
            if not _is_public(stmt):
                units.append((key, _referenced_names(stmt)))
                continue
            definitions.append((module, stmt.name, stmt.name, key))
            if isinstance(stmt, ast.FunctionDef):
                units.append((key, _referenced_names(stmt)))
                continue
            header = stmt.decorator_list + stmt.bases + stmt.keywords
            units.append((key, set().union(*map(_referenced_names, header))))
            for member_index, member in enumerate(stmt.body):
                member_key = key + (member_index,)
                if _is_public(member) and isinstance(member, ast.FunctionDef):
                    definitions.append(
                        (module, f"{stmt.name}.{member.name}", member.name, member_key))
                units.append((member_key, _referenced_names(member)))
    return [
        f"{module}: {qualified}"
        for module, qualified, name, key in definitions
        if not any(name in names for unit, names in units if unit[: len(key)] != key)
    ]


def test_every_public_name_has_a_caller_in_src():
    orphans = [entry for entry in _public_api_without_caller()
               if entry.split(": ")[1] not in SCHEDULED]
    assert orphans == []


def test_scheduled_names_still_lack_a_caller():
    # once a scheduled name gains its caller, it leaves the allowlist
    orphans = {entry.split(": ")[1] for entry in _public_api_without_caller()}
    assert set(SCHEDULED) <= orphans


def _is_dataclass(stmt: ast.ClassDef) -> bool:
    return any(
        getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"
        for dec in stmt.decorator_list
    )


def _is_field_call(value: ast.expr | None) -> bool:
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field")


def _is_staticmethod(fn: ast.FunctionDef) -> bool:
    return any(getattr(dec, "id", None) == "staticmethod" for dec in fn.decorator_list)


def _parameter_defaults(module: str, label: str, fn: ast.FunctionDef, skip: int):
    """(module, label, setting, position) for every defaulted parameter of
    fn, positions counted after the first skip parameters (self or cls);
    position is None where the setting is keyword-only."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    out = [(module, label, a.arg, i - skip) for i, a in enumerate(args) if i >= first]
    out += [(module, label, a.arg, None)
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _defaulted_settings() -> list[tuple[str, str, str, int | None]]:
    """(module, callable, setting, position) for every parameter with a default
    of a public function or of a public method of a public class, and every
    plain-default field of a public dataclass; a method's callable is
    Class.method."""
    out = []
    for module, tree in _modules():
        for stmt in filter(_is_public, tree.body):
            if isinstance(stmt, ast.FunctionDef):
                out += _parameter_defaults(module, stmt.name, stmt, 0)
                continue
            for member in filter(_is_public, stmt.body):
                if isinstance(member, ast.FunctionDef):
                    skip = 0 if _is_staticmethod(member) else 1
                    out += _parameter_defaults(module, f"{stmt.name}.{member.name}", member, skip)
            if _is_dataclass(stmt):
                fields = [s for s in stmt.body if isinstance(s, ast.AnnAssign)
                          and not (_is_field_call(s.value) and any(
                              k.arg == "init" for k in s.value.keywords))]
                out += [(module, stmt.name, f.target.id, i) for i, f in enumerate(fields)
                        if f.value is not None and not _is_field_call(f.value)]
    return out


def _calls_by_name() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for top in CALL_SITES:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, setting: str, position: int | None) -> bool:
    """Whether call passes setting, by keyword or by position; a *args or
    **kwargs splat counts as passing everything it could."""
    if any(k.arg in (setting, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return position is not None
    return position is not None and len(call.args) > position


def _settings_without_caller() -> list[str]:
    calls = _calls_by_name()
    return [
        f"{module}: {name}({setting})"
        for module, name, setting, position in _defaulted_settings()
        if not any(_sets(call, setting, position)
                   for call in calls.get(name.rpartition(".")[2], []))
    ]


def test_every_default_is_set_by_some_call():
    unset = [entry for entry in _settings_without_caller() if entry not in ALLOWED_SETTINGS]
    assert unset == []


def test_allowed_settings_are_still_unset():
    # once a program call sets an allowed setting, it leaves the allowlist
    assert set(ALLOWED_SETTINGS) <= set(_settings_without_caller())
