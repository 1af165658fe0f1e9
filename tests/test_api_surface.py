"""Every public module-level function and class of talbot_lab has a caller
in the package itself: a name that only tests reach is dead weight.  Every
default a public function or dataclass offers is set by some call: a setting
no call sets is a knob nothing covers."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "talbot_lab"
CALL_SITES = ("src", "tests", "perfbench")

# Public names whose callers in src/ are scheduled, each with its ROADMAP item.
SCHEDULED = {
    "make_blowup_ladder": "ROADMAP item 3: the blow-up trajectory sweep in claims",
    "blowup_trajectory": "ROADMAP item 3: the blow-up trajectory sweep in claims",
    "trajectory_growth_fit": "ROADMAP item 3: the blow-up trajectory sweep in claims",
    "audit_separated_maximal": "ROADMAP item 2: maximality audits of uncapped families",
}

# Settings that calls do set, but not by name: the CLI dispatches every runner
# as RUNNERS[experiment](cfg, jobs).
DISPATCHED = {
    f"experiments/{name}.py: run(jobs)"
    for name in ("claims", "dimension", "evolve", "gauss", "maximal")
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


def _public_api_without_caller() -> list[str]:
    definitions = []  # (module, statement index, name)
    references = []  # (module, statement index, names read there)
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for index, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                definitions.append((module, index, stmt.name))
            references.append((module, index, _referenced_names(stmt)))
    return [
        f"{module}: {name}"
        for module, index, name in definitions
        if not any(
            name in names
            for ref_module, ref_index, names in references
            if (ref_module, ref_index) != (module, index)
        )
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


def _defaulted_settings() -> list[tuple[str, str, str, int | None]]:
    """(module, callable, setting, position) for every parameter with a default
    of a public function, and every plain-default field of a public dataclass;
    position is None where the setting is keyword-only."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            if isinstance(stmt, ast.FunctionDef):
                args = stmt.args.posonlyargs + stmt.args.args
                first = len(args) - len(stmt.args.defaults)
                out += [(module, stmt.name, a.arg, i) for i, a in enumerate(args) if i >= first]
                out += [(module, stmt.name, a.arg, None)
                        for a, d in zip(stmt.args.kwonlyargs, stmt.args.kw_defaults)
                        if d is not None]
            elif _is_dataclass(stmt):
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
        if not any(_sets(call, setting, position) for call in calls.get(name, []))
    ]


def test_every_default_is_set_by_some_call():
    unset = [entry for entry in _settings_without_caller() if entry not in DISPATCHED]
    assert unset == []


def test_dispatched_settings_are_still_defaults():
    # a runner setting that a named call starts to pass leaves the allowlist
    assert DISPATCHED <= set(_settings_without_caller())
