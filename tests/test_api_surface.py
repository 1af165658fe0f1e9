"""Every public module-level function and class of talbot_lab has a caller
in the package itself: a name that only tests reach is dead weight."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "talbot_lab"

# Public names whose callers in src/ are scheduled, each with its ROADMAP item.
SCHEDULED = {
    "make_blowup_ladder": "ROADMAP item 3: the blow-up trajectory sweep in claims",
    "blowup_trajectory": "ROADMAP item 3: the blow-up trajectory sweep in claims",
    "trajectory_growth_fit": "ROADMAP item 3: the blow-up trajectory sweep in claims",
    "audit_separated_maximal": "ROADMAP item 2: maximality audits of uncapped families",
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
