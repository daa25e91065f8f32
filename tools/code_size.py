"""Print the size of the ``loadcast`` package: three figures a simplification
is judged by.

    python3 tools/code_size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the ``src/loadcast`` of the checkout that holds this
script. It prints the figures of each ``*.py`` file below it, then their sums:

- lines: non-blank lines whose first non-space character is not ``#``
  (docstrings count);
- physical: every line;
- settable: parameters with a default (positional and keyword-only, of
  functions, methods and lambdas), fields with a default in ``@dataclass``
  and ``NamedTuple`` classes, and command-line options (each ``add_argument``
  call).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_record_class(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
               for base in node.bases)


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_record_class(node):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            count += 1
    return count


def measure(path: Path) -> tuple[int, int, int]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    code = sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))
    return code, len(lines), settable_values(ast.parse(text, filename=str(path)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "loadcast"
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    totals = [0, 0, 0]
    for path in files:
        sizes = measure(path)
        totals = [t + s for t, s in zip(totals, sizes)]
        print(f"{path.relative_to(root)}: lines {sizes[0]}, physical {sizes[1]}, "
              f"settable {sizes[2]}")
    print(f"lines {totals[0]}")
    print(f"physical {totals[1]}")
    print(f"settable {totals[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
