"""State which bytes differ between two trees of golden files.

    python3 tools/golden_diff.py OLD NEW

For each file that differs between the directories OLD and NEW, it prints what
differs: the JSON paths, with list indices folded to ``[*]``; the CSV cells, by
column, with their line numbers; or the line numbers of any other text file.
Where both sides of a difference are numbers, it adds the largest distance in
units in the last place (ULP) between the two float64 values. The last line
sums up. Exits 0 when the trees are identical and 1 when they differ.
"""

from __future__ import annotations

import csv
import io
import json
import struct
import sys
from collections import defaultdict
from pathlib import Path


def ulp_distance(a: float, b: float) -> int:
    """How many float64 values lie between ``a`` and ``b``, counting ``b``;
    0.0 and -0.0 are the same point."""
    def ordinal(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(ordinal(a) - ordinal(b))


def _number(value):
    """``value`` as a float if it is a JSON number or a numeric CSV cell, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


class Differences:
    """Differing values grouped by where they are: count, lines and largest ULP."""

    def __init__(self):
        self.groups = defaultdict(lambda: {"count": 0, "lines": [], "ulp": None})

    def add(self, where: str, old, new, line=None):
        group = self.groups[where]
        group["count"] += 1
        if line is not None:
            group["lines"].append(line)
        a, b = _number(old), _number(new)
        if a is not None and b is not None:
            group["ulp"] = max(group["ulp"] or 0, ulp_distance(a, b))

    def lines(self):
        for where, group in sorted(self.groups.items()):
            text = f"  {where}: {group['count']} differ"
            if group["lines"]:
                shown = ", ".join(map(str, group["lines"][:5]))
                more = ", ..." if len(group["lines"]) > 5 else ""
                text += f" (line {shown}{more})"
            if group["ulp"] is not None:
                text += f", max {group['ulp']} ULP"
            yield text

    def max_ulp(self):
        return max((g["ulp"] for g in self.groups.values() if g["ulp"] is not None), default=None)


def _diff_json(old, new, path, out: Differences):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}.{key}" if path else key
            if key not in new:
                out.add(where + " (removed)", None, None)
            elif key not in old:
                out.add(where + " (added)", None, None)
            else:
                _diff_json(old[key], new[key], where, out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            _diff_json(a, b, path + "[*]", out)
    elif json.dumps(old) != json.dumps(new):  # as written, so NaN equals NaN
        out.add(path or "(document)", old, new)


def _csv_rows(text):
    """``(line number, cells)`` of each row that is not a ``#`` comment."""
    return [(n, row) for n, row in enumerate(csv.reader(io.StringIO(text)), start=1)
            if not (row and row[0].startswith("#"))]


def _diff_csv(old, new, out: Differences):
    old_rows, new_rows = _csv_rows(old), _csv_rows(new)
    header = old_rows[0][1] if old_rows else []
    if len(old_rows) != len(new_rows):
        out.add("(row count)", len(old_rows), len(new_rows))
    for (line, a), (_, b) in zip(old_rows, new_rows):
        for col in range(max(len(a), len(b))):
            x = a[col] if col < len(a) else None
            y = b[col] if col < len(b) else None
            if x != y:
                name = header[col] if col < len(header) else f"#{col + 1}"
                out.add(f"column {name}", x, y, line)


def _diff_text(old, new, out: Differences):
    a, b = old.splitlines(), new.splitlines()
    for line in range(max(len(a), len(b))):
        x = a[line] if line < len(a) else None
        y = b[line] if line < len(b) else None
        if x != y:
            out.add("lines", x, y, line + 1)


def diff_file(old: Path, new: Path) -> Differences:
    out = Differences()
    old_text, new_text = old.read_text(encoding="utf-8"), new.read_text(encoding="utf-8")
    if old.suffix == ".json":
        _diff_json(json.loads(old_text), json.loads(new_text), "", out)
    elif old.suffix == ".csv":
        _diff_csv(old_text, new_text, out)
    else:
        _diff_text(old_text, new_text, out)
    return out


def golden_diff(old_root: Path, new_root: Path) -> tuple[list[str], bool]:
    """The report's lines, and whether any file differs."""
    files = {p.relative_to(root) for root in (old_root, new_root)
             for p in root.rglob("*") if p.is_file()}
    report, changed, worst = [], 0, None
    for rel in sorted(files):
        old, new = old_root / rel, new_root / rel
        if not old.exists() or not new.exists():
            report.append(f"{rel}: only in {'NEW' if not old.exists() else 'OLD'}")
            changed += 1
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        changed += 1
        report.append(str(rel))
        try:
            found = diff_file(old, new)
        except (UnicodeDecodeError, json.JSONDecodeError):
            report.append("  bytes differ")
            continue
        report.extend(found.lines())
        ulp = found.max_ulp()
        if ulp is not None:
            worst = max(worst or 0, ulp)
    summary = f"{changed} of {len(files)} files differ"
    if worst is not None:
        summary += f"; largest numeric difference {worst} ULP"
    return report + [summary], changed > 0


def main(argv) -> int:
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: python3 tools/golden_diff.py OLD NEW", file=sys.stderr)
        return 2
    report, changed = golden_diff(Path(argv[0]), Path(argv[1]))
    print("\n".join(report))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
