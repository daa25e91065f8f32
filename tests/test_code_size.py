"""tools/code_size.py: what it counts as a settable value, and the package's
ratchet on that count."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_code_size():
    spec = importlib.util.spec_from_file_location("code_size", ROOT / "tools" / "code_size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_size = _load_code_size()

KINDS = {
    "positional default": ("def f(a, b=1):\n    return a + b\n", 1),
    "keyword-only default": ("def f(a, *, b, c=2):\n    return a + b + c\n", 1),
    "lambda default": ("scale = lambda x, k=3: x * k\n", 1),
    "dataclass fields": (
        "@dataclass\n"
        "class Record:\n"
        "    required: int\n"
        "    plain: int = 0\n"
        "    made: list = field(default_factory=list)\n",
        2,
    ),
    "dataclass called": ("@dataclass(frozen=True)\nclass Spec:\n    a: int\n    b: int = 1\n", 1),
    "NamedTuple fields": ("class Row(NamedTuple):\n    required: int\n    plain: str = ''\n", 1),
    "plain class": ("class Plain:\n    attribute: int = 0\n", 0),
    "command-line options": (
        "parser.add_argument('path')\n"
        "sub.add_argument('--n', type=int, default=1)\n"
        "print('other calls', end='')\n",
        2,
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_settable_values_counts_each_kind_of_default_once(kind):
    source, expected = KINDS[kind]
    assert code_size.settable_values(ast.parse(source)) == expected


def test_settable_values_sums_over_a_module():
    module = "\n".join(source for source, _ in KINDS.values())
    assert code_size.settable_values(ast.parse(module)) == sum(n for _, n in KINDS.values())


def test_package_settable_values_ratchet():
    package = ROOT / "src" / "loadcast"
    total = sum(code_size.measure(path)[2] for path in sorted(package.rglob("*.py")))
    assert total <= 71
