"""No float power in the package outside the product chain of ``evaluate_term``.

numpy's ``pow`` takes a scalar route for any array that holds a negative
value, tens of times slower than a product, and its vector and scalar
routes round differently. So every ``**`` in ``src/sitelasso`` must have a
literal base (``2.0**53``, ``10**8``) or the literal exponent 2, which numpy
computes as ``x*x``; ``np.power`` and ``pow`` are not called at all. Each
module is parsed with ``ast``, as in ``test_imports.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sitelasso"
MODULES = sorted(PACKAGE.glob("*.py"))
POWER_CALLS = {"pow", "power", "float_power"}


def is_square(exponent):
    return isinstance(exponent, ast.Constant) and type(exponent.value) is int and exponent.value == 2


def power_uses(tree):
    """Line of each ``**`` or power call that may take numpy's ``pow`` route."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if not isinstance(node.left, ast.Constant) and not is_square(node.right):
                yield node.lineno
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            if not is_square(node.value):
                yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in POWER_CALLS:
                yield node.lineno


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name) for p in MODULES])
def test_no_power_outside_the_product_chain(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = list(power_uses(tree))
    assert not lines, f"{path.name}: powers on lines {lines}; write them as products"


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("norms = np.sqrt((centered**2).sum())", False),
        ("m = frac * 2.0**53", False),
        ("top = d // 10**8", False),
        ("table = [5**k for k in range(21)]", False),
        ("values = base**term.order", True),
        ("cube = x**3", True),
        ("half = x**2.0", True),
        ("x **= 3", True),
        ("x **= 2", False),
        ("y = np.power(x, 3)", True),
        ("y = pow(x, 3)", True),
    ],
)
def test_the_guard_flags_exactly_the_pow_routes(source, flagged):
    assert bool(list(power_uses(ast.parse(source)))) == flagged
