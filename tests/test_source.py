import ast
from pathlib import Path

import gaussmanin

SRC = Path(gaussmanin.__file__).parent


def test_no_plain_assert_outside_selftest():
    # an assert vanishes under python -O; checks outside selftest raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "selftest.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
