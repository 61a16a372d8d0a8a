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


def test_no_indented_json_dumps():
    # every --format json goes through jsonout.write_json, or for intdep through
    # DependenceRelation.write_json, which keep the bytes of json.dumps(indent=2)
    # and stream them
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert found == []


def test_the_certificate_reaches_no_expansion():
    # verify_identity checks the printed relation, so it builds its own Q and R
    # and never the products it is checking
    tree = ast.parse((SRC / "intdep.py").read_text())
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), ["verify_identity"]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        todo += [getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(defs[name])
                 if isinstance(node, (ast.Name, ast.Attribute))]
    assert "_mul" in seen and not seen & {"dependence_relation", "_power_product"}
