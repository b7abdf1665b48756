import ast
from pathlib import Path

import mbsp

PACKAGE = Path(mbsp.__file__).resolve().parent


def test_package_imports_itself_only_relatively():
    # a second tree of the package under another name (a base revision
    # beside the working one) loads only while no module names `mbsp`
    absolute = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [(path.name, name) for name in names if name.split(".")[0] == "mbsp"]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert absolute == []
