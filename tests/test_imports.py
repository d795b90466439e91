"""Every import of the package inside it is relative, so the source tree
loads under any package name: two trees can be imported side by side, for
example to compare a change against its parent in one process."""

import ast
from pathlib import Path

import rgbtseg


def test_every_import_of_the_package_inside_it_is_relative():
    root = Path(rgbtseg.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 1
    absolute = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.relative_to(root)}:{node.lineno} imports {name}"
                         for name in names if name.split(".")[0] == "rgbtseg"]
    assert absolute == []
