"""What the benchmark tooling under perfbench/ assumes about the package.

`perfbench/tracing.py` names loopalg's modules and functions as strings, so
a rename or deletion in `src/` would otherwise surface only in a traced
benchmark run. A loader that imports two copies of the package side by side
under different names needs every import inside it to be relative.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import loopalg

PACKAGE_DIR = Path(loopalg.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_imports_itself_only_relatively():
    absolute = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name == "loopalg" or name.startswith("loopalg.")
            ]
    assert not absolute


def test_traced_names_resolve():
    tracing = _load_tracing()
    for name in tracing.MODULES:
        importlib.import_module(f"loopalg.{name}")
    for key in tracing.Tracer(loopalg).hooks:
        module, *path = key.split(".")
        assert module in tracing.MODULES, key
        obj = importlib.import_module(f"loopalg.{module}")
        for attr in path:
            assert attr in vars(obj), key
            obj = vars(obj)[attr]
        assert callable(obj), key
