import ast
from pathlib import Path

import amecode
from amecode.cyclo import Cyclotomic
from amecode.linalg import Matrix
from amecode.qecc import CodeSubspace, KLReport
from amecode.tensor import LocalOperator, PureState

# catalog imports qecc inside its builders because qecc imports catalog, and
# kempfness builds its exact reference states on demand, so importing the
# float module loads no exact one
FUNCTION_LOCAL_IMPORTS = [
    ("catalog", "code_332", ".qecc"),
    ("catalog", "code_442", ".qecc"),
    ("kempfness", "critical_state_pool", "."),
    ("kempfness", "critical_state_pool", ".cyclo"),
    ("kempfness", "critical_state_pool", ".tensor"),
]


def test_only_the_cycle_guards_import_inside_functions():
    found = {}
    for path in sorted(Path(amecode.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Import):
                        found[node] = (path.stem, fn.name, node.names[0].name)
                    elif isinstance(node, ast.ImportFrom):
                        found[node] = (path.stem, fn.name,
                                           "." * node.level + (node.module or ""))
    assert sorted(found.values()) == FUNCTION_LOCAL_IMPORTS


def test_only_serialize_knows_the_file_formats():
    # every document is a dict with a "format" key, written in serialize
    writers = set()
    for path in sorted(Path(amecode.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "format" for k in node.keys):
                writers.add(path.stem)
    assert writers == {"serialize"}
    for cls in (Cyclotomic, Matrix, PureState, LocalOperator, CodeSubspace, KLReport):
        assert not hasattr(cls, "to_dict") and not hasattr(cls, "from_dict"), cls


def test_only_linalg_knows_the_integer_tiers():
    # the bounds that choose float64, int64 or Python ints live in linalg;
    # every other module reaches them through _matmul and _scaled
    tiers, users = {"_INT64_SAFE", "_FLOAT_EXACT"}, set()
    for path in sorted(Path(amecode.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.alias)) and name in tiers:
                users.add(path.stem)
    assert users == {"linalg"}
