"""Static checks over the source of src/caco/*.py."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "caco").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"imported but never used: {unused}"


def _nodes_outside(functions):
    """(file name, node) for every node of src/caco/*.py outside every def named in the
    tuple functions (empty: anywhere)."""
    for path in SOURCES:
        tree = _tree(path)
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name in functions
                   for node in ast.walk(fn)}
        yield from ((path.name, node) for node in ast.walk(tree) if id(node) not in allowed)


def _attributes_outside(functions, module, attrs):
    """Attribute nodes of src/caco/*.py, for each attr in attrs, outside every def named in
    the tuple functions (empty: anywhere); only attributes of the name `module`, unless
    module is None."""
    return [f"{name}:{node.lineno} .{node.attr}" for name, node in _nodes_outside(functions)
            if isinstance(node, ast.Attribute) and node.attr in attrs
            and (module is None or isinstance(node.value, ast.Name) and node.value.id == module)]


def test_np_integer_appears_only_inside_is_integer():
    # the one integer predicate: every other check calls is_integer or check_integers
    stray = _attributes_outside(("is_integer",), "np", ("integer",))
    assert not stray, f"np.integer outside is_integer: {stray}"


def test_math_isfinite_and_inf_appear_only_inside_is_real():
    # the one real predicate: every other scalar check calls is_real or check_reals
    stray = _attributes_outside(("is_real",), "math", ("isfinite", "inf"))
    assert not stray, f"math.isfinite or math.inf outside is_real: {stray}"


def test_np_linalg_appears_nowhere():
    # the one row normaliser: every unit row comes from autodiff.unit_normalize
    stray = _attributes_outside((), "np", ("linalg",))
    assert not stray, f"np.linalg in src/caco: {stray}"


def test_a_dtype_kind_test_appears_only_inside_as_label_array():
    # the one label-block check: every other label check calls as_label_array or is_label
    stray = _attributes_outside(("as_label_array",), None, ("kind",))
    assert not stray, f".kind outside as_label_array: {stray}"


def test_as_tensor_appears_only_where_arrays_enter_the_tape():
    # records take the step's Tensors; only the encoder record (row arrays, and embed's
    # parameter arrays) and info_nce (caco gradcheck's array keys) wrap arrays
    stray = [f"{name}:{node.lineno}" for name, node in _nodes_outside(("normalized_mlp", "info_nce"))
             if isinstance(node, ast.Name) and node.id == "as_tensor"
             or isinstance(node, ast.Attribute) and node.attr == "as_tensor"]
    assert not stray, f"as_tensor outside normalized_mlp and info_nce: {stray}"


def test_np_log_appears_only_inside_the_three_log_losses():
    # no third log-sum-exp: a new softmax loss is a group of grouped_nll or a mean_nll
    stray = _attributes_outside(("mean_nll", "grouped_nll", "prediction_entropy"), "np", ("log",))
    assert not stray, f"np.log outside mean_nll, grouped_nll and prediction_entropy: {stray}"


def test_row_block_appears_only_inside_normalized_mlp():
    # one encoder forward: encode and embed both run normalized_mlp's blocks of rows
    stray = _attributes_outside(("normalized_mlp",), None, ("ROW_BLOCK",))
    for name, node in _nodes_outside(("normalized_mlp",)):
        if isinstance(node, ast.Name) and node.id == "ROW_BLOCK" and isinstance(node.ctx, ast.Load):
            stray.append(f"{name}:{node.lineno} {node.id}")
        elif isinstance(node, ast.ImportFrom):
            stray += [f"{name}:{node.lineno} import {a.name}" for a in node.names
                      if a.name == "ROW_BLOCK"]
    assert not stray, f"ROW_BLOCK outside normalized_mlp: {stray}"


def test_model_has_no_matrix_product():
    # one affine map: every layer of the model computes through caco.autodiff
    tree = _tree(SOURCES[0].parent / "model.py")
    stray = [f"model.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert not stray, f"a matrix product (@) in model.py: {stray}"


def test_checkpoint_array_names_are_spelled_only_inside_array_layout():
    # one checkpoint layout: save_checkpoint and load_checkpoint take every array
    # name from _array_layout and every tensor from _tensors, in the same order
    stray = []
    for name, node in _nodes_outside(("_array_layout",)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"(query|key)\.[wb]\d+|classifier\.(weight|bias)", node.value):
            stray.append(f"{name}:{node.lineno} {node.value!r}")
        elif isinstance(node, ast.JoinedStr) and any(
                isinstance(part, ast.Constant) and re.search(r"\.[wb](\d|$)", part.value)
                for part in node.values):
            stray.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert not stray, f"checkpoint array names outside _array_layout: {stray}"


def test_package_init_is_only_its_docstring():
    # one import path per name: each is imported from its own module, never through caco
    tree = _tree(SOURCES[0].parent / "__init__.py")
    assert ast.get_docstring(tree)
    stray = [f"__init__.py:{node.lineno} {type(node).__name__}" for node in tree.body[1:]]
    assert not stray, f"statements besides the docstring: {stray}"


def test_version_string_appears_nowhere():
    # pyproject.toml's version is the one version string
    stray = [path.name for path in SOURCES if "__version__" in path.read_text()]
    assert not stray, f"__version__ in src/caco: {stray}"


def test_modulo_appears_in_dictionary_only_inside_enqueue_and_newest():
    # the one slot formula: a read's slots come from _newest, and enqueue keeps its write slot
    tree = _tree(SOURCES[0].parent / "dictionary.py")
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name in ("enqueue", "_newest")
               for node in ast.walk(fn)}
    stray = [f"dictionary.py:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)
                 or isinstance(node, ast.Attribute) and node.attr in ("mod", "remainder", "fmod")
                 or isinstance(node, ast.Name) and node.id == "divmod")
             and id(node) not in allowed]
    assert not stray, f"a modulo outside enqueue and _newest: {stray}"
