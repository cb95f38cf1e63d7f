"""Package-level contracts: the public namespace, the error hierarchy and the imports."""

import ast
import pathlib
import pickle

import pytest

import gsvkit
from gsvkit import errors

DELETED = ("EigenPair", "SymmetricMatrix", "gram_sum", "max_eigenpair", "rayleigh_quotient")


def test_star_import_matches_all():
    namespace = {}
    exec("from gsvkit import *", namespace)
    assert [name for name in gsvkit.__all__ if name not in namespace] == []
    for name in DELETED:
        assert name not in gsvkit.__all__ and name not in namespace
        assert not hasattr(gsvkit, name)


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


# Classes whose constructor takes more or other than one message.
ARGS = {
    errors.ParseError: ("data.csv", 3, "expected a number"),
    errors.NotSPD: (3,),
    errors.ConstantVector: ("vector is constant", "price"),
}


@pytest.mark.parametrize(
    "cls", [errors.GsvError, *all_subclasses(errors.GsvError)], ids=lambda c: c.__name__
)
def test_every_error_survives_pickling(cls):
    err = cls(*ARGS.get(cls, ("boom",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err) and back.args == err.args
    assert vars(back) == vars(err)
    assert back.exit_code == err.exit_code


def imported_but_unused(source):
    """Names a module imports and neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_detector():
    source = "import os\nimport numpy as np\nfrom . import errors\n__all__ = ['errors']\nnp.pi\n"
    assert imported_but_unused(source) == ["os"]


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(gsvkit.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert imported_but_unused(path.read_text(encoding="utf-8")) == []
