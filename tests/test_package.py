"""Package-level contracts: the public namespace, the error hierarchy and the imports."""

import ast
import dataclasses
import pathlib
import pickle

import pytest

import gsvkit
from gsvkit import errors

DELETED = ("CriticalSystem", "EigenPair", "StatVector", "SymmetricMatrix", "build_density",
           "critical_residual", "gram_sum", "gsv_solve_2col_equalnorm", "max_eigenpair",
           "rayleigh_quotient", "snv_pair_identities", "standardize")
DELETED_ERRORS = ("ColumnNormMismatch", "LengthMismatch", "WrongShape", "ZeroVector")
# Members of a public class, looked up on the class and among its dataclass fields.
DELETED_MEMBERS = {"DensityModel": ("apply",),
                   "StatMatrix": ("col_means", "col_stds", "from_standardized")}


def test_star_import_matches_all():
    namespace = {}
    exec("from gsvkit import *", namespace)
    assert [name for name in gsvkit.__all__ if name not in namespace] == []
    for name in DELETED:
        assert name not in gsvkit.__all__ and name not in namespace
        assert not hasattr(gsvkit, name)
    for name in DELETED_ERRORS:
        assert not hasattr(errors, name)


def test_deleted_class_members_stay_deleted():
    for owner, members in DELETED_MEMBERS.items():
        cls = getattr(gsvkit, owner)
        fields = [f.name for f in dataclasses.fields(cls)]
        for name in members:
            assert not hasattr(cls, name) and name not in fields, (owner, name)
    assert [f.name for f in dataclasses.fields(gsvkit.StatMatrix)] == ["data"]


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


# Classes whose constructor takes more or other than one message.
ARGS = {
    errors.ParseError: ("data.csv", 3, "expected a number"),
    errors.NotSPD: (3,),
    errors.ConstantVector: ("vector is constant", "price"),
    errors.ShapeMismatch: ("matrix 2 has 3 columns, expected 2", 2),
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


def unread_parameters(source):
    """``function(parameter)`` for each parameter of a function or lambda that its body never
    reads (a nested function's read counts), ``self`` and ``cls`` apart."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({p})" for p in params if p not in read]
    return unread


def test_unread_parameter_detector():
    source = (
        "def f(self, a, b=1, *args, c, **kw):\n    a = b\n    return args, kw\n"
        "def g(x, y):\n    def h():\n        return x\n    return h\n"
        "k = lambda u, v: u\n"
        "class C:\n    @classmethod\n    def m(cls, z):\n        pass\n"
    )
    assert unread_parameters(source) == ["f(a)", "f(c)", "g(y)", "<lambda>(v)", "m(z)"]


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(gsvkit.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def private_definitions(source):
    """Module-level ``_name`` functions, classes and assigned names (dunders apart)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def unread_private_names(sources):
    """``module:_name`` for each private definition that no module loads, imports or reads as
    an attribute; ``sources`` maps each module's name to its source."""
    used = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return sorted(f"{module}:{name}" for module, source in sources.items()
                  for name in private_definitions(source) if name not in used)


def test_unread_private_name_detector():
    sources = {
        "a": "__all__ = []\n_T = 1\n_U: int = 2\n_V, _W = 3, 4\n"
             "def _f():\n    return _U\ndef _g():\n    pass\nclass _C:\n    _x = 5\n",
        "b": "from .a import _f\nfrom . import a\na._C\n_T_copy = 0\n_V = 6\n",
    }
    assert unread_private_names(sources) == ["a:_T", "a:_V", "a:_W", "a:_g", "b:_T_copy", "b:_V"]


def test_every_private_name_is_read():
    paths = sorted(pathlib.Path(gsvkit.__file__).parent.glob("*.py"))
    sources = {p.name: p.read_text(encoding="utf-8") for p in paths}
    assert any(private_definitions(s) for s in sources.values())
    assert unread_private_names(sources) == []


def error_family(errors_source):
    """``GsvError`` and the subclasses of it that ``errors_source`` defines."""
    family = {"GsvError"}
    for node in ast.parse(errors_source).body:  # a subclass is defined after its base
        if isinstance(node, ast.ClassDef) and any(
            getattr(b, "id", None) in family for b in node.bases
        ):
            family.add(node.name)
    return family


def unraised_error_classes(errors_source, sources):
    """Subclasses of ``GsvError`` defined in ``errors_source`` that no ``raise`` in ``sources``
    (module name to source) names, whether it raises the class or an instance of it."""
    family = error_family(errors_source)
    raised = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return sorted(family - raised - {"GsvError"})


def test_unraised_error_class_detector():
    errors_source = (
        "class GsvError(Exception):\n    pass\n"
        "class A(GsvError):\n    pass\nclass B(A):\n    pass\n"
        "class C(GsvError):\n    pass\nclass D(GsvError):\n    pass\n"
        "class Other(Exception):\n    pass\n"
    )
    sources = {"m": "raise A('x')\ndef f():\n    raise errors.C\nraise type(e)('y')\n"}
    assert unraised_error_classes(errors_source, sources) == ["B", "D"]


def test_every_error_class_is_raised():
    paths = sorted(pathlib.Path(gsvkit.__file__).parent.glob("*.py"))
    sources = {p.name: p.read_text(encoding="utf-8") for p in paths}
    assert unraised_error_classes(sources["errors.py"], sources) == []


def constructed_errors(source, family):
    """``(line, class)`` for each call in ``source`` that constructs a class of ``family``, by its
    name or as an attribute (``errors.ParseError(...)``), raised or not."""
    return sorted(
        (node.lineno, name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in family
    )


def misplaced_errors(sources, family):
    """``module:line:class`` for each ParseError constructed outside ``matrix_io.py``, the one
    parser that knows a file's lines, and each GsvError class constructed in ``cli.py``, which
    passes what it reads to the library and lets the library name the fault."""
    return [f"{module}:{line}:{cls}" for module, source in sorted(sources.items())
            for line, cls in constructed_errors(source, family)
            if module == "cli.py" or (cls == "ParseError" and module != "matrix_io.py")]


def test_misplaced_error_detector():
    family = error_family(
        "class GsvError(Exception):\n    pass\nclass ParseError(GsvError):\n    pass\n"
        "class ShapeMismatch(GsvError):\n    pass\n"
    )
    sources = {
        "matrix_io.py": "raise ParseError(path, 3, 'x')\n",
        "gsv_solver.py": "raise ShapeMismatch('y')\nraise errors.ParseError(path, 1, 'z')\n",
        "cli.py": "try:\n    f()\nexcept GsvError:\n    raise\n"
                  "err = ShapeMismatch('w')\nraise ParseError(path, 1, 'v')\n",
    }
    assert misplaced_errors(sources, family) == [
        "cli.py:5:ShapeMismatch", "cli.py:6:ParseError", "gsv_solver.py:2:ParseError"]


def test_parse_errors_come_from_matrix_io_and_the_cli_raises_none():
    paths = sorted(pathlib.Path(gsvkit.__file__).parent.glob("*.py"))
    sources = {p.name: p.read_text(encoding="utf-8") for p in paths}
    family = error_family(sources["errors.py"])
    assert any(cls == "ParseError" for _, cls in constructed_errors(sources["matrix_io.py"], family))
    assert misplaced_errors(sources, family) == []


def bare_value_errors(source):
    """Lines of the ``raise`` statements in ``source`` that raise ``ValueError`` itself, the class
    or an instance: a check's error should be a GsvError, which the CLI maps to an exit code."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and node.exc is not None
        and getattr(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, "id", None)
        == "ValueError"
    )


def test_bare_value_error_detector():
    source = (
        "def f(k):\n    if k < 1:\n        raise ValueError(f'k = {k}')\n"
        "    raise errors.ArgumentOutOfRange('k')\n"
        "try:\n    f(0)\nexcept ValueError:\n    raise\nraise ValueError\n"
    )
    assert bare_value_errors(source) == [3, 9]
    # a range check put back as a bare ValueError is found where it stands
    path = pathlib.Path(gsvkit.__file__).parent / "density_model.py"
    mutated = path.read_text(encoding="utf-8").replace(
        "raise ArgumentOutOfRange(", "raise ValueError(", 1)
    lines = mutated.splitlines()
    assert [lines[n - 1].strip()[:17] for n in bare_value_errors(mutated)] == ["raise ValueError("]


def test_no_module_raises_a_bare_value_error():
    paths = sorted(pathlib.Path(gsvkit.__file__).parent.glob("*.py"))
    found = {p.name: bare_value_errors(p.read_text(encoding="utf-8")) for p in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}


# The one float cast of a caller's array, and the CSV parse of strings to floats.
FLOAT_CAST_OWNERS = {"spectra_core.py": "_real", "matrix_io.py": "_parse_body"}
FLOAT_NAMES = {"float", "float64", "double", "f8"}


def is_float(node):
    name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "value", None)
    return name in FLOAT_NAMES


def float_casts(source, owner=None):
    """Lines of the calls that pass ``dtype=float`` or call ``.astype(float)``, outside ``owner``."""
    tree = ast.parse(source)
    spans = [(f.lineno, f.end_lineno) for f in ast.walk(tree)
             if isinstance(f, ast.FunctionDef) and f.name == owner]
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (any(k.arg == "dtype" and is_float(k.value) for k in node.keywords)
             or (getattr(node.func, "attr", None) == "astype" and node.args
                 and is_float(node.args[0])))
        and not any(start <= node.lineno <= end for start, end in spans)
    )


def test_float_cast_detector():
    source = (
        "def _real(a):\n    return np.asarray(a, dtype=float)\n"
        "def f(a):\n    b = np.array(a, dtype=np.float64)\n    return a.astype('f8') + b\n"
        "c = np.zeros(3, dtype=int).astype(float)\n"
    )
    assert float_casts(source, "_real") == [4, 5, 6]
    assert float_casts(source) == [2, 4, 5, 6]


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(gsvkit.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_array_enters_through_the_one_float_cast(path):
    source = path.read_text(encoding="utf-8")
    assert float_casts(source, FLOAT_CAST_OWNERS.get(path.name)) == []


def lapack_imports(source):
    """``(line, allowed)`` for each import of scipy or of numpy's ``linalg._umath_linalg`` in
    ``source``.  Of scipy, only ``from scipy.linalg import lapack`` inside a function body is
    allowed: scipy is reached through its LAPACK wrappers alone, loaded on first use, so
    ``import gsvkit`` loads no scipy."""
    tree = ast.parse(source)
    in_functions = {id(n) for f in ast.walk(tree)
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            lapack = isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg" and [
                (a.name, a.asname) for a in node.names] == [("lapack", None)]
            found.append((node.lineno, lapack and id(node) in in_functions))
        elif any(m.startswith("numpy.linalg._umath_linalg") for m in modules):
            found.append((node.lineno, True))
    return sorted(found)


def test_scipy_import_detector():
    source = (
        "from scipy.linalg import lapack\nimport scipy\n"
        "def f():\n    from scipy.linalg import lapack\n"
        "    from scipy.linalg import solve_triangular\n    from scipy.linalg import lapack as lp\n"
        "    import scipy.linalg.lapack\n    import numpy, scipypy\n"
        "class C:\n    from scipy import linalg\n"
        "from numpy.linalg._umath_linalg import eigh_lo\nimport numpy.linalg._umath_linalg as u\n"
        "from numpy.linalg import eigh\n"
    )
    assert lapack_imports(source) == [(1, False), (2, False), (4, True), (5, False), (6, False),
                                      (7, False), (10, False), (11, True), (12, True)]


def test_scipy_is_reached_through_its_lapack_module_alone():
    # scipy and numpy's eigh kernel are imported in gsvkit/_lapack.py alone, the one LAPACK seam
    paths = sorted(pathlib.Path(gsvkit.__file__).parent.glob("*.py"))
    found = {p.name: lapack_imports(p.read_text(encoding="utf-8")) for p in paths}
    assert {name: lines for name, lines in found.items()
            if any(not allowed for _, allowed in lines)} == {}
    assert sorted(name for name, lines in found.items() if lines) == ["_lapack.py"]
