"""Package-level contracts: the public namespace and the error hierarchy."""

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
