"""The immutable records built on `matrices.Value`: fields fixed after
`__init__`, equality and hash by value, validation kept in `__init__`."""

import pytest

from tamenorm import hecke, lfactor, qcomb
from tamenorm.classfield import TowerStep
from tamenorm.exactnum import ExactScalar
from tamenorm.mackey import PadicEndo
from tamenorm.qcomb import QCombContext, chain_count

# one builder per record class, called twice to get two equal instances
BUILDERS = {
    "QCombContext": lambda: QCombContext(2, 3),
    "CoefficientTable": lambda: qcomb.b_coefficients(QCombContext(1, 3)),
    "OrbitReport": lambda: hecke.orbit_stabilizer(1, hecke.HeckeContext(1, 3)),
    "SatakeParams": lambda: lfactor.SatakeParams.from_root_exponents(1, 5, [(0, 1), (1, 2)]),
    "FrobPoly": lambda: lfactor.frob_poly_from_satake(
        lfactor.SatakeParams.from_root_exponents(1, 5, [(0, 1), (1, 2)])),
    "CharacterValue": lambda: lfactor.CharacterValue.primitive(5, 2),
    "PadicEndo": lambda: PadicEndo(3, 2, ((10, 0), (0, 3))),
    "TowerStep": lambda: TowerStep.build(-4, 1, 5)[0],
}
# the others hold a list, a Poly or an ExactScalar, none of them hashable
HASHABLE = ("QCombContext", "PadicEndo", "TowerStep")


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fields_are_fixed_after_init(name):
    value = BUILDERS[name]()
    assert type(value).__name__ == name
    first = type(value).__slots__[0]
    before = getattr(value, first)
    with pytest.raises(AttributeError):
        setattr(value, first, before)
    with pytest.raises(AttributeError):
        delattr(value, first)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    assert getattr(value, first) is before


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equality_is_by_value(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b and a == b and not a != b
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    if name in HASHABLE:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert a != object()


def test_records_of_different_values_differ():
    assert QCombContext(2, 3) != QCombContext(3, 2)
    assert PadicEndo(3, 2, ((10, 0), (0, 3))) == PadicEndo(3, 2, ((1, 0), (0, 3)))  # mod 9
    assert PadicEndo(3, 2, ((1, 0), (0, 3))) != PadicEndo(3, 3, ((1, 0), (0, 3)))
    assert repr(QCombContext(2, 3)) == "QCombContext(n=2, ell=3)"


def test_equal_contexts_share_one_chain_count_entry():
    a, b = QCombContext(2, 3), QCombContext(2, 3)
    assert chain_count(1, 2, a) == 4
    hits = chain_count.cache_info().hits
    assert chain_count(1, 2, b) == 4
    assert chain_count.cache_info().hits == hits + 1


@pytest.mark.parametrize("build", [
    lambda: QCombContext(0, 3),
    lambda: QCombContext(2, 4),
    lambda: PadicEndo(4, 2, ((1,),)),
    lambda: PadicEndo(3, 0, ((1,),)),
    lambda: lfactor.CharacterValue(ExactScalar.zeta(5, 3, 1), 2),
    lambda: lfactor.SatakeParams.from_root_exponents(1, 5, [(0, 1)]),
])
def test_validation_stays_in_init(build):
    with pytest.raises(ValueError):
        build()
