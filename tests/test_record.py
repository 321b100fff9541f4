"""Record semantics against frozen dataclasses.

Every value type is a Record.  For each one, a frozen dataclass twin with the
same fields, defaults and __post_init__ is built here, and the two must agree
on construction, equality, hash, repr and immutability.
"""

import copy
import dataclasses

import pytest

from tilecohom.cli import run_command
from tilecohom.complexes import MODE_RIGID, build_chain_complex
from tilecohom.dirlimit import direct_limit, eventual_data
from tilecohom.exactalg import ExactAlgError, IntMatrix, smith_normal_form
from tilecohom.groups import FgAbelianGroup, GroupError, GroupHom, homology_presentation
from tilecohom.record import Record
from tilecohom.spectral import spectral_sequence
from tilecohom.tilings import builtin, validate_spec

RECORDS = {
    "CommandResult", "ChainComplex", "DirectLimitGroup", "EventualData",
    "IntMatrix", "SnfResult", "FgAbelianGroup", "GroupElement", "GroupHom",
    "SubquotientPresentation", "SpectralPage", "HullCohomology",
    "SpectralSequence", "CellType", "RotationData", "SubstitutionData",
    "TilingSpec", "ValidationReport",
}

_CHANGED = "changed"  # a hashable value that no real field holds


def _samples():
    """One computed instance of every record class, by class name."""
    spec = builtin("penrose-kite-dart")
    ss = spectral_sequence(spec)
    chain = build_chain_complex(spec, MODE_RIGID)
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    g = FgAbelianGroup(1, (2, 4))
    endo = GroupHom(g, g, IntMatrix.from_rows([[4, 0, 0], [0, 0, 1], [0, 0, 1]]))
    found = [
        run_command(["builtin", "list"]), chain, direct_limit(g, endo),
        eventual_data(g, endo), a, smith_normal_form(a), g, ss.d2_class, endo,
        homology_presentation(chain.boundary_or_zero(1), chain.boundary_or_zero(2)),
        ss.e2, ss.cohomology, ss, spec.cells[0][0], spec.rotation, spec.substitution,
        spec, validate_spec(spec),
    ]
    return {type(x).__name__: x for x in found}


SAMPLES = _samples()


def _twin(cls):
    """A frozen dataclass with cls's name, fields, defaults and __post_init__."""
    fields = [(f, object, cls.__dict__[f]) if f in cls.__dict__ else (f, object)
              for f in cls._fields]
    namespace = {"_fields": cls._fields}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


TWINS = {name: _twin(type(x)) for name, x in SAMPLES.items()}


def _values(obj):
    return [getattr(obj, f) for f in obj._fields]


def _raw(cls, values):
    """An instance with the given field values, without __init__ or its checks."""
    obj = cls.__new__(cls)
    for f, v in zip(cls._fields, values):
        object.__setattr__(obj, f, v)
    return obj


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as e:
        return "TypeError: %s" % e


def _outcome(fn):
    """The field values, repr and hash of what fn builds, or the error it raises."""
    try:
        obj = fn()
    except Exception as e:
        return type(e), str(e)
    return _values(obj), repr(obj), _hash(obj)


def test_every_value_type_is_a_record():
    assert {cls.__name__ for cls in Record.__subclasses__()} == RECORDS
    assert set(SAMPLES) == RECORDS
    for name, x in SAMPLES.items():
        assert type(x)._fields == tuple(type(x).__annotations__), name


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestAgainstDataclass:
    def test_construction(self, name):
        cls, twin, values = type(SAMPLES[name]), TWINS[name], _values(SAMPLES[name])
        kwargs = dict(zip(cls._fields, values))
        assert _outcome(lambda: cls(*values)) == _outcome(lambda: twin(*values))
        assert _outcome(lambda: cls(**kwargs)) == _outcome(lambda: twin(**kwargs))
        assert _outcome(lambda: cls(*values)) == _outcome(lambda: SAMPLES[name])
        required = [v for f, v in kwargs.items() if f not in cls.__dict__]
        assert _outcome(lambda: cls(*required)) == _outcome(lambda: twin(*required))
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(**kwargs, extra=None)

    def test_equality_and_hash(self, name):
        cls, twin, values = type(SAMPLES[name]), TWINS[name], _values(SAMPLES[name])
        x, same, t = cls(*values), _raw(cls, copy.deepcopy(values)), twin(*values)
        assert x == same and not x != same
        assert _hash(x) == _hash(same) == _hash(t)
        assert x.__eq__(t) is NotImplemented and t.__eq__(x) is NotImplemented
        assert x != t and not x == t
        assert x != values and x != tuple(values) and x != object()
        other = next(y for y in SAMPLES.values() if type(y) is not cls)
        assert x != other
        for i in range(len(values)):
            changed = values[:i] + [_CHANGED] + values[i + 1:]
            y, u = _raw(cls, changed), _raw(twin, changed)
            assert (x == y, x != y, y == y) == (t == u, t != u, u == u) == (False, True, True)
            assert _hash(y) == _hash(u)
            assert repr(y) == repr(u)

    def test_frozen(self, name):
        x, t = SAMPLES[name], TWINS[name](*_values(SAMPLES[name]))
        for field in type(x)._fields + ("unknown",):
            for act in (lambda o: setattr(o, field, None), lambda o: delattr(o, field)):
                with pytest.raises(AttributeError) as mine:
                    act(x)
                with pytest.raises(AttributeError) as theirs:
                    act(t)
                assert str(mine.value) == str(theirs.value)


@pytest.mark.parametrize("make", [
    lambda cls: cls(2, 2, (1,)),                                # entry count
    lambda cls: cls(-1, 0, ()),                                 # negative dimension
])
def test_int_matrix_post_init(make):
    twin = TWINS["IntMatrix"]
    assert _outcome(lambda: make(IntMatrix)) == _outcome(lambda: make(twin))
    with pytest.raises(ExactAlgError):
        make(IntMatrix)


@pytest.mark.parametrize("free_rank, torsion", [(-1, ()), (0, (1,)), (0, (4, 6)), (2, (2, 4))])
def test_group_post_init(free_rank, torsion):
    twin = TWINS["FgAbelianGroup"]
    assert (_outcome(lambda: FgAbelianGroup(free_rank, torsion))
            == _outcome(lambda: twin(free_rank, torsion)))


@pytest.mark.parametrize("entries", [(7,), (5,), (-3,), (12,)])
def test_group_hom_post_init_reduces_the_matrix(entries):
    z5, twin = FgAbelianGroup(0, (5,)), TWINS["GroupHom"]
    m = IntMatrix(1, 1, entries)
    assert _outcome(lambda: GroupHom(z5, z5, m)) == _outcome(lambda: twin(z5, z5, m))
    assert GroupHom(z5, z5, m).matrix.entries == (entries[0] % 5,)
    with pytest.raises(GroupError, match="shape"):
        GroupHom(z5, z5, IntMatrix(1, 2, (1, 1)))


def test_snf_transforms_are_built_once():
    snf = smith_normal_form(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert "U" not in snf.__dict__
    u = snf.U
    assert snf.U is u and snf.__dict__["U"] is u
    assert snf.u_times(IntMatrix.identity(3)) == u
    assert snf.V is snf.V and snf.Uinv is snf.Uinv and snf.Vinv is snf.Vinv
    assert snf == smith_normal_form(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
