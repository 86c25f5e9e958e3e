"""The contract of the ten value classes: constructor fields, the fields
equality reads, the hash, the repr, the frozen guard and pickling, pinned on
one instance of each."""

import pickle

import pytest

from helpers import ab, ab_ordered, output_under_another_hash_seed
from higman.words import Value, Word
from higman.segments import FinalSegment, segment
from higman.automata import Automaton, Dfa, TransitionSystem
from higman.envelope import EnvelopeLattice, PointedSpace, build_envelope
from higman.chainprod import ChainProduct, UpSet
from higman.cli import ProblemSpec


def value_cases() -> list[dict]:
    """One case per class: its constructor arguments by name, other values
    that equality must see (differ) or ignore (same), the expected hash
    (None: unhashable), repr, whether it is frozen and, for an interned
    class, the live object that every equal value is."""
    A = ab()
    ts_args = dict(
        alphabet=A, states=(0, 1), transitions=frozenset({(0, "a", 1), (1, "b", 0)})
    )
    ts = TransitionSystem(**ts_args)
    F = segment(A, "ab", "ba")
    env = build_envelope(segment(A, "a"))
    env_args = {
        name: getattr(env, name)
        for name in ("alphabet", "elements", "x", "y", "hasse", "extent", "context")
    }
    grid = ChainProduct((2, 3))
    gens = (A.word("ab"),)
    return [
        dict(
            cls=Word,
            args=dict(alphabet=A, symbols=("a", "b")),
            differ=dict(alphabet=ab_ordered(), symbols=("b", "a")),
            hash=hash((A, ("a", "b"))),
            repr="Word('ab')",
            frozen=True,
        ),
        dict(
            cls=FinalSegment,
            args=dict(alphabet=A, basis=F.basis),
            differ=dict(alphabet=ab_ordered(), basis=F.basis[:1]),
            hash=hash(F),
            repr="FinalSegment(alphabet=Alphabet(a-b), basis=(Word('ab'), Word('ba')))",
            frozen=True,
            interned=F,
        ),
        dict(
            cls=TransitionSystem,
            args=ts_args,
            differ=dict(states=(1, 0), transitions=frozenset({(0, "a", 1)})),
            hash=hash((A, (0, 1))),
            repr="TransitionSystem(alphabet=Alphabet(a-b), states=(0, 1), "
            "_successors={'a': [2, 0], 'b': [0, 1]})",
            frozen=True,
        ),
        dict(
            cls=Automaton,
            args=dict(system=ts, initial=frozenset({0}), final=frozenset({1})),
            differ=dict(initial=frozenset({1}), final=frozenset({0})),
            hash=hash((ts, frozenset({0}), frozenset({1}))),
            repr=f"Automaton(system={ts!r}, initial=frozenset({{0}}), final=frozenset({{1}}))",
            frozen=True,
        ),
        dict(
            cls=Dfa,
            args=dict(
                alphabet=A,
                states=(0, 1),
                start=0,
                accepting=frozenset({1}),
                delta={(0, "a"): 1, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1},
            ),
            differ=dict(start=1, accepting=frozenset({0}), delta={}),
            hash=None,
            repr="Dfa(alphabet=Alphabet(a-b), states=(0, 1), start=0, accepting=frozenset({1}))",
            frozen=False,
        ),
        dict(
            cls=EnvelopeLattice,
            args=env_args,
            differ=dict(elements=env.elements[::-1], y=env.x, hasse=frozenset()),
            same=dict(
                extent={P: 2 * E for P, E in env.extent.items()},
                context=None,
            ),
            hash=hash(env.y),
            repr=f"EnvelopeLattice(alphabet={A!r}, elements={env.elements!r}, "
            f"x={env.x!r}, y={env.y!r}, hasse={env.hasse!r})",
            frozen=True,
        ),
        dict(
            cls=PointedSpace,
            args=dict(alphabet=A, points=("x", "y"), d={("x", "y"): "F"}, x="x", y="y"),
            differ=dict(points=("y", "x"), d={}, y="x"),
            hash=None,
            repr="PointedSpace(alphabet=Alphabet(a-b), points=('x', 'y'), "
            "d={('x', 'y'): 'F'}, x='x', y='y')",
            frozen=False,
        ),
        dict(
            cls=ChainProduct,
            args=dict(dims=(2, 3)),
            differ=dict(dims=(3, 2)),
            hash=hash(((2, 3),)),
            repr="ChainProduct(dims=(2, 3))",
            frozen=True,
        ),
        dict(
            cls=UpSet,
            args=dict(product=grid, mintuples=((0, 1), (1, 0))),
            differ=dict(product=ChainProduct((3, 3)), mintuples=((0, 0),)),
            hash=hash((grid, ((0, 1), (1, 0)))),
            repr="UpSet(product=ChainProduct(dims=(2, 3)), mintuples=((0, 1), (1, 0)))",
            frozen=True,
        ),
        dict(
            cls=ProblemSpec,
            args=dict(alphabet=A, generators=gens),
            differ=dict(alphabet=ab_ordered(), generators=()),
            hash=hash((A, gens)),
            repr="ProblemSpec(alphabet=Alphabet(a-b), generators=(Word('ab'),))",
            frozen=True,
        ),
    ]


PICKLE_VALUES = """
import pickle, sys
from test_values import value_cases
values = [case["cls"](**case["args"]) for case in value_cases()]
sys.stdout.buffer.write(pickle.dumps(values))
"""


def _check_hash(obj, expected):
    if expected is None:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected


@pytest.mark.parametrize("case", value_cases(), ids=lambda case: case["cls"].__name__)
def test_value_class_contract(case):
    cls, args = case["cls"], case["args"]
    obj = cls(**args)
    assert obj == cls(*args.values())
    interned = "interned" in case
    if interned:
        assert cls(**args) is cls(**args) is obj is case["interned"]
    for name, value in args.items():
        if name == "transitions":  # TransitionSystem keeps masks instead
            continue
        if interned:  # an equal value built earlier keeps its own fields
            assert getattr(obj, name) == value
        else:
            assert getattr(obj, name) is value
    for name, value in case["differ"].items():
        assert obj != cls(**{**args, name: value}), name
    for name, value in case.get("same", {}).items():
        assert obj == cls(**{**args, name: value}), name
    assert obj != object()
    _check_hash(obj, case["hash"])
    assert repr(obj) == case["repr"]

    first = next(iter(args))
    if case["frozen"]:
        for attempt in (
            lambda: setattr(obj, first, None),
            lambda: setattr(obj, "unknown", None),
            lambda: delattr(obj, first),
        ):
            with pytest.raises(AttributeError):
                attempt()
        assert getattr(obj, first) == args[first]
        assert interned or getattr(obj, first) is args[first]
    else:
        other = cls(**args)
        setattr(other, first, None)
        assert other.__dict__[first] is None

    again = pickle.loads(pickle.dumps(obj))
    assert type(again) is cls and again == obj
    assert not interned or again is obj
    _check_hash(again, case["hash"])


def test_values_pickle_across_hash_seeds():
    """A value pickled where str hashes differ loads equal, with this
    process's hash; an interned one loads as the local object."""
    loaded = pickle.loads(output_under_another_hash_seed(PICKLE_VALUES))
    cases = value_cases()
    assert len(loaded) == len(cases)
    for obj, case in zip(loaded, cases):
        local = case["cls"](**case["args"])
        assert type(obj) is case["cls"] and obj == local
        if "interned" in case:
            assert obj is local is case["interned"]
        _check_hash(obj, case["hash"])


OWN_OVERRIDES = {
    Word: {"__eq__", "__hash__", "__repr__"},
    FinalSegment: {"__eq__", "__hash__"},
    TransitionSystem: {"__hash__"},
    Automaton: set(),
    Dfa: {"__hash__", "__repr__"},
    EnvelopeLattice: {"__hash__"},
    PointedSpace: {"__hash__"},
    ChainProduct: set(),
    UpSet: set(),
    ProblemSpec: set(),
}


def test_value_classes_share_one_protocol():
    """Equality, the hash and the repr come from one base; a class defines
    its own only where its contract differs from the base's."""
    assert set(OWN_OVERRIDES) == {case["cls"] for case in value_cases()}
    for cls, own in OWN_OVERRIDES.items():
        assert issubclass(cls, Value)
        defined = {"__eq__", "__hash__", "__repr__"} & set(vars(cls))
        assert defined == own, cls.__name__
