import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import segaltopos
from segaltopos.elements import (
    _INTERN,
    Atom,
    EMPTY,
    Element,
    Fam,
    FinFunction,
    FinSet,
    SINGLETON,
    STAR,
    Tup,
    atoms,
    getter,
    pick,
)


def small_elements():
    base = st.sampled_from([Atom("a"), Atom("b"), Atom("z"), STAR])
    return st.recursive(
        base,
        lambda inner: st.lists(inner, max_size=3).map(Tup),
        max_leaves=6,
    )


class TestElement:
    def test_structural_equality(self):
        assert Atom("a") == Atom("a")
        assert Tup([Atom("a"), Atom("b")]) == Tup([Atom("a"), Atom("b")])
        assert Atom("a") != Tup([Atom("a")])

    def test_fam_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            Fam([(Atom("k"), Atom("x")), (Atom("k"), Atom("y"))])

    def test_fam_sorted_and_lookup(self):
        f = Fam([(Atom("b"), Atom("1")), (Atom("a"), Atom("0"))])
        assert [k.name for k, _ in f.entries] == ["a", "b"]
        assert f.get(Atom("a")) == Atom("0")
        assert Atom("b") in f

    @given(small_elements(), small_elements())
    def test_total_order(self, x, y):
        assert (x < y) + (x == y) + (y < x) == 1

    @given(st.lists(small_elements(), max_size=5))
    def test_order_consistent_with_hash_equality(self, xs):
        s = sorted(xs)
        for a, b in zip(s, s[1:]):
            assert a <= b
            if a == b:
                assert hash(a) == hash(b)


class TestFinSet:
    def test_sorted_dedup(self):
        s = FinSet([Atom("b"), Atom("a"), Atom("b")])
        assert [x.name for x in s] == ["a", "b"]
        assert len(s) == 2
        assert Atom("a") in s and Atom("c") not in s

    def test_constants(self):
        assert len(EMPTY) == 0
        assert list(SINGLETON) == [STAR]

    @given(st.lists(small_elements(), max_size=8), st.randoms(use_true_random=False))
    def test_order_matches_sorted_set_on_shuffled_duplicates(self, xs, rnd):
        xs = xs + xs[: len(xs) // 2]
        rnd.shuffle(xs)
        assert FinSet(xs).elements == tuple(sorted(set(xs)))
        assert FinSet(sorted(xs)).elements == tuple(sorted(set(xs)))


class TestFinFunction:
    def test_totality_enforced(self):
        dom, cod = atoms("a", "b"), atoms("x")
        with pytest.raises(ValueError):
            FinFunction(dom, cod, {Atom("a"): Atom("x")})
        with pytest.raises(ValueError):
            FinFunction(dom, cod, {Atom("a"): Atom("x"), Atom("b"): Atom("y")})

    def test_compose_identity_inverse(self):
        s = atoms("a", "b")
        swap = FinFunction(s, s, {Atom("a"): Atom("b"), Atom("b"): Atom("a")})
        assert swap.compose(swap) == FinFunction.identity(s)
        assert swap.inverse() == swap
        assert swap.is_bijective()

    def test_predicates(self):
        two, one = atoms("a", "b"), atoms("x")
        const = FinFunction.constant(two, one, Atom("x"))
        assert const.is_surjective() and not const.is_injective()
        incl = FinFunction(one, two, {Atom("x"): Atom("a")})
        assert incl.is_injective() and not incl.is_surjective()
        assert incl.image() == atoms("a")
        # the domain's own positions, which the identity shares, are a
        # bijection exactly onto a set of the same size
        assert FinFunction.identity(two).is_bijective()
        assert not FinFunction.from_idx(one, two, one.positions).is_bijective()
        assert FinFunction.from_idx(two, atoms("c", "d"), two.positions).is_bijective()


class TestHashConsing:
    def test_equal_terms_are_identical(self):
        assert Atom("a") is Atom("a")
        assert Tup([Atom("a"), STAR]) is Tup((Atom("a"), Tup([])))
        f = Fam([(Atom("b"), Atom("1")), (Atom("a"), Tup([Atom("0")]))])
        g = Fam([(Atom("a"), Tup([Atom("0")])), (Atom("b"), Atom("1"))])
        assert f is g
        assert Tup([f]) is Tup([g])

    def test_equality_and_hash_are_identity(self):
        for cls in (Element, Atom, Tup, Fam):
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__

    @given(small_elements())
    def test_rebuilt_term_is_identical(self, x):
        def rebuild(e):
            if isinstance(e, Atom):
                return Atom(e.name)
            return Tup([rebuild(y) for y in e.items])

        assert rebuild(x) is x

    @given(small_elements())
    def test_pickle_round_trip_reinterns(self, x):
        for term in (x, Tup([x, x]), Fam([(Atom("k"), x)]), Fam([(x, Atom("v"))])):
            assert pickle.loads(pickle.dumps(term)) is term

    def test_intern_table_shrinks_after_release(self):
        gc.collect()
        before = len(_INTERN)
        held = [Tup([Atom(f"tmp-{i}"), Atom("tmp")]) for i in range(50)]
        fam = Fam((x, x) for x in held)
        assert len(_INTERN) == before + 102
        del held, fam
        gc.collect()
        assert len(_INTERN) <= before

    def test_fam_duplicate_composite_key_raises(self):
        with pytest.raises(ValueError):
            Fam([(Tup([Atom("k")]), Atom("x")), (Tup([Atom("k")]), Atom("y"))])

    def test_report_bytes_identical_across_interpreters(self):
        # identity hashes differ between processes; a set order leaking into
        # a report would show here
        src = Path(segaltopos.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-m", "segaltopos.cli", "check-univalent"]
        argv += ["--workspace", "c2", "--json", "free_over_point"]
        outs = [
            subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        assert b'"univalent": ' in outs[0]


# ---------------------------------------------------------------------------
# the positional FinFunction against a dict reference

NAMES = ["a", "b", "c", "d", "e"]


def dict_compose(g: dict, f: dict) -> dict:
    """g after f, on dicts."""
    return {x: g[y] for x, y in f.items()}


@st.composite
def finite_sets(draw, min_size=0):
    return atoms(*draw(st.lists(st.sampled_from(NAMES), min_size=min_size, unique=True)))


@st.composite
def dict_functions(draw, dom=None, cod=None):
    """(dom, cod, table) with table a dict from dom to cod, in a shuffled
    insertion order."""
    if dom is None:
        dom = draw(finite_sets())
    if cod is None:
        cod = draw(finite_sets(min_size=1 if len(dom) else 0))
    keys = draw(st.permutations(list(dom)))
    return dom, cod, {x: draw(st.sampled_from(cod.elements)) for x in keys}


class TestPositionalKernel:
    @given(st.data())
    def test_getter_gathers_as_pick_does(self, data):
        seq = tuple(data.draw(st.lists(st.integers(), min_size=1, max_size=6)))
        positions = data.draw(st.lists(st.integers(0, len(seq) - 1), max_size=4))
        got = getter(positions)(seq)
        assert type(got) is tuple and got == pick(seq, positions)

    @given(dict_functions())
    def test_table_view_is_the_input_dict(self, fn):
        dom, cod, table = fn
        f = FinFunction(dom, cod, table)
        assert f.table == table
        assert all(f(x) == y for x, y in table.items())
        view = f.table
        view.clear()
        assert f.table == table

    @given(st.data())
    def test_compose_matches_dict_composition(self, data):
        dom, mid, f = data.draw(dict_functions())
        _, cod, g = data.draw(dict_functions(dom=mid))
        composite = FinFunction(mid, cod, g).compose(FinFunction(dom, mid, f))
        assert composite.table == dict_compose(g, f)
        assert composite.dom == dom and composite.cod == cod

    @given(dict_functions())
    def test_identity_is_neutral(self, fn):
        dom, cod, table = fn
        f = FinFunction(dom, cod, table)
        assert FinFunction.identity(dom).table == {x: x for x in dom}
        assert f.compose(FinFunction.identity(dom)) == f
        assert FinFunction.identity(cod).compose(f) == f

    @given(finite_sets(), st.randoms(use_true_random=False))
    def test_inverse_of_a_permutation(self, s, rnd):
        xs = list(s)
        ys = xs[:]
        rnd.shuffle(ys)
        f = FinFunction(s, s, dict(zip(xs, ys)))
        assert f.inverse().table == dict(zip(ys, xs))
        assert f.inverse().compose(f) == FinFunction.identity(s)

    @given(st.data())
    def test_equality_and_hash_follow_the_dicts(self, data):
        dom, cod, f = data.draw(dict_functions())
        _, _, g = data.draw(dict_functions(dom=dom, cod=cod))
        ff, gg = FinFunction(dom, cod, f), FinFunction(dom, cod, g)
        assert (ff == gg) == (f == g)
        if f == g:
            assert hash(ff) == hash(gg)
        assert FinFunction(dom, cod, dict(reversed(list(f.items())))) == ff

    @given(dict_functions())
    def test_predicates_and_image(self, fn):
        dom, cod, table = fn
        f = FinFunction(dom, cod, table)
        values = set(table.values())
        assert f.is_injective() == (len(values) == len(table))
        assert f.is_surjective() == (values == set(cod))
        assert f.is_bijective() == (f.is_injective() and f.is_surjective())
        assert f.image() == FinSet(values)
        if not f.is_bijective():
            with pytest.raises(ValueError, match="not a bijection"):
                f.inverse()

    @given(dict_functions(), st.sampled_from(NAMES + ["z"]), st.booleans())
    def test_error_text_on_missing_or_extra_keys(self, fn, name, drop):
        dom, cod, table = fn
        table = dict(table)
        x = Atom(name)
        if drop and x in table:
            del table[x]
        elif x not in dom and len(cod):
            table[x] = cod.elements[0]
        else:
            return
        missing = set(dom) - table.keys()
        extra = table.keys() - set(dom)
        with pytest.raises(ValueError) as exc:
            FinFunction(dom, cod, table)
        assert str(exc.value) == (
            f"function table mismatch: missing {sorted(missing)}, extra {sorted(extra)}"
        )

    @given(dict_functions(dom=atoms("a", "b", "c")), st.data())
    def test_error_text_on_values_outside_the_codomain(self, fn, data):
        dom, cod, table = fn
        bad = data.draw(st.lists(st.sampled_from(list(table)), min_size=1, unique=True))
        table = {x: Atom("outside") if x in bad else y for x, y in table.items()}
        first = next(x for x in table if x in bad)
        with pytest.raises(ValueError) as exc:
            FinFunction(dom, cod, table)
        assert str(exc.value) == f"value {Atom('outside')!r} of {first!r} not in codomain"

    def test_constant_outside_the_codomain(self):
        with pytest.raises(ValueError) as exc:
            FinFunction.constant(atoms("a", "b"), atoms("x"), Atom("y"))
        assert str(exc.value) == f"value {Atom('y')!r} of {Atom('a')!r} not in codomain"
        assert FinFunction.constant(EMPTY, atoms("x"), Atom("y")).table == {}
