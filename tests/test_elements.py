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
