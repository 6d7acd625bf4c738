"""Sequence data: spec validation and the Taylor complex of a list of
monomials.

The complex is checked by expanding the matrix products d meets d
directly; differential entries for a small list are frozen from an
independent hand computation.
"""
import pytest

from helpers import dense
from multirees.poly import SpecError
from multirees.sseq import MAX_TAYLOR_GENERATORS, SeqSpec, TaylorComplex, syzygy_generators, taylor_complex


class TestSeqSpec:
    def test_default_names(self):
        seq = SeqSpec(n=3)
        assert seq.names == ("s1", "s2", "s3")

    def test_name_count_checked(self):
        with pytest.raises(SpecError):
            SeqSpec(n=2, names=("a",))

    def test_generic_takes_no_values(self):
        with pytest.raises(SpecError):
            SeqSpec(n=1, concrete_terms=(((1, {"x": 1}),),))

    def test_concrete_validation(self):
        with pytest.raises(SpecError):  # unit value
            SeqSpec(n=1, mode="concrete", x_names=("x",), concrete_terms=(((1, {}),),))
        with pytest.raises(SpecError):  # zero value
            SeqSpec(n=1, mode="concrete", x_names=("x",), concrete_terms=((),))
        with pytest.raises(SpecError):  # zero coefficient
            SeqSpec(n=1, mode="concrete", x_names=("x",), concrete_terms=(((0, {"x": 1}),),))
        with pytest.raises(SpecError):  # unknown ambient variable
            SeqSpec(n=1, mode="concrete", x_names=("x",), concrete_terms=(((1, {"y": 1}),),))
        # non-unit constants are allowed
        SeqSpec(n=1, mode="concrete", x_names=(), concrete_terms=(((2, {}),),))

    def test_negative_exponent_is_spec_error(self):
        # x^-1 is no polynomial, even beside a valid term or a valid value
        for terms in ((((1, {"x": -1}),), ((1, {"y": 1}),)), (((1, {"y": 1}),), ((1, {"x": 1}), (3, {"y": -2})))):
            with pytest.raises(SpecError, match="negative exponent"):
                SeqSpec(n=2, mode="concrete", x_names=("x", "y"), concrete_terms=terms)
        # a zero exponent is still allowed
        SeqSpec(n=1, mode="concrete", x_names=("x", "y"), concrete_terms=(((1, {"x": 1, "y": 0}),),))

    def test_concrete_monomial_values(self):
        seq = SeqSpec(
            n=2,
            mode="concrete",
            x_names=("x", "y"),
            concrete_terms=(((1, {"x": 1}),), ((1, {"y": 1}), (1, {"x": 1}))),
        )
        assert seq.concrete_monomial_values() is None  # s2 is a binomial
        mono = SeqSpec(
            n=2,
            mode="concrete",
            x_names=("x", "y"),
            concrete_terms=(((1, {"x": 1}),), ((1, {"y": 1}),)),
        )
        assert mono.concrete_monomial_values() == [(1, {"x": 1}), (1, {"y": 1})]
        assert mono.squarefree_monomial_values()

    def test_squarefree_values_need_disjoint_supports(self):
        shared = SeqSpec(
            n=2,
            mode="concrete",
            x_names=("x", "y"),
            concrete_terms=(((1, {"x": 1}),), ((1, {"x": 1, "y": 1}),)),
        )
        assert not shared.squarefree_monomial_values()
        assert any("not attested" in note for note in shared.lint())

    def test_lint_duplicate_values(self):
        seq = SeqSpec(
            n=2,
            mode="concrete",
            x_names=("x",),
            concrete_terms=(((1, {"x": 1}),), ((1, {"x": 1}),)),
            assume_weak_regular=True,
        )
        assert any("identical values" in note for note in seq.lint())


class TestTaylor:
    def test_ranks_are_binomials(self):
        tc = taylor_complex([dense((1, 0)), dense((0, 1)), dense((1, 1))])
        assert [tc.rank(p) for p in range(4)] == [1, 3, 3, 1]

    def test_differential_frozen_example(self):
        # generators x, y over two symbols: d1 = (x  y), d2 = (y, -x)^T
        x, y = dense((1, 0)), dense((0, 1))
        tc = taylor_complex([x, y])
        d1 = tc.differential(1)
        assert d1[((), (0,))] == (1, x)
        assert d1[((), (1,))] == (1, y)
        d2 = tc.differential(2)
        assert d2[((1,), (0, 1))] == (1, x)  # lcm(xy)/y = x with sign +
        assert d2[((0,), (0, 1))] == (-1, y)

    def test_dd_zero_random(self):
        import random

        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 3)
            m = rng.randint(1, 5)
            gens = [
                dense(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(m)
            ]
            tc = taylor_complex(gens)
            assert tc.verify()

    def test_each_differential_built_once(self, monkeypatch):
        # verify carries d_p into the check of p+1: at the guard's 12
        # generators it builds d_1 .. d_12 once each, not 22 times
        built = []
        differential = TaylorComplex.differential

        def counted(self, p):
            built.append(p)
            return differential(self, p)

        monkeypatch.setattr(TaylorComplex, "differential", counted)
        gens = [dense((i % 3, i // 3 % 2, i // 6)) for i in range(MAX_TAYLOR_GENERATORS)]
        assert taylor_complex(gens).verify()
        assert built == list(range(1, MAX_TAYLOR_GENERATORS + 1))

    @pytest.mark.parametrize("broken", [2, 3, 4])
    def test_verify_sees_a_broken_differential(self, monkeypatch, broken):
        # one flipped sign in d_p makes d_(p-1) o d_p or d_p o d_(p+1)
        # nonzero, whichever differential it lands in
        differential = TaylorComplex.differential

        def flipped(self, p):
            d = differential(self, p)
            if p == broken:
                key = min(d)
                sign, mono = d[key]
                d[key] = (-sign, mono)
            return d

        monkeypatch.setattr(TaylorComplex, "differential", flipped)
        gens = [dense((1, 0, 0)), dense((0, 1, 0)), dense((0, 0, 1)), dense((1, 1, 0))]
        assert not taylor_complex(gens).verify()

    def test_generator_guard(self):
        with pytest.raises(Exception):
            taylor_complex([dense((1,))] * 13)

    def test_syzygy_generators_shape(self):
        gens = [dense((2, 0)), dense((1, 1)), dense((0, 2))]
        sz = syzygy_generators(gens)
        assert len(sz) == 3
        vec = sz[0]  # pair (0, 1): lcm = s1^2 s2
        assert vec[0] == (1, dense((0, 1)))
        assert vec[1] == (-1, dense((1, 0)))
        assert vec[2] is None
        # every pairwise syzygy maps to zero
        for vec in sz:
            acc = {}
            for slot, entry in enumerate(vec):
                if entry is None:
                    continue
                sign, mono = entry
                target = mono.mul(gens[slot])
                acc[target] = acc.get(target, 0) + sign
            assert not any(acc.values())
