"""Brauer classes: validation, index arithmetic, restriction, construction.

Every restricted index asserted here was recomputed by hand from the local
degree tables in test_extensions (order of local_degree * invariant in Q/Z).
"""

import random
from collections import Counter

import pytest

from helpers import ff3_quad, ff7_cubic, make_class_oracle, oracle_construct_class, q_ext
from ncpbound import brauer
from ncpbound.arith import QZ, QZ_ZERO
from ncpbound.brauer import (
    BrauerClass,
    check_lemma_2_1,
    construct_class,
    fiber_index,
    index,
    local_index,
    make_class,
    random_class,
    restricted_index,
    restricted_local_index,
    splits,
)
from ncpbound.errors import InvariantError, ValidationError
from ncpbound.extensions import build_extension, find_places_with_frobenius, local_degree
from ncpbound.fields import QQ, enumerate_places, poly_place, prime_place, real_place
from ncpbound.isolation import IsolationReport, d_value


def qz(a, b):
    return QZ(a, b)


class TestMakeClass:
    def test_valid(self):
        alpha = make_class({prime_place(3): qz(7, 8), prime_place(7): qz(1, 8)})
        assert alpha.invariant(prime_place(3)) == qz(7, 8)
        assert alpha.invariant(prime_place(5)) == QZ_ZERO
        assert alpha.support == (prime_place(3), prime_place(7))

    def test_zero_class(self):
        assert make_class({}).invariants == ()

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValidationError, match="^invariants sum to 1/8, not 0$"):
            make_class({prime_place(3): qz(1, 8)})

    def test_real_invariant_constrained(self):
        with pytest.raises(ValidationError,
                           match="^a real place carries invariant 0 or 1/2 only$"):
            make_class({real_place(): qz(1, 4), prime_place(3): qz(3, 4)})
        alpha = make_class({real_place(): qz(1, 2), prime_place(3): qz(1, 2)})
        assert alpha.invariant(real_place()) == qz(1, 2)

    def test_duplicates_accumulate(self):
        alpha = make_class([(prime_place(3), qz(1, 2)), (prime_place(3), qz(1, 2))])
        assert alpha.invariants == ()

    def test_rejects_mixed_bases(self):
        with pytest.raises(ValidationError,
                           match="^invariants live over different base fields$"):
            make_class({prime_place(3): qz(1, 2), poly_place(3, (0, 1)): qz(1, 2)})

    def test_rejects_non_qz(self):
        with pytest.raises(ValidationError, match=r"^not an element of Q/Z: 0\.5$"):
            make_class({prime_place(3): 0.5, prime_place(7): 0.5})
        with pytest.raises(ValidationError, match="^not a place: 3$"):
            make_class({3: qz(1, 2), 7: qz(1, 2)})


def _drawn_pairs(rng):
    """Pairs with duplicate places, pairs cancelling to zero, real invariants
    1/2, 1/4 and 3/4, now and then an F_3(t) place among places of Q, a
    value that is not a QZ or a key that is not a place; most are balanced."""
    finite = [prime_place(p) for p in (2, 3, 5, 7)]
    if rng.random() < 0.1:
        finite.append(poly_place(3, (rng.randint(0, 2), 1)))
    pairs = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.25:
            P, inv = real_place(), QZ(rng.choice((1, 2, 3)), 4)
        else:
            P, inv = rng.choice(finite), QZ(rng.randint(0, 11), rng.choice((1, 2, 3, 4, 6, 8)))
        pairs.append((P, inv))
        if rng.random() < 0.3:
            pairs.append((P, -inv))
    if rng.random() < 0.8:
        pairs.append((rng.choice(finite), -sum((v for _, v in pairs), QZ_ZERO)))
    if rng.random() < 0.05:
        pairs.insert(rng.randint(0, len(pairs)), (rng.choice(finite), rng.choice((0.5, "1/2"))))
    if rng.random() < 0.05:
        pairs.insert(rng.randint(0, len(pairs)), (rng.choice((3, "2")), QZ(1, 2)))
    return dict(pairs) if rng.random() < 0.2 else pairs


def _outcome(build, pairs):
    try:
        return "class", build(pairs)
    except ValidationError as exc:
        return "refused", str(exc)


def test_make_class_matches_the_validate_twice_oracle():
    rng = random.Random(26)
    seen = set()
    for _ in range(3000):
        pairs = _drawn_pairs(rng)
        kind, got = _outcome(lambda ps: make_class(ps).invariants, pairs)
        assert (kind, got) == _outcome(make_class_oracle, pairs), pairs
        seen.add(got.partition(":")[0].partition(" to ")[0] if kind == "refused"
                 else f"{kind} of support {min(len(got), 2)}")
    assert seen == {"class of support 0", "class of support 2", "not a place",
                    "not an element of Q/Z", "invariants sum",
                    "a real place carries invariant 0 or 1/2 only",
                    "invariants live over different base fields"}


class TestIndex:
    def test_frozen(self):
        assert index(make_class({prime_place(3): qz(7, 8), prime_place(7): qz(1, 8)})) == 8
        assert index(make_class({})) == 1
        alpha = make_class(
            {prime_place(2): qz(1, 2), prime_place(5): qz(1, 3), prime_place(7): qz(1, 6)}
        )
        assert index(alpha) == 6

    def test_local_index(self):
        alpha = make_class({prime_place(2): qz(1, 2), prime_place(5): qz(1, 3),
                            prime_place(7): qz(1, 6)})
        assert local_index(alpha, prime_place(5)) == 3
        assert local_index(alpha, prime_place(11)) == 1


class TestRestriction:
    def test_restricted_local_index(self):
        M = q_ext(3, -7)
        alpha = make_class({prime_place(3): qz(7, 8), prime_place(7): qz(1, 8)})
        assert restricted_local_index(alpha, M, prime_place(7)) == 2
        assert restricted_local_index(alpha, M, prime_place(3)) == 2
        assert restricted_local_index(make_class({}), M, prime_place(7)) == 1

    def test_coprime_degree_keeps_order(self):
        M = q_ext(11)
        alpha = make_class({prime_place(3): qz(1, 3), prime_place(5): qz(2, 3)})
        assert restricted_local_index(alpha, M, prime_place(3)) == 3

    def test_restricted_index_frozen(self):
        M = q_ext(3, -7)
        assert restricted_index(
            make_class({prime_place(3): qz(7, 8), prime_place(7): qz(1, 8)}), M) == 2
        assert restricted_index(make_class({}), M) == 1
        assert restricted_index(
            make_class({prime_place(5): qz(4, 5), prime_place(11): qz(1, 5)}), M) == 5

    def test_base_mismatch(self):
        alpha = make_class({prime_place(3): qz(1, 2), prime_place(7): qz(1, 2)})
        with pytest.raises(ValidationError):
            restricted_index(alpha, ff7_cubic())

    def test_restriction_conserves_reciprocity(self):
        # sum over places of M, i.e. with multiplicity (number of places above)
        M = q_ext(3, -7)
        rng = random.Random(7)
        for _ in range(50):
            alpha = random_class(QQ, rng)
            total = QZ_ZERO
            for P in alpha.support:
                g = M.degree // local_degree(M, P)
                total = total + alpha.invariant(P).scale(local_degree(M, P) * g)
            assert total == QZ_ZERO


class TestFiberIndex:
    def test_frozen_noncrossed_product_index(self):
        M = q_ext(3, -7)
        alpha = make_class({prime_place(3): qz(7, 8), prime_place(7): qz(1, 8)})
        assert fiber_index(alpha, M, 4) == 8

    def test_zero_class(self):
        assert fiber_index(make_class({}), q_ext(3, -7), 4) == 4

    def test_formula(self):
        M = ff7_cubic()
        split = find_places_with_frobenius(M, (0, 0), count=2, bound=200)
        alpha = make_class({split[0]: qz(1, 3), split[1]: qz(2, 3)})
        assert restricted_index(alpha, M) == 3
        assert fiber_index(alpha, M, 9) == 27

    def test_incompatible_order(self):
        with pytest.raises(ValidationError):
            fiber_index(make_class({}), q_ext(3, -7), 3)
        with pytest.raises(ValidationError):
            fiber_index(make_class({}), q_ext(3, -7), 0)


class TestSplits:
    def setup_method(self):
        self.alpha = make_class({prime_place(3): qz(7, 8), prime_place(7): qz(1, 8)})

    def test_own_degrees_do_not_split(self):
        M = q_ext(3, -7)
        degrees = {P: local_degree(M, P) for P in self.alpha.support}
        assert splits(degrees, self.alpha) is False

    def test_zero_class_splits(self):
        assert splits({}, make_class({})) is True

    def test_divisible_degrees_split(self):
        assert splits({prime_place(3): 8, prime_place(7): 8}, self.alpha) is True

    def test_split_iff_restricted_index_one(self):
        M = q_ext(3, -7)
        rng = random.Random(11)
        for _ in range(60):
            alpha = random_class(QQ, rng)
            degrees = {P: local_degree(M, P) for P in alpha.support}
            assert splits(degrees, alpha) == (restricted_index(alpha, M) == 1)


class TestConstructClass:
    def test_frozen_biquadratic_full_set(self):
        M = q_ext(3, -7)
        alpha = construct_class(M, 2, {prime_place(3), prime_place(7)})
        assert dict(alpha.invariants) == {prime_place(3): qz(7, 8),
                                          prime_place(7): qz(1, 8)}

    def test_frozen_biquadratic_partial_set(self):
        M = q_ext(3, -7)
        alpha = construct_class(M, 2, {prime_place(7)})
        assert dict(alpha.invariants) == {prime_place(3): qz(1, 8),
                                          prime_place(7): qz(7, 8)}

    def test_frozen_odd_order(self):
        M = q_ext(3, -7)
        alpha = construct_class(M, 3, {prime_place(5)})
        assert dict(alpha.invariants) == {prime_place(2): qz(1, 3),
                                          prime_place(5): qz(2, 3)}
        assert restricted_index(alpha, M) == 3

    def test_trivial_m(self):
        assert construct_class(q_ext(3, -7), 1, set()).invariants == ()

    def test_frozen_composite(self):
        M = q_ext(3, -7)
        alpha = construct_class(M, 12, {prime_place(5)})
        assert dict(alpha.invariants) == {
            prime_place(2): qz(1, 3),
            prime_place(3): qz(13, 16),
            prime_place(5): qz(19, 24),
            prime_place(7): qz(1, 16),
        }
        assert restricted_index(alpha, M) == 12
        assert restricted_local_index(alpha, M, prime_place(5)) == 12

    def test_isolated_place_balances(self):
        M = q_ext(-1, 2)
        alpha = construct_class(M, 4, {prime_place(2)})
        assert dict(alpha.invariants) == {prime_place(2): qz(7, 8),
                                          prime_place(3): qz(1, 8)}
        assert restricted_index(alpha, M) == 4
        # the gap caps what survives at the isolated place
        assert restricted_local_index(alpha, M, prime_place(2)) == 2
        assert check_lemma_2_1(alpha, M, 2)

    def test_real_place_in_set(self):
        M = q_ext(3, 17)
        alpha = construct_class(M, 2, {real_place()})
        assert dict(alpha.invariants) == {
            real_place(): qz(1, 2),
            prime_place(3): qz(3, 8),
            prime_place(17): qz(1, 8),
        }
        assert restricted_local_index(alpha, M, real_place()) == 2

    def test_complex_field_skips_real_place(self):
        M = q_ext(3, -7)
        alpha = construct_class(M, 2, {real_place()})
        assert alpha.invariant(real_place()) == QZ_ZERO
        assert restricted_index(alpha, M) == 2

    def test_parity_fix_drafts_extra_place(self):
        # odd count of order-2 terms forces one more balancing place
        M = ff7_cubic()
        S = {poly_place(7, (3, 1)), poly_place(7, (4, 1)), poly_place(7, (5, 1))}
        alpha = construct_class(M, 2, S)
        expected = {poly_place(7, (0, 1)): qz(1, 2)}
        expected.update({P: qz(1, 2) for P in S})
        assert dict(alpha.invariants) == expected
        assert restricted_index(alpha, M) == 2

    def test_divisor_constraints_met(self):
        M = q_ext(-1, 2)
        for m in (2, 3, 4, 8, 12):
            S = {prime_place(2), prime_place(5), prime_place(13)}
            alpha = construct_class(M, m, S)
            assert restricted_index(alpha, M) == m
            for P in S:
                assert restricted_local_index(alpha, M, P) % d_value(P, m, M) == 0

    def test_rejects_bad_m(self):
        with pytest.raises(ValidationError):
            construct_class(q_ext(3, -7), 0, set())
        with pytest.raises(ValidationError):
            construct_class(ff7_cubic(), 7, set())
        with pytest.raises(ValidationError):
            construct_class(ff7_cubic(), 14, set())

    def test_rejects_foreign_places(self):
        with pytest.raises(ValidationError):
            construct_class(q_ext(3, -7), 2, {poly_place(7, (0, 1))})


class TestWitnessNumerator:
    """construct_class's closed-form numerator against the search it replaced."""

    RADICANDS = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, 13, -15, 17, 21)

    def _draws(self, rng, count):
        """(M, m, S): M over Q (60 %) or F_q(t), m up to 48 prime to the
        characteristic, S of 0 to 4 places (the real place among them over Q)."""
        function_fields = (ff7_cubic(), ff3_quad())
        while count:
            if rng.random() < 0.6:
                try:
                    M = build_extension(QQ, 2, tuple(rng.sample(self.RADICANDS, rng.randint(1, 2))))
                except ValidationError:  # the two radicands share a class
                    continue
                pool = [*enumerate_places(QQ, 60), real_place()]
            else:
                M = rng.choice(function_fields)
                pool = list(enumerate_places(M.base, 30))
            m = rng.randint(1, 48)
            if M.base.char and m % M.base.char == 0:
                continue
            yield M, m, rng.sample(pool, rng.randint(0, 4))
            count -= 1

    def test_closed_form_matches_the_search(self):
        branches = Counter()
        for M, m, S in self._draws(random.Random(33), 400):
            want, choices = oracle_construct_class(M, m, S)
            assert construct_class(M, m, S) == want, (M.describe(), m, S)
            for c, drafted in choices.values():
                branches["c = 2"] += c == 2
                branches["drafted"] += drafted > 0
        # both branches of the closed form are reached, not only c = 1
        assert branches["c = 2"] > 0 and branches["drafted"] > 0, branches

    def test_partial_sum_past_full_order_raises_named_error(self, monkeypatch):
        # an under-reported u2 = 0 makes full = 2 while the place 5, of local
        # degree 2 in Q(sqrt 3, sqrt -7), carries 1/4
        monkeypatch.setattr(brauer, "isolation_report",
                            lambda M, p: IsolationReport(p, 0, 0, 0, None))
        with pytest.raises(InvariantError, match="partial sum 1/4 has order above"
                                                 r" p\^\(n\+u2\) = 2"):
            construct_class(q_ext(3, -7), 2, {prime_place(5)})


class TestLemma21:
    def test_spec_pair(self):
        M = q_ext(-1, 2)
        alpha = make_class({prime_place(2): qz(1, 2), prime_place(3): qz(1, 2)})
        assert check_lemma_2_1(alpha, M, 2)

    def test_zero_class(self):
        assert check_lemma_2_1(make_class({}), q_ext(-1, 2), 2)

    def test_vacuous_without_isolation(self):
        alpha = make_class({prime_place(3): qz(7, 8), prime_place(7): qz(1, 8)})
        assert check_lemma_2_1(alpha, q_ext(3, -7), 2)
        assert check_lemma_2_1(alpha, q_ext(3, -7), 5)

    def test_wild_prime_vacuous(self):
        alpha = make_class({})
        assert check_lemma_2_1(alpha, ff7_cubic(), 7)

    def test_random_classes(self):
        M = q_ext(-1, 2)
        rng = random.Random(2)
        for _ in range(200):
            assert check_lemma_2_1(random_class(QQ, rng), M, 2)


class TestRandomClass:
    def test_deterministic_and_valid(self):
        a = random_class(QQ, random.Random(5))
        b = random_class(QQ, random.Random(5))
        assert a == b
        assert isinstance(a, BrauerClass)
        total = QZ_ZERO
        for _, inv in a.invariants:
            total = total + inv
        assert total == QZ_ZERO
