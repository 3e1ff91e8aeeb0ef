"""The scl inequality rules, derivation replay, and the height calculator."""

import random
from fractions import Fraction

import pytest

from twistlab import (
    BoundKind,
    CBoundModel,
    Derivation,
    HeightQuery,
    ILLUSTRATIVE_MODEL,
    ModelFlag,
    PreconditionError,
    RationalBound,
    Rule,
    Surface,
    chain_lower,
    height_chain_bound,
    height_lower_bound,
    height_model_bound,
    korkmaz_lower,
    lower,
    power_rule,
    product_rule,
    replay,
    verify_derivation,
)
from twistlab.sclbound import (
    capped_genus,
    derive_cap,
    derive_korkmaz,
    derive_power,
    derive_product,
    upper,
)


def linear_scan_height(query: HeightQuery, cap: int = 10_000) -> int:
    """Oracle: first k with chain bound <= model bound, by plain scan."""
    for k in range(cap):
        if height_chain_bound(query, k) <= height_model_bound(query, k):
            return k
    raise AssertionError("no crossover found below the scan cap")


def test_korkmaz_values():
    assert korkmaz_lower(3).value == Fraction(1, 48)
    assert korkmaz_lower(4).value == Fraction(1, 66)
    with pytest.raises(PreconditionError):
        korkmaz_lower(2)


def test_lower_bound_clamped_nonnegative():
    assert lower(Fraction(-3, 2)).value == 0
    assert upper(Fraction(-3, 2)).value == Fraction(-3, 2)


def test_product_rule():
    assert product_rule(lower(1), lower(1)).value == 1
    assert product_rule(lower(Fraction(1, 48)), lower(Fraction(1, 48))).value == 0
    assert product_rule(lower(Fraction(3, 2)), lower(Fraction(1, 2))).value == 1
    with pytest.raises(PreconditionError):
        product_rule(lower(1), upper(1))


def test_power_rule():
    assert power_rule(lower(Fraction(1, 48)), 48).value == 1
    assert power_rule(lower(Fraction(7, 3)), 0).value == 0
    assert power_rule(lower(Fraction(1, 6)), -12).value == 2
    with pytest.raises(PreconditionError):
        power_rule(upper(1), 2)


def test_power_rule_composes_over_products_of_exponents():
    rng = random.Random(31)
    for _ in range(40):
        base = lower(Fraction(rng.randint(0, 20), rng.randint(1, 20)))
        a, b = rng.randint(0, 9), rng.randint(0, 9)
        assert power_rule(base, a * b).value == power_rule(power_rule(base, a), b).value


def test_chain_lower_values():
    tc = lower(Fraction(1, 48))
    assert chain_lower([], lower(0), tc, 96).result.value == 1
    assert chain_lower([], lower(0), tc, 0).result.value == 0
    two = [lower(Fraction(1, 48)), lower(Fraction(1, 48))]
    assert chain_lower(two, lower(0), tc, 480).result.value == Fraction(169, 24)


def test_chain_lower_rejects_upper_bounds():
    with pytest.raises(PreconditionError):
        chain_lower([upper(1)], lower(0), lower(0), 1)


def test_chain_conservativity_ordering():
    rng = random.Random(37)
    tc = lower(Fraction(1, 48))
    for _ in range(40):
        k = rng.randint(0, 4)
        n = rng.randint(0, 500)
        positive = [lower(Fraction(rng.randint(0, 5), rng.randint(1, 9))) for _ in range(k)]
        phi0 = lower(Fraction(rng.randint(0, 5), rng.randint(1, 9)))
        zeros = [lower(0)] * k
        conservative = chain_lower(zeros, lower(0), tc, n).result.value
        sharper = chain_lower(positive, phi0, tc, n).result.value
        assert conservative <= sharper


def test_derivation_replay_every_rule():
    kork = derive_korkmaz(3)
    assert verify_derivation(kork)
    pw = derive_power(kork, 96)
    assert verify_derivation(pw)
    assert pw.result.value == 2
    prod = derive_product(pw, lower(Fraction(1, 2)))
    assert verify_derivation(prod)
    assert prod.result.value == Fraction(3, 2)
    cap = derive_cap(prod)
    assert verify_derivation(cap)
    chain = chain_lower([lower(Fraction(1, 48))], lower(0), lower(Fraction(1, 48)), 480)
    assert verify_derivation(chain)
    result = height_lower_bound(HeightQuery(2, 10_000))
    for derivation in result.derivations:
        assert verify_derivation(derivation)


def test_derivation_replay_detects_tampering():
    chain = chain_lower([], lower(0), lower(Fraction(1, 48)), 96)
    forged = Derivation(chain.rule, chain.inputs, lower(Fraction(999)), chain.params)
    assert not verify_derivation(forged)
    # tampering below the root is caught too
    power_node = chain.inputs[-1]
    forged_child = Derivation(
        power_node.rule, power_node.inputs, lower(Fraction(999)), power_node.params
    )
    wrapped = Derivation(
        chain.rule, (*chain.inputs[:-1], forged_child), chain.result, chain.params
    )
    assert not verify_derivation(wrapped)


def test_replay_reproduces_bits():
    chain = chain_lower(
        [lower(Fraction(2, 7)), lower(Fraction(1, 3))],
        lower(Fraction(1, 5)),
        lower(Fraction(3, 11)),
        -13,
    )
    replayed = replay(chain)
    assert replayed.value == chain.result.value
    assert replayed.kind is BoundKind.LOWER


def test_model_validation_and_flags():
    with pytest.raises(PreconditionError):
        CBoundModel(Fraction(-1), Fraction(0))
    assert ILLUSTRATIVE_MODEL.flag is ModelFlag.ILLUSTRATIVE
    assert ILLUSTRATIVE_MODEL.evaluate(8) == 8
    custom = CBoundModel(Fraction(1, 2), Fraction(7), ModelFlag.USER_SUPPLIED)
    assert custom.evaluate(10) == 12


def test_height_trivial_cases():
    assert height_lower_bound(HeightQuery(2, 0)).h_lb == 0
    huge_beta = CBoundModel(Fraction(1), Fraction(10**9), ModelFlag.USER_SUPPLIED)
    assert height_lower_bound(HeightQuery(2, 10**6, huge_beta)).h_lb == 0
    with pytest.raises(PreconditionError):
        height_lower_bound(
            HeightQuery(2, 5, CBoundModel(Fraction(0), Fraction(-1), ModelFlag.USER_SUPPLIED))
        )
    with pytest.raises(PreconditionError):
        HeightQuery(-1, 5)


def test_height_matches_linear_scan_oracle():
    rng = random.Random(41)
    models = [
        ILLUSTRATIVE_MODEL,
        CBoundModel(Fraction(1, 3), Fraction(5, 2), ModelFlag.USER_SUPPLIED),
        CBoundModel(Fraction(0), Fraction(12), ModelFlag.USER_SUPPLIED),
        CBoundModel(Fraction(2), Fraction(-9), ModelFlag.USER_SUPPLIED),
    ]
    for _ in range(60):
        query = HeightQuery(
            rng.randint(0, 6), rng.randint(-200_000, 200_000), rng.choice(models)
        )
        assert height_lower_bound(query).h_lb == linear_scan_height(query)


# The models of the benchmark's heightlb requests, two with a negative beta.
BENCH_STYLE_MODELS = [
    CBoundModel(Fraction(alpha), Fraction(beta), ModelFlag.USER_SUPPLIED)
    for alpha, beta in (
        ("1/2", "3"),
        ("1", "0"),
        ("3/2", "-1"),
        ("2", "5"),
        ("2/3", "1"),
        ("5/4", "-2"),
    )
]


def test_height_integer_search_matches_fraction_scan():
    rng = random.Random(43)

    def fibres():
        # as given by --fibre-b1 and by --surface
        return (rng.randint(0, 12), Surface(rng.randint(0, 6), rng.randint(1, 3)).betti)

    for model in BENCH_STYLE_MODELS:
        for fibre_b1 in fibres():
            for top in (3, 6, 9):
                n = rng.randint(0, 10**top) * rng.choice((-1, 1))
                query = HeightQuery(fibre_b1, n, model)
                assert height_lower_bound(query).h_lb == linear_scan_height(query, cap=10**5)
    query = HeightQuery(rng.randint(0, 12), -(10**12), BENCH_STYLE_MODELS[3])
    assert height_lower_bound(query).h_lb == linear_scan_height(query, cap=10**6)
    # Ties L(k) = C(m(k)), and a ceiling below zero at small sizes.
    negative_at_small_sizes = CBoundModel(
        Fraction(1, 3), Fraction(-4), ModelFlag.USER_SUPPLIED
    )
    for model in (*BENCH_STYLE_MODELS, negative_at_small_sizes):
        for fibre_b1 in fibres():
            for k in (0, 3, 40, 400):
                tie = HeightQuery(fibre_b1, 0, model)
                n = (18 * capped_genus(tie, k) - 6) * (k + 7 + height_model_bound(tie, k))
                for value in sorted({int(n), int(n) + 1, max(int(n) - 1, 0), k}):
                    query = HeightQuery(fibre_b1, value * rng.choice((-1, 1)), model)
                    assert height_lower_bound(query).h_lb == linear_scan_height(query)
    # Beyond the scans, the Fraction comparison brackets each crossover:
    # excluded just below it and not at it, which by monotonicity in k is
    # what a linear scan would find.
    for _ in range(200):
        model = rng.choice(BENCH_STYLE_MODELS)
        fibre_b1 = rng.choice(fibres())
        n = int(10 ** (rng.random() * 12)) * rng.choice((-1, 1))
        query = HeightQuery(fibre_b1, n, model)
        h = height_lower_bound(query).h_lb
        assert height_chain_bound(query, h) <= height_model_bound(query, h)
        if h > 0:
            assert height_chain_bound(query, h - 1) > height_model_bound(query, h - 1)


def test_height_symmetric_in_sign_of_n():
    for n in (1, 17, 4_096, 123_456):
        assert (
            height_lower_bound(HeightQuery(2, n)).h_lb
            == height_lower_bound(HeightQuery(2, -n)).h_lb
        )


def test_height_monotone_in_n_and_k():
    previous = -1
    for n in range(0, 300_000, 7_919):
        h = height_lower_bound(HeightQuery(2, n)).h_lb
        assert h >= previous
        previous = h
    query = HeightQuery(2, 250_000)
    chain_values = [height_chain_bound(query, k) for k in range(0, 200)]
    model_values = [height_model_bound(query, k) for k in range(0, 200)]
    assert all(a >= b for a, b in zip(chain_values, chain_values[1:]))
    assert all(a <= b for a, b in zip(model_values, model_values[1:]))


def test_height_strictly_increasing_sample():
    values = [height_lower_bound(HeightQuery(2, n)).h_lb for n in (100, 10**4, 10**6)]
    assert values[0] < values[1] < values[2]


def test_height_derivations_witness_the_crossover():
    query = HeightQuery(2, 10**4)
    result = height_lower_bound(query)
    assert result.h_lb > 0
    assert len(result.derivations) == 4
    excluded_lower, excluded_upper, cross_lower, cross_upper = result.derivations
    k = result.h_lb - 1
    assert excluded_lower.rule is Rule.CAP
    assert excluded_upper.rule is Rule.MODEL
    assert excluded_lower.result.value == height_chain_bound(query, k)
    assert excluded_upper.result.value == height_model_bound(query, k)
    assert excluded_lower.result.value > excluded_upper.result.value
    assert cross_lower.result.value == height_chain_bound(query, result.h_lb)
    assert cross_upper.result.value == height_model_bound(query, result.h_lb)
    assert cross_lower.result.value <= cross_upper.result.value
    zero = height_lower_bound(HeightQuery(2, 0))
    assert len(zero.derivations) == 2


def test_height_divergence_small_scale():
    # every target below 13 is reached by some exponent under the default model
    targets = set(range(13))
    for n in range(0, 60_000, 500):
        targets.discard(height_lower_bound(HeightQuery(2, n)).h_lb)
        h = height_lower_bound(HeightQuery(2, n)).h_lb
        targets -= {t for t in list(targets) if t <= h}
    assert not targets
