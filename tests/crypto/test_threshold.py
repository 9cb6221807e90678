"""Tests for repro.crypto.threshold: threshold PRF and DLEQ proofs."""

import random

import pytest

from repro.crypto.group import default_group
from repro.crypto.hashing import hash_fields
from repro.crypto.shamir import lagrange_at_zero, split_secret
from repro.crypto.threshold import (
    DleqProof,
    PartialEval,
    ThresholdPRF,
    dleq_prove,
    dleq_verify,
    prf_output_to_int,
)
from repro.errors import ThresholdError


@pytest.fixture(scope="module")
def group():
    return default_group(256)


def build_prfs(group, n=4, threshold=3, seed=0):
    rng = random.Random(seed)
    secret = group.random_scalar(rng)
    shares = split_secret(secret, threshold, n, group.q, rng)
    vks = {s.x - 1: group.exp(group.g, s.y) for s in shares}
    prfs = [ThresholdPRF(group, threshold, shares[i], vks) for i in range(n)]
    return secret, prfs


class TestDleq:
    def test_roundtrip(self, group):
        g2 = group.hash_to_group("base2")
        h1, h2, proof = dleq_prove(group, 12345, group.g, g2)
        assert dleq_verify(group, group.g, h1, g2, h2, proof)

    def test_wrong_statement_rejected(self, group):
        g2 = group.hash_to_group("base2")
        h1, h2, proof = dleq_prove(group, 12345, group.g, g2)
        assert not dleq_verify(group, group.g, h1, g2, group.mul(h2, group.g), proof)

    def test_tampered_proof_rejected(self, group):
        g2 = group.hash_to_group("base2")
        h1, h2, proof = dleq_prove(group, 999, group.g, g2)
        bad = DleqProof(c=proof.c, s=(proof.s + 1) % group.q)
        assert not dleq_verify(group, group.g, h1, g2, h2, bad)

    def test_non_member_rejected(self, group):
        g2 = group.hash_to_group("base2")
        h1, h2, proof = dleq_prove(group, 55, group.g, g2)
        assert not dleq_verify(group, group.g, 0, g2, h2, proof)


class TestThresholdPRF:
    def test_combine_equals_direct_evaluation(self, group):
        secret, prfs = build_prfs(group)
        msg = hash_fields("wave", 1)
        partials = [prf.partial_eval(msg) for prf in prfs]
        combined = prfs[0].combine(msg, partials)
        h = prfs[0].input_element(msg)
        assert combined == group.exp(h, secret)

    def test_combine_equals_per_partial_product(self, group):
        # combine runs one multi-exponentiation; it must return exactly
        # the product of one pow per partial.
        _, prfs = build_prfs(group, n=16, threshold=6, seed=3)
        msg = hash_fields("wave", 7)
        partials = [prf.partial_eval(msg) for prf in prfs]
        for chosen in (partials[:6], partials[10:], partials[::3][:6]):
            lam = lagrange_at_zero([p.index + 1 for p in chosen], group.q)
            expected = 1
            for p in chosen:
                expected = expected * pow(p.value, lam[p.index + 1], group.p) % group.p
            assert prfs[0].combine(msg, chosen) == expected

    def test_any_threshold_subset_combines_identically(self, group):
        _, prfs = build_prfs(group, n=5, threshold=3)
        msg = hash_fields("wave", 2)
        partials = [prf.partial_eval(msg) for prf in prfs]
        a = prfs[0].combine(msg, partials[:3])
        b = prfs[0].combine(msg, partials[2:])
        assert a == b

    def test_partials_verify(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        for prf in prfs:
            partial = prf.partial_eval(msg)
            assert prfs[0].verify_partial(msg, partial)

    def test_forged_partial_rejected(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        partial = prfs[1].partial_eval(msg)
        forged = PartialEval(index=2, value=partial.value, proof=partial.proof)
        assert not prfs[0].verify_partial(msg, forged)

    def test_unknown_index_rejected(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        partial = prfs[0].partial_eval(msg)
        alien = PartialEval(index=99, value=partial.value, proof=partial.proof)
        assert not prfs[0].verify_partial(msg, alien)

    def test_combine_with_bad_partial_raises(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        partials = [prf.partial_eval(msg) for prf in prfs[:3]]
        partials[1] = PartialEval(
            index=partials[1].index,
            value=group.mul(partials[1].value, group.g),
            proof=partials[1].proof,
        )
        with pytest.raises(ThresholdError, match="DLEQ"):
            prfs[0].combine(msg, partials)

    def test_combine_insufficient_raises(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        with pytest.raises(ThresholdError, match="distinct"):
            prfs[0].combine(msg, [prfs[0].partial_eval(msg)])

    def test_duplicate_partials_not_double_counted(self, group):
        _, prfs = build_prfs(group)
        msg = hash_fields("m")
        p0 = prfs[0].partial_eval(msg)
        with pytest.raises(ThresholdError):
            prfs[0].combine(msg, [p0, p0, p0])

    def test_verifier_only_cannot_evaluate(self, group):
        _, prfs = build_prfs(group)
        observer = ThresholdPRF(group, 3, None, prfs[0].verification_keys)
        with pytest.raises(ThresholdError):
            observer.partial_eval(hash_fields("m"))

    def test_observer_can_combine(self, group):
        _, prfs = build_prfs(group)
        observer = ThresholdPRF(group, 3, None, prfs[0].verification_keys)
        msg = hash_fields("m")
        partials = [prf.partial_eval(msg) for prf in prfs[:3]]
        assert observer.combine(msg, partials) == prfs[0].combine(msg, partials)

    def test_distinct_messages_distinct_outputs(self, group):
        _, prfs = build_prfs(group)
        m1, m2 = hash_fields("a"), hash_fields("b")
        p1 = [prf.partial_eval(m1) for prf in prfs[:3]]
        p2 = [prf.partial_eval(m2) for prf in prfs[:3]]
        assert prfs[0].combine(m1, p1) != prfs[0].combine(m2, p2)

    def test_invalid_threshold_rejected(self, group):
        with pytest.raises(ThresholdError):
            ThresholdPRF(group, 0, None, {})


class TestOutputMapping:
    def test_uniform_int_mapping_deterministic(self, group):
        x = group.exp(group.g, 7)
        assert prf_output_to_int(group, x) == prf_output_to_int(group, x)

    def test_distinct_elements_distinct_ints(self, group):
        a = group.exp(group.g, 7)
        b = group.exp(group.g, 8)
        assert prf_output_to_int(group, a) != prf_output_to_int(group, b)
