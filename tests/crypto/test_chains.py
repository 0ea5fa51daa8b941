"""Tests for repro.crypto.chains (Dolev–Strong signature chains)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chains import (
    _DOMAIN,
    SignedChain,
    _chain_head,
    _signed_bytes,
    start_chain,
    verify_chain,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signature, SignatureScheme, canonical_bytes


@pytest.fixture
def scheme():
    return SignatureScheme(KeyRegistry(5, seed=b"chains"))


def build_chain(scheme, signers, value="v", instance="i"):
    chain = start_chain(scheme.signer_for(signers[0]), instance, value)
    for pid in signers[1:]:
        chain = chain.extend(scheme.signer_for(pid))
    return chain


class TestChainConstruction:
    def test_start_chain_length_one(self, scheme):
        chain = start_chain(scheme.signer_for(0), "i", "v")
        assert len(chain) == 1
        assert chain.signers == (0,)

    def test_extension_appends(self, scheme):
        chain = build_chain(scheme, [0, 1, 2])
        assert chain.signers == (0, 1, 2)
        assert len(chain) == 3

    def test_double_signing_rejected(self, scheme):
        chain = build_chain(scheme, [0, 1])
        with pytest.raises(ValueError, match="already signed"):
            chain.extend(scheme.signer_for(1))

    def test_has_signer(self, scheme):
        chain = build_chain(scheme, [0, 3])
        assert chain.has_signer(3)
        assert not chain.has_signer(2)


class TestVerification:
    def test_valid_chain_verifies(self, scheme):
        chain = build_chain(scheme, [0, 1, 2])
        assert verify_chain(scheme, chain, designated_sender=0)

    def test_minimum_length_enforced(self, scheme):
        chain = build_chain(scheme, [0, 1])
        assert verify_chain(scheme, chain, 0, minimum_length=2)
        assert not verify_chain(scheme, chain, 0, minimum_length=3)

    def test_wrong_sender_rejected(self, scheme):
        chain = build_chain(scheme, [1, 2])
        assert not verify_chain(scheme, chain, designated_sender=0)

    def test_value_tamper_rejected(self, scheme):
        chain = build_chain(scheme, [0, 1])
        tampered = SignedChain(
            instance=chain.instance,
            value="other",
            signatures=chain.signatures,
        )
        assert not verify_chain(scheme, tampered, 0)

    def test_instance_tamper_rejected(self, scheme):
        """Chains cannot be replayed across broadcast instances."""
        chain = build_chain(scheme, [0, 1], instance="alpha")
        replayed = SignedChain(
            instance="beta",
            value=chain.value,
            signatures=chain.signatures,
        )
        assert not verify_chain(scheme, replayed, 0)

    def test_reordered_signatures_rejected(self, scheme):
        chain = build_chain(scheme, [0, 1, 2])
        shuffled = SignedChain(
            instance=chain.instance,
            value=chain.value,
            signatures=(
                chain.signatures[0],
                chain.signatures[2],
                chain.signatures[1],
            ),
        )
        assert not verify_chain(scheme, shuffled, 0)

    def test_duplicate_signers_rejected(self, scheme):
        chain = build_chain(scheme, [0, 1])
        duplicated = SignedChain(
            instance=chain.instance,
            value=chain.value,
            signatures=chain.signatures + (chain.signatures[1],),
        )
        assert not verify_chain(scheme, duplicated, 0)

    def test_garbage_signature_rejected(self, scheme):
        chain = build_chain(scheme, [0])
        junk = SignedChain(
            instance=chain.instance,
            value=chain.value,
            signatures=chain.signatures
            + (Signature(signer=1, tag=b"\x01" * 32),),
        )
        assert not verify_chain(scheme, junk, 0)

    def test_empty_chain_rejected(self, scheme):
        empty = SignedChain(instance="i", value="v", signatures=())
        assert not verify_chain(scheme, empty, 0)

    def test_truncated_prefix_still_verifies(self, scheme):
        """Dropping suffix signatures leaves a valid (shorter) chain —
        that is fine: shorter chains carry weaker round guarantees."""
        chain = build_chain(scheme, [0, 1, 2])
        prefix = SignedChain(
            instance=chain.instance,
            value=chain.value,
            signatures=chain.signatures[:2],
        )
        assert verify_chain(scheme, prefix, 0)


def chain_content(instance, value, prefix):
    """The content a chain signature covers, by definition."""
    return (_DOMAIN, instance, value, prefix)


def reference_verify(scheme, chain, designated_sender, minimum_length=1):
    """``verify_chain`` as it was defined: every signature checked
    against the whole re-encoded ``chain_content`` of its prefix."""
    signatures = chain.signatures
    if len(signatures) < max(1, minimum_length):
        return False
    if signatures[0].signer != designated_sender:
        return False
    signers = [signature.signer for signature in signatures]
    if len(signers) != len(set(signers)):
        return False
    return all(
        scheme.verify(
            signature,
            chain_content(chain.instance, chain.value, signatures[:index]),
        )
        for index, signature in enumerate(signatures)
    )


signable = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.text(max_size=3),
        st.binary(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
"""Values ``canonical_bytes`` encodes, nested tuples included."""

chain_values = st.one_of(signable, st.floats(allow_nan=False))
"""Also values no chain can be signed over (floats)."""


@st.composite
def chains(draw):
    """A genuine chain, then maybe tampered, shuffled, duplicated,
    truncated, padded with junk or spliced with another chain."""
    registry_scheme = SignatureScheme(KeyRegistry(5, seed=b"chains"))
    signers = draw(
        st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True)
    )
    instance, value = draw(signable), draw(signable)
    chain = build_chain(registry_scheme, signers, value, instance)
    signatures = list(chain.signatures)
    mutation = draw(
        st.sampled_from(
            ["none", "value", "instance", "shuffle", "duplicate",
             "truncate", "junk", "splice"]
        )
    )
    if mutation == "value":
        value = draw(chain_values)
    elif mutation == "instance":
        instance = draw(chain_values)
    elif mutation == "shuffle":
        signatures = draw(st.permutations(signatures))
    elif mutation == "duplicate":
        signatures.insert(
            draw(st.integers(0, len(signatures))),
            draw(st.sampled_from(signatures)),
        )
    elif mutation == "truncate":
        signatures = signatures[: draw(st.integers(0, len(signatures)))]
    elif mutation == "junk":
        signatures.append(
            Signature(signer=draw(st.integers(0, 6)), tag=draw(st.binary()))
        )
    elif mutation == "splice":
        other = build_chain(registry_scheme, signers, "other", instance)
        index = draw(st.integers(0, len(signatures) - 1))
        signatures[index] = other.signatures[index]
    return registry_scheme, SignedChain(instance, value, tuple(signatures))


class TestOneEncoder:
    """Signing and verifying encode each part of a chain once, yet sign
    exactly the bytes of the per-prefix definition."""

    @settings(max_examples=300, deadline=None)
    @given(
        drawn=chains(), sender=st.integers(0, 4), minimum=st.integers(0, 6)
    )
    def test_verify_chain_matches_the_definition(
        self, drawn, sender, minimum
    ):
        scheme, chain = drawn
        senders = {sender}
        if chain.signatures:
            senders.add(chain.signatures[0].signer)
        for designated in senders:
            assert verify_chain(
                scheme, chain, designated, minimum_length=minimum
            ) == reference_verify(
                scheme, chain, designated, minimum_length=minimum
            )

    @settings(max_examples=200, deadline=None)
    @given(
        signers=st.lists(
            st.integers(0, 4), min_size=1, max_size=5, unique=True
        ),
        instance=signable,
        value=signable,
    )
    def test_encoder_is_the_per_prefix_encoding(
        self, signers, instance, value
    ):
        scheme = SignatureScheme(KeyRegistry(5, seed=b"chains"))
        chain = build_chain(scheme, signers, value, instance)
        head = _chain_head(instance, value)
        encoded = [canonical_bytes(s) for s in chain.signatures]
        for index, signature in enumerate(chain.signatures):
            content = chain_content(
                instance, value, chain.signatures[:index]
            )
            assert _signed_bytes(head, encoded[:index]) == canonical_bytes(
                content
            )
            # Tags are the ones signing the definition would produce.
            assert signature == scheme.signer_for(signature.signer).sign(
                content
            )
        assert verify_chain(scheme, chain, signers[0])
