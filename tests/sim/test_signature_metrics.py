"""Tests for the §6 signature-complexity metric (Ω(nt) signatures)."""

from signature_count import (
    count_signatures,
    dolev_reischuk_signature_floor,
    signature_complexity,
)
from repro.crypto.chains import start_chain
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SignatureScheme
from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.phase_king import phase_king_spec


class TestCountSignatures:
    def test_plain_payloads_have_none(self):
        assert count_signatures(("value", 1)) == 0
        assert count_signatures(None) == 0
        assert count_signatures(42) == 0

    def test_bare_signature(self):
        scheme = SignatureScheme(KeyRegistry(3))
        signature = scheme.signer_for(0).sign("m")
        assert count_signatures(signature) == 1
        assert count_signatures((signature, signature)) == 2

    def test_chain_counts_with_multiplicity(self):
        scheme = SignatureScheme(KeyRegistry(4))
        chain = start_chain(scheme.signer_for(0), "i", "v")
        chain = chain.extend(scheme.signer_for(1))
        chain = chain.extend(scheme.signer_for(2))
        assert count_signatures(chain) == 3
        assert count_signatures((chain,)) == 3

    def test_transaction_signature_counted(self):
        from repro.protocols.external_validity import ClientPool

        pool = ClientPool(clients=2)
        transaction = pool.issue(0, "body")
        assert count_signatures(transaction) == 1


class TestProtocolSignatureComplexity:
    def test_unauthenticated_protocol_carries_none(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run_uniform(0)
        assert signature_complexity(execution) == 0

    def test_dolev_strong_meets_nt_floor(self):
        """The [51] signature bound: authenticated broadcast moves
        Ω(nt) signatures; Dolev–Strong does (round-2 relays alone carry
        2 signatures to each of n-1 receivers from n-1 relays)."""
        for n, t in [(6, 2), (8, 4), (12, 6)]:
            spec = dolev_strong_spec(n, t)
            execution = spec.run_uniform("v")
            signatures = signature_complexity(execution)
            assert signatures >= dolev_reischuk_signature_floor(n, t) / 4

    def test_signature_count_grows_with_n(self):
        small = dolev_strong_spec(6, 2).run_uniform("v")
        large = dolev_strong_spec(12, 2).run_uniform("v")
        assert signature_complexity(large) > signature_complexity(
            small
        )
