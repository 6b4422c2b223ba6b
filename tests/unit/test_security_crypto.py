"""Unit tests for number theory, RSA, DH and the record cipher."""

import pytest

from repro.security.cipher import (
    MAX_RECORD_BODY,
    CipherError,
    RecordCipher,
    SessionKeys,
    derive_session_keys,
    keystream_xor,
    random_master_secret,
)
from repro.security.dh import MODP_2048, DhError, DiffieHellman
from repro.security.numbers import generate_prime, is_probable_prime, modinv
from repro.security.rsa import RsaError, RsaKeyPair, RsaPublicKey

# Small keys keep the suite fast; benches sweep realistic sizes.
KEY_BITS = 512


@pytest.fixture(scope="module")
def keypair():
    return RsaKeyPair.generate(KEY_BITS)


class TestNumbers:
    def test_small_primes_recognised(self):
        for p in [2, 3, 5, 7, 11, 97, 101, 7919]:
            assert is_probable_prime(p)

    def test_small_composites_rejected(self):
        for c in [0, 1, 4, 9, 15, 91, 561, 7917]:  # 561 is a Carmichael number
            assert not is_probable_prime(c)

    def test_negative_not_prime(self):
        assert not is_probable_prime(-7)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime(2**127 - 1)

    def test_large_known_composite(self):
        assert not is_probable_prime((2**127 - 1) * (2**89 - 1))

    def test_generate_prime_has_exact_bits(self):
        for bits in [64, 128, 256]:
            p = generate_prime(bits)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_generate_prime_rejects_tiny(self):
        with pytest.raises(ValueError):
            generate_prime(4)

    def test_modinv_basic(self):
        assert modinv(3, 7) == 5
        assert (3 * modinv(3, 7)) % 7 == 1

    def test_modinv_no_inverse(self):
        with pytest.raises(ValueError):
            modinv(4, 8)

    def test_modinv_invalid_modulus(self):
        with pytest.raises(ValueError):
            modinv(3, 0)


class TestRsa:
    def test_sign_verify_round_trip(self, keypair):
        message = b"the proxy authenticates this site"
        signature = keypair.sign(message)
        assert keypair.public.verify(message, signature)

    def test_wrong_message_rejected(self, keypair):
        signature = keypair.sign(b"original")
        assert not keypair.public.verify(b"tampered", signature)

    def test_tampered_signature_rejected(self, keypair):
        signature = bytearray(keypair.sign(b"msg"))
        signature[0] ^= 0xFF
        assert not keypair.public.verify(b"msg", bytes(signature))

    def test_wrong_key_rejected(self, keypair):
        other = RsaKeyPair.generate(KEY_BITS)
        signature = keypair.sign(b"msg")
        assert not other.public.verify(b"msg", signature)

    def test_wrong_length_signature_rejected(self, keypair):
        assert not keypair.public.verify(b"msg", b"short")

    def test_public_key_serialisation(self, keypair):
        blob = keypair.public.to_bytes()
        restored = RsaPublicKey.from_bytes(blob)
        assert restored == keypair.public

    def test_malformed_public_key_rejected(self):
        with pytest.raises(RsaError):
            RsaPublicKey.from_bytes(b"\x00\x00\x00\x02ab")

    def test_fingerprint_stable_and_short(self, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert len(keypair.public.fingerprint()) == 16

    def test_tiny_key_generation_rejected(self):
        with pytest.raises(RsaError):
            RsaKeyPair.generate(128)

    def test_key_bits_property(self, keypair):
        assert abs(keypair.public.bits - KEY_BITS) <= 1


class TestDiffieHellman:
    def test_shared_secret_agrees(self):
        alice, bob = DiffieHellman(), DiffieHellman()
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)

    def test_secret_is_32_bytes(self):
        alice, bob = DiffieHellman(), DiffieHellman()
        assert len(alice.shared_secret(bob.public)) == 32

    def test_different_sessions_different_secrets(self):
        alice, bob, eve = DiffieHellman(), DiffieHellman(), DiffieHellman()
        assert alice.shared_secret(bob.public) != alice.shared_secret(eve.public)

    def test_out_of_range_peer_rejected(self):
        alice = DiffieHellman()
        for bad in [0, 1, alice.prime - 1, alice.prime, alice.prime + 5]:
            with pytest.raises(DhError):
                alice.shared_secret(bad)

    def test_group_is_fixed_to_rfc3526_group_14(self):
        assert DiffieHellman().prime == MODP_2048
        assert MODP_2048.bit_length() == 2048


class TestRecordCipher:
    def make_pair(self):
        master = random_master_secret()
        keys = derive_session_keys(master, "client")
        return RecordCipher(keys), RecordCipher(keys)

    def test_seal_open_round_trip(self):
        sender, receiver = self.make_pair()
        record = sender.seal(b"hello tunnel")
        assert receiver.open(record) == b"hello tunnel"

    def test_empty_plaintext(self):
        sender, receiver = self.make_pair()
        assert receiver.open(sender.seal(b"")) == b""

    def test_large_plaintext(self):
        sender, receiver = self.make_pair()
        blob = bytes(range(256)) * 1000
        assert receiver.open(sender.seal(blob)) == blob

    def test_ciphertext_differs_from_plaintext(self):
        sender, _ = self.make_pair()
        record = sender.seal(b"secret payload")
        assert b"secret payload" not in record

    def test_sequence_numbers_vary_keystream(self):
        sender, receiver = self.make_pair()
        r1 = sender.seal(b"same")
        r2 = sender.seal(b"same")
        assert r1[40:] != r2[40:]  # same plaintext, different ciphertext
        assert receiver.open(r1) == b"same"
        assert receiver.open(r2) == b"same"

    def test_tampered_record_rejected(self):
        sender, receiver = self.make_pair()
        record = bytearray(sender.seal(b"payload"))
        record[-1] ^= 0x01
        with pytest.raises(CipherError):
            receiver.open(bytes(record))

    def test_tampered_mac_rejected(self):
        sender, receiver = self.make_pair()
        record = bytearray(sender.seal(b"payload"))
        record[10] ^= 0x01  # inside the MAC
        with pytest.raises(CipherError):
            receiver.open(bytes(record))

    def test_replay_rejected(self):
        sender, receiver = self.make_pair()
        record = sender.seal(b"once")
        receiver.open(record)
        with pytest.raises(CipherError):
            receiver.open(record)

    def test_reorder_rejected(self):
        sender, receiver = self.make_pair()
        first = sender.seal(b"1")
        second = sender.seal(b"2")
        receiver.open(second)
        with pytest.raises(CipherError):
            receiver.open(first)

    def test_truncated_record_rejected(self):
        sender, receiver = self.make_pair()
        with pytest.raises(CipherError):
            receiver.open(sender.seal(b"payload")[:10])

    def test_directional_keys_differ(self):
        master = random_master_secret()
        client = derive_session_keys(master, "client")
        server = derive_session_keys(master, "server")
        assert client.encrypt_key != server.encrypt_key
        assert client.mac_key != server.mac_key

    def test_wrong_direction_rejected(self):
        master = random_master_secret()
        sender = RecordCipher(derive_session_keys(master, "client"))
        receiver = RecordCipher(derive_session_keys(master, "server"))
        with pytest.raises(CipherError):
            receiver.open(sender.seal(b"cross"))

    def test_session_keys_length_enforced(self):
        with pytest.raises(CipherError):
            SessionKeys(encrypt_key=b"short", mac_key=b"\x00" * 32)

    def test_empty_master_secret_rejected(self):
        with pytest.raises(CipherError):
            derive_session_keys(b"", "client")

    def test_overhead_constant(self):
        sender, _ = self.make_pair()
        assert len(sender.seal(b"")) == RecordCipher.overhead()
        assert len(sender.seal(b"xyz")) == RecordCipher.overhead() + 3

    def test_keystream_xor_is_the_record_keystream(self):
        # Tickets and records share one construction: SHAKE128(key || nonce).
        keys = derive_session_keys(random_master_secret(), "client")
        plaintext = b"one keystream construction" * 3
        record = RecordCipher(keys).seal(plaintext)
        seq = record[:8]
        assert keystream_xor(keys.encrypt_key, seq, plaintext) == record[40:]
        assert keystream_xor(keys.encrypt_key, seq, record[40:]) == plaintext
        assert keystream_xor(keys.encrypt_key, seq, b"") == b""


# Empty, odd, 32-byte-boundary and large bodies: where keystream
# truncation and big-integer XOR length bugs hide.
EDGE_SIZES = [0, 1, 31, 32, 33, 63, 64, 65, 1000, 4096, 65537]


class TestRecordCipherEdges:
    """The record contract at the edges of the keystream and the layout."""

    @staticmethod
    def make_pair():
        keys = derive_session_keys(random_master_secret(), "client")
        return RecordCipher(keys), RecordCipher(keys)

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_round_trip_at_block_boundaries(self, size):
        sender, receiver = self.make_pair()
        plaintext = bytes(i & 0xFF for i in range(size))
        record = sender.seal(plaintext)
        assert len(record) == RecordCipher.overhead() + size
        assert receiver.open(record) == plaintext

    def test_wire_layout(self):
        sender, _ = self.make_pair()
        record = sender.seal(b"payload")
        assert record[:8] == (0).to_bytes(8, "big")
        assert len(record) == RecordCipher.overhead() + len(b"payload")

    @pytest.mark.parametrize(
        "offset",
        [0, 7, 8, 39, 40, -1],
        ids=["seq-first", "seq-last", "mac-first", "mac-last", "body-first", "body-last"],
    )
    def test_any_flipped_bit_rejected(self, offset):
        sender, receiver = self.make_pair()
        record = bytearray(sender.seal(b"integrity matters"))
        record[offset] ^= 0x01
        with pytest.raises(CipherError):
            receiver.open(bytes(record))

    def test_sequence_gap_accepted(self):
        # A receiver must tolerate dropped records: sequence numbers only
        # need to increase, not be contiguous.
        sender, receiver = self.make_pair()
        records = [sender.seal(str(i).encode()) for i in range(5)]
        assert receiver.open(records[0]) == b"0"
        assert receiver.open(records[4]) == b"4"

    def test_replay_rejected(self):
        sender, receiver = self.make_pair()
        record = sender.seal(b"once only")
        receiver.open(record)
        with pytest.raises(CipherError, match="replayed"):
            receiver.open(record)

    def test_oversized_body_rejected_before_mac(self):
        sender, receiver = self.make_pair()
        bogus = bytes(40) + b"\x00" * (MAX_RECORD_BODY + 1)
        with pytest.raises(CipherError, match="too large"):
            receiver.open(bogus)
        # The rejection must not poison the receive state: a legitimate
        # record still opens afterwards.
        assert receiver.open(sender.seal(b"still fine")) == b"still fine"
