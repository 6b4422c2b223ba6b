"""E9 — SSL-substitute microbenchmarks: handshake and record costs.

Prices the security layer the paper builds on: the full mutual-auth
handshake (ephemeral DH over group 14, RSA-signed, two RSA key sizes)
and the ``shake128`` record layer's throughput versus plaintext copying.
These are the constants behind experiment E4's calibrated cost model.
"""

import threading
import time

import pytest

from benchmarks.common import save_table
from repro.security.ca import CertificationAuthority
from repro.security.cipher import (
    RecordCipher,
    derive_session_keys,
    random_master_secret,
)
from repro.security.handshake import accept_secure, connect_secure
from repro.security.rsa import RsaKeyPair
from repro.transport.frames import Frame, FrameKind
from repro.transport.inproc import channel_pair


def run_handshake(ca, clock, key_a, cert_a, key_b, cert_b):
    raw_a, raw_b = channel_pair("bench")
    result = {}

    def server():
        result["b"] = accept_secure(raw_b, key_b, cert_b, ca.public_key, clock)

    thread = threading.Thread(target=server)
    thread.start()
    secure = connect_secure(raw_a, key_a, cert_a, ca.public_key, clock)
    thread.join()
    return secure, result["b"]


def run_experiment() -> list[dict]:
    clock = time.time
    rows = []
    for bits in [512, 1024]:
        ca = CertificationAuthority(key_bits=bits, clock=clock)
        key_a = RsaKeyPair.generate(bits)
        key_b = RsaKeyPair.generate(bits)
        cert_a = ca.issue("a", "proxy", key_a.public)
        cert_b = ca.issue("b", "proxy", key_b.public)
        start = time.perf_counter()
        rounds = 3
        for _ in range(rounds):
            secure_a, secure_b = run_handshake(
                ca, clock, key_a, cert_a, key_b, cert_b
            )
            secure_a.close()
            secure_b.close()
        elapsed = (time.perf_counter() - start) / rounds
        rows.append({"key_bits": bits, "handshake_ms": elapsed * 1000})
    return rows


def record_throughput() -> list[dict]:
    keys = derive_session_keys(random_master_secret(), "client")
    rows = []
    for size in [1024, 64 * 1024, 1024 * 1024]:
        blob = b"\x77" * size
        sender, receiver = RecordCipher(keys), RecordCipher(keys)
        rounds = max(2, (4 << 20) // size)
        start = time.perf_counter()
        for _ in range(rounds):
            receiver.open(b"".join(sender.seal(blob)))
        secured = (time.perf_counter() - start) / rounds
        start = time.perf_counter()
        for _ in range(rounds):
            bytes(memoryview(blob))  # plaintext baseline: one copy
        plain = (time.perf_counter() - start) / rounds
        rows.append(
            {
                "bytes": size,
                "secured_MBps": size / secured / 1e6,
                "plaintext_copy_MBps": size / plain / 1e6,
                "cipher_slowdown_x": secured / plain,
            }
        )
    return rows


def check_shape(handshake_rows: list[dict], record_rows: list[dict]) -> None:
    # Bigger keys cost more; encryption costs far more than copying —
    # the economics behind keeping intra-site traffic in cleartext.
    costs = [row["handshake_ms"] for row in handshake_rows]
    assert costs[-1] > costs[0], "larger keys should cost more"
    for row in record_rows:
        assert row["cipher_slowdown_x"] > 10.0


@pytest.mark.benchmark(group="e9-handshake")
def test_e9_handshake_and_records(benchmark):
    def run():
        return run_experiment(), record_throughput()

    handshake_rows, record_rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check_shape(handshake_rows, record_rows)
    save_table(
        "e9_handshake",
        "E9a: mutual-auth handshake cost by RSA key size (DH group 14)",
        handshake_rows,
    )
    save_table(
        "e9_records",
        "E9b: shake128 record-layer throughput vs plaintext copy",
        record_rows,
    )


@pytest.mark.benchmark(group="e9-handshake")
def test_e9_rsa_keygen(benchmark):
    benchmark.pedantic(lambda: RsaKeyPair.generate(512), rounds=3, iterations=1)


@pytest.mark.benchmark(group="e9-handshake")
def test_e9_rsa_sign(benchmark):
    keypair = RsaKeyPair.generate(512)
    benchmark(lambda: keypair.sign(b"message"))


@pytest.mark.benchmark(group="e9-handshake")
def test_e9_rsa_verify(benchmark):
    keypair = RsaKeyPair.generate(512)
    signature = keypair.sign(b"message")
    benchmark(lambda: keypair.public.verify(b"message", signature))


@pytest.mark.benchmark(group="e9-handshake")
def test_e9_secure_channel_frame_roundtrip(benchmark):
    clock = time.time
    ca = CertificationAuthority(key_bits=512, clock=clock)
    key_a = RsaKeyPair.generate(512)
    key_b = RsaKeyPair.generate(512)
    cert_a = ca.issue("a", "proxy", key_a.public)
    cert_b = ca.issue("b", "proxy", key_b.public)
    secure_a, secure_b = run_handshake(ca, clock, key_a, cert_a, key_b, cert_b)
    frame = Frame(kind=FrameKind.DATA, payload=b"\x42" * 1024)

    def round_trip():
        secure_a.send(frame)
        secure_b.recv(timeout=10.0)

    benchmark(round_trip)
    secure_a.close()
    secure_b.close()
