"""E2 — Figure 2: per-message cost of each layer in the stack.

The paper's layer diagram (communication → security → control → MPI).
We price one message's trip through each layer with the real
implementation across message sizes: framing (layer 1), record
encryption (layer 2), control-protocol codec (layer 3), MPI envelope
serialisation (layer 4).
"""

import time

import pytest

from benchmarks.common import save_table
from repro.core.protocol import ControlMessage, Op
from repro.mpi.datatypes import Envelope
from repro.security.cipher import (
    RecordCipher,
    derive_session_keys,
    random_master_secret,
)
from repro.transport.frames import Frame, FrameKind, decode_frame, encode_frame

SIZES = [64, 1024, 16 * 1024, 256 * 1024]


def _time(fn, repeat=50) -> float:
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - start) / repeat


def run_experiment() -> list[dict]:
    keys = derive_session_keys(random_master_secret(), "client")
    rows = []
    for size in SIZES:
        payload = b"\xab" * size
        frame = Frame(kind=FrameKind.DATA, headers={"ch": 1}, payload=payload)
        blob = encode_frame(frame)

        def framing():
            decode_frame(encode_frame(frame))

        sender, receiver = RecordCipher(keys), RecordCipher(keys)

        def crypto():
            receiver.open(b"".join(sender.seal(blob)))

        message = ControlMessage(op=Op.STATUS_REPORT, body={"blob": payload})

        def control():
            ControlMessage.from_frame(message.to_frame())

        envelope = Envelope(source=0, dest=1, tag=0, payload=payload)

        def mpi_envelope():
            envelope.wire_size()

        repeat = max(4, 2000 // max(size // 1024, 1))
        rows.append(
            {
                "bytes": size,
                "layer1_framing_us": _time(framing, repeat) * 1e6,
                "layer2_crypto_us": _time(crypto, max(repeat // 4, 2)) * 1e6,
                "layer3_control_us": _time(control, repeat) * 1e6,
                "layer4_mpi_us": _time(mpi_envelope, repeat) * 1e6,
            }
        )
    return rows


def check_shape(rows: list[dict]) -> None:
    # Crypto dominates the stack at every size (why the paper keeps it
    # off the intra-site path), and every layer's cost grows with size.
    for row in rows:
        assert row["layer2_crypto_us"] > row["layer1_framing_us"]
    assert rows[-1]["layer2_crypto_us"] > rows[0]["layer2_crypto_us"]
    assert rows[-1]["layer1_framing_us"] > rows[0]["layer1_framing_us"]


@pytest.mark.benchmark(group="e2-layers")
def test_e2_layer_costs(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    check_shape(rows)
    save_table(
        "e2_layers",
        "E2 (Fig. 2): per-message cost of each architecture layer",
        rows,
    )


@pytest.mark.benchmark(group="e2-layers")
def test_e2_frame_codec_throughput(benchmark):
    frame = Frame(kind=FrameKind.DATA, payload=b"\xcd" * 4096)

    def round_trip():
        decode_frame(encode_frame(frame))

    benchmark(round_trip)


@pytest.mark.benchmark(group="e2-layers")
def test_e2_record_cipher_throughput(benchmark):
    keys = derive_session_keys(random_master_secret(), "client")
    sender, receiver = RecordCipher(keys), RecordCipher(keys)
    blob = b"\xef" * 4096

    def seal_open():
        receiver.open(b"".join(sender.seal(blob)))

    benchmark(seal_open)
