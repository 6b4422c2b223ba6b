"""Layer 1 — Communication.

The paper's layer 1 "contains the resources that control and enable
communication between the sites that make up the grid", with separate
channels for data traffic and control.  This package provides:

:mod:`repro.transport.frames`
    The wire format: a self-contained binary codec (no pickle — remote
    frames are untrusted input) and length-delimited frames with distinct
    CONTROL and DATA classes.
:mod:`repro.transport.channel`
    The abstract channel/listener interfaces every transport implements:
    blocking ``send``/``recv`` plus the ``poll_recv``/ready-callback
    protocol the shared reactor drives.
:mod:`repro.transport.inproc`
    In-process transport: thread-safe channel pairs and a named fabric,
    used by unit/integration tests and the single-process runtime.
:mod:`repro.transport.tcp`
    The TCP listening socket and dial; the frame channel over them is
    :class:`repro.transport.reactor.ReactorTcpChannel`.
:mod:`repro.transport.faulty`
    Deterministic fault injection (drops, delays, reorders, corruption,
    disconnects) over any channel — the substrate of the chaos suite and
    the way to run the stack over a lossy carrier.
:mod:`repro.transport.errors`
    The transport exception hierarchy.
"""

from repro.transport.channel import Channel, Listener
from repro.transport.errors import (
    ChannelClosed,
    CodecError,
    FrameError,
    TransportError,
    TransportTimeout,
)
from repro.transport.frames import (
    Frame,
    FrameDecoder,
    FrameKind,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.transport.faulty import (
    FaultInjector,
    FaultPlan,
    FaultyChannel,
    FaultyListener,
    faulty_pair,
)
from repro.transport.inproc import InprocChannel, InprocFabric, channel_pair
from repro.transport.tcp import TcpListener

__all__ = [
    "Channel",
    "ChannelClosed",
    "CodecError",
    "FaultInjector",
    "FaultPlan",
    "FaultyChannel",
    "FaultyListener",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "FrameKind",
    "faulty_pair",
    "InprocChannel",
    "InprocFabric",
    "Listener",
    "TcpListener",
    "TransportError",
    "TransportTimeout",
    "channel_pair",
    "decode_frame",
    "decode_value",
    "encode_frame",
    "encode_value",
]
