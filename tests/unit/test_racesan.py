"""Unit tests for the lockset/ownership data-race sanitizer.

Dynamic race detection only sees interleavings that actually happen, so
every two-thread scenario here forces strict alternation with a pair of
events — a plain ``for`` loop of a few hundred GIL-fast iterations can
finish before the other thread ever runs.

Each test runs a *scoped* sanitizer so the session-wide one (installed
by the root conftest) keeps its own verdicts untouched.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import racesan
from repro.transport import reactor as reactor_mod

ROUNDS = 12


@racesan.shared_state
class Box:
    """Minimal shared object: one counter, one lock to (not) use."""

    def __init__(self) -> None:
        self.value = 0
        self.lock = threading.Lock()


class PlainBox:
    """Undecorated twin, instrumented via watch() in one test only."""

    def __init__(self) -> None:
        self.value = 0


def _alternate(step_a, step_b, rounds: int = ROUNDS) -> None:
    """Run step_a and step_b in strict a/b/a/b alternation on two fresh
    threads, so the sanitizer provably observes an interleaving."""
    turn_a, turn_b = threading.Event(), threading.Event()
    turn_a.set()
    stalls: list[str] = []

    def run(my_turn: threading.Event, other: threading.Event, step) -> None:
        for _ in range(rounds):
            if not my_turn.wait(timeout=5.0):
                stalls.append("stalled")
                return
            my_turn.clear()
            step()
            other.set()

    t_a = threading.Thread(target=run, args=(turn_a, turn_b, step_a), name="rs-a")
    t_b = threading.Thread(target=run, args=(turn_b, turn_a, step_b), name="rs-b")
    t_a.start()
    t_b.start()
    t_a.join(timeout=10.0)
    t_b.join(timeout=10.0)
    assert not stalls and not t_a.is_alive() and not t_b.is_alive()


# ---------------------------------------------------------------------------
# State machine
# ---------------------------------------------------------------------------


def test_interleaved_unlocked_writes_are_a_race():
    with racesan.scoped() as san:
        box = Box()

        def bump() -> None:
            box.value += 1

        _alternate(bump, bump)
        assert len(san.races) == 1
        report = san.races[0]
        assert report.key == ("Box", "value")
        text = report.render()
        assert "no common lock" in text
        assert "rs-a" in text or "rs-b" in text
        # Both sides of the conflicting pair carry a stack.
        assert report.current.sites and report.other is not None
        assert report.other.sites
        with pytest.raises(racesan.RaceError):
            san.assert_clean()


def test_common_lock_keeps_the_field_clean():
    with racesan.scoped() as san:
        box = Box()

        def bump() -> None:
            with box.lock:
                box.value += 1

        _alternate(bump, bump)
        assert san.races == []
        san.assert_clean()


def test_init_then_publish_is_free():
    """Constructor writes and a single-owner handoff never race."""
    with racesan.scoped() as san:
        box = Box()
        box.value = 41  # still the constructing thread: EXCLUSIVE

        def consume() -> None:
            for _ in range(ROUNDS):
                box.value += 1

        worker = threading.Thread(target=consume)
        worker.start()
        worker.join(timeout=5.0)
        assert san.races == []


def test_handoff_to_thread_after_owner_died_is_free():
    with racesan.scoped() as san:
        box = Box()
        first = threading.Thread(target=lambda: setattr(box, "value", 1))
        first.start()
        first.join(timeout=5.0)
        # The first accessor's thread has exited: this is a transfer.
        second = threading.Thread(target=lambda: setattr(box, "value", 2))
        second.start()
        second.join(timeout=5.0)
        box.value += 1  # even the constructor may take it back
        assert san.races == []


def test_read_only_sharing_never_reports():
    with racesan.scoped() as san:
        box = Box()
        box.value = 7

        def read() -> None:
            assert box.value == 7

        _alternate(read, read)
        assert san.races == []


def test_transfer_declares_a_new_exclusive_owner():
    with racesan.scoped() as san:
        box = Box()
        done = threading.Event()

        def own_it() -> None:
            box.value += 1
            done.set()

        worker = threading.Thread(target=own_it)
        worker.start()
        assert done.wait(timeout=5.0)
        racesan.transfer(box)
        # Without transfer() this return of the original owner while the
        # worker may still be alive would begin lockset refinement.
        box.value += 1
        worker.join(timeout=5.0)
        assert san.races == []


def test_watch_instruments_undecorated_classes():
    with racesan.scoped() as san:
        box = racesan.watch(PlainBox())

        def bump() -> None:
            box.value += 1

        _alternate(bump, bump)
        assert [r.key for r in san.races] == [("PlainBox", "value")]


def test_constructor_resets_recycled_object_state():
    with racesan.scoped() as san:
        before = san.objects_reset
        Box()
        Box()
        assert san.objects_reset == before + 2


def test_writes_are_never_sampled_out():
    with racesan.scoped(sample_every=64) as san:
        box = Box()

        def bump() -> None:
            box.value += 1

        _alternate(bump, bump)
        assert len(san.races) == 1


# ---------------------------------------------------------------------------
# Reactor-ownership token
# ---------------------------------------------------------------------------


def test_owner_token_counts_as_a_lock():
    """Accesses serialized by loop ownership need no mutex."""
    try:
        racesan.set_owner_resolver(lambda: "loop:test")
        with racesan.scoped() as san:
            box = Box()

            def bump() -> None:
                box.value += 1

            _alternate(bump, bump)
            assert san.races == []
    finally:
        racesan.set_owner_resolver(reactor_mod.current_owner)


def test_owner_token_on_one_side_only_still_races():
    tokens = {"rs-a": "loop:test", "rs-b": None}
    try:
        racesan.set_owner_resolver(
            lambda: tokens.get(threading.current_thread().name)
        )
        with racesan.scoped() as san:
            box = Box()

            def bump() -> None:
                box.value += 1

            _alternate(bump, bump)
            assert len(san.races) == 1
    finally:
        racesan.set_owner_resolver(reactor_mod.current_owner)


def test_reactor_loop_thread_resolves_to_loop_token():
    reactor = reactor_mod.Reactor(loops=1, name="rs-owner").start()
    try:
        seen: list = []
        done = threading.Event()
        reactor.call_later(
            0.0, lambda: (seen.append(reactor_mod.current_owner()), done.set())
        )
        assert done.wait(timeout=5.0)
        assert seen[0] is not None and seen[0].startswith("loop:")
        assert reactor_mod.current_owner() is None  # not a loop thread here
    finally:
        reactor.stop()


# ---------------------------------------------------------------------------
# Suppression contract
# ---------------------------------------------------------------------------


def test_justified_suppression_counts_but_does_not_raise():
    with racesan.scoped() as san:
        box = Box()

        def bump() -> None:
            box.value += 1  # racesan: ok -- fixture: deliberate unlocked bump proving the pragma works

        _alternate(bump, bump)
        assert san.races == []
        assert len(san.suppressions_hit) == 1
        assert san.suppressions_hit[0].suppressed
        san.assert_clean()


def test_bare_pragma_suppresses_nothing():
    with racesan.scoped() as san:
        box = Box()

        def bump() -> None:
            box.value += 1  # racesan: ok

        _alternate(bump, bump)
        assert len(san.races) == 1
        report = san.races[0]
        assert report.unjustified_pragma
        assert "add `-- <reason>`" in report.render()


# ---------------------------------------------------------------------------
# Stats / lifecycle plumbing
# ---------------------------------------------------------------------------


def test_stats_shape_is_json_safe():
    with racesan.scoped() as san:
        box = Box()

        def bump() -> None:
            box.value += 1

        _alternate(bump, bump)
        stats = san.stats()
        assert stats["enabled"] and stats["recording"]
        assert "Box" in stats["watched_classes"]
        assert stats["objects_tracked"] >= 1
        assert stats["accesses_sampled"] > 0
        assert len(stats["races"]) == 1
        (race,) = stats["races"]
        assert race["class"] == "Box" and race["field"] == "value"
        json.dumps(stats)  # the observability() dump must serialize


def test_scoped_leaves_the_session_sanitizer_untouched():
    outer = racesan.active()
    with racesan.scoped() as san:
        assert racesan.active() is san
        assert san is not outer
    assert racesan.active() is outer


def test_install_rejects_bad_sampling():
    with pytest.raises(ValueError):
        racesan.RaceSanitizer(sample_every=0)


def test_mode_parses_environment(monkeypatch):
    monkeypatch.setenv("REPRO_RACESAN", "0")
    assert racesan.mode() == "off"
    monkeypatch.setenv("REPRO_RACESAN", "on")
    assert racesan.mode() == "on"
    monkeypatch.delenv("REPRO_RACESAN")
    assert racesan.mode() == "auto"


# ---------------------------------------------------------------------------
# Regressions: races this sanitizer found in the tree, now fixed
# ---------------------------------------------------------------------------


def test_ticket_keeper_counters_are_thread_safe():
    """SessionTicketKeeper.issued/redeemed bump under _count_lock; two
    accept threads used to lose increments (and racesan flagged it)."""
    from repro.security.handshake import SessionTicketKeeper

    with racesan.scoped() as san:
        keeper = SessionTicketKeeper(clock=time.time)
        blob = keeper.seal(b"m" * 32, b"cert")

        def issue() -> None:
            keeper.seal(b"m" * 32, b"cert")

        def redeem() -> None:
            assert keeper.redeem(blob) is not None

        _alternate(issue, redeem)
        assert keeper.issued == 1 + ROUNDS
        assert keeper.redeemed == ROUNDS
        san.assert_clean()


def test_revocation_epoch_read_races_merge_no_more():
    """RevocationList.epoch is read by heartbeat threads while gossip
    merge bumps it; the property now reads under the list lock."""
    from repro.security.tokens import RevocationList

    with racesan.scoped() as san:
        rlist = RevocationList()
        counter = iter(range(10_000))

        def mutate() -> None:
            rlist.revoke_token(f"tok-{next(counter)}")

        def observe() -> None:
            assert rlist.epoch >= 0

        _alternate(mutate, observe)
        assert rlist.epoch == ROUNDS
        san.assert_clean()


def test_ready_callback_swap_does_not_race_the_loop():
    """ReactorTcpChannel._ready_cb is published under _rx_cond; swapping
    the callback mid-traffic used to race the loop thread's read."""
    from repro.transport.frames import Frame, FrameKind
    from repro.transport.reactor import (
        Reactor,
        ReactorTcpListener,
        connect_tcp_reactor,
    )

    reactor = Reactor(loops=1, name="rs-ready").start()
    with racesan.scoped() as san:
        listener = ReactorTcpListener(reactor=reactor)
        client = connect_tcp_reactor(
            listener.host, listener.port, reactor=reactor
        )
        server = listener.accept(timeout=5.0)
        try:
            got: list[bytes] = []
            done = threading.Event()

            def on_ready() -> None:
                frame = server.poll_recv()
                if frame is not None:
                    got.append(frame.payload)
                    if len(got) >= ROUNDS:
                        done.set()

            for i in range(ROUNDS):
                # Swap the callback while frames are in flight: the old
                # unsynchronized publish raced _on_readable's read.
                server.set_ready_callback(on_ready)
                client.send(Frame(kind=FrameKind.DATA, payload=b"p%d" % i))
            deadline = time.monotonic() + 5.0
            while not done.is_set() and time.monotonic() < deadline:
                on_ready()
                time.sleep(0.01)
            assert len(got) >= 1
        finally:
            client.close()
            server.close()
            listener.close()
            reactor.stop()
        san.assert_clean()
