"""Eraser-style lockset data-race sanitizer for the test suite.

:mod:`repro.obs.lockwatch` answers "are locks taken in a consistent
*order*?"; this module answers the complementary question nothing else
covers: "is shared state touched *with a lock at all*?"  A field mutated
from a reactor callback and a pool worker with no common lock is
invisible to the lock-order watchdog (no locks, no edges) and to
gridlint's lexical rules (the access is dynamic) — it is exactly the bug
class the proxy's shared caches grow as the stack gets more concurrent.

Model (Eraser's lockset refinement, plus an ownership-transfer state
machine tuned to this codebase):

* Classes marked ``@shared_state`` (and objects passed to
  :func:`watch`) get their attribute reads and writes instrumented.
  Each sampled access records ``(thread, is_write, candidate lockset,
  reactor-ownership token)`` — the lockset comes from the per-thread
  held stacks :class:`~repro.obs.lockwatch.LockOrderWatchdog` already
  maintains, and the ownership token from
  :func:`repro.transport.reactor.current_owner` (a reactor loop thread
  counts as holding a pseudo-lock named after its loop: accesses
  serialized by loop ownership are synchronized without any mutex).
* Per ``(object, field)`` state machine::

      VIRGIN --first access--> EXCLUSIVE(owner)
      EXCLUSIVE --new thread--> TRANSFERRING(new owner, C=its locks)
      TRANSFERRING --another new thread--> TRANSFERRING(handoff again)
      TRANSFERRING --prior owner returns--> SHARED / SHARED_MOD
      SHARED(+_MOD): C ∩= locks held at each access

  ``EXCLUSIVE`` makes init-then-publish free (the constructor holds no
  locks and needs none); ``TRANSFERRING`` makes single-owner handoff
  (channel ownership moving between threads) free: the lockset
  only starts refining once two threads *interleave* on the field.  A
  prior accessor whose thread has exited no longer counts as sharing —
  handing state to a new thread after ``join()`` is a transfer, not a
  race.
* An empty candidate lockset on a field that has seen at least one
  write while shared is a **race**: both access stacks are reported,
  and the pytest session fails with exit code 4.

Suppression contract mirrors gridlint's pragma: a report whose access
site (either side) carries ::

    self._hits += 1  # racesan: ok -- <why this is benign>

is counted but not raised.  The justification after ``--`` is required;
a bare ``# racesan: ok`` suppresses nothing.

``REPRO_RACESAN=0`` disables the sanitizer entirely (classes stay
un-instrumented); ``REPRO_RACESAN=1`` records everywhere; the default
(``auto``) instruments but only records where the suite opts in (the
chaos and integration suites do, via autouse fixtures).
``REPRO_RACESAN_SAMPLE=N`` records every Nth read on hot fields (writes
and state transitions are never sampled out).  Production code never
pays: without :func:`install`, ``@shared_state`` is a pure marker.
"""

from __future__ import annotations

import linecache
import os
import re
import sys
import threading
from contextlib import contextmanager
from types import FrameType
from typing import Any, Callable, Iterator, Optional, TypeVar

from repro.obs import lockwatch

__all__ = [
    "RaceError",
    "RaceReport",
    "RaceSanitizer",
    "active",
    "install",
    "mode",
    "scoped",
    "set_owner_resolver",
    "set_recording",
    "shared_state",
    "transfer",
    "uninstall",
    "watch",
]

_T = TypeVar("_T")

#: ``# racesan: ok -- reason`` — the justification is mandatory, like
#: gridlint's ``disable=`` pragma: the point is reasoning in the code.
_SUPPRESS_RE = re.compile(r"#\s*racesan:\s*ok\s*--\s*\S")
_BARE_SUPPRESS_RE = re.compile(r"#\s*racesan:\s*ok\s*(?:$|[^-])")

#: Field states (ints: compared hot, never printed on the fast path).
_VIRGIN, _EXCLUSIVE, _TRANSFERRING, _SHARED, _SHARED_MOD, _RACED = range(6)

_STATE_NAMES = {
    _VIRGIN: "virgin",
    _EXCLUSIVE: "exclusive",
    _TRANSFERRING: "transferring",
    _SHARED: "shared",
    _SHARED_MOD: "shared-modified",
    _RACED: "raced",
}


class RaceError(AssertionError):
    """Raised by :meth:`RaceSanitizer.assert_clean` on recorded races."""


#: One captured stack frame: (filename, lineno, function).  Raw tuples
#: on the hot path; formatting happens only when a report renders.
_Site = tuple[str, int, str]


def _site_stack(skip: int = 2, depth: int = 5) -> tuple[_Site, ...]:
    """Raw ``(file, line, function)`` stack of the instrumented access."""
    frame: Optional[FrameType]
    try:
        frame = sys._getframe(skip)
    except ValueError:  # pragma: no cover - interpreter shutdown
        return ()
    sites: list[_Site] = []
    while frame is not None and len(sites) < depth:
        code = frame.f_code
        filename = code.co_filename
        # Skip this module's own instrumentation frames and threading
        # internals (exact paths: a *test* named test_racesan.py must
        # still appear in stacks — suppressions anchor on it).
        if filename != __file__ and not filename.endswith("threading.py"):
            sites.append((filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return tuple(sites)


def _format_site(site: _Site) -> str:
    filename, lineno, func = site
    return f"{filename}:{lineno} ({func})"


def _site_suppressed(site: _Site) -> Optional[bool]:
    """True if the access line carries a justified ``# racesan: ok``.

    Returns ``None`` for a bare (unjustified) pragma so the report can
    call it out — an unexplained suppression must not silence anything.
    """
    path, lineno, _ = site
    line = linecache.getline(path, lineno)
    if _SUPPRESS_RE.search(line):
        return True
    if _BARE_SUPPRESS_RE.search(line):
        return None
    return False


class _Access:
    """One sampled access, kept for the two-stack race report."""

    __slots__ = ("thread_name", "ident", "is_write", "locks", "owner", "sites")

    def __init__(
        self,
        thread_name: str,
        ident: int,
        is_write: bool,
        locks: tuple[int, ...],
        owner: Optional[str],
        sites: tuple[_Site, ...],
    ) -> None:
        self.thread_name = thread_name
        self.ident = ident
        self.is_write = is_write
        self.locks = locks
        self.owner = owner
        self.sites = sites

    def describe(self) -> str:
        locks = [f"lock#{serial}" for serial in self.locks]
        if self.owner is not None:
            locks.append(self.owner)
        held = ", ".join(locks) if locks else "none"
        kind = "write" if self.is_write else "read"
        stack = (
            "\n      ".join(_format_site(site) for site in self.sites)
            if self.sites
            else "<no stack>"
        )
        return (
            f"{kind} on thread {self.thread_name!r} holding [{held}]\n"
            f"      {stack}"
        )


class _FieldState:
    """Lockset-refinement state for one ``(object, field)`` pair."""

    __slots__ = (
        "phase",
        "owner_ident",
        "prior_owners",
        "lockset",
        "last_write",
        "last_read",
    )

    def __init__(self) -> None:
        self.phase = _VIRGIN
        self.owner_ident = 0
        self.prior_owners: set[int] = set()
        self.lockset: Optional[frozenset] = None
        self.last_write: Optional[_Access] = None
        self.last_read: Optional[_Access] = None


class RaceReport:
    """One detected race: the conflicting access pair, rendered lazily."""

    def __init__(
        self, cls: str, field: str, current: _Access, other: Optional[_Access]
    ) -> None:
        self.cls = cls
        self.field = field
        self.current = current
        self.other = other
        self.suppressed = False
        self.unjustified_pragma = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.cls, self.field)

    def render(self) -> str:
        lines = [
            f"data race on {self.cls}.{self.field}: no common lock "
            "between the accesses below (>=1 write)",
            f"    {self.current.describe()}",
        ]
        if self.other is not None:
            lines.append(f"    {self.other.describe()}")
        if self.unjustified_pragma:
            lines.append(
                "    (a bare `# racesan: ok` was found; add `-- <reason>` "
                "to make it count)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        def access(a: Optional[_Access]) -> Optional[dict[str, Any]]:
            if a is None:
                return None
            return {
                "thread": a.thread_name,
                "write": a.is_write,
                "locks": list(a.locks),
                "owner": a.owner,
                "stack": [_format_site(site) for site in a.sites],
            }

        return {
            "class": self.cls,
            "field": self.field,
            "suppressed": self.suppressed,
            "current": access(self.current),
            "other": access(self.other),
        }


class RaceSanitizer:
    """Process-wide lockset race detector over instrumented objects.

    Accesses arrive via the instrumented ``__setattr__`` /
    ``__getattribute__`` of ``@shared_state`` classes; the state machine
    runs under one private (unwatched) mutex.  ``recording`` gates the
    whole pipeline so suites opt in per test without re-instrumenting.
    """

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1: {sample_every}")
        self.sample_every = sample_every
        self._recording = False
        # The bookkeeping mutex must be unwatched: racesan's own lock in
        # every candidate lockset would make all locksets intersect.
        self._mutex = lockwatch.raw_lock()
        self._states: dict[tuple[int, str, str], _FieldState] = {}
        self._reported: set[tuple[str, str]] = set()
        self._tick = 0
        self.accesses_sampled = 0
        self.objects_reset = 0
        self.races: list[RaceReport] = []
        self.suppressions_hit: list[RaceReport] = []

    @property
    def recording(self) -> bool:
        return self._recording

    @recording.setter
    def recording(self, flag: bool) -> None:
        # Recording gates more than the pipeline: the read-path
        # instrumentation (a wrapper on every attribute *lookup* of a
        # shared class) is only patched in while some sanitizer records,
        # so idle sessions pay a write-path check and nothing else.
        self._recording = bool(flag)
        _sync_read_patch()

    # -- access pipeline -------------------------------------------------

    def note(self, obj: Any, field: str, is_write: bool) -> None:
        """Record one attribute access (called from instrumentation)."""
        if not is_write:
            # Reads sample; writes and everything that can change the
            # state machine's verdict always land.
            self._tick += 1
            if self._tick % self.sample_every:
                return
        watchdog = lockwatch.active()
        held: tuple[int, ...] = ()
        if watchdog is not None:
            raw = getattr(watchdog._tls, "held", None)
            if raw:
                held = tuple(dict.fromkeys(raw))
        owner = _owner_resolver() if _owner_resolver is not None else None
        access = _Access(
            thread_name=threading.current_thread().name,
            ident=threading.get_ident(),
            is_write=is_write,
            locks=held,
            owner=owner,
            sites=(),
        )
        candidate: frozenset = frozenset(held if owner is None else (*held, owner))
        cls = type(obj)
        cls_name = _qualname_cache.get(cls)
        if cls_name is None:
            cls_name = _qualname_cache[cls] = cls.__qualname__
        key = (id(obj), cls_name, field)
        with self._mutex:
            self.accesses_sampled += 1
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _FieldState()
            # Stacks are for reports; capture them only where a report
            # could still involve this access (writes, and any access
            # once the field is genuinely shared) — exclusive/handoff
            # reads, the overwhelming hot path, skip the frame walk.
            if is_write or state.phase >= _SHARED:
                access.sites = _site_stack(skip=3)
            self._step(cls_name, field, state, access, candidate)

    def _step(
        self,
        cls: str,
        field: str,
        state: _FieldState,
        access: _Access,
        candidate: frozenset,
    ) -> None:
        ident = access.ident
        phase = state.phase
        if phase == _RACED:
            return
        if phase == _VIRGIN:
            state.phase = _EXCLUSIVE
            state.owner_ident = ident
        elif ident == state.owner_ident:
            if phase == _TRANSFERRING:
                assert state.lockset is not None
                state.lockset &= candidate
            elif phase in (_SHARED, _SHARED_MOD):
                self._refine(cls, field, state, access, candidate)
                self._remember(state, access)
                return
        elif phase in (_EXCLUSIVE, _TRANSFERRING):
            prior = set(state.prior_owners)
            prior.add(state.owner_ident)
            live = _live_idents()
            returning = ident in prior
            others_alive = any(p in live for p in prior if p != ident)
            if not others_alive:
                # Every previous accessor's thread has exited (or this
                # field only ever moved forward to fresh threads): a
                # handoff, not sharing.  The new owner starts a fresh
                # candidate lockset.
                state.prior_owners = {p for p in prior if p in live}
                state.prior_owners.discard(ident)
                state.owner_ident = ident
                state.phase = _TRANSFERRING
                state.lockset = frozenset(candidate)
            elif returning:
                # A previous owner interleaves with the current one:
                # genuine sharing begins; refine from here on.  Writes
                # from the exclusive epochs do NOT count (init-then-
                # publish is free) — only this and later accesses do.
                state.phase = _SHARED_MOD if access.is_write else _SHARED
                base = state.lockset if state.lockset is not None else candidate
                state.lockset = base & candidate
                self._check(cls, field, state, access)
            else:
                # A brand-new thread while prior owners are still alive:
                # single-owner handoff chain continues (pools hand work
                # forward), but remember everyone — if any of them comes
                # back we treat the field as shared.
                state.prior_owners = prior
                state.owner_ident = ident
                state.phase = _TRANSFERRING
                state.lockset = frozenset(candidate)
        else:  # SHARED / SHARED_MOD, different thread
            self._refine(cls, field, state, access, candidate)
            self._remember(state, access)
            return
        self._remember(state, access)

    def _refine(
        self,
        cls: str,
        field: str,
        state: _FieldState,
        access: _Access,
        candidate: frozenset,
    ) -> None:
        assert state.lockset is not None
        state.lockset &= candidate
        if access.is_write and state.phase == _SHARED:
            state.phase = _SHARED_MOD
        self._check(cls, field, state, access)

    def _remember(self, state: _FieldState, access: _Access) -> None:
        if access.is_write:
            state.last_write = access
        else:
            state.last_read = access

    def _check(
        self, cls: str, field: str, state: _FieldState, access: _Access
    ) -> None:
        if state.phase != _SHARED_MOD or state.lockset:
            return
        state.phase = _RACED
        if (cls, field) in self._reported:
            return
        self._reported.add((cls, field))
        if access.is_write:
            other = state.last_write or state.last_read
        else:
            other = state.last_write
        if other is not None and other.ident == access.ident:
            # Prefer the cross-thread side of the pair for the report.
            alt = state.last_read if other is state.last_write else state.last_write
            if alt is not None and alt.ident != access.ident:
                other = alt
        report = RaceReport(cls, field, access, other)
        verdicts = [
            _site_suppressed(sites[0])
            for sites in (access.sites, other.sites if other else ())
            if sites
        ]
        if any(verdicts):
            report.suppressed = True
            self.suppressions_hit.append(report)
        else:
            report.unjustified_pragma = any(v is None for v in verdicts)
            self.races.append(report)

    # -- object lifecycle ------------------------------------------------

    def reset_object(self, obj: Any) -> None:
        """Forget all field state for ``obj`` (constructor / id reuse)."""
        marker = (id(obj), type(obj).__qualname__)
        with self._mutex:
            self.objects_reset += 1
            stale = [key for key in self._states if key[:2] == marker]
            for key in stale:
                del self._states[key]

    def transfer(self, obj: Any) -> None:
        """Declare an ownership transfer: the next thread to touch each
        field of ``obj`` becomes its new exclusive owner (queue
        hand-over — anywhere the old owner provably stops)."""
        marker = (id(obj), type(obj).__qualname__)
        with self._mutex:
            for key, state in self._states.items():
                if key[:2] == marker and state.phase != _RACED:
                    self._states[key] = _FieldState()

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``observability()`` section: wire- and JSON-safe dicts."""
        with self._mutex:
            tracked = len({key[:2] for key in self._states})
            return {
                "enabled": True,
                "recording": self.recording,
                "sample_every": self.sample_every,
                "watched_classes": sorted(_instrumented_names()),
                "objects_tracked": tracked,
                "accesses_sampled": self.accesses_sampled,
                "races": [report.to_dict() for report in self.races],
                "suppressions_hit": len(self.suppressions_hit),
            }

    def assert_clean(self) -> None:
        if self.races:
            raise RaceError(
                f"{len(self.races)} data race(s):\n"
                + "\n".join(f"  {report.render()}" for report in self.races)
            )


def _live_idents() -> set:
    return {
        thread.ident
        for thread in threading.enumerate()
        if thread.ident is not None
    }


# ---------------------------------------------------------------------------
# Class instrumentation
# ---------------------------------------------------------------------------

_active: Optional[RaceSanitizer] = None
_installed = False
#: Classes registered by @shared_state, in registration order.
_registered: list[type] = []
#: Classes actually instrumented (subset of registered + watch() targets).
#: cls -> (orig_setattr, orig_getattribute, orig_init, read_wrapper).
_instrumented: dict[type, tuple] = {}
#: True while __getattribute__ wrappers are patched in (recording only).
_reads_patched = False
#: type -> __qualname__, so the hot path skips the descriptor lookups.
_qualname_cache: dict[type, str] = {}
#: Every attribute name ever *written* through an instrumented
#: ``__setattr__`` — the read path only reports names in this set, so
#: method lookups pay one set-membership test and nothing else.
_tracked_fields: set[str] = set()
#: Resolves the calling thread to a reactor-ownership token (or None).
#: Registered by repro.transport.reactor at import time.
_owner_resolver: Optional[Callable[[], Optional[str]]] = None


def set_owner_resolver(resolver: Optional[Callable[[], Optional[str]]]) -> None:
    """Register the reactor-ownership hook (``current_owner``)."""
    global _owner_resolver
    _owner_resolver = resolver


def _instrumented_names() -> list[str]:
    return [cls.__qualname__ for cls in _instrumented]


def shared_state(cls: type[_T]) -> type[_T]:
    """Mark a class as cross-thread shared state.

    Without :func:`install` this is a pure marker (zero runtime cost);
    under an installed sanitizer the class's attribute accesses are
    instrumented.  gridlint's GL106/GL107 read the same decorator
    statically — the runtime and static checkers share one model of
    "who may touch what".
    """
    cls.__racesan_shared__ = True  # type: ignore[attr-defined]
    _registered.append(cls)
    if _installed:
        _instrument_class(cls)
    return cls


def watch(obj: _T) -> _T:
    """Instrument one object's class and track the object from scratch.

    For shared objects whose class cannot carry the decorator (third
    party, dynamically created).  Instrumentation is per *class* —
    CPython attribute access cannot be hooked per instance — so other
    instances of the same class become watched too; ``reset_object``
    keeps their histories separate.
    """
    cls = type(obj)
    if not getattr(cls, "__racesan_shared__", False):
        cls.__racesan_shared__ = True  # type: ignore[attr-defined]
        _registered.append(cls)
    if _installed:
        _instrument_class(cls)
    if _active is not None:
        _active.reset_object(obj)
    return obj


def transfer(obj: Any) -> None:
    """Module-level convenience for :meth:`RaceSanitizer.transfer`."""
    if _active is not None:
        _active.transfer(obj)


def _instrument_class(cls: type) -> None:
    if cls in _instrumented:
        return
    orig_setattr = cls.__setattr__
    orig_getattribute = cls.__getattribute__
    orig_init = cls.__init__

    def racesan_setattr(self: Any, name: str, value: Any) -> None:
        san = _active
        if san is not None and san._recording:
            _tracked_fields.add(name)
            san.note(self, name, True)
        orig_setattr(self, name, value)

    def racesan_getattribute(self: Any, name: str) -> Any:
        if name in _tracked_fields:
            san = _active
            if san is not None and san._recording:
                san.note(self, name, False)
        return orig_getattribute(self, name)

    def racesan_init(self: Any, *args: Any, **kwargs: Any) -> None:
        # Object ids recycle; a fresh constructor run at a dead object's
        # id must not inherit its ownership history.
        san = _active
        if san is not None:
            san.reset_object(self)
        orig_init(self, *args, **kwargs)

    _instrumented[cls] = (
        orig_setattr,
        orig_getattribute,
        orig_init,
        racesan_getattribute,
    )
    cls.__setattr__ = racesan_setattr  # type: ignore[method-assign, assignment]
    cls.__init__ = racesan_init  # type: ignore[misc]
    if _reads_patched:
        cls.__getattribute__ = racesan_getattribute  # type: ignore[method-assign, assignment]


def _sync_read_patch() -> None:
    """Patch/unpatch ``__getattribute__`` to match the recording gate.

    Attribute *lookup* is the single hottest operation a wrapper can
    intercept — every method call on a shared class pays it — so the
    read path only exists while a sanitizer is actually recording.
    Writes keep their (much rarer) always-on wrapper, which is also what
    keeps ``_tracked_fields`` warm across recording toggles.
    """
    global _reads_patched
    want = _active is not None and _active._recording
    if want == _reads_patched:
        return
    _reads_patched = want
    for cls, (_, orig_getattribute, _, read_wrapper) in _instrumented.items():
        target = read_wrapper if want else orig_getattribute
        cls.__getattribute__ = target  # type: ignore[method-assign, assignment]


def _deinstrument_all() -> None:
    global _reads_patched
    for cls, (orig_setattr, orig_getattribute, orig_init, _) in _instrumented.items():
        cls.__setattr__ = orig_setattr  # type: ignore[method-assign, assignment]
        cls.__getattribute__ = orig_getattribute  # type: ignore[method-assign, assignment]
        cls.__init__ = orig_init  # type: ignore[misc]
    _instrumented.clear()
    _reads_patched = False


# ---------------------------------------------------------------------------
# Global install / modes
# ---------------------------------------------------------------------------


def mode() -> str:
    """``off`` | ``on`` | ``auto`` from ``REPRO_RACESAN``."""
    raw = os.environ.get("REPRO_RACESAN", "auto").lower()
    if raw in ("0", "off", "false"):
        return "off"
    if raw in ("1", "on", "true"):
        return "on"
    return "auto"


def active() -> Optional[RaceSanitizer]:
    return _active


def install(sample_every: Optional[int] = None) -> RaceSanitizer:
    """Instrument every registered class; idempotent.

    Call before the application modules import (the root conftest does)
    so classes decorated at import time are instrumented immediately.
    """
    global _active, _installed
    if _active is not None:
        return _active
    if sample_every is None:
        sample_every = int(os.environ.get("REPRO_RACESAN_SAMPLE", "1"))
    sanitizer = RaceSanitizer(sample_every=sample_every)
    _active = sanitizer
    _installed = True
    for cls in list(_registered):
        _instrument_class(cls)
    return sanitizer


def uninstall() -> None:
    """Restore every instrumented class and drop the sanitizer."""
    global _active, _installed
    _deinstrument_all()
    _active = None
    _installed = False
    _sync_read_patch()


def set_recording(flag: bool) -> None:
    """Gate the access pipeline (suites opt in per test)."""
    if _active is not None:
        _active.recording = bool(flag)


@contextmanager
def scoped(
    sample_every: int = 1, recording: bool = True
) -> Iterator[RaceSanitizer]:
    """A private sanitizer for one block (tests): the global one —
    including its recorded races — is untouched and restored on exit."""
    global _active, _installed
    prev_active, prev_installed = _active, _installed
    sanitizer = RaceSanitizer(sample_every=sample_every)
    _active = sanitizer
    _installed = True
    sanitizer.recording = recording  # after _active: the setter syncs reads
    for cls in list(_registered):
        _instrument_class(cls)
    try:
        yield sanitizer
    finally:
        _active = prev_active
        _installed = prev_installed
        _sync_read_patch()
        if not prev_installed:
            _deinstrument_all()
