"""gridlint's own test suite: every rule proven by fixtures.

``FIXTURES`` maps each rule code to a *positive* tree (must trigger the
rule), a *negative* tree (must stay clean), and a *suppressed* tree (the
positive with a justified per-line suppression).  The meta-test at the
bottom holds the catalog to that contract, so a new rule cannot land
without documentation and both fixture directions.
"""

from __future__ import annotations

import json

import pytest

from tools.gridlint import (
    ENGINE_DIAGNOSTICS,
    Project,
    all_rules,
    load_baseline,
    render_json,
    render_text,
    rule_catalog,
    run_rules,
    write_baseline,
)
from tools.gridlint.__main__ import main as gridlint_main

# ---------------------------------------------------------------------------
# Fixture trees: {relative path: source text}
# ---------------------------------------------------------------------------

_GL101_POSITIVE = {
    "repro/core/svc.py": """\
import time

class Service:
    def start(self, loop):
        loop.register_fd(0, 1, self._on_io)

    def _on_io(self, mask):
        self._tick()

    def _tick(self):
        time.sleep(0.1)
"""
}

_GL101_NEGATIVE = {
    "repro/core/svc.py": """\
import time

class Service:
    def start(self, loop):
        loop.register_fd(0, 1, self._on_io)

    def _on_io(self, mask):
        self._tick()

    def _tick(self):
        self.count = getattr(self, "count", 0) + 1

    def off_loop_worker(self):
        # Blocking is fine here: nothing registers this with the reactor.
        time.sleep(0.1)
"""
}

_GL101_SUPPRESSED = {
    "repro/core/svc.py": """\
import time

class Service:
    def start(self, loop):
        loop.register_fd(0, 1, self._on_io)

    def _on_io(self, mask):
        time.sleep(0)  # gridlint: disable=GL101 -- sleep(0) is a deliberate yield in this fixture
"""
}

_GL102_POSITIVE = {
    "repro/core/work.py": """\
import threading

def spawn():
    worker = threading.Thread(target=print)
    worker.start()
"""
}

# Same construct inside the reactor module: sanctioned.
_GL102_NEGATIVE = {
    "repro/transport/reactor.py": """\
import threading

def spawn():
    worker = threading.Thread(target=print)
    worker.start()
"""
}

_GL102_SUPPRESSED = {
    "repro/core/work.py": """\
import threading

def spawn():
    worker = threading.Thread(target=print)  # gridlint: disable=GL102 -- fixture thread, joined immediately
    worker.start()
"""
}

_GL103_POSITIVE = {
    "repro/core/pair.py": """\
class Pair:
    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            with self._a:
                pass
"""
}

_GL103_NEGATIVE = {
    "repro/core/pair.py": """\
class Pair:
    def forward(self):
        with self._a:
            with self._b:
                pass

    def also_forward(self):
        with self._a:
            with self._b:
                pass
"""
}

_GL103_SUPPRESSED = {
    "repro/core/pair.py": """\
class Pair:
    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            with self._a:  # gridlint: disable=GL103 -- fixture: never runs concurrently with forward
                pass
"""
}

_GL105_POSITIVE = {
    "repro/core/guards.py": """\
class RsaAuthGuard:
    def __init__(self, public_key):
        self.public_key = public_key

    def __call__(self, message, peer):
        if not self.public_key.verify(message.body, message.sig):
            return message.reply(402, {})
        return None
"""
}

# HMAC in the guard is the sanctioned budget; RSA *off* the guard path
# (login-time verification) must not trip the rule either.
_GL105_NEGATIVE = {
    "repro/core/guards.py": """\
import hashlib
import hmac


class TokenAuthGuard:
    def __init__(self, key):
        self._key = key

    def __call__(self, message, peer):
        mac = hmac.new(self._key, message.body, hashlib.sha256).digest()
        if not hmac.compare_digest(mac, message.sig):
            return message.reply(402, {})
        return None


class LoginService:
    def login(self, public_key, blob, sig):
        # Per-login RSA is fine: it runs once, not per message.
        return public_key.verify(blob, sig)
"""
}

_GL105_SUPPRESSED = {
    "repro/core/guards.py": """\
class LegacyRsaGuard:
    def __init__(self, public_key):
        self.public_key = public_key

    def __call__(self, message, peer):
        self.public_key.verify(message.body, message.sig)  # gridlint: disable=GL105 -- fixture: legacy-mode gate on one low-rate admin op
        return None
"""
}

_GL201_POSITIVE = {
    "repro/core/protocol.py": """\
class Op:
    HELLO = 100
    PING = 100

IDEMPOTENT_OPS = frozenset({Op.HELLO, Op.MISSING})
"""
}

_GL201_NEGATIVE = {
    "repro/core/protocol.py": """\
class Op:
    HELLO = 100
    PING = 200

IDEMPOTENT_OPS = frozenset({Op.HELLO, Op.PING})
"""
}

_GL201_SUPPRESSED = {
    "repro/core/protocol.py": """\
class Op:
    HELLO = 100
    PING = 100  # gridlint: disable=GL201 -- fixture alias kept for wire compatibility

IDEMPOTENT_OPS = frozenset({Op.HELLO})
"""
}

_GL301_POSITIVE = {
    "repro/core/handler.py": """\
class Handler:
    def __init__(self, metrics):
        self.metrics = metrics

    def handle(self, message):
        self.metrics.counter("handled").inc()
"""
}

_GL301_NEGATIVE = {
    "repro/core/handler.py": """\
class Handler:
    def __init__(self, metrics):
        self.metrics = metrics
        self._m_handled = metrics.counter("handled")

    def handle(self, message):
        self._m_handled.inc()
"""
}

_GL301_SUPPRESSED = {
    "repro/core/handler.py": """\
class Handler:
    def __init__(self, metrics):
        self.metrics = metrics

    def handle(self, message):
        self.metrics.counter("handled").inc()  # gridlint: disable=GL301 -- fixture: cold path, called once at shutdown
"""
}

_GL401_POSITIVE = {
    "repro/simulation/jitter.py": """\
import random
import time

def jitter():
    return random.random() + time.time()
"""
}

_GL401_NEGATIVE = {
    "repro/simulation/jitter.py": """\
import random

_RNG = random.Random(7)

def jitter(clock):
    return _RNG.random() + clock.now()
"""
}

_GL401_SUPPRESSED = {
    "repro/simulation/jitter.py": """\
import time

def wall_clock_label():
    return time.time()  # gridlint: disable=GL401 -- fixture: label only, never feeds results
"""
}

_GL106_POSITIVE = {
    "repro/core/counter.py": """\
from repro.obs.racesan import shared_state


@shared_state
class Counter:
    def __init__(self, loop):
        self.hits = 0
        loop.register_fd(0, 1, self._on_io)

    def _on_io(self, mask):
        self.hits += 1
"""
}

_GL106_NEGATIVE = {
    "repro/core/counter.py": """\
import threading

from repro.obs.racesan import shared_state


@shared_state
class Counter:
    def __init__(self, loop):
        self.hits = 0
        self._lock = threading.Lock()
        loop.register_fd(0, 1, self._on_io)

    def _on_io(self, mask):
        with self._lock:
            self.hits += 1
"""
}

_GL106_SUPPRESSED = {
    "repro/core/counter.py": """\
from repro.obs.racesan import shared_state


@shared_state
class Counter:
    def __init__(self, loop):
        self.hits = 0
        loop.register_fd(0, 1, self._on_io)

    def _on_io(self, mask):
        self.hits += 1  # gridlint: disable=GL106 -- loop-confined: only the registering loop runs _on_io
"""
}

_GL107_POSITIVE = {
    "repro/core/worker.py": """\
import threading

from repro.obs.racesan import shared_state


@shared_state
class Worker:
    def __init__(self):
        self.stop = False
        threading.Thread(target=self._run).start()
        self.interval = 0.5

    def _run(self):
        return self.interval
"""
}

_GL107_NEGATIVE = {
    "repro/core/worker.py": """\
import threading

from repro.obs.racesan import shared_state


@shared_state
class Worker:
    def __init__(self):
        # Publish last: every field settles before the thread can look.
        self.stop = False
        self.interval = 0.5
        threading.Thread(target=self._run).start()

    def _run(self):
        return self.interval
"""
}

_GL107_SUPPRESSED = {
    "repro/core/worker.py": """\
import threading

from repro.obs.racesan import shared_state


@shared_state
class Worker:
    def __init__(self):
        self.stop = False
        self.started = threading.Event()
        threading.Thread(target=self._run).start()
        self.interval = 0.5  # gridlint: disable=GL107 -- the spawned side waits on self.started before reading fields

    def _run(self):
        self.started.wait(1.0)
        return self.interval
"""
}

FIXTURES: dict[str, dict[str, dict[str, str]]] = {
    "GL101": {
        "positive": _GL101_POSITIVE,
        "negative": _GL101_NEGATIVE,
        "suppressed": _GL101_SUPPRESSED,
    },
    "GL102": {
        "positive": _GL102_POSITIVE,
        "negative": _GL102_NEGATIVE,
        "suppressed": _GL102_SUPPRESSED,
    },
    "GL103": {
        "positive": _GL103_POSITIVE,
        "negative": _GL103_NEGATIVE,
        "suppressed": _GL103_SUPPRESSED,
    },
    "GL105": {
        "positive": _GL105_POSITIVE,
        "negative": _GL105_NEGATIVE,
        "suppressed": _GL105_SUPPRESSED,
    },
    "GL201": {
        "positive": _GL201_POSITIVE,
        "negative": _GL201_NEGATIVE,
        "suppressed": _GL201_SUPPRESSED,
    },
    "GL301": {
        "positive": _GL301_POSITIVE,
        "negative": _GL301_NEGATIVE,
        "suppressed": _GL301_SUPPRESSED,
    },
    "GL401": {
        "positive": _GL401_POSITIVE,
        "negative": _GL401_NEGATIVE,
        "suppressed": _GL401_SUPPRESSED,
    },
    "GL106": {
        "positive": _GL106_POSITIVE,
        "negative": _GL106_NEGATIVE,
        "suppressed": _GL106_SUPPRESSED,
    },
    "GL107": {
        "positive": _GL107_POSITIVE,
        "negative": _GL107_NEGATIVE,
        "suppressed": _GL107_SUPPRESSED,
    },
}


def lint(tmp_path, files: dict[str, str], **kwargs):
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    project = Project.load([tmp_path], root=tmp_path)
    return run_rules(project, **kwargs)


def codes_of(result) -> list[str]:
    return [finding.code for finding in result.findings]


# ---------------------------------------------------------------------------
# Per-rule fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_fires_on_positive_fixture(tmp_path, code):
    result = lint(tmp_path, FIXTURES[code]["positive"], select={code})
    assert code in codes_of(result), render_text(result)
    assert result.exit_code == 1


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_stays_quiet_on_negative_fixture(tmp_path, code):
    result = lint(tmp_path, FIXTURES[code]["negative"], select={code})
    assert codes_of(result) == [], render_text(result)
    assert result.exit_code == 0


def test_gl102_flags_a_transport_that_spawns_its_own_threads(tmp_path):
    files = {"repro/transport/work.py": _GL102_POSITIVE["repro/core/work.py"]}
    assert codes_of(lint(tmp_path, files, select={"GL102"})) == ["GL102"]


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_justified_suppression_silences_rule(tmp_path, code):
    result = lint(tmp_path, FIXTURES[code]["suppressed"], select={code})
    assert codes_of(result) == [], render_text(result)
    assert len(result.suppressed) >= 1
    assert all(finding.code == code for finding in result.suppressed)


# ---------------------------------------------------------------------------
# Rule-specific sharp edges
# ---------------------------------------------------------------------------


def test_gl105_add_guard_function_chain(tmp_path):
    """RSA reached through a helper chain from add_guard() is caught."""
    files = {
        "repro/core/svc.py": """\
class Service:
    def wire(self, pipe):
        pipe.add_guard(self._check_rsa)

    def _check_rsa(self, message, peer):
        return self._verify(message)

    def _verify(self, message):
        return self.keypair.sign(message.body)
"""
    }
    result = lint(tmp_path, files, select={"GL105"})
    assert "GL105" in codes_of(result), render_text(result)


def test_gl106_externally_locked_chain_is_exempt(tmp_path):
    """The FrameDecoder idiom: the shared class takes no lock itself,
    but every reactor path into it crosses a lock-holding call site."""
    files = {
        "repro/core/chan.py": """\
from repro.obs.racesan import shared_state


@shared_state
class Decoder:
    def feed(self, data):
        self.buf = data


class Chan:
    def start(self, loop):
        loop.register_fd(0, 1, self._on_io)

    def _on_io(self, mask):
        with self._rx_lock:
            self._decoder.feed(b"x")


def off_loop_copy():
    # A thread-confined decoder: unlocked by design, and unreachable
    # from any reactor seed, so it must not poison the exemption.
    decoder = Decoder()
    decoder.feed(b"y")
"""
    }
    result = lint(tmp_path, files, select={"GL106"})
    assert codes_of(result) == [], render_text(result)


def test_gl106_one_unlocked_chain_defeats_exemption(tmp_path):
    """Two seed paths, one locked and one bare: the bare one wins."""
    files = {
        "repro/core/chan.py": """\
from repro.obs.racesan import shared_state


@shared_state
class Decoder:
    def feed(self, data):
        self.buf = data


class Chan:
    def start(self, loop):
        loop.register_fd(0, 1, self._on_io)
        loop.call_later(0.1, self._poll)

    def _on_io(self, mask):
        with self._rx_lock:
            self._decoder.feed(b"x")

    def _poll(self):
        self._decoder.feed(b"y")
"""
    }
    result = lint(tmp_path, files, select={"GL106"})
    assert codes_of(result) == ["GL106"], render_text(result)


def test_gl101_reaches_through_partial(tmp_path):
    """functools.partial(fn, ...) registrations resolve to fn."""
    files = {
        "repro/core/svc.py": """\
import time
from functools import partial


class Service:
    def start(self, loop):
        loop.register_fd(0, 1, partial(self._on_io, "tag"))

    def _on_io(self, tag, mask):
        time.sleep(0.1)
"""
    }
    result = lint(tmp_path, files, select={"GL101"})
    assert codes_of(result) == ["GL101"], render_text(result)


def test_gl101_reaches_through_wrapper_and_local_assignment(tmp_path):
    """cb = traced(self._tick); loop.call_later(..., cb) resolves to
    both the wrapper and the wrapped callable."""
    files = {
        "repro/core/svc.py": """\
import time


def traced(fn):
    return fn


class Service:
    def start(self, loop):
        cb = traced(self._tick)
        loop.call_later(0.1, cb)

    def _tick(self):
        time.sleep(0.1)
"""
    }
    result = lint(tmp_path, files, select={"GL101"})
    assert codes_of(result) == ["GL101"], render_text(result)


def test_gl101_partial_of_clean_callback_stays_quiet(tmp_path):
    files = {
        "repro/core/svc.py": """\
from functools import partial


class Service:
    def start(self, loop):
        loop.register_fd(0, 1, partial(self._on_io, "tag"))

    def _on_io(self, tag, mask):
        self.count = getattr(self, "count", 0) + 1
"""
    }
    result = lint(tmp_path, files, select={"GL101"})
    assert codes_of(result) == [], render_text(result)


def test_gl101_blocking_dispatch_handlers_are_exempt(tmp_path):
    """register(..., blocking=True) hands the handler to a worker pool."""
    files = {
        "repro/core/svc.py": """\
import time

class Service:
    def wire(self, pipe):
        pipe.register(Op.SLOW, self._slow, blocking=True)

    def _slow(self, message):
        time.sleep(0.5)
"""
    }
    result = lint(tmp_path, files, select={"GL101"})
    assert codes_of(result) == [], render_text(result)


_FSYNC_HANDLER = """\
import json
import os

class Journal:
    def append(self, event):
        self._fh.write(json.dumps(event))
        self._fh.flush()
        os.fsync(self._fh.fileno())

class Service:
    def wire(self, pipe):
        pipe.register(Op.JOB_DONE, self._done{blocking})

    def _done(self, message, peer):
        self.journal.append(message.body)
"""


def test_gl101_flags_fsync_under_an_inline_handler(tmp_path):
    """A per-event disk sync on the loop stalls every tunnel."""
    files = {"repro/core/svc.py": _FSYNC_HANDLER.format(blocking="")}
    result = lint(tmp_path, files, select={"GL101"})
    assert codes_of(result) == ["GL101"], render_text(result)
    assert "os.fsync()" in result.findings[0].message


def test_gl101_fsync_under_a_blocking_handler_is_exempt(tmp_path):
    files = {"repro/core/svc.py": _FSYNC_HANDLER.format(blocking=", blocking=True")}
    result = lint(tmp_path, files, select={"GL101"})
    assert codes_of(result) == [], render_text(result)


def test_gl101_flags_sleep_under_an_on_frame_batch_handler(tmp_path):
    """Inbound control frames reach the proxy through ``on_frame_batch``."""
    files = {
        "repro/core/svc.py": """\
import time

class Proxy:
    def install(self, tunnel):
        tunnel.on_frame_batch(1, lambda frames: self._on_batch(tunnel, frames))

    def _on_batch(self, tunnel, frames):
        time.sleep(0.5)
"""
    }
    result = lint(tmp_path, files, select={"GL101"})
    assert codes_of(result) == ["GL101"], render_text(result)


def test_gl101_reaches_through_lambdas(tmp_path):
    files = {
        "repro/core/svc.py": """\
import time

class Service:
    def start(self, loop):
        loop.call_later(0.1, lambda: self._tick())

    def _tick(self):
        time.sleep(1.0)
"""
    }
    result = lint(tmp_path, files, select={"GL101"})
    assert "GL101" in codes_of(result), render_text(result)


def test_gl201_register_of_undeclared_op(tmp_path):
    files = {
        "repro/core/protocol.py": """\
class Op:
    HELLO = 100

IDEMPOTENT_OPS = frozenset({Op.HELLO})
""",
        "repro/core/wiring.py": """\
def wire(pipe, handler):
    pipe.register(Op.BOGUS, handler)
    pipe.register(Op.HELLO, handler)
    pipe.register(Op.HELLO, handler)
""",
    }
    result = lint(tmp_path, files, select={"GL201"})
    messages = [finding.message for finding in result.findings]
    assert any("Op.BOGUS" in message for message in messages), messages
    assert any("more than once" in message for message in messages), messages


def test_gl103_reports_interprocedural_cycles(tmp_path):
    files = {
        "repro/core/pair.py": """\
class Pair:
    def forward(self):
        with self._a:
            self.helper()

    def helper(self):
        with self._b:
            pass

    def backward(self):
        with self._b:
            with self._a:
                pass
"""
    }
    result = lint(tmp_path, files, select={"GL103"})
    assert "GL103" in codes_of(result), render_text(result)


# ---------------------------------------------------------------------------
# Engine diagnostics: the suppression contract
# ---------------------------------------------------------------------------


def test_unjustified_suppression_does_not_suppress(tmp_path):
    files = {
        "repro/core/handler.py": (
            "class Handler:\n"
            "    def handle(self, message):\n"
            "        self.metrics.counter('x').inc()  # gridlint: disable=GL301\n"
        )
    }
    result = lint(tmp_path, files)
    codes = codes_of(result)
    assert "GL301" in codes  # the finding survives
    assert "GL001" in codes  # and the bad suppression is itself reported


def test_unknown_code_in_suppression_is_gl002(tmp_path):
    files = {
        "repro/core/empty.py": "x = 1  # gridlint: disable=GL999 -- no such rule\n"
    }
    result = lint(tmp_path, files)
    assert codes_of(result) == ["GL002"]


def test_stale_suppression_is_gl003(tmp_path):
    files = {
        "repro/core/empty.py": "x = 1  # gridlint: disable=GL102 -- nothing here spawns threads\n"
    }
    result = lint(tmp_path, files)
    assert codes_of(result) == ["GL003"]


def test_multi_code_suppression(tmp_path):
    files = {
        "repro/core/work.py": """\
import threading

def spawn(metrics):
    t = threading.Thread(target=metrics.counter("spawns").inc)  # gridlint: disable=GL102,GL301 -- fixture: both rules hit this line
    t.start()
"""
    }
    result = lint(tmp_path, files, select={"GL102", "GL301"})
    assert codes_of(result) == [], render_text(result)
    assert {finding.code for finding in result.suppressed} == {"GL102", "GL301"}


# ---------------------------------------------------------------------------
# Baselines and reporters
# ---------------------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    result = lint(tmp_path, FIXTURES["GL102"]["positive"])
    assert result.exit_code == 1
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, result)
    baseline = load_baseline(baseline_file)
    assert baseline == {finding.key for finding in result.findings}

    rebaselined = lint(tmp_path, FIXTURES["GL102"]["positive"], baseline=baseline)
    assert rebaselined.exit_code == 0
    assert len(rebaselined.baselined) == len(result.findings)


def test_json_reporter_shape(tmp_path):
    result = lint(tmp_path, FIXTURES["GL301"]["positive"])
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["checked_files"] == 1
    assert payload["rules"] == [r.code for r in all_rules()]
    (finding,) = payload["findings"]
    assert finding["code"] == "GL301"
    assert finding["path"].endswith("handler.py")
    assert isinstance(finding["line"], int)


def test_cli_end_to_end(tmp_path, capsys):
    target = tmp_path / "repro" / "core" / "work.py"
    target.parent.mkdir(parents=True)
    target.write_text(_GL102_POSITIVE["repro/core/work.py"], encoding="utf-8")

    exit_code = gridlint_main([str(tmp_path), "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "GL102" in out

    exit_code = gridlint_main(
        [str(tmp_path), "--root", str(tmp_path), "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"], payload

    exit_code = gridlint_main([str(tmp_path / "missing")])
    assert exit_code == 2
    assert "not found" in capsys.readouterr().err

    exit_code = gridlint_main([str(tmp_path), "--select", "GL777"])
    assert exit_code == 2


def _git(tmp_path, *argv):
    import subprocess

    subprocess.run(
        ["git", "-c", "user.email=t@t.invalid", "-c", "user.name=t", *argv],
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )


def test_cli_changed_only_scopes_to_the_diff(tmp_path, capsys, monkeypatch):
    """Findings in files untouched since BASE are dropped; changed and
    brand-new files keep theirs.  The whole tree is still parsed."""
    monkeypatch.chdir(tmp_path)
    _git(tmp_path, "init", "-q")
    old = tmp_path / "repro" / "core" / "old.py"
    old.parent.mkdir(parents=True)
    old.write_text(_GL102_POSITIVE["repro/core/work.py"], encoding="utf-8")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")

    exit_code = gridlint_main(
        [str(tmp_path), "--root", str(tmp_path), "--changed-only", "HEAD"]
    )
    out = capsys.readouterr().out
    assert exit_code == 0, out  # the committed finding is out of scope
    assert "0 finding(s)" in out

    new = tmp_path / "repro" / "core" / "new.py"
    new.write_text(_GL102_POSITIVE["repro/core/work.py"], encoding="utf-8")
    exit_code = gridlint_main(
        [str(tmp_path), "--root", str(tmp_path), "--changed-only", "HEAD"]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "new.py" in out and "old.py" not in out


def test_cli_changed_only_outside_git_is_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
    target = tmp_path / "repro" / "core" / "work.py"
    target.parent.mkdir(parents=True)
    target.write_text(_GL102_POSITIVE["repro/core/work.py"], encoding="utf-8")
    exit_code = gridlint_main(
        [str(tmp_path), "--root", str(tmp_path), "--changed-only"]
    )
    assert exit_code == 2
    assert "--changed-only failed" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert gridlint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in list(FIXTURES) + list(ENGINE_DIAGNOSTICS):
        assert code in out


# ---------------------------------------------------------------------------
# Meta-test: catalog and fixture coverage are complete
# ---------------------------------------------------------------------------


def test_every_rule_has_docs_and_fixtures():
    rules = all_rules()
    assert len(rules) >= 6, "the tree must ship at least six active rules"
    catalog = rule_catalog()
    for instance in rules:
        entry = catalog[instance.code]
        assert entry["title"], f"{instance.code} has no title"
        assert entry["doc"], f"{instance.code} has no documentation"
        fixture = FIXTURES.get(instance.code)
        assert fixture is not None, f"{instance.code} has no fixtures"
        assert fixture.get("positive"), f"{instance.code} has no positive fixture"
        assert fixture.get("negative"), f"{instance.code} has no negative fixture"
        assert fixture.get("suppressed"), f"{instance.code} has no suppression fixture"
    for code in ENGINE_DIAGNOSTICS:
        assert catalog[code]["title"], f"{code} missing from catalog"


def test_repo_tree_is_clean():
    """The shipped tree lints clean — the CI gate in test form."""
    project = Project.load(["src/repro"])
    result = run_rules(project)
    assert result.exit_code == 0, "\n" + render_text(result)
    # The suppression census: a new ``gridlint: disable`` in src/ has to
    # be justified here too, in review, not only at its own line.
    assert sorted((f.path, f.code) for f in result.suppressed) == [
        ("src/repro/core/dispatch.py", "GL301"),
        ("src/repro/core/proxy.py", "GL102"),
        ("src/repro/core/proxy.py", "GL102"),
        ("src/repro/core/proxy.py", "GL102"),
        ("src/repro/mpi/launcher.py", "GL102"),
        ("src/repro/threads/remote.py", "GL102"),
        ("src/repro/transport/reactor.py", "GL101"),
        ("src/repro/ui/web.py", "GL102"),
    ]
