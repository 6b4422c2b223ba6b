"""The authority serves the WMS ops on its event loop.

JOB_QSUBMIT, JOB_CLAIM, JOB_STATUS and JOB_DONE are registered inline:
each handler is a lock, a dict update and one journal write and flush,
so it runs on the reactor thread that delivered the request and never
hops to the dispatch pool.  A claim holds that loop, so the authority
grants at most ``MAX_CLAIM_PER_REQUEST`` jobs per JOB_CLAIM however
large a ``count`` the pilot asks for.
"""

import functools

import pytest

from repro.control.wms import JobSpec, JobState
from repro.core.grid import Grid
from repro.core.proxy import MAX_CLAIM_PER_REQUEST
from repro.transport.reactor import on_reactor_thread

pytestmark = pytest.mark.wms


@pytest.fixture
def grid():
    grid = Grid()
    grid.add_site("A", nodes=1)
    grid.add_site("B", nodes=1)
    grid.add_site("C", nodes=1)
    grid.connect_all()
    try:
        yield grid
    finally:
        grid.shutdown()


def _record_threads(wms, calls: list) -> None:
    """Wrap the manager's served methods to note where each one ran."""
    for name in ("submit", "claim", "complete", "fail", "status"):
        method = getattr(wms, name)

        @functools.wraps(method)
        def wrapper(*args, _method=method, _name=name, **kwargs):
            calls.append((_name, on_reactor_thread()))
            return _method(*args, **kwargs)

        setattr(wms, name, wrapper)


def test_wms_handlers_run_on_the_loop_without_the_pool(grid):
    wms = grid.attach_workload_manager("A")
    calls: list = []
    _record_threads(wms, calls)
    authority = grid.proxy_of("A").name
    b, c = grid.proxy_of("B"), grid.proxy_of("C")
    for i in range(6):
        submitter = b if i % 2 == 0 else c
        submitter.wms_submit(authority, JobSpec(job_id=f"j{i}", user=f"u{i % 3}"))
    grants = c.wms_claim(authority, count=4) + b.wms_claim(authority, count=4)
    assert sorted(g["job"]["job_id"] for g in grants) == [f"j{i}" for i in range(6)]
    for grant in grants[:5]:
        ack = b.wms_done(authority, grant["job"]["job_id"], grant["token"])
        assert ack["state"] == JobState.DONE
    last = grants[5]
    ack = c.wms_done(authority, last["job"]["job_id"], last["token"], ok=False)
    assert ack["state"] == JobState.PENDING
    assert c.wms_status(authority)["done"] == 5
    assert b.wms_status(authority, job_id=last["job"]["job_id"])["attempts"] == 1

    assert {name for name, _ in calls} == {
        "submit", "claim", "complete", "fail", "status"
    }
    assert all(on_loop for _, on_loop in calls), calls
    assert grid.proxy_of("A").pipeline.pool_started() is False


def test_one_claim_grants_at_most_the_per_request_bound(grid):
    wms = grid.attach_workload_manager("A")
    authority = grid.proxy_of("A").name
    pilot = grid.proxy_of("B")
    for i in range(100):
        wms.submit(JobSpec(job_id=f"j{i}", user=f"u{i % 4}"))
    grants = pilot.wms_claim(authority, count=10_000)
    assert 0 < len(grants) <= MAX_CLAIM_PER_REQUEST
    rest = 100 - len(grants)
    assert wms.status()["pending"] == rest
    claimed = {g["job"]["job_id"] for g in grants}
    while len(claimed) < 100:
        more = pilot.wms_claim(authority, count=10_000)
        assert 0 < len(more) <= MAX_CLAIM_PER_REQUEST
        claimed.update(g["job"]["job_id"] for g in more)
    assert claimed == {f"j{i}" for i in range(100)}
    assert wms.status()["pending"] == 0
