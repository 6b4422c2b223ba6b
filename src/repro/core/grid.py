"""The Grid: user-facing assembly of sites, proxies, CA and services.

Builds the runtime the paper describes: a CA for the whole grid, one
proxy per site (more are accepted), a full mesh of secure tunnels between
proxies, shared user/permission databases checked at both ends, and MPI
execution over the proxy multiplexer.

Two transports are supported:

* ``"inproc"`` (default) — everything inside one process over the
  in-process fabric; fast and deterministic for tests and examples;
* ``"tcp"`` — proxies listen on real localhost sockets, demonstrating
  the identical code path over an actual network stack.
"""

from __future__ import annotations

import itertools
import secrets
import threading
import time
from typing import Any, Callable, Optional, Sequence

from repro.control.accounting import UsageLedger
from repro.control.retry import RetryPolicy
from repro.control.scheduler import (
    Job,
    LoadBalancedScheduler,
    NodeView,
    RoundRobinScheduler,
)
from repro.core.protocol import Op
from repro.core.proxy import ProxyServer
from repro.core.routing import GridDirectory
from repro.core.site import Site, TaskRegistry
from repro.mpi.communicator import Communicator
from repro.mpi.launcher import MpiJobResult, launch_ranks
from repro.security.auth import AccessControlList, UserDirectory
from repro.security.ca import CertificationAuthority
from repro.security.rsa import RsaKeyPair
from repro.security.tokens import TokenService
from repro.transport.inproc import InprocFabric
from repro.transport.reactor import ReactorTcpListener, connect_tcp_reactor

__all__ = ["Grid", "GridError"]

_app_ids = itertools.count(1)

_PLACEMENT_POLICIES = {
    "round_robin": RoundRobinScheduler,
    "load_balanced": LoadBalancedScheduler,
}


class GridError(Exception):
    """Grid construction or job execution failure."""


class Grid:
    """A computational grid of proxy-fronted sites.

    >>> grid = Grid()
    >>> site = grid.add_site("siteA", nodes=2)
    >>> grid.connect_all()
    >>> result = grid.run_mpi(lambda comm: comm.rank, nprocs=2)
    >>> result.returns
    [0, 1]
    """

    def __init__(
        self,
        transport: str = "inproc",
        clock: Optional[Callable[[], float]] = None,
        key_bits: int = 512,
        channel_wrapper: Optional[Callable[[Any], Any]] = None,
        handshake_retry: Optional[RetryPolicy] = None,
        heartbeat_interval: Optional[float] = None,
    ):
        """``channel_wrapper`` interposes on every dialed raw channel —
        the chaos suite injects faults there; ``handshake_retry`` governs
        redials when a tunnel handshake is interrupted mid-flight.

        ``heartbeat_interval`` arms each proxy's jittered heartbeat
        timer on the shared reactor so the failure detectors run without
        caller discipline."""
        if transport not in ("inproc", "tcp"):
            raise GridError(f"unknown transport: {transport!r}")
        self.transport = transport
        self.heartbeat_interval = heartbeat_interval
        self.clock = clock or time.time
        self.key_bits = key_bits
        self.channel_wrapper = channel_wrapper
        self.handshake_retry = handshake_retry or RetryPolicy(
            max_attempts=5, base_delay=0.02, max_delay=0.5
        )
        self.ca = CertificationAuthority(key_bits=key_bits, clock=self.clock)
        self.directory = GridDirectory()
        self.users = UserDirectory()
        self.acl = AccessControlList(self.users)
        self.ledger = UsageLedger(clock=self.clock)
        self.sites: dict[str, Site] = {}
        self.proxies: dict[str, ProxyServer] = {}
        self._fabric = InprocFabric()
        self._tcp_listeners: dict[str, ReactorTcpListener] = {}
        self._connected_pairs: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        #: grid-wide HMAC token key; every proxy's TokenService replica
        #: shares it, so a token minted at one proxy verifies at all of
        #: them (revocation lists start independent, converge by gossip)
        self._token_key = secrets.token_bytes(32)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_site(
        self,
        name: str,
        nodes: int = 1,
        node_speed: float = 1.0,
        node_speeds: Optional[Sequence[float]] = None,
        tasks: Optional[TaskRegistry] = None,
    ) -> Site:
        """Create a site with ``nodes`` stations and its border proxy."""
        if name in self.sites:
            raise GridError(f"duplicate site name: {name!r}")
        if nodes <= 0 and node_speeds is None:
            raise GridError(f"site needs at least one node: {nodes}")
        site = Site(name=name)
        speeds = list(node_speeds) if node_speeds is not None else [node_speed] * nodes
        for index, speed in enumerate(speeds):
            site.add_node(f"{name}.n{index}", cpu_speed=speed, tasks=tasks)

        def register(proxy_name: str, address: str) -> None:
            self.directory.register_site(name, proxy_name, address)
            for node_name in site.node_names():
                self.directory.register_node(node_name, name)

        self._new_proxy(f"proxy.{name}", site, register)
        self.sites[name] = site
        return site

    def add_extra_proxy(self, site_name: str) -> ProxyServer:
        """Add a redundant proxy to an existing site.

        "Configurations with more than one proxy server per site are also
        accepted": the extra proxy fronts the same stations with its own
        certificate and listener.  After :meth:`connect_all`, peers hold
        tunnels to every proxy of the site, and remote operations fail
        over to the next proxy when one dies.
        """
        if site_name not in self.sites:
            raise GridError(f"unknown site: {site_name!r}")
        site = self.sites[site_name]
        index = len(self.directory.proxies_of_site(site_name))
        return self._new_proxy(
            f"proxy.{site_name}.{index}",
            site,
            lambda proxy_name, address: self.directory.register_extra_proxy(
                site_name, proxy_name, address
            ),
        )

    def _new_proxy(
        self,
        proxy_name: str,
        site: Site,
        register: Callable[[str, str], None],
    ) -> ProxyServer:
        """Key, certify, register (via ``register(name, address)``) and
        start one proxy for ``site``."""
        keypair = RsaKeyPair.generate(self.key_bits)
        certificate = self.ca.issue(proxy_name, "proxy", keypair.public)
        address = self._make_address(proxy_name)
        register(proxy_name, address)
        proxy = ProxyServer(
            name=proxy_name,
            site=site,
            keypair=keypair,
            certificate=certificate,
            trust_anchor=self.ca.public_key,
            clock=self.clock,
            directory=self.directory,
            tokens=TokenService(
                self.users, self.clock, key=self._token_key, issuer=proxy_name
            ),
            users=self.users,
            acl=self.acl,
        )
        proxy.ledger = self.ledger
        self._start_listening(proxy, address)
        self.proxies[proxy_name] = proxy
        return proxy

    def _make_address(self, proxy_name: str) -> str:
        if self.transport == "inproc":
            return f"{proxy_name}.tunnel"
        listener = ReactorTcpListener()
        self._tcp_listeners[proxy_name] = listener
        return f"{listener.host}:{listener.port}"

    def _start_listening(self, proxy: ProxyServer, address: str) -> None:
        if self.transport == "inproc":
            proxy.listen(self._fabric.listen(address))
        else:
            proxy.listen(self._tcp_listeners[proxy.name])
        if self.heartbeat_interval is not None:
            proxy.start_heartbeats(self.heartbeat_interval)

    def _dial(self, address: str):
        if self.transport == "inproc":
            raw = self._fabric.connect(address)
        else:
            host, _, port = address.rpartition(":")
            raw = connect_tcp_reactor(host, int(port))
        if self.channel_wrapper is not None:
            raw = self.channel_wrapper(raw)
        return raw

    def connect(self, site_a: str, site_b: str) -> None:
        """Establish secure tunnels between two sites.

        Every proxy of ``site_a`` tunnels to every proxy of ``site_b``,
        so sites with redundant proxies get redundant paths.
        """
        for name_a in self.directory.proxies_of_site(site_a):
            for name_b in self.directory.proxies_of_site(site_b):
                self._connect_proxies(name_a, name_b)

    def _connect_proxies(self, name_a: str, name_b: str) -> None:
        pair = tuple(sorted([name_a, name_b]))
        with self._lock:
            if pair in self._connected_pairs:
                return
            self._connected_pairs.add(pair)
        proxy_a = self.proxies[name_a]
        address = self.directory.address_of_proxy(name_b)
        # Dial with handshake retry: an interrupted handshake (chaos
        # faults, peer hiccup) redials a fresh channel instead of failing
        # the whole grid build.
        # ``peer`` lets a reconnect offer the banked session ticket from
        # an earlier handshake with that proxy (full handshake if none).
        proxy_a.connect_to_peer(
            dial=lambda: self._dial(address), retry=self.handshake_retry,
            peer=name_b,
        )
        # Handshake completion on the acceptor side is asynchronous; wait
        # for the reverse direction to register.
        deadline = time.monotonic() + 10.0
        proxy_b = self.proxies[name_b]
        while name_a not in proxy_b.peers():
            if time.monotonic() > deadline:
                raise GridError(f"tunnel {name_a} <-> {name_b} did not come up")
            time.sleep(0.005)

    def connect_all(self) -> None:
        """Full mesh of tunnels (the paper's interconnection of all sites)."""
        names = sorted(self.sites)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                self.connect(a, b)

    def proxy_of(self, site: str) -> ProxyServer:
        try:
            return self.proxies[self.directory.proxy_of_site(site)]
        except Exception as exc:
            raise GridError(f"unknown site: {site!r}") from exc

    def secure_node_channel(self, site: str, node: str):
        """Explicit secure channel from a station to its own proxy.

        Local traffic is cleartext by default; this is the paper's
        opt-in: the node gets a CA-issued certificate and an encrypted,
        mutually-authenticated channel on which the proxy answers
        control requests.  Returns the node-side secure channel.
        """
        if self.directory.find_node(node) != site:
            raise GridError(f"node {node!r} is not at site {site!r}")
        keypair = RsaKeyPair.generate(self.key_bits)
        certificate = self.ca.issue(node, "node", keypair.public)
        return self.proxy_of(site).open_secure_local_channel(keypair, certificate)

    # ------------------------------------------------------------------
    # Users and permissions
    # ------------------------------------------------------------------

    def add_user(self, userid: str, password: str) -> None:
        self.users.add_user(userid, password)

    def grant(self, principal: str, resource_pattern: str, action: str) -> None:
        self.acl.grant(principal, resource_pattern, action)

    # ------------------------------------------------------------------
    # Token control plane
    # ------------------------------------------------------------------

    def enable_token_auth(self) -> bytes:
        """The grid token key (every grid has the token plane by construction)."""
        # Kept only for benchmarks/e2e/harness.py, which calls it.
        return self._token_key

    def login(
        self,
        userid: str,
        password: str,
        via_site: Optional[str] = None,
        scopes: Optional[Sequence[str]] = None,
    ) -> bytes:
        """Authenticate once at a site's proxy; returns the token blob."""
        if not self.sites:
            raise GridError("grid has no sites")
        proxy = self.proxy_of(via_site or sorted(self.sites)[0])
        return proxy.tokens.login(userid, password, scopes=scopes).to_bytes()

    def revoke_token(
        self, token_blob: bytes, via_site: Optional[str] = None
    ) -> int:
        """Revoke one token at a site's proxy and gossip it immediately.

        Returns that proxy's revocation epoch; the heartbeat it fans out
        makes every peer pull the list within one round trip.
        """
        proxy = self.proxy_of(via_site or sorted(self.sites)[0])
        proxy.tokens.revoke(token_blob)
        proxy.send_heartbeats()
        return proxy.tokens.epoch

    def revoke_user(self, userid: str, via_site: Optional[str] = None) -> int:
        """Revoke every outstanding token of ``userid`` grid-wide."""
        proxy = self.proxy_of(via_site or sorted(self.sites)[0])
        proxy.tokens.revoke_user(userid)
        proxy.send_heartbeats()
        return proxy.tokens.epoch

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def submit_job_with_token(
        self,
        token_blob: bytes,
        task: str,
        params: Optional[dict] = None,
        origin_site: Optional[str] = None,
        target_site: Optional[str] = None,
        timeout: float = 60.0,
    ) -> Any:
        """Submit a job from ``origin_site``'s proxy under a :meth:`login`
        token; the token and the ACL are checked at both ends."""
        if not self.sites:
            raise GridError("grid has no sites")
        origin = origin_site or sorted(self.sites)[0]
        return self.proxy_of(origin).submit_job_with_token(
            token_blob,
            task,
            params=params,
            target_site=target_site,
            timeout=timeout,
        )

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def global_status(
        self, via_site: Optional[str] = None, allow_partial: bool = False
    ) -> dict[str, Optional[list[dict]]]:
        """Compile the grid-wide status from every site's proxy.

        "The global status is obtained by compilation of all the sites'
        data" — the querying proxy asks each peer over the control
        protocol and merges the answers with its own local view.

        With ``allow_partial`` an unreachable site degrades to ``None``
        in the result instead of failing the whole query: the paper's
        failure confinement, surfaced at the API ("losing one proxy
        costs the grid that site's capacity, not the whole grid").
        """
        return self._compile(
            "status", via_site, allow_partial,
            ProxyServer.local_status, ProxyServer.query_peer_status,
        )

    def global_observability(
        self,
        via_site: Optional[str] = None,
        allow_partial: bool = True,
        trace_id: Optional[str] = None,
        max_spans: Optional[int] = None,
    ) -> dict[str, Optional[dict]]:
        """Compile the grid-wide telemetry view, one dump per site.

        Observability follows the same layer-3 model as status: each
        proxy keeps only its own site's metrics and spans, and the grid
        view is compiled on demand by asking every peer over ``OBS_DUMP``.
        ``trace_id`` narrows each site's spans to one trace — the way to
        see a single request's per-hop story across the grid.

        ``allow_partial`` (the default here, unlike status) degrades an
        unreachable site to ``None``: a telemetry query should not fail
        because the grid is in exactly the state worth looking at.
        """
        body = {"trace": trace_id, "max_spans": max_spans}
        body = {key: value for key, value in body.items() if value is not None}
        return self._compile(
            "telemetry", via_site, allow_partial,
            lambda origin: origin.observability(trace_id=trace_id, max_spans=max_spans),
            lambda origin, peer: origin.request(peer, Op.OBS_DUMP, dict(body)).body.get("obs"),
        )

    def _compile(
        self,
        what: str,
        via_site: Optional[str],
        allow_partial: bool,
        local: Callable[[ProxyServer], Any],
        ask: Callable[[ProxyServer, str], Any],
    ) -> dict[str, Any]:
        """One answer per site, compiled on demand at the origin proxy.

        The origin answers for its own site with ``local(origin)``.  Any
        proxy of another site can answer for it: ``ask(origin, peer)``
        tries them in the order of the origin's failure detector (dead
        peers last).  A site no proxy answers for is ``None`` with
        ``allow_partial``, else a :class:`GridError` naming it.
        """
        if not self.sites:
            return {}
        origin = self.proxy_of(via_site or sorted(self.sites)[0])
        view = {origin.site.name: local(origin)}
        for site in self.directory.sites():
            if site == origin.site.name:
                continue
            last_error = None
            for peer in origin.ranked_peers(self.directory.proxies_of_site(site)):
                try:
                    view[site] = ask(origin, peer)
                    break
                except Exception as exc:
                    last_error = exc
            else:
                if not allow_partial:
                    raise GridError(
                        f"no proxy of site {site!r} answered the {what} "
                        f"query: {last_error}"
                    )
                view[site] = None
        return view

    # ------------------------------------------------------------------
    # MPI over the grid
    # ------------------------------------------------------------------

    def place_ranks(
        self, nprocs: int, policy: str = "round_robin"
    ) -> tuple[dict[int, str], dict[int, str]]:
        """rank → site and rank → node maps under the chosen policy.

        ``round_robin`` cycles the flat node list (MPI's native policy,
        per the paper); ``load_balanced`` puts each rank where it would
        finish earliest given node speed and running tasks.  Both are
        the schedulers of :mod:`repro.control.scheduler` (E6), fed the
        live site status.
        """
        views: list[NodeView] = []
        for site_name in sorted(self.sites):
            # A site with no live proxy is unreachable: its stations may
            # be healthy, but nothing can tunnel their traffic — route
            # the application around it (the paper's failure confinement).
            if not any(
                self.proxies[proxy_name].alive
                for proxy_name in self.directory.proxies_of_site(site_name)
                if proxy_name in self.proxies
            ):
                continue
            for node in self.sites[site_name].alive_nodes():
                views.append(
                    NodeView(
                        name=node.name,
                        site=site_name,
                        speed=node.cpu_speed,
                        queued_work=float(node.running_tasks),
                    )
                )
        if not views:
            raise GridError("no alive nodes to place on")
        if policy not in _PLACEMENT_POLICIES:
            raise GridError(f"unknown placement policy: {policy!r}")
        scheduler = _PLACEMENT_POLICIES[policy](views)
        rank_to_node = scheduler.assign_all(
            [Job(work=1.0, job_id=rank) for rank in range(nprocs)]
        )
        rank_to_site = {
            rank: scheduler.nodes[name].site for rank, name in rank_to_node.items()
        }
        return rank_to_site, rank_to_node

    def run_mpi(
        self,
        app: Callable[[Communicator], Any],
        nprocs: int,
        policy: str = "round_robin",
        timeout: float = 120.0,
        args: tuple = (),
        app_id: Optional[str] = None,
    ) -> MpiJobResult:
        """Run an *unmodified* MPI application across the whole grid.

        The proxy of rank 0's site originates the application: it creates
        the address spaces (virtual slaves included) at every
        participating proxy, then ranks execute on threads bound to their
        site's router.  Local pairs use direct LAN delivery; cross-site
        pairs ride the secure tunnels (Fig. 3a vs Fig. 3b).
        """
        if nprocs <= 0:
            raise GridError(f"nprocs must be positive: {nprocs}")
        if not self.sites:
            raise GridError("grid has no sites")
        rank_to_site, rank_to_node = self.place_ranks(nprocs, policy=policy)
        app_id = app_id or f"mpi-{next(_app_ids)}"
        origin = self.proxy_of(rank_to_site[0])
        origin.start_app(app_id, rank_to_site, rank_to_node, announce=True)
        result = launch_ranks(
            app, nprocs,
            lambda rank: self.proxy_of(rank_to_site[rank]).router_for(app_id),
            timeout, args, app_id,
            lambda hung: origin.end_app(app_id, announce=True),
        )
        result.placement = [rank_to_node[rank] for rank in range(nprocs)]
        return result

    # ------------------------------------------------------------------
    # Workload management
    # ------------------------------------------------------------------

    def attach_workload_manager(
        self,
        site: str,
        journal: Optional[Any] = None,
        **kwargs: Any,
    ):
        """Make ``site``'s proxy the grid's workload-management authority.

        Creates a :class:`~repro.control.wms.WorkloadManager` (grid
        clock, authority proxy's metrics registry) and attaches it: the
        proxy then serves the JOB_QSUBMIT/JOB_CLAIM/JOB_STATUS/JOB_DONE
        ops, and its failure detector requeues a dead pilot's claims.
        Pass a ``journal`` (e.g. :class:`~repro.control.wms.FileJournal`)
        for crash-recoverable durability; extra ``kwargs`` go to the
        manager (``half_life``, ``backfill_limit``, ...).
        """
        from repro.control.wms import WorkloadManager

        proxy = self.proxy_of(site)
        wms = WorkloadManager(
            name=f"wms.{site}",
            clock=self.clock,
            journal=journal,
            metrics=proxy.obs.metrics,
            **kwargs,
        )
        proxy.attach_wms(wms)
        return wms

    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        for proxy in self.proxies.values():
            proxy.shutdown()
        for site in self.sites.values():
            site.shutdown()

    def __enter__(self) -> "Grid":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
