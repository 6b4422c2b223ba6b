"""The grid directory: who is where, and which proxy fronts which site.

The paper keeps control distributed — "each proxy responsible for the
collection and control of the site where it is located" — but every proxy
must still resolve *which* peer proxy fronts a given site or node.  The
:class:`GridDirectory` is that resolution table: site → proxy, node →
site, plus the fabric addresses proxies dial to reach each other.

The directory holds only static membership (the paper's grid composition
is an administrative decision); dynamic status flows through the
monitoring layer instead.
"""

from __future__ import annotations

import threading
from typing import Optional

__all__ = ["GridDirectory", "DirectoryError"]


class DirectoryError(Exception):
    """Unknown site, node or proxy."""


class GridDirectory:
    """Thread-safe membership map shared by the grid's proxies."""

    def __init__(self):
        self._lock = threading.Lock()
        self._site_proxy: dict[str, str] = {}  # site -> proxy name
        self._proxy_address: dict[str, str] = {}  # proxy name -> dial address
        self._node_site: dict[str, str] = {}  # node -> site
        self._extra_proxies: dict[str, list[str]] = {}  # site -> additional proxies

    # -- registration -----------------------------------------------------

    def register_site(self, site: str, proxy_name: str, proxy_address: str) -> None:
        with self._lock:
            if site in self._site_proxy:
                raise DirectoryError(f"site already registered: {site!r}")
            self._site_proxy[site] = proxy_name
            self._proxy_address[proxy_name] = proxy_address
            self._extra_proxies[site] = []

    def register_extra_proxy(
        self, site: str, proxy_name: str, proxy_address: str
    ) -> None:
        """Additional proxies per site — "configurations with more than one
        proxy server per site are also accepted"."""
        with self._lock:
            if site not in self._site_proxy:
                raise DirectoryError(f"unknown site: {site!r}")
            if proxy_name in self._proxy_address:
                raise DirectoryError(f"proxy already registered: {proxy_name!r}")
            self._proxy_address[proxy_name] = proxy_address
            self._extra_proxies[site].append(proxy_name)

    def register_node(self, node: str, site: str) -> None:
        with self._lock:
            if site not in self._site_proxy:
                raise DirectoryError(f"unknown site: {site!r}")
            if node in self._node_site:
                raise DirectoryError(f"node already registered: {node!r}")
            self._node_site[node] = site

    def unregister_site(self, site: str) -> None:
        """Remove a failed/departed site and everything behind it."""
        with self._lock:
            proxy = self._site_proxy.pop(site, None)
            if proxy is None:
                raise DirectoryError(f"unknown site: {site!r}")
            self._proxy_address.pop(proxy, None)
            for extra in self._extra_proxies.pop(site, []):
                self._proxy_address.pop(extra, None)
            self._node_site = {
                node: s for node, s in self._node_site.items() if s != site
            }

    # -- resolution --------------------------------------------------------

    def sites(self) -> list[str]:
        with self._lock:
            return sorted(self._site_proxy)

    def proxies(self) -> list[str]:
        with self._lock:
            return sorted(self._proxy_address)

    def proxy_of_site(self, site: str) -> str:
        with self._lock:
            try:
                return self._site_proxy[site]
            except KeyError:
                raise DirectoryError(f"unknown site: {site!r}") from None

    def proxies_of_site(self, site: str) -> list[str]:
        """Primary proxy first, then any extras."""
        with self._lock:
            if site not in self._site_proxy:
                raise DirectoryError(f"unknown site: {site!r}")
            return [self._site_proxy[site], *self._extra_proxies[site]]

    def address_of_proxy(self, proxy_name: str) -> str:
        with self._lock:
            try:
                return self._proxy_address[proxy_name]
            except KeyError:
                raise DirectoryError(f"unknown proxy: {proxy_name!r}") from None

    def site_of_node(self, node: str) -> str:
        with self._lock:
            try:
                return self._node_site[node]
            except KeyError:
                raise DirectoryError(f"unknown node: {node!r}") from None

    def nodes_of_site(self, site: str) -> list[str]:
        with self._lock:
            return sorted(n for n, s in self._node_site.items() if s == site)

    def all_nodes(self) -> list[str]:
        with self._lock:
            return sorted(self._node_site)

    def site_to_proxy_map(self) -> dict[str, str]:
        with self._lock:
            return dict(self._site_proxy)

    def find_node(self, node: str) -> Optional[str]:
        """Site of node, or None — the resource-location soft query."""
        with self._lock:
            return self._node_site.get(node)
