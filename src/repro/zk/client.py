"""Session-scoped client handle over :class:`ZkServer`.

Adds the conveniences SamzaSQL uses: JSON payload helpers for sharing plan
metadata, and context-manager session lifetime (closing drops ephemerals).
"""

from __future__ import annotations

import json
from typing import Any

from repro.common.errors import ZkError, ZkSessionExpiredError
from repro.zk.server import WatchCallback, ZkServer
from repro.zk.znode import Stat


class ZkClient:
    """One session against a :class:`ZkServer`."""

    def __init__(self, server: ZkServer):
        self._server = server
        self._session_id = server.create_session()
        self._closed = False
        self.reconnect_count = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def session_id(self) -> int:
        return self._session_id

    def close(self) -> None:
        if not self._closed:
            self._server.close_session(self._session_id)
            self._closed = True

    def __enter__(self) -> "ZkClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def reconnect(self) -> None:
        """Open a fresh session after an expiry (ephemerals are gone)."""
        self._session_id = self._server.create_session()
        self._closed = False
        self.reconnect_count += 1

    def _check_open(self) -> None:
        if self._closed:
            raise ZkError("client session is closed")
        if not self._server.session_alive(self._session_id):
            if self._server.session_expired(self._session_id):
                raise ZkSessionExpiredError(
                    f"session {self._session_id} was expired by the server")
            raise ZkError(f"session {self._session_id} is not alive")

    # -- raw operations ----------------------------------------------------------

    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequential: bool = False) -> str:
        self._check_open()
        return self._server.create(
            path, data, session_id=self._session_id,
            ephemeral=ephemeral, sequential=sequential,
        )

    def ensure_path(self, path: str) -> None:
        self._check_open()
        self._server.ensure_path(path)

    def exists(self, path: str, watch: WatchCallback | None = None) -> Stat | None:
        self._check_open()
        return self._server.exists(path, watch)

    def get(self, path: str, watch: WatchCallback | None = None) -> tuple[bytes, Stat]:
        self._check_open()
        return self._server.get(path, watch)

    def set(self, path: str, data: bytes, expected_version: int | None = None) -> Stat:
        self._check_open()
        return self._server.set(path, data, expected_version)

    def delete(self, path: str, expected_version: int | None = None) -> None:
        self._check_open()
        self._server.delete(path, expected_version)

    def get_children(self, path: str, watch: WatchCallback | None = None) -> list[str]:
        self._check_open()
        return self._server.get_children(path, watch)

    # -- JSON conveniences (used for plan/config metadata) ---------------------------

    @staticmethod
    def encode_json(payload: Any) -> bytes:
        """The bytes :meth:`write_json` stores for ``payload``: canonical
        (sorted keys, no whitespace), so the same payload always produces
        the same bytes — every process reading a shared physical plan must
        derive the same program from it."""
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def write_json(self, path: str, payload: Any) -> None:
        """Create-or-set ``path`` with a JSON payload, creating ancestors."""
        self._check_open()
        if self._server.exists(path) is None:
            self._server.ensure_path(path)
        self._server.set(path, self.encode_json(payload))

    def read_json(self, path: str) -> Any:
        raw, _stat = self.get(path)
        if not raw:
            raise ZkError(f"node {path!r} holds no data")
        return json.loads(raw.decode("utf-8"))
