"""Local SQLite-backed token and credential cache.

The Octopus SDK "includes a Globus Auth login manager to perform an
authentication flow and cache tokens on the user's behalf.  Tokens and MSK
secrets are stored in a local SQLite database and automatically refreshed
as needed" (Section IV-E).  :class:`TokenStore` is that database; it can
live on disk (``~/.octopus/storage.db`` equivalent) or in memory for
tests.

The store keeps no clock: every time it records or compares comes from
the caller, which reads its own component's clock.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Any, Dict, Optional


class TokenStore:
    """Persistent key/value store for tokens and MSK credentials."""

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        # check_same_thread=False + our own lock lets producer/consumer
        # threads share the cache the way the SDK does.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.RLock()
        with self._lock:
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS tokens (
                    principal TEXT NOT NULL,
                    resource_server TEXT NOT NULL,
                    access_token TEXT NOT NULL,
                    refresh_token TEXT,
                    expires_at REAL NOT NULL,
                    scopes TEXT NOT NULL,
                    PRIMARY KEY (principal, resource_server)
                )
                """
            )
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS credentials (
                    principal TEXT PRIMARY KEY,
                    payload TEXT NOT NULL,
                    created_at REAL NOT NULL
                )
                """
            )
            self._conn.commit()

    # ------------------------------------------------------------------ #
    # Tokens
    # ------------------------------------------------------------------ #
    def store_token(
        self,
        principal: str,
        resource_server: str,
        access_token: str,
        *,
        refresh_token: Optional[str] = None,
        expires_at: float,
        scopes: Optional[list] = None,
    ) -> None:
        encoded_scopes = json.dumps(scopes or [])
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO tokens VALUES (?, ?, ?, ?, ?, ?)",
                (
                    principal,
                    resource_server,
                    access_token,
                    refresh_token,
                    float(expires_at),
                    encoded_scopes,
                ),
            )
            self._conn.commit()

    def get_token(self, principal: str, resource_server: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT access_token, refresh_token, expires_at, scopes "
                "FROM tokens WHERE principal = ? AND resource_server = ?",
                (principal, resource_server),
            ).fetchone()
        if row is None:
            return None
        return {
            "access_token": row[0],
            "refresh_token": row[1],
            "expires_at": row[2],
            "scopes": json.loads(row[3]),
        }

    def token_is_fresh(
        self, principal: str, resource_server: str, *, now: float,
        margin_seconds: float = 60.0,
    ) -> bool:
        """Whether a cached token exists and will stay valid past ``margin``."""
        entry = self.get_token(principal, resource_server)
        if entry is None:
            return False
        return entry["expires_at"] - margin_seconds > now

    def delete_token(self, principal: str, resource_server: str) -> None:
        with self._lock:
            self._conn.execute(
                "DELETE FROM tokens WHERE principal = ? AND resource_server = ?",
                (principal, resource_server),
            )
            self._conn.commit()

    # ------------------------------------------------------------------ #
    # MSK credentials
    # ------------------------------------------------------------------ #
    def store_credentials(
        self, principal: str, credentials: Dict[str, Any], *, created_at: float
    ) -> None:
        payload = json.dumps(credentials)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO credentials VALUES (?, ?, ?)",
                (principal, payload, float(created_at)),
            )
            self._conn.commit()

    def get_credentials(self, principal: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM credentials WHERE principal = ?", (principal,)
            ).fetchone()
        return json.loads(row[0]) if row else None

    def delete_credentials(self, principal: str) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM credentials WHERE principal = ?", (principal,))
            self._conn.commit()

    # ------------------------------------------------------------------ #
    def principals(self) -> list:
        with self._lock:
            rows = self._conn.execute("SELECT DISTINCT principal FROM tokens").fetchall()
        return sorted(r[0] for r in rows)

    def close(self) -> None:
        with self._lock:
            self._conn.close()
