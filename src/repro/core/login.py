"""Login manager: authentication flow plus token caching and refresh.

The SDK's login manager performs the Globus Auth flow once, caches the
resulting tokens (and later the MSK key/secret) in the local SQLite store,
and transparently refreshes tokens as they approach expiry
(Section IV-E of the paper).  Freshness is judged on the auth server's
clock, so the manager and the server it refreshes against agree on when a
token expires.
"""

from __future__ import annotations

from typing import Optional

from repro.auth.oauth import AccessToken, AuthorizationServer, InvalidTokenError
from repro.core.service import OWS_SCOPE
from repro.core.tokenstore import TokenStore

RESOURCE_SERVER = "octopus"


class LoginManager:
    """Obtains and caches OWS access tokens for one user."""

    def __init__(
        self,
        auth: AuthorizationServer,
        store: Optional[TokenStore] = None,
        *,
        refresh_margin_seconds: float = 300.0,
    ) -> None:
        self.auth = auth
        self.store = store or TokenStore()
        self.refresh_margin_seconds = refresh_margin_seconds
        self._principal: Optional[str] = None

    # ------------------------------------------------------------------ #
    @property
    def principal(self) -> Optional[str]:
        return self._principal

    def login(self, username: str, domain: str) -> str:
        """Run the authentication flow (or reuse a cached token).

        Returns the access token to present to the OWS.
        """
        principal = f"{username}@{domain}"
        self._principal = principal
        cached = self.store.get_token(principal, RESOURCE_SERVER)
        if cached is not None and self._is_fresh(principal):
            return cached["access_token"]
        if cached is not None and cached.get("refresh_token"):
            try:
                refreshed = self.auth.refresh(cached["refresh_token"])
                self._cache(principal, refreshed)
                return refreshed.token
            except InvalidTokenError:
                pass  # fall through to a fresh login
        token = self.auth.login(username, domain, [OWS_SCOPE])
        self._cache(principal, token)
        return token.token

    def get_token(self) -> str:
        """Return a currently valid token, refreshing if necessary."""
        if self._principal is None:
            raise RuntimeError("login() must be called before get_token()")
        cached = self.store.get_token(self._principal, RESOURCE_SERVER)
        if cached is None:
            raise RuntimeError("no cached token; call login() first")
        if self._is_fresh(self._principal):
            return cached["access_token"]
        if cached.get("refresh_token"):
            refreshed = self.auth.refresh(cached["refresh_token"])
            self._cache(self._principal, refreshed)
            return refreshed.token
        raise InvalidTokenError("cached token expired and no refresh token available")

    def logout(self) -> None:
        """Revoke and forget the cached token."""
        if self._principal is None:
            return
        cached = self.store.get_token(self._principal, RESOURCE_SERVER)
        if cached is not None:
            self.auth.revoke(cached["access_token"])
            self.store.delete_token(self._principal, RESOURCE_SERVER)
        self.store.delete_credentials(self._principal)

    # ------------------------------------------------------------------ #
    def _is_fresh(self, principal: str) -> bool:
        return self.store.token_is_fresh(
            principal, RESOURCE_SERVER, now=self.auth.clock.now(),
            margin_seconds=self.refresh_margin_seconds,
        )

    def _cache(self, principal: str, token: AccessToken) -> None:
        self.store.store_token(
            principal,
            RESOURCE_SERVER,
            token.token,
            refresh_token=token.refresh_token,
            expires_at=token.expires_at,
            scopes=token.scopes,
        )
