"""OAuth 2.0-style authorization server (Globus Auth stand-in).

The Octopus Web Service is registered as an OAuth resource server; users
authenticate against Globus Auth (which federates institutional identity
providers), obtain access tokens scoped to the OWS API, and present them
on every request (Section IV-B/IV-C).  Globus Auth's *dependent token*
delegation — letting a service obtain tokens to call other services on a
user's behalf — is what empowers triggers to invoke external actions; it
is modelled here by :meth:`AuthorizationServer.dependent_token`.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.auth.identity import IdentityStore
from repro.common.clock import Clock, SystemClock


class AuthError(Exception):
    """Base class for authentication/authorization failures."""


class InvalidTokenError(AuthError):
    """The token is unknown, expired or revoked."""


class InsufficientScopeError(AuthError):
    """The token does not carry the scope required by the resource server."""


@dataclass(frozen=True)
class Scope:
    """A named OAuth scope owned by a resource server."""

    resource_server: str
    name: str

    @property
    def scope_string(self) -> str:
        return f"{self.resource_server}:{self.name}"


@dataclass
class AccessToken:
    """A bearer token issued to a client for a set of scopes."""

    token: str
    principal: str
    scopes: List[str]
    issued_at: float
    expires_at: float
    refresh_token: Optional[str] = None
    delegated_from: Optional[str] = None
    revoked: bool = False

    def is_valid(self, now: float) -> bool:
        return not self.revoked and now < self.expires_at

    def has_scope(self, scope: str) -> bool:
        return scope in self.scopes


@dataclass
class ResourceServer:
    """A registered resource server (OWS, transfer service, compute service...)."""

    name: str
    scopes: List[str] = field(default_factory=list)


class AuthorizationServer:
    """Issues, validates, refreshes, delegates and revokes access tokens."""

    def __init__(
        self,
        identities: Optional[IdentityStore] = None,
        *,
        default_token_lifetime: float = 48 * 3600.0,
        clock: Optional[Clock] = None,
    ) -> None:
        self.identities = identities or IdentityStore()
        self.default_token_lifetime = default_token_lifetime
        self.clock: Clock = clock or SystemClock()
        self._resource_servers: Dict[str, ResourceServer] = {}
        self._tokens: Dict[str, AccessToken] = {}
        self._refresh_tokens: Dict[str, str] = {}  # refresh token -> access token

    # ------------------------------------------------------------------ #
    # Resource server / scope registration
    # ------------------------------------------------------------------ #
    def register_resource_server(self, name: str, scopes: List[str]) -> ResourceServer:
        server = self._resource_servers.get(name)
        if server is None:
            server = ResourceServer(name=name)
            self._resource_servers[name] = server
        for scope in scopes:
            if scope not in server.scopes:
                server.scopes.append(scope)
        return server

    def resource_server(self, name: str) -> ResourceServer:
        try:
            return self._resource_servers[name]
        except KeyError:
            raise AuthError(f"resource server {name!r} is not registered") from None

    def scope_strings(self, name: str) -> List[str]:
        server = self.resource_server(name)
        return [Scope(name, s).scope_string for s in server.scopes]

    # ------------------------------------------------------------------ #
    # Authentication flows
    # ------------------------------------------------------------------ #
    def login(
        self,
        username: str,
        domain: str,
        requested_scopes: List[str],
        *,
        lifetime: Optional[float] = None,
    ) -> AccessToken:
        """Authorization-code-style login: authenticate and issue a token.

        ``requested_scopes`` use the ``resource_server:scope`` form; each
        one must belong to a registered resource server.
        """
        identity = self.identities.create_identity(username, domain)
        self._validate_scopes(requested_scopes)
        return self._issue(identity.principal, requested_scopes, lifetime, with_refresh=True)

    def client_credentials_grant(
        self, client_id: str, requested_scopes: List[str], *, lifetime: Optional[float] = None
    ) -> AccessToken:
        """Service-to-service authentication (confidential client)."""
        self._validate_scopes(requested_scopes)
        return self._issue(client_id, requested_scopes, lifetime, with_refresh=False)

    def refresh(self, refresh_token: str) -> AccessToken:
        """Exchange a refresh token for a fresh access token."""
        access_token = self._refresh_tokens.get(refresh_token)
        if access_token is None:
            raise InvalidTokenError("unknown refresh token")
        old = self._tokens[access_token]
        old.revoked = True
        new = self._issue(old.principal, old.scopes, None, with_refresh=True)
        del self._refresh_tokens[refresh_token]
        return new

    def dependent_token(
        self, token: str, resource_server: str, scopes: Optional[List[str]] = None
    ) -> AccessToken:
        """Issue a delegated token for ``resource_server`` on behalf of the user.

        This models Globus Auth's dependent-token grant: a service holding
        a user's token for itself can obtain tokens to call *other*
        services as that user — for example, an Octopus trigger calling the
        transfer service.
        """
        source = self.validate(token)
        server = self.resource_server(resource_server)
        scope_names = scopes if scopes is not None else server.scopes
        delegated_scopes = [Scope(resource_server, s).scope_string for s in scope_names]
        issued = self._issue(source.principal, delegated_scopes, None, with_refresh=False)
        issued.delegated_from = source.token
        return issued

    # ------------------------------------------------------------------ #
    # Validation / revocation
    # ------------------------------------------------------------------ #
    def validate(self, token: str, required_scope: Optional[str] = None) -> AccessToken:
        """Validate a bearer token and (optionally) a required scope."""
        entry = self._tokens.get(token)
        if entry is None:
            raise InvalidTokenError("unknown access token")
        if not entry.is_valid(self.clock.now()):
            raise InvalidTokenError("token expired or revoked")
        if required_scope is not None and not entry.has_scope(required_scope):
            raise InsufficientScopeError(
                f"token lacks required scope {required_scope!r} (has {entry.scopes})"
            )
        return entry

    def introspect(self, token: str) -> dict:
        """RFC 7662-style introspection response."""
        entry = self._tokens.get(token)
        if entry is None or not entry.is_valid(self.clock.now()):
            return {"active": False}
        return {
            "active": True,
            "sub": entry.principal,
            "scope": " ".join(entry.scopes),
            "exp": entry.expires_at,
            "iat": entry.issued_at,
        }

    def revoke(self, token: str) -> None:
        entry = self._tokens.get(token)
        if entry is not None:
            entry.revoked = True

    def revoke_all_for(self, principal: str) -> int:
        count = 0
        for entry in self._tokens.values():
            if entry.principal == principal and not entry.revoked:
                entry.revoked = True
                count += 1
        return count

    # ------------------------------------------------------------------ #
    def _validate_scopes(self, scopes: List[str]) -> None:
        if not scopes:
            raise AuthError("at least one scope must be requested")
        for scope in scopes:
            if ":" not in scope:
                raise AuthError(f"malformed scope {scope!r}; expected 'server:scope'")
            server, name = scope.split(":", 1)
            registered = self.resource_server(server)
            if name not in registered.scopes:
                raise AuthError(f"scope {name!r} is not offered by {server!r}")

    def _issue(
        self,
        principal: str,
        scopes: List[str],
        lifetime: Optional[float],
        *,
        with_refresh: bool,
    ) -> AccessToken:
        lifetime = lifetime if lifetime is not None else self.default_token_lifetime
        now = self.clock.now()
        token = AccessToken(
            token=secrets.token_urlsafe(32),
            principal=principal,
            scopes=list(scopes),
            issued_at=now,
            expires_at=now + lifetime,
            refresh_token=secrets.token_urlsafe(32) if with_refresh else None,
        )
        self._tokens[token.token] = token
        if token.refresh_token:
            self._refresh_tokens[token.refresh_token] = token.token
        return token
