"""IAM-like identities, access keys, policies and roles.

MSK only understands AWS IAM (or SCRAM) credentials, so the Octopus Web
Service creates one IAM identity per Globus user and returns an access
key/secret pair from ``GET /create_key`` (Section IV-C).  Triggers also
need IAM roles and policies so the Lambda function may read from the
event-source topic and write logs (Section IV-D).
"""

from __future__ import annotations

import fnmatch
import secrets
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.clock import Clock, SystemClock


class IamError(Exception):
    """Base class for IAM failures."""


class NoSuchEntityError(IamError):
    """The referenced IAM identity, role or key does not exist."""


class AccessDeniedError(IamError):
    """Policy evaluation denied the requested action."""


@dataclass(frozen=True)
class PolicyStatement:
    """A single Allow/Deny statement over actions and resources.

    Actions and resources support trailing-``*`` glob patterns, the subset
    of IAM syntax the Octopus control plane uses (e.g.
    ``kafka-cluster:WriteData`` on ``topic/diaspora/*``).
    """

    effect: str
    actions: tuple
    resources: tuple

    def __post_init__(self) -> None:
        if self.effect not in ("Allow", "Deny"):
            raise ValueError("effect must be 'Allow' or 'Deny'")

    def matches(self, action: str, resource: str) -> bool:
        return any(fnmatch.fnmatch(action, pattern) for pattern in self.actions) and any(
            fnmatch.fnmatch(resource, pattern) for pattern in self.resources
        )

    @classmethod
    def allow(cls, actions: List[str], resources: List[str]) -> "PolicyStatement":
        return cls("Allow", tuple(actions), tuple(resources))

    @classmethod
    def deny(cls, actions: List[str], resources: List[str]) -> "PolicyStatement":
        return cls("Deny", tuple(actions), tuple(resources))


@dataclass
class AccessKey:
    """An access key/secret pair bound to an IAM identity."""

    access_key_id: str
    secret_access_key: str
    principal: str
    created_at: float
    active: bool = True


@dataclass
class IamIdentity:
    """An IAM user or role."""

    principal: str
    kind: str = "user"  # "user" or "role"
    policies: List[PolicyStatement] = field(default_factory=list)
    tags: Dict[str, str] = field(default_factory=dict)


class IamService:
    """Manages IAM identities, keys and policy evaluation."""

    def __init__(self, *, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock or SystemClock()
        self._identities: Dict[str, IamIdentity] = {}
        self._keys: Dict[str, AccessKey] = {}

    # ------------------------------------------------------------------ #
    # Identities
    # ------------------------------------------------------------------ #
    def create_identity(
        self, principal: str, *, kind: str = "user", tags: Optional[Dict[str, str]] = None
    ) -> IamIdentity:
        """Create an IAM identity; idempotent for an existing principal."""
        if kind not in ("user", "role"):
            raise ValueError("kind must be 'user' or 'role'")
        identity = self._identities.get(principal)
        if identity is None:
            identity = IamIdentity(principal=principal, kind=kind, tags=dict(tags or {}))
            self._identities[principal] = identity
        return identity

    def identity(self, principal: str) -> IamIdentity:
        try:
            return self._identities[principal]
        except KeyError:
            raise NoSuchEntityError(f"IAM identity {principal!r} does not exist") from None

    def has_identity(self, principal: str) -> bool:
        return principal in self._identities

    def delete_identity(self, principal: str) -> None:
        self._identities.pop(principal, None)
        for key_id in [k for k, v in self._keys.items() if v.principal == principal]:
            del self._keys[key_id]

    def list_identities(self) -> List[str]:
        return sorted(self._identities)

    # ------------------------------------------------------------------ #
    # Access keys
    # ------------------------------------------------------------------ #
    def create_access_key(self, principal: str) -> AccessKey:
        """Create a key/secret for ``principal`` (auto-creating the identity)."""
        self.create_identity(principal)
        key = AccessKey(
            access_key_id="AKIA" + secrets.token_hex(8).upper(),
            secret_access_key=secrets.token_urlsafe(30),
            principal=principal,
            created_at=self.clock.now(),
        )
        self._keys[key.access_key_id] = key
        return key

    def keys_for(self, principal: str) -> List[AccessKey]:
        return [k for k in self._keys.values() if k.principal == principal]

    def deactivate_key(self, access_key_id: str) -> None:
        key = self._keys.get(access_key_id)
        if key is None:
            raise NoSuchEntityError(f"access key {access_key_id!r} does not exist")
        key.active = False

    def authenticate(self, access_key_id: str, secret_access_key: str) -> str:
        """Return the principal for a valid key/secret pair."""
        key = self._keys.get(access_key_id)
        if key is None or not key.active or key.secret_access_key != secret_access_key:
            raise AccessDeniedError("invalid or inactive access key")
        return key.principal

    # ------------------------------------------------------------------ #
    # Policies
    # ------------------------------------------------------------------ #
    def attach_policy(self, principal: str, statement: PolicyStatement) -> None:
        self.identity(principal).policies.append(statement)

    def detach_all_policies(self, principal: str) -> None:
        self.identity(principal).policies.clear()

    def is_allowed(self, principal: str, action: str, resource: str) -> bool:
        """Evaluate policies: explicit Deny wins, otherwise any Allow."""
        identity = self._identities.get(principal)
        if identity is None:
            return False
        allowed = False
        for statement in identity.policies:
            if statement.matches(action, resource):
                if statement.effect == "Deny":
                    return False
                allowed = True
        return allowed

    def check(self, principal: str, action: str, resource: str) -> None:
        if not self.is_allowed(principal, action, resource):
            raise AccessDeniedError(
                f"{principal!r} may not {action} on {resource}"
            )
