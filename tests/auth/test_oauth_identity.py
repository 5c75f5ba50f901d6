"""Tests for identity federation and the OAuth authorization server."""

import pytest

from repro.auth.identity import IdentityStore
from repro.auth.oauth import (
    AuthError,
    AuthorizationServer,
    InsufficientScopeError,
    InvalidTokenError,
    Scope,
)
from repro.common.clock import ManualClock


@pytest.fixture
def auth():
    server = AuthorizationServer()
    server.register_resource_server("octopus", ["all", "topics", "triggers"])
    server.register_resource_server("transfer", ["transfer"])
    return server


class TestIdentityStore:
    def test_create_identity_and_principal_form(self):
        store = IdentityStore()
        identity = store.create_identity("alice", "uchicago.edu")
        assert identity.principal == "alice@uchicago.edu"
        assert store.lookup("alice@uchicago.edu") is identity

    def test_create_identity_idempotent(self):
        store = IdentityStore()
        a = store.create_identity("alice", "anl.gov")
        b = store.create_identity("alice", "anl.gov")
        assert a is b
        assert len(store.identities()) == 1

    def test_provider_registered_once_per_domain(self):
        store = IdentityStore()
        store.create_identity("a", "anl.gov")
        store.create_identity("b", "anl.gov")
        assert len(store.providers()) == 1
        assert store.provider("anl.gov").domain == "anl.gov"

    def test_unknown_provider_raises(self):
        with pytest.raises(KeyError):
            IdentityStore().provider("nowhere.org")

    def test_groups_membership(self):
        store = IdentityStore()
        store.create_identity("alice", "anl.gov")
        store.create_identity("bob", "anl.gov")
        store.create_group("sdl-team", members=["alice@anl.gov"])
        store.add_to_group("sdl-team", "bob@anl.gov")
        assert store.group_members("sdl-team") == ["alice@anl.gov", "bob@anl.gov"]
        assert store.groups_for("bob@anl.gov") == ["sdl-team"]
        store.remove_from_group("sdl-team", "alice@anl.gov")
        assert store.group_members("sdl-team") == ["bob@anl.gov"]

    def test_group_requires_known_principal(self):
        store = IdentityStore()
        with pytest.raises(KeyError):
            store.add_to_group("team", "ghost@nowhere")


class TestLoginFlow:
    def test_login_issues_valid_scoped_token(self, auth):
        token = auth.login("alice", "uchicago.edu", ["octopus:all"])
        validated = auth.validate(token.token, required_scope="octopus:all")
        assert validated.principal == "alice@uchicago.edu"
        assert token.refresh_token is not None

    def test_scope_string_form(self):
        assert Scope("octopus", "all").scope_string == "octopus:all"

    def test_unknown_scope_rejected(self, auth):
        with pytest.raises(AuthError):
            auth.login("alice", "uchicago.edu", ["octopus:doesnotexist"])
        with pytest.raises(AuthError):
            auth.login("alice", "uchicago.edu", ["unregistered:all"])
        with pytest.raises(AuthError):
            auth.login("alice", "uchicago.edu", ["malformed"])
        with pytest.raises(AuthError):
            auth.login("alice", "uchicago.edu", [])

    def test_token_without_required_scope_rejected(self, auth):
        token = auth.login("alice", "uchicago.edu", ["octopus:topics"])
        with pytest.raises(InsufficientScopeError):
            auth.validate(token.token, required_scope="octopus:triggers")

    def test_expired_token_rejected(self):
        clock = ManualClock(1000.0)
        auth = AuthorizationServer(clock=clock)
        auth.register_resource_server("octopus", ["all"])
        token = auth.login("alice", "uchicago.edu", ["octopus:all"], lifetime=10.0)
        clock.advance(5.0)
        assert auth.validate(token.token) is not None
        clock.advance(6.0)
        with pytest.raises(InvalidTokenError):
            auth.validate(token.token)

    def test_unknown_token_rejected(self, auth):
        with pytest.raises(InvalidTokenError):
            auth.validate("garbage")

    def test_client_credentials_grant(self, auth):
        token = auth.client_credentials_grant("ows-service", ["octopus:all"])
        assert auth.validate(token.token).principal == "ows-service"
        assert token.refresh_token is None


class TestRefreshRevoke:
    def test_refresh_rotates_token(self, auth):
        token = auth.login("alice", "uchicago.edu", ["octopus:all"])
        new = auth.refresh(token.refresh_token)
        assert new.token != token.token
        with pytest.raises(InvalidTokenError):
            auth.validate(token.token)
        assert auth.validate(new.token).principal == "alice@uchicago.edu"

    def test_refresh_token_single_use(self, auth):
        token = auth.login("alice", "uchicago.edu", ["octopus:all"])
        auth.refresh(token.refresh_token)
        with pytest.raises(InvalidTokenError):
            auth.refresh(token.refresh_token)

    def test_revoke_single_token(self, auth):
        token = auth.login("alice", "uchicago.edu", ["octopus:all"])
        auth.revoke(token.token)
        with pytest.raises(InvalidTokenError):
            auth.validate(token.token)

    def test_revoke_all_for_principal(self, auth):
        t1 = auth.login("alice", "uchicago.edu", ["octopus:all"])
        t2 = auth.login("alice", "uchicago.edu", ["octopus:topics"])
        other = auth.login("bob", "anl.gov", ["octopus:all"])
        assert auth.revoke_all_for("alice@uchicago.edu") == 2
        for token in (t1, t2):
            with pytest.raises(InvalidTokenError):
                auth.validate(token.token)
        assert auth.validate(other.token)

    def test_introspection(self, auth):
        token = auth.login("alice", "uchicago.edu", ["octopus:all"])
        info = auth.introspect(token.token)
        assert info["active"] is True
        assert info["sub"] == "alice@uchicago.edu"
        auth.revoke(token.token)
        assert auth.introspect(token.token) == {"active": False}


class TestDelegation:
    def test_dependent_token_carries_principal_and_target_scopes(self, auth):
        token = auth.login("alice", "uchicago.edu", ["octopus:all"])
        delegated = auth.dependent_token(token.token, "transfer")
        assert delegated.principal == "alice@uchicago.edu"
        assert delegated.scopes == ["transfer:transfer"]
        assert delegated.delegated_from == token.token

    def test_dependent_token_requires_valid_source(self, auth):
        token = auth.login("alice", "uchicago.edu", ["octopus:all"])
        auth.revoke(token.token)
        with pytest.raises(InvalidTokenError):
            auth.dependent_token(token.token, "transfer")

    def test_dependent_token_unknown_resource_server(self, auth):
        token = auth.login("alice", "uchicago.edu", ["octopus:all"])
        with pytest.raises(AuthError):
            auth.dependent_token(token.token, "unknown-service")
