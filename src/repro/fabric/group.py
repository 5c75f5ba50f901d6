"""Consumer-group coordination: membership, generations and assignment.

Every Octopus trigger gets its own consumer group so that many Lambda
instances can drain a topic without disturbing other consumers
(Section IV-D).  The coordinator implements a simplified version of the
Kafka group protocol with *incremental cooperative rebalancing*:

* Partition assignment is **sticky**: :func:`sticky_cooperative_assign`
  preserves each surviving member's prior partitions and moves only the
  minimal delta needed to rebalance, instead of reshuffling everything
  the way an eager range assignor does.
* Rebalances that must move partitions between surviving members run in
  **two phases**.  First the coordinator bumps the generation and shrinks
  each member to the partitions it *retains* — members keep fetching
  those throughout.  Once every member has acknowledged the revocation
  via :meth:`ConsumerGroupCoordinator.sync`, the coordinator bumps the
  generation again and installs the full target assignment.  Membership
  changes that only hand out free partitions (first join, a leave, an
  eviction) complete in a single phase.
* **Liveness is real**: each member carries a ``last_heartbeat`` stamped
  by the coordinator's injectable clock, and members whose heartbeat is
  older than their session timeout are evicted — their partitions
  re-stick to the survivors.  Expiry runs on the coordinator's own read
  paths (``join``/``generation``), so a group whose consumers keep
  polling sheds dead members without an external reaper.

Commits carrying a stale generation are rejected, which is what produces
at-least-once (rather than at-most-once) semantics across rebalances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.common.clock import Clock, SystemClock
from repro.common.sync import create_rlock
from repro.fabric.errors import IllegalGenerationError

TopicPartition = Tuple[str, int]

#: Rebalance phases a group can be in.
PHASE_STABLE = "stable"
PHASE_REVOKING = "revoking"


@dataclass
class GroupMember:
    """One consumer process inside a group."""

    member_id: str
    client_id: str
    joined_at: float = 0.0
    last_heartbeat: float = 0.0
    assignment: List[TopicPartition] = field(default_factory=list)
    #: Partitions the member's *client* may still be fetching: its last
    #: acknowledged assignment plus anything granted since.  ``assignment``
    #: can shrink ahead of the client during a revoke phase; ``owned``
    #: shrinks only when the member acknowledges via ``sync``.  A
    #: partition is never granted to another member while it is still in
    #: someone's ``owned`` set — that is what makes revocation safe.
    owned: List[TopicPartition] = field(default_factory=list)
    #: Per-member session timeout; ``None`` falls back to the coordinator's.
    session_timeout: Optional[float] = None


@dataclass
class GroupState:
    """Coordinator-side state of one consumer group."""

    group_id: str
    generation: int = 0
    members: Dict[str, GroupMember] = field(default_factory=dict)
    subscribed_topics: List[str] = field(default_factory=list)
    #: Last partition list supplied by a join/leave — used when the
    #: coordinator itself triggers a rebalance (eviction).
    partitions: List[TopicPartition] = field(default_factory=list)
    #: Two-phase rebalance state: while ``phase == PHASE_REVOKING``,
    #: ``pending`` holds the target assignment that is installed once
    #: every member in ``synced`` has acknowledged its revocation.
    phase: str = PHASE_STABLE
    pending: Optional[Dict[str, List[TopicPartition]]] = None
    synced: Set[str] = field(default_factory=set)


def range_assign(
    members: Sequence[str], partitions: Sequence[TopicPartition]
) -> Dict[str, List[TopicPartition]]:
    """Deterministic *eager* range assignment of partitions to members.

    Partitions are sorted, members are sorted, and each member receives a
    contiguous range.  The union of all assignments is exactly the input
    partition set and no partition is assigned twice.  Kept as the
    baseline the cooperative assignor is benchmarked against (and for
    callers that want a stateless assignor).
    """
    assignment: Dict[str, List[TopicPartition]] = {m: [] for m in members}
    if not members or not partitions:
        return assignment
    ordered_members = sorted(members)
    ordered_parts = sorted(partitions)
    n_members = len(ordered_members)
    base, extra = divmod(len(ordered_parts), n_members)
    index = 0
    for rank, member in enumerate(ordered_members):
        count = base + (1 if rank < extra else 0)
        assignment[member] = ordered_parts[index : index + count]
        index += count
    return assignment


def sticky_cooperative_assign(
    members: Sequence[str],
    partitions: Sequence[TopicPartition],
    prior: Mapping[str, Sequence[TopicPartition]],
) -> Dict[str, List[TopicPartition]]:
    """Sticky assignment: keep prior owners, move only the minimal delta.

    Each member's quota is ``floor(P/N)`` or ``ceil(P/N)`` partitions;
    the larger quotas go to the members that already hold the most (ties
    broken by member id), which maximises stickiness.  A member over its
    quota releases only its excess; released and previously-unowned
    partitions fill the members below quota, fewest-loaded first.

    Invariants (property-tested):

    * the union of all assignments is exactly ``partitions``, with no
      partition assigned twice;
    * every member's new assignment intersected with its prior one is a
      subset of that prior assignment, and a member is never revoked
      below its quota — members not over quota keep everything they had;
    * assignment sizes are balanced within one partition.
    """
    if not members:
        return {}
    ordered_members = sorted(members)
    assignment: Dict[str, List[TopicPartition]] = {m: [] for m in ordered_members}
    if not partitions:
        return assignment
    partition_set = set(partitions)
    # Retained: each member keeps the prior partitions that still exist.
    # A partition claimed by two priors (impossible via the coordinator,
    # possible for direct callers) goes to the first member in id order.
    seen: Set[TopicPartition] = set()
    retained: Dict[str, List[TopicPartition]] = {}
    for member in ordered_members:
        keep: List[TopicPartition] = []
        for tp in prior.get(member, ()):
            if tp in partition_set and tp not in seen:
                seen.add(tp)
                keep.append(tp)
        retained[member] = sorted(keep)
    pool: List[TopicPartition] = sorted(partition_set - seen)
    base, extra = divmod(len(partition_set), len(ordered_members))
    by_load = sorted(ordered_members, key=lambda m: (-len(retained[m]), m))
    quota = {
        member: base + 1 if rank < extra else base
        for rank, member in enumerate(by_load)
    }
    # Shed: members over quota release their highest-sorted excess.
    for member in ordered_members:
        kept = retained[member]
        if len(kept) > quota[member]:
            pool.extend(kept[quota[member] :])
            kept = kept[: quota[member]]
        assignment[member] = kept
    pool.sort()
    # Fill: hand each free partition to the least-loaded under-quota member.
    for tp in pool:
        member = min(
            (m for m in ordered_members if len(assignment[m]) < quota[m]),
            key=lambda m: (len(assignment[m]), m),
        )
        assignment[member].append(tp)
    return assignment


class ConsumerGroupCoordinator:
    """Coordinates membership and partition assignment for all groups."""

    def __init__(
        self, *, session_timeout: float = 30.0, clock: Optional[Clock] = None
    ) -> None:
        self._groups: Dict[str, GroupState] = {}  #: guarded_by _lock
        self._lock = create_rlock("ConsumerGroupCoordinator")
        self._member_counter = itertools.count()
        self.session_timeout = session_timeout
        self.clock: Clock = clock or SystemClock()

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def join(
        self,
        group_id: str,
        client_id: str,
        topics: Sequence[str],
        partitions: Sequence[TopicPartition],
        *,
        session_timeout: Optional[float] = None,
    ) -> tuple[str, int, List[TopicPartition]]:
        """Add a member to ``group_id`` and start a cooperative rebalance.

        Returns ``(member_id, generation, assignment)`` for the new member.
        When surviving members must give up partitions, the returned
        assignment covers only partitions that were already free; the rest
        arrive after every member has acknowledged its revocation (see
        :meth:`sync`).  Dead members are swept before the new assignment
        is computed.
        """
        with self._lock:
            now = self.clock.now()
            group = self._groups.setdefault(group_id, GroupState(group_id=group_id))
            group.partitions = list(partitions)
            self._expire_locked(group, now)
            member_id = f"{client_id}-{next(self._member_counter)}"
            group.members[member_id] = GroupMember(
                member_id=member_id,
                client_id=client_id,
                joined_at=now,
                last_heartbeat=now,
                session_timeout=session_timeout,
            )
            for topic in topics:
                if topic not in group.subscribed_topics:
                    group.subscribed_topics.append(topic)
            self._begin_rebalance(group)
            return member_id, group.generation, list(group.members[member_id].assignment)

    def leave(
        self,
        group_id: str,
        member_id: str,
        partitions: Optional[Sequence[TopicPartition]] = None,
    ) -> int:
        """Remove a member and rebalance; returns the new generation.

        A graceful leave only *frees* partitions, so the survivors keep
        everything they had and the rebalance completes in one phase.
        """
        with self._lock:
            group = self._groups.get(group_id)
            if group is None or member_id not in group.members:
                return group.generation if group else 0
            if partitions is not None:
                group.partitions = list(partitions)
            del group.members[member_id]
            group.synced.discard(member_id)
            self._begin_rebalance(group)
            return group.generation

    def heartbeat(self, group_id: str, member_id: str, generation: int) -> None:
        """Record liveness; raises if the member's generation is stale.

        Liveness is recorded *before* the staleness check: a member that
        lags a rebalance is still alive and must not be evicted while it
        catches up.
        """
        with self._lock:
            group = self._groups.get(group_id)
            if group is None or member_id not in group.members:
                raise IllegalGenerationError(f"unknown member {member_id} in {group_id}")
            group.members[member_id].last_heartbeat = self.clock.now()
            if generation != group.generation:
                raise IllegalGenerationError(
                    f"member {member_id} has generation {generation}, "
                    f"group is at {group.generation}"
                )

    def sync(
        self, group_id: str, member_id: str, generation: int
    ) -> tuple[int, List[TopicPartition]]:
        """Acknowledge ``generation``'s (revocation) assignment.

        During the revoke phase the acknowledgement means "I have stopped
        fetching and committed everything I was told to give up".  When
        the last member acknowledges, the coordinator promotes the pending
        target assignment under a fresh generation.  Returns the group's
        current ``(generation, member assignment)`` — callers loop until
        the returned generation matches the one they adopted.

        Raises :class:`IllegalGenerationError` for an unknown (e.g.
        evicted) member, which a live consumer answers by rejoining.  A
        stale ``generation`` is not an error: the caller simply observes
        the newer generation in the return value and adopts it.
        """
        with self._lock:
            group = self._groups.get(group_id)
            if group is None or member_id not in group.members:
                raise IllegalGenerationError(f"unknown member {member_id} in {group_id}")
            member = group.members[member_id]
            if generation == group.generation:
                # The ack confirms the client has released everything
                # outside its current assignment — its partitions outside
                # it become grantable.
                member.owned = list(member.assignment)
                if group.phase == PHASE_REVOKING:
                    group.synced.add(member_id)
                    if set(group.members) <= group.synced:
                        self._complete_rebalance(group)
            return group.generation, list(member.assignment)

    def update_partitions(
        self, group_id: str, partitions: Sequence[TopicPartition]
    ) -> int:
        """Refresh the group's partition set (topic growth); returns the generation.

        Consumers call this when they observe the cluster's metadata epoch
        move: if the partition set actually changed, a cooperative
        rebalance distributes the new (free) partitions — typically in a
        single phase, since nothing is taken from anyone.
        """
        with self._lock:
            group = self._groups.get(group_id)
            if group is None:
                return 0
            if set(partitions) != set(group.partitions):
                group.partitions = list(partitions)
                self._begin_rebalance(group)
            return group.generation

    def expire_members(
        self,
        group_id: str,
        partitions: Optional[Sequence[TopicPartition]] = None,
    ) -> List[str]:
        """Evict members whose heartbeat is older than their session timeout."""
        with self._lock:
            group = self._groups.get(group_id)
            if group is None:
                return []
            if partitions is not None:
                group.partitions = list(partitions)
            return self._expire_locked(group, self.clock.now())

    # ------------------------------------------------------------------ #
    # Assignment queries
    # ------------------------------------------------------------------ #
    def assignment(self, group_id: str, member_id: str) -> List[TopicPartition]:
        with self._lock:
            group = self._groups.get(group_id)
            if group is None or member_id not in group.members:
                return []
            return list(group.members[member_id].assignment)

    def generation(self, group_id: str) -> int:
        """The group's current generation; sweeps expired members first.

        This is the signal consumers poll, so piggy-backing expiry here
        means a group whose live members keep polling evicts dead ones
        without any external driver.
        """
        with self._lock:
            group = self._groups.get(group_id)
            if group is None:
                return 0
            self._expire_locked(group, self.clock.now())
            return group.generation

    def current_assignment(
        self, group_id: str, member_id: str
    ) -> tuple[int, List[TopicPartition]]:
        """Atomic ``(generation, assignment)`` snapshot for one member.

        Consumers adopting a rebalance must read both under one lock
        acquisition: separate ``generation()``/``assignment()`` calls can
        interleave with another member's join, pairing generation G with
        G+1's assignment — the commit-on-revoke for that adoption would
        then be rejected as stale and silently lost.  Sweeps expired
        members, like :meth:`generation`.  An unknown (evicted) member
        reads an empty assignment.
        """
        with self._lock:
            group = self._groups.get(group_id)
            if group is None:
                return 0, []
            self._expire_locked(group, self.clock.now())
            member = group.members.get(member_id)
            return group.generation, list(member.assignment) if member else []

    def rebalance_phase(self, group_id: str) -> str:
        with self._lock:
            group = self._groups.get(group_id)
            return group.phase if group else PHASE_STABLE

    def members(self, group_id: str) -> List[str]:
        with self._lock:
            group = self._groups.get(group_id)
            return sorted(group.members) if group else []

    def group_ids(self) -> List[str]:
        """Every group the coordinator knows (admin introspection)."""
        with self._lock:
            return sorted(self._groups)

    def describe(self, group_id: str) -> dict:
        with self._lock:
            group = self._groups.get(group_id)
            if group is None:
                return {
                    "group_id": group_id,
                    "members": [],
                    "generation": 0,
                    "phase": PHASE_STABLE,
                }
            return {
                "group_id": group_id,
                "generation": group.generation,
                "phase": group.phase,
                "subscribed_topics": list(group.subscribed_topics),
                "members": {
                    mid: list(member.assignment) for mid, member in group.members.items()
                },
            }

    def validate_generation(self, group_id: str, member_id: str, generation: int) -> None:
        """Used by the offset-commit path to reject stale commits."""
        with self._lock:
            group = self._groups.get(group_id)
            if group is None or member_id not in group.members:
                raise IllegalGenerationError(f"unknown member {member_id} in {group_id}")
            if generation != group.generation:
                raise IllegalGenerationError(
                    f"stale generation {generation} (current {group.generation})"
                )

    # ------------------------------------------------------------------ #
    # Internals (call with the lock held)
    # ------------------------------------------------------------------ #
    def _expire_locked(self, group: GroupState, now: float) -> List[str]:
        expired = [
            mid
            for mid, member in group.members.items()
            if now - member.last_heartbeat
            > (member.session_timeout or self.session_timeout)
        ]
        for member_id in expired:
            del group.members[member_id]
            group.synced.discard(member_id)
        if expired:
            self._begin_rebalance(group)
        elif group.phase == PHASE_REVOKING and set(group.members) <= group.synced:
            # Every still-live member has acknowledged (the blocker left or
            # was evicted through another path): finish the rebalance.
            self._complete_rebalance(group)
        return expired

    def _begin_rebalance(self, group: GroupState) -> None:
        """Compute the sticky target and enter the appropriate phase.

        Both stickiness and the revoke decision are computed from each
        member's ``owned`` set — what its client may *actually* still be
        fetching — not from the coordinator-side assignment, which may
        already have shrunk in an earlier, still-unacknowledged revoke
        phase.  A partition someone still owns is never granted elsewhere
        in the same step: if any owned partition must move, enter the
        revoke phase (members shrink to what they retain, the target
        waits in ``pending`` until everyone syncs).  If the change only
        hands out genuinely free partitions, install the target in one
        step.
        """
        group.synced = set()
        if not group.members:
            group.generation += 1
            group.phase = PHASE_STABLE
            group.pending = None
            return
        prior = {mid: list(m.owned) for mid, m in group.members.items()}
        target = sticky_cooperative_assign(
            list(group.members), group.partitions, prior
        )
        needs_revoke = False
        for mid, member in group.members.items():
            keep = set(target.get(mid, ()))
            if any(tp not in keep for tp in member.owned):
                needs_revoke = True
                break
        group.generation += 1
        if needs_revoke:
            group.phase = PHASE_REVOKING
            group.pending = target
            for mid, member in group.members.items():
                keep = set(target.get(mid, ()))
                member.assignment = [tp for tp in member.owned if tp in keep]
        else:
            group.phase = PHASE_STABLE
            group.pending = None
            for mid, member in group.members.items():
                member.assignment = list(target.get(mid, ()))
                member.owned = list(member.assignment)

    def _complete_rebalance(self, group: GroupState) -> None:
        """Promote the pending target: the assign phase of the rebalance.

        Only reached once every member has acknowledged its revocation,
        so each member's ``owned`` set equals its retained assignment and
        the granted partitions are genuinely free.
        """
        if group.pending is None:
            group.phase = PHASE_STABLE
            group.synced = set()
            return
        group.generation += 1
        for mid, member in group.members.items():
            member.assignment = list(group.pending.get(mid, ()))
            member.owned = list(member.assignment)
        group.phase = PHASE_STABLE
        group.pending = None
        group.synced = set()
