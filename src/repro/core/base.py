"""The shared DAG-consensus engine.

Every protocol in this repository — LightDAG1, LightDAG2, DAG-Rider, Tusk,
Bullshark — is an instance of the same skeleton (§II-B):

1. advance through rounds, proposing one block per round once ``n - f``
   distinct slots of the previous round have been delivered;
2. broadcast each block with some broadcast primitive (the paper's whole
   point is *which* primitive);
3. carry Global-Perfect-Coin shares in each wave's last round; the coin
   names a leader slot in the wave's first round;
4. directly commit a leader once enough later-round blocks reference it,
   then run Algorithm 1's cascade: commit skipped-but-referenced earlier
   leaders, then each leader's uncommitted ancestors in (round, author)
   order.

:class:`BaseDagNode` implements all of that plus the §IV-A retrieval
integration, leaving protocol-specific policy to a small set of hooks
(class attributes for wave shape and commit thresholds; methods for vote
policy, parent filtering, and extra proposal conditions).

Correctness note on cascade determinism: replicas may *directly* commit
different subsets of leaders (support observation is local), but Lemma 1
guarantees directly-committable leaders are totally ordered by ancestry,
so the "walk back to the last committed leader, commit every delivered
leader that is an ancestor" cascade yields the same leader sequence — and
hence the same ledger — everywhere.  After committing wave ``v`` the engine
marks waves ``≤ v`` *settled* and never direct-commits them later (their
leaders were either cascaded in or provably non-committable).
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Callable, Dict, List, Optional, Set

from ..broadcast.messages import (
    BlockEcho,
    BlockReady,
    BlockVal,
    CoinShareMsg,
    CoinShareRequest,
    RetrievalRequest,
    RetrievalResponse,
)
from ..config import ProtocolConfig, SystemConfig
from ..crypto.backend import CryptoBackend, make_backend
from ..crypto.coin import GlobalPerfectCoin, make_coin
from ..crypto.hashing import Digest, short_hex
from ..crypto.keys import KeyChain
from ..dag.block import Block, EMPTY_BATCH, TxBatch, make_block
from ..dag.ledger import CommitRecord, Ledger
from ..dag.rounds import WaveStructure
from ..dag.store import DagStore
from ..dag.traversal import is_ancestor, uncommitted_ancestors
from ..dag.validation import validate_block_structure
from ..errors import InvalidBlockError, UnknownBlockError
from ..net.interfaces import Message, NetworkAPI, Node
from ..obs import NULL_OBS, Observability
from .retrieval import RETRY_TAG, RetrievalManager

#: Signature of the payload hook: ``payload_source(now) -> TxBatch``.
PayloadSource = Callable[[float], TxBatch]
#: Signature of the commit hook: ``on_commit(record) -> None``.
CommitCallback = Callable[[CommitRecord], None]

#: Timer tag for the deferred-proposal tick (see ``_schedule_advance``).
ADVANCE_TAG = "__advance__"

#: Timer tag for the periodic coin-share recovery check.
COIN_SYNC_TAG = "__coin_sync__"

#: Period of the coin-share recovery check (seconds).
COIN_SYNC_PERIOD = 0.5

#: Silence (no delivery/proposal progress) before a stall re-broadcast,
#: once at least one block has ever been delivered.
STALL_AFTER = 2 * COIN_SYNC_PERIOD

#: More patient threshold before the *first* delivery: a slow first wave
#: (high-latency models, large-n CPU queues) is startup, not a stall, and
#: must not trigger re-broadcast storms at every sync tick.
STALL_STARTUP_GRACE = 8 * COIN_SYNC_PERIOD


class BaseDagNode(Node):
    """Common engine; subclasses define the wave shape and broadcast kind.

    Subclass contract (class attributes)
    ------------------------------------
    WAVE_LENGTH / WAVE_OVERLAP:
        The :class:`~repro.dag.rounds.WaveStructure` parameters.
    SUPPORT_DEPTH:
        Rounds between a wave's first round (the leader round) and the
        round whose references directly commit the leader (1 for
        LightDAG1/Tusk, 3 for DAG-Rider).
    STRICT_STORE:
        Whether a second block in a slot is a fatal violation (True for
        every CBC/RBC protocol; LightDAG2 sets False).

    Subclass contract (methods)
    ---------------------------
    ``_make_managers`` (required), ``_participate`` (required),
    ``_commit_threshold_value``, ``_parent_allowed``,
    ``_can_propose_extra``, ``_after_deliver``, ``_on_other_message``.
    """

    WAVE_LENGTH = 3
    WAVE_OVERLAP = False
    SUPPORT_DEPTH = 1
    STRICT_STORE = True

    #: Attributes the model-checking explorer (:mod:`repro.check.explorer`)
    #: excludes when fingerprinting a replica's state: the immutable
    #: environment (configs, wave geometry, crypto backend, network facade)
    #: and the harness callbacks.  Everything else on the instance is
    #: protocol state and *must* participate in the canonical state hash —
    #: adding an attribute here hides it from revisit pruning, so only list
    #: things that provably cannot influence future behaviour.
    FINGERPRINT_SKIP = frozenset({
        "net", "obs", "system", "protocol", "wave", "backend",
        "payload_source", "on_commit", "on_deliver_hook", "_obs_emit",
    })

    def __init__(
        self,
        net: NetworkAPI,
        system: SystemConfig,
        protocol: ProtocolConfig,
        keychain: KeyChain,
        payload_source: Optional[PayloadSource] = None,
        on_commit: Optional[CommitCallback] = None,
        on_deliver: Optional[Callable[[Block, float], None]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(net)
        #: optional observation hook fired on every delivery (tracing)
        self.on_deliver_hook = on_deliver
        self.system = system
        self.protocol = protocol
        self.obs = obs if obs is not None else NULL_OBS
        #: pre-bound journal emit for hot paths (None when disabled), so
        #: per-delivery sites pay one attribute read + branch, not three.
        self._obs_emit = self.obs.journal.emit if self.obs.enabled else None
        #: causal tracer (None unless tracing was requested) — same idiom:
        #: span sites pay one attribute read + branch when tracing is off.
        self._trace = self.obs.trace if self.obs.trace.enabled else None
        metrics = self.obs.metrics
        self._ctr_rounds = metrics.counter("core.rounds_advanced")
        self._ctr_delivered = metrics.counter("core.blocks_delivered")
        self._ctr_committed = metrics.counter("core.blocks_committed")
        self._ctr_coin_reveals = metrics.counter("core.coin_reveals")
        self._ctr_coin_requests = metrics.counter("core.coin_share_requests")
        self._ctr_stall_rebroadcasts = metrics.counter("core.stall_rebroadcasts")
        self._ctr_commit_kind = {
            "direct": metrics.counter("core.wave_commits", kind="direct"),
            "cascade": metrics.counter("core.wave_commits", kind="cascade"),
        }
        self.wave = WaveStructure(self.WAVE_LENGTH, overlap=self.WAVE_OVERLAP)
        self.backend: CryptoBackend = make_backend(
            system.crypto, net.node_id, system, keychain
        )
        self.coin: GlobalPerfectCoin = make_coin(system.crypto, keychain, system.seed)
        self.store = DagStore(system.n, strict=self.STRICT_STORE)
        self.ledger = Ledger()
        if self._trace is not None:
            self.ledger.bind_trace(self._trace, net.node_id)
        self.retrieval = RetrievalManager(
            net,
            self.store,
            seed=system.seed,
            enabled=protocol.retrieval_enabled,
            obs=self.obs,
            retry_base=system.retry_base,
            retry_cap=system.retry_cap,
            fanout_after=system.fanout_after,
            fanout_width=system.validity_quorum,
            max_response_blocks=system.max_response_blocks,
        )
        self.payload_source = payload_source or (lambda now: EMPTY_BATCH)
        self.on_commit = on_commit

        self.next_round = 1
        #: Stall-detection clock: time of the last forward progress
        #: (delivery, own proposal, or stall re-broadcast).  ``None`` until
        #: armed — sim start is not a delivery, so the clock only starts
        #: once we have something of our own worth re-broadcasting.
        self._stall_clock: Optional[float] = None
        self._delivered_any = False
        self._my_latest_block: Optional[Block] = None
        self.revealed_leaders: Dict[int, int] = {}
        self.committed_leader_waves: Set[int] = set()
        self.last_settled_wave = 0
        self._deferred_cascades: Set[int] = set()
        #: digest -> round for every authenticated body seen (dedup gate)
        #: and every rejected digest.  Round-stamped so :meth:`_gc_state`
        #: can drop entries below the commit horizon — as plain sets these
        #: grow with total blocks ever seen, which unbounds long runs.
        self._known: Dict[Digest, int] = {}
        self._invalid: Dict[Digest, int] = {}
        self._advance_scheduled = False
        self._sent_share_waves: Set[int] = set()
        #: Highest wave whose coin share we legitimately broadcast; rounds
        #: never skip, so every wave up to here has been sent.  Lets the
        #: share-request responder keep answering for waves whose
        #: ``_sent_share_waves`` entry was garbage-collected.
        self._max_share_wave = 0
        self._quorum = system.quorum
        self._commit_support = self._commit_threshold_value()
        #: per-wave timestamp of the last coin-share recovery request
        self._coin_requested: Dict[int, float] = {}

        # Weak-link bookkeeping (ProtocolConfig.weak_links): blocks already
        # inside our own proposals' ancestry ("covered") vs delivered blocks
        # our chain has never referenced — the weak-reference candidates.
        # Both sets update incrementally: each block enters `_covered` once.
        self._covered: Set[Digest] = {
            self.store.block_in_slot(0, a).digest for a in range(system.n)
        }
        self._uncovered: Dict[Digest, Block] = {}
        if protocol.weak_links and not self.STRICT_STORE:
            from ..errors import ConfigError

            raise ConfigError(
                "weak links require a strict-store protocol (LightDAG2's "
                "Rule 2 assumes previous-round parents)"
            )

        self._make_managers()

    # ------------------------------------------------------------------ hooks

    def _make_managers(self) -> None:
        """Create broadcast manager(s); subclasses must set them up and make
        :meth:`_manager_for_round` resolve correctly."""
        raise NotImplementedError

    def _manager_for_round(self, round_: int):
        """The broadcast manager handling blocks of ``round_``."""
        raise NotImplementedError

    def _broadcast_managers(self) -> tuple:
        """Every broadcast manager this node owns (for GC sweeps).

        Subclasses must return all managers `_manager_for_round` can
        resolve to; the default keeps manager state forever.
        """
        return ()

    def _broadcast_block(self, block: Block) -> None:
        self._manager_for_round(block.round).broadcast(block)

    def _participate(self, block: Block, src: int) -> None:
        """Vote/echo policy, called once a block is structurally valid and
        all its ancestors are delivered (§IV-A gate already passed)."""
        raise NotImplementedError

    def _commit_threshold_value(self) -> int:
        """Support needed in the support round for a direct commit."""
        return self.protocol.resolve_commit_threshold(self.system)

    def _parent_allowed(self, block: Block) -> bool:
        """May ``block`` be chosen as a parent of our next proposal?"""
        return True

    def _can_propose_extra(self, round_: int) -> bool:
        """Additional proposal preconditions (Bullshark's leader wait,
        LightDAG2's coin-reveal wait at wave boundaries)."""
        return True

    def _min_parents(self, block: Block) -> int:
        return self._quorum

    def _after_deliver(self, block: Block) -> None:
        """Protocol-specific reaction to a delivery (before commit checks)."""

    def _on_other_message(self, src: int, msg: Message) -> None:
        """Protocol-specific messages (LightDAG2 notices)."""

    def _build_block(self, round_: int, parents: List[Digest], payload: TxBatch) -> Block:
        """Assemble the outgoing block (LightDAG2 adds proofs/determinations)."""
        return make_block(round_, self.node_id, parents, payload, signer=self.backend)

    # -------------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        self._coin_requested.clear()
        self._stall_clock = None  # disarmed until our first own proposal
        self.net.set_timer(COIN_SYNC_PERIOD, COIN_SYNC_TAG)
        self._try_advance()

    def on_message(self, src: int, msg: Message) -> None:
        if isinstance(msg, BlockVal):
            self._on_block_body(src, msg.block)
        elif isinstance(msg, BlockEcho):
            self._manager_for_round(msg.round).on_echo(src, msg)
        elif isinstance(msg, BlockReady):
            manager = self._manager_for_round(msg.round)
            if hasattr(manager, "on_ready"):  # CBC/PBC protocols ignore READYs
                manager.on_ready(src, msg)
        elif isinstance(msg, CoinShareMsg):
            self._on_coin_share(src, msg)
        elif isinstance(msg, CoinShareRequest):
            # Shares are deterministic per (replica, wave): recompute and
            # answer.  Only waves we have legitimately reached are served —
            # revealing a future wave's share early would hand the
            # adversary coin foreknowledge.  (Past waves stay servable even
            # after their _sent_share_waves entry is pruned — a straggler
            # may still need them.)
            if msg.wave <= self._max_share_wave:
                self.net.send(src, CoinShareMsg(self.coin.make_share(msg.wave)))
        elif isinstance(msg, RetrievalRequest):
            self.retrieval.on_request(src, msg)
        elif isinstance(msg, RetrievalResponse):
            deliveries = list(self.retrieval.on_response(src, msg))
            if len(deliveries) > 1:
                # A chunked response carries many author signatures at
                # once: one randomized batch verification seeds the
                # backend's verify-once memo, so the per-block check in
                # _on_block_body is a set lookup.  A failed batch is
                # simply not cached — the per-block path then localizes
                # and attributes the forgery exactly as without batching.
                self.backend.verify_batch(
                    [
                        (block.author, block.digest, block.signature)
                        for block, _origin in deliveries
                        if block.digest not in self._known
                        and block.digest not in self._invalid
                    ]
                )
            for block, origin in deliveries:
                self._on_block_body(origin, block, retrieved=True)
        else:
            self._on_other_message(src, msg)

    def on_timer(self, tag: str, data=None) -> None:
        if tag == RETRY_TAG:
            self.retrieval.on_retry_timer(data, self._holders_of(data))
        elif tag == ADVANCE_TAG:
            self._advance_scheduled = False
            self._try_advance()
        elif tag == COIN_SYNC_TAG:
            self._coin_sync_check()
            self.net.set_timer(COIN_SYNC_PERIOD, COIN_SYNC_TAG)

    def _schedule_advance(self) -> None:
        """Defer proposing to a zero-delay timer so every delivery arriving
        at the *same simulated instant* is incorporated as a parent before
        the proposal goes out (otherwise the quorum-completing delivery
        systematically orphans its same-timestamp siblings)."""
        if not self._advance_scheduled:
            self._advance_scheduled = True
            self.net.set_timer(0.0, ADVANCE_TAG)

    def _holders_of(self, digest: Digest) -> AbstractSet:
        """Replicas believed to hold a block body (echoers of its digest).

        Implementations return an immutable snapshot (see
        ``InstanceTracker.echoers_of``)."""
        return frozenset()

    # -------------------------------------------------------------- accepting

    def _on_block_body(self, src: int, block: Block, retrieved: bool = False) -> None:
        """Entry point for every block body (VAL or digest-pinned retrieval)."""
        if block.digest in self._invalid:
            return
        if block.digest in self._known:
            manager = self._manager_for_round(block.round)
            if not manager.is_delivered(block.digest):
                if retrieved:
                    # A body we saw as a VAL but could not deliver (echo
                    # quorum missing at us) arriving again as a retrieval
                    # response is digest-pinned: deliverable directly (§IV-A).
                    self._try_accept(block, src, retrieved=True)
                else:
                    # Duplicate VAL = a peer's stall-recovery re-broadcast;
                    # refresh our endorsement so lost echoes are replaced,
                    # and treat it as fresh evidence for any abandoned
                    # parent retrievals of this still-parked block.
                    manager.refresh_vote(block)
                    if self.retrieval.is_pending(block.digest):
                        self.retrieval.revive(block.digest)
            return
        if not 0 <= block.author < self.system.n or block.round < 1:
            self._invalid[block.digest] = block.round
            return
        if not self.backend.verify(block.author, block.digest, block.signature):
            self._invalid[block.digest] = block.round
            return
        self._known[block.digest] = block.round
        if self._trace is not None:
            # Carry the parent digests so the analysis layer can walk a
            # committed block's causal ancestry from the journal alone.
            self._trace.emit(
                self.net.now(), "trace.body", self.node_id,
                round=block.round, author=block.author,
                digest=short_hex(block.digest), src=src,
                retrieved=retrieved,
                parents=[short_hex(p) for p in block.parents],
            )
        self._inspect_body(block)
        self._manager_for_round(block.round).on_val(src, block)
        self._try_accept(block, src, retrieved=retrieved)

    def _inspect_body(self, block: Block) -> None:
        """Hook run on every authenticated body before acceptance —
        LightDAG2 harvests embedded Byzantine proofs here."""

    def _try_accept(self, block: Block, src: int, retrieved: bool = False) -> None:
        missing = self.store.missing(block.parents)
        # note_pending returns False when nothing is actually missing (the
        # manager re-filters against the store): fall through and accept —
        # an empty registration could never become ready.
        if missing and self.retrieval.note_pending(
            block, src, missing, retrieved=retrieved
        ):
            return
        self._finish_accept(block, src, retrieved=retrieved)

    def _finish_accept(self, block: Block, src: int, retrieved: bool = False) -> None:
        """All parents delivered: validate structure, then participate."""
        try:
            validate_block_structure(
                block,
                self.store,
                self.system,
                min_parents=self._min_parents(block),
                allow_weak=self.protocol.weak_links,
                max_weak=self.protocol.max_weak_refs,
            )
        except UnknownBlockError:
            # Race: a parent disappeared between checks — re-queue.
            self._try_accept(block, src, retrieved=retrieved)
            return
        except InvalidBlockError:
            self._invalid[block.digest] = block.round
            self.retrieval.drop_pending(block.digest)
            return
        self._participate(block, src)
        manager = self._manager_for_round(block.round)
        if retrieved:
            # Digest-pinned retrieval response: deliver directly, without
            # waiting for an echo/ready quorum we may have missed entirely
            # (the §IV-A catch-up path; see CbcManager.deliver_retrieved).
            manager.deliver_retrieved(block.digest)
        else:
            manager.mark_ready(block.digest)

    # -------------------------------------------------------------- delivery

    def _on_deliver(self, block: Block) -> None:
        """Broadcast-manager callback: the block is delivered (§II-B sense)."""
        if not self.store.add(block):
            return
        now = self.net.now()
        self._stall_clock = now
        self._delivered_any = True
        self._ctr_delivered.inc()
        if self._obs_emit is not None:
            self._obs_emit(
                now, "block.deliver", self.node_id,
                round=block.round, author=block.author,
                digest=short_hex(block.digest),
            )
        if self.on_deliver_hook is not None:
            self.on_deliver_hook(block, now)
        if self.protocol.weak_links and block.digest not in self._covered:
            self._uncovered[block.digest] = block
        self.retrieval.drop_pending(block.digest)
        for dep, src, was_retrieved in self.retrieval.satisfied_by(block.digest):
            if self._trace is not None:
                self._trace.emit(
                    now, "trace.unblocked", self.node_id,
                    digest=short_hex(dep.digest), round=dep.round,
                    author=dep.author, by=short_hex(block.digest),
                )
            self._finish_accept(dep, src, retrieved=was_retrieved)
        self._after_deliver(block)
        self._recheck_commits_for(block)
        self._schedule_advance()

    # -------------------------------------------------------------- proposing

    def _try_advance(self) -> None:
        while self._can_propose(self.next_round):
            self._propose(self.next_round)
            self.next_round += 1

    def _can_propose(self, round_: int) -> bool:
        ready = 0
        for author in self.store.authors_in_round(round_ - 1):
            candidate = self.store.block_in_slot(round_ - 1, author)
            if candidate is not None and self._parent_allowed(candidate):
                ready += 1
        if ready < self._quorum:
            return False
        return self._can_propose_extra(round_)

    def _choose_parents(self, round_: int) -> List[Digest]:
        parents = []
        for author in sorted(self.store.authors_in_round(round_ - 1)):
            candidate = self._parent_in_slot(round_ - 1, author)
            if candidate is not None and self._parent_allowed(candidate):
                parents.append(candidate.digest)
        return parents

    def _parent_in_slot(self, round_: int, author: int) -> Optional[Block]:
        """Which block of a slot to reference (LightDAG2 overrides for its
        Rule-4 determinations)."""
        return self.store.block_in_slot(round_, author)

    def _propose(self, round_: int) -> None:
        parents = self._choose_parents(round_)
        if self.protocol.weak_links:
            parents.extend(self._pick_weak_refs(round_, parents))
            self._mark_covered(parents)
        payload = self.payload_source(self.net.now())
        block = self._build_block(round_, parents, payload)
        self._my_latest_block = block
        # Proposing is forward progress too: (re-)arm the stall clock so
        # detection counts from our first own proposal, never from t=0.
        self._stall_clock = self.net.now()
        self._ctr_rounds.inc()
        if self._obs_emit is not None:
            self._obs_emit(
                self.net.now(), "block.propose", self.node_id,
                round=round_, author=self.node_id,
                digest=short_hex(block.digest), txs=payload.count,
            )
        self._broadcast_block(block)
        self._broadcast_coin_shares(round_)

    def _pick_weak_refs(self, round_: int, strong_parents: List[Digest]) -> List[Digest]:
        """Orphan pickup: reference delivered blocks our chain has never
        covered, oldest first (DAG-Rider weak links)."""
        strong_slots = set()
        for digest in strong_parents:
            parent = self.store.get_optional(digest)
            if parent is not None:
                strong_slots.add(parent.slot)
        candidates = [
            block
            for block in self._uncovered.values()
            if block.round < round_ - 1 and block.slot not in strong_slots
        ]
        candidates.sort(key=lambda b: (b.round, b.author))
        return [b.digest for b in candidates[: self.protocol.max_weak_refs]]

    def _mark_covered(self, parents: List[Digest]) -> None:
        """Fold the new parents' ancestry into the covered set (each block
        is walked exactly once across the node's lifetime)."""
        stack = [d for d in parents if d not in self._covered]
        while stack:
            digest = stack.pop()
            if digest in self._covered:
                continue
            self._covered.add(digest)
            self._uncovered.pop(digest, None)
            block = self.store.get_optional(digest)
            if block is not None:
                stack.extend(
                    p for p in block.parents if p not in self._covered
                )

    def _broadcast_coin_shares(self, round_: int) -> None:
        """Ship the GPC share for every wave whose *last* round this is."""
        for wave_num, e in self.wave.waves_containing(round_):
            if e == self.WAVE_LENGTH and wave_num not in self._sent_share_waves:
                self._sent_share_waves.add(wave_num)
                self._max_share_wave = max(self._max_share_wave, wave_num)
                self.net.broadcast(CoinShareMsg(self.coin.make_share(wave_num)))

    # -------------------------------------------------------------- the coin

    def _on_coin_share(self, src: int, msg: CoinShareMsg) -> None:
        if msg.wave in self.revealed_leaders:
            return
        leader = self.coin.add_share(msg.share)
        if leader is not None:
            self.revealed_leaders[msg.wave] = leader
            self._ctr_coin_reveals.inc()
            if self._obs_emit is not None:
                self._obs_emit(
                    self.net.now(), "coin.reveal", self.node_id,
                    wave=msg.wave, leader=leader,
                )
            self._on_leader_revealed(msg.wave, leader)

    def _coin_sync_check(self) -> None:
        """Coin-share recovery: if blocks prove a wave completed at other
        replicas but we never revealed its coin (missed shares — partition,
        crash window, dropped messages), ask peers to resend theirs.

        Without this, a straggler's commit cascade defers forever on the
        missing reveal (the paper avoids the problem by embedding shares in
        blocks, which retrieval then recovers — see DESIGN.md §3)."""
        horizon = self.store.highest_round()
        now = self.net.now()
        wave_num = self.last_settled_wave + 1
        requested = 0
        while self.wave.last_round(wave_num) <= horizon and requested < 8:
            if wave_num not in self.revealed_leaders:
                last = self._coin_requested.get(wave_num, -1e9)
                if now - last >= 2 * COIN_SYNC_PERIOD:
                    self._coin_requested[wave_num] = now
                    self._ctr_coin_requests.inc()
                    if self._obs_emit is not None:
                        self._obs_emit(
                            now, "coin.recover_request", self.node_id, wave=wave_num
                        )
                    self.net.broadcast(
                        CoinShareRequest(wave_num), include_self=False
                    )
                    requested += 1
            wave_num += 1

        # Stall recovery: if nothing has progressed for a while, some of
        # our outbound traffic may have been lost (partition, drops) —
        # re-broadcast the latest proposal.  Receivers that have it refresh
        # their echoes; receivers that missed it join its broadcast now.
        # The clock arms at our first own proposal (never at sim start),
        # uses a generous grace period until the first-ever delivery, and
        # resets on each re-broadcast so a genuine stall costs one
        # re-broadcast per window, not one per sync tick.
        if self._my_latest_block is not None and self._stall_clock is not None:
            threshold = STALL_AFTER if self._delivered_any else STALL_STARTUP_GRACE
            if now - self._stall_clock > threshold:
                self._stall_clock = now
                self._ctr_stall_rebroadcasts.inc()
                if self._obs_emit is not None:
                    self._obs_emit(
                        now, "stall.rebroadcast", self.node_id,
                        round=self._my_latest_block.round,
                    )
                self._broadcast_block(self._my_latest_block)

    def _on_leader_revealed(self, wave_num: int, leader: int) -> None:
        self._try_direct_commit(wave_num)
        for deferred in sorted(self._deferred_cascades):
            self._try_direct_commit(deferred)
        self._schedule_advance()

    # -------------------------------------------------------------- committing

    def leader_block_of(self, wave_num: int) -> Optional[Block]:
        """The (unique, in strict mode) delivered block in a wave's leader
        slot, or None."""
        leader = self.revealed_leaders.get(wave_num)
        if leader is None:
            return None
        return self.store.block_in_slot(self.wave.first_round(wave_num), leader)

    def _support_round(self, wave_num: int) -> int:
        return self.wave.first_round(wave_num) + self.SUPPORT_DEPTH

    def _recheck_commits_for(self, block: Block) -> None:
        for wave_num, e in self.wave.waves_containing(block.round):
            if e == 1 or e == 1 + self.SUPPORT_DEPTH:
                if wave_num in self.revealed_leaders:
                    self._try_direct_commit(wave_num)

    def _support_count(self, wave_num: int, leader_block: Block) -> int:
        """Distinct-slot blocks in the support round referencing the leader
        within SUPPORT_DEPTH parent hops."""
        count = 0
        for author in self.store.authors_in_round(self._support_round(wave_num)):
            supporter = self.store.block_in_slot(self._support_round(wave_num), author)
            if supporter is not None and self._references_within(
                supporter, leader_block.digest, self.SUPPORT_DEPTH
            ):
                count += 1
        return count

    def _references_within(self, block: Block, target: Digest, depth: int) -> bool:
        """Does ``block`` reach ``target`` in at most ``depth`` parent hops?"""
        frontier = {block.digest}
        for _ in range(depth):
            next_frontier: Set[Digest] = set()
            for digest in frontier:
                holder = self.store.get_optional(digest)
                if holder is None:
                    continue
                for parent in holder.parents:
                    if parent == target:
                        return True
                    next_frontier.add(parent)
            frontier = next_frontier
        return False

    def _try_direct_commit(self, wave_num: int) -> None:
        if (
            wave_num <= self.last_settled_wave
            or wave_num in self.committed_leader_waves
        ):
            self._deferred_cascades.discard(wave_num)
            return
        leader_block = self.leader_block_of(wave_num)
        if leader_block is None:
            return
        if self._support_count(wave_num, leader_block) < self._commit_support:
            return
        self._commit_cascade(wave_num, leader_block)

    def _commit_cascade(self, v: int, leader_v: Block) -> None:
        """Algorithm 1: walk back to the last committed leader, then commit
        every delivered, referenced leader in wave order, then wave ``v``."""
        u = max((w for w in self.committed_leader_waves if w < v), default=0)
        for w in range(u + 1, v):
            if w not in self.revealed_leaders:
                # Cannot yet decide whether wave w's leader must be cascaded
                # in; defer the whole cascade until its coin reveals.
                self._deferred_cascades.add(v)
                return
        self._deferred_cascades.discard(v)
        for w in range(u + 1, v):
            candidate = self._cascade_candidate(w, leader_v)
            if candidate is not None:
                self._commit_leader(candidate, w, kind="cascade")
        self._commit_leader(leader_v, v, kind="direct")
        self.last_settled_wave = max(self.last_settled_wave, v)
        self._maybe_prune()

    def _cascade_candidate(self, w: int, leader_v: Block) -> Optional[Block]:
        """The wave-``w`` leader block to commit indirectly through
        ``leader_v``, or None if the wave must stay skipped (Fig. 5/6)."""
        candidate = self.leader_block_of(w)
        if candidate is not None and is_ancestor(candidate.digest, leader_v, self.store):
            return candidate
        return None

    def _commit_leader(self, leader: Block, wave_num: int, kind: str = "direct") -> None:
        if wave_num in self.committed_leader_waves:
            return
        self.committed_leader_waves.add(wave_num)
        k = self.ledger.begin_leader()
        now = self.net.now()
        journal = self.obs.journal if self.obs.enabled else None
        committed = 0
        for block in self._commit_scope(leader):
            record = self.ledger.append(block, now, leader.digest, k)
            committed += 1
            if journal is not None:
                journal.emit(
                    now, "block.commit", self.node_id,
                    round=block.round, author=block.author,
                    digest=short_hex(block.digest), wave=wave_num,
                )
            if self.on_commit is not None:
                self.on_commit(record)
        self._ctr_commit_kind[kind].inc()
        self._ctr_committed.inc(committed)
        if journal is not None:
            journal.emit(
                now, "wave.commit", self.node_id,
                wave=wave_num, kind=kind, leader=leader.author, blocks=committed,
            )

    def _commit_scope(self, leader: Block) -> List[Block]:
        """The blocks this leader commits: uncommitted ancestors, bounded
        below by the deterministic GC horizon when one is configured.

        The horizon depends only on the leader's round, so every replica
        commits the identical set regardless of local pruning state."""
        gc_depth = self.protocol.gc_depth
        committed = self.ledger.committed_digests
        if gc_depth is None:
            return uncommitted_ancestors(leader, self.store, committed)
        floor = leader.round - gc_depth
        from ..dag.traversal import ancestors_of

        scope = [
            block
            for block in ancestors_of(
                leader,
                self.store,
                stop=lambda b: b.digest in committed or b.round < floor,
            )
            if not block.is_genesis
        ]
        scope.sort(key=lambda b: (b.round, b.author, b.repropose_index))
        return scope

    def _maybe_prune(self) -> None:
        """Physically drop history far below the settled frontier."""
        gc_depth = self.protocol.gc_depth
        if gc_depth is None or self.last_settled_wave < 1:
            return
        horizon = (
            self.wave.first_round(self.last_settled_wave)
            - gc_depth
            - self.WAVE_LENGTH
        )
        if horizon > 1:
            self.store.prune_below(horizon)
            # Retrieval state below the horizon is equally dead: a pending
            # block whose round is being pruned can never be accepted.
            self.retrieval.gc_below(horizon)
            self._gc_state(horizon)

    def _gc_state(self, horizon: int) -> None:
        """Prune per-node bookkeeping below the GC horizon.

        Subclass hook (extensions must call ``super()``): runs right after
        the store/retrieval prune, so anything keyed by a round below
        ``horizon`` — or by a digest no longer in the store — refers to
        history that can never be validated, voted on, or committed again.
        Without this, round-/digest-keyed maps grow without bound on long
        runs even with ``gc_depth`` set.
        """
        # Broadcast-layer state (instance trackers, vote bookkeeping) and
        # the body dedup/reject maps: everything below the horizon belongs
        # to settled waves and can never deliver or vote again.  A
        # straggler message for a pruned digest re-enters through the
        # normal paths (re-verify, empty instance stub) and is re-pruned
        # on the next sweep.
        for manager in self._broadcast_managers():
            manager.gc_below(horizon)
        for mapping in (self._known, self._invalid):
            for digest in [d for d, r in mapping.items() if r < horizon]:
                del mapping[digest]
        if self.protocol.weak_links:
            if self._uncovered:
                stale = [
                    d for d, b in self._uncovered.items() if b.round < horizon
                ]
                for digest in stale:
                    del self._uncovered[digest]
            # _covered holds bare digests (rounds unknown): intersect with
            # the freshly pruned store.  Genesis stays (round 0 is kept).
            self._covered = {d for d in self._covered if d in self.store}
        # Wave-keyed coin/commit bookkeeping: waves strictly below the
        # settled frontier are decided forever.  The frontier wave itself
        # must survive — the cascade anchors on max(committed < v) and the
        # sync check starts at last_settled_wave + 1.
        floor_wave = self.last_settled_wave
        for mapping in (self.revealed_leaders, self._coin_requested):
            for wave_num in [w for w in mapping if w < floor_wave]:
                del mapping[wave_num]
        for wave_set in (self.committed_leader_waves, self._sent_share_waves):
            for wave_num in [w for w in wave_set if w < floor_wave]:
                wave_set.discard(wave_num)
        self._deferred_cascades = {
            w for w in self._deferred_cascades if w >= floor_wave
        }

    # -------------------------------------------------------------- metrics

    @property
    def committed_blocks(self) -> int:
        return len(self.ledger)

    @property
    def current_round(self) -> int:
        return self.next_round - 1
