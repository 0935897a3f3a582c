//! The replicated-log state machine: multipaxos with GMP as the
//! reconfiguration and leader-election oracle.
//!
//! # How the membership layer is used
//!
//! | multipaxos concept | provided by GMP |
//! |---|---|
//! | configuration / epoch | the installed view |
//! | ballot number | the view version `ver` (monotone, agreed) |
//! | leader | the view's coordinator `Mgr` |
//! | quorum | the view majority (`⌊n/2⌋ + 1`) |
//! | leader election / phase 1 trigger | [`MemberEvent::ViewInstalled`] |
//! | failure notice | [`MemberEvent::PeerSuspected`] |
//!
//! The steady state is phase-2-only: the leader assigns slots in order and
//! broadcasts accepts; a view-majority of acks (the leader counts itself)
//! decides, the leader answers the client and broadcasts the decision.
//! Because proposals go out in ascending slot order over FIFO links,
//! decisions also arrive in order and the applied prefix never holds holes
//! for long.
//!
//! # Batching and pipelining
//!
//! Phase 2 runs over contiguous slot ranges: the leader proposes up to
//! `batch_max` commands in one `AcceptBatch`, acceptors ack the whole range
//! in one `AcceptOkRange`, and decisions ship as `DecideBatch` runs. An
//! unbatched log (`batch_max == 1`) speaks the same messages with
//! one-command batches. With `batch_max > 1` the leader coalesces every
//! command that arrives within a tick (the hosting node arms a 1-tick
//! [`LOG_FLUSH`] timer on the first admission); with `batch_max == 1` it
//! proposes each command as it arrives. Message cost per command is
//! `3(n-1)/B + 2` for batch size `B`. Decide-path refills re-propose
//! straight from the queue (no extra flush tick), so a saturated pipeline
//! stays saturated.
//!
//! # Compaction
//!
//! Replicas maintain a **compaction floor**: every slot below it is
//! committed and summarized by a [`Snapshot`] — the floor itself plus one
//! [`ClientMark`] per client: its contiguous committed prefix of sequence
//! numbers plus the seqs committed above that prefix. Links are FIFO and
//! the leader proposes in admission order, so a client's seqs normally
//! commit in order and the set above the prefix is empty; across a leader
//! failover a later seq can commit before earlier ones are re-proposed,
//! and the mark stays exact through that too. Once `logical_len - floor >
//! 2·compact_keep`, the floor advances to `logical_len - compact_keep`
//! and `accepted`/`parked`/`by_cmd` are pruned below it — replica hot
//! state is bounded by the window, not the run length. Joiner `Sync`
//! below the floor answers with snapshot + tail (O(tail), not O(log));
//! a snapshot-booted replica starts its applied vectors at `base =
//! snapshot.floor` instead of 0.
//!
//! On every view install where this process is `Mgr` it (re)runs the
//! **recovery round** — multipaxos phase 1 at ballot = the new `ver`: ask
//! every view member for accepted entries above the committed prefix,
//! adopt the highest-ballot value per slot, fill true gaps with no-ops,
//! and re-propose the lot before serving new client traffic. That is what
//! makes leader failover safe: anything the dead leader may have committed
//! survives in the accepted sets of a majority, and the new view (minus
//! the excluded members) still intersects it whenever the group itself
//! stayed a majority — the same bound the membership layer already lives
//! under (Fig. 8's `μ_Mgr`). On completing recovery the new leader also
//! re-sends each client's highest committed `Reply`: a command decided under the
//! dead leader may have lost its reply with the crash, and the re-reply
//! is what unsticks that client without waiting for its retry sweep.
//!
//! The state machine is sans-IO like [`Member`](gmp_core::Member):
//! handlers mutate state and push outbound messages into an outbox the
//! hosting [`Replica`](crate::Replica) node drains into the simulator.
//! Batching needs one timer; the log never sets it itself — it raises a
//! flush *request* ([`take_flush_request`](ReplicatedLog::take_flush_request))
//! the hosting node converts into a [`LOG_FLUSH`] timer.

use crate::msg::{ClientMark, LogCmd, LogMsg, Snapshot};
use gmp_core::MemberEvent;
use gmp_types::{ProcessId, Ver};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Simulated-time alias (mirrors `gmp_sim::Time`).
type Time = u64;

/// Timer tag of the leader's batch-coalescing flush. The membership layer
/// owns tags 1–3 and the client loop tag 64; the hosting node routes this
/// one back into [`ReplicatedLog::on_flush`].
pub const LOG_FLUSH: u64 = 65;

/// Leader-only state.
#[derive(Clone, Debug)]
struct LeaderState {
    /// Our ballot: the version of the view that made us `Mgr`.
    ballot: Ver,
    /// Next unproposed slot.
    next_slot: u64,
    /// Client commands admitted but not yet proposed (recovery in
    /// progress, batch flush pending, or the in-flight window is full).
    queue: VecDeque<LogCmd>,
    /// Leader-side dedup: mirror of `queue` ∪ `in_flight`. Entries leave
    /// when their command is learned; committed dedup is `by_cmd` and the
    /// per-client marks, so this set stays window-sized.
    admitted: BTreeSet<LogCmd>,
    /// Proposed, awaiting a quorum of acks. Keyed by slot.
    in_flight: BTreeMap<u64, Accepting>,
    /// The recovery round, while it runs. `None` once steady-state.
    recovery: Option<Recovery>,
}

/// One in-flight proposal.
#[derive(Clone, Debug)]
struct Accepting {
    cmd: LogCmd,
    /// Acceptors that acked (the leader counts itself implicitly).
    oks: BTreeSet<ProcessId>,
}

/// Recovery-round bookkeeping (phase 1 at the new ballot).
#[derive(Clone, Debug)]
struct Recovery {
    /// View members whose `RecoverOk` is still awaited.
    pending: BTreeSet<ProcessId>,
    /// Highest-ballot accepted entry reported per slot.
    found: BTreeMap<u64, (Ver, LogCmd)>,
}

/// The per-process replicated-log state machine. Embed one next to a
/// [`Member`](gmp_core::Member) (the [`Replica`](crate::Replica) node does
/// this) and feed it the member's drained events plus incoming [`LogMsg`]s.
#[derive(Clone, Debug)]
pub struct ReplicatedLog {
    me: ProcessId,
    /// Members of the current view (the acceptor set), seniority order.
    view: Vec<ProcessId>,
    /// Version of the current view.
    ver: Ver,
    /// Current leader belief: the view's `Mgr`.
    leader: Option<ProcessId>,
    /// Highest ballot promised: max of every installed version and every
    /// ballot accepted from. Accepts below it are stale and ignored.
    promised: Ver,
    /// Accepted entries at slot ≥ `floor` (pruned below by compaction,
    /// never by lower ballots): `slot → (ballot, cmd)`. Recovery reads
    /// this; it is a superset of the committed suffix above the floor.
    accepted: BTreeMap<u64, (Ver, LogCmd)>,
    /// Decided entries not yet contiguous with the applied prefix.
    parked: BTreeMap<u64, (Ver, LogCmd)>,
    /// First slot the applied vectors cover: 0 unless this replica booted
    /// from a snapshot, in which case its history starts at the
    /// snapshot's floor.
    base: u64,
    /// The applied log from `base`: `committed[i]` is slot `base + i`.
    committed: Vec<LogCmd>,
    /// Ballot under which each applied slot was decided.
    ballots: Vec<Ver>,
    /// Local simulated time each slot was applied.
    applied_at: Vec<Time>,
    /// Compaction floor: every slot below is committed and summarized by
    /// the per-client marks. `base ≤ floor ≤ logical_len`.
    floor: u64,
    /// Slot of each applied client command at slot ≥ `floor` (exact
    /// duplicate replies above the floor; the marks answer below it).
    by_cmd: BTreeMap<LogCmd, u64>,
    /// Per-client dedup summary: exactly which seqs have committed.
    client_marks: BTreeMap<ProcessId, ClientMark>,
    /// Processes the membership layer currently suspects.
    suspected: BTreeSet<ProcessId>,
    /// Leader-only state, while this process is `Mgr`.
    lead: Option<LeaderState>,
    /// Max in-flight slots before client commands wait in the queue.
    max_inflight: usize,
    /// Max commands per `AcceptBatch`; 1 proposes each command on arrival
    /// instead of coalescing behind the flush timer.
    batch_max: usize,
    /// Applied suffix length that triggers compaction (`usize::MAX`
    /// disables it; compaction runs when `logical_len - floor > 2·keep`).
    compact_keep: usize,
    /// A flush timer is wanted (set on first batched admission, drained
    /// by the hosting node via `take_flush_request`).
    flush_asked: bool,
    /// A flush timer is armed and not yet fired — don't ask for another.
    flush_armed: bool,
    /// Shape of the last `SyncOk` received: `(carried a snapshot, tail
    /// length)`. Test/bench observability for the O(tail) gate.
    last_sync: Option<(bool, u64)>,
    /// True between activation (initial view / welcome) and quit.
    active: bool,
    /// Outbound messages, drained by the hosting node.
    outbox: Vec<(ProcessId, LogMsg)>,
}

impl ReplicatedLog {
    /// A blank log: `max_inflight` caps concurrently proposed slots,
    /// `batch_max` caps commands per `AcceptBatch` (1 = propose each
    /// command on arrival), and compaction keeps `compact_keep` applied
    /// slots of hot state (`usize::MAX` = off).
    pub fn with_tuning(max_inflight: usize, batch_max: usize, compact_keep: usize) -> Self {
        assert!(max_inflight >= 1, "the in-flight window must admit work");
        assert!(batch_max >= 1, "a batch carries at least one command");
        assert!(compact_keep >= 1, "compaction must keep the working tail");
        ReplicatedLog {
            me: ProcessId(u32::MAX),
            view: Vec::new(),
            ver: 0,
            leader: None,
            promised: 0,
            accepted: BTreeMap::new(),
            parked: BTreeMap::new(),
            base: 0,
            committed: Vec::new(),
            ballots: Vec::new(),
            applied_at: Vec::new(),
            floor: 0,
            by_cmd: BTreeMap::new(),
            client_marks: BTreeMap::new(),
            suspected: BTreeSet::new(),
            lead: None,
            max_inflight,
            batch_max,
            compact_keep,
            flush_asked: false,
            flush_armed: false,
            last_sync: None,
            active: false,
            outbox: Vec::new(),
        }
    }

    /// Binds this log to its process id (called by the hosting node at
    /// start, before any event is fed).
    pub fn bind(&mut self, me: ProcessId) {
        self.me = me;
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The applied log from [`base`](Self::base), in slot order (including
    /// no-op fillers): `committed()[i]` is slot `base() + i`. `base()` is
    /// 0 except on snapshot-booted replicas.
    pub fn committed(&self) -> &[LogCmd] {
        &self.committed
    }

    /// Ballot under which each applied slot was decided (parallel to
    /// [`committed`](Self::committed)).
    pub fn ballots(&self) -> &[Ver] {
        &self.ballots
    }

    /// Local simulated time each applied slot was applied (parallel to
    /// [`committed`](Self::committed)).
    pub fn applied_at(&self) -> &[Time] {
        &self.applied_at
    }

    /// First slot the applied vectors cover (the snapshot floor this
    /// replica booted from, or 0 for founders).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The compaction floor: every slot below it is committed here and
    /// summarized by the per-client marks.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// One past the last applied slot (`base + committed().len()`).
    pub fn logical_len(&self) -> u64 {
        self.base + self.committed.len() as u64
    }

    /// Sizes of the prunable hot state, for memory-bound assertions:
    /// `(accepted, parked, by_cmd, client marks)`.
    pub fn hot_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.accepted.len(),
            self.parked.len(),
            self.by_cmd.len(),
            self.client_marks.len(),
        )
    }

    /// Shape of the last `SyncOk` this replica received: `(carried a
    /// snapshot, tail entry count)`. `None` until one arrives.
    pub fn last_sync(&self) -> Option<(bool, u64)> {
        self.last_sync
    }

    /// True while this process believes itself leader.
    pub fn is_leader(&self) -> bool {
        self.lead.is_some()
    }

    /// The current leader belief (the view's `Mgr`), once a view is known.
    pub fn leader(&self) -> Option<ProcessId> {
        self.leader
    }

    /// Applied client operations, no-op fillers excluded (not counting
    /// anything below [`base`](Self::base) on snapshot-booted replicas).
    pub fn committed_ops(&self) -> usize {
        self.committed.iter().filter(|c| !c.is_noop()).count()
    }

    /// Drains the outbound messages queued by the last handler call.
    pub fn take_outbox(&mut self) -> Vec<(ProcessId, LogMsg)> {
        std::mem::take(&mut self.outbox)
    }

    /// True once per wanted flush: the hosting node calls this after every
    /// handler and arms a 1-tick [`LOG_FLUSH`] timer when it returns true.
    pub fn take_flush_request(&mut self) -> bool {
        if self.flush_asked {
            self.flush_asked = false;
            self.flush_armed = true;
            true
        } else {
            false
        }
    }

    /// The [`LOG_FLUSH`] timer fired: propose everything coalesced since
    /// it was armed (up to `batch_max` per `AcceptBatch`).
    pub fn on_flush(&mut self, now: Time) {
        self.flush_armed = false;
        self.propose_queued(now);
    }

    // ------------------------------------------------------------------
    // Membership events
    // ------------------------------------------------------------------

    /// Feeds one membership transition. The hosting node calls this with
    /// everything `Member::take_events` drained, in order.
    pub fn on_member_event(&mut self, ev: MemberEvent, now: Time) {
        match ev {
            MemberEvent::ViewInstalled { ver, members, mgr }
            | MemberEvent::Welcomed { ver, members, mgr } => {
                let welcomed = !self.active;
                self.active = true;
                self.view = members;
                self.ver = ver;
                self.promised = self.promised.max(ver);
                self.leader = Some(mgr);
                self.suspected.retain(|p| self.view.contains(p));
                if mgr == self.me {
                    self.become_leader(ver, now);
                } else {
                    // Demotion (or follower continuation): any in-flight
                    // proposals are the new leader's problem now — its
                    // recovery round reads them out of our accepted set.
                    self.lead = None;
                    if welcomed {
                        // Joiner state transfer: ask the leader for the
                        // committed prefix we missed. Decides from now on
                        // reach us directly (we are in the view the leader
                        // broadcasts to); `SyncOk` fills everything before.
                        self.outbox.push((
                            mgr,
                            LogMsg::Sync {
                                from: self.logical_len(),
                            },
                        ));
                    }
                }
            }
            MemberEvent::PeerSuspected { peer, .. } => {
                self.suspected.insert(peer);
                // A suspect will never answer: stop awaiting its recovery
                // response. (In-flight accepts keep counting toward the
                // *view* majority — the next view install re-proposes them
                // if the quorum died.)
                if let Some(lead) = &mut self.lead {
                    if let Some(rec) = &mut lead.recovery {
                        rec.pending.remove(&peer);
                    }
                }
                self.finish_recovery_if_ready(now);
            }
            MemberEvent::PeerExcluded { .. } => {
                // The matching ViewInstalled (next event) carries the new
                // view; nothing to do on the exclusion itself.
            }
            MemberEvent::Quit { .. } => {
                self.active = false;
                self.lead = None;
                self.flush_asked = false;
                self.flush_armed = false;
            }
            // `MemberEvent` is non_exhaustive: future kinds don't concern
            // the log until someone teaches it otherwise.
            _ => {}
        }
    }

    /// Starts (or restarts) leading at `ballot`. Re-entered on *every*
    /// view install that leaves us `Mgr`: the recovery round is idempotent
    /// and re-proposing at the newest ballot is exactly what un-wedges
    /// slots whose quorum died mid-accept.
    fn become_leader(&mut self, ballot: Ver, now: Time) {
        let mut queue = match self.lead.take() {
            // Keep admitted-but-unserved client work across re-elections.
            Some(prev) => prev.queue,
            None => VecDeque::new(),
        };
        // …minus anything a leader in between already committed (the
        // client resubmitted it there while we were a follower).
        queue.retain(|c| self.committed_slot_of(c).is_none());
        let admitted: BTreeSet<LogCmd> = queue.iter().copied().collect();
        let pending: BTreeSet<ProcessId> = self
            .view
            .iter()
            .filter(|&&p| p != self.me && !self.suspected.contains(&p))
            .copied()
            .collect();
        self.lead = Some(LeaderState {
            ballot,
            next_slot: self.logical_len(),
            queue,
            admitted,
            in_flight: BTreeMap::new(),
            recovery: Some(Recovery {
                pending,
                found: BTreeMap::new(),
            }),
        });
        let from = self.logical_len();
        for p in self.peers() {
            self.outbox.push((p, LogMsg::Recover { ballot, from }));
        }
        // A solitary (or fully-suspicious) leader recovers from its own
        // accepted set alone.
        self.finish_recovery_if_ready(now);
    }

    // ------------------------------------------------------------------
    // Log messages
    // ------------------------------------------------------------------

    /// Handles one incoming log message.
    pub fn on_message(&mut self, from: ProcessId, msg: LogMsg, now: Time) {
        if !self.active {
            return;
        }
        match msg {
            LogMsg::Request { cmd } => self.on_request(from, cmd, now),
            LogMsg::AcceptBatch {
                ballot,
                first_slot,
                cmds,
            } => {
                if ballot < self.promised || !fits(first_slot, cmds.len()) {
                    return;
                }
                self.promised = ballot;
                let count = cmds.len() as u64;
                for (i, cmd) in cmds.into_iter().enumerate() {
                    let slot = first_slot + i as u64;
                    // Slots under the floor are committed and pruned;
                    // acking them is still correct (decided ⊇ accepted).
                    if slot >= self.floor {
                        self.accepted.insert(slot, (ballot, cmd));
                    }
                }
                self.outbox.push((
                    from,
                    LogMsg::AcceptOkRange {
                        ballot,
                        first_slot,
                        count,
                    },
                ));
            }
            LogMsg::AcceptOkRange {
                ballot,
                first_slot,
                count,
            } => self.on_accept_ok(from, ballot, first_slot, count, now),
            LogMsg::DecideBatch {
                ballot,
                first_slot,
                cmds,
            } => {
                if !fits(first_slot, cmds.len()) {
                    return;
                }
                for (i, cmd) in cmds.into_iter().enumerate() {
                    self.learn(first_slot + i as u64, ballot, cmd);
                }
                self.apply_contiguous(now);
            }
            LogMsg::Recover {
                ballot,
                from: floor,
            } => self.on_recover(from, ballot, floor),
            LogMsg::RecoverOk {
                ballot,
                snapshot,
                entries,
            } => {
                if let Some(snap) = snapshot {
                    self.install_snapshot(snap);
                }
                let Some(lead) = &mut self.lead else { return };
                if lead.ballot != ballot {
                    return; // stale round
                }
                let Some(rec) = &mut lead.recovery else {
                    return;
                };
                for (slot, b, cmd) in entries {
                    match rec.found.get(&slot) {
                        Some(&(have, _)) if have >= b => {}
                        _ => {
                            rec.found.insert(slot, (b, cmd));
                        }
                    }
                }
                rec.pending.remove(&from);
                self.finish_recovery_if_ready(now);
            }
            LogMsg::Sync { from: req } => {
                // Below the floor the prefix is gone: ship the snapshot
                // that summarizes it plus the retained tail — O(tail).
                let (snapshot, start) = if req < self.floor {
                    (Some(self.snapshot()), self.floor)
                } else {
                    (None, req)
                };
                debug_assert!(start >= self.base, "sync start under the applied base");
                let lo = (start - self.base) as usize;
                let entries: Vec<(Ver, LogCmd)> = (lo..self.committed.len())
                    .map(|i| (self.ballots[i], self.committed[i]))
                    .collect();
                self.outbox.push((
                    from,
                    LogMsg::SyncOk {
                        from: start,
                        snapshot,
                        entries,
                    },
                ));
            }
            LogMsg::SyncOk {
                from: start,
                snapshot,
                entries,
            } => {
                if !fits(start, entries.len()) {
                    return;
                }
                self.last_sync = Some((snapshot.is_some(), entries.len() as u64));
                if let Some(snap) = snapshot {
                    self.install_snapshot(snap);
                }
                for (i, (b, cmd)) in entries.into_iter().enumerate() {
                    self.learn(start + i as u64, b, cmd);
                }
                self.apply_contiguous(now);
            }
            // Client-side messages; replicas ignore strays.
            LogMsg::Redirect { .. } | LogMsg::Reply { .. } => {}
        }
    }

    /// Answers a `Recover` probe: promise the ballot and report everything
    /// accepted at slot ≥ `req`. Compaction makes this three-cased: above
    /// the floor the accepted map answers directly; between base and floor
    /// the applied vectors fill in (committed implies accepted); below
    /// base nothing survives as entries and the snapshot goes instead.
    fn on_recover(&mut self, from: ProcessId, ballot: Ver, req: u64) {
        if ballot < self.promised {
            return;
        }
        self.promised = ballot;
        let mut snapshot = None;
        let mut entries: Vec<(u64, Ver, LogCmd)> = Vec::new();
        if req < self.floor {
            if req < self.base {
                snapshot = Some(self.snapshot());
            } else {
                for i in (req - self.base) as usize..(self.floor - self.base) as usize {
                    entries.push((self.base + i as u64, self.ballots[i], self.committed[i]));
                }
            }
            entries.extend(
                self.accepted
                    .range(self.floor..)
                    .map(|(&s, &(b, c))| (s, b, c)),
            );
        } else {
            entries.extend(self.accepted.range(req..).map(|(&s, &(b, c))| (s, b, c)));
        }
        self.outbox.push((
            from,
            LogMsg::RecoverOk {
                ballot,
                snapshot,
                entries,
            },
        ));
    }

    fn on_request(&mut self, client: ProcessId, cmd: LogCmd, now: Time) {
        if self.lead.is_none() {
            // Not the leader: point the client at our belief (silence
            // would also work — clients retry — but the hint is what makes
            // failover latency a round trip instead of a timeout).
            if let Some(l) = self.leader {
                if l != self.me {
                    self.outbox.push((client, LogMsg::Redirect { leader: l }));
                }
            }
            return;
        }
        if let Some(slot) = self.committed_slot_of(&cmd) {
            // Committed duplicate (client re-sent across a failover the
            // first reply did not survive): answer from the log above the
            // floor, or from the client's mark below it.
            self.outbox
                .push((client, LogMsg::Reply { seq: cmd.seq, slot }));
            return;
        }
        let lead = self.lead.as_mut().expect("leader checked above");
        if !lead.admitted.insert(cmd) {
            return; // queued or in flight; the decide will answer
        }
        lead.queue.push_back(cmd);
        if self.batch_max > 1 {
            // Coalesce everything arriving this tick into one batch: the
            // hosting node arms a 1-tick flush on our request.
            self.ask_flush();
        } else {
            self.propose_queued(now);
        }
    }

    /// The committed slot of `cmd`, if it committed: exact from `by_cmd`
    /// above the floor, else from the client's mark (whose highest slot
    /// stands in for the pruned exact slot — clients match replies by
    /// `seq` alone).
    fn committed_slot_of(&self, cmd: &LogCmd) -> Option<u64> {
        if let Some(&slot) = self.by_cmd.get(cmd) {
            return Some(slot);
        }
        let mark = self.client_marks.get(&cmd.client)?;
        mark.contains(cmd.seq).then_some(mark.last.1)
    }

    /// Asks the hosting node for a flush timer, once per armed window.
    fn ask_flush(&mut self) {
        if !self.flush_armed {
            self.flush_asked = true;
        }
    }

    /// One `AcceptOkRange` acks every in-flight slot in its range; any
    /// slot that reaches quorum decides, and contiguous decisions ship as
    /// one `DecideBatch`. The range is peer-supplied: only the in-flight
    /// slots inside it are visited, and its end saturates.
    fn on_accept_ok(
        &mut self,
        from: ProcessId,
        ballot: Ver,
        first_slot: u64,
        count: u64,
        now: Time,
    ) {
        let quorum = self.quorum();
        let Some(lead) = &mut self.lead else { return };
        if lead.ballot != ballot {
            return;
        }
        let mut decided: Vec<(u64, LogCmd)> = Vec::new();
        for (&slot, acc) in lead
            .in_flight
            .range_mut(first_slot..first_slot.saturating_add(count))
        {
            acc.oks.insert(from);
            // +1: the leader accepted its own proposal at propose time.
            if acc.oks.len() + 1 >= quorum {
                decided.push((slot, acc.cmd));
            }
        }
        for &(slot, _) in &decided {
            lead.in_flight.remove(&slot);
        }
        if !decided.is_empty() {
            self.decide(decided, ballot, now);
        }
    }

    /// Commits a set of slots: learn them all, ship one `DecideBatch` per
    /// contiguous run per peer, answer the clients, and refill the
    /// pipeline straight from the queue.
    fn decide(&mut self, decided: Vec<(u64, LogCmd)>, ballot: Ver, now: Time) {
        for &(slot, cmd) in &decided {
            self.learn(slot, ballot, cmd);
        }
        let mut runs: Vec<(u64, Vec<LogCmd>)> = Vec::new();
        for &(slot, cmd) in &decided {
            match runs.last_mut() {
                Some((first, cmds)) if *first + cmds.len() as u64 == slot => cmds.push(cmd),
                _ => runs.push((slot, vec![cmd])),
            }
        }
        let peers = self.peers();
        for (first_slot, cmds) in &runs {
            for &p in &peers {
                self.outbox.push((
                    p,
                    LogMsg::DecideBatch {
                        ballot,
                        first_slot: *first_slot,
                        cmds: cmds.clone(),
                    },
                ));
            }
        }
        for &(slot, cmd) in &decided {
            if !cmd.is_noop() {
                self.outbox
                    .push((cmd.client, LogMsg::Reply { seq: cmd.seq, slot }));
            }
        }
        self.apply_contiguous(now);
        self.propose_queued(now);
    }

    /// Records a decided entry (idempotent; decides imply accepts so the
    /// entry also feeds later recoveries).
    fn learn(&mut self, slot: u64, ballot: Ver, cmd: LogCmd) {
        if slot < self.logical_len() {
            return; // already applied
        }
        if let Some(lead) = &mut self.lead {
            lead.admitted.remove(&cmd);
        }
        self.accepted.insert(slot, (ballot, cmd));
        self.parked.insert(slot, (ballot, cmd));
    }

    /// Applies every parked decision contiguous with the applied prefix,
    /// then compacts if the hot state outgrew its bound.
    fn apply_contiguous(&mut self, now: Time) {
        while let Some(&(ballot, cmd)) = self.parked.get(&self.logical_len()) {
            let slot = self.logical_len();
            self.parked.remove(&slot);
            self.committed.push(cmd);
            self.ballots.push(ballot);
            self.applied_at.push(now);
            if !cmd.is_noop() {
                self.by_cmd.insert(cmd, slot);
                self.client_marks
                    .entry(cmd.client)
                    .or_default()
                    .commit(cmd.seq, slot);
            }
        }
        self.maybe_compact();
    }

    /// Advances the compaction floor once the applied suffix above it
    /// exceeds twice the keep budget, pruning `accepted`/`parked`/`by_cmd`
    /// below the new floor. The 2× hysteresis makes the amortized cost
    /// O(1) per applied slot.
    fn maybe_compact(&mut self) {
        if self.compact_keep == usize::MAX {
            return;
        }
        let len = self.logical_len();
        if len - self.floor <= 2 * self.compact_keep as u64 {
            return;
        }
        let new_floor = len - self.compact_keep as u64;
        self.accepted = self.accepted.split_off(&new_floor);
        self.parked = self.parked.split_off(&new_floor);
        self.by_cmd.retain(|_, s| *s >= new_floor);
        self.floor = new_floor;
    }

    /// The compacted summary of everything below the floor: the floor plus
    /// every client's dedup mark.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            floor: self.floor,
            clients: self
                .client_marks
                .iter()
                .map(|(&c, mark)| (c, mark.clone()))
                .collect(),
        }
    }

    /// Installs a received snapshot: merge in its client marks, and if
    /// the snapshot's floor is ahead of our applied prefix, restart the
    /// applied vectors at it (the pruned prefix is summarized, not lost —
    /// that is the floor invariant).
    fn install_snapshot(&mut self, snap: Snapshot) {
        for (client, mark) in snap.clients {
            self.client_marks.entry(client).or_default().merge(&mark);
        }
        if snap.floor > self.logical_len() {
            self.committed.clear();
            self.ballots.clear();
            self.applied_at.clear();
            self.base = snap.floor;
            self.accepted = self.accepted.split_off(&snap.floor);
            self.parked = self.parked.split_off(&snap.floor);
            self.by_cmd.retain(|_, s| *s >= snap.floor);
        }
        self.floor = self.floor.max(snap.floor);
    }

    /// The view majority, acceptor quorum of every ballot.
    fn quorum(&self) -> usize {
        self.view.len() / 2 + 1
    }

    /// Completes the recovery round once every awaited response is in:
    /// adopt the highest-ballot entry per slot, fill gaps with no-ops,
    /// re-propose everything above the committed prefix, re-send each
    /// client's highest committed reply, then serve the queue.
    fn finish_recovery_if_ready(&mut self, now: Time) {
        let floor_slot = self.logical_len();
        let Some(lead) = &mut self.lead else { return };
        let Some(rec) = &mut lead.recovery else {
            return;
        };
        if !rec.pending.is_empty() {
            return;
        }
        let ballot = lead.ballot;
        let mut chosen = std::mem::take(&mut rec.found);
        lead.recovery = None;
        // Decides kept arriving from the old leader while we probed:
        // never propose below (or into) the applied prefix.
        lead.next_slot = lead.next_slot.max(floor_slot);
        // Our own accepted set is a recovery response like any other.
        for (&slot, &(b, cmd)) in self.accepted.range(floor_slot..) {
            match chosen.get(&slot) {
                Some(&(have, _)) if have >= b => {}
                _ => {
                    chosen.insert(slot, (b, cmd));
                }
            }
        }
        let top = chosen
            .iter()
            .next_back()
            .map(|(&s, _)| s)
            .filter(|&s| s >= floor_slot);
        if let Some(top) = top {
            let plan: Vec<LogCmd> = (floor_slot..=top)
                .map(|s| chosen.get(&s).map(|&(_, c)| c).unwrap_or(LogCmd::NOOP))
                .collect();
            // A recovered command may *also* sit in our queue (its client
            // retried to us while we probed). Re-proposing it once under
            // its recovered slot is the exactly-once path; drop the
            // queued twin.
            let rec_set: BTreeSet<LogCmd> = plan.iter().copied().filter(|c| !c.is_noop()).collect();
            if let Some(lead) = &mut self.lead {
                lead.queue.retain(|c| !rec_set.contains(c));
                lead.admitted.extend(rec_set.iter().copied());
                lead.next_slot = lead.next_slot.max(top + 1);
            }
            let mut first = floor_slot;
            for cmds in plan.chunks(self.batch_max) {
                self.propose(first, ballot, cmds.to_vec(), now);
                first += cmds.len() as u64;
            }
        }
        // Failover re-reply: a command decided under the dead leader may
        // have lost its reply with the crash. One reply per known client
        // (its highest committed seq) unsticks any such client
        // immediately; completed clients ignore it by seq.
        for (&client, mark) in &self.client_marks {
            let (seq, slot) = mark.last;
            self.outbox.push((client, LogMsg::Reply { seq, slot }));
        }
        self.propose_queued(now);
    }

    /// Moves queued client commands into the in-flight window in batches
    /// of up to `batch_max`, as window room allows.
    fn propose_queued(&mut self, now: Time) {
        loop {
            let Some(lead) = &mut self.lead else { return };
            if lead.recovery.is_some()
                || lead.queue.is_empty()
                || lead.in_flight.len() >= self.max_inflight
            {
                return;
            }
            let room = self.max_inflight - lead.in_flight.len();
            let take = room.min(self.batch_max).min(lead.queue.len());
            let first = lead.next_slot;
            lead.next_slot += take as u64;
            let ballot = lead.ballot;
            let cmds: Vec<LogCmd> = lead.queue.drain(..take).collect();
            self.propose(first, ballot, cmds, now);
        }
    }

    /// Proposes `cmds` into the contiguous range starting at `first_slot`:
    /// self-accept each, one `AcceptBatch` per peer, and — in the
    /// single-member view — decide the whole range on the spot.
    fn propose(&mut self, first_slot: u64, ballot: Ver, cmds: Vec<LogCmd>, now: Time) {
        self.promised = self.promised.max(ballot);
        let Some(lead) = &mut self.lead else { return };
        for (i, &cmd) in cmds.iter().enumerate() {
            let slot = first_slot + i as u64;
            self.accepted.insert(slot, (ballot, cmd));
            lead.in_flight.insert(
                slot,
                Accepting {
                    cmd,
                    oks: BTreeSet::new(),
                },
            );
        }
        for p in self.peers() {
            self.outbox.push((
                p,
                LogMsg::AcceptBatch {
                    ballot,
                    first_slot,
                    cmds: cmds.clone(),
                },
            ));
        }
        if self.quorum() == 1 {
            let decided: Vec<(u64, LogCmd)> = cmds
                .into_iter()
                .enumerate()
                .map(|(i, cmd)| (first_slot + i as u64, cmd))
                .collect();
            if let Some(lead) = &mut self.lead {
                for &(slot, _) in &decided {
                    lead.in_flight.remove(&slot);
                }
            }
            self.decide(decided, ballot, now);
        }
    }

    /// Every view member but this process, in seniority order.
    fn peers(&self) -> Vec<ProcessId> {
        self.view
            .iter()
            .filter(|&&p| p != self.me)
            .copied()
            .collect()
    }
}

/// True if the `len` slots from `first` are all addressable: a
/// peer-supplied range whose end overflows `u64` is dropped, not walked.
fn fits(first: u64, len: usize) -> bool {
    first.checked_add(len as u64).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view3() -> Vec<ProcessId> {
        vec![ProcessId(0), ProcessId(1), ProcessId(2)]
    }

    fn installed(log: &mut ReplicatedLog, ver: Ver, mgr: u32) {
        log.on_member_event(
            MemberEvent::ViewInstalled {
                ver,
                members: view3(),
                mgr: ProcessId(mgr),
            },
            0,
        );
    }

    fn cmd(client: u32, seq: u64) -> LogCmd {
        LogCmd {
            client: ProcessId(client),
            seq,
        }
    }

    /// An unbatched, uncompacted log: one-command batches, window 8.
    fn unbatched() -> ReplicatedLog {
        ReplicatedLog::with_tuning(8, 1, usize::MAX)
    }

    fn accept(ballot: Ver, slot: u64, c: LogCmd) -> LogMsg {
        LogMsg::AcceptBatch {
            ballot,
            first_slot: slot,
            cmds: vec![c],
        }
    }

    fn ack(ballot: Ver, slot: u64) -> LogMsg {
        LogMsg::AcceptOkRange {
            ballot,
            first_slot: slot,
            count: 1,
        }
    }

    fn decide(ballot: Ver, slot: u64, c: LogCmd) -> LogMsg {
        LogMsg::DecideBatch {
            ballot,
            first_slot: slot,
            cmds: vec![c],
        }
    }

    fn recover_ok_empty(log: &mut ReplicatedLog, from: u32, ballot: Ver, at: Time) {
        log.on_message(
            ProcessId(from),
            LogMsg::RecoverOk {
                ballot,
                snapshot: None,
                entries: vec![],
            },
            at,
        );
    }

    #[test]
    fn leader_recovers_then_serves() {
        let mut log = unbatched();
        log.bind(ProcessId(0));
        installed(&mut log, 0, 0);
        // Recovery round goes out to both peers…
        let out = log.take_outbox();
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].1, LogMsg::Recover { ballot: 0, from: 0 }));
        // …and no client work is served until it answers.
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 0) }, 1);
        assert!(log.take_outbox().is_empty());
        for p in [1, 2] {
            recover_ok_empty(&mut log, p, 0, 2);
        }
        let out = log.take_outbox();
        // A one-command accept for slot 0 to both peers.
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[0].1,
            LogMsg::AcceptBatch {
                ballot: 0,
                first_slot: 0,
                cmds,
            } if cmds == &[cmd(9, 0)]
        ));
        // One ack + self = 2 of 3: decided, replied, applied.
        log.on_message(ProcessId(1), ack(0, 0), 3);
        let out = log.take_outbox();
        assert!(out
            .iter()
            .any(|(to, m)| *to == ProcessId(9) && matches!(m, LogMsg::Reply { seq: 0, slot: 0 })));
        assert_eq!(log.committed(), &[cmd(9, 0)]);
        assert_eq!(log.committed_ops(), 1);
    }

    #[test]
    fn acceptor_rejects_stale_ballots() {
        let mut log = unbatched();
        log.bind(ProcessId(1));
        installed(&mut log, 0, 0);
        log.take_outbox();
        // A view install at ver 2 raises the promise…
        installed(&mut log, 2, 0);
        log.take_outbox();
        // …so a ballot-1 accept is ignored.
        log.on_message(ProcessId(0), accept(1, 0, cmd(9, 0)), 5);
        assert!(log.take_outbox().is_empty());
        log.on_message(ProcessId(0), accept(2, 0, cmd(9, 0)), 6);
        assert!(matches!(
            log.take_outbox().as_slice(),
            [(
                ProcessId(0),
                LogMsg::AcceptOkRange {
                    ballot: 2,
                    first_slot: 0,
                    count: 1
                }
            )]
        ));
    }

    #[test]
    fn recovery_adopts_highest_ballot_and_fills_gaps() {
        let mut log = unbatched();
        log.bind(ProcessId(1));
        // Follower first: accept slot 1 (not 0) at ballot 0 from the old
        // leader, then take over at ver 1.
        installed(&mut log, 0, 0);
        log.take_outbox();
        log.on_message(ProcessId(0), accept(0, 1, cmd(9, 1)), 5);
        log.take_outbox();
        let members = vec![ProcessId(1), ProcessId(2)];
        log.on_member_event(
            MemberEvent::ViewInstalled {
                ver: 1,
                members,
                mgr: ProcessId(1),
            },
            10,
        );
        log.take_outbox();
        // The peer reports a higher-ballot value for slot 1 — adopted.
        log.on_message(
            ProcessId(2),
            LogMsg::RecoverOk {
                ballot: 1,
                snapshot: None,
                entries: vec![(1, 1, cmd(8, 4))],
            },
            11,
        );
        let out = log.take_outbox();
        let accepts: Vec<_> = out
            .iter()
            .filter_map(|(_, m)| match m {
                LogMsg::AcceptBatch {
                    first_slot, cmds, ..
                } => Some((*first_slot, cmds.clone())),
                _ => None,
            })
            .collect();
        // Slot 0 was a hole → no-op; slot 1 re-proposed with the adopted
        // value; at batch 1 each goes out as its own one-command batch.
        assert_eq!(accepts, vec![(0, vec![LogCmd::NOOP]), (1, vec![cmd(8, 4)])]);
        // The 2-member view decides with the peer's ok.
        log.on_message(ProcessId(2), ack(1, 0), 12);
        log.on_message(ProcessId(2), ack(1, 1), 12);
        assert_eq!(log.committed(), &[LogCmd::NOOP, cmd(8, 4)]);
        assert_eq!(log.committed_ops(), 1);
        assert_eq!(log.ballots(), &[1, 1]);
    }

    #[test]
    fn duplicate_requests_answer_from_the_log() {
        let mut log = unbatched();
        log.bind(ProcessId(0));
        installed(&mut log, 0, 0);
        log.take_outbox();
        for p in [1, 2] {
            recover_ok_empty(&mut log, p, 0, 1);
        }
        log.take_outbox();
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 0) }, 2);
        log.take_outbox();
        log.on_message(ProcessId(1), ack(0, 0), 3);
        log.take_outbox();
        // Same command again: replied immediately, not re-proposed.
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 0) }, 4);
        let out = log.take_outbox();
        assert!(matches!(
            out.as_slice(),
            [(ProcessId(9), LogMsg::Reply { seq: 0, slot: 0 })]
        ));
        assert_eq!(log.committed().len(), 1);
    }

    #[test]
    fn followers_redirect_clients() {
        let mut log = unbatched();
        log.bind(ProcessId(1));
        installed(&mut log, 0, 0);
        log.take_outbox();
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 0) }, 1);
        assert!(matches!(
            log.take_outbox().as_slice(),
            [(
                ProcessId(9),
                LogMsg::Redirect {
                    leader: ProcessId(0)
                }
            )]
        ));
    }

    #[test]
    fn out_of_order_decides_apply_contiguously() {
        let mut log = unbatched();
        log.bind(ProcessId(2));
        installed(&mut log, 0, 0);
        log.take_outbox();
        log.on_message(ProcessId(0), decide(0, 1, cmd(9, 1)), 5);
        assert!(log.committed().is_empty());
        log.on_message(ProcessId(0), decide(0, 0, cmd(9, 0)), 6);
        assert_eq!(log.committed(), &[cmd(9, 0), cmd(9, 1)]);
        assert_eq!(log.applied_at(), &[6, 6]);
    }

    #[test]
    fn decide_batches_apply_like_single_decides() {
        // A two-command range above a hole parks until a one-command
        // range fills the hole…
        let mut batched = unbatched();
        batched.bind(ProcessId(2));
        installed(&mut batched, 0, 0);
        batched.take_outbox();
        batched.on_message(
            ProcessId(0),
            LogMsg::DecideBatch {
                ballot: 0,
                first_slot: 1,
                cmds: vec![cmd(9, 1), cmd(9, 2)],
            },
            5,
        );
        assert!(batched.committed().is_empty(), "slot 0 still missing");
        batched.on_message(ProcessId(0), decide(0, 0, cmd(9, 0)), 6);
        assert_eq!(batched.committed(), &[cmd(9, 0), cmd(9, 1), cmd(9, 2)]);
        assert_eq!(batched.applied_at(), &[6, 6, 6]);
        // …and ends in the state the same slots decided one by one give.
        let mut single = unbatched();
        single.bind(ProcessId(2));
        installed(&mut single, 0, 0);
        single.take_outbox();
        for (slot, at) in [(1, 5), (2, 5), (0, 6)] {
            single.on_message(ProcessId(0), decide(0, slot, cmd(9, slot)), at);
        }
        assert_eq!(batched.committed(), single.committed());
        assert_eq!(batched.applied_at(), single.applied_at());
    }

    // ------------------------------------------------------------------
    // Batched hot path
    // ------------------------------------------------------------------

    #[test]
    fn requests_coalesce_into_one_accept_batch() {
        let mut log = ReplicatedLog::with_tuning(8, 4, usize::MAX);
        log.bind(ProcessId(0));
        installed(&mut log, 0, 0);
        log.take_outbox();
        for p in [1, 2] {
            recover_ok_empty(&mut log, p, 0, 1);
        }
        log.take_outbox();
        // Three requests within one tick admit silently and ask one flush.
        for s in 0..3 {
            log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, s) }, 5);
        }
        assert!(log.take_outbox().is_empty());
        assert!(log.take_flush_request());
        assert!(!log.take_flush_request(), "one armed flush at a time");
        log.on_flush(6);
        let out = log.take_outbox();
        // One AcceptBatch per peer carrying all three commands.
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[0].1,
            LogMsg::AcceptBatch { ballot: 0, first_slot: 0, cmds } if cmds.len() == 3
        ));
        // One range ack (2 of 3 with self) decides the whole range.
        log.on_message(
            ProcessId(1),
            LogMsg::AcceptOkRange {
                ballot: 0,
                first_slot: 0,
                count: 3,
            },
            7,
        );
        let out = log.take_outbox();
        let batches = out
            .iter()
            .filter(|(_, m)| matches!(m, LogMsg::DecideBatch { cmds, .. } if cmds.len() == 3))
            .count();
        assert_eq!(batches, 2, "one DecideBatch per peer");
        let replies = out
            .iter()
            .filter(|(_, m)| matches!(m, LogMsg::Reply { .. }))
            .count();
        assert_eq!(replies, 3);
        assert_eq!(log.committed(), &[cmd(9, 0), cmd(9, 1), cmd(9, 2)]);
    }

    // ------------------------------------------------------------------
    // Peer input
    // ------------------------------------------------------------------

    /// Feeds `msg` from `from` and asserts the log neither panics nor
    /// changes: no state, no outbound message, no flush request.
    fn assert_dropped(log: &mut ReplicatedLog, from: u32, msg: LogMsg) {
        let before = format!("{log:?}");
        let shown = format!("{msg:?}");
        log.on_message(ProcessId(from), msg, 9);
        assert_eq!(format!("{log:?}"), before, "{shown} changed the log");
    }

    #[test]
    fn slot_ranges_past_u64_max_are_dropped() {
        let top = u64::MAX;
        // A follower at the current ballot: each range overflows the slot
        // space, so each message is dropped whole.
        let mut follower = unbatched();
        follower.bind(ProcessId(1));
        installed(&mut follower, 0, 0);
        follower.take_outbox();
        let accept = LogMsg::AcceptBatch {
            ballot: 0,
            first_slot: top,
            cmds: vec![cmd(9, 0), cmd(9, 1)],
        };
        assert_dropped(&mut follower, 0, accept);
        let decide = LogMsg::DecideBatch {
            ballot: 0,
            first_slot: top - 1,
            cmds: vec![cmd(9, 0), cmd(9, 1), cmd(9, 2)],
        };
        assert_dropped(&mut follower, 0, decide);
        let sync_ok = LogMsg::SyncOk {
            from: top,
            snapshot: Some(Snapshot {
                floor: 5,
                clients: vec![],
            }),
            entries: vec![(0, cmd(9, 0)), (0, cmd(9, 1))],
        };
        assert_dropped(&mut follower, 0, sync_ok);
        // A leader with slot 0 in flight: an ack whose range end
        // overflows is walked only over the in-flight slots inside it —
        // none — while an ack that covers slot 0 still decides it.
        let mut leader = unbatched();
        leader.bind(ProcessId(0));
        installed(&mut leader, 0, 0);
        for p in [1, 2] {
            recover_ok_empty(&mut leader, p, 0, 1);
        }
        leader.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 0) }, 2);
        leader.take_outbox();
        let ack_range = LogMsg::AcceptOkRange {
            ballot: 0,
            first_slot: top - 1,
            count: top,
        };
        assert_dropped(&mut leader, 1, ack_range);
        leader.on_message(ProcessId(1), ack(0, 0), 3);
        assert_eq!(leader.committed(), &[cmd(9, 0)]);
    }

    // ------------------------------------------------------------------
    // Compaction, snapshots, dedup marks
    // ------------------------------------------------------------------

    /// A solitary leader (quorum 1) that has committed `ops` commands
    /// from client 9, compacting down to `keep`.
    fn solitary_compacted(ops: u64, keep: usize) -> ReplicatedLog {
        let mut log = ReplicatedLog::with_tuning(8, 1, keep);
        log.bind(ProcessId(0));
        log.on_member_event(
            MemberEvent::ViewInstalled {
                ver: 0,
                members: vec![ProcessId(0)],
                mgr: ProcessId(0),
            },
            0,
        );
        log.take_outbox();
        for s in 0..ops {
            log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, s) }, s);
            log.take_outbox();
        }
        log
    }

    #[test]
    fn compaction_prunes_hot_state_and_dedups_from_the_mark() {
        let log = solitary_compacted(20, 4);
        assert_eq!(log.committed_ops(), 20);
        // Floor advances by `keep` each time the suffix exceeds 2·keep:
        // trigger at len 9 → 5, 14 → 10, 19 → 15.
        assert_eq!(log.floor(), 15);
        let (acc, parked, by_cmd, hwm) = log.hot_sizes();
        assert!(acc <= 2 * 4 + 1, "accepted pruned below the floor");
        assert_eq!(parked, 0);
        assert_eq!(by_cmd, 5, "only slots ≥ floor keep exact entries");
        assert_eq!(hwm, 1, "one mark per client");
        // A duplicate far below the floor still answers — from the mark
        // (slot is best-effort; clients match replies by seq).
        let mut log = log;
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 3) }, 30);
        assert!(matches!(
            log.take_outbox().as_slice(),
            [(ProcessId(9), LogMsg::Reply { seq: 3, slot: 19 })]
        ));
        // …while a fresh command is admitted normally.
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 20) }, 31);
        log.take_outbox();
        assert_eq!(log.committed_ops(), 21);
    }

    #[test]
    fn sync_below_the_floor_ships_a_snapshot_plus_tail() {
        let mut log = solitary_compacted(20, 4);
        log.on_message(ProcessId(5), LogMsg::Sync { from: 0 }, 40);
        let out = log.take_outbox();
        assert_eq!(out.len(), 1);
        let LogMsg::SyncOk {
            from,
            snapshot: Some(snap),
            entries,
        } = &out[0].1
        else {
            panic!("expected a snapshot-bearing SyncOk, got {:?}", out[0].1);
        };
        assert_eq!(*from, 15);
        assert_eq!(snap.floor, 15);
        let mark = ClientMark {
            prefix: 20,
            above: BTreeSet::new(),
            last: (19, 19),
        };
        assert_eq!(snap.clients, vec![(ProcessId(9), mark)]);
        assert_eq!(entries.len(), 5, "O(tail), not O(log)");
        // A fresh replica boots from it: vectors restart at the floor.
        let mut joiner = unbatched();
        joiner.bind(ProcessId(5));
        joiner.on_member_event(
            MemberEvent::ViewInstalled {
                ver: 1,
                members: vec![ProcessId(0), ProcessId(5)],
                mgr: ProcessId(0),
            },
            41,
        );
        joiner.take_outbox();
        joiner.on_message(ProcessId(0), out[0].1.clone(), 42);
        assert_eq!(joiner.base(), 15);
        assert_eq!(joiner.logical_len(), 20);
        assert_eq!(joiner.committed().len(), 5);
        assert_eq!(joiner.last_sync(), Some((true, 5)));
        // The adopted marks dedup below its base.
        assert_eq!(joiner.committed_slot_of(&cmd(9, 2)), Some(19));
        assert_eq!(joiner.committed_slot_of(&cmd(9, 20)), None);
    }

    #[test]
    fn recover_between_base_and_floor_reports_committed_entries() {
        let mut log = solitary_compacted(20, 4);
        // A new leader probing from slot 10 (< floor 15, ≥ base 0) gets
        // the committed range [10, 15) plus everything accepted above.
        log.on_message(
            ProcessId(1),
            LogMsg::Recover {
                ballot: 7,
                from: 10,
            },
            50,
        );
        let out = log.take_outbox();
        let LogMsg::RecoverOk {
            snapshot: None,
            entries,
            ..
        } = &out[0].1
        else {
            panic!("expected an entry-only RecoverOk, got {:?}", out[0].1);
        };
        assert_eq!(entries.first().map(|e| e.0), Some(10));
        assert_eq!(entries.len(), 10, "[10, 20) with nothing missing");
    }

    // ------------------------------------------------------------------
    // Failover fixes
    // ------------------------------------------------------------------

    #[test]
    fn a_new_leader_re_replies_for_committed_commands() {
        let mut log = unbatched();
        log.bind(ProcessId(1));
        installed(&mut log, 0, 0);
        log.take_outbox();
        // Slot 0 committed under the old leader; its Reply died with it.
        log.on_message(ProcessId(0), decide(0, 0, cmd(9, 0)), 5);
        log.take_outbox();
        log.on_member_event(
            MemberEvent::ViewInstalled {
                ver: 1,
                members: vec![ProcessId(1), ProcessId(2)],
                mgr: ProcessId(1),
            },
            10,
        );
        log.take_outbox();
        recover_ok_empty(&mut log, 2, 1, 11);
        let out = log.take_outbox();
        assert!(
            out.iter().any(
                |(to, m)| *to == ProcessId(9) && matches!(m, LogMsg::Reply { seq: 0, slot: 0 })
            ),
            "recovery completion re-replies the client's highest committed seq"
        );
    }

    #[test]
    fn seqs_committed_out_of_order_leave_the_gap_proposable() {
        // (9,0) commits under the old leader p0, at ballot 0.
        let mut log = unbatched();
        log.bind(ProcessId(1));
        installed(&mut log, 0, 0);
        log.on_message(ProcessId(0), decide(0, 0, cmd(9, 0)), 5);
        // p1 takes over at ballot 1, and the client's (9,3) reaches it
        // before the retries of (9,1) and (9,2): it commits first.
        log.on_member_event(
            MemberEvent::ViewInstalled {
                ver: 1,
                members: vec![ProcessId(1), ProcessId(2)],
                mgr: ProcessId(1),
            },
            10,
        );
        recover_ok_empty(&mut log, 2, 1, 11);
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 3) }, 12);
        log.on_message(ProcessId(2), ack(1, 1), 13);
        assert_eq!(log.committed(), &[cmd(9, 0), cmd(9, 3)]);
        log.take_outbox();
        // The retry of (9,1) is proposed, not answered as committed.
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 1) }, 14);
        let out = log.take_outbox();
        assert!(
            out.iter().any(
                |(_, m)| matches!(m, LogMsg::AcceptBatch { first_slot: 2, cmds, .. } if cmds == &[cmd(9, 1)])
            ),
            "(9,1) must be proposed: {out:?}"
        );
        assert!(!out.iter().any(|(_, m)| matches!(m, LogMsg::Reply { .. })));
        // The snapshot carries the gap: a replica booted from it proposes
        // (9,1) too, and still answers (9,3) as a duplicate.
        let snap = log.snapshot();
        let mut solo = unbatched();
        solo.bind(ProcessId(3));
        solo.on_member_event(
            MemberEvent::ViewInstalled {
                ver: 2,
                members: vec![ProcessId(3)],
                mgr: ProcessId(3),
            },
            20,
        );
        solo.install_snapshot(snap);
        for (seq, committed) in [(0, true), (1, false), (2, false), (3, true)] {
            let found = solo.committed_slot_of(&cmd(9, seq)).is_some();
            assert_eq!(found, committed, "seq {seq}");
        }
        solo.take_outbox();
        solo.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 1) }, 21);
        solo.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 3) }, 22);
        assert_eq!(solo.committed(), &[cmd(9, 1)]);
    }

    #[test]
    fn recovered_commands_are_not_proposed_twice() {
        let mut log = unbatched();
        log.bind(ProcessId(1));
        let members = vec![ProcessId(1), ProcessId(2)];
        log.on_member_event(
            MemberEvent::ViewInstalled {
                ver: 1,
                members,
                mgr: ProcessId(1),
            },
            0,
        );
        log.take_outbox();
        // The client retries to the new leader while it is still probing…
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 0) }, 1);
        assert!(log.take_outbox().is_empty(), "queued behind recovery");
        // …and the same command comes back as a recovered entry.
        log.on_message(
            ProcessId(2),
            LogMsg::RecoverOk {
                ballot: 1,
                snapshot: None,
                entries: vec![(0, 0, cmd(9, 0))],
            },
            2,
        );
        let out = log.take_outbox();
        let accepts: Vec<u64> = out
            .iter()
            .filter_map(|(_, m)| match m {
                LogMsg::AcceptBatch { first_slot, .. } => Some(*first_slot),
                _ => None,
            })
            .collect();
        assert_eq!(accepts, vec![0], "the queued twin is dropped");
    }
}
