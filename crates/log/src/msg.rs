//! Wire format of the replicated log, and the combined envelope that lets
//! log traffic and membership traffic share one simulated network.

use gmp_core::Msg;
use gmp_sim::Message;
use gmp_types::{ProcessId, Ver};
use std::collections::BTreeSet;

/// A client command. The log stores command *identities*; `(client, seq)`
/// is unique because each client numbers its own requests. Slot fillers
/// proposed during leader recovery use [`LogCmd::NOOP`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogCmd {
    /// The issuing client (a process outside the group).
    pub client: ProcessId,
    /// The client's own request counter, starting at 0.
    pub seq: u64,
}

impl LogCmd {
    /// The no-op filler a recovering leader proposes into slots it cannot
    /// otherwise fill (classic multipaxos gap handling). Uses the same
    /// sentinel id space as the membership layer's "unassigned" marker.
    pub const NOOP: LogCmd = LogCmd {
        client: ProcessId(u32::MAX),
        seq: 0,
    };

    /// True for the recovery filler.
    pub fn is_noop(&self) -> bool {
        *self == LogCmd::NOOP
    }
}

/// A compacted summary of everything below a replica's compaction floor:
/// enough for a receiver to serve reads of the dedup state and to accept
/// decides above the floor, without ever seeing the pruned prefix.
///
/// The floor invariant: every slot `< floor` is committed (decided and
/// applied) at the snapshot's producer, and `clients` holds the dedup
/// summary of every client with a command anywhere in `[0, floor)` *or* in
/// the producer's applied suffix (carrying the suffix too costs nothing and
/// lets receivers merge the map wholesale).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// First slot *not* covered: everything below is committed and
    /// summarized here.
    pub floor: u64,
    /// Per-client dedup summaries, sorted by client id.
    pub clients: Vec<(ProcessId, ClientMark)>,
}

/// One client's exactly-once summary: exactly which of its sequence
/// numbers have committed.
///
/// A client's seqs usually commit in order, but not always: with a window
/// of requests in flight, a leader failover can commit a later seq under
/// the new leader before the earlier ones are re-proposed. So the summary
/// is the contiguous committed prefix plus the seqs committed above it —
/// at most one client window of them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientMark {
    /// Every seq below this has committed.
    pub prefix: u64,
    /// The committed seqs above `prefix`.
    pub above: BTreeSet<u64>,
    /// The highest committed seq and its slot: the answer to a duplicate
    /// whose exact slot was compacted away (clients match replies by seq
    /// alone), and the reply a new leader re-sends on failover.
    pub last: (u64, u64),
}

impl ClientMark {
    /// True if `seq` has committed.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        seq < self.prefix || self.above.contains(&seq)
    }

    /// Records that `seq` committed at `slot` (idempotent).
    pub(crate) fn commit(&mut self, seq: u64, slot: u64) {
        if seq >= self.last.0 {
            self.last = (seq, slot);
        }
        if seq >= self.prefix {
            self.above.insert(seq);
        }
        while self.above.remove(&self.prefix) {
            self.prefix += 1;
        }
    }

    /// Adds everything `other` knows to have committed.
    pub(crate) fn merge(&mut self, other: &ClientMark) {
        if other.last.0 >= self.last.0 {
            self.last = other.last;
        }
        self.prefix = self.prefix.max(other.prefix);
        let prefix = self.prefix;
        self.above.extend(&other.above);
        self.above.retain(|&s| s >= prefix);
        while self.above.remove(&self.prefix) {
            self.prefix += 1;
        }
    }
}

/// Replicated-log protocol messages.
///
/// Ballots are GMP view versions: monotone, agreed, and free — the
/// membership layer already paid for the agreement. The steady state is
/// phase-2-only multipaxos over contiguous slot *ranges*
/// (`AcceptBatch`/`AcceptOkRange`/`DecideBatch`), so the message cost per
/// command is amortized by the batch size; an unbatched log sends
/// one-command ranges. Phase 1 exists as the `Recover` round a new leader
/// runs after a view install.
#[derive(Clone, Debug)]
pub enum LogMsg {
    /// Client → leader: append `cmd` to the log.
    Request {
        /// The command to append.
        cmd: LogCmd,
    },
    /// Replica → client: this replica is not the leader; try `leader`.
    Redirect {
        /// The replica's current leader belief (its view's `Mgr`).
        leader: ProcessId,
    },
    /// Leader → client: the command with this `seq` committed into `slot`.
    Reply {
        /// Echo of the client's request counter.
        seq: u64,
        /// The log position the command occupies.
        slot: u64,
    },
    /// Leader → acceptors: accept `cmds` into the contiguous slot range
    /// starting at `first_slot`, at `ballot`.
    AcceptBatch {
        /// The proposing leader's ballot (its view version).
        ballot: Ver,
        /// Slot of `cmds[0]`; `cmds[i]` goes into `first_slot + i`.
        first_slot: u64,
        /// The proposed commands, in slot order.
        cmds: Vec<LogCmd>,
    },
    /// Acceptor → leader: the whole range `[first_slot, first_slot +
    /// count)` is accepted. One message acks a whole `AcceptBatch`.
    AcceptOkRange {
        /// Echo of the batch's ballot.
        ballot: Ver,
        /// Echo of the batch's first slot.
        first_slot: u64,
        /// Number of contiguous slots accepted.
        count: u64,
    },
    /// Leader → replicas: the contiguous range starting at `first_slot`
    /// is decided.
    DecideBatch {
        /// Ballot under which the range was decided.
        ballot: Ver,
        /// Slot of `cmds[0]`.
        first_slot: u64,
        /// The decided commands, in slot order.
        cmds: Vec<LogCmd>,
    },
    /// New leader → view members: report every accepted entry at slot ≥
    /// `from` (the leader's committed length), so in-flight proposals of
    /// the dead leader can be re-proposed at `ballot`.
    Recover {
        /// The new leader's ballot.
        ballot: Ver,
        /// First slot of interest.
        from: u64,
    },
    /// Acceptor → new leader: accepted entries at slot ≥ the recover's
    /// `from`, as `(slot, ballot, cmd)`. When the responder's own log
    /// starts above the requested floor (it booted from a snapshot and
    /// holds nothing below its base), it attaches its current snapshot so
    /// the requester can catch up first.
    RecoverOk {
        /// Echo of the recover's ballot.
        ballot: Ver,
        /// Present iff the responder cannot report entries all the way
        /// down to the requested floor.
        snapshot: Option<Snapshot>,
        /// This acceptor's accepted entries above the requested floor
        /// (above the snapshot's floor, when one is attached).
        entries: Vec<(u64, Ver, LogCmd)>,
    },
    /// Freshly welcomed member → leader: send me the committed prefix from
    /// `from` (state transfer for joiners).
    Sync {
        /// First slot the joiner is missing (its committed length).
        from: u64,
    },
    /// Leader → joiner: state transfer. With compaction idle this is the
    /// committed entries from `from` in slot order, as before; once the
    /// responder's compaction floor has passed `from`, the prefix below
    /// the floor ships as a [`Snapshot`] and `entries` is only the tail
    /// above it — O(tail), not O(log).
    SyncOk {
        /// First slot of `entries`: the sync's `from`, or the snapshot's
        /// floor when one is attached.
        from: u64,
        /// Present iff the responder compacted past the requested `from`.
        snapshot: Option<Snapshot>,
        /// Committed suffix starting at `from`, as `(deciding ballot,
        /// cmd)`.
        entries: Vec<(Ver, LogCmd)>,
    },
}

impl Message for LogMsg {
    fn tag(&self) -> &'static str {
        match self {
            LogMsg::Request { .. } => "log-request",
            LogMsg::Redirect { .. } => "log-redirect",
            LogMsg::Reply { .. } => "log-reply",
            LogMsg::AcceptBatch { .. } => "log-accept-batch",
            LogMsg::AcceptOkRange { .. } => "log-accept-ok-range",
            LogMsg::DecideBatch { .. } => "log-decide-batch",
            LogMsg::Recover { .. } => "log-recover",
            LogMsg::RecoverOk { .. } => "log-recover-ok",
            LogMsg::Sync { .. } => "log-sync",
            LogMsg::SyncOk { .. } => "log-sync-ok",
        }
    }
}

/// The combined wire type of a log-bearing cluster: membership protocol
/// messages and log messages share one network, one trace and one stats
/// table (log tags are `log-*`-prefixed; [`gmp_core::PROTOCOL_TAGS`] keeps
/// counting only the membership side).
#[derive(Clone, Debug)]
pub enum AppMsg {
    /// A membership-protocol message, delivered to the embedded [`Member`]
    /// (see [`Ctx::embedded`](gmp_sim::Ctx::embedded)).
    ///
    /// [`Member`]: gmp_core::Member
    Gmp(Msg),
    /// A replicated-log message, delivered to the [`ReplicatedLog`]
    /// (replicas) or the [`Client`](crate::Client).
    ///
    /// [`ReplicatedLog`]: crate::ReplicatedLog
    Log(LogMsg),
}

impl Message for AppMsg {
    fn tag(&self) -> &'static str {
        match self {
            AppMsg::Gmp(m) => m.tag(),
            AppMsg::Log(m) => m.tag(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_not_a_client_command() {
        assert!(LogCmd::NOOP.is_noop());
        assert!(!LogCmd {
            client: ProcessId(3),
            seq: 0
        }
        .is_noop());
    }

    #[test]
    fn tags_delegate_through_the_envelope() {
        let m = AppMsg::Log(LogMsg::Sync { from: 0 });
        assert_eq!(m.tag(), "log-sync");
        let m = AppMsg::Gmp(Msg::Interrogate);
        assert_eq!(m.tag(), "interrogate");
    }
}
