//! The per-event executor and the process-local half of a run it owns.
//!
//! A run's state splits in two. The **process-local half** ([`Local`]) is
//! one [`Slot`] per process: node state, liveness, vector and Lamport
//! clocks, and any pending mid-broadcast crash countdown. Everything else
//! — the queue, the run RNG, `seq`/`msg_id` allocation, link state, held
//! messages, statistics and the trace — is the **global half**
//! (`engine::Global`), whose mutation order is visible in the output.
//!
//! [`Local::execute`] is the only code that runs a handler. Given one unit
//! of [`Work`] it checks liveness, stamps and records the triggering
//! event, calls the [`Node`] handler, and applies the handler's actions
//! in emission order until a quit or crash cuts them off. It never
//! touches the global half directly: every global effect goes out as an
//! [`Effect`] through the narrow [`Effects`] interface, in the exact order
//! the event produces it. The sequential driver implements that interface
//! on the global half itself, applying each effect on the spot; a shard
//! worker implements it by recording the effects into a bundle the
//! sequencer later replays through the same global-half code. Both
//! therefore produce the same run, byte for byte.

use crate::engine::InFlight;
use crate::net::BlockMode;
use crate::node::{Action, Ctx, Message, Node};
use crate::trace::{TraceEvent, TraceKind};
use crate::{NodeStatus, Time};
use gmp_causality::{CowClock, LamportClock};
use gmp_types::ProcessId;

/// One process's share of the process-local half.
pub(crate) struct Slot<N> {
    /// `None` only while a handler runs (or for a slot another shard owns).
    pub(crate) node: Option<N>,
    pub(crate) status: NodeStatus,
    /// Copy-on-write working clock: stamping an event is an O(1) snapshot,
    /// and the vector is deep-copied only on the first advance after a
    /// snapshot (see `gmp_causality::CowClock`).
    pub(crate) vc: CowClock,
    pub(crate) lamport: LamportClock,
    /// Pending mid-broadcast crash (Figure 3), if one is armed.
    pub(crate) crash_after: Option<SendCrash>,
}

impl<N> Slot<N> {
    pub(crate) fn new(node: N) -> Self {
        Slot {
            node: Some(node),
            ..Slot::vacant()
        }
    }

    /// A placeholder for a process this table does not own.
    pub(crate) fn vacant() -> Self {
        Slot {
            node: None,
            status: NodeStatus::Up,
            vc: CowClock::default(),
            lamport: LamportClock::new(),
            crash_after: None,
        }
    }
}

/// A scheduled mid-broadcast crash (Figure 3): the process may perform
/// `remaining` more sends (optionally only those matching `tag`) and is
/// then crashed immediately after the final matching send.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendCrash {
    pub(crate) tag: Option<&'static str>,
    pub(crate) remaining: u32,
}

/// The process-local half of a run: a dense, pid-indexed slot table. A
/// shard worker holds a full-length table in which only its own processes'
/// slots are populated.
pub(crate) struct Local<N> {
    pub(crate) slots: Vec<Slot<N>>,
}

/// One unit of process-local work, derived from a queue event by the
/// global half.
pub(crate) enum Work<M> {
    Start(ProcessId),
    Deliver {
        inf: InFlight<M>,
        /// The link's fate, evaluated by the global half when the event was
        /// popped (link state changes only at controls, which never share
        /// a batch with other work).
        fate: Option<BlockMode>,
    },
    Timer {
        pid: ProcessId,
        tag: u64,
    },
    Crash(ProcessId),
    Arm {
        pid: ProcessId,
        crash: SendCrash,
    },
}

impl<M> Work<M> {
    /// The process whose slot this work touches.
    pub(crate) fn pid(&self) -> ProcessId {
        match self {
            Work::Start(pid) | Work::Crash(pid) => *pid,
            Work::Timer { pid, .. } | Work::Arm { pid, .. } => *pid,
            Work::Deliver { inf, .. } => inf.to,
        }
    }
}

/// One global effect of an executed event, in emission order.
pub(crate) enum Effect<M> {
    /// A fully stamped trace event: a pre-event, a note, or a crash/quit.
    Trace(TraceEvent),
    /// A send, stamped with the sender's clocks after its tick but with
    /// its message id still 0: the global half allocates the id, records
    /// the send and routes the message.
    Send(InFlight<M>),
    /// Arms a timer for `pid` at absolute time `at`.
    Timer { at: Time, pid: ProcessId, tag: u64 },
    /// A delivery to a crashed or quit process.
    DeadReceiver,
    /// A delivery that met a blocked link: held or lost.
    Blocked(InFlight<M>, BlockMode),
    /// A delivery that went through (accounted before its receive event).
    Delivered(&'static str),
}

/// Where the executor sends global effects.
pub(crate) trait Effects<M> {
    fn emit(&mut self, effect: Effect<M>);
}

/// A shard worker's bundle: effects recorded for later replay.
impl<M> Effects<M> for Vec<Effect<M>> {
    fn emit(&mut self, effect: Effect<M>) {
        self.push(effect);
    }
}

impl<N> Local<N> {
    /// Executes one unit of work at `time` against this table.
    pub(crate) fn execute<M, E>(&mut self, time: Time, work: Work<M>, fx: &mut E)
    where
        M: Message,
        N: Node<M>,
        E: Effects<M>,
    {
        match work {
            Work::Start(pid) => {
                if self.tick_if_up(pid) {
                    self.invoke(time, pid, TraceKind::Start, fx, |node, ctx| {
                        node.on_start(ctx)
                    });
                }
            }
            Work::Timer { pid, tag } => {
                if self.tick_if_up(pid) {
                    let kind = TraceKind::Timer { tag };
                    self.invoke(time, pid, kind, fx, |node, ctx| node.on_timer(ctx, tag));
                }
            }
            Work::Deliver { inf, fate } => {
                let slot = &mut self.slots[inf.to.index()];
                // Liveness before link fate: a message to a dead process is
                // dropped even on a blocked link.
                if !slot.status.is_up() {
                    fx.emit(Effect::DeadReceiver);
                } else if let Some(mode) = fate {
                    fx.emit(Effect::Blocked(inf, mode));
                } else {
                    fx.emit(Effect::Delivered(inf.tag));
                    let InFlight {
                        from,
                        to,
                        msg,
                        msg_id,
                        tag,
                        send_vc,
                        send_lamport,
                    } = inf;
                    slot.vc.observe(&send_vc);
                    slot.lamport.merge(send_lamport); // merges, then ticks
                    let kind = TraceKind::Recv { from, msg_id, tag };
                    self.invoke(time, to, kind, fx, |node, ctx| {
                        node.on_message(ctx, from, msg)
                    });
                }
            }
            Work::Crash(pid) => {
                if self.slots[pid.index()].status.is_up() {
                    self.halt(time, pid, NodeStatus::Crashed, fx);
                }
            }
            Work::Arm { pid, crash } => self.slots[pid.index()].crash_after = Some(crash),
        }
    }

    /// Ticks the Lamport clock of a live process for a local event; false
    /// if the process is down.
    fn tick_if_up(&mut self, pid: ProcessId) -> bool {
        let slot = &mut self.slots[pid.index()];
        let up = slot.status.is_up();
        if up {
            slot.lamport.tick();
        }
        up
    }

    /// Completes the stamp of the triggering event (its Lamport clock has
    /// already advanced) and records it, runs the handler, then applies
    /// the handler's actions.
    fn invoke<M, E>(
        &mut self,
        time: Time,
        pid: ProcessId,
        kind: TraceKind,
        fx: &mut E,
        handler: impl FnOnce(&mut N, &mut Ctx<'_, M>),
    ) where
        M: Message,
        E: Effects<M>,
    {
        let idx = pid.index();
        let slot = &mut self.slots[idx];
        slot.vc.tick(idx);
        fx.emit(Effect::Trace(TraceEvent {
            time,
            pid,
            lamport: slot.lamport.value(),
            vc: slot.vc.stamp(),
            kind,
        }));
        let mut node = slot.node.take().expect("node present");
        let mut ctx = Ctx::new(pid, time);
        handler(&mut node, &mut ctx);
        self.slots[idx].node = Some(node);
        self.apply_actions(time, pid, ctx.actions, fx);
    }

    fn apply_actions<M, E>(
        &mut self,
        time: Time,
        pid: ProcessId,
        actions: Vec<Action<M>>,
        fx: &mut E,
    ) where
        M: Message,
        E: Effects<M>,
    {
        let idx = pid.index();
        let n = self.slots.len();
        for action in actions {
            let slot = &mut self.slots[idx];
            if !slot.status.is_up() {
                break; // quit/crash mid-handler: remaining effects are lost
            }
            match action {
                Action::Send { to, msg } => {
                    assert!(to.index() < n, "send to unknown process {to}");
                    let tag = msg.tag();
                    slot.vc.tick(idx);
                    let lamport = slot.lamport.tick();
                    fx.emit(Effect::Send(InFlight {
                        from: pid,
                        to,
                        msg,
                        msg_id: 0,
                        tag,
                        send_vc: slot.vc.stamp(),
                        send_lamport: lamport,
                    }));
                    // Mid-broadcast crash bookkeeping (Figure 3).
                    if let Some(sc) = slot.crash_after.as_mut() {
                        if sc.tag.is_none_or(|f| f == tag) {
                            sc.remaining -= 1;
                            if sc.remaining == 0 {
                                slot.crash_after = None;
                                self.halt(time, pid, NodeStatus::Crashed, fx);
                            }
                        }
                    }
                }
                Action::SetTimer { delay, tag } => fx.emit(Effect::Timer {
                    at: time + delay,
                    pid,
                    tag,
                }),
                Action::Note(note) => fx.emit(Effect::Trace(TraceEvent {
                    time,
                    pid,
                    lamport: slot.lamport.value(),
                    vc: slot.vc.stamp(),
                    kind: TraceKind::Note(note),
                })),
                Action::Quit => self.halt(time, pid, NodeStatus::Quit, fx),
            }
        }
    }

    /// Records a crash or quit with a fresh stamp and takes the process
    /// down.
    fn halt<M, E: Effects<M>>(
        &mut self,
        time: Time,
        pid: ProcessId,
        status: NodeStatus,
        fx: &mut E,
    ) {
        let slot = &mut self.slots[pid.index()];
        slot.vc.tick(pid.index());
        let lamport = slot.lamport.tick();
        let kind = match status {
            NodeStatus::Quit => TraceKind::Quit,
            _ => TraceKind::Crash,
        };
        fx.emit(Effect::Trace(TraceEvent {
            time,
            pid,
            lamport,
            vc: slot.vc.stamp(),
            kind,
        }));
        slot.status = status;
    }
}
