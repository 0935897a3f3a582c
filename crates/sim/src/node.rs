//! The [`Node`] protocol trait and the effect context [`Ctx`] handed to it.

use crate::Time;
use gmp_types::{Note, ProcessId};
use std::marker::PhantomData;

/// A protocol message. `tag` names the message kind for trace recording and
/// message-complexity accounting (the benchmarks count sends per tag).
pub trait Message: Clone + std::fmt::Debug {
    /// A short, stable name for this message kind (e.g. `"invite"`).
    fn tag(&self) -> &'static str;
}

/// A deterministic protocol state machine driven by the simulator.
///
/// Handlers perform effects exclusively through [`Ctx`]; the simulator
/// applies them in emission order after the handler returns, which keeps
/// the run deterministic and lets a scheduled mid-broadcast crash cut a
/// broadcast short exactly as in the paper's Figure 3.
pub trait Node<M: Message> {
    /// Called once at simulated time 0, in process-id order.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);

    /// Called when a message is delivered to this process.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M);

    /// Called when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64);
}

/// An effect requested by a node handler.
#[derive(Clone, Debug)]
pub(crate) enum Action<M> {
    Send { to: ProcessId, msg: M },
    SetTimer { delay: Time, tag: u64 },
    Note(Note),
    Quit,
}

/// The effect context passed to every [`Node`] handler.
///
/// All interaction with the outside world — sending, timers, quitting,
/// trace annotations — goes through this context so the simulator can
/// record and order it deterministically.
///
/// The lifetime parameter carries no borrow; it keeps handler signatures
/// written as `Ctx<'_, M>`.
pub struct Ctx<'a, M> {
    pub(crate) pid: ProcessId,
    pub(crate) now: Time,
    pub(crate) actions: Vec<Action<M>>,
    pub(crate) lifetime: PhantomData<&'a ()>,
}

impl<M> Ctx<'_, M> {
    pub(crate) fn new(pid: ProcessId, now: Time) -> Self {
        Ctx {
            pid,
            now,
            actions: Vec::new(),
            lifetime: PhantomData,
        }
    }
}

impl<'a, M: Message> Ctx<'a, M> {
    /// This process's identifier.
    pub fn id(&self) -> ProcessId {
        self.pid
    }

    /// Current simulated time. Protocols should treat this as opaque "local
    /// clock" information only (timeouts), never as a global clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to`. Channels are reliable and FIFO unless the
    /// experiment has blocked the link or crashed the receiver.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// `Bcast(p, G, m)` (§3.1): sends `msg` to every process in `to` except
    /// this one. Indivisible in the sense that no other handler of this
    /// process runs in between, but *not* failure-atomic: a scheduled crash
    /// can cut it short after any prefix of the sends.
    ///
    /// The message is cloned once per recipient. For payload-free messages
    /// that clone is trivially cheap; for bulk payloads, wrap them in
    /// [`Shared`](crate::Shared) so one constructed payload fans out to
    /// `n − 1` recipients as O(1) reference bumps instead of deep copies.
    /// (The same holds for a hand-rolled per-target [`send`](Ctx::send)
    /// loop, which is what `gmp-core`'s heartbeat digests use — each
    /// recipient picks a full or empty digest, but all full ones share one
    /// `Shared` snapshot.)
    pub fn broadcast<I>(&mut self, to: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
    {
        for p in to {
            if p != self.pid {
                self.send(p, msg.clone());
            }
        }
    }

    /// Arms a one-shot timer that fires after `delay` ticks, delivering
    /// `tag` to [`Node::on_timer`]. Timers cannot be cancelled: a protocol
    /// that no longer wants one ignores it when it fires.
    pub fn set_timer(&mut self, delay: Time, tag: u64) {
        self.actions.push(Action::SetTimer { delay, tag });
    }

    /// Records a semantic annotation into the trace (e.g. `faulty_p(q)`,
    /// view installation). The GMP property checkers read these.
    pub fn note(&mut self, note: Note) {
        self.actions.push(Action::Note(note));
    }

    /// Executes the event `quit_p`: this process permanently ceases
    /// communication (§2.1). Remaining queued effects of the current handler
    /// are discarded.
    pub fn quit(&mut self) {
        self.actions.push(Action::Quit);
    }

    /// Runs `body` against a context typed for an embedded sub-protocol's
    /// message type `M2`, then lifts every effect the sub-protocol queued
    /// back into this context, wrapping its sends with `wrap`.
    ///
    /// This is how a composite node hosts an inner protocol written against
    /// its own message enum — e.g. a replicated-log replica embedding a
    /// membership `Member`: the inner handler runs unchanged, and its sends
    /// go out on the wire inside the composite's envelope. Effects keep
    /// their emission order relative to each other and to anything the
    /// outer handler queues before or after, so determinism (and the
    /// quit-cuts-the-broadcast semantics) is preserved. Timer tags share
    /// one namespace across layers: composites must partition tags and
    /// route [`Node::on_timer`] to the right layer themselves.
    pub fn embedded<M2, R>(
        &mut self,
        wrap: impl Fn(M2) -> M,
        body: impl FnOnce(&mut Ctx<'_, M2>) -> R,
    ) -> R
    where
        M2: Message,
    {
        let mut inner = Ctx::new(self.pid, self.now);
        let out = body(&mut inner);
        self.actions
            .extend(inner.actions.into_iter().map(|a| match a {
                Action::Send { to, msg } => Action::Send { to, msg: wrap(msg) },
                Action::SetTimer { delay, tag } => Action::SetTimer { delay, tag },
                Action::Note(n) => Action::Note(n),
                Action::Quit => Action::Quit,
            }));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct M0;
    impl Message for M0 {
        fn tag(&self) -> &'static str {
            "m0"
        }
    }

    #[test]
    fn broadcast_skips_self() {
        let mut ctx: Ctx<'_, M0> = Ctx::new(ProcessId(1), 0);
        ctx.broadcast([ProcessId(0), ProcessId(1), ProcessId(2)], M0);
        let targets: Vec<ProcessId> = ctx
            .actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![ProcessId(0), ProcessId(2)]);
    }

    #[derive(Clone, Debug)]
    enum Outer {
        Wrapped(M0),
    }
    impl Message for Outer {
        fn tag(&self) -> &'static str {
            "outer"
        }
    }

    #[test]
    fn embedded_lifts_and_wraps_effects() {
        let mut ctx: Ctx<'_, Outer> = Ctx::new(ProcessId(1), 7);
        ctx.set_timer(5, 100);
        let inner_now = ctx.embedded(Outer::Wrapped, |inner| {
            inner.send(ProcessId(2), M0);
            inner.set_timer(3, 1);
            inner.now()
        });
        // The inner context mirrors identity and clock…
        assert_eq!(inner_now, 7);
        // …and its effects are lifted in order, sends wrapped in the outer
        // enum, after the outer timer.
        let actions = ctx.actions;
        assert_eq!(actions.len(), 3);
        assert!(matches!(
            &actions[0],
            Action::SetTimer { delay: 5, tag: 100 }
        ));
        assert!(matches!(
            &actions[1],
            Action::Send {
                to: ProcessId(2),
                msg: Outer::Wrapped(M0)
            }
        ));
        assert!(matches!(&actions[2], Action::SetTimer { delay: 3, tag: 1 }));
    }
}
