//! The sharded driver: one run's executor spread across worker threads,
//! byte-identical to the sequential driver for every shard count.
//!
//! [`Sim::run_until_sharded`] partitions the processes across `S` shards
//! with the stable function [`shard_of`] (`pid mod S`). Each shard worker
//! owns the process-local half of its processes — node state, clocks,
//! liveness and pending mid-broadcast crashes — and runs the one
//! per-event executor (`exec.rs`) against it. The calling thread is the
//! **sequencer**: it runs the same event loop as [`Sim::run_until`] over
//! the global half, and only the [`Driver`] differs.
//!
//! # Why the merge is deterministic
//!
//! The loop pops events in global `(time, seq)` order and hands each to
//! the driver. Instead of executing it inline, this driver sends it, as a
//! timestamped envelope, to the shard owning its process, so consecutive
//! events at one timestamp — a *batch* — execute concurrently. A shard
//! only ever sees its own processes, in the global order restricted to
//! them, so everything process-local replays exactly as it would inline.
//! The executor records each event's global effects into a bundle instead
//! of applying them, and the sequencer replays the bundles **in dispatch
//! order** through the global half's own effect handler. Every global
//! allocation (message ids, queue sequence numbers, per-message delay
//! draws from the run RNG) therefore happens at exactly the position in
//! the run where the sequential driver performs it, which is what pins
//! the trace byte-identical for every `S` (`tests/sharding.rs`,
//! `tests/determinism.rs`).
//!
//! # The conservative frontier barrier
//!
//! A batch never crosses a timestamp: messages have delay ≥ 1 tick
//! (asserted by the network model), so nothing executed at time `t` can
//! schedule new work at time `t` with a smaller sequence number — the
//! lookahead that makes the same-instant window safe, the classic
//! conservative-PDES argument. Fault-injection controls (partitions,
//! blocks, delay overrides, crash arming) are barriers: all outstanding
//! bundles are applied before one executes, so link state is constant
//! within a batch and the sequencer can evaluate message fates at
//! dispatch time.

use crate::engine::{Driver, Global, Sim};
use crate::exec::{Effect, Effects, Local, Slot, Work};
use crate::node::{Message, Node};
use crate::Time;
use gmp_types::ProcessId;
use std::sync::mpsc::{Receiver, Sender};

/// The stable shard partition: process `pid` is owned by shard
/// `pid mod shards`.
///
/// Every process lands in exactly one shard, the assignment depends only
/// on `(pid, shards)`, and with `shards == 1` everything collapses onto
/// shard 0 — which is why the single-shard sharded run exercises the full
/// dispatch machinery on one worker.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of(pid: ProcessId, shards: usize) -> usize {
    assert!(shards >= 1, "shard count must be at least 1");
    pid.index() % shards
}

/// An effect bundle, or the payload of a panic raised inside a shard-side
/// handler (re-raised on the sequencer thread so the caller sees the
/// original message).
type Bundle<M> = Result<Vec<Effect<M>>, Box<dyn std::any::Any + Send>>;

/// The sharded driver: one work channel and one bundle channel per shard.
struct Shards<M> {
    txs: Vec<Sender<(Time, Work<M>)>>,
    rxs: Vec<Receiver<Bundle<M>>>,
    /// Owning shard of each dispatched unit of work whose bundle is still
    /// to be applied, in dispatch order.
    order: Vec<usize>,
}

impl<M> Driver<M> for Shards<M> {
    fn submit(&mut self, g: &mut Global<M>, work: Work<M>) {
        let sh = shard_of(work.pid(), self.txs.len());
        self.txs[sh]
            .send((g.time, work))
            .expect("shard worker alive");
        self.order.push(sh);
    }

    fn flush(&mut self, g: &mut Global<M>) -> bool {
        if self.order.is_empty() {
            return false;
        }
        for sh in self.order.drain(..) {
            match self.rxs[sh].recv() {
                Ok(Ok(fx)) => fx.into_iter().for_each(|e| g.emit(e)),
                Ok(Err(panic)) => std::panic::resume_unwind(panic),
                Err(_) => panic!("shard worker terminated unexpectedly"),
            }
        }
        true
    }
}

/// A shard worker: executes each dispatched unit of work against its
/// table and answers with the recorded bundle; hands the table back when
/// the work channel closes.
fn serve<M: Message, N: Node<M>>(
    mut part: Local<N>,
    rx: Receiver<(Time, Work<M>)>,
    tx: Sender<Bundle<M>>,
) -> Local<N> {
    for (time, work) in rx {
        let mut fx = Vec::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            part.execute(time, work, &mut fx)
        }));
        let failed = result.is_err();
        if tx.send(result.map(|()| fx)).is_err() || failed {
            // Channel gone, or the table is torn mid-panic: stop
            // executing; the sequencer re-raises.
            break;
        }
    }
    part
}

/// Exchanges each process's slot between `local` and its owning shard's
/// table.
fn swap_slots<N>(local: &mut Local<N>, parts: &mut [Local<N>]) {
    for (i, slot) in local.slots.iter_mut().enumerate() {
        let sh = shard_of(ProcessId(i as u32), parts.len());
        std::mem::swap(slot, &mut parts[sh].slots[i]);
    }
}

impl<M: Message + Send, N: Node<M> + Send> Sim<M, N> {
    /// Runs the simulation like [`Sim::run_until`], but with the event
    /// loop sharded across `shards` worker threads.
    ///
    /// Output is **byte-identical** to the single-threaded engine for
    /// every shard count: the same trace, statistics, statuses and node
    /// states, pinned by `tests/sharding.rs` and the golden fingerprints
    /// in `tests/determinism.rs`. Sharded and sequential segments can be
    /// freely mixed within one run (e.g. `run_until(500)` followed by
    /// `run_until_sharded(1_000, 4)`).
    ///
    /// Parallelism comes from batches of same-timestamp events executing
    /// concurrently on their owning shards (see the module docs for the
    /// frontier argument); on a single-core host the sharded path is pure
    /// overhead — it exists for multicore scaling at large `n` and as the
    /// equivalence oracle for the sharded dispatch machinery itself.
    ///
    /// `shards` is clamped to `min(shards, members, available cores)`:
    /// a shard above that bound owns no work (or has no core to run on)
    /// and is pure scheduling overhead — the E12 ledger showed shards=8
    /// *regressing below sequential* at n=512 on small hosts. The clamp
    /// is announced on stderr (never the trace, which stays identical at
    /// every shard count).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or if the simulation has no nodes, and
    /// re-raises any panic of a node handler.
    pub fn run_until_sharded(&mut self, until: Time, shards: usize) {
        assert!(shards >= 1, "shard count must be at least 1");
        let n = self.n();
        let cores = crate::pool::available_jobs().get();
        let cap = n.max(1).min(cores);
        let shards = if shards > cap {
            eprintln!(
                "note: clamping shards {shards} -> {cap} ({n} members, {cores} cores); \
                 output is identical at every shard count"
            );
            cap
        } else {
            shards
        };
        let start = self.begin();

        // Carve the process-local half out into per-shard tables.
        let mut parts: Vec<Local<N>> = (0..shards)
            .map(|_| Local {
                slots: (0..n).map(|_| Slot::vacant()).collect(),
            })
            .collect();
        swap_slots(&mut self.local, &mut parts);
        let global = &mut self.global;
        let mut parts: Vec<Local<N>> = std::thread::scope(|scope| {
            let mut driver = Shards {
                txs: Vec::with_capacity(shards),
                rxs: Vec::with_capacity(shards),
                order: Vec::new(),
            };
            let mut handles = Vec::with_capacity(shards);
            for part in parts {
                let (tx, work_rx) = std::sync::mpsc::channel();
                let (bundle_tx, rx) = std::sync::mpsc::channel();
                handles.push(scope.spawn(move || serve(part, work_rx, bundle_tx)));
                driver.txs.push(tx);
                driver.rxs.push(rx);
            }
            global.run(&mut driver, start, until);
            drop(driver); // workers drain and return their tables
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        swap_slots(&mut self.local, &mut parts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockMode, Builder, Ctx, TraceKind};
    use gmp_types::Note;

    #[derive(Clone, Debug)]
    enum TMsg {
        Ping(u32),
        Pong(#[allow(dead_code)] u32),
    }
    impl Message for TMsg {
        fn tag(&self) -> &'static str {
            match self {
                TMsg::Ping(_) => "ping",
                TMsg::Pong(_) => "pong",
            }
        }
    }

    /// Every node periodically pings a rotating target, pongs back, notes
    /// milestones, and re-arms timers — enough surface to cross shards
    /// constantly.
    struct Chatter {
        n: u32,
        round: u32,
        pongs: u32,
    }

    impl Node<TMsg> for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.set_timer(5 + u64::from(ctx.id().0 % 3), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, from: ProcessId, msg: TMsg) {
            match msg {
                TMsg::Ping(x) => ctx.send(from, TMsg::Pong(x)),
                TMsg::Pong(_) => {
                    self.pongs += 1;
                    if self.pongs.is_multiple_of(4) {
                        ctx.note(Note::Custom(format!("pongs={}", self.pongs)));
                    }
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, tag: u64) {
            if tag != 1 {
                return;
            }
            self.round += 1;
            let target = ProcessId((ctx.id().0 + self.round) % self.n);
            if target != ctx.id() {
                ctx.send(target, TMsg::Ping(self.round));
            }
            if self.round < 40 {
                ctx.set_timer(5, 1);
            }
        }
    }

    fn chatter(n: u32, seed: u64) -> Sim<TMsg, Chatter> {
        let mut sim = Builder::new().seed(seed).delay(1, 7).build();
        for _ in 0..n {
            sim.add_node(Chatter {
                n,
                round: 0,
                pongs: 0,
            });
        }
        sim
    }

    /// Full observable snapshot of a finished run: every trace field,
    /// every statistic, every status.
    fn snapshot<M: Message, N: Node<M>>(sim: &Sim<M, N>) -> (Vec<String>, crate::Stats, Vec<bool>) {
        let events = sim
            .trace()
            .events
            .iter()
            .map(|e| {
                format!(
                    "t={} pid={} lamport={} vc={:?} kind={:?}",
                    e.time, e.pid, e.lamport, e.vc, e.kind
                )
            })
            .collect();
        let statuses = (0..sim.n())
            .map(|i| sim.status(ProcessId(i as u32)).is_up())
            .collect();
        (events, sim.stats().clone(), statuses)
    }

    #[test]
    fn sharded_chatter_matches_sequential_for_every_shard_count() {
        let mut reference = chatter(7, 42);
        reference.run_until(2_000);
        let want = snapshot(&reference);
        assert!(want.0.len() > 100, "scenario must be non-trivial");
        for shards in [1, 2, 3, 4, 8, 16] {
            let mut sim = chatter(7, 42);
            sim.run_until_sharded(2_000, shards);
            assert_eq!(snapshot(&sim), want, "shards={shards}");
        }
    }

    #[test]
    fn sharded_and_sequential_segments_mix_within_one_run() {
        let mut reference = chatter(6, 7);
        reference.run_until(3_000);
        let want = snapshot(&reference);

        let mut sim = chatter(6, 7);
        sim.run_until_sharded(500, 4); // sharded start
        sim.run_until(1_200); // sequential middle
        sim.run_until_sharded(2_100, 2); // different shard count
        sim.run_until_sharded(3_000, 3);
        assert_eq!(snapshot(&sim), want);
    }

    #[test]
    fn crashes_and_mid_broadcast_crashes_replay_identically() {
        let build = || {
            let mut sim = chatter(6, 13);
            sim.crash_at(ProcessId(5), 40);
            sim.crash_after_sends_at(ProcessId(1), 0, Some("ping"), 3);
            sim.crash_after_sends_at(ProcessId(2), 60, None, 2);
            // Zero remaining sends: p3 crashes as the control fires.
            sim.crash_after_sends_at(ProcessId(3), 50, None, 0);
            sim
        };
        let mut reference = build();
        reference.run_until(2_000);
        let want = snapshot(&reference);
        assert!(
            !want.2[1] && !want.2[2] && !want.2[3] && !want.2[5],
            "all four crashes must land"
        );
        let p3: Vec<_> = reference
            .trace()
            .events
            .iter()
            .filter(|e| e.pid == ProcessId(3))
            .collect();
        let last = p3.last().expect("p3 took steps");
        assert!(
            matches!(last.kind, TraceKind::Crash) && last.time == 50,
            "p3's last event must be its crash at t=50, got {last:?}"
        );
        for shards in [1, 2, 4, 8] {
            let mut sim = build();
            sim.run_until_sharded(2_000, shards);
            assert_eq!(snapshot(&sim), want, "shards={shards}");
        }
    }

    #[test]
    fn link_controls_and_partitions_replay_identically() {
        let build = || {
            let mut sim = chatter(6, 99);
            sim.block_link_at(ProcessId(0), ProcessId(3), BlockMode::Hold, 10);
            sim.unblock_link_at(ProcessId(0), ProcessId(3), 600);
            sim.block_link_at(ProcessId(4), ProcessId(1), BlockMode::Drop, 25);
            sim.unblock_link_at(ProcessId(4), ProcessId(1), 800);
            sim.set_link_delay_at(ProcessId(2), ProcessId(0), Some((30, 60)), 50);
            sim.partition_at(
                &[
                    &[ProcessId(0), ProcessId(1), ProcessId(2)],
                    &[ProcessId(3), ProcessId(4), ProcessId(5)],
                ],
                900,
            );
            sim.heal_at(1_400);
            sim
        };
        let mut reference = build();
        reference.run_until(2_500);
        let want = snapshot(&reference);
        assert!(want.1.held == 0, "heal must release everything");
        for shards in [1, 2, 4, 8] {
            let mut sim = build();
            sim.run_until_sharded(2_500, shards);
            assert_eq!(snapshot(&sim), want, "shards={shards}");
        }
    }

    #[test]
    fn quitting_mid_batch_still_drops_same_instant_deliveries() {
        // A node that quits on its first received message: any further
        // deliveries — including ones in the same timestamp batch — must
        // count as dropped_dead_receiver, exactly like the sequential
        // engine decides.
        struct Quitter;
        impl Node<TMsg> for Quitter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
                if ctx.id() == ProcessId(0) {
                    // Two pings to p2 over the same link land on distinct
                    // ticks (FIFO), but pings from p0 and p1 can collide.
                    ctx.send(ProcessId(2), TMsg::Ping(0));
                }
                if ctx.id() == ProcessId(1) {
                    ctx.send(ProcessId(2), TMsg::Ping(1));
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, _from: ProcessId, _msg: TMsg) {
                ctx.quit();
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, TMsg>, _tag: u64) {}
        }
        for seed in 0..32u64 {
            let build = || {
                let mut sim: Sim<TMsg, Quitter> = Builder::new().seed(seed).delay(1, 2).build();
                for _ in 0..3 {
                    sim.add_node(Quitter);
                }
                sim
            };
            let mut reference = build();
            reference.run_until(100);
            let want = snapshot(&reference);
            for shards in [2, 3] {
                let mut sim = build();
                sim.run_until_sharded(100, shards);
                assert_eq!(snapshot(&sim), want, "seed={seed} shards={shards}");
            }
        }
    }

    mod partition_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Every process lands in exactly one shard, and the
            /// assignment is a pure function of (pid, shards).
            #[test]
            fn every_member_lands_in_exactly_one_stable_shard(
                n in 1usize..512,
                shards in 1usize..32,
            ) {
                let mut owned = vec![0u32; n];
                for sh in 0..shards {
                    for (pid, count) in owned.iter_mut().enumerate() {
                        if shard_of(ProcessId(pid as u32), shards) == sh {
                            *count += 1;
                        }
                    }
                }
                prop_assert!(owned.iter().all(|&c| c == 1),
                    "each pid must be claimed by exactly one shard");
                for pid in 0..n {
                    let p = ProcessId(pid as u32);
                    let first = shard_of(p, shards);
                    prop_assert!(first < shards);
                    prop_assert_eq!(first, shard_of(p, shards), "partition must be stable");
                }
            }
        }
    }
}
