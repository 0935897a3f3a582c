//! The traced run: the same cluster built over benchmark-side wrapper
//! nodes that time every call into a layer's public handlers.
//!
//! Each `on_start`/`on_message`/`on_timer` call becomes a span with a
//! layer, a kind, start and end, allocations, and a parent: the run span,
//! or for a replica's membership call the member span around the log's
//! event pump. Spans of `Request` and `Reply` messages carry their
//! `LogCmd`. Spans stay in memory and are written out after the run.
//!
//! Layers: `member` (`gmp-core`'s `Member`, with its detector and
//! topology), `log` (`ReplicatedLog` inside a replica), `client`
//! (`gmp-log`'s `Client`), and `sim` (the engine, network and causal
//! stamping of `gmp-sim`): whatever time and allocations fall outside
//! every handler.

use crate::alloc::Allocs;
use crate::workload::{self, AsLogProc, AsMember, Outcome, Shape, Workload, REPLICAS};
use gmp_core::{Member, Msg};
use gmp_log::{AppMsg, Client, LogCmd, LogMsg, LogProc, Replica, ReplicatedLog, LOG_FLUSH};
use gmp_sim::{Builder, Ctx, Node, Sim};
use gmp_types::{ProcessId, Ver, View};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The layer a span's work belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Sim,
    Member,
    Log,
    Client,
}

/// What a span did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// The run span: `run_until` over the whole schedule.
    Run,
    /// Membership: a heartbeat delivery.
    Heartbeat,
    /// Membership: any other protocol message.
    Protocol,
    /// Membership: `on_start` or a timer.
    Timer,
    /// Log: a log message at a replica.
    Msg,
    /// Log: the batch flush timer.
    Flush,
    /// Log: membership events and outbox pumped after a member call.
    Event,
    /// Client: a reply or redirect.
    Reply,
    /// Client: the issue/retry timer.
    Tick,
}

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub parent: u32,
    pub layer: Layer,
    pub kind: Kind,
    pub pid: u32,
    pub start: Instant,
    pub end: Instant,
    pub allocs: Allocs,
    pub cmd: Option<LogCmd>,
}

/// Spans and the observations made between calls.
pub struct Recorder {
    pub spans: Vec<Span>,
    /// Allocations made by the recorder itself outside any span.
    pub overhead: Allocs,
    /// Crash schedule, for exclusion observation.
    crashes: Vec<(ProcessId, u64)>,
    /// Members that observe exclusions: the survivors of the initial view
    /// (a later joiner never held a victim in its view).
    observers: BTreeSet<ProcessId>,
    /// Last version seen per process.
    last_ver: BTreeMap<ProcessId, Ver>,
    pub views_installed: u64,
    pub exclusions: BTreeMap<(ProcessId, ProcessId), u64>,
    /// Commands whose `Reply` a client accepted as an acknowledgement.
    pub acked: Vec<LogCmd>,
    /// Distinct `AcceptBatch`es seen by acceptors: `(ballot, first slot)`
    /// to command count.
    pub batches: BTreeMap<(Ver, u64), usize>,
}

type Rec = Rc<RefCell<Recorder>>;

impl Recorder {
    fn new(w: &Workload, capacity: usize) -> Rec {
        let crashes = w.crashes();
        Rc::new(RefCell::new(Recorder {
            spans: Vec::with_capacity(capacity),
            overhead: Allocs::default(),
            observers: workload::survivors(w)
                .into_iter()
                .filter(|p| (p.0 as usize) < w.members() - w.join_at().is_some() as usize)
                .collect(),
            crashes,
            last_ver: BTreeMap::new(),
            views_installed: 0,
            exclusions: BTreeMap::new(),
            acked: Vec::new(),
            batches: BTreeMap::new(),
        }))
    }

    /// Opens a span; its clock starts after the bookkeeping.
    fn open(&mut self, parent: u32, layer: Layer, kind: Kind, pid: ProcessId) -> u32 {
        let a = Allocs::now();
        let id = self.spans.len() as u32;
        let now = Instant::now();
        self.spans.push(Span {
            parent,
            layer,
            kind,
            pid: pid.0,
            start: now,
            end: now,
            allocs: Allocs::default(),
            cmd: None,
        });
        self.overhead += Allocs::now() - a;
        let s = &mut self.spans[id as usize];
        s.allocs = Allocs::now();
        s.start = Instant::now();
        id
    }

    /// Closes a span: its clock stops before the bookkeeping.
    fn close(&mut self, id: u32) {
        let end = Instant::now();
        let a = Allocs::now();
        let s = &mut self.spans[id as usize];
        s.end = end;
        s.allocs = a - s.allocs;
    }

    /// After a member call: count version changes and record exclusions
    /// of crashed victims from this member's view.
    fn observe(&mut self, pid: ProcessId, m: &Member, now: u64) {
        let a = Allocs::now();
        let ver = m.ver();
        if self.last_ver.insert(pid, ver) != Some(ver) && ver > 0 {
            self.views_installed += 1;
            if self.observers.contains(&pid) {
                let view: &View = m.view();
                for &(v, at) in &self.crashes {
                    if at <= now && !view.contains(v) {
                        self.exclusions.entry((v, pid)).or_insert(now - at);
                    }
                }
            }
        }
        self.overhead += Allocs::now() - a;
    }

    fn note(&mut self, f: impl FnOnce(&mut Recorder)) {
        let a = Allocs::now();
        f(self);
        self.overhead += Allocs::now() - a;
    }
}

/// Runs `f` inside a span.
fn timed<R>(
    rec: &Rec,
    parent: u32,
    layer: Layer,
    kind: Kind,
    pid: ProcessId,
    f: impl FnOnce() -> R,
) -> (u32, R) {
    let id = rec.borrow_mut().open(parent, layer, kind, pid);
    let r = f();
    rec.borrow_mut().close(id);
    (id, r)
}

/// Span id of the run span: the parent of every handler span.
const RUN: u32 = 0;

fn member_kind(msg: &Msg) -> Kind {
    match msg {
        Msg::Heartbeat { .. } => Kind::Heartbeat,
        _ => Kind::Protocol,
    }
}

/// A membership member behind a timing wrapper.
pub struct TracedMember {
    member: Member,
    rec: Rec,
}

impl AsMember for TracedMember {
    fn as_member(&self) -> &Member {
        &self.member
    }
}

impl TracedMember {
    fn call(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        kind: Kind,
        f: impl FnOnce(&mut Member, &mut Ctx<'_, Msg>),
    ) {
        let TracedMember { member, rec } = self;
        let pid = ctx.id();
        timed(rec, RUN, Layer::Member, kind, pid, || f(member, ctx));
        rec.borrow_mut().observe(pid, member, ctx.now());
    }
}

impl Node<Msg> for TracedMember {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.call(ctx, Kind::Timer, |m, c| m.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
        self.call(ctx, member_kind(&msg), |m, c| m.on_message(c, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        self.call(ctx, Kind::Timer, |m, c| m.on_timer(c, tag));
    }
}

/// A log-cluster process behind a timing wrapper. Replicas are driven
/// through their public `member` and `log` fields, mirroring the
/// repository's `Replica` node step for step so the membership call and
/// the log's event pump get separate spans; clients are driven through
/// `LogProc`'s own handlers.
pub struct TracedLog {
    proc: LogProc,
    rec: Rec,
}

impl AsLogProc for TracedLog {
    fn as_log_proc(&self) -> &LogProc {
        &self.proc
    }
}

/// Sends the log's outbox and arms the batch flush when asked, as the
/// repository's replica node does after every log interaction.
fn drain_log(log: &mut ReplicatedLog, ctx: &mut Ctx<'_, AppMsg>) {
    for (to, m) in log.take_outbox() {
        ctx.send(to, AppMsg::Log(m));
    }
    if log.take_flush_request() {
        ctx.set_timer(1, LOG_FLUSH);
    }
}

/// A membership call inside a replica: the member runs in an embedded
/// context, then its drained events are pumped into the log (a child span
/// of the `log` layer).
fn replica_member_call(
    r: &mut Replica,
    rec: &Rec,
    ctx: &mut Ctx<'_, AppMsg>,
    kind: Kind,
    f: impl FnOnce(&mut Member, &mut Ctx<'_, Msg>),
) {
    let pid = ctx.id();
    let Replica { member, log } = r;
    let id = rec.borrow_mut().open(RUN, Layer::Member, kind, pid);
    ctx.embedded(AppMsg::Gmp, |inner| f(member, inner));
    timed(rec, id, Layer::Log, Kind::Event, pid, || {
        let now = ctx.now();
        for ev in member.take_events() {
            log.on_member_event(ev, now);
        }
        drain_log(log, ctx);
    });
    rec.borrow_mut().close(id);
    rec.borrow_mut().observe(pid, member, ctx.now());
}

impl Node<AppMsg> for TracedLog {
    fn on_start(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        let TracedLog { proc, rec } = self;
        match proc {
            LogProc::Replica(r) => {
                r.log.bind(ctx.id());
                replica_member_call(r, rec, ctx, Kind::Timer, |m, c| m.on_start(c));
            }
            LogProc::Client(_) => {
                timed(rec, RUN, Layer::Client, Kind::Tick, ctx.id(), || {
                    proc.on_start(ctx)
                });
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, AppMsg>, from: ProcessId, msg: AppMsg) {
        let TracedLog { proc, rec } = self;
        let pid = ctx.id();
        match proc {
            LogProc::Replica(r) => match msg {
                AppMsg::Gmp(m) => {
                    let kind = member_kind(&m);
                    replica_member_call(r, rec, ctx, kind, |mem, c| mem.on_message(c, from, m));
                }
                AppMsg::Log(m) => {
                    let cmd = match &m {
                        LogMsg::Request { cmd } => Some(*cmd),
                        LogMsg::AcceptBatch {
                            ballot,
                            first_slot,
                            cmds,
                        } => {
                            let key = (*ballot, *first_slot);
                            let len = cmds.len();
                            rec.borrow_mut().note(|r| {
                                r.batches.insert(key, len);
                            });
                            None
                        }
                        _ => None,
                    };
                    let (id, ()) = timed(rec, RUN, Layer::Log, Kind::Msg, pid, || {
                        r.log.on_message(from, m, ctx.now());
                        drain_log(&mut r.log, ctx);
                    });
                    rec.borrow_mut().spans[id as usize].cmd = cmd;
                }
            },
            LogProc::Client(_) => {
                let reply = match &msg {
                    AppMsg::Log(LogMsg::Reply { seq, .. }) => Some(LogCmd {
                        client: pid,
                        seq: *seq,
                    }),
                    _ => None,
                };
                let before = proc.client().acked();
                let (id, ()) = timed(rec, RUN, Layer::Client, Kind::Reply, pid, || {
                    proc.on_message(ctx, from, msg)
                });
                let acked = proc.client().acked() > before;
                let mut rec = rec.borrow_mut();
                rec.spans[id as usize].cmd = reply;
                if let Some(cmd) = reply.filter(|_| acked) {
                    rec.note(|r| r.acked.push(cmd));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AppMsg>, tag: u64) {
        let TracedLog { proc, rec } = self;
        let pid = ctx.id();
        match proc {
            LogProc::Replica(r) if tag == LOG_FLUSH => {
                timed(rec, RUN, Layer::Log, Kind::Flush, pid, || {
                    r.log.on_flush(ctx.now());
                    drain_log(&mut r.log, ctx);
                });
            }
            LogProc::Replica(r) => {
                replica_member_call(r, rec, ctx, Kind::Timer, |m, c| m.on_timer(c, tag));
            }
            LogProc::Client(_) => {
                timed(rec, RUN, Layer::Client, Kind::Tick, pid, || {
                    proc.on_timer(ctx, tag)
                });
            }
        }
    }
}

/// One traced run.
pub struct TracedRun {
    pub wall: Duration,
    /// Allocations during `run_until`, the recorder's own included.
    pub allocs: Allocs,
    pub outcome: Outcome,
    pub errors: Vec<String>,
    pub rec: Recorder,
    pub trace_events: usize,
    /// Violations `gmp_props::check_safety` found in the causal trace.
    pub safety: Vec<String>,
}

/// Builds the workload over wrapper nodes, in the order the repository's
/// builders register them, and runs it traced. `capacity` pre-sizes the
/// span buffer so that it never grows inside a span.
/// `gmp_props::check_safety` runs on the causal trace when `safety` is set.
pub fn run_traced(w: &Workload, seed: u64, capacity: usize, check_safety: bool) -> TracedRun {
    let rec = Recorder::new(w, capacity);
    match w.shape {
        Shape::Gmp { n, .. } => {
            let mut sim: Sim<Msg, TracedMember> = Builder::new().seed(seed).build();
            let initial: View = (0..n as u32).map(ProcessId).collect();
            let cfg = w.config();
            for _ in 0..n {
                sim.add_node(TracedMember {
                    member: Member::new(cfg.clone(), initial.clone()),
                    rec: rec.clone(),
                });
            }
            for (p, at) in w.crashes() {
                sim.crash_at(p, at);
            }
            let (wall, allocs) = run_span(&rec, &mut sim, w.horizon);
            let exclusions = rec.borrow().exclusions.clone();
            let outcome = workload::gmp_outcome(&sim, w, exclusions);
            let errors = workload::check(w, &outcome, &workload::gmp_lifecycles(&sim));
            let safety = safety(sim.trace(), check_safety);
            let trace_events = sim.trace().events.len();
            drop(sim);
            finish(rec, wall, allocs, outcome, errors, trace_events, safety)
        }
        Shape::Log { clients, .. } => {
            let mut sim: Sim<AppMsg, TracedLog> = Builder::new().seed(seed).build();
            let lc = gmp_log::LogConfig::default();
            let cfg = w.config();
            let initial: View = (0..REPLICAS as u32).map(ProcessId).collect();
            let log = || ReplicatedLog::with_tuning(lc.max_inflight, lc.batch, lc.compact_keep);
            let wrap = |proc| TracedLog {
                proc,
                rec: rec.clone(),
            };
            for _ in 0..REPLICAS {
                let member = Member::new(cfg.clone(), initial.clone());
                sim.add_node(wrap(LogProc::Replica(Box::new(Replica::new(
                    member,
                    log(),
                )))));
            }
            if let Some(at) = w.join_at() {
                let mut jcfg = cfg.clone();
                jcfg.join = Some(gmp_core::JoinConfig::new(at, vec![ProcessId(1)]));
                let member = Member::joiner(jcfg);
                sim.add_node(wrap(LogProc::Replica(Box::new(Replica::new(
                    member,
                    log(),
                )))));
            }
            for k in 0..clients {
                let first_at = lc.request_every + 7 * k as u64;
                sim.add_node(wrap(LogProc::Client(Client::new(
                    initial.to_vec(),
                    first_at,
                    lc.request_every,
                    lc.retry_after,
                    lc.window,
                ))));
            }
            for (p, at) in w.crashes() {
                sim.crash_at(p, at);
            }
            let (wall, allocs) = run_span(&rec, &mut sim, w.horizon);
            let outcome = workload::log_outcome(&sim, w);
            let mut errors = workload::check(w, &outcome, &workload::log_lifecycles(&sim));
            errors.extend(check_acked(&rec.borrow(), &outcome));
            let safety = safety(sim.trace(), check_safety);
            let trace_events = sim.trace().events.len();
            drop(sim);
            finish(rec, wall, allocs, outcome, errors, trace_events, safety)
        }
    }
}

/// Runs the simulation inside the run span.
fn run_span<M: gmp_sim::Message, N: Node<M>>(
    rec: &Rec,
    sim: &mut Sim<M, N>,
    horizon: u64,
) -> (Duration, Allocs) {
    let id = rec
        .borrow_mut()
        .open(RUN, Layer::Sim, Kind::Run, ProcessId(0));
    debug_assert_eq!(id, RUN);
    sim.run_until(horizon);
    rec.borrow_mut().close(id);
    let r = rec.borrow();
    let run = &r.spans[RUN as usize];
    (run.end - run.start, run.allocs)
}

fn finish(
    rec: Rec,
    wall: Duration,
    allocs: Allocs,
    outcome: Outcome,
    errors: Vec<String>,
    trace_events: usize,
    safety: Vec<String>,
) -> TracedRun {
    let rec = Rc::try_unwrap(rec)
        .ok()
        .expect("every wrapper node was dropped with the simulator")
        .into_inner();
    TracedRun {
        wall,
        allocs,
        outcome,
        errors,
        rec,
        trace_events,
        safety,
    }
}

/// Runs the GMP safety checks on a non-empty causal trace.
fn safety(trace: &gmp_sim::Trace, check: bool) -> Vec<String> {
    if !check || trace.events.is_empty() {
        return Vec::new();
    }
    gmp_props::check_safety(trace)
        .violations
        .iter()
        .map(|v| format!("{v:?}"))
        .collect()
}

/// Every command a client accepted a `Reply` for is in some live
/// replica's log (the longest log holds every other one's commands, as
/// `logs_agree` and the untraced checks establish).
fn check_acked(rec: &Recorder, o: &Outcome) -> Vec<String> {
    let committed: BTreeSet<LogCmd> = o
        .logs
        .iter()
        .flat_map(|l| l.committed.iter().copied())
        .collect();
    let missing = rec.acked.iter().filter(|c| !committed.contains(c)).count();
    let mut errs = Vec::new();
    if missing > 0 {
        errs.push(format!(
            "{missing} acknowledged commands are in no live replica's log"
        ));
    }
    if rec.acked.len() as u64 != o.ops() {
        errs.push(format!(
            "{} replies accepted but {} latencies recorded",
            rec.acked.len(),
            o.ops()
        ));
    }
    errs
}

/// Writes the spans as tab-separated lines: id, parent, layer, kind, pid,
/// start and end in nanoseconds from the run span's start, allocations,
/// allocated bytes, and the command's client and seq (or `-`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let origin = spans.first().map_or_else(Instant::now, |s| s.start);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tlayer\tkind\tpid\tstart_ns\tend_ns\tallocs\talloc_bytes\tclient\tseq"
    )?;
    for (id, s) in spans.iter().enumerate() {
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos();
        let (client, seq) = match s.cmd {
            Some(c) => (c.client.0.to_string(), c.seq.to_string()),
            None => ("-".into(), "-".into()),
        };
        writeln!(
            out,
            "{id}\t{}\t{:?}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{client}\t{seq}",
            s.parent,
            s.layer,
            s.kind,
            s.pid,
            ns(s.start),
            ns(s.end),
            s.allocs.count,
            s.allocs.bytes
        )?;
    }
    out.flush()
}
