//! The four workloads, how each is built and run untraced, what a run's
//! observable outcome is, and the correctness checks every run passes.
//!
//! Everything here goes through the repository's public API: clusters
//! come from `cluster_with` and `LogClusterBuilder`, runs from
//! `Sim::run_until` on the sequential engine, and outcomes from public
//! accessors (`Member::view`/`ver`, `ReplicatedLog::committed`/`ballots`/
//! `applied_at`/`last_sync`, `Client::latencies`). Nothing reads the
//! causal trace, so the outcome survives the trace becoming optional.

use gmp_core::{cluster_with, Config, JoinConfig, Lifecycle, Member, Msg, Sparse};
use gmp_log::{logs_agree, AppMsg, LogClusterBuilder, LogCmd, LogConfig, LogProc};
use gmp_sim::{Sim, Stats, TraceKind};
use gmp_types::{ProcessId, Ver};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Replicas of both log workloads.
pub const REPLICAS: usize = 5;
/// Members crashed by each membership workload: the most junior ones.
const VICTIMS: usize = 4;
/// First crash of a membership workload, and the gap between crashes.
const FIRST_CRASH: u64 = 100;
const CRASH_EVERY: u64 = 700;
/// A log command counts as failed when it is not acknowledged within this
/// many ticks of simulated time.
pub const ACK_DEADLINE: u64 = 5_000;

/// The shape of one workload.
#[derive(Clone, Debug)]
pub enum Shape {
    /// A membership-only group of `n` members; `sparse` is the degree of
    /// a `Sparse` monitoring ring, `None` the paper's clique (`Flat`).
    Gmp { n: usize, sparse: Option<usize> },
    /// Five log replicas and `clients` closed-loop clients. With
    /// `failover`, the leader p0 crashes at a third of the horizon and a
    /// replacement joiner first contacts p1 at half of it.
    Log { clients: usize, failover: bool },
}

/// One named workload: a shape and a simulated horizon.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub horizon: u64,
}

/// Every workload the benchmark runs.
pub const NAMES: [&str; 4] = [
    "gmp-flat",
    "gmp-sparse",
    "log-steady",
    "log-overload-failover",
];

impl Workload {
    /// The workload called `name`, at benchmark size.
    pub fn named(name: &str) -> Option<Workload> {
        let (shape, horizon) = match name {
            "gmp-flat" => (
                Shape::Gmp {
                    n: 64,
                    sparse: None,
                },
                3_000,
            ),
            "gmp-sparse" => (
                Shape::Gmp {
                    n: 256,
                    sparse: Some(4),
                },
                3_000,
            ),
            "log-steady" => (
                Shape::Log {
                    clients: 4,
                    failover: false,
                },
                100_000,
            ),
            "log-overload-failover" => (
                Shape::Log {
                    clients: 64,
                    failover: true,
                },
                60_000,
            ),
            _ => return None,
        };
        let name = NAMES.iter().copied().find(|&n| n == name)?;
        Some(Workload {
            name,
            shape,
            horizon,
        })
    }

    /// The same workload shrunk for unit tests: fewer members, shorter
    /// horizons, the same schedule shape.
    #[cfg(test)]
    pub fn tiny(&self) -> Workload {
        let (shape, horizon) = match self.shape {
            Shape::Gmp { sparse, .. } => (Shape::Gmp { n: 12, sparse }, 3_000),
            Shape::Log { clients, failover } => (
                Shape::Log {
                    clients: clients.min(8),
                    failover,
                },
                12_000,
            ),
        };
        Workload {
            name: self.name,
            shape,
            horizon,
        }
    }

    /// The membership configuration every member of this workload uses.
    pub fn config(&self) -> Config {
        match self.shape {
            Shape::Gmp {
                sparse: Some(k), ..
            } => Config::builder().topology(Sparse::new(k)).build(),
            _ => Config::default(),
        }
    }

    /// Crash schedule, in the order the crashes are scheduled: the most
    /// junior members of a membership group, or the log leader.
    pub fn crashes(&self) -> Vec<(ProcessId, u64)> {
        match self.shape {
            Shape::Gmp { n, .. } => (0..VICTIMS)
                .map(|k| {
                    (
                        ProcessId((n - 1 - k) as u32),
                        FIRST_CRASH + CRASH_EVERY * k as u64,
                    )
                })
                .collect(),
            Shape::Log { failover: true, .. } => vec![(ProcessId(0), self.horizon / 3)],
            Shape::Log { .. } => Vec::new(),
        }
    }

    /// The joiner's first join request, if this workload admits one.
    pub fn join_at(&self) -> Option<u64> {
        match self.shape {
            Shape::Log { failover: true, .. } => Some(self.horizon / 2),
            _ => None,
        }
    }

    /// Group members (replicas, joiner included): the processes whose
    /// heartbeats and views belong to the membership layer.
    pub fn members(&self) -> usize {
        match self.shape {
            Shape::Gmp { n, .. } => n,
            Shape::Log { .. } => REPLICAS + self.join_at().is_some() as usize,
        }
    }

    /// The latency percentile reported as `latency_ticks_tail`: the
    /// highest one with at least ten samples beyond it at benchmark size,
    /// except on the failover workload. There p99.9 falls among the few
    /// hundred commands in flight when the leader dies, whose latency
    /// depends on where the seed puts the crash (911–1,582 ticks over
    /// seeds 1–10); p99.5 still includes the failover's share of slow
    /// commands and repeats within 4% across seeds.
    pub fn tail_percentile(&self) -> f64 {
        match self.shape {
            Shape::Gmp { .. } => 95.0,
            Shape::Log { failover: true, .. } => 99.5,
            Shape::Log { .. } => 99.9,
        }
    }

    pub fn is_log(&self) -> bool {
        matches!(self.shape, Shape::Log { .. })
    }
}

/// Everything a run leaves behind that the benchmark checks and measures.
/// Two runs of one workload and seed must produce equal outcomes, whether
/// traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Per-tag message counters.
    pub stats: Stats,
    /// Each live member's final `(pid, version, view)`.
    pub views: Vec<(ProcessId, Ver, Vec<ProcessId>)>,
    /// Each live replica's applied log.
    pub logs: Vec<LogState>,
    /// Each client's commit latencies, in acknowledgement order.
    pub latencies: Vec<Vec<u64>>,
    /// Each client's `(retries, redirects)`.
    pub client_counters: Vec<(u64, u64)>,
    /// Crashed processes.
    pub victims: Vec<ProcessId>,
    /// Membership workloads, observed runs only: ticks from each victim's
    /// crash to each survivor installing a view without it, keyed
    /// `(victim, survivor)`. Empty when the run was not observed.
    pub exclusions: BTreeMap<(ProcessId, ProcessId), u64>,
}

/// One replica's applied log, read through `ReplicatedLog`'s accessors.
#[derive(Clone, Debug, PartialEq)]
pub struct LogState {
    pub pid: ProcessId,
    pub base: u64,
    pub committed: Vec<LogCmd>,
    pub ballots: Vec<Ver>,
    pub applied_at: Vec<u64>,
    pub last_sync: Option<(bool, u64)>,
    /// Sum of `hot_sizes()`: prunable per-slot state still held.
    pub hot_state: usize,
}

/// One untraced run: the time spent inside `run_until`, the outcome and
/// the checks it failed.
pub struct Run {
    pub wall: Duration,
    pub outcome: Outcome,
    pub errors: Vec<String>,
    /// Handler calls the run made, counted from its causal trace; only
    /// used to pre-size the traced run's span buffer.
    pub handler_calls: usize,
}

fn handler_calls(trace: &gmp_sim::Trace) -> usize {
    trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::Start | TraceKind::Recv { .. } | TraceKind::Timer { .. }
            )
        })
        .count()
}

/// Builds the membership cluster with its crash schedule.
pub fn build_gmp(w: &Workload, seed: u64) -> Sim<Msg, Member> {
    let Shape::Gmp { n, .. } = w.shape else {
        unreachable!("build_gmp on a log workload")
    };
    let mut sim = cluster_with(n, seed, w.config());
    for (p, at) in w.crashes() {
        sim.crash_at(p, at);
    }
    sim
}

/// Builds the log cluster with its crash schedule and joiner.
pub fn build_log(w: &Workload, seed: u64) -> Sim<AppMsg, LogProc> {
    let Shape::Log { clients, .. } = w.shape else {
        unreachable!("build_log on a membership workload")
    };
    let mut b = LogClusterBuilder::new(REPLICAS, clients)
        .seed(seed)
        .log_config(LogConfig::default());
    if let Some(at) = w.join_at() {
        b = b.joiner(JoinConfig::new(at, vec![ProcessId(1)]));
    }
    let mut sim = b.build();
    for (p, at) in w.crashes() {
        sim.crash_at(p, at);
    }
    sim
}

/// Times cluster construction plus fault scheduling, dropping the result.
pub fn time_setup(w: &Workload, seed: u64) -> Duration {
    let t0 = Instant::now();
    if w.is_log() {
        std::hint::black_box(build_log(w, seed));
    } else {
        std::hint::black_box(build_gmp(w, seed));
    }
    t0.elapsed()
}

/// Builds and runs the workload untraced, on the plain repository nodes.
///
/// A membership run either times one `run_until` over the horizon, or,
/// with `observe`, advances tick by tick to record exclusion times (see
/// [`run_gmp_stepped`]); the stepping disturbs the timing, so callers
/// observe once and time the other runs. Log runs ignore `observe`.
pub fn run_untraced(w: &Workload, seed: u64, observe: bool) -> Run {
    if w.is_log() {
        let mut sim = build_log(w, seed);
        let t0 = Instant::now();
        sim.run_until(w.horizon);
        let wall = t0.elapsed();
        let outcome = log_outcome(&sim, w);
        Run {
            wall,
            errors: check(w, &outcome, &log_lifecycles(&sim)),
            outcome,
            handler_calls: handler_calls(sim.trace()),
        }
    } else {
        let mut sim = build_gmp(w, seed);
        let (wall, exclusions) = if observe {
            run_gmp_stepped(&mut sim, w)
        } else {
            let t0 = Instant::now();
            sim.run_until(w.horizon);
            (t0.elapsed(), BTreeMap::new())
        };
        let outcome = gmp_outcome(&sim, w, exclusions);
        Run {
            wall,
            errors: check(w, &outcome, &gmp_lifecycles(&sim)),
            outcome,
            handler_calls: handler_calls(sim.trace()),
        }
    }
}

/// Runs a membership cluster to the horizon, observing exclusions from
/// outside: while a crashed victim is still in some survivor's view, the
/// run advances one tick at a time and reads every pending survivor's
/// `view()` after each tick. Every event at tick `t` is processed by
/// `run_until(t)`, so the first tick a view lacks the victim is exactly
/// the tick its install ran, and the schedule of events is the same as
/// one `run_until(horizon)`.
fn run_gmp_stepped(
    sim: &mut Sim<Msg, Member>,
    w: &Workload,
) -> (Duration, BTreeMap<(ProcessId, ProcessId), u64>) {
    let crashes = w.crashes();
    let survivors = survivors(w);
    let mut pending: Vec<(ProcessId, u64, ProcessId)> = Vec::new();
    let mut exclusions = BTreeMap::new();
    let mut next_crash = 0;
    let t0 = Instant::now();
    let mut t = 0;
    while t < w.horizon {
        let stop = if pending.is_empty() {
            crashes.get(next_crash).map_or(w.horizon, |&(_, at)| at)
        } else {
            t + 1
        }
        .min(w.horizon);
        sim.run_until(stop);
        t = stop;
        while let Some(&(v, at)) = crashes.get(next_crash) {
            if at > t {
                break;
            }
            pending.extend(survivors.iter().map(|&s| (v, at, s)));
            next_crash += 1;
        }
        pending.retain(|&(v, at, s)| {
            let gone = !sim.node(s).view().contains(v);
            if gone {
                exclusions.insert((v, s), t - at);
            }
            !gone
        });
    }
    (t0.elapsed(), exclusions)
}

/// The members no crash is scheduled for.
pub fn survivors(w: &Workload) -> Vec<ProcessId> {
    let victims: Vec<ProcessId> = w.crashes().into_iter().map(|(p, _)| p).collect();
    (0..w.members() as u32)
        .map(ProcessId)
        .filter(|p| !victims.contains(p))
        .collect()
}

fn member_view(m: &Member) -> (Ver, Vec<ProcessId>) {
    (m.ver(), m.view().to_vec())
}

/// The outcome of a membership run; `exclusions` come from the observer.
pub fn gmp_outcome<N>(
    sim: &Sim<Msg, N>,
    w: &Workload,
    exclusions: BTreeMap<(ProcessId, ProcessId), u64>,
) -> Outcome
where
    N: gmp_sim::Node<Msg> + AsMember,
{
    let views = sim
        .living()
        .into_iter()
        .map(|p| {
            let (ver, view) = member_view(sim.node(p).as_member());
            (p, ver, view)
        })
        .collect();
    Outcome {
        stats: sim.stats().clone(),
        views,
        logs: Vec::new(),
        latencies: Vec::new(),
        client_counters: Vec::new(),
        victims: w.crashes().into_iter().map(|c| c.0).collect(),
        exclusions,
    }
}

/// Read access to the member inside a benchmark or repository node.
pub trait AsMember {
    fn as_member(&self) -> &Member;
}

impl AsMember for Member {
    fn as_member(&self) -> &Member {
        self
    }
}

/// Read access to the log process inside a benchmark or repository node.
pub trait AsLogProc {
    fn as_log_proc(&self) -> &LogProc;
}

impl AsLogProc for LogProc {
    fn as_log_proc(&self) -> &LogProc {
        self
    }
}

/// The outcome of a log run, read from replica and client accessors.
pub fn log_outcome<N>(sim: &Sim<AppMsg, N>, w: &Workload) -> Outcome
where
    N: gmp_sim::Node<AppMsg> + AsLogProc,
{
    let mut views = Vec::new();
    let mut logs = Vec::new();
    let mut latencies = Vec::new();
    let mut client_counters = Vec::new();
    for p in sim.living() {
        match sim.node(p).as_log_proc() {
            LogProc::Replica(r) => {
                let (ver, view) = member_view(&r.member);
                views.push((p, ver, view));
                let (a, b, c, d) = r.log.hot_sizes();
                logs.push(LogState {
                    pid: p,
                    base: r.log.base(),
                    committed: r.log.committed().to_vec(),
                    ballots: r.log.ballots().to_vec(),
                    applied_at: r.log.applied_at().to_vec(),
                    last_sync: r.log.last_sync(),
                    hot_state: a + b + c + d,
                });
            }
            LogProc::Client(c) => {
                latencies.push(c.latencies().to_vec());
                client_counters.push((c.retries(), c.redirects()));
            }
        }
    }
    Outcome {
        stats: sim.stats().clone(),
        views,
        logs,
        latencies,
        client_counters,
        victims: w.crashes().into_iter().map(|c| c.0).collect(),
        exclusions: BTreeMap::new(),
    }
}

impl Outcome {
    /// The longest applied log among replicas that hold it from slot 0:
    /// the reference every other log and every acknowledgement is checked
    /// against.
    pub fn reference_log(&self) -> Option<&LogState> {
        self.logs
            .iter()
            .filter(|l| l.base == 0)
            .max_by_key(|l| l.committed.len())
    }

    /// Committed client operations: acknowledged log commands, or
    /// victims missing from a surviving member's final view.
    pub fn ops(&self) -> u64 {
        if self.logs.is_empty() {
            self.views
                .iter()
                .map(|(_, _, view)| {
                    self.victims.iter().filter(|v| !view.contains(v)).count() as u64
                })
                .sum()
        } else {
            self.latencies.iter().map(|l| l.len() as u64).sum()
        }
    }

    /// Latency samples in ticks: commit latencies, or exclusion times.
    pub fn latency_samples(&self) -> Vec<u64> {
        if self.logs.is_empty() {
            self.exclusions.values().copied().collect()
        } else {
            self.latencies.iter().flatten().copied().collect()
        }
    }

    /// `(attempted, failed)` operations.
    ///
    /// Membership: one operation per (victim, survivor) pair; it fails if
    /// the survivor still holds the victim in its view at the horizon (or
    /// is not live at all).
    ///
    /// Log: every acknowledged command is attempted, and fails if its
    /// latency exceeded [`ACK_DEADLINE`] or if the log holds fewer of the
    /// client's commands than the client holds acknowledgements (an
    /// acknowledged write was lost). A command committed at least one
    /// deadline before the horizon but never acknowledged also fails.
    /// Commands neither committed nor acknowledged are not visible through
    /// the client API and are not counted.
    pub fn attempted_failed(&self, w: &Workload) -> (u64, u64) {
        if !w.is_log() {
            let attempted = (w.crashes().len() * survivors(w).len()) as u64;
            return (attempted, attempted - self.ops());
        }
        let settled = w.horizon.saturating_sub(ACK_DEADLINE);
        // Per client: (commands in the log, those applied by `settled`).
        let mut commits: BTreeMap<ProcessId, (u64, u64)> = BTreeMap::new();
        if let Some(r) = self.reference_log() {
            for (cmd, &at) in r.committed.iter().zip(&r.applied_at) {
                if !cmd.is_noop() {
                    let e = commits.entry(cmd.client).or_default();
                    e.0 += 1;
                    e.1 += (at <= settled) as u64;
                }
            }
        }
        let clients = self.client_pids(w);
        let (mut attempted, mut failed) = (0, 0);
        for (c, lats) in clients.iter().zip(&self.latencies) {
            let acked = lats.len() as u64;
            let (committed, settled) = commits.get(c).copied().unwrap_or_default();
            attempted += acked.max(settled);
            failed += lats.iter().filter(|&&l| l > ACK_DEADLINE).count() as u64;
            failed += settled.saturating_sub(acked) + acked.saturating_sub(committed);
        }
        (attempted, failed)
    }

    /// Client pids, in the order of `latencies`.
    pub fn client_pids(&self, w: &Workload) -> Vec<ProcessId> {
        let first = w.members() as u32;
        (first..first + self.latencies.len() as u32)
            .map(ProcessId)
            .collect()
    }

    /// Ticks from the leader crash to the first slot a survivor applied
    /// under a ballot above the one in force at the crash (the ballot of
    /// the last slot applied at or before it). `None` without a crash or
    /// if the log never moved past it.
    pub fn failover_ticks(&self, w: &Workload) -> Option<u64> {
        let &(_, crash) = w.crashes().first().filter(|_| w.is_log())?;
        let in_force = self
            .logs
            .iter()
            .flat_map(|l| l.ballots.iter().zip(&l.applied_at))
            .filter(|&(_, &at)| at <= crash)
            .map(|(&b, _)| b)
            .max()
            .unwrap_or(0);
        self.logs
            .iter()
            .flat_map(|l| l.ballots.iter().zip(&l.applied_at))
            .filter(|&(&b, _)| b > in_force)
            .map(|(_, &at)| at - crash)
            .min()
    }

    /// Committed client operations in the reference log (no-ops excluded).
    pub fn committed_in_log(&self) -> u64 {
        self.reference_log().map_or(0, |r| {
            r.committed.iter().filter(|c| !c.is_noop()).count() as u64
        })
    }
}

/// Checks a run's outcome. Returns one line per failed check.
///
/// Membership: every survivor is live and active, excluded every victim,
/// and all survivors agree on version and view — the initial group minus
/// the victims.
///
/// Log: every live replica (the snapshot-booted joiner included) is
/// active in one agreed view and its log agrees with every other on the
/// slots both hold; the reference log commits no command twice; every
/// client was acknowledged, and no more often than the log holds its
/// commands; the joiner synced; and the log moved past the failover.
pub fn check(w: &Workload, o: &Outcome, lifecycles: &[(ProcessId, Lifecycle)]) -> Vec<String> {
    let mut errs = Vec::new();
    for &(p, l) in lifecycles {
        if l != Lifecycle::Active {
            errs.push(format!("member {p:?} ended {l:?}, not Active"));
        }
    }
    let live: Vec<ProcessId> = o.views.iter().map(|v| v.0).collect();
    if live != survivors(w) {
        errs.push(format!("live members {live:?} are not the survivors"));
    }
    if let Some(first) = o.views.first() {
        if o.views.iter().any(|v| (v.1, &v.2) != (first.1, &first.2)) {
            errs.push("survivors disagree on version or view".into());
        }
        if first.2 != survivors(w) {
            errs.push(format!("final view {:?} is not the survivors", first.2));
        }
    }
    if !w.is_log() {
        let (attempted, failed) = o.attempted_failed(w);
        if failed > 0 {
            errs.push(format!("{failed} of {attempted} exclusions missing"));
        }
        return errs;
    }
    if !logs_agree(o.logs.iter().map(|l| (l.base, &l.committed[..]))) {
        errs.push("replica logs disagree".into());
    }
    let Some(reference) = o.reference_log() else {
        errs.push("no replica holds the log from slot 0".into());
        return errs;
    };
    let mut committed: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut seen = BTreeSet::new();
    let mut duplicates = 0;
    for &cmd in reference.committed.iter().filter(|c| !c.is_noop()) {
        if seen.insert(cmd) {
            *committed.entry(cmd.client).or_default() += 1;
        } else {
            duplicates += 1;
        }
    }
    if duplicates > 0 {
        errs.push(format!("{duplicates} commands committed more than once"));
    }
    for (c, lats) in o.client_pids(w).iter().zip(&o.latencies) {
        let committed = committed.get(c).copied().unwrap_or(0);
        if lats.len() as u64 > committed {
            errs.push(format!(
                "client {c:?} was acknowledged {} times but the log holds {committed} of its commands",
                lats.len()
            ));
        }
        if lats.is_empty() {
            errs.push(format!("client {c:?} was never acknowledged"));
        }
    }
    if w.join_at().is_some() {
        let joiner = ProcessId(REPLICAS as u32);
        match o.logs.iter().find(|l| l.pid == joiner) {
            Some(l) if l.last_sync.is_some() && !l.committed.is_empty() => {}
            _ => errs.push("the joiner never synced a log".into()),
        }
    }
    if !w.crashes().is_empty() && o.failover_ticks(w).is_none() {
        errs.push("the log never committed past the failover".into());
    }
    errs
}

/// `(pid, lifecycle)` of every live member.
pub fn gmp_lifecycles<N: gmp_sim::Node<Msg> + AsMember>(
    sim: &Sim<Msg, N>,
) -> Vec<(ProcessId, Lifecycle)> {
    sim.living()
        .into_iter()
        .map(|p| (p, sim.node(p).as_member().lifecycle()))
        .collect()
}

/// `(pid, lifecycle)` of every live replica.
pub fn log_lifecycles<N: gmp_sim::Node<AppMsg> + AsLogProc>(
    sim: &Sim<AppMsg, N>,
) -> Vec<(ProcessId, Lifecycle)> {
    sim.living()
        .into_iter()
        .filter_map(|p| match sim.node(p).as_log_proc() {
            LogProc::Replica(r) => Some((p, r.member.lifecycle())),
            LogProc::Client(_) => None,
        })
        .collect()
}
