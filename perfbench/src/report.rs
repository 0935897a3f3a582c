//! Metrics, their aggregation over runs, and the printed result.

use crate::alloc::Allocs;
use crate::traced::{Kind, Layer, TracedRun};
use crate::workload::{Outcome, Workload, REPLICAS};
use gmp_core::PROTOCOL_TAGS;
use std::collections::{BTreeMap, BTreeSet};

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one invocation prints.
pub struct Report {
    pub header: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
    pub info: Vec<String>,
}

impl Report {
    pub fn new(w: &Workload, seed: u64) -> Report {
        Report {
            header: format!(
                "workload {} seed {seed}: {:?}, horizon {} ticks",
                w.name, w.shape, w.horizon
            ),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            errors: Vec::new(),
            info: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints checks and notes to standard error, then one line per metric
    /// and the JSON result line to standard output.
    pub fn print(&self) {
        eprintln!("{}", self.header);
        for i in &self.info {
            eprintln!("  {i}");
        }
        let mut errors: Vec<(&String, usize)> = Vec::new();
        for e in &self.errors {
            match errors.iter_mut().find(|(seen, _)| *seen == e) {
                Some((_, n)) => *n += 1,
                None => errors.push((e, 1)),
            }
        }
        for (e, n) in errors {
            eprintln!("  CHECK FAILED ({n}x): {e}");
        }
        let mut json = Vec::new();
        for m in &self.metrics {
            println!("{:<40} {:>20} {}", m.name, m.value, m.unit);
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            json.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// `min/median/max` of a sample of seconds, for the notes.
pub fn min_med_max(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0, f64::max);
    format!("{min:.4}/{:.4}/{max:.4} s", median(values))
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile of whole-tick samples, interpolated within the tick that
/// holds it: each sample of value `v` is taken as spread evenly over
/// `[v − ½, v + ½)` (the grouped-data percentile). It falls in the same
/// tick as the nearest-rank percentile of `gmp_sim::Summary`, but moves
/// with the share of samples in that tick instead of jumping a whole tick
/// at a time. 0 for an empty sample.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let target = p / 100.0 * v.len() as f64;
    let rank = (target.ceil() as usize).clamp(1, v.len());
    let value = v[rank - 1];
    let below = v.partition_point(|&x| x < value);
    let at = v.partition_point(|&x| x <= value) - below;
    value as f64 - 0.5 + (target - below as f64).clamp(0.0, at as f64) / at as f64
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metric names whose values are wall-clock times or derived from them;
/// every other metric is a count, a ratio of counts or a tick value and
/// repeats exactly for a given workload and seed.
#[cfg(test)]
pub fn is_time_valued(name: &str) -> bool {
    name.ends_with("_s")
        || name.ends_with(".s")
        || name.ends_with("ns_per_call")
        || name.ends_with("ns_per_event")
        || name.ends_with("ns_per_msg")
        || name.ends_with("share")
        || name.ends_with("overhead_frac")
        || name.ends_with("per_s")
        || name == "peak_rss_mb"
}

/// Names the first field in which two outcomes differ, for the drift
/// message.
pub fn first_difference(a: &Outcome, b: &Outcome) -> String {
    let fields = [
        ("stats", a.stats != b.stats),
        ("views", a.views != b.views),
        ("logs", a.logs != b.logs),
        ("latencies", a.latencies != b.latencies),
        ("client counters", a.client_counters != b.client_counters),
        ("exclusions", a.exclusions != b.exclusions),
    ];
    match fields.iter().find(|f| f.1) {
        Some((name, _)) => format!(" (first difference: {name})"),
        None => String::new(),
    }
}

/// Per-(layer, kind) totals of one traced run's spans.
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    /// Self time in seconds, calls, and self allocations.
    pub by: BTreeMap<(Layer, Kind), (f64, u64, Allocs)>,
    /// Time and allocations inside top-level handler spans.
    pub handlers_s: f64,
    pub handler_allocs: Allocs,
    /// Top-level handler calls.
    pub calls: u64,
    pub wall_s: f64,
}

impl Aggregate {
    pub fn of(t: &TracedRun) -> Aggregate {
        let spans = &t.rec.spans;
        let dur: Vec<f64> = spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        let mut self_s = dur.clone();
        let mut self_allocs: Vec<Allocs> = spans.iter().map(|s| s.allocs).collect();
        let mut agg = Aggregate {
            wall_s: t.wall.as_secs_f64(),
            ..Aggregate::default()
        };
        for (i, s) in spans.iter().enumerate().skip(1) {
            let p = s.parent as usize;
            if p == 0 {
                agg.handlers_s += dur[i];
                agg.handler_allocs += s.allocs;
                agg.calls += 1;
            } else {
                self_s[p] -= dur[i];
                let a = self_allocs[p] - s.allocs;
                self_allocs[p] = a;
            }
        }
        for (i, s) in spans.iter().enumerate().skip(1) {
            let e = agg.by.entry((s.layer, s.kind)).or_default();
            e.0 += self_s[i];
            e.1 += 1;
            e.2 += self_allocs[i];
        }
        agg
    }

    fn get(&self, layer: Layer, kind: Kind) -> (f64, u64, Allocs) {
        self.by.get(&(layer, kind)).copied().unwrap_or_default()
    }

    fn layer(&self, layer: Layer) -> (f64, u64, Allocs) {
        self.by.iter().filter(|((l, _), _)| *l == layer).fold(
            (0.0, 0, Allocs::default()),
            |mut acc, (_, v)| {
                acc.0 += v.0;
                acc.1 += v.1;
                acc.2 += v.2;
                acc
            },
        )
    }
}

/// The per-layer metrics of a traced invocation. Counts come from `last`
/// (every traced run of one seed repeats them); times are medians over
/// the traced runs in `runs`, set against `untraced_wall`, the median
/// untraced `run_until` time.
///
/// `sim.self_s` is the untraced wall time minus the time inside handler
/// spans of the traced run: the engine, network and causal stamping,
/// without the recorder's own bookkeeping.
pub fn layer_metrics(
    w: &Workload,
    last: &TracedRun,
    runs: &[Aggregate],
    untraced_wall: f64,
) -> Vec<Metric> {
    let o = &last.outcome;
    let rec = &last.rec;
    let stats = &o.stats;
    let a = runs.last().expect("at least one traced run");
    let med = |f: &dyn Fn(&Aggregate) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let traced_wall = med(&|r| r.wall_s);
    let ops = o.ops() as f64;
    let client_ops = if w.is_log() { ops } else { 0.0 };
    let horizon_k = w.horizon as f64 / 1000.0;
    let mut m = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push(Metric::new(name, value, unit));

    // sim
    let events = a.calls as f64;
    let sim_s = (untraced_wall - med(&|r| r.handlers_s)).max(0.0);
    let sim_allocs = last.allocs - a.handler_allocs - rec.overhead;
    let delivered: u64 = stats.send_counts().map(|(t, _)| stats.delivered(t)).sum();
    put("sim.self_s", sim_s, "s");
    put("sim.self_share", ratio(sim_s, untraced_wall), "frac");
    put("sim.events", events, "count");
    put(
        "sim.self_ns_per_event",
        ratio(sim_s * 1e9, events),
        "ns/event",
    );
    put("sim.msgs_sent", stats.sends_total() as f64, "count");
    put("sim.msgs_delivered", delivered as f64, "count");
    put(
        "sim.msgs_dropped",
        (stats.dropped_dead_receiver + stats.dropped_link) as f64,
        "count",
    );
    put("sim.trace_events", last.trace_events as f64, "count");
    put(
        "sim.allocs_per_event",
        ratio(sim_allocs.count as f64, events),
        "allocs/event",
    );
    put(
        "sim.alloc_bytes_per_event",
        ratio(sim_allocs.bytes as f64, events),
        "B/event",
    );

    // member
    let per_call = |s: f64, n: u64| ratio(s * 1e9, n as f64);
    for (name, kind) in [
        ("heartbeat", Kind::Heartbeat),
        ("protocol", Kind::Protocol),
        ("timer", Kind::Timer),
    ] {
        let s = med(&|r| r.get(Layer::Member, kind).0);
        let calls = a.get(Layer::Member, kind).1;
        put(&format!("member.{name}_s"), s, "s");
        put(&format!("member.{name}_calls"), calls as f64, "count");
        put(
            &format!("member.{name}_ns_per_call"),
            per_call(s, calls),
            "ns/call",
        );
    }
    let (_, member_calls, member_allocs) = a.layer(Layer::Member);
    let victims: BTreeSet<_> = rec.exclusions.keys().map(|k| k.0).collect();
    let protocol_msgs: u64 = PROTOCOL_TAGS.iter().map(|t| stats.sends(t)).sum();
    let exclusion: Vec<u64> = rec.exclusions.values().copied().collect();
    put(
        "member.allocs_per_call",
        ratio(member_allocs.count as f64, member_calls as f64),
        "allocs/call",
    );
    put(
        "member.heartbeat_sends_per_member_ktick",
        stats.sends("heartbeat") as f64 / w.members() as f64 / horizon_k,
        "msgs/mbr/ktick",
    );
    put(
        "member.protocol_msgs_per_exclusion",
        ratio(protocol_msgs as f64, victims.len() as f64),
        "msgs/excl",
    );
    put(
        "member.views_installed",
        rec.views_installed as f64,
        "count",
    );
    put(
        "member.exclusion_ticks_p50",
        percentile(&exclusion, 50.0),
        "ticks",
    );
    put(
        "member.exclusion_ticks_p95",
        percentile(&exclusion, 95.0),
        "ticks",
    );
    put(
        "member.share",
        ratio(med(&|r| r.layer(Layer::Member).0), untraced_wall),
        "frac",
    );

    // log
    for (name, kind) in [
        ("msg", Kind::Msg),
        ("flush", Kind::Flush),
        ("event", Kind::Event),
    ] {
        put(
            &format!("log.{name}_s"),
            med(&|r| r.get(Layer::Log, kind).0),
            "s",
        );
        put(
            &format!("log.{name}_calls"),
            a.get(Layer::Log, kind).1 as f64,
            "count",
        );
    }
    let msg = a.get(Layer::Log, Kind::Msg);
    put(
        "log.ns_per_msg",
        per_call(med(&|r| r.get(Layer::Log, Kind::Msg).0), msg.1),
        "ns/call",
    );
    let (_, _, log_allocs) = a.layer(Layer::Log);
    let log_msgs = stats.sends_matching(|t| t.starts_with("log-"));
    let batch_cmds: usize = rec.batches.values().sum();
    let joiner = o
        .logs
        .iter()
        .find(|l| l.pid.0 as usize == REPLICAS && w.join_at().is_some());
    put(
        "log.allocs_per_op",
        ratio(log_allocs.count as f64, ops),
        "allocs/op",
    );
    put("log.msgs_per_op", ratio(log_msgs as f64, ops), "msgs/op");
    put(
        "log.ops_per_batch",
        ratio(batch_cmds as f64, rec.batches.len() as f64),
        "ops/batch",
    );
    put(
        "log.recover_msgs",
        (stats.sends("log-recover") + stats.sends("log-recover-ok")) as f64,
        "count",
    );
    put(
        "log.sync_tail_entries",
        joiner.and_then(|l| l.last_sync).map_or(0, |s| s.1) as f64,
        "count",
    );
    put(
        "log.catchup_ticks",
        joiner
            .zip(w.join_at())
            .and_then(|(l, at)| l.applied_at.first().map(|&t| t - at))
            .unwrap_or(0) as f64,
        "ticks",
    );
    put(
        "log.hot_state",
        o.logs.iter().map(|l| l.hot_state).max().unwrap_or(0) as f64,
        "count",
    );
    put(
        "log.failover_ticks",
        o.failover_ticks(w).unwrap_or(0) as f64,
        "ticks",
    );
    put("log.committed_ops", o.committed_in_log() as f64, "count");
    put(
        "log.ops_per_ktick",
        o.committed_in_log() as f64 / horizon_k,
        "ops/ktick",
    );
    put(
        "log.share",
        ratio(med(&|r| r.layer(Layer::Log).0), untraced_wall),
        "frac",
    );

    // client
    let client_s = med(&|r| r.layer(Layer::Client).0);
    let retries: u64 = o.client_counters.iter().map(|c| c.0).sum();
    let redirects: u64 = o.client_counters.iter().map(|c| c.1).sum();
    let commits = o.latency_samples();
    put("client.s", client_s, "s");
    put("client.calls", a.layer(Layer::Client).1 as f64, "count");
    put(
        "client.retries_per_op",
        ratio(retries as f64, client_ops),
        "retries/op",
    );
    put("client.redirects", redirects as f64, "count");
    put(
        "client.useful_ratio",
        ratio(client_ops, client_ops + retries as f64),
        "frac",
    );
    put("client.share", ratio(client_s, untraced_wall), "frac");
    put(
        "client.commit_ticks_p50",
        if w.is_log() {
            percentile(&commits, 50.0)
        } else {
            0.0
        },
        "ticks",
    );
    put(
        "client.commit_ticks_p999",
        if w.is_log() {
            percentile(&commits, 99.9)
        } else {
            0.0
        },
        "ticks",
    );

    // bench
    put(
        "bench.trace_overhead_frac",
        traced_wall / untraced_wall - 1.0,
        "frac",
    );
    put("bench.untraced_wall_s", untraced_wall, "s");
    put("bench.traced_wall_s", traced_wall, "s");
    put("bench.spans", rec.spans.len() as f64, "count");
    m
}
