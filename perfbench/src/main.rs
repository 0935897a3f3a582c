//! Benchmark of the membership service (`gmp-core` over `gmp-sim`) and the
//! replicated log on top of it (`gmp-log`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gmp-flat --seed 1 --seconds 35 --trace 0
//! ```
//!
//! With `--trace 0` the workload is built and run untraced, over and over
//! with the same seed, until `--seconds` have passed; the end-to-end
//! metrics are medians over those runs, times in reference seconds (see
//! `calibrate`). With `--trace 1` untraced and
//! traced runs alternate and the per-layer metrics are reported. Every
//! run's outcome is checked, and every repeat must reproduce the first
//! (observed) run's outcome exactly. The last line of standard output is one JSON
//! object; the exit code is 0 only if every check passed. See
//! `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod calibrate;
mod report;
mod traced;
mod workload;

use report::{median, percentile, Metric, Report};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Outcome, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: perfbench --workload <gmp-flat|gmp-sparse|log-steady|log-overload-failover> \
--seed <u64> --seconds <secs> --trace <0|1>";

/// Set-up-only repetitions before each timed run, for `setup_s`. They
/// follow the warm-up run, so the median sees a warmed heap, not
/// first-touch faults, and they are spread over the whole invocation like
/// the runs.
const SETUPS_PER_RUN: usize = 5;
/// Each mode measures at least this many runs, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced_mode(&args)
    } else {
        untraced_mode(&args)
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced side of an invocation. A first, observed run (also the
/// warm-up) gives the reference outcome, exclusion times included; every
/// timed run after it must reproduce that outcome exactly.
struct Untraced<'a> {
    w: &'a Workload,
    seed: u64,
    reference: Outcome,
    /// The reference without exclusion times, which timed runs do not
    /// observe.
    plain: Outcome,
    calibrator: calibrate::Calibrator,
    /// Per timed run: `run_until` wall seconds, the calibration kernel's
    /// mean time around the run, and the run in reference seconds.
    walls: Vec<f64>,
    kernels: Vec<f64>,
    refs: Vec<f64>,
    /// Set-ups before the timed runs, in reference seconds.
    setups: Vec<f64>,
    handler_calls: usize,
}

impl<'a> Untraced<'a> {
    fn new(w: &'a Workload, seed: u64, report: &mut Report) -> Untraced<'a> {
        let run = workload::run_untraced(w, seed, true);
        report.errors.extend(run.errors);
        let mut plain = run.outcome.clone();
        plain.exclusions.clear();
        let mut calibrator = calibrate::Calibrator::new();
        calibrator.time(); // warm-up, not counted
        Untraced {
            w,
            seed,
            reference: run.outcome,
            plain,
            calibrator,
            walls: Vec::new(),
            kernels: Vec::new(),
            refs: Vec::new(),
            setups: Vec::new(),
            handler_calls: run.handler_calls,
        }
    }

    /// One timed run, bracketed by the calibration kernel; `setups`
    /// set-ups go inside the bracket, before the run.
    fn timed_run(&mut self, setups: usize, report: &mut Report) {
        let before = self.calibrator.time();
        let setup_walls: Vec<f64> = (0..setups)
            .map(|_| workload::time_setup(self.w, self.seed).as_secs_f64())
            .collect();
        let run = workload::run_untraced(self.w, self.seed, false);
        let kernel = (before + self.calibrator.time()) / 2.0;
        let to_ref = calibrate::REF_KERNEL_S / kernel;
        let wall = run.wall.as_secs_f64();
        self.walls.push(wall);
        self.kernels.push(kernel);
        self.refs.push(wall * to_ref);
        self.setups.extend(setup_walls.iter().map(|s| s * to_ref));
        report.errors.extend(run.errors);
        if run.outcome != self.plain {
            report.errors.push(format!(
                "untraced run {} differs from the first run{}",
                self.walls.len(),
                report::first_difference(&self.plain, &run.outcome)
            ));
        }
    }
}

fn untraced_mode(args: &Args) -> Report {
    let w = &args.workload;
    let mut report = Report::new(w, args.seed);
    let mut untraced = Untraced::new(w, args.seed, &mut report);
    let start = Instant::now();
    while untraced.walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        untraced.timed_run(SETUPS_PER_RUN, &mut report);
    }
    let (outcome, walls) = (&untraced.reference, &untraced.walls);
    let run_ref_s = median(&untraced.refs);
    let ops = outcome.ops();
    let samples = outcome.latency_samples();
    let (attempted, failed) = outcome.attempted_failed(w);
    report.attempted = attempted * walls.len() as u64;
    report.failed = failed * walls.len() as u64;
    report.info.push(format!(
        "{} runs, run_until min/median/max {} wall, {} reference; \
         calibration kernel {}",
        walls.len(),
        report::min_med_max(walls),
        report::min_med_max(&untraced.refs),
        report::min_med_max(&untraced.kernels),
    ));
    report.info.push(format!(
        "{ops} ops, {} latency samples, {attempted} attempted / {failed} failed per run \
         (ops_failed_frac {}), {} set-ups",
        samples.len(),
        report::ratio(failed as f64, attempted as f64),
        untraced.setups.len(),
    ));
    report.metrics = vec![
        Metric::new(
            "committed_ops_per_ref_s",
            ops as f64 / run_ref_s,
            "ops/ref_s",
        ),
        Metric::new("latency_ticks_p50", percentile(&samples, 50.0), "ticks"),
        Metric::new(
            "latency_ticks_tail",
            percentile(&samples, w.tail_percentile()),
            "ticks",
        ),
        Metric::new(
            "msgs_per_op",
            report::ratio(outcome.stats.sends_total() as f64, ops as f64),
            "msgs/op",
        ),
        Metric::new(
            "peak_rss_mb",
            report::peak_rss_mb() - calibrate::BUFFER_MB,
            "MB",
        ),
        Metric::new("setup_s", median(&untraced.setups), "s"),
    ];
    report
}

fn traced_mode(args: &Args) -> Report {
    let w = &args.workload;
    let mut report = Report::new(w, args.seed);
    let mut untraced = Untraced::new(w, args.seed, &mut report);
    let reference = untraced.reference.clone();
    let mut capacity = untraced.handler_calls * if w.is_log() { 2 } else { 1 } + 1;
    let start = Instant::now();
    let mut traced = Vec::new();
    let mut last = None;
    while traced.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        untraced.timed_run(0, &mut report);
        let t = traced::run_traced(w, args.seed, capacity, traced.is_empty());
        capacity = capacity.max(t.rec.spans.len());
        report.errors.extend(t.errors.iter().cloned());
        report
            .errors
            .extend(t.safety.iter().map(|v| format!("check_safety: {v}")));
        if t.outcome != reference {
            report.errors.push(format!(
                "traced run {} drifted from the untraced outcome{}",
                traced.len() + 1,
                report::first_difference(&reference, &t.outcome)
            ));
        }
        traced.push(report::Aggregate::of(&t));
        last = Some(t);
    }
    let last = last.expect("at least one traced run");
    let (attempted, failed) = last.outcome.attempted_failed(w);
    report.attempted = attempted * traced.len() as u64;
    report.failed = failed * traced.len() as u64;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.tsv", w.name));
    match traced::write_spans(&path, &last.rec.spans) {
        Ok(()) => report.info.push(format!(
            "{} spans written to {}",
            last.rec.spans.len(),
            path.display()
        )),
        Err(e) => report
            .errors
            .push(format!("writing {}: {e}", path.display())),
    }
    let untraced_walls = &untraced.walls;
    report.metrics = report::layer_metrics(w, &last, &traced, median(untraced_walls));
    report.info.push(format!(
        "{} untraced runs {}, {} traced runs {}",
        untraced_walls.len(),
        report::min_med_max(untraced_walls),
        traced.len(),
        report::min_med_max(&traced.iter().map(|a| a.wall_s).collect::<Vec<_>>()),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The allocation counters are process-wide and tests run on parallel
    /// threads: every test holds this lock so counts stay per-run.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Metrics that are neither times nor derived from times: counts,
    /// ratios of counts, and simulated ticks. These must repeat exactly.
    fn exact(metrics: &[Metric]) -> Vec<(String, f64)> {
        metrics
            .iter()
            .filter(|m| !report::is_time_valued(&m.name))
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    fn layer_run(w: &Workload, seed: u64) -> (Outcome, Vec<(String, f64)>) {
        let u = workload::run_untraced(w, seed, true);
        assert!(u.errors.is_empty(), "{}: {:?}", w.name, u.errors);
        let t = traced::run_traced(w, seed, 0, true);
        assert!(t.errors.is_empty(), "{}: {:?}", w.name, t.errors);
        assert!(t.safety.is_empty(), "{}: {:?}", w.name, t.safety);
        assert_eq!(t.outcome, u.outcome, "{}: traced run drifted", w.name);
        let agg = report::Aggregate::of(&t);
        let metrics = report::layer_metrics(w, &t, &[agg], u.wall.as_secs_f64());
        (u.outcome, exact(&metrics))
    }

    #[test]
    fn counters_repeat_exactly_and_seeds_change_inputs() {
        let _serial = SERIAL.lock().expect("no test panicked holding the lock");
        for name in workload::NAMES {
            let w = Workload::named(name).expect("listed").tiny();
            let (a, ma) = layer_run(&w, 3);
            let (b, mb) = layer_run(&w, 3);
            assert_eq!(a, b, "{name}: same seed, different outcome");
            assert_eq!(ma, mb, "{name}: same seed, different counters");
            assert!(!ma.is_empty());
            let (c, _) = layer_run(&w, 4);
            assert_ne!(a, c, "{name}: another seed left the run unchanged");
            let (att, failed) = a.attempted_failed(&w);
            assert!(att > 0 && failed == 0, "{name}: {failed} of {att} failed");
        }
    }

    #[test]
    fn every_workload_has_a_tiny_twin() {
        let _serial = SERIAL.lock().expect("no test panicked holding the lock");
        for name in workload::NAMES {
            let w = Workload::named(name).expect("listed");
            assert_eq!(w.tiny().name, name);
        }
        assert!(Workload::named("nope").is_none());
    }

    #[test]
    fn args_parse_and_reject() {
        let _serial = SERIAL.lock().expect("no test panicked holding the lock");
        let argv = |s: &str| {
            std::iter::once("perfbench")
                .chain(s.split_whitespace())
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse_args(argv("--workload log-steady --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("log-steady", 7, 2.0, true)
        );
        assert!(parse_args(argv("--workload gmp-flat --seed x")).is_err());
        assert!(parse_args(argv("--workload gmp-flat --seed 1 --trace 2")).is_err());
        assert!(parse_args(argv("--seed 1")).is_err());
    }
}
