//! One benchmark for the production-system machine.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload match-stream --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload for `--seconds` of measured time, checks the
//! program's outputs against computations made apart from it, and
//! prints one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`, which also writes a Chrome trace of its spans to
//! `.perfbench/<workload>-seed<n>.trace.json`). See `README.md`.

mod batch;
mod checks;
mod interp;
mod state;
mod stats;
mod streams;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("wme_changes_per_sec", "1/s"),
    ("firings_per_sec", "1/s"),
    ("cycle_p50_us", "us"),
    ("cycle_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checkpoint_bytes", "bytes"),
    ("recovery_ms", "ms"),
    ("explain_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer the
/// workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("rete.match_ns_per_change", "ns"),
    ("rete.activations_per_change", "count"),
    ("rete.pairs_scanned_per_change", "count"),
    ("rete.join_tests_per_change", "count"),
    ("rete.join_yield", "ratio"),
    ("rete.peak_tokens", "count"),
    ("rete.resident_index_entries", "count"),
    ("rete.phantom_removes", "count"),
    ("core.match_ns_per_change", "ns"),
    ("core.tasks_per_batch", "count"),
    ("core.pairs_scanned_per_change", "count"),
    ("core.exec_ns_per_task", "ns"),
    ("core.lock_wait_share", "ratio"),
    ("core.idle_share", "ratio"),
    ("core.steals_per_task", "ratio"),
    ("core.worker_busy_share", "ratio"),
    ("ops5.select_ns_per_firing", "ns"),
    ("ops5.match_ns_per_firing", "ns"),
    ("ops5.act_ns_per_firing", "ns"),
    ("ops5.conflict_set_mean", "count"),
    ("ops5.changes_per_firing", "count"),
    ("fault.plain_cycle_us", "us"),
    ("fault.checkpoint_cycle_us", "us"),
    ("fault.checkpoint_time_share", "ratio"),
    ("fault.checkpoints", "count"),
    ("fault.wal_replayed_per_checkpoint", "count"),
    ("fault.recovery_wal_replayed", "count"),
    ("fault.snapshot_bytes", "bytes"),
    ("fault.fallbacks", "count"),
    ("fault.retries", "count"),
    ("fault.deadline_misses", "count"),
    ("obs.flight_records_per_change", "count"),
    ("obs.plane_ns_per_change", "ns"),
    ("telemetry.metrics_scrape_ms", "ms"),
    ("telemetry.metrics_bytes", "bytes"),
    ("telemetry.explain_bytes", "bytes"),
];

const WORKLOADS: &[&str] = &["match-stream", "recognize-act", "service"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window.
    pub window: Duration,
    /// Traced run (per-layer metrics and a span file).
    pub trace: bool,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end and per-layer alike).
    pub metrics: HashMap<&'static str, f64>,
    /// Operations attempted (timed calls plus the untimed requests,
    /// drills and queries the workload makes).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a check result.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(format!("{what}: {e}"));
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The host's processor count: the worker threads of `service`'s
/// parallel tier.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = seed.unwrap_or(1);
    let seconds = seconds.unwrap_or(15.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed,
        window: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("psm-perfbench: {e}");
            eprintln!(
                "usage: psm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut tracer = trace::Tracer::new(args.trace, format!("{}-seed{}", args.workload, args.seed));
    let mut outcome = match args.workload.as_str() {
        "match-stream" => batch::run(&args, &mut tracer),
        "recognize-act" => interp::run(&args, false, &mut tracer),
        _ => interp::run(&args, true, &mut tracer),
    };
    outcome.set("peak_rss_mb", stats::peak_rss_mb());

    if args.trace {
        let bad = tracer.nesting_violations();
        outcome.check(
            "trace nesting",
            if bad == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{bad} layer spans fall outside the call that caused them"
                ))
            },
        );
        let file = format!(".perfbench/{}-seed{}.trace.json", args.workload, args.seed);
        let path = std::path::Path::new(&file);
        if let Err(e) = tracer.write_chrome(path) {
            outcome
                .problems
                .push(format!("writing {}: {e}", path.display()));
        } else {
            eprintln!("wrote {} spans to {}", tracer.len(), path.display());
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if !args.trace && value <= 0.0 {
            outcome
                .problems
                .push(format!("end-to-end metric {name} is not positive"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
}
