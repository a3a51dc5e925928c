//! The batch workload `match-stream`: bare sequential Rete on the
//! presets' own 2–9 change batches.
//!
//! A round sends one batch to each of the six full presets in figure
//! order; one batch stands for one firing's change set, as in the
//! paper's simulator. Only `Matcher::process` is timed.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use ops5::{Change, Instantiation, Matcher};
use rete::{MatchStats, Network, ReteMatcher};
use workloads::{GeneratedWorkload, Preset};

use crate::checks;
use crate::state::{self, StateProbe};
use crate::stats::{median, ratio, Meter};
use crate::streams::{mix, SteadyStream};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Full set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Rounds between lane rebuilds. `WorkingMemory` never reuses the slot
/// of a retracted element, so a lane's memory grows with every
/// assertion; rebuilding every lane at a fixed round count, outside the
/// timed calls, keeps the resident state (and `peak_rss_mb`) the same
/// however fast the matcher runs.
const REBUILD_EVERY: u64 = 2048;

/// One preset: its stream, its matcher, and the conflict set the
/// benchmark accumulates from the matcher's deltas.
struct Lane {
    network: Arc<Network>,
    stream: SteadyStream,
    matcher: ReteMatcher,
    conflict: HashSet<Instantiation>,
    /// Counters of the lane's retired matchers, summed.
    retired: MatchStats,
    /// Counters that are not the window's: each matcher's at the
    /// window's start or after its load, summed.
    excluded: MatchStats,
    /// Largest `peak_tokens` of a retired matcher.
    peak_tokens: u64,
}

impl Lane {
    fn new(preset: Preset, seed: u64) -> Lane {
        let workload = GeneratedWorkload::generate(preset.spec()).expect("preset generates");
        let network = Arc::new(Network::compile(&workload.program).expect("preset compiles"));
        let mut lane = Lane {
            matcher: ReteMatcher::from_network(network.clone()),
            network,
            stream: SteadyStream::new(workload, seed),
            conflict: HashSet::new(),
            retired: MatchStats::default(),
            excluded: MatchStats::default(),
            peak_tokens: 0,
        };
        lane.load();
        lane
    }

    /// Shows the stream's live elements to the matcher as one batch.
    fn load(&mut self) {
        let initial: Vec<Change> = self.stream.initial().into_iter().map(Change::Add).collect();
        let delta = self.matcher.process(&self.stream.wm, &initial);
        checks::apply_delta(&mut self.conflict, &delta);
    }

    /// Replaces working memory and the matcher by fresh ones holding
    /// the same live elements.
    fn rebuild(&mut self) {
        self.stream.compact();
        let fresh = ReteMatcher::from_network(self.network.clone());
        let old = std::mem::replace(&mut self.matcher, fresh).stats();
        self.retired.merge(&old);
        self.peak_tokens = self.peak_tokens.max(old.peak_tokens);
        self.conflict.clear();
        self.load();
        self.excluded.merge(&self.matcher.stats());
    }

    /// Counters of every matcher the lane has had, summed.
    fn totals(&self) -> MatchStats {
        let mut t = self.retired;
        t.merge(&self.matcher.stats());
        t
    }
}

fn build_lanes(seed: u64) -> Vec<Lane> {
    Preset::all()
        .into_iter()
        .enumerate()
        .map(|(i, preset)| Lane::new(preset, mix(seed, i as u64)))
        .collect()
}

/// Runs `match-stream`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut lanes = Vec::new();
    for _ in 0..SETUP_REPS {
        lanes.clear();
        let t = Instant::now();
        lanes = build_lanes(args.seed);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&mut setups));

    let mut probe = StateProbe::new(args.window);
    for lane in &mut lanes {
        let conflict = state::sorted(&lane.conflict);
        let bytes = state::checkpoint_bytes(0, &lane.stream.wm, &lane.matcher, &conflict);
        probe.add(bytes, lane.network.clone(), &lane.stream.workload().program);
        lane.excluded = lane.matcher.stats();
    }
    let mut meter = Meter::sliced(args.window / 12);
    let (mut busy_ns, mut changes, mut batches, mut rounds) = (0u64, 0u64, 0u64, 0u64);
    let window_start = Instant::now();
    let root = tracer.open("window", window_start, None);
    while window_start.elapsed() < args.window {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let batch = lane.stream.next_batch();
            let t0 = Instant::now();
            let delta = lane.matcher.process(&lane.stream.wm, &batch);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            lane.stream.commit(&batch);
            checks::apply_delta(&mut lane.conflict, &delta);
            meter.record(ns, batch.len() as u64, 1);
            busy_ns += ns;
            changes += batch.len() as u64;
            batches += 1;
            tracer.span(
                "process",
                t0,
                t1,
                root,
                0,
                &[("preset", i as f64), ("changes", batch.len() as f64)],
            );
        }
        meter.end_round();
        probe.tick();
        rounds += 1;
        if rounds % REBUILD_EVERY == 0 {
            lanes.iter_mut().for_each(Lane::rebuild);
        }
    }
    tracer.close(root, Instant::now());
    out.attempted += batches;
    let summary = meter.finish();
    out.set("wme_changes_per_sec", summary.wme_changes_per_sec);
    out.set("firings_per_sec", summary.firings_per_sec);
    out.set("cycle_p50_us", summary.cycle_p50_us);
    out.set("cycle_p99_us", summary.cycle_p99_us);
    eprintln!(
        "{}: {batches} batches, {changes} changes, {} slices; {:.0} changes/s, {:.0} changes/s \
         over the whole window",
        args.workload,
        summary.slices,
        summary.wme_changes_per_sec,
        changes as f64 / (busy_ns as f64 / 1e9)
    );

    // Per-layer counters over the window.
    let after = MatchStats::merged(lanes.iter().map(Lane::totals).collect::<Vec<_>>().iter());
    let before = MatchStats::merged(lanes.iter().map(|l| &l.excluded));
    let d = |f: fn(&MatchStats) -> u64| (f(&after) - f(&before)) as f64;
    let n = d(|s| s.changes);
    out.set("rete.match_ns_per_change", ratio(busy_ns as f64, n));
    out.set(
        "rete.activations_per_change",
        ratio(d(MatchStats::node_activations), n),
    );
    out.set(
        "rete.pairs_scanned_per_change",
        ratio(d(|s| s.pairs_scanned), n),
    );
    out.set("rete.join_tests_per_change", ratio(d(|s| s.join_tests), n));
    out.set(
        "rete.join_yield",
        ratio(d(|s| s.tokens_created), d(|s| s.pairs_scanned)),
    );
    let peak: u64 = lanes
        .iter()
        .map(|l| l.peak_tokens.max(l.matcher.stats().peak_tokens))
        .sum();
    out.set("rete.peak_tokens", peak as f64);
    let index: usize = lanes
        .iter()
        .map(|l| l.matcher.resident_index_entries())
        .sum();
    out.set("rete.resident_index_entries", index as f64);
    out.set("rete.phantom_removes", after.phantom_removes as f64);
    out.check(
        "phantom removes",
        if after.phantom_removes == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} retractions reached nodes holding no state",
                after.phantom_removes
            ))
        },
    );

    // Checks, after the window.
    for (lane, preset) in lanes.iter().zip(Preset::all()) {
        let expected =
            checks::enumerate_instantiations(&lane.stream.workload().program, &lane.stream.wm);
        out.check(
            &format!("{}: final conflict set", preset.name()),
            checks::same_instantiations(&expected, &lane.conflict),
        );
    }
    probe.report(&mut out);
    out
}
