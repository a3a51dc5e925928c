//! The interpreter workloads: `recognize-act` (the interpreter over bare
//! sequential Rete) and `service` (the interpreter driving the fault
//! `Supervisor` at its parallel top tier, with WAL, checkpoints and the
//! full telemetry plane on).
//!
//! Both run the same nine inputs: the six acting presets and three
//! programs whose answers the benchmark computes itself. A round runs
//! one episode of each input; an episode starts a fresh interpreter on
//! the input's initial working memory and runs it to quiescence, or for
//! [`PRESET_CYCLES`] cycles on a preset (whose rules loop). Rounds are
//! identical, so cycle cost does not drift with the length of the run.
//! Only `Interpreter::cycle` is timed.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ops5::{CycleOutcome, Instantiation, Interpreter, Matcher, Program, Strategy, Wme, WmeId};
use psm_fault::{Supervisor, SupervisorConfig, Tier};
use psm_obs::{Obs, Phase, Rng64, Sampler};
use psm_telemetry::client::{http_get, Json};
use psm_telemetry::{TelemetryConfig, TelemetryServer};
use rete::{MatchStats, Network, ReteMatcher};
use workloads::{programs, GeneratedWorkload, Preset};

use crate::checks::{self, Move};
use crate::state::{self, StateProbe};
use crate::stats::{mean, median, ratio, Meter};
use crate::streams::{closure_edges, grid_edges, mix, permutation, relabel};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Outcome};

/// Full set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Cycle cap of a preset episode.
const PRESET_CYCLES: u64 = 200;
/// Cycle cap of a program episode (they reach quiescence well before).
const PROGRAM_CYCLES: u64 = 100_000;
/// `service` scrapes `/metrics` and samples the checkpoint size every
/// this many cycles of an episode.
const SAMPLE_EVERY: u64 = 50;
/// Recovery drills at the end of each `service` episode.
const DRILLS: usize = 3;
/// `/explain` queries at the end of each `service` episode.
const EXPLAIN_QUERIES: usize = 6;
/// Shortest-paths grid side, Hanoi disks, closure graph size.
const GRID_SIDE: i64 = 10;
const HANOI_DISKS: i64 = 7;
const CLOSURE_NODES: i64 = 24;
const CLOSURE_EDGES: usize = 36;
/// Seed of the programs' graph shapes (walls, edges).
const GRAPH_SEED: u64 = 0x5EED;
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

/// What an input's final working memory must hold.
enum Answer {
    /// A preset: checked by conflict-set enumeration.
    Preset,
    /// `shortest_paths` from a start cell: BFS distances.
    Paths(Vec<(i64, i64)>, i64),
    /// `hanoi`: 2ⁿ−1 legal moves.
    Hanoi(i64),
    /// `transitive_closure`: the Warshall closure.
    Closure(i64, Vec<(i64, i64)>),
}

struct Input {
    name: String,
    program: Program,
    network: Arc<Network>,
    initial: Vec<Wme>,
    strategy: Strategy,
    cap: u64,
    answer: Answer,
}

fn build_inputs(seed: u64) -> Vec<Input> {
    let mut inputs: Vec<Input> = Preset::all()
        .into_iter()
        .enumerate()
        .map(|(i, preset)| {
            let w = GeneratedWorkload::generate(preset.spec_acting()).expect("preset generates");
            // The preset's own working memory, with its join values
            // renamed per seed. Rules test `^a1` only through the join
            // variable, so every seed runs the same episode up to names:
            // an episode's cost varies a hundredfold across unrelated
            // initial memories (see README), which would swamp the code.
            let a1 = w.program.symbols.lookup("a1");
            let perm = permutation(w.spec.join_values, mix(seed, i as u64));
            let initial = w
                .initial_wm(&mut Rng64::new(w.spec.seed))
                .into_iter()
                .map(|wme| rename_join_value(&wme, a1, &perm))
                .collect();
            input(
                format!("{}-acting", preset.name()),
                w.program,
                initial,
                Strategy::Lex,
                PRESET_CYCLES,
                Answer::Preset,
            )
        })
        .collect();
    // The programs' graphs keep a fixed shape; the seed renames nodes.
    let cells = permutation(GRID_SIDE * GRID_SIDE, mix(seed, 6));
    let grid = relabel(&grid_edges(GRID_SIDE, GRAPH_SEED), &cells);
    let start = cells[0];
    let (p, wm) = programs::shortest_paths(&grid, start).expect("program parses");
    inputs.push(input(
        "shortest_paths".into(),
        p,
        wm,
        Strategy::Lex,
        PROGRAM_CYCLES,
        Answer::Paths(grid, start),
    ));
    let (p, wm) = programs::hanoi(HANOI_DISKS).expect("program parses");
    inputs.push(input(
        "hanoi".into(),
        p,
        wm,
        Strategy::Mea,
        PROGRAM_CYCLES,
        Answer::Hanoi(HANOI_DISKS),
    ));
    let nodes = permutation(CLOSURE_NODES, mix(seed, 8));
    let graph = relabel(
        &closure_edges(CLOSURE_NODES, CLOSURE_EDGES, GRAPH_SEED),
        &nodes,
    );
    let (p, wm) = programs::transitive_closure(&graph).expect("program parses");
    inputs.push(input(
        "transitive_closure".into(),
        p,
        wm,
        Strategy::Lex,
        PROGRAM_CYCLES,
        Answer::Closure(CLOSURE_NODES, graph),
    ));
    inputs
}

/// `wme` with its integer `^a1` value `v` renamed `perm[v]`.
fn rename_join_value(wme: &Wme, a1: Option<ops5::SymbolId>, perm: &[i64]) -> Wme {
    let attrs = wme
        .attrs()
        .map(|(attr, value)| match value {
            ops5::Value::Int(v) if Some(attr) == a1 => (attr, ops5::Value::Int(perm[v as usize])),
            _ => (attr, value),
        })
        .collect();
    Wme::new(wme.class(), attrs)
}

fn input(
    name: String,
    program: Program,
    initial: Vec<Wme>,
    strategy: Strategy,
    cap: u64,
    answer: Answer,
) -> Input {
    let network = Arc::new(Network::compile(&program).expect("program compiles"));
    Input {
        name,
        program,
        network,
        initial,
        strategy,
        cap,
        answer,
    }
}

fn start_bare(input: &Input, traced: bool) -> Interpreter<ReteMatcher> {
    let matcher = ReteMatcher::from_network(input.network.clone());
    let mut interp = Interpreter::new(input.program.clone(), matcher);
    interp.set_strategy(input.strategy);
    if traced {
        interp.enable_phase_profiling();
    }
    interp.insert_all(input.initial.iter().cloned());
    interp
}

/// The telemetry plane of one `service` episode: flight recorder,
/// per-node profiler and history ring on one `Obs`, a history sampler,
/// and the HTTP listener.
struct Plane {
    obs: Arc<Obs>,
    sampler: Sampler,
    server: TelemetryServer,
    addr: SocketAddr,
}

impl Plane {
    fn start() -> Plane {
        let obs = Arc::new(Obs::with_history(4096, 65_536, 4096, 128));
        let sampler = Sampler::start(Arc::clone(&obs), Duration::from_millis(10));
        let config = TelemetryConfig {
            workers: 1,
            ..TelemetryConfig::default()
        };
        let server = TelemetryServer::start(Arc::clone(&obs), &config).expect("listener binds");
        let addr = server.local_addr();
        Plane {
            obs,
            sampler,
            server,
            addr,
        }
    }

    fn stop(self) {
        self.sampler.stop();
        self.server.shutdown();
    }
}

/// A `service` episode: the supervised interpreter, its plane (absent
/// only in the plane-off half of the overhead pair), and the benchmark's
/// own ledger of time tags by element handle.
struct ServiceEpisode {
    interp: Interpreter<Supervisor>,
    plane: Option<Plane>,
    tags: Vec<u64>,
}

impl ServiceEpisode {
    fn start(input: &Input, traced: bool, with_plane: bool) -> ServiceEpisode {
        let plane = with_plane.then(Plane::start);
        if let (Some(p), true) = (&plane, traced) {
            // Per-worker timing in the parallel engine.
            p.obs.set_detail(true);
        }
        let config = SupervisorConfig {
            threads: crate::nproc(),
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(&input.program, config).expect("program compiles");
        if let Some(p) = &plane {
            sup.attach_obs(Arc::clone(&p.obs));
        }
        let mut interp = Interpreter::new(input.program.clone(), sup);
        if let Some(p) = &plane {
            interp.attach_obs(Arc::clone(&p.obs));
        }
        interp.set_strategy(input.strategy);
        interp.enable_firing_log();
        if traced {
            interp.enable_phase_profiling();
        }
        interp.insert_all(input.initial.iter().cloned());
        let mut tags = Vec::new();
        note_new_tags(&mut tags, interp.working_memory());
        ServiceEpisode {
            interp,
            plane,
            tags,
        }
    }
}

/// Extends a time-tag ledger with the elements asserted since the last
/// call. Elements asserted by a cycle are all live right after it (a
/// right-hand side removes only matched, older elements), so the new
/// handles are a dense run after the known ones.
fn note_new_tags(tags: &mut Vec<u64>, wm: &ops5::WorkingMemory) {
    while let Some(tag) = wm.time_tag(WmeId::from_index(tags.len())) {
        tags.push(tag.0);
    }
}

/// Position of `phase` in `PhaseProfile::totals_ns`, which follows
/// `Phase::ALL`.
fn slot(phase: Phase) -> usize {
    Phase::ALL
        .iter()
        .position(|&p| p == phase)
        .expect("every phase is listed")
}

/// Sums of per-layer counters over an episode's cycles.
#[derive(Default)]
struct Layers {
    firings: u64,
    changes: u64,
    phase_ns: [u64; 3],
    conflict_scanned: u64,
    /// Matcher counters at the start and end of each episode's cycles,
    /// summed over episodes.
    rete_before: MatchStats,
    rete_after: MatchStats,
    peak_tokens: u64,
}

/// What `service` records beyond the meter.
#[derive(Default)]
struct ServiceLog {
    /// Changes and match-phase time of the cycles that took no
    /// checkpoint (a checkpoint rebuilds a sequential matcher while the
    /// parallel engine's workers wait, so the `core` shares leave those
    /// cycles out).
    plain_changes: u64,
    plain_match_ns: u64,
    /// Deltas of [`engine_counters`] over those cycles (traced runs).
    engine: [u64; 5],
    plain_us: Vec<f64>,
    checkpoint_us: Vec<f64>,
    checkpoints: u64,
    wal_replayed: u64,
    scrape_ms: Vec<f64>,
    metrics_bytes: Vec<f64>,
    explain_bytes: Vec<f64>,
    drill_wal: Vec<f64>,
    drill_bytes: Vec<f64>,
    flight_records: u64,
    flight_changes: u64,
    fallbacks: u64,
    retries: u64,
    deadline_misses: u64,
}

/// Per-input samples of `service`'s state metrics.
struct PerInput {
    checkpoint_bytes: Vec<Vec<f64>>,
    recovery_ms: Vec<Vec<f64>>,
    explain_ms: Vec<Vec<f64>>,
}

impl PerInput {
    fn new(n: usize) -> Self {
        PerInput {
            checkpoint_bytes: vec![Vec::new(); n],
            recovery_ms: vec![Vec::new(); n],
            explain_ms: vec![Vec::new(); n],
        }
    }

    /// Sets the three metrics: the mean over inputs of each input's
    /// mean checkpoint size, median recovery and median explain time.
    fn report(mut self, out: &mut Outcome) {
        let of = |v: &mut Vec<Vec<f64>>, f: fn(&mut [f64]) -> f64| {
            let per: Vec<f64> = v
                .iter_mut()
                .filter(|s| !s.is_empty())
                .map(|s| f(s))
                .collect();
            mean(&per)
        };
        out.set(
            "checkpoint_bytes",
            of(&mut self.checkpoint_bytes, |s| mean(s)),
        );
        out.set("recovery_ms", of(&mut self.recovery_ms, median));
        out.set("explain_ms", of(&mut self.explain_ms, median));
    }
}

/// One timed cycle, as `run_cycles` hands it to its caller.
struct Cycle {
    /// Number within the episode, from 1.
    n: u64,
    ns: u64,
    changes: u64,
    /// Match, select and act time from the phase profile (traced runs;
    /// zeros otherwise), indexed by [`slot`].
    phase_ns: [u64; 3],
    span: Option<SpanId>,
}

/// Runs one episode's cycles, timing each; `after` sees the interpreter
/// and the cycle after every firing.
#[allow(clippy::too_many_arguments)]
fn run_cycles<M: Matcher>(
    interp: &mut Interpreter<M>,
    cap: u64,
    meter: &mut Meter,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    layers: &mut Layers,
    out: &mut Outcome,
    mut after: impl FnMut(&mut Interpreter<M>, &Cycle, &mut Tracer),
) -> u64 {
    let mut cycles = 0;
    while cycles < cap {
        let traced = tracer.enabled();
        let phases_before = interp.phase_profile().map(|p| p.totals_ns());
        if traced {
            layers.conflict_scanned += interp.conflict_set().len() as u64;
        }
        let changes_before = interp.stats().wme_changes;
        let t0 = Instant::now();
        let outcome = interp.cycle();
        let t1 = Instant::now();
        out.attempted += 1;
        let halted = match outcome {
            Ok(CycleOutcome::Quiescent) => break,
            Err(_) => {
                out.failed += 1;
                break;
            }
            Ok(CycleOutcome::Fired(_)) => false,
            Ok(CycleOutcome::Halted) => true,
        };
        cycles += 1;
        let ns = (t1 - t0).as_nanos() as u64;
        let changes = interp.stats().wme_changes - changes_before;
        meter.record(ns, changes, 1);
        layers.firings += 1;
        layers.changes += changes;
        let mut span = None;
        let mut d = [0u64; 3];
        if let (Some(before), Some(p)) = (phases_before, interp.phase_profile()) {
            let now = p.totals_ns();
            d = std::array::from_fn(|i| now[i] - before[i]);
            for (acc, x) in layers.phase_ns.iter_mut().zip(&d) {
                *acc += x;
            }
            span = tracer.span("cycle", t0, t1, parent, 0, &[]);
            tracer.sequence(
                span,
                t0,
                0,
                &[
                    ("ops5.select", d[slot(Phase::Select)]),
                    ("ops5.act", d[slot(Phase::Act)]),
                    ("ops5.match", d[slot(Phase::Match)]),
                ],
            );
        }
        let cycle = Cycle {
            n: cycles,
            ns,
            changes,
            phase_ns: d,
            span,
        };
        after(interp, &cycle, tracer);
        if halted {
            break;
        }
    }
    cycles
}

/// Runs `recognize-act` (`service == false`) or `service`.
pub fn run(args: &Args, service: bool, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let traced = args.trace;

    // Set-up: make the inputs and start one episode of each (one at a
    // time, as the rounds do; stopping an episode is not set-up).
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let mut secs = 0.0;
        let t = Instant::now();
        inputs = build_inputs(args.seed);
        secs += t.elapsed().as_secs_f64();
        for input in &inputs {
            let t = Instant::now();
            if service {
                let episode = ServiceEpisode::start(input, traced, true);
                secs += t.elapsed().as_secs_f64();
                if let Some(plane) = episode.plane {
                    plane.stop();
                }
            } else {
                let episode = start_bare(input, traced);
                secs += t.elapsed().as_secs_f64();
                drop(episode);
            }
        }
        setups.push(secs);
    }
    out.set("setup_s", median(&mut setups));

    let n = inputs.len();
    let mut per_input = PerInput::new(n);
    let mut layers = Layers::default();
    let mut log = ServiceLog::default();
    let mut last_bare: Vec<Option<Interpreter<ReteMatcher>>> = (0..n).map(|_| None).collect();
    let mut parity: Vec<Option<Parity>> = (0..n).map(|_| None).collect();
    let mut meter = Meter::repeated(args.window / 24);
    // Bare runs take their state metrics from the episodes' final states
    // (the same every round) on the probe's cadence.
    let mut probe = (!service).then(|| StateProbe::new(args.window));
    let window_start = Instant::now();
    let root = tracer.open("window", window_start, None);
    let mut first_round = true;
    while window_start.elapsed() < args.window {
        for (i, input) in inputs.iter().enumerate() {
            let episode_span = tracer.open("episode", Instant::now(), root);
            if service {
                let mut ep = ServiceEpisode::start(input, traced, true);
                let cycles = service_cycles(
                    &mut ep,
                    input,
                    &mut meter,
                    tracer,
                    episode_span,
                    &mut layers,
                    &mut log,
                    &mut per_input.checkpoint_bytes[i],
                    &mut out,
                );
                service_epilogue(
                    ep,
                    i,
                    input,
                    cycles,
                    &mut log,
                    &mut per_input,
                    &mut parity,
                    tracer,
                    episode_span,
                    &mut out,
                );
            } else {
                let mut interp = start_bare(input, traced);
                layers.rete_before.merge(&interp.matcher().stats());
                run_cycles(
                    &mut interp,
                    input.cap,
                    &mut meter,
                    tracer,
                    episode_span,
                    &mut layers,
                    &mut out,
                    |_, _, _| {},
                );
                let after = interp.matcher().stats();
                layers.rete_after.merge(&after);
                layers.peak_tokens = layers.peak_tokens.max(after.peak_tokens);
                if let Some(probe) = probe.as_mut() {
                    if first_round {
                        let conflict = state::sorted(interp.conflict_set().iter());
                        let wm = interp.working_memory();
                        let bytes = state::checkpoint_bytes(
                            interp.stats().firings,
                            wm,
                            interp.matcher(),
                            &conflict,
                        );
                        probe.add(bytes, input.network.clone(), &input.program);
                    }
                    probe.tick();
                }
                last_bare[i] = Some(interp);
            }
            tracer.close(episode_span, Instant::now());
        }
        meter.end_round();
        first_round = false;
    }
    tracer.close(root, Instant::now());

    let summary = meter.finish();
    out.set("wme_changes_per_sec", summary.wme_changes_per_sec);
    out.set("firings_per_sec", summary.firings_per_sec);
    out.set("cycle_p50_us", summary.cycle_p50_us);
    out.set("cycle_p99_us", summary.cycle_p99_us);
    eprintln!(
        "{}: {} cycles in {} kept slices; {:.0} firings/s, p50 {:.1} us",
        args.workload, summary.calls, summary.slices, summary.firings_per_sec, summary.cycle_p50_us
    );

    let f = layers.firings as f64;
    out.set(
        "ops5.select_ns_per_firing",
        ratio(layers.phase_ns[slot(Phase::Select)] as f64, f),
    );
    out.set(
        "ops5.match_ns_per_firing",
        ratio(layers.phase_ns[slot(Phase::Match)] as f64, f),
    );
    out.set(
        "ops5.act_ns_per_firing",
        ratio(layers.phase_ns[slot(Phase::Act)] as f64, f),
    );
    out.set(
        "ops5.conflict_set_mean",
        ratio(layers.conflict_scanned as f64, f),
    );
    out.set("ops5.changes_per_firing", ratio(layers.changes as f64, f));

    if service {
        service_report(args, &inputs, &log, parity, &mut out);
    } else {
        bare_report(&inputs, &layers, last_bare, &mut out);
    }
    match probe {
        Some(probe) => probe.report(&mut out),
        None => per_input.report(&mut out),
    }
    out
}

/// Checks an episode's final working memory against the input's
/// answer, computed apart from the program.
fn check_answer(
    input: &Input,
    interp_program: &Program,
    wm: &ops5::WorkingMemory,
) -> Result<(), String> {
    let sym = |name: &str| interp_program.symbols.lookup(name);
    match &input.answer {
        Answer::Preset => Ok(()),
        Answer::Paths(edges, start) => {
            let facts: Vec<(i64, i64)> = checks::of_class(interp_program, wm, "wave")
                .map(|w| {
                    (
                        checks::int_attr(w, sym("cell")).unwrap_or(-1),
                        checks::int_attr(w, sym("d")).unwrap_or(-1),
                    )
                })
                .collect();
            checks::check_distances(&checks::bfs_distances(edges, *start), &facts)
        }
        Answer::Hanoi(disks) => {
            let peg = |w: &Wme, attr: &str| match sym(attr).and_then(|a| w.get(a)) {
                Some(ops5::Value::Sym(s)) => interp_program.symbols.name(s).to_string(),
                _ => String::new(),
            };
            let moves: Vec<Move> = checks::of_class(interp_program, wm, "move")
                .map(|w| Move {
                    seq: checks::int_attr(w, sym("seq")).unwrap_or(-1),
                    disk: checks::int_attr(w, sym("disk")).unwrap_or(-1),
                    from: peg(w, "from"),
                    to: peg(w, "to"),
                })
                .collect();
            checks::check_hanoi(*disks, &moves)
        }
        Answer::Closure(nodes, edges) => {
            let facts: Vec<(i64, i64)> = checks::of_class(interp_program, wm, "reach")
                .map(|w| {
                    (
                        checks::int_attr(w, sym("from")).unwrap_or(-1),
                        checks::int_attr(w, sym("to")).unwrap_or(-1),
                    )
                })
                .collect();
            checks::check_closure(&checks::warshall(*nodes, edges), &facts)
        }
    }
}

/// `recognize-act` after the window: checks on each input's last
/// episode, the state-size metrics on it, and the `rete` layer sums.
fn bare_report(
    inputs: &[Input],
    layers: &Layers,
    last: Vec<Option<Interpreter<ReteMatcher>>>,
    out: &mut Outcome,
) {
    let mut resident = 0;
    for (input, last) in inputs.iter().zip(last) {
        let Some(interp) = last else { continue };
        let wm = interp.working_memory();
        let expected = checks::enumerate_instantiations(interp.program(), wm);
        out.check(
            &format!("{}: final conflict set", input.name),
            checks::same_instantiations(&expected, interp.conflict_set().iter()),
        );
        out.check(
            &format!("{}: answer", input.name),
            check_answer(input, interp.program(), wm),
        );
        resident += interp.matcher().resident_index_entries();
    }
    let (after, before) = (&layers.rete_after, &layers.rete_before);
    let d = |f: fn(&MatchStats) -> u64| (f(after) - f(before)) as f64;
    let n = d(|s| s.changes);
    let phantom = after.phantom_removes;
    out.check(
        "phantom removes",
        if phantom == 0 {
            Ok(())
        } else {
            Err(format!("{phantom} phantom removes"))
        },
    );
    out.set(
        "rete.match_ns_per_change",
        ratio(layers.phase_ns[slot(Phase::Match)] as f64, n),
    );
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
    out.set("rete.peak_tokens", layers.peak_tokens as f64);
    out.set("rete.resident_index_entries", resident as f64);
    out.set("rete.phantom_removes", phantom as f64);
}

/// A `service` episode's committed state, kept for the parity check.
struct Parity {
    cycles: u64,
    wm_bytes: Vec<u8>,
    supervisor_conflict: Vec<Instantiation>,
    interp_conflict: Vec<Instantiation>,
}

/// The parallel engine's counters in the plane's registry: tasks,
/// steals, lock wait (ns), execution (ns, summed over workers) and the
/// per-node profiler's pairs compared. The timing pair is filled only
/// when the plane's detail toggle is on (traced runs).
fn engine_counters(obs: &Obs) -> [u64; 5] {
    let snap = obs.metrics.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let exec = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("engine.worker.exec_ns"))
        .map(|(_, v)| v)
        .sum();
    let pairs = obs.profile.snapshot().rows.iter().map(|r| r.pairs).sum();
    [
        counter("engine.tasks"),
        counter("engine.steals"),
        counter("engine.lock_wait_ns"),
        exec,
        pairs,
    ]
}

#[allow(clippy::too_many_arguments)]
fn service_cycles(
    ep: &mut ServiceEpisode,
    input: &Input,
    meter: &mut Meter,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    layers: &mut Layers,
    log: &mut ServiceLog,
    checkpoint_bytes: &mut Vec<f64>,
    out: &mut Outcome,
) -> u64 {
    let addr = ep.plane.as_ref().map(|p| p.addr);
    let start = ep.interp.matcher().report();
    let mut checkpoints = start.checkpoints;
    let mut scrapes: Vec<(f64, usize, bool)> = Vec::new();
    let tags = &mut ep.tags;
    // The engine's registry counters, read around every cycle in the
    // traced run (outside the timed call) so that checkpoint cycles can
    // be left out of the `core` sums.
    let obs = ep
        .plane
        .as_ref()
        .filter(|_| tracer.enabled())
        .map(|p| Arc::clone(&p.obs));
    let mut engine = obs.as_deref().map(engine_counters);
    let cycles = run_cycles(
        &mut ep.interp,
        input.cap,
        meter,
        tracer,
        parent,
        layers,
        out,
        |interp, c, tracer| {
            note_new_tags(tags, interp.working_memory());
            let now = interp.matcher().report().checkpoints;
            let us = c.ns as f64 / 1e3;
            let engine_delta = match (obs.as_deref(), engine.as_mut()) {
                (Some(obs), Some(prev)) => {
                    let after = engine_counters(obs);
                    let delta: [u64; 5] = std::array::from_fn(|k| after[k] - prev[k]);
                    *prev = after;
                    delta
                }
                _ => [0; 5],
            };
            if now > checkpoints {
                log.checkpoint_us.push(us);
            } else {
                log.plain_us.push(us);
                log.plain_match_ns += c.phase_ns[slot(Phase::Match)];
                log.plain_changes += c.changes;
                for (acc, d) in log.engine.iter_mut().zip(engine_delta) {
                    *acc += d;
                }
            }
            tracer.annotate(c.span, "checkpoints", now as f64);
            checkpoints = now;
            if c.n % SAMPLE_EVERY == 0 {
                checkpoint_bytes.push(interp.matcher().last_checkpoint().to_bytes().len() as f64);
                if let Some(addr) = addr {
                    let t = Instant::now();
                    let got = http_get(addr, "/metrics", HTTP_TIMEOUT);
                    let end = Instant::now();
                    let ok = matches!(&got, Ok((200, body)) if body.contains("fault_checkpoints"));
                    let bytes = got.map_or(0, |(_, b)| b.len());
                    scrapes.push(((end - t).as_secs_f64() * 1e3, bytes, ok));
                    tracer.span(
                        "http.metrics",
                        t,
                        end,
                        parent,
                        0,
                        &[("bytes", bytes as f64)],
                    );
                }
            }
        },
    );
    for (ms, bytes, ok) in scrapes {
        out.attempted += 1;
        out.failed += u64::from(!ok);
        log.scrape_ms.push(ms);
        log.metrics_bytes.push(bytes as f64);
    }
    let end = ep.interp.matcher().report();
    log.checkpoints += end.checkpoints - start.checkpoints;
    log.wal_replayed += end.wal_replayed - start.wal_replayed;
    cycles
}

#[allow(clippy::too_many_arguments)]
fn service_epilogue(
    ep: ServiceEpisode,
    i: usize,
    input: &Input,
    cycles: u64,
    log: &mut ServiceLog,
    per_input: &mut PerInput,
    parity: &mut [Option<Parity>],
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    out: &mut Outcome,
) {
    let sup = ep.interp.matcher();
    let report = sup.report();
    log.fallbacks += report.fallbacks;
    log.retries += report.retries;
    log.deadline_misses += report.deadline_misses;
    out.check(
        &format!("{}: supervisor tier", input.name),
        if sup.tier() == Tier::Parallel && report.fallbacks == 0 && report.retries == 0 {
            Ok(())
        } else {
            Err(format!(
                "tier {} with {} fallbacks, {} retries",
                sup.tier().name(),
                report.fallbacks,
                report.retries
            ))
        },
    );

    // Recovery drills, outside the timed cycles.
    for _ in 0..DRILLS {
        let t = Instant::now();
        let drill = sup.recovery_drill();
        tracer.span("fault.recovery_drill", t, Instant::now(), parent, 0, &[]);
        out.attempted += 1;
        per_input.recovery_ms[i].push(drill.elapsed.as_secs_f64() * 1e3);
        log.drill_wal.push(drill.wal_replayed as f64);
        log.drill_bytes.push(drill.snapshot_bytes as f64);
    }

    if let Some(plane) = &ep.plane {
        log.flight_records += (plane.obs.flight.len() as u64) + plane.obs.flight.dropped();
        log.flight_changes += ep.interp.stats().wme_changes;
        explain_queries(&ep, plane, i, input, per_input, log, tracer, parent, out);
    }

    parity[i] = Some(Parity {
        cycles,
        wm_bytes: sup.committed_wm_bytes(),
        supervisor_conflict: sup.conflict_set(),
        interp_conflict: state::sorted(ep.interp.conflict_set().iter()),
    });
    if let Some(p) = ep.plane {
        p.stop();
    }
}

/// Asks `/explain?rule=…` about the last firings still in the flight
/// ring and checks each answer's time tags against the firing log.
#[allow(clippy::too_many_arguments)]
fn explain_queries(
    ep: &ServiceEpisode,
    plane: &Plane,
    i: usize,
    input: &Input,
    per_input: &mut PerInput,
    log: &mut ServiceLog,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    out: &mut Outcome,
) {
    let fired = ep.interp.firing_log();
    if fired.is_empty() {
        return;
    }
    out.attempted += 1;
    let snapshot = http_get(plane.addr, "/snapshot", HTTP_TIMEOUT)
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| Json::parse(&body));
    let Some(flight) = snapshot.as_ref().and_then(|s| s.get("flight")) else {
        out.failed += 1;
        return;
    };
    let retained = flight
        .get("retained_cycles")
        .and_then(Json::as_u64)
        .unwrap_or(0) as usize;
    // Firing k of the log ran in cycle k + 1, and every cycle that fired
    // left records, so the ring holds whole cycles 0 (the initial
    // inserts), 1, …, `fired.len()`, of which the last `retained`.
    let first = (fired.len() + 1).saturating_sub(retained).max(1);
    let names = |inst: &Instantiation| ep.interp.program().production(inst.production).name.clone();
    for k in (first - 1..fired.len()).rev().take(EXPLAIN_QUERIES) {
        let rule = names(&fired[k]);
        let instance = fired[first - 1..k]
            .iter()
            .filter(|f| names(f) == rule)
            .count();
        let path = format!("/explain?rule={rule}&instance={instance}");
        let t = Instant::now();
        let got = http_get(plane.addr, &path, HTTP_TIMEOUT);
        let end = Instant::now();
        tracer.span("http.explain", t, end, parent, 0, &[]);
        out.attempted += 1;
        let Ok((200, body)) = got else {
            out.failed += 1;
            continue;
        };
        per_input.explain_ms[i].push((end - t).as_secs_f64() * 1e3);
        log.explain_bytes.push(body.len() as f64);
        let answered: Vec<u64> = Json::parse(&body)
            .and_then(|j| {
                j.get("time_tags")
                    .map(|t| t.items().iter().filter_map(Json::as_u64).collect())
            })
            .unwrap_or_default();
        let expected: Vec<u64> = fired[k]
            .wmes
            .iter()
            .map(|w| ep.tags.get(w.index()).copied().unwrap_or(0))
            .collect();
        out.check(
            &format!("{}: explain", input.name),
            checks::same_time_tags(&rule, &expected, &answered),
        );
    }
}

/// `service` after the window: parity with the bare interpreter on the
/// same inputs, the program answers, the plane-off/plane-on pair of the
/// traced run, and the `fault`, `obs` and `telemetry` metrics.
fn service_report(
    args: &Args,
    inputs: &[Input],
    log: &ServiceLog,
    parity: Vec<Option<Parity>>,
    out: &mut Outcome,
) {
    for (input, p) in inputs.iter().zip(parity) {
        let Some(p) = p else { continue };
        let mut bare = start_bare(input, false);
        for _ in 0..p.cycles {
            if !matches!(bare.cycle(), Ok(CycleOutcome::Fired(_))) {
                break;
            }
        }
        let bare_conflict = state::sorted(bare.conflict_set().iter());
        out.check(
            &format!("{}: committed working memory", input.name),
            checks::same_bytes(
                "working memory",
                &bare.working_memory().snapshot_bytes(),
                &p.wm_bytes,
            ),
        );
        let expected: HashSet<Instantiation> = bare_conflict.into_iter().collect();
        out.check(
            &format!("{}: supervisor conflict set", input.name),
            checks::same_instantiations(&expected, &p.supervisor_conflict),
        );
        out.check(
            &format!("{}: interpreter conflict set", input.name),
            checks::same_instantiations(&expected, &p.interp_conflict),
        );
        out.check(
            &format!("{}: answer", input.name),
            check_answer(input, bare.program(), bare.working_memory()),
        );
    }

    let share_extra: f64 = {
        let mut plain = log.plain_us.clone();
        let base = median(&mut plain);
        log.checkpoint_us.iter().map(|c| c - base).sum()
    };
    let total: f64 = log.plain_us.iter().chain(&log.checkpoint_us).sum();
    out.set("fault.plain_cycle_us", median(&mut log.plain_us.clone()));
    out.set(
        "fault.checkpoint_cycle_us",
        median(&mut log.checkpoint_us.clone()),
    );
    out.set("fault.checkpoint_time_share", ratio(share_extra, total));
    out.set("fault.checkpoints", log.checkpoints as f64);
    out.set(
        "fault.wal_replayed_per_checkpoint",
        ratio(log.wal_replayed as f64, log.checkpoints as f64),
    );
    out.set("fault.recovery_wal_replayed", mean(&log.drill_wal));
    out.set("fault.snapshot_bytes", mean(&log.drill_bytes));
    out.set("fault.fallbacks", log.fallbacks as f64);
    out.set("fault.retries", log.retries as f64);
    out.set("fault.deadline_misses", log.deadline_misses as f64);
    out.set(
        "obs.flight_records_per_change",
        ratio(log.flight_records as f64, log.flight_changes as f64),
    );
    out.set(
        "telemetry.metrics_scrape_ms",
        median(&mut log.scrape_ms.clone()),
    );
    out.set("telemetry.metrics_bytes", mean(&log.metrics_bytes));
    out.set("telemetry.explain_bytes", mean(&log.explain_bytes));

    if args.trace {
        // Over the cycles that took no checkpoint.
        let [tasks, steals, lock, exec, pairs] = log.engine.map(|v| v as f64);
        let capacity = crate::nproc() as f64 * log.plain_match_ns as f64;
        out.set(
            "core.match_ns_per_change",
            ratio(log.plain_match_ns as f64, log.plain_changes as f64),
        );
        out.set(
            "core.tasks_per_batch",
            ratio(tasks, log.plain_us.len() as f64),
        );
        out.set(
            "core.pairs_scanned_per_change",
            ratio(pairs, log.plain_changes as f64),
        );
        out.set("core.exec_ns_per_task", ratio(exec, tasks));
        out.set("core.lock_wait_share", ratio(lock, capacity));
        out.set("core.idle_share", ratio(capacity - exec - lock, capacity));
        out.set("core.steals_per_task", ratio(steals, tasks));
        out.set("core.worker_busy_share", ratio(exec, capacity));
        out.set("obs.plane_ns_per_change", plane_cost(&inputs[0]));
    }
}

/// The plane's cost per working-memory change on one input: the median
/// over five interleaved off/on pairs of episodes of the difference in
/// cycle time per change.
fn plane_cost(input: &Input) -> f64 {
    let mut diffs = Vec::new();
    for _ in 0..5 {
        let [off, on] = [false, true].map(|with_plane| {
            let mut ep = ServiceEpisode::start(input, false, with_plane);
            let (mut busy, changes_before) = (0u64, ep.interp.stats().wme_changes);
            for _ in 0..input.cap {
                let t = Instant::now();
                let fired = matches!(ep.interp.cycle(), Ok(CycleOutcome::Fired(_)));
                busy += t.elapsed().as_nanos() as u64;
                if !fired {
                    break;
                }
            }
            if let Some(p) = ep.plane {
                p.stop();
            }
            ratio(
                busy as f64,
                (ep.interp.stats().wme_changes - changes_before) as f64,
            )
        });
        diffs.push(on - off);
    }
    median(&mut diffs)
}
