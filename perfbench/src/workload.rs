//! The three workloads and one pass over a workload.
//!
//! A *pass* is one complete run of a workload: for every trial, build
//! the world (`World::new` plus the first `proximity_graph()`), then run
//! ST and FST on it. Every call is timed from here, around the public
//! entry points only; a traced pass additionally hands each protocol a
//! [`Telemetry`] recorder through `run_in_instrumented`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ffd2d_baseline::FstProtocol;
use ffd2d_core::{
    EngineMode, GainCacheMode, Parallelism, RunOutcome, ScenarioConfig, StProtocol, World,
};
use ffd2d_parallel::{available_workers, run_trials, SweepConfig};
use ffd2d_sim::deployment::Meters;
use ffd2d_sim::time::SlotDuration;
use ffd2d_telemetry::Telemetry;
use ffd2d_trace::NullSink;

use crate::heap;
use crate::spans::SpanLog;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paired ST/FST Table-I sweep, trials on the `run_trials` pool.
    Fig3Sweep,
    /// One Table-I cell with 5000 devices, medium parallelism `Auto`.
    DenseN5000,
    /// 1000 devices in 2 km × 2 km, ideal channel, 20 000-slot period;
    /// two trials on the `run_trials` pool.
    SparseBeacon,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig3Sweep,
        Workload::DenseN5000,
        Workload::SparseBeacon,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Sweep => "fig3-sweep",
            Workload::DenseN5000 => "dense-n5000",
            Workload::SparseBeacon => "sparse-beacon",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The size and knobs of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// Node counts (one sweep cell each).
    pub node_counts: Vec<usize>,
    /// Trials per node count.
    pub trials: u32,
    /// Simulation horizon in slots (the censoring point).
    pub horizon: u64,
    /// Intra-run medium parallelism of the timed runs.
    pub medium: Parallelism,
}

impl Spec {
    /// The benchmark's full-size workload.
    pub fn full(workload: Workload) -> Spec {
        match workload {
            Workload::Fig3Sweep => Spec {
                workload,
                node_counts: vec![100, 200, 400],
                trials: 2,
                horizon: 4_000,
                medium: Parallelism::Off,
            },
            Workload::DenseN5000 => Spec {
                workload,
                node_counts: vec![5000],
                trials: 1,
                horizon: 40,
                medium: Parallelism::Auto,
            },
            Workload::SparseBeacon => Spec {
                workload,
                node_counts: vec![1000],
                trials: 2,
                horizon: 250_000,
                medium: Parallelism::Off,
            },
        }
    }

    /// The same workload shape at a size that runs in well under a
    /// second, for the benchmark's own tests.
    pub fn tiny(workload: Workload) -> Spec {
        let full = Spec::full(workload);
        let (node_counts, trials, horizon) = match workload {
            Workload::Fig3Sweep => (vec![12, 24], 2, 400),
            Workload::DenseN5000 => (vec![80], 1, 8),
            Workload::SparseBeacon => (vec![40], 2, 3_000),
        };
        Spec {
            node_counts,
            trials,
            horizon,
            ..full
        }
    }

    /// The timed runs' scenario for one trial.
    pub fn scenario(&self, n: usize, seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::table1(n);
        if self.workload == Workload::SparseBeacon {
            cfg = cfg.ideal_channel();
            cfg.sim.area_width = Meters(2000.0);
            cfg.sim.area_height = Meters(2000.0);
            cfg.protocol.period_slots = 20_000;
        }
        cfg.seeded(seed)
            .with_max_slots(SlotDuration(self.horizon))
            .with_parallelism(self.medium)
    }

    /// The sweep configuration that derives each trial's seed from the
    /// workload seed, exactly as `run_paper_sweep` does.
    pub fn sweep_config(&self, seed: u64) -> SweepConfig {
        SweepConfig {
            master_seed: seed,
            trials: self.trials,
        }
    }

    /// Trials in one pass.
    pub fn trial_count(&self) -> usize {
        self.node_counts.len() * self.trials as usize
    }
}

/// The oracle configuration the correctness gate compares against: the
/// stepped engine, no gain cache, a serial medium.
pub fn oracle(cfg: ScenarioConfig) -> ScenarioConfig {
    cfg.with_engine(EngineMode::Stepped)
        .with_gain_cache(GainCacheMode::Off)
        .with_parallelism(Parallelism::Off)
}

/// How a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arm {
    /// The untimed correctness check, in the oracle configuration.
    Oracle,
    /// A timed run of the workload as configured, untraced.
    Timed,
    /// A timed run with a telemetry recorder per protocol run.
    Traced,
}

/// The two protocols, in the order every per-trial array uses.
pub(crate) const PROTOCOLS: [&str; 2] = ["st", "fst"];

/// One trial of a pass.
#[derive(Debug)]
pub(crate) struct TrialRun {
    /// Devices in the trial.
    pub(crate) n: usize,
    /// ST and FST outcomes; `None` when the call panicked.
    pub(crate) outcomes: [Option<RunOutcome>; 2],
    /// Seconds in `World::new`.
    pub(crate) new_s: f64,
    /// Seconds in the first `proximity_graph()` call.
    pub(crate) graph_s: f64,
    /// Edges of the proximity graph.
    pub(crate) edges: u64,
    /// Cells of the world's spatial grid: the most shards a slot's
    /// medium resolution can split into.
    pub(crate) grid_cells: usize,
    /// Seconds in the ST and FST run calls.
    pub(crate) run_s: [f64; 2],
    /// Seconds for the whole trial.
    pub(crate) trial_s: f64,
    /// The most heap the trial held at once, set-up included.
    pub(crate) heap_bytes: usize,
    /// Per-protocol telemetry (traced passes only).
    pub(crate) telemetry: Option<[Telemetry; 2]>,
}

impl TrialRun {
    /// Set-up seconds: `World::new` plus the first proximity graph.
    pub(crate) fn setup_s(&self) -> f64 {
        self.new_s + self.graph_s
    }
}

/// One complete pass over a workload.
#[derive(Debug)]
pub(crate) struct Pass {
    /// Host seconds for the pass, set-up included.
    pub(crate) wall_s: f64,
    /// Trial workers `run_trials` used (1 for a single-trial pass).
    pub(crate) workers: usize,
    /// Every trial, in `(node count, trial)` order.
    pub(crate) trials: Vec<TrialRun>,
}

/// Run one pass of `spec` under `arm`, recording spans into `spans`.
pub(crate) fn run_pass(spec: &Spec, seed: u64, arm: Arm, spans: &SpanLog) -> Pass {
    let sweep = spec.sweep_config(seed);
    let pass_id = spans.next_id();
    let start = Instant::now();
    let grouped = run_trials(&spec.node_counts, &sweep, |&n, ctx| {
        run_trial(spec, n, ctx.seed, arm, spans, pass_id)
    });
    let end = Instant::now();
    spans.record(pass_id, None, arm_span(arm), start, end, 0);
    Pass {
        wall_s: (end - start).as_secs_f64(),
        workers: available_workers(spec.trial_count()),
        trials: grouped.into_iter().flatten().collect(),
    }
}

fn arm_span(arm: Arm) -> &'static str {
    match arm {
        Arm::Oracle => "oracle_pass",
        Arm::Timed => "pass",
        Arm::Traced => "traced_pass",
    }
}

/// Time `f`, recording it as span `name` under `parent`.
fn timed<T>(
    spans: &SpanLog,
    parent: u64,
    name: &'static str,
    n: usize,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    spans.record(spans.next_id(), Some(parent), name, start, end, n);
    (out, (end - start).as_secs_f64())
}

fn run_trial(spec: &Spec, n: usize, seed: u64, arm: Arm, spans: &SpanLog, parent: u64) -> TrialRun {
    let trial_id = spans.next_id();
    let heap_base = heap::reset_peak();
    let start = Instant::now();
    let mut cfg = spec.scenario(n, seed);
    if arm == Arm::Oracle {
        cfg = oracle(cfg);
    }
    let mut run = TrialRun {
        n,
        outcomes: [None, None],
        new_s: 0.0,
        graph_s: 0.0,
        edges: 0,
        grid_cells: 0,
        run_s: [0.0; 2],
        trial_s: 0.0,
        heap_bytes: 0,
        telemetry: (arm == Arm::Traced).then(|| [Telemetry::new(), Telemetry::new()]),
    };
    // A panic anywhere in a trial is caught here and surfaces as a
    // missing outcome, which the correctness gate counts as failed.
    let (world, new_s) = timed(spans, trial_id, "world_new", n, || {
        catch_unwind(AssertUnwindSafe(|| World::new(&cfg))).ok()
    });
    run.new_s = new_s;
    if let Some(world) = world {
        run.grid_cells = world.spatial_grid().cell_count();
        let (edges, graph_s) = timed(spans, trial_id, "proximity_graph", n, || {
            catch_unwind(AssertUnwindSafe(|| world.proximity_graph().m())).ok()
        });
        run.graph_s = graph_s;
        run.edges = edges.unwrap_or(0) as u64;
        for (p, name) in [(0, "st_run"), (1, "fst_run")] {
            let rec = run.telemetry.as_mut().map(|t| &mut t[p]);
            let (outcome, secs) = timed(spans, trial_id, name, n, || {
                catch_unwind(AssertUnwindSafe(|| run_protocol(p, &world, rec))).ok()
            });
            run.outcomes[p] = outcome;
            run.run_s[p] = secs;
        }
    }
    let end = Instant::now();
    run.trial_s = (end - start).as_secs_f64();
    run.heap_bytes = heap::peak_since(heap_base);
    spans.record(trial_id, Some(parent), "trial", start, end, n);
    run
}

/// Run protocol `p` (0 = ST, 1 = FST) through its public entry point:
/// `run_in` untraced, `run_in_instrumented` with a recorder.
fn run_protocol(p: usize, world: &World, rec: Option<&mut Telemetry>) -> RunOutcome {
    match (p, rec) {
        (0, None) => StProtocol::run_in(world),
        (0, Some(rec)) => StProtocol::run_in_instrumented(world, &mut NullSink, rec),
        (_, None) => FstProtocol::run_in(world),
        (_, Some(rec)) => FstProtocol::run_in_instrumented(world, &mut NullSink, rec),
    }
}
