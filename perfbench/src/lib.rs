//! # ffd2d-perfbench — one benchmark for the simulator
//!
//! Each invocation runs one workload ([`workload::Workload`]) under one
//! seed:
//!
//! 1. timed passes repeat until the measuring time is used up;
//!    untraced passes give the end-to-end medians;
//! 2. with tracing on, traced passes (a telemetry recorder per protocol
//!    run) alternate with untraced ones and give the per-layer medians;
//! 3. an untimed check pass in the oracle configuration fixes every
//!    expected `RunOutcome` ([`check::Gate`]), and every timed pass is
//!    compared with it. It runs last, so that the process's peak
//!    resident memory read before it covers the timed passes only.
//!
//! [`Bench::report`] renders a human-readable table followed by the
//! one-line JSON result.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod heap;
pub mod metrics;
pub mod spans;
pub mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use ffd2d_core::{Parallelism, RunOutcome};
use ffd2d_parallel::available_workers;
use ffd2d_sim::counters::Counters;
use ffd2d_sim::time::SlotDuration;
use ffd2d_telemetry::Telemetry;

use check::Gate;
use metrics::{median, ratio, MetricDef, Value, Values};
use spans::SpanLog;
use workload::{run_pass, Arm, Pass, Spec, PROTOCOLS};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed, kept out of tuning, on which the gate must pass too.
pub const HELD_OUT_SEED: u64 = 99_544_319;

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Alternate traced passes with the untraced ones.
    pub trace: bool,
}

/// Fewest untraced passes, however long they take.
pub const MIN_PASSES: usize = 3;

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Bench {
    /// The workload that ran.
    pub spec: Spec,
    /// How it ran.
    pub opts: Options,
    /// The check run every pass was compared with.
    pub gate: Gate,
    /// Checked runs: protocol runs of every timed pass, plus the gate's
    /// own checks.
    pub attempted: u64,
    /// Checked runs that panicked or differed from the oracle.
    pub failed: u64,
    /// Wall seconds of each untraced pass, in run order.
    pub pass_walls: Vec<f64>,
    /// Traced passes.
    pub traced_passes: usize,
    /// The most medium workers a slot of the timed runs could use: the
    /// configured parallelism, capped by the spatial grid's cells.
    pub medium_workers_cap: usize,
    /// The most medium workers a slot of a traced pass did use, as the
    /// recorder observed it; `None` without traced passes.
    pub medium_workers_reached: Option<u64>,
    /// Every metric value by name.
    pub values: Values,
    /// Spans of every pass.
    pub spans: SpanLog,
}

/// Measure, then check every pass against the oracle.
pub fn run(spec: &Spec, opts: &Options) -> Bench {
    measure(spec, opts, |spans| Gate::run(spec, opts.seed, spans))
}

/// Run timed passes of `spec` for `opts.seconds`, then make the check
/// run with `gate` and compare every pass with it.
pub fn measure(spec: &Spec, opts: &Options, gate: impl FnOnce(&SpanLog) -> Gate) -> Bench {
    let spans = SpanLog::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        // Stop once the next pass would end further past the measuring
        // time than it would start before it.
        let typical = median(untraced.iter().map(|p| p.wall_s).collect()).unwrap_or(0.0);
        let done = start.elapsed().as_secs_f64() + typical / 2.0 >= opts.seconds
            && untraced.len() >= MIN_PASSES
            && (!opts.trace || !traced.is_empty());
        if done {
            break;
        }
        let arm = if opts.trace && traced.len() < untraced.len() {
            Arm::Traced
        } else {
            Arm::Timed
        };
        let pass = run_pass(spec, opts.seed, arm, &spans);
        match arm {
            Arm::Traced => traced.push(pass),
            _ => untraced.push(pass),
        }
    }
    let peak_rss = peak_rss_mb();

    let gate = gate(&spans);
    let mut attempted = gate.attempted;
    let mut failed = gate.failed;
    for pass in untraced.iter().chain(&traced) {
        attempted += 2 * pass.trials.len() as u64;
        failed += gate.failures(pass);
    }
    let grid_cells = untraced
        .iter()
        .flat_map(|p| &p.trials)
        .map(|t| t.grid_cells)
        .max()
        .unwrap_or(1);
    let medium_workers_cap = spec
        .medium
        .workers_for(Parallelism::AUTO_ENGAGE_PAIRS)
        .min(grid_cells.max(1));
    let medium_workers_reached = traced
        .iter()
        .flat_map(|p| &p.trials)
        .filter_map(|t| t.telemetry.as_ref())
        .flatten()
        .filter_map(|rec| rec.observation("medium.workers_per_slot")?.max())
        .max();
    let mut values = end_to_end(spec, &untraced);
    values.insert("peak_rss_mb".into(), peak_rss);
    values.insert("failed_frac".into(), ratio(failed as f64, attempted as f64));
    values.extend(simulated(spec, &gate));
    if opts.trace {
        values.extend(per_layer(&traced));
        let wall = |passes: &[Pass]| median(passes.iter().map(|p| p.wall_s).collect());
        if let (Some(t), Some(u)) = (wall(&traced), wall(&untraced)) {
            values.insert("trace.overhead_frac".into(), ratio(t, u).map(|r| r - 1.0));
        }
    }
    Bench {
        spec: spec.clone(),
        opts: opts.clone(),
        attempted,
        failed,
        pass_walls: untraced.iter().map(|p| p.wall_s).collect(),
        traced_passes: traced.len(),
        medium_workers_cap,
        medium_workers_reached,
        gate,
        values,
        spans,
    }
}

/// End-to-end medians over the untraced passes.
fn end_to_end(spec: &Spec, passes: &[Pass]) -> Values {
    let horizon = SlotDuration(spec.horizon);
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let sum =
        |p: &Pass, f: &dyn Fn(&workload::TrialRun) -> f64| p.trials.iter().map(f).sum::<f64>();
    let mut v = Values::new();
    v.insert("wall_s".into(), per_pass(&|p| p.wall_s));
    v.insert(
        "peak_heap_mb".into(),
        per_pass(&|p| {
            let most = p.trials.iter().map(|t| t.heap_bytes).max().unwrap_or(0);
            most as f64 / (1024.0 * 1024.0)
        }),
    );
    v.insert("setup_s".into(), per_pass(&|p| sum(p, &|t| t.setup_s())));
    v.insert("st_run_s".into(), per_pass(&|p| sum(p, &|t| t.run_s[0])));
    v.insert("fst_run_s".into(), per_pass(&|p| sum(p, &|t| t.run_s[1])));
    let device_slots = |t: &workload::TrialRun, k: usize| {
        t.outcomes[k]
            .as_ref()
            .map_or(0.0, |o| (t.n as u64 * o.time_or(horizon).0) as f64)
    };
    let throughput = |protocols: &[usize]| {
        let per_pass: Vec<f64> = passes
            .iter()
            .filter_map(|p| {
                let work = sum(p, &|t| protocols.iter().map(|&k| device_slots(t, k)).sum());
                let secs = sum(p, &|t| protocols.iter().map(|&k| t.run_s[k]).sum());
                ratio(work, secs)
            })
            .collect();
        median(per_pass)
    };
    v.insert("st_device_slots_per_s".into(), throughput(&[0]));
    v.insert("fst_device_slots_per_s".into(), throughput(&[1]));
    v.insert("device_slots_per_s".into(), throughput(&[0, 1]));
    v
}

/// The simulated results, from the oracle's outcomes.
fn simulated(spec: &Spec, gate: &Gate) -> Values {
    let horizon = SlotDuration(spec.horizon);
    let mut v = Values::new();
    let mut censored = 0u64;
    let mut runs = 0u64;
    for (k, p) in PROTOCOLS.iter().enumerate() {
        let outcomes: Vec<&RunOutcome> =
            gate.expected.iter().filter_map(|e| e[k].as_ref()).collect();
        let count = outcomes.len() as f64;
        let conv: f64 = outcomes
            .iter()
            .map(|o| o.time_or(horizon).as_millis() as f64)
            .sum();
        let msgs: f64 = outcomes.iter().map(|o| o.messages() as f64).sum();
        v.insert(format!("sim.{p}_conv_ms"), ratio(conv, count));
        v.insert(format!("sim.{p}_messages"), ratio(msgs, count));
        censored += outcomes.iter().filter(|o| !o.converged()).count() as u64;
        runs += outcomes.len() as u64;
    }
    v.insert(
        "sim.censored_frac".into(),
        ratio(censored as f64, runs as f64),
    );
    v
}

/// Per-layer medians over the traced passes.
fn per_layer(passes: &[Pass]) -> Values {
    let mut all: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for pass in passes {
        for (name, value) in layer_values(pass) {
            let slot = all.entry(name).or_default();
            if let Some(x) = value {
                slot.push(x);
            }
        }
    }
    all.into_iter().map(|(k, xs)| (k, median(xs))).collect()
}

const NS: f64 = 1e-9;

/// Every per-layer value of one traced pass.
fn layer_values(pass: &Pass) -> Values {
    let mut v = Values::new();
    let trials = &pass.trials;
    let sum = |f: &dyn Fn(&workload::TrialRun) -> f64| trials.iter().map(f).sum::<f64>();
    v.insert("world.new_s".into(), Some(sum(&|t| t.new_s)));
    v.insert("graph.proximity_s".into(), Some(sum(&|t| t.graph_s)));
    v.insert("graph.edges".into(), Some(sum(&|t| t.edges as f64)));
    let busy = sum(&|t| t.trial_s);
    v.insert("parallel.workers".into(), Some(pass.workers as f64));
    v.insert("parallel.trial_busy_s".into(), Some(busy));
    v.insert(
        "parallel.idle_frac".into(),
        ratio(busy, pass.workers as f64 * pass.wall_s).map(|b| 1.0 - b),
    );
    v.insert(
        "parallel.trial_max_s".into(),
        trials.iter().map(|t| t.trial_s).reduce(f64::max),
    );
    for (k, p) in PROTOCOLS.iter().enumerate() {
        let mut rec = Telemetry::new();
        let mut counters = Counters::new();
        for t in trials {
            if let Some(tel) = &t.telemetry {
                rec.merge(&tel[k]);
            }
            if let Some(o) = &t.outcomes[k] {
                counters.merge(&o.counters);
            }
        }
        for (name, value) in protocol_layers(&rec, &counters) {
            v.insert(format!("{p}.{name}"), value);
        }
        // The run call's span, less the engine's own run-loop timer:
        // engine construction and result assembly, which no recorder
        // timer covers.
        let call_s = sum(&|t| t.run_s[k]);
        let loop_s = rec
            .timer("engine.run_ns")
            .map_or(0.0, |h| h.sum() as f64 * NS);
        v.insert(format!("{p}.engine.outside_loop_s"), Some(call_s - loop_s));
    }
    v
}

/// The `engine.*`, `osc.*`, `medium.*` and `phy.*` values of one
/// protocol, from its merged telemetry and counters.
pub fn protocol_layers(rec: &Telemetry, counters: &Counters) -> Vec<(&'static str, Value)> {
    let c = |key: &str| rec.counter(key) as f64;
    let timer_s = |key: &str| rec.timer(key).map_or(0.0, |h| h.sum() as f64 * NS);
    let obs = |key: &str| rec.observation(key);
    let run_s = timer_s("engine.run_ns");
    let resolve_s = timer_s("medium.resolve_ns");
    let busy_s = timer_s("medium.shard_busy_ns");
    let pairs = obs("medium.pairs_per_slot").map_or(0.0, |h| h.sum() as f64);
    let materialized = c("engine.slots_materialized");
    let skipped = c("engine.slots_skipped");
    let derived = c("osc.cursor_derived");
    let fallback = c("osc.cursor_fallback");
    let hits = c("medium.gain_cache_hits");
    let misses = c("medium.gain_cache_misses");
    let slots_resolved = c("medium.slots_resolved");
    // A slot resolved on one shard is balanced by definition; the
    // recorder only observes imbalance on multi-shard slots.
    let imbalance = match obs("medium.shard_imbalance_pct").and_then(|h| h.mean()) {
        Some(m) => Some(m),
        None => (slots_resolved > 0.0).then_some(100.0),
    };
    let attempts = counters.total_rx_attempts() as f64;
    vec![
        ("engine.run_s", Some(run_s)),
        ("engine.self_s", Some(run_s - resolve_s)),
        ("engine.slots_materialized", Some(materialized)),
        ("engine.slots_skipped", Some(skipped)),
        ("engine.skip_frac", ratio(skipped, materialized + skipped)),
        (
            "engine.wakeups_scheduled",
            Some(c("engine.wakeups_scheduled")),
        ),
        ("engine.wakeups_fired", Some(c("engine.wakeups_fired"))),
        (
            "engine.coalesced_frac",
            ratio(c("engine.coalesced_wakeups"), c("engine.wakeups_scheduled")),
        ),
        (
            "engine.stale_frac",
            ratio(c("engine.wakeups_stale"), c("engine.wakeups_scheduled")),
        ),
        (
            "engine.cutover_transitions",
            Some(c("engine.cutover_transitions")),
        ),
        ("osc.cursor_derived", Some(derived)),
        ("osc.cursor_fallback", Some(fallback)),
        ("osc.fallback_frac", ratio(fallback, derived + fallback)),
        ("osc.cursor_warps", Some(c("osc.cursor_warps"))),
        ("osc.literal_advances", Some(c("osc.literal_advances"))),
        ("medium.resolve_s", Some(resolve_s)),
        ("medium.shard_busy_s", Some(busy_s)),
        ("medium.pairs", Some(pairs)),
        ("medium.pairs_per_busy_s", ratio(pairs, busy_s)),
        ("medium.slots_resolved", Some(slots_resolved)),
        ("medium.transmissions", Some(c("medium.transmissions"))),
        ("medium.gain_fill_s", Some(timer_s("medium.gain_fill_ns"))),
        ("medium.gain_hit_frac", ratio(hits, hits + misses)),
        (
            "medium.workers_mean",
            obs("medium.workers_per_slot").and_then(|h| h.mean()),
        ),
        ("medium.shard_imbalance_pct", imbalance),
        (
            "phy.collision_rate",
            ratio(counters.rx_collision as f64, attempts),
        ),
        (
            "phy.rx_loss_rate",
            ratio(counters.rx_below_threshold as f64, attempts),
        ),
    ]
}

/// Peak resident memory of this process so far in MB (`VmHWM`), where
/// the platform reports it.
fn peak_rss_mb() -> Value {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host and build every result was measured on.
fn host_line(bench: &Bench) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let trial_workers = available_workers(bench.spec.trial_count());
    let reached = bench
        .medium_workers_reached
        .map_or("null".to_string(), |w| w.to_string());
    format!(
        "{{\"nproc\": {nproc}, \"trial_workers\": {trial_workers}, \
         \"medium\": \"{:?}\", \"medium_workers_cap\": {}, \"medium_workers_reached\": {reached}, \
         \"rustc\": \"{}\", \"profile\": \"{}\", \"commit\": \"{}\", \"seed\": {}}}",
        bench.spec.medium,
        bench.medium_workers_cap,
        env!("PERFBENCH_RUSTC"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit().unwrap_or_else(|| "unknown".into()),
        bench.opts.seed,
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

impl Bench {
    /// Is the run correct: a complete oracle and no failed check?
    pub fn correct(&self) -> bool {
        self.gate.complete() && self.failed == 0
    }

    /// The metrics of the JSON result: end-to-end untraced, per-layer
    /// traced.
    pub fn result_metrics(&self) -> Vec<MetricDef> {
        if self.opts.trace {
            metrics::per_layer()
        } else {
            metrics::end_to_end()
        }
    }

    /// The human-readable report, ending with the one-line JSON result.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# ffd2d perfbench: workload {}, seed {}, {} s, trace {}",
            self.spec.workload.name(),
            self.opts.seed,
            self.opts.seconds,
            u8::from(self.opts.trace)
        );
        let _ = writeln!(out, "# host {}", host_line(self));
        let _ = writeln!(
            out,
            "# end-to-end: medians of {} untraced passes; {} of {} checked runs failed",
            self.pass_walls.len(),
            self.failed,
            self.attempted
        );
        let walls: Vec<String> = self.pass_walls.iter().map(|w| format!("{w:.3}")).collect();
        let _ = writeln!(out, "# pass wall_s: {}", walls.join(" "));
        let mut e2e = metrics::end_to_end();
        e2e.extend(metrics::unbounded());
        out.push_str(&metrics::table(&e2e, &self.values));
        if self.opts.trace {
            let _ = writeln!(
                out,
                "# per-layer: medians of {} traced passes",
                self.traced_passes
            );
            let layers: Vec<MetricDef> = metrics::per_layer()
                .into_iter()
                .filter(|d| !e2e.iter().any(|e| e.name == d.name))
                .collect();
            out.push_str(&metrics::table(&layers, &self.values));
        }
        out.push_str(&metrics::json_line(
            self.correct(),
            self.attempted,
            self.failed,
            &self.result_metrics(),
            &self.values,
        ));
        out.push('\n');
        out
    }
}
