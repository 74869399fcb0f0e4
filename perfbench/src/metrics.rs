//! The metric catalogue and how values are printed.
//!
//! Every metric has a name, a unit and a direction. Per-layer metrics
//! also name the end-to-end metric, and the workload, they are expected
//! to move; the traced report prints that next to each value.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A measured value; `None` is a ratio whose base was zero.
pub type Value = Option<f64>;

/// Metric values by name.
pub type Values = BTreeMap<String, Value>;

/// `num / den`, or `None` when the base is zero (never NaN, never a
/// silent 0).
pub fn ratio(num: f64, den: f64) -> Value {
    let r = num / den;
    (den != 0.0 && r.is_finite()).then_some(r)
}

/// Human form of a value: the number with all its digits, or `n/a`.
pub fn human(v: Value) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "n/a".to_string(),
    }
}

/// JSON form of a value: the number with all its digits, or `null`.
pub fn json(v: Value) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(mut values: Vec<f64>) -> Value {
    values.retain(|v| v.is_finite());
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// What the metric is, or (per layer) what it should move.
    pub note: &'static str,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end host-time metrics: the `--trace 0` JSON result, as
/// bounded in `BENCHMARK.json`. Medians over the untraced passes.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def(
            "wall_s",
            "s",
            Lower,
            "host seconds for one workload pass, set-up included",
        ),
        def(
            "setup_s",
            "s",
            Lower,
            "World::new plus the first proximity_graph(), summed over trials",
        ),
        def(
            "st_device_slots_per_s",
            "1/s",
            Higher,
            "ST: sum of n x simulated slots, over st_run_s",
        ),
        def(
            "fst_device_slots_per_s",
            "1/s",
            Higher,
            "FST: sum of n x simulated slots, over fst_run_s",
        ),
        def(
            "device_slots_per_s",
            "1/s",
            Higher,
            "both protocols: sum of n x simulated slots, over st_run_s + fst_run_s",
        ),
        def(
            "peak_heap_mb",
            "MiB",
            Lower,
            "most heap one trial held at once, set-up included; max over a pass's trials",
        ),
    ]
}

/// End-to-end results printed on every run but not bounded: per-protocol
/// seconds (their work depends on whether a seed's runs converge), the
/// process's resident peak (it depends on the system allocator's arenas
/// as much as on the program), and results that are simulated or can be
/// exactly 0. They are part of the `--trace 1` JSON result.
pub fn unbounded() -> Vec<MetricDef> {
    vec![
        def(
            "st_run_s",
            "s",
            Lower,
            "seconds inside the ST run calls, summed over trials",
        ),
        def(
            "fst_run_s",
            "s",
            Lower,
            "seconds inside the FST run calls, summed over trials",
        ),
        def(
            "peak_rss_mb",
            "MB",
            Lower,
            "peak resident memory of the process up to the end of the timed passes; \
             depends on which allocator arenas the pool's threads inherit",
        ),
        def(
            "failed_frac",
            "frac",
            Lower,
            "runs that panicked or differ from the oracle, over runs attempted",
        ),
        def(
            "sim.st_conv_ms",
            "ms",
            Lower,
            "ST mean convergence time, censored at the horizon (Fig. 3)",
        ),
        def(
            "sim.fst_conv_ms",
            "ms",
            Lower,
            "FST mean convergence time, censored at the horizon (Fig. 3)",
        ),
        def(
            "sim.st_messages",
            "count",
            Lower,
            "ST mean control messages (Fig. 4)",
        ),
        def(
            "sim.fst_messages",
            "count",
            Lower,
            "FST mean control messages (Fig. 4)",
        ),
        def(
            "sim.censored_frac",
            "frac",
            Lower,
            "share of protocol runs that reached the horizon unconverged",
        ),
    ]
}

const SETUP: &str = "moves setup_s on dense-n5000; negligible on sparse-beacon";
const PARALLEL: &str = "moves wall_s on fig3-sweep (stragglers); 1 worker on dense-n5000";
const ENGINE: &str =
    "moves st_run_s, fst_run_s, device_slots_per_s on sparse-beacon; not dense-n5000";
const OUTSIDE: &str =
    "moves st_run_s, fst_run_s on dense-n5000 (engine construction, result assembly)";
const OSC: &str = "moves st_run_s on sparse-beacon";
const MEDIUM: &str =
    "moves fst_run_s, device_slots_per_s on dense-n5000 and fig3-sweep; not sparse-beacon";
const GAIN: &str = "moves st_run_s on dense-n5000 (fill-heavy); not fig3-sweep (hit-heavy)";
const SHARDS: &str =
    "1 worker on every workload: medium Off, or Auto on dense-n5000's one-cell grid";
const PHY: &str = "simulated; identical across any speed-only change";

/// Per-layer metrics: the `--trace 1` JSON result. Medians over the
/// traced passes; `engine.*`, `osc.*`, `medium.*` and `phy.*` once per
/// protocol.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("world.new_s", "s", Lower, SETUP),
        def("graph.proximity_s", "s", Lower, SETUP),
        def("graph.edges", "count", Lower, SETUP),
        def("parallel.workers", "count", Higher, PARALLEL),
        def("parallel.trial_busy_s", "s", Lower, PARALLEL),
        def("parallel.idle_frac", "frac", Lower, PARALLEL),
        def("parallel.trial_max_s", "s", Lower, PARALLEL),
    ];
    for p in ["st", "fst"] {
        let per_protocol = [
            ("engine.run_s", "s", Lower, ENGINE),
            ("engine.self_s", "s", Lower, ENGINE),
            ("engine.outside_loop_s", "s", Lower, OUTSIDE),
            ("engine.slots_materialized", "count", Lower, ENGINE),
            ("engine.slots_skipped", "count", Higher, ENGINE),
            ("engine.skip_frac", "frac", Higher, ENGINE),
            ("engine.wakeups_scheduled", "count", Lower, ENGINE),
            ("engine.wakeups_fired", "count", Lower, ENGINE),
            ("engine.coalesced_frac", "frac", Higher, ENGINE),
            ("engine.stale_frac", "frac", Lower, ENGINE),
            ("engine.cutover_transitions", "count", Lower, ENGINE),
            ("osc.cursor_derived", "count", Higher, OSC),
            ("osc.cursor_fallback", "count", Lower, OSC),
            ("osc.fallback_frac", "frac", Lower, OSC),
            ("osc.cursor_warps", "count", Higher, OSC),
            ("osc.literal_advances", "count", Lower, OSC),
            ("medium.resolve_s", "s", Lower, MEDIUM),
            ("medium.shard_busy_s", "s", Lower, MEDIUM),
            ("medium.pairs", "count", Lower, MEDIUM),
            ("medium.pairs_per_busy_s", "1/s", Higher, MEDIUM),
            ("medium.slots_resolved", "count", Lower, MEDIUM),
            ("medium.transmissions", "count", Lower, MEDIUM),
            ("medium.gain_fill_s", "s", Lower, GAIN),
            ("medium.gain_hit_frac", "frac", Higher, GAIN),
            ("medium.workers_mean", "count", Higher, SHARDS),
            ("medium.shard_imbalance_pct", "%", Lower, SHARDS),
            ("phy.collision_rate", "frac", Lower, PHY),
            ("phy.rx_loss_rate", "frac", Lower, PHY),
        ];
        for (name, unit, better, note) in per_protocol {
            defs.push(def(format!("{p}.{name}"), unit, better, note));
        }
    }
    defs.push(def(
        "trace.overhead_frac",
        "frac",
        Lower,
        "traced wall_s over untraced wall_s, minus 1",
    ));
    defs.extend(unbounded());
    defs
}

/// The `name value unit  note` table for `defs`.
pub fn table(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::new();
    for d in defs {
        let v = values.get(&d.name).copied().flatten();
        let _ = writeln!(
            out,
            "  {:<34} {:>22} {:<6} {}",
            d.name,
            human(v),
            d.unit,
            d.note
        );
    }
    out
}

/// The one-line JSON result over `defs`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(&d.name).copied().flatten();
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
