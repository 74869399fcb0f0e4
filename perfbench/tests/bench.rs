//! Tests of the benchmark itself, on tiny versions of its workloads.

use std::process::Command;

use ffd2d_core::StProtocol;
use ffd2d_experiments::run_paper_sweep;
use ffd2d_perfbench::check::{paper_params, paper_report, Gate};
use ffd2d_perfbench::heap;
use ffd2d_perfbench::metrics::{self, human, ratio, Values};
use ffd2d_perfbench::spans::SpanLog;
use ffd2d_perfbench::workload::{oracle, Spec, Workload};
use ffd2d_perfbench::{
    measure, protocol_layers, run, Options, DEFAULT_SEED, HELD_OUT_SEED, MIN_PASSES,
};
use ffd2d_sim::counters::Counters;
use ffd2d_telemetry::Telemetry;

fn opts(trace: bool) -> Options {
    Options {
        seed: 3,
        seconds: 0.0,
        trace,
    }
}

/// `(name, unit, better)` of every metric in one section of
/// `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better"),
            )
        })
        .collect()
}

/// The `value` and `unit` of `name` in a table of the report.
fn table_row(report: &str, name: &str) -> Option<(String, String)> {
    report.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some(name)).then(|| {
            let value = words.next().unwrap_or_default().to_string();
            (value, words.next().unwrap_or_default().to_string())
        })
    })
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let as_rows = |defs: Vec<metrics::MetricDef>| -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.as_str().to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), as_rows(metrics::end_to_end()));
    assert_eq!(listed("per_layer"), as_rows(metrics::per_layer()));
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let bench = run(&Spec::tiny(workload), &opts(trace));
            assert!(bench.correct(), "{workload:?}: tiny run must pass the gate");
            let report = bench.report();
            let result = report.lines().last().expect("a result line");
            let section = if trace { "per_layer" } else { "end_to_end" };
            let expected = listed(section);
            assert_eq!(
                result.matches("{\"value\": ").count(),
                expected.len(),
                "{workload:?} trace {trace}: exactly the {section} metrics"
            );
            for (name, unit, _) in &expected {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{name} missing"));
                let tail = &result[at + entry.len()..];
                let value = &tail[..tail.find(',').expect("value then unit")];
                assert!(
                    value.parse::<f64>().is_ok_and(f64::is_finite) || value == "null",
                    "{name}: {value}"
                );
                assert!(
                    tail.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                    "{name}: unit {unit}"
                );
                let (shown, shown_unit) =
                    table_row(&report, name).unwrap_or_else(|| panic!("{name} not in the table"));
                assert_eq!(&shown_unit, unit, "{name}");
                assert!(
                    shown == "n/a" || shown.parse::<f64>().is_ok(),
                    "{name}: {shown}"
                );
            }
            // Every end-to-end result is printed on every run.
            for d in metrics::end_to_end().iter().chain(&metrics::unbounded()) {
                let (_, unit) = table_row(&report, &d.name).expect("end-to-end row");
                assert_eq!(unit, d.unit);
            }
        }
    }
}

#[test]
fn the_gate_passes_on_the_default_and_held_out_seeds() {
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let gate = Gate::run(&Spec::tiny(workload), seed, &SpanLog::new());
            assert!(gate.complete(), "{workload:?} seed {seed}");
            assert_eq!(gate.failed, 0, "{workload:?} seed {seed}");
        }
    }
}

#[test]
fn a_wrong_expected_outcome_counts_in_failed_frac() {
    let spec = Spec::tiny(Workload::Fig3Sweep);
    let bench = measure(&spec, &opts(false), |spans| {
        let mut gate = Gate::run(&spec, 3, spans);
        assert!(gate.complete());
        assert_eq!((gate.attempted, gate.failed), (1, 0), "paper sweep agrees");
        let wrong = gate.expected[1][0].as_mut().expect("oracle outcome");
        wrong.counters.rach1_tx = wrong.counters.rach1_tx.saturating_add(1);
        gate
    });
    let passes = MIN_PASSES as u64;
    assert_eq!(bench.pass_walls.len() as u64, passes);
    assert_eq!(bench.failed, passes, "one wrong run per pass");
    assert_eq!(bench.attempted, 1 + passes * 2 * spec.trial_count() as u64);
    assert_eq!(
        bench.values["failed_frac"],
        Some(bench.failed as f64 / bench.attempted as f64)
    );
    assert!(!bench.correct());
    let report = bench.report();
    assert!(report.lines().last().unwrap().starts_with(&format!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {passes},",
        bench.attempted
    )));
    let (shown, _) = table_row(&report, "failed_frac").unwrap();
    assert!(shown.parse::<f64>().unwrap() > 0.0);
}

#[test]
fn the_heap_peak_counts_this_threads_allocations() {
    let base = heap::reset_peak();
    drop(std::hint::black_box(vec![0u8; 1 << 20]));
    std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 4 << 20])))
        .join()
        .expect("thread ran");
    let peak = heap::peak_since(base);
    assert!((1 << 20..2 << 20).contains(&peak), "peak {peak} bytes");

    let bench = run(&Spec::tiny(Workload::SparseBeacon), &opts(false));
    assert!(bench.values["peak_heap_mb"].is_some_and(|mb| mb > 0.0));
}

#[test]
fn zero_base_ratios_print_na() {
    assert_eq!(ratio(0.0, 0.0), None);
    assert_eq!(ratio(3.0, 0.0), None);
    assert_eq!(ratio(1.0, 4.0), Some(0.25));
    assert_eq!(human(None), "n/a");
    assert_eq!(metrics::json(None), "null");

    // A protocol that recorded nothing: every ratio has a zero base.
    let values: Values = protocol_layers(&Telemetry::new(), &Counters::new())
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let defs: Vec<metrics::MetricDef> = metrics::per_layer()
        .into_iter()
        .filter_map(|mut d| {
            d.name = d.name.strip_prefix("st.")?.to_string();
            Some(d)
        })
        .collect();
    let table = metrics::table(&defs, &values);
    assert!(!table.contains("NaN") && !table.contains("inf"));
    for d in &defs {
        let (shown, _) = table_row(&table, &d.name).unwrap();
        if d.unit == "frac"
            || d.name.ends_with("per_busy_s")
            || d.name.ends_with("_pct")
            || d.name.ends_with("workers_mean")
        {
            assert_eq!(shown, "n/a", "{}", d.name);
        }
    }
}

#[test]
fn oracle_outcomes_reduce_to_the_paper_sweep_csvs() {
    let spec = Spec::tiny(Workload::Fig3Sweep);
    let gate = Gate::run(&spec, 11, &SpanLog::new());
    let mine = paper_report(&spec, 11, &gate.expected).expect("complete oracle");
    let live = run_paper_sweep(&paper_params(&spec, 11));
    assert_eq!(mine.fig3_csv(), live.fig3_csv());
    assert_eq!(mine.fig4_csv(), live.fig4_csv());
    // And the oracle really is the stepped, uncached, serial run.
    let cfg = oracle(spec.scenario(spec.node_counts[0], 5));
    assert_eq!(
        StProtocol::run(&cfg),
        StProtocol::run(&spec.scenario(spec.node_counts[0], 5))
    );
}

#[test]
fn traced_runs_record_parented_spans() {
    let bench = run(&Spec::tiny(Workload::DenseN5000), &opts(true));
    let spans = bench.spans.snapshot();
    for name in ["world_new", "proximity_graph", "st_run", "fst_run"] {
        let span = spans.iter().find(|s| s.name == name).expect(name);
        let parent = spans
            .iter()
            .find(|s| Some(s.id) == span.parent)
            .expect("parent");
        assert_eq!(parent.name, "trial");
        assert!(spans.iter().any(|s| Some(s.id) == parent.parent));
    }
    assert!(bench.values["trace.overhead_frac"].is_some());
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed"],
        vec!["--workload", "fig3-sweep", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ffd2d-perfbench"))
            .args(&args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
