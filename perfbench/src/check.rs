//! The correctness gate.
//!
//! One untimed pass in the oracle configuration (stepped engine, no
//! gain cache, serial medium) fixes the expected `RunOutcome` of every
//! protocol run. Every timed pass must reproduce it exactly; a panic or
//! any difference counts as a failed run. For the paper sweep, the
//! oracle outcomes, reduced the way `run_paper_sweep` reduces them,
//! must also give the same Fig. 3 and Fig. 4 CSVs as `run_paper_sweep`
//! itself.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ffd2d_core::{EngineMode, GainCacheMode, RunOutcome};
use ffd2d_experiments::sweep::CellStats;
use ffd2d_experiments::{run_paper_sweep, SweepParams, SweepReport};
use ffd2d_metrics::Summary;
use ffd2d_sim::time::SlotDuration;

use crate::spans::SpanLog;
use crate::workload::{run_pass, Arm, Pass, Spec, Workload};

/// Expected ST and FST outcomes of every trial; `None` where the oracle
/// itself panicked.
pub type Expected = Vec<[Option<RunOutcome>; 2]>;

/// The result of the untimed check run.
#[derive(Debug)]
pub struct Gate {
    /// The oracle's outcomes, per trial.
    pub expected: Expected,
    /// Checks made by the gate itself (the paper-sweep comparison).
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

impl Gate {
    /// Run the oracle pass (and, for the paper sweep, the
    /// `run_paper_sweep` comparison).
    pub fn run(spec: &Spec, seed: u64, spans: &SpanLog) -> Gate {
        let oracle = run_pass(spec, seed, Arm::Oracle, spans);
        let expected: Expected = oracle.trials.into_iter().map(|t| t.outcomes).collect();
        let mut gate = Gate {
            expected,
            attempted: 0,
            failed: 0,
        };
        if spec.workload == Workload::Fig3Sweep {
            gate.attempted += 1;
            if !paper_sweep_matches(spec, seed, &gate.expected) {
                gate.failed += 1;
            }
        }
        gate
    }

    /// Did the oracle produce every outcome?
    pub fn complete(&self) -> bool {
        self.expected.iter().flatten().all(Option::is_some)
    }

    /// Protocol runs of `pass` that panicked or differ from the oracle.
    pub(crate) fn failures(&self, pass: &Pass) -> u64 {
        let mut failed = 0;
        for (p, trial) in pass.trials.iter().enumerate() {
            for (k, got) in trial.outcomes.iter().enumerate() {
                let want = self.expected.get(p).and_then(|e| e[k].as_ref());
                if got.is_none() || got.as_ref() != want {
                    failed += 1;
                }
            }
        }
        failed
    }
}

/// The sweep parameters `run_paper_sweep` needs to reproduce `spec`.
pub fn paper_params(spec: &Spec, seed: u64) -> SweepParams {
    SweepParams {
        node_counts: spec.node_counts.clone(),
        trials: spec.trials,
        horizon: SlotDuration(spec.horizon),
        master_seed: seed,
        engine: EngineMode::default(),
        medium: spec.medium,
        faults: None,
        gain_cache: GainCacheMode::default(),
    }
}

/// Reduce per-trial outcomes (in `(node count, trial)` order) into the
/// report `run_paper_sweep` would build from them. `None` when an
/// outcome is missing.
pub fn paper_report(spec: &Spec, seed: u64, outcomes: &Expected) -> Option<SweepReport> {
    let horizon = SlotDuration(spec.horizon);
    let empty = CellStats {
        time_ms: Summary::new(),
        messages: Summary::new(),
        collision_rate: Summary::new(),
        rx_loss: Summary::new(),
        censored: 0,
        reconv_ms: Summary::new(),
        reconverged: 0,
        fault_drops: Summary::new(),
    };
    let mut cells = Vec::with_capacity(spec.node_counts.len());
    let mut trials = outcomes.chunks(spec.trials as usize);
    for &n in &spec.node_counts {
        let mut stats = [empty, empty];
        for pair in trials.next()? {
            for (s, o) in stats.iter_mut().zip(pair) {
                let o = o.as_ref()?;
                s.time_ms.push(o.time_or(horizon).as_millis() as f64);
                s.messages.push(o.messages() as f64);
                s.collision_rate.push(o.counters.collision_rate());
                s.rx_loss.push(o.counters.rx_loss_rate());
                s.censored += u32::from(!o.converged());
                if let Some(r) = o.reconvergence_time {
                    s.reconv_ms.push(r.as_millis() as f64);
                    s.reconverged += 1;
                }
                s.fault_drops.push(o.counters.fault_dropped_frames as f64);
            }
        }
        cells.push((n, stats[0], stats[1]));
    }
    Some(SweepReport {
        params: paper_params(spec, seed),
        cells,
    })
}

/// Do the oracle outcomes reduce to the CSVs `run_paper_sweep` writes?
fn paper_sweep_matches(spec: &Spec, seed: u64, expected: &Expected) -> bool {
    let Some(mine) = paper_report(spec, seed, expected) else {
        return false;
    };
    let params = paper_params(spec, seed);
    match catch_unwind(AssertUnwindSafe(|| run_paper_sweep(&params))) {
        Ok(live) => live.fig3_csv() == mine.fig3_csv() && live.fig4_csv() == mine.fig4_csv(),
        Err(_) => false,
    }
}
