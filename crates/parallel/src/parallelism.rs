//! The intra-run parallelism knob.
//!
//! The workspace has two parallelism layers. *Trial-level* parallelism
//! ([`crate::run_trials`]) spreads independent Monte-Carlo trials over
//! the pool and is what sweeps use. [`Parallelism`] governs the second
//! layer, *inside* a single run: it shards each slot's medium
//! resolution (gain-row fills, then receiver runs cut by
//! [`crate::weighted_runs`]) and the world's proximity-graph build
//! (device blocks). Both layers are deterministic — results are a pure function of
//! the inputs, never of the worker count — but they compete for the
//! same cores, so sweeps keep intra-run parallelism [`Parallelism::Off`]
//! (the default) and single-run workloads (trace replays, benches,
//! `--trials 1`) turn it on.

use serde::{Deserialize, Serialize};

use crate::pool::available_workers;

/// How a single run shards its per-slot medium resolution and its
/// proximity-graph build.
///
/// Every mode produces bit-identical results — outcomes, trace bytes
/// and the graph's adjacency order (locked by
/// `tests/medium_equivalence.rs` and `tests/engine_equivalence.rs`);
/// the choice is purely about wall clock and core contention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Never shard — the sequential resolver. The default: in a sweep,
    /// trial-level parallelism already owns the cores, and a second
    /// layer would only oversubscribe them.
    #[default]
    Off,
    /// Always shard with exactly this many workers (`0` is treated as
    /// `1`). An explicit pin bypasses the [`Parallelism::Auto`]
    /// engagement threshold — benches and the determinism suites use it
    /// to force the sharded path at any problem size.
    Fixed(usize),
    /// Shard with every available core ([`available_workers`], so
    /// `FFD2D_WORKERS` is honored) once the candidate work — a slot's
    /// `(transmission, receiver)` pairs, or the graph build's candidate
    /// device pairs — exceeds [`Parallelism::AUTO_ENGAGE_PAIRS`]; below
    /// the cutoff the work runs sequentially, so small populations and
    /// near-idle slots pay no thread overhead.
    Auto,
}

impl Parallelism {
    /// `Auto` engagement cutoff, in candidate pairs: `(transmission,
    /// receiver)` pairs per slot, or device pairs of a graph build.
    /// Below this, spawn overhead rivals the work.
    pub const AUTO_ENGAGE_PAIRS: u64 = 16 * 1024;

    /// Worker count for work of `pairs` candidate pairs. `1` means
    /// "run sequentially".
    pub fn workers_for(self, pairs: u64) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(k) => k.max(1),
            Parallelism::Auto => {
                if pairs >= Self::AUTO_ENGAGE_PAIRS {
                    available_workers(usize::MAX)
                } else {
                    1
                }
            }
        }
    }

    /// Parse a `--medium-workers` flag value: `off`, `auto`, or a
    /// positive worker count.
    pub fn from_flag(flag: &str) -> Option<Parallelism> {
        match flag {
            "off" => Some(Parallelism::Off),
            "auto" => Some(Parallelism::Auto),
            k => k
                .parse::<usize>()
                .ok()
                .filter(|&k| k > 0)
                .map(Parallelism::Fixed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_the_default_and_never_shards() {
        assert_eq!(Parallelism::default(), Parallelism::Off);
        assert_eq!(Parallelism::Off.workers_for(u64::MAX), 1);
    }

    #[test]
    fn fixed_bypasses_the_threshold() {
        assert_eq!(Parallelism::Fixed(8).workers_for(0), 8);
        assert_eq!(Parallelism::Fixed(2).workers_for(1), 2);
        assert_eq!(Parallelism::Fixed(0).workers_for(0), 1, "0 means 1");
    }

    #[test]
    fn auto_engages_only_above_the_cutoff() {
        let p = Parallelism::Auto;
        assert_eq!(p.workers_for(0), 1);
        assert_eq!(p.workers_for(Parallelism::AUTO_ENGAGE_PAIRS - 1), 1);
        assert!(p.workers_for(Parallelism::AUTO_ENGAGE_PAIRS) >= 1);
    }

    #[test]
    fn flag_parsing() {
        assert_eq!(Parallelism::from_flag("off"), Some(Parallelism::Off));
        assert_eq!(Parallelism::from_flag("auto"), Some(Parallelism::Auto));
        assert_eq!(Parallelism::from_flag("4"), Some(Parallelism::Fixed(4)));
        assert_eq!(Parallelism::from_flag("0"), None);
        assert_eq!(Parallelism::from_flag("fast"), None);
        assert_eq!(Parallelism::from_flag("-2"), None);
    }
}
