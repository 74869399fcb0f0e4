//! Property-based tests for the sharded-merge contract.
//!
//! Intra-run parallelism hands each shard a contiguous piece of the
//! work ([`weighted_runs`]), lets it tally privately and merges the
//! shards in shard order. These properties pin what makes that
//! bit-identical to the sequential loop: for any grouping, weights and
//! shard count the pieces cover the stream exactly once, in order, and
//! per-shard tallies merged in order equal the sequential tally.

use proptest::prelude::*;

use ffd2d_parallel::{for_each_shard, weighted_runs};
use ffd2d_sim::counters::Counters;

/// One medium outcome, as the resolver would tally it: which counter
/// moves and by how much.
fn apply(c: &mut Counters, ev: (u8, u64)) {
    let (kind, amount) = ev;
    match kind % 8 {
        0 => c.rach1_tx += amount,
        1 => c.rach2_tx += amount,
        2 => c.unicast_tx += amount,
        3 => c.rx_ok += amount,
        4 => c.rx_collision += amount,
        5 => c.rx_below_threshold += amount,
        6 => c.fault_dropped_frames += amount,
        _ => c.fault_dup_frames += amount,
    }
}

proptest! {
    /// Sharded tallies merged in shard order equal the sequential
    /// tally, for any event stream cut into any weighted groups and any
    /// shard count.
    #[test]
    fn sharded_counters_merge_equals_sequential_tally(
        events in proptest::collection::vec((any::<u8>(), 0u64..1 << 40), 0..300),
        cuts in proptest::collection::vec((1u32..40, 0u64..50), 1..20),
        shards in 1usize..12,
    ) {
        let mut sequential = Counters::new();
        for &ev in &events {
            apply(&mut sequential, ev);
        }

        // Group the stream: each group takes up to `len` events.
        let mut groups = Vec::new();
        let mut taken = 0u32;
        for &(len, unit) in &cuts {
            let len = len.min(events.len() as u32 - taken);
            groups.push((len, unit));
            taken += len;
        }
        groups.push((events.len() as u32 - taken, 1));
        let offsets: Vec<u32> = groups
            .iter()
            .scan(0, |acc, &(len, _)| {
                let start = *acc;
                *acc += len;
                Some(start)
            })
            .collect();

        let mut pieces: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
        let mut covered = Vec::new();
        weighted_runs(&groups, shards, |s, g, lo, hi| {
            pieces[s].push((offsets[g] + lo, offsets[g] + hi));
            covered.extend(offsets[g] + lo..offsets[g] + hi);
        });
        prop_assert_eq!(covered, (0..events.len() as u32).collect::<Vec<_>>());

        let mut per_shard: Vec<(Vec<(u32, u32)>, Counters)> =
            pieces.into_iter().map(|p| (p, Counters::new())).collect();
        for_each_shard(&mut per_shard, |_, (pieces, c)| {
            for &(lo, hi) in pieces.iter() {
                for &ev in &events[lo as usize..hi as usize] {
                    apply(c, ev);
                }
            }
        });
        let mut merged = Counters::new();
        for (_, shard) in &per_shard {
            merged.merge(shard);
        }
        prop_assert_eq!(merged, sequential);
    }

    /// Merging is order-insensitive far from saturation (the resolver
    /// merges in shard order; this shows nothing depends on it).
    #[test]
    fn merge_commutes_below_saturation(
        a in proptest::collection::vec(0u64..1 << 30, 8),
        b in proptest::collection::vec(0u64..1 << 30, 8),
    ) {
        let mk = |v: &[u64]| Counters {
            rach1_tx: v[0],
            rach2_tx: v[1],
            unicast_tx: v[2],
            rx_ok: v[3],
            rx_collision: v[4],
            rx_below_threshold: v[5],
            fault_dropped_frames: v[6],
            fault_dup_frames: v[7],
        };
        let (x, y) = (mk(&a), mk(&b));
        let mut xy = x;
        xy.merge(&y);
        let mut yx = y;
        yx.merge(&x);
        prop_assert_eq!(xy, yx);
    }
}
