//! Order-preserving parallel map on scoped threads.
//!
//! [`parallel_map`] is the single parallel primitive the workspace
//! needs: apply a `Sync` closure to every element of a slice, using all
//! available cores, and return results in input order. Work is
//! distributed by an atomic cursor (dynamic load balancing — trials at
//! large node counts take far longer than small ones, so static
//! chunking would idle half the pool), and each result is written to
//! its own pre-allocated slot, so no ordering coordination is needed.
//!
//! Built entirely on `std` (`std::thread::scope` + `std::sync::Mutex`):
//! the workspace carries no external concurrency dependencies.
//!
//! [`parallel_map_with_workers`] pins the worker count explicitly; the
//! determinism suite uses it to prove results are bit-identical across
//! pool sizes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use: all available parallelism, capped
/// so tiny task lists do not spawn idle threads.
///
/// The `FFD2D_WORKERS` environment variable, when set to a positive
/// integer, overrides the detected hardware parallelism — CI pins the
/// pool size with it, and users can rein in a shared machine without
/// code changes. Invalid or zero values are ignored.
pub fn available_workers(tasks: usize) -> usize {
    let hw = std::env::var("FFD2D_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    hw.min(tasks).max(1)
}

/// Apply `f` to every element of `inputs` in parallel; results are
/// returned in input order.
///
/// `f` runs on scoped threads, so it may borrow from the caller's
/// stack. Panics in workers propagate to the caller after the scope
/// joins (no result is silently dropped).
///
/// ```
/// let squares = ffd2d_parallel::parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(inputs: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with_workers(inputs, None, f)
}

/// [`parallel_map`] with an explicit worker count (`None` = automatic).
///
/// The result is a pure function of `inputs` and `f` — never of the
/// worker count — because each slot is written exactly once and slots
/// are drained in input order.
pub fn parallel_map_with_workers<T, R, F>(inputs: &[T], workers: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers
        .unwrap_or_else(|| available_workers(n))
        .clamp(1, n.max(1));
    if workers == 1 {
        return inputs.iter().map(&f).collect();
    }

    // One slot per task; slots are disjoint, the mutex-per-slot cost is
    // negligible next to a simulation trial and keeps the code safe.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&inputs[i]);
                *slots[i].lock().expect("slot mutex poisoned") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex poisoned")
                .expect("slot missing result")
        })
        .collect()
}

/// Run `f(shard, scratch)` once for every scratch, each on its own
/// thread with exclusive access to its scratch state; shard 0 runs on
/// the caller's thread, the rest on scoped workers.
///
/// This is the primitive behind deterministic *intra-run* parallelism:
/// what a shard does is a pure function of its index and scratch (the
/// caller hands each shard its slice of the work beforehand), each
/// scratch is written by exactly one thread, and the caller merges the
/// scratches in shard order after the join — so whatever the thread
/// schedule, the merged result is identical to running the shards one
/// after another. With a single scratch nothing is spawned: the
/// unengaged path is the plain inline call.
///
/// Panics in workers propagate to the caller when the scope joins.
pub fn for_each_shard<C, F>(scratches: &mut [C], f: F)
where
    C: Send,
    F: Fn(usize, &mut C) + Sync,
{
    let Some((first, rest)) = scratches.split_first_mut() else {
        return;
    };
    if rest.is_empty() {
        f(0, first);
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        for (i, scratch) in rest.iter_mut().enumerate() {
            scope.spawn(move || f(i + 1, scratch));
        }
        f(0, first);
    });
}

/// Cut a sequence of groups into `shards` contiguous pieces of
/// near-equal weight, splitting *inside* a group wherever a cut falls
/// there, and report each piece as `emit(shard, group, start, end)` —
/// items `start..end` of `group` belong to `shard`.
///
/// Group `g` is `groups[g] = (len, unit)`: `len` items weighing `unit`
/// each. With `W` the total weight and `P` the weight of everything
/// before an item, the item goes to shard `⌊P · shards / W⌋`. The cut
/// points are therefore a pure function of the weights and the shard
/// count; pieces arrive in sequence order, shard indices never
/// decrease, every item is assigned exactly once, and no shard carries
/// more than `W / shards` plus one item's weight. Zero-weight items
/// ride with the shard that reaches them; a shard whose share falls
/// inside one heavy item receives no piece.
pub fn weighted_runs<F>(groups: &[(u32, u64)], shards: usize, mut emit: F)
where
    F: FnMut(usize, usize, u32, u32),
{
    if shards <= 1 {
        for (g, &(len, _)) in groups.iter().enumerate() {
            if len > 0 {
                emit(0, g, 0, len);
            }
        }
        return;
    }
    let shards = shards as u128;
    let total: u128 = groups
        .iter()
        .map(|&(len, unit)| len as u128 * unit as u128)
        .sum();
    // Shard of an item whose predecessors weigh `p`.
    let shard_of = |p: u128| {
        (p * shards)
            .checked_div(total)
            .map_or(0, |s| s.min(shards - 1))
    };
    let mut before = 0u128;
    for (g, &(len, unit)) in groups.iter().enumerate() {
        let mut lo = 0u32;
        while lo < len {
            let s = shard_of(before + lo as u128 * unit as u128);
            // The piece runs up to the first item at or past the next
            // shard's starting weight `⌈(s + 1) · W / shards⌉`.
            let hi = if s + 1 == shards || unit == 0 {
                len
            } else {
                let next = ((s + 1) * total).div_ceil(shards);
                let need = (next - before).div_ceil(unit as u128);
                need.min(len as u128) as u32
            };
            emit(s as usize, g, lo, hi);
            lo = hi;
        }
        before += len as u128 * unit as u128;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let inputs: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&inputs, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let inputs: Vec<usize> = (0..512).collect();
        let counter = AtomicU64::new(0);
        let out = parallel_map(&inputs, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 512);
        assert_eq!(out.len(), 512);
    }

    #[test]
    fn borrows_caller_state() {
        let base = [10u64, 20, 30];
        let inputs = vec![0usize, 1, 2];
        let out = parallel_map(&inputs, |&i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn uneven_task_durations_balance() {
        // Tasks with wildly different costs still all complete and in
        // order — exercises the dynamic cursor.
        let inputs: Vec<u64> = (0..64).collect();
        let out = parallel_map(&inputs, |&x| {
            let mut acc = 0u64;
            let iters = if x % 7 == 0 { 200_000 } else { 10 };
            for i in 0..iters {
                acc = acc.wrapping_add(i ^ x);
            }
            (x, acc).0
        });
        assert_eq!(out, inputs);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(available_workers(0), 1);
        assert!(available_workers(1) >= 1);
        assert!(available_workers(1_000_000) >= 1);
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let inputs: Vec<u64> = (0..257).collect();
        let baseline: Vec<u64> = inputs.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        for workers in [1usize, 2, 3, 8, 64] {
            let out =
                parallel_map_with_workers(&inputs, Some(workers), |&x| x.wrapping_mul(x) ^ 17);
            assert_eq!(out, baseline, "workers={workers}");
        }
    }

    #[test]
    fn env_override_pins_worker_count() {
        // Other tests only assert `>= 1` bounds, so flipping the
        // variable here cannot perturb them.
        std::env::set_var("FFD2D_WORKERS", "3");
        assert_eq!(available_workers(1_000_000), 3);
        assert_eq!(available_workers(2), 2, "task cap still applies");
        std::env::set_var("FFD2D_WORKERS", "0");
        assert!(available_workers(64) >= 1, "zero is ignored");
        std::env::set_var("FFD2D_WORKERS", "not-a-number");
        assert!(available_workers(64) >= 1, "garbage is ignored");
        std::env::remove_var("FFD2D_WORKERS");
    }

    /// Collect `weighted_runs` pieces as `(shard, group, start, end)`.
    fn runs(groups: &[(u32, u64)], shards: usize) -> Vec<(usize, usize, u32, u32)> {
        let mut out = Vec::new();
        weighted_runs(groups, shards, |s, g, lo, hi| out.push((s, g, lo, hi)));
        out
    }

    #[test]
    fn weighted_runs_cover_every_item_once_in_order() {
        let groups: Vec<(u32, u64)> = (0..40u64)
            .map(|i| ((i * 7 % 11) as u32, if i < 3 { 1000 } else { i % 5 }))
            .collect();
        for shards in [1usize, 2, 3, 8, 64, 500] {
            let pieces = runs(&groups, shards);
            let mut cursor = (0usize, 0u32);
            let mut last_shard = 0;
            for &(s, g, lo, hi) in &pieces {
                assert!(s < shards && s >= last_shard, "shards={shards}");
                assert!(lo < hi, "empty piece, shards={shards}");
                while cursor.0 < g {
                    assert_eq!(cursor.1, groups[cursor.0].0, "gap, shards={shards}");
                    cursor = (cursor.0 + 1, 0);
                }
                assert_eq!((cursor.0, cursor.1), (g, lo), "shards={shards}");
                cursor.1 = hi;
                last_shard = s;
            }
            let assigned: u32 = pieces.iter().map(|&(_, _, lo, hi)| hi - lo).sum();
            assert_eq!(assigned, groups.iter().map(|g| g.0).sum::<u32>());
        }
    }

    #[test]
    fn one_heavy_group_splits_across_every_shard() {
        // A single grid cell holding all the work: the whole point of
        // cutting inside groups.
        for shards in [2usize, 3, 8] {
            let pieces = runs(&[(5000, 40)], shards);
            assert_eq!(pieces.len(), shards);
            for (i, &(s, g, lo, hi)) in pieces.iter().enumerate() {
                assert_eq!((s, g), (i, 0));
                let len = hi - lo;
                assert!(
                    len.abs_diff(5000 / shards as u32) <= 1,
                    "shards={shards}: {len}"
                );
            }
        }
    }

    #[test]
    fn weighted_runs_balance_weight_not_count() {
        // A heavy group followed by many light ones.
        let mut groups = vec![(10u32, 100u64)];
        groups.extend(std::iter::repeat_n((10u32, 1u64), 100));
        let shards = 4;
        let total: u64 = groups.iter().map(|&(l, u)| l as u64 * u).sum();
        let mut load = [0u64; 4];
        weighted_runs(&groups, shards, |s, g, lo, hi| {
            load[s] += (hi - lo) as u64 * groups[g].1;
        });
        for l in load {
            assert!(l <= total / shards as u64 + 100, "{load:?}");
        }
        assert_eq!(load.iter().sum::<u64>(), total);
    }

    #[test]
    fn weighted_runs_handle_zero_weights_and_empty_groups() {
        assert!(runs(&[], 4).is_empty());
        assert_eq!(runs(&[(0, 5), (3, 0), (0, 0)], 4), vec![(0, 1, 0, 3)]);
    }

    #[test]
    fn for_each_shard_visits_every_scratch_once() {
        for shards in [0usize, 1, 2, 5] {
            let mut seen = vec![usize::MAX; shards];
            for_each_shard(&mut seen, |i, s| *s = i);
            assert_eq!(seen, (0..shards).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic]
    fn shard_worker_panic_propagates() {
        let mut scratches = vec![(); 4];
        for_each_shard(&mut scratches, |i, _| {
            if i > 0 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let inputs = vec![0u32, 1, 2, 3, 4, 5, 6, 7];
        let _ = parallel_map(&inputs, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
