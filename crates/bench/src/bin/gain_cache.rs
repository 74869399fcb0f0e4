//! Epoch-keyed gain cache wall-clock comparison: cached vs. direct
//! mean-gain recomputation in [`FastMedium`].
//!
//! Usage: gain_cache [--trials K] [--slots S]
//!
//! Drives the medium directly — no protocol on top — on the paper's
//! dense Table-I arena (100 m × 100 m, full shadowing + fading), where
//! every slot's 32-transmitter batch is audible to most of the
//! population. The population never moves, so after the first slot
//! every `(sender, cell)` row is a cache hit and the cached arm pays
//! only the per-slot fading draw; the `off` arm recomputes path loss +
//! shadowing for every pair every slot. That is the workload the
//! epoch cache is built for: static (or slowly-mixing) populations
//! between mobility steps.
//!
//! Caching is bit-identical by construction (locked by
//! `tests/gain_cache.rs`); this bench asserts the counters match
//! across arms anyway — a speedup over diverging work would be bogus —
//! and then reports only wall clock. Both arms run single-threaded
//! (`Parallelism::Off`) so the ratio isolates the cache, not the
//! sharding.
//!
//! Writes `BENCH_gain_cache.json` at the repo root: median wall-clock
//! per mode at n ∈ {1000, 5000}, speedups of cached over direct, and
//! host metadata. Run with `--release` — debug timings are
//! meaningless.

use std::time::Instant;

use ffd2d_core::world::FastMedium;
use ffd2d_core::{GainCacheMode, Parallelism, ScenarioConfig, World};
use ffd2d_phy::codec::ServiceClass;
use ffd2d_phy::frame::{FrameKind, ProximitySignal};
use ffd2d_sim::counters::Counters;
use ffd2d_sim::time::Slot;

/// The per-slot transmission batch: 32 senders spread over the
/// population, alternating fires (RACH1) and handshakes (RACH2).
/// The batch cycles through 8 distinct transmitter pools — a merge
/// round re-fires the same heads and handshake partners for many
/// consecutive slots, so within an epoch the medium keeps seeing
/// senders it has already built rows for.
fn batch(n: usize, slot: u64) -> Vec<ProximitySignal> {
    (0..32u32)
        .map(|k| {
            let sender = (k as u64 * (n as u64 / 32) + (slot % 8) * 7) % n as u64;
            let sender = sender as u32;
            let kind = if k % 2 == 0 {
                FrameKind::Fire {
                    fragment: sender,
                    age: 0,
                }
            } else {
                FrameKind::HConnect {
                    to: sender ^ 1,
                    fragment: sender,
                    fragment_size: 1,
                    head: sender,
                }
            };
            ProximitySignal {
                sender,
                service: ServiceClass::KEEP_ALIVE,
                kind,
            }
        })
        .collect()
}

/// Resolve `slots` consecutive slots and return (counters, seconds).
fn run_arm(world: &World, n: usize, slots: u64) -> (Counters, f64) {
    let mut medium = FastMedium::new(n);
    let mut counters = Counters::new();
    let mut delivered = 0u64;
    let start = Instant::now();
    for s in 0..slots {
        let txs = batch(n, s);
        medium.resolve(world, Slot(s), &txs, &mut counters, |_, _, _| {
            delivered += 1;
        });
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(delivered > 0, "dense arena must deliver");
    (counters, secs)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |flag: &str| -> Option<u64> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let trials = value_of("--trials").unwrap_or(3) as usize;
    // 150 slots ≈ 19 reuse rounds per fill round: long enough that the
    // epoch-reuse steady state, not the first-epoch fill, sets the
    // median.
    let slots = value_of("--slots").unwrap_or(150);

    let arms: [(&str, GainCacheMode); 2] =
        [("off", GainCacheMode::Off), ("epoch", GainCacheMode::Epoch)];

    let mut rows = String::new();
    for (i, &n) in [1000usize, 5000].iter().enumerate() {
        let mut baseline_counters = None;
        let mut baseline_secs = 0.0;
        let mut cells = String::new();
        for (j, &(label, mode)) in arms.iter().enumerate() {
            let cfg = ScenarioConfig::table1(n)
                .seeded(0x9A_11)
                .with_parallelism(Parallelism::Off)
                .with_gain_cache(mode);
            let world = World::new(&cfg);
            let mut times: Vec<f64> = Vec::with_capacity(trials);
            let mut counters = Counters::new();
            for _ in 0..trials {
                let (c, secs) = run_arm(&world, n, slots);
                counters = c;
                times.push(secs);
            }
            times.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
            let median = times[times.len() / 2];
            match &baseline_counters {
                None => {
                    baseline_counters = Some(counters);
                    baseline_secs = median;
                }
                Some(base) => assert_eq!(
                    &counters, base,
                    "arm {label} diverged at n={n} — bench would be bogus"
                ),
            }
            let speedup = baseline_secs / median;
            println!("n={n:5}  gain-cache={label:5}  {median:8.3}s  speedup {speedup:5.2}x");
            if j > 0 {
                cells.push_str(", ");
            }
            cells.push_str(&format!(
                "{{\"gain_cache\": \"{label}\", \"secs\": {median:.6}, \"speedup\": {speedup:.3}}}"
            ));
        }
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!("    {{\"n\": {n}, \"arms\": [{cells}]}}"));
    }

    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"bench\": \"gain_cache\",\n  \
         \"scenario\": {{\"arena\": \"Table I, 100m x 100m, shadowing + fading\", \
         \"tx_per_slot\": 32, \"slots\": {slots}, \"seed\": 39441, \"trials\": {trials}, \
         \"metric\": \"median wall-clock seconds, FastMedium only, single-threaded\"}},\n  \
         \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {cpus}, \
         \"profile\": \"{}\"}},\n  \"results\": [\n{rows}\n  ]\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    std::fs::write("BENCH_gain_cache.json", &json).expect("write BENCH_gain_cache.json");
    eprintln!("wrote BENCH_gain_cache.json (host cpus: {cpus})");
}
