//! The distributed ST protocol — Algorithms 1–3 as an event-driven,
//! slot-accurate protocol engine.
//!
//! One trial proceeds through three phases:
//!
//! 1. **Discovery** (`discovery_periods` oscillator periods): devices
//!    free-run and fire proximity signals on RACH1. Every decoded PS
//!    feeds the RSSI neighbour table (§III: neighbour + service
//!    discovery from passive listening — the ranging model is what lets
//!    the ST method skip pairwise discovery handshakes).
//! 2. **Merge** (Algorithm 1/2): GHS/Borůvka rounds paced on the slot
//!    grid. Per round, each fragment convergecasts its members' best
//!    outgoing edges to the head (`Initiate` down, `Report` up — one
//!    unicast per member each way), the head routes a `MergeCmd` to the
//!    boundary device, and the boundary runs the `H_Connect` handshake
//!    of Algorithm 2 as RACH2 broadcasts through the collision medium
//!    (random offset in a contention window, retries with backoff).
//!    Non-mutual connects are authorised by the target fragment's head
//!    (grant round-trip on the tree), which pins *at most one merge per
//!    fragment per round* — exactly the pairwise-merge discipline that
//!    keeps fragment labels consistent. Committed merges adopt the
//!    larger fragment's head (Algorithm 1's `Merge Sub Tree`) and flood
//!    the new identity through the losing side.
//! 3. **Sync**: pulse coupling (eq. (5)) along tree edges only.
//!    Convergence is declared in the first slot where *every* device
//!    fires (same-slot absorption cascades included).
//!
//! ## Modelling notes (documented deviations)
//!
//! * Tree-internal unicasts (`Initiate`/`Report`/`MergeCmd`/grants/
//!   floods) ride *scheduled* LTE-A uplink resources — delivered
//!   reliably with one-slot latency and **counted**, but not subject to
//!   RACH contention. Contention applies to everything broadcast:
//!   fires (RACH1) and `H_Connect`/`H_Accept` handshakes (RACH2).
//! * Round boundaries are paced on the common subframe clock that the
//!   cellular underlay provides (network-assisted D2D); the pace adapts
//!   to the current maximum fragment depth.
//! * Lost `H_Accept`s are healed by idempotent re-accepts and by
//!   adopting tree links implied by received floods.

use rand::Rng;
use std::collections::BTreeMap;

use ffd2d_chaos::{ChurnEvent, ChurnKind, FaultPlan, FrameFate};
use ffd2d_osc::prc::Prc;
use ffd2d_osc::predict::{Cursor, TrajectoryCache};
use ffd2d_phy::frame::{FrameKind, ProximitySignal};
use ffd2d_radio::units::Dbm;
use ffd2d_sim::counters::Counters;
use ffd2d_sim::deployment::DeviceId;
use ffd2d_sim::event::{DensityWindow, SlotWheel};
use ffd2d_sim::rng::{StreamId, StreamRng};
use ffd2d_sim::time::{Slot, SlotDuration};
use ffd2d_telemetry::{NullRecorder, Recorder};
use ffd2d_trace::{
    Codec, FaultKind, FrameLabel, NullSink, ProtoPhase, RejectReason, TraceEvent, TraceSink,
};

use crate::device::{CouplingMode, Device};
use crate::discovery::NeighborTable;
use crate::outcome::RunOutcome;
use crate::scenario::{EngineMode, ScenarioConfig};
use crate::world::{FastMedium, World};

/// Sentinel for "no device".
const NONE: DeviceId = DeviceId::MAX;
/// Slots a boundary waits for an `H_Accept` before retransmitting.
const HANDSHAKE_TIMEOUT: u64 = 8;
/// Firing transmissions are staggered uniformly over this many slots
/// (RFA-style jitter); the offset is stamped into the frame's `age`
/// field so receivers couple as if the pulse were instantaneous.
const FIRE_JITTER: u64 = 8;
/// Ring size of the pending-fire queue (must exceed `FIRE_JITTER`).
const FIRE_RING: usize = 16;
/// Convergence is probed at this slot interval during the sync phase.
const SYNC_CHECK_INTERVAL: u64 = 16;
/// `age` sentinel marking a keep-alive beacon (not a timing pulse):
/// beacons refresh neighbour tables without coupling oscillators.
const BEACON_AGE: u8 = u8::MAX;
/// Neighbour-table entries older than this many periods are not trusted
/// for merge proposals (their fragment label may be stale).
const FRESHNESS_PERIODS: u64 = 5;
/// Hop budget for tree-routed grant messages (far above any real
/// fragment depth; reached only by pathological routing loops).
const GRANT_TTL: u8 = 200;

/// The proposed tree-based firefly protocol.
pub struct StProtocol;

impl StProtocol {
    /// Run one trial of the scenario.
    pub fn run(cfg: &ScenarioConfig) -> RunOutcome {
        Self::run_traced(cfg, &mut NullSink)
    }

    /// Run one trial, reporting protocol events to `sink`. Tracing is
    /// strictly observational: it consumes no randomness and touches no
    /// protocol state, so the outcome is bit-identical to an untraced
    /// run (pinned by the `trace` integration tests), and with
    /// [`NullSink`] the emission sites compile out entirely.
    pub fn run_traced<S: TraceSink>(cfg: &ScenarioConfig, sink: &mut S) -> RunOutcome {
        let world = World::new(cfg);
        Self::run_in_traced(&world, sink)
    }

    /// Run one trial in a pre-built world (lets callers share the world
    /// across protocol variants for paired comparisons).
    pub fn run_in(world: &World) -> RunOutcome {
        Self::run_in_traced(world, &mut NullSink)
    }

    /// [`StProtocol::run_in`] with protocol-event tracing.
    ///
    /// An enabled sink consumes per-slot statistics ([`TraceEvent::
    /// SlotStats`]), which requires materializing every slot — so a
    /// traced run always executes the stepped engine, whatever
    /// [`ScenarioConfig::engine`] says. Outcomes (and therefore the
    /// JSONL logs) are bit-identical between the modes either way,
    /// locked down by `tests/engine_equivalence.rs`.
    pub fn run_in_traced<S: TraceSink>(world: &World, sink: &mut S) -> RunOutcome {
        Self::run_in_instrumented(world, sink, &mut NullRecorder)
    }

    /// Run one trial with performance telemetry: slot-loop stage
    /// timers, calendar-queue statistics, medium resolution costs and
    /// fault-application tallies land in `rec`.
    pub fn run_instrumented<R: Recorder>(cfg: &ScenarioConfig, rec: &mut R) -> RunOutcome {
        let world = World::new(cfg);
        Self::run_in_instrumented(&world, &mut NullSink, rec)
    }

    /// [`StProtocol::run_in_traced`] with performance telemetry.
    ///
    /// Telemetry is strictly observational — the recorder consumes no
    /// randomness and feeds nothing back into the protocol, so the
    /// outcome (and any trace JSONL) is bit-identical to an unrecorded
    /// run (locked by `tests/telemetry.rs`). Unlike tracing, recording
    /// does **not** force the stepped engine: the engine-mode dispatch
    /// keys on the sink alone, so the event-driven calendar queue can
    /// be profiled directly.
    pub fn run_in_instrumented<S: TraceSink, R: Recorder>(
        world: &World,
        sink: &mut S,
        rec: &mut R,
    ) -> RunOutcome {
        if !S::ENABLED && world.config().engine != EngineMode::Stepped {
            // EventDriven and Adaptive share the wake machinery; the
            // adaptive engine additionally flips between skip-ahead and
            // per-slot execution at density-window boundaries.
            Engine::<S, R, true>::new(world, sink, rec).run()
        } else {
            Engine::<S, R, false>::new(world, sink, rec).run()
        }
    }
}

/// Tree-internal unicast messages (scheduled resources).
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Head → leaves: start round `round`, re-orient the tree and
    /// re-assert the authoritative fragment identity.
    Initiate {
        round: u32,
        fragment: DeviceId,
        head: DeviceId,
    },
    /// Leaf → head: aggregated best outgoing edge + subtree size.
    Report {
        round: u32,
        best_u: DeviceId,
        best_v: DeviceId,
        best_w: f64,
        /// Fragment label of `best_v` as known at the reporting device
        /// (heads need it for fragment-level mutual detection).
        best_frag: DeviceId,
        size: u32,
    },
    /// Head → boundary: connect over your reported edge; carries the
    /// fragment size snapshot the boundary advertises in `H_Connect`.
    MergeCmd { round: u32, frag_size: u32 },
    /// Target boundary → its head: may I accept this foreign connect?
    /// `ttl` bounds tree-routed forwarding: transient orientation
    /// inconsistencies (crossing identity floods) can briefly create
    /// parent 2-cycles, and an unbounded forward would ping-pong.
    GrantReq {
        round: u32,
        origin: DeviceId,
        requester: DeviceId,
        req_fragment: DeviceId,
        req_size: u32,
        ttl: u8,
    },
    /// Head → target boundary: grant decision (carries own fragment
    /// size for the survivor rule).
    GrantResp {
        round: u32,
        origin: DeviceId,
        requester: DeviceId,
        granted: bool,
        my_size: u32,
        ttl: u8,
    },
    /// Flood into the losing fragment: adopt `head`, re-orient.
    NewFragment { head: DeviceId },
    /// Boundary → head: this round's own handshake is void (the target
    /// turned out to be in our own fragment); clear the pending request
    /// so foreign merges can be granted.
    HsFailed { round: u32 },
    /// Handshake acceptance (Algorithm 2's positive return). Unlike the
    /// contention-based `H_Connect` broadcast, the accept rides the
    /// dedicated link being established and is MAC-acknowledged, hence
    /// reliable — which is what keeps commits two-sided and the
    /// accepted edge set a forest. Counted as RACH2 signalling.
    Accept {
        fragment: DeviceId,
        fragment_size: u32,
        head: DeviceId,
    },
    /// Commit confirmation from the handshake requester, carrying the
    /// agreed surviving head (computed once, at the requester, from the
    /// two exchanged snapshots — so both sides apply the identical
    /// merge). Reliable, like `Accept`.
    Finalize { survivor: DeviceId },
}

/// Per-device, per-round merge state.
#[derive(Debug, Clone)]
struct MState {
    round: u32,
    pending_children: u32,
    best_u: DeviceId,
    best_v: DeviceId,
    best_w: f64,
    best_frag: DeviceId,
    best_provider: DeviceId,
    size: u32,
    /// Head only: this round's own merge request targets this fragment
    /// (NONE = idle). Used for fragment-level mutual detection.
    own_target: DeviceId,
    /// Boundary handshake target (NONE = no handshake).
    hs_peer: DeviceId,
    hs_retries: u32,
    hs_next_tx: u64,
    /// Fragment-size snapshot for `H_Connect` (set by `MergeCmd`).
    frag_size: u32,
    /// Committed a merge this round (stops handshake retries).
    committed: bool,
    /// Head only: granted a foreign merge this round (merge budget).
    granted_foreign: bool,
    /// Processed this round's `Initiate` (duplicate-flood guard).
    initiated: bool,
    /// Pending foreign requests awaiting head grants.
    foreign: Vec<(DeviceId, DeviceId, u32)>, // (requester, req_fragment, req_size)
    /// Breadcrumbs for routing `GrantResp` back down, keyed by
    /// (origin, requester). Ordered map: only point lookups today, but
    /// the route table is protocol state — keeping it order-stable
    /// means any future iteration (debug dumps, invariant sweeps)
    /// cannot introduce hash-order nondeterminism.
    grant_route: BTreeMap<(DeviceId, DeviceId), DeviceId>,
}

impl MState {
    fn reset(&mut self, round: u32) {
        *self = MState {
            round,
            ..MState::default()
        };
    }
}

impl Default for MState {
    fn default() -> Self {
        MState {
            round: 0,
            pending_children: 0,
            best_u: NONE,
            best_v: NONE,
            best_w: f64::NEG_INFINITY,
            best_frag: NONE,
            best_provider: NONE,
            size: 1,
            own_target: NONE,
            hs_peer: NONE,
            hs_retries: 0,
            hs_next_tx: 0,
            frag_size: 1,
            committed: false,
            granted_foreign: false,
            initiated: false,
            foreign: Vec::new(),
            grant_route: BTreeMap::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Discovery,
    Merge,
    Sync,
}

/// The slot-accurate protocol engine.
///
/// `EV` selects the execution strategy at compile time:
///
/// * `EV = false` — the **stepped** reference loop: every slot of the
///   horizon is materialized.
/// * `EV = true` — the **event-driven** loop: a calendar queue of
///   wake-up slots (next oscillator fires, phase boundaries, pending
///   unicast deliveries, handshake deadlines, beacon offsets,
///   convergence probes) decides which slots to materialize; the idle
///   stretches in between are fast-forwarded in O(1) per device via
///   memoized phase trajectories. A materialized slot runs the *same*
///   [`slot_body`](Engine::slot_body) as the stepped loop, and the
///   wake set is a superset of every slot in which anything beyond
///   pure phase ticking happens — which is what makes the two modes
///   bit-identical (locked by `tests/engine_equivalence.rs`).
struct Engine<'w, S: TraceSink, R: Recorder, const EV: bool> {
    world: &'w World,
    /// Protocol-event sink; all emission sites are gated on
    /// `S::ENABLED`, so a [`NullSink`] engine is the untraced engine.
    sink: &'w mut S,
    /// Performance recorder; sites are no-ops (and clock reads vanish)
    /// under [`NullRecorder`], so an unrecorded engine is the
    /// uninstrumented engine.
    rec: &'w mut R,
    devices: Vec<Device>,
    m: Vec<MState>,
    /// Authoritative undirected tree adjacency.
    tree: Vec<Vec<DeviceId>>,
    medium: FastMedium,
    counters: Counters,
    prc: Prc,
    rng: StreamRng,
    phase: Phase,
    round: u32,
    round_end: u64,
    /// Last slot at which new handshake activity may start this round
    /// (leaves room for the grant round-trip + accept + finalize).
    round_grace_end: u64,
    /// `MergeCmd`s issued in the current round (0 ⇒ all heads idle).
    mergecmds_this_round: u32,
    commits_total: u32,
    /// Commit count at the previous round boundary (stagnation probe).
    commits_at_round_start: u32,
    /// Consecutive rounds that requested merges but committed none.
    stagnant_rounds: u32,
    /// Unicasts in flight: sent this slot, delivered next slot.
    outbox: Vec<(DeviceId, DeviceId, Msg)>, // (from, to, msg)
    inbox: Vec<(DeviceId, DeviceId, Msg)>,
    /// RACH2 broadcasts queued for this slot.
    rach2_out: Vec<ProximitySignal>,
    /// Pending staggered fire transmissions, ring-indexed by slot.
    fire_queue: Vec<Vec<(DeviceId, u8)>>,
    /// Per-device keep-alive beacon offset within the period (merge
    /// phase only): randomly spread so synchronized fragments do not
    /// jam their own discovery refresh.
    beacon_offset: Vec<u64>,
    phases_scratch: Vec<f64>,
    /// Scratch for the per-slot distinct-fragment count (tracing only).
    frag_scratch: Vec<DeviceId>,
    /// Scratch for the per-slot on-air transmission list (reused across
    /// slots so busy slots allocate nothing).
    pending_scratch: Vec<ProximitySignal>,
    /// First slot of the merge phase (`discovery_periods × T`).
    discovery_end: u64,
    /// Merge-round safety cap (set once in `run`).
    max_rounds: u32,
    /// Completeness denominator for per-slot stats (tracing only).
    ground_truth_links: u64,
    // --- Fault injection & churn (dormant when the plan is none) ---
    /// Per-device liveness under churn (all-true without a churn plan).
    active: Vec<bool>,
    /// True iff the plan schedules churn. Gates every liveness check,
    /// so plan-free runs take exactly the pre-chaos code paths.
    churned: bool,
    /// Churn schedule sorted by `(slot, device)`, with a cursor.
    churn_events: Vec<ChurnEvent>,
    next_churn: usize,
    /// Per-device "period differs from nominal" flags (clock skew):
    /// skewed devices never join the shared trajectory cache.
    skewed: Vec<bool>,
    /// Keyed-draw seed for frame fates ([`FaultPlan::frame_fate`]).
    chaos_key: u64,
    /// Slot of the plan's last discrete fault: convergence does not end
    /// the run until a probe succeeds *after* this slot.
    last_fault_slot: Option<u64>,
    /// The merge phase may not end before this slot (extended on churn
    /// so rejoining devices get a re-discovery window before rounds
    /// stop). Zero — and therefore inert — without churn.
    merge_deadline: u64,
    /// Tree fragments orphaned by departures (see [`RunOutcome`]).
    orphaned_fragments: u32,
    // --- Event-driven machinery (dormant when `EV` is false) ---
    /// Candidate wake-up slots. Bare slot numbers, no payloads: the
    /// two-tier wheel coalesces everything landing on one slot, and a
    /// spurious wake just materializes a slot in which nothing happens,
    /// so entries need no invalidation.
    wake: SlotWheel,
    /// All slots `< synced_next` are fully processed (device state
    /// reflects every tick up to and including slot `synced_next - 1`).
    synced_next: u64,
    /// True when the run may cut between execution strategies
    /// ([`EngineMode::Adaptive`]); the pure event-driven mode pins
    /// `live_ev` to `true` forever.
    adaptive: bool,
    /// Current execution strategy: `true` ⇒ event-driven windows
    /// (skip-ahead, cursor maintenance, touched tracking); `false` ⇒
    /// stepped windows (every slot materialized, wake bookkeeping kept
    /// but cursor/touched maintenance shed — that is the saving).
    live_ev: bool,
    /// Sliding-window wake density driving the cutover (adaptive only).
    density: DensityWindow,
    /// Did any oscillator fire naturally in the slot being processed?
    /// Part of the density signal in stepped windows, where fire slots
    /// are no longer predicted into the wheel.
    fired_this_slot: bool,
    /// Devices whose oscillator phase may have changed in the current
    /// slot (fired, absorbed, or parent-aligned); drained by
    /// [`post_schedule`](Engine::post_schedule) to re-derive cursors
    /// and re-predict fires.
    touched: Vec<DeviceId>,
    /// Per-device position on a memoized phase trajectory (`None` ⇒
    /// non-canonical phase, fast-forwarded by literal ticking).
    cursors: Vec<Option<Cursor>>,
    /// Shared memoized phase ramps (all devices share one period).
    traj: TrajectoryCache,
    /// Sorted, deduplicated `beacon_offset` values — the merge-phase
    /// beacon residues mod the period.
    beacon_residues: Vec<u64>,
}

impl<'w, S: TraceSink, R: Recorder, const EV: bool> Engine<'w, S, R, EV> {
    fn new(world: &'w World, sink: &'w mut S, rec: &'w mut R) -> Self {
        let cfg = world.config();
        let n = world.n();
        let seed = cfg.sim.seed;
        let beacon_offset: Vec<u64> = {
            let period = cfg.protocol.period_slots as u64;
            let mut rng = StreamRng::new(seed, 0, StreamId::MergeBeacons);
            (0..n).map(|_| rng.gen_range(0..period)).collect()
        };
        let beacon_residues = {
            let mut r = beacon_offset.clone();
            r.sort_unstable();
            r.dedup();
            r
        };
        let faults = &cfg.faults;
        let churn_events = faults.sorted_churn();
        let skewed: Vec<bool> = (0..n as DeviceId)
            .map(|id| faults.period_for(id, cfg.protocol.period_slots) != cfg.protocol.period_slots)
            .collect();
        let mut phase_rng = StreamRng::new(seed, 0, StreamId::Phases);
        let devices: Vec<Device> = (0..n as DeviceId)
            .map(|id| {
                Device::new(
                    id,
                    phase_rng.gen_range(0.0..1.0),
                    faults.period_for(id, cfg.protocol.period_slots),
                    cfg.protocol.refractory_slots,
                    world.services()[id as usize],
                )
            })
            .collect();
        Engine {
            world,
            sink,
            rec,
            devices,
            m: vec![MState::default(); n],
            tree: vec![Vec::new(); n],
            medium: FastMedium::new(n),
            counters: Counters::new(),
            prc: Prc::from_dissipation(cfg.protocol.dissipation, cfg.protocol.coupling),
            rng: StreamRng::new(seed, 0, StreamId::Protocol),
            phase: Phase::Discovery,
            round: 0,
            round_end: 0,
            round_grace_end: 0,
            mergecmds_this_round: 0,
            commits_total: 0,
            commits_at_round_start: 0,
            stagnant_rounds: 0,
            outbox: Vec::new(),
            inbox: Vec::new(),
            rach2_out: Vec::new(),
            fire_queue: vec![Vec::new(); FIRE_RING],
            beacon_offset,
            phases_scratch: Vec::new(),
            frag_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            discovery_end: 0,
            max_rounds: 0,
            ground_truth_links: 0,
            active: faults.initial_active(n),
            churned: !churn_events.is_empty(),
            churn_events,
            next_churn: 0,
            skewed,
            chaos_key: FaultPlan::chaos_key(seed),
            last_fault_slot: faults.last_fault_slot(),
            merge_deadline: 0,
            orphaned_fragments: 0,
            wake: SlotWheel::new(),
            synced_next: 0,
            adaptive: cfg.engine == EngineMode::Adaptive,
            live_ev: true,
            density: DensityWindow::new(DensityWindow::DEFAULT_WINDOW),
            fired_this_slot: false,
            touched: Vec::new(),
            // Initial phases are arbitrary random reals — never
            // canonical — so every device starts on the literal-ticking
            // fallback and joins a shared trajectory at its first reset.
            cursors: vec![None; n],
            traj: TrajectoryCache::new(cfg.protocol.period_slots),
            beacon_residues,
        }
    }

    /// Distinct fragment labels across the live population (tracing
    /// only).
    fn fragment_count(&mut self) -> u32 {
        self.frag_scratch.clear();
        let (churned, active) = (self.churned, &self.active);
        self.frag_scratch.extend(
            self.devices
                .iter()
                .enumerate()
                .filter(|(i, _)| !churned || active[*i])
                .map(|(_, d)| d.fragment),
        );
        self.frag_scratch.sort_unstable();
        self.frag_scratch.dedup();
        self.frag_scratch.len() as u32
    }

    fn send(&mut self, from: DeviceId, to: DeviceId, msg: Msg) {
        self.counters.add_unicast_tx(1);
        self.outbox.push((from, to, msg));
    }

    /// Maximum tree depth over all fragments (for round pacing).
    fn max_depth(&self) -> u64 {
        let n = self.devices.len();
        let mut depth = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for d in &self.devices {
            if d.is_head() && (!self.churned || self.active[d.id as usize]) {
                depth[d.id as usize] = 0;
                queue.push_back(d.id);
            }
        }
        let mut max = 0;
        while let Some(v) = queue.pop_front() {
            for &u in &self.tree[v as usize] {
                if depth[u as usize] == u32::MAX {
                    depth[u as usize] = depth[v as usize] + 1;
                    max = max.max(depth[u as usize]);
                    queue.push_back(u);
                }
            }
        }
        max as u64
    }

    fn start_round(&mut self, slot: Slot) {
        if std::env::var("FFD2D_DEBUG").is_ok() && self.round > 0 {
            // Cycle check over the accepted tree edges.
            let n = self.devices.len();
            let mut uf = ffd2d_graph::UnionFind::new(n);
            for v in 0..n as u32 {
                for &u in &self.tree[v as usize] {
                    if v < u && !uf.union(v, u) {
                        eprintln!("!! CYCLE closed by edge {v}--{u} at round {}", self.round);
                    }
                    if !self.tree[u as usize].contains(&v) {
                        eprintln!("!! ASYMMETRIC link {v}->{u} at round {}", self.round);
                    }
                }
            }
            let heads = self.devices.iter().filter(|d| d.is_head()).count();
            let mut frags: Vec<u32> = self.devices.iter().map(|d| d.fragment).collect();
            frags.sort();
            frags.dedup();
            eprintln!(
                "round {} end: heads={} frags={:?} commits_total={} mergecmds={} rach2={}",
                self.round,
                heads,
                frags,
                self.commits_total,
                self.mergecmds_this_round,
                self.counters.rach2_tx
            );
        }
        self.round += 1;
        self.mergecmds_this_round = 0;
        let cfg = &self.world.config().protocol;
        // Round budget: initiate+report (2 depth hops), merge-cmd +
        // grant round-trip (2 depth), the handshake window with
        // retries, and the identity flood (depth), plus slack — floored
        // at 1.5 periods so neighbour tables refresh between rounds.
        let d = self.max_depth() + 1;
        let handshake =
            (cfg.handshake_window as u64 + HANDSHAKE_TIMEOUT) * (cfg.handshake_retries as u64 + 1);
        let budget = (5 * d + handshake + 8).max(cfg.period_slots as u64 * 3 / 2);
        self.round_end = slot.0 + budget;
        self.round_grace_end = self.round_end.saturating_sub(2 * d + 16);
        if EV {
            // The round boundary is a phase-transition point and must be
            // materialized.
            self.push_wake(self.round_end);
        }
        if S::ENABLED {
            let fragments = self.fragment_count();
            self.sink.event(&TraceEvent::RoundStart {
                slot: slot.0,
                round: self.round,
                budget,
                fragments,
            });
        }

        let round = self.round;
        for i in 0..self.devices.len() {
            self.m[i].reset(round);
        }
        // Heads initiate.
        for id in 0..self.devices.len() as DeviceId {
            if !self.devices[id as usize].is_head() {
                continue;
            }
            if self.churned && !self.active[id as usize] {
                continue; // departed ex-heads stay silent
            }
            let children: Vec<DeviceId> = self.tree[id as usize].clone();
            self.devices[id as usize].parent = None;
            self.devices[id as usize].children = children.clone();
            self.m[id as usize].pending_children = children.len() as u32;
            for c in children {
                self.send(
                    id,
                    c,
                    Msg::Initiate {
                        round,
                        fragment: id,
                        head: id,
                    },
                );
            }
            if self.m[id as usize].pending_children == 0 {
                self.aggregate_and_act(id, slot);
            }
        }
    }

    /// Fold the device's own best outgoing edge into its aggregate and
    /// either report up or (at the head) decide the round's merge.
    fn aggregate_and_act(&mut self, v: DeviceId, slot: Slot) {
        let frag = self.devices[v as usize].fragment;
        let max_age = FRESHNESS_PERIODS * self.world.config().protocol.period_slots as u64;
        if let Some((nbr, w)) = self.devices[v as usize]
            .table
            .best_outgoing_fresh(frag, slot, max_age)
        {
            let better = w > self.m[v as usize].best_w
                || (w == self.m[v as usize].best_w
                    && (v, nbr) < (self.m[v as usize].best_u, self.m[v as usize].best_v));
            if better {
                let nbr_frag = self.devices[v as usize]
                    .table
                    .get(nbr)
                    .map(|i| i.fragment)
                    .unwrap_or(NONE);
                let st = &mut self.m[v as usize];
                st.best_u = v;
                st.best_v = nbr;
                st.best_w = w;
                st.best_frag = nbr_frag;
                st.best_provider = v;
            }
        }
        let st = &self.m[v as usize];
        let (best_u, best_v, best_w, best_frag, provider, size) = (
            st.best_u,
            st.best_v,
            st.best_w,
            st.best_frag,
            st.best_provider,
            st.size,
        );
        let round = st.round;
        if self.devices[v as usize].is_head() {
            if best_v == NONE {
                return; // no outgoing edge: fragment idle this round
            }
            self.m[v as usize].own_target = best_frag;
            self.mergecmds_this_round += 1;
            if provider == v {
                self.m[v as usize].frag_size = size;
                self.begin_handshake(v, best_v, slot);
            } else {
                self.send(
                    v,
                    provider,
                    Msg::MergeCmd {
                        round,
                        frag_size: size,
                    },
                );
            }
        } else {
            let parent = self.devices[v as usize]
                .parent
                // ffd2d-lint: allow(panic-discipline) — GHS round invariant: every non-head carries a parent edge by construction (set when the fragment formed); silently skipping the report would corrupt the round, so violation must abort
                .expect("non-head device must have a parent during a round");
            self.send(
                v,
                parent,
                Msg::Report {
                    round,
                    best_u,
                    best_v,
                    best_w,
                    best_frag,
                    size,
                },
            );
        }
    }

    fn begin_handshake(&mut self, u: DeviceId, v: DeviceId, slot: Slot) {
        let cfg = &self.world.config().protocol;
        let st = &mut self.m[u as usize];
        st.hs_peer = v;
        st.hs_retries = cfg.handshake_retries;
        st.hs_next_tx = slot.0 + 1 + self.rng.gen_range(0..cfg.handshake_window as u64);
        if EV {
            let at = st.hs_next_tx;
            self.push_wake(at);
        }
    }

    fn handle_msg(&mut self, from: DeviceId, v: DeviceId, msg: Msg, slot: Slot) {
        match msg {
            Msg::Initiate {
                round,
                fragment,
                head,
            } => {
                if round != self.round || self.m[v as usize].initiated {
                    return;
                }
                if !self.tree[v as usize].contains(&from) {
                    // Tree messages are only meaningful over committed
                    // tree edges; commits are two-sided (reliable
                    // accepts), so this cannot be a missed edge.
                    return;
                }
                self.m[v as usize].initiated = true;
                self.m[v as usize].round = round;
                // The initiate flood is authoritative for identity: it
                // travelled tree edges from the head itself.
                self.devices[v as usize].fragment = fragment;
                self.devices[v as usize].head = head;
                self.devices[v as usize].parent = Some(from);
                let children: Vec<DeviceId> = self.tree[v as usize]
                    .iter()
                    .copied()
                    .filter(|&u| u != from)
                    .collect();
                self.devices[v as usize].children = children.clone();
                self.m[v as usize].pending_children = children.len() as u32;
                let round = self.round;
                for c in children {
                    self.send(
                        v,
                        c,
                        Msg::Initiate {
                            round,
                            fragment,
                            head,
                        },
                    );
                }
                if self.m[v as usize].pending_children == 0 {
                    self.aggregate_and_act(v, slot);
                }
            }
            Msg::Report {
                round,
                best_u,
                best_v,
                best_w,
                best_frag,
                size,
            } => {
                if round != self.round {
                    return;
                }
                let st = &mut self.m[v as usize];
                st.size += size;
                if best_v != NONE {
                    let better = best_w > st.best_w
                        || (best_w == st.best_w && (best_u, best_v) < (st.best_u, st.best_v));
                    if better {
                        st.best_u = best_u;
                        st.best_v = best_v;
                        st.best_w = best_w;
                        st.best_frag = best_frag;
                        st.best_provider = from;
                    }
                }
                st.pending_children = st.pending_children.saturating_sub(1);
                if st.pending_children == 0 {
                    self.aggregate_and_act(v, slot);
                }
            }
            Msg::MergeCmd { round, frag_size } => {
                if round != self.round {
                    return;
                }
                self.m[v as usize].frag_size = frag_size;
                if self.m[v as usize].best_provider == v {
                    let peer = self.m[v as usize].best_v;
                    if peer != NONE {
                        self.begin_handshake(v, peer, slot);
                    }
                } else if self.m[v as usize].best_provider != NONE {
                    self.send(
                        v,
                        self.m[v as usize].best_provider,
                        Msg::MergeCmd { round, frag_size },
                    );
                }
            }
            Msg::GrantReq {
                round,
                origin,
                requester,
                req_fragment,
                req_size,
                ttl,
            } => {
                if round != self.round || ttl == 0 {
                    return;
                }
                if self.devices[v as usize].is_head() {
                    // Matching discipline: every fragment takes part in
                    // at most ONE merge per round, which keeps each
                    // round's merge set a matching over current
                    // fragments — provably cycle-free even under stale
                    // neighbour labels. A head therefore grants iff
                    //   * the requester is a different fragment,
                    //   * it has not already granted this round, and
                    //   * it has no own request pending — except the
                    //     fragment-level mutual case (we target them,
                    //     they target us), where exactly one of the two
                    //     edges must proceed: the higher head id yields.
                    let my_frag = self.devices[v as usize].fragment;
                    let st = &self.m[v as usize];
                    let mutual = st.own_target == req_fragment;
                    let own_pending = st.own_target != NONE;
                    let granted = my_frag != req_fragment
                        && !st.granted_foreign
                        && (!own_pending || (mutual && my_frag > req_fragment));
                    if granted {
                        self.m[v as usize].granted_foreign = true;
                    } else if S::ENABLED {
                        self.sink.event(&TraceEvent::MergeReject {
                            slot: slot.0,
                            round,
                            device: v,
                            requester,
                            reason: RejectReason::GrantDenied,
                        });
                    }
                    if std::env::var("FFD2D_DEBUG").is_ok() && self.round >= 8 {
                        eprintln!("  r{} grantdecision at head {}: req_frag={} my_frag={} own_target={} mutual={} granted={}",
                            self.round, v, req_fragment, my_frag, self.m[v as usize].own_target as i64, mutual, granted);
                    }
                    let my_size = self.m[v as usize].size;
                    if origin == v {
                        self.deliver_grant(v, requester, granted, my_size, slot);
                    } else {
                        // Respond to whichever child delivered the
                        // request; breadcrumbs route the rest of the way.
                        self.send(
                            v,
                            from,
                            Msg::GrantResp {
                                round,
                                origin,
                                requester,
                                granted,
                                my_size,
                                ttl: GRANT_TTL,
                            },
                        );
                    }
                    let _ = req_size;
                } else {
                    self.m[v as usize]
                        .grant_route
                        .insert((origin, requester), from);
                    if let Some(parent) = self.devices[v as usize].parent {
                        self.send(
                            v,
                            parent,
                            Msg::GrantReq {
                                round,
                                origin,
                                requester,
                                req_fragment,
                                req_size,
                                ttl: ttl - 1,
                            },
                        );
                    }
                }
            }
            Msg::GrantResp {
                round,
                origin,
                requester,
                granted,
                my_size,
                ttl,
            } => {
                if round != self.round || ttl == 0 {
                    return;
                }
                if origin == v {
                    self.deliver_grant(v, requester, granted, my_size, slot);
                } else {
                    let back = self.m[v as usize]
                        .grant_route
                        .get(&(origin, requester))
                        .copied();
                    if let Some(back) = back {
                        self.send(
                            v,
                            back,
                            Msg::GrantResp {
                                round,
                                origin,
                                requester,
                                granted,
                                my_size,
                                ttl: ttl - 1,
                            },
                        );
                    }
                }
            }
            Msg::Accept {
                fragment,
                fragment_size,
                head,
            } => {
                self.devices[v as usize]
                    .table
                    .update_fragment(from, fragment);
                if self.m[v as usize].hs_peer == from && !self.m[v as usize].committed {
                    let same_fragment = self.devices[v as usize].head == head;
                    let linked = self.tree[v as usize].contains(&from);
                    if same_fragment && !linked {
                        // Void handshake: the target already merged into
                        // our fragment over another edge. Release the
                        // head's merge slot.
                        self.m[v as usize].hs_peer = NONE;
                        let round = self.round;
                        if S::ENABLED {
                            self.sink.event(&TraceEvent::MergeReject {
                                slot: slot.0,
                                round,
                                device: v,
                                requester: v,
                                reason: RejectReason::VoidSameFragment,
                            });
                        }
                        if self.devices[v as usize].is_head() {
                            self.m[v as usize].own_target = NONE;
                        } else if let Some(parent) = self.devices[v as usize].parent {
                            self.send(v, parent, Msg::HsFailed { round });
                        }
                    } else {
                        // Decide the surviving head once, from the two
                        // pre-merge snapshots, and share the decision so
                        // both endpoints apply the identical merge.
                        let survivor = Self::decide_survivor(
                            self.devices[v as usize].head,
                            self.m[v as usize].frag_size,
                            head,
                            fragment_size,
                        );
                        self.counters.add_rach2_tx(1);
                        if S::ENABLED {
                            // Out-of-band RACH2 handshake frame (no
                            // medium contention modelled): traced so the
                            // timeline's rach2 tally reconciles with
                            // `Counters::rach2_tx`.
                            self.sink.event(&TraceEvent::Tx {
                                slot: slot.0,
                                sender: v,
                                codec: Codec::Rach2,
                                kind: FrameLabel::HAccept,
                            });
                        }
                        self.outbox.push((v, from, Msg::Finalize { survivor }));
                        self.commit(v, from, survivor, slot);
                    }
                }
            }
            Msg::Finalize { survivor } => {
                self.commit(v, from, survivor, slot);
            }
            Msg::HsFailed { round } => {
                if round != self.round {
                    return;
                }
                if self.devices[v as usize].is_head() {
                    self.m[v as usize].own_target = NONE;
                } else if let Some(parent) = self.devices[v as usize].parent {
                    self.send(v, parent, Msg::HsFailed { round });
                }
            }
            Msg::NewFragment { head } => {
                if !self.tree[v as usize].contains(&from) {
                    return;
                }
                if self.devices[v as usize].fragment == head
                    && self.devices[v as usize].parent == Some(from)
                {
                    return; // duplicate
                }
                self.devices[v as usize].fragment = head;
                self.devices[v as usize].head = head;
                self.devices[v as usize].parent = Some(from);
                let fwd: Vec<DeviceId> = self.tree[v as usize]
                    .iter()
                    .copied()
                    .filter(|&u| u != from)
                    .collect();
                self.devices[v as usize].children = fwd.clone();
                for c in fwd {
                    self.send(v, c, Msg::NewFragment { head });
                }
            }
        }
    }

    /// A granted (or denied) foreign connect at the target boundary.
    fn deliver_grant(
        &mut self,
        v: DeviceId,
        requester: DeviceId,
        granted: bool,
        my_size: u32,
        slot: Slot,
    ) {
        let Some(pos) = self.m[v as usize]
            .foreign
            .iter()
            .position(|&(r, _, _)| r == requester)
        else {
            return;
        };
        let (requester, req_fragment, req_size) = self.m[v as usize].foreign.swap_remove(pos);
        if !granted {
            return;
        }
        let _ = (req_fragment, req_size);
        // Advertise our snapshot; the requester decides the survivor and
        // confirms with `Finalize`, upon which we commit.
        self.m[v as usize].frag_size = my_size;
        self.m[v as usize].hs_peer = requester;
        self.send_accept(v, requester, slot);
    }

    fn send_accept(&mut self, v: DeviceId, to: DeviceId, slot: Slot) {
        let d = &self.devices[v as usize];
        let msg = Msg::Accept {
            fragment: d.fragment,
            fragment_size: self.m[v as usize].frag_size,
            head: d.head,
        };
        self.counters.add_rach2_tx(1);
        if S::ENABLED {
            // See the `Finalize` send: out-of-band RACH2 frames are
            // traced too, keeping timeline and counter tallies equal.
            self.sink.event(&TraceEvent::Tx {
                slot: slot.0,
                sender: v,
                codec: Codec::Rach2,
                kind: FrameLabel::HAccept,
            });
            self.sink.event(&TraceEvent::MergeAccept {
                slot: slot.0,
                round: self.round,
                device: v,
                peer: to,
            });
        }
        self.outbox.push((v, to, msg));
    }

    /// Algorithm 1's head-selection rule: the surviving head comes from
    /// the larger tree ("choose S_v.head from highest number of node's
    /// tree"); ties break to the smaller head id.
    fn decide_survivor(
        my_head: DeviceId,
        my_size: u32,
        their_head: DeviceId,
        their_size: u32,
    ) -> DeviceId {
        if my_size > their_size || (my_size == their_size && my_head < their_head) {
            my_head
        } else {
            their_head
        }
    }

    /// Commit the merge over tree edge `(x, y)` from `x`'s side, with a
    /// pre-agreed surviving head (both endpoints receive the same
    /// `survivor`, so the two sides always apply the identical merge).
    fn commit(&mut self, x: DeviceId, y: DeviceId, survivor: DeviceId, slot: Slot) {
        if S::ENABLED {
            self.sink.event(&TraceEvent::FragmentCommit {
                slot: slot.0,
                round: self.round,
                device: x,
                peer: y,
                survivor,
                old_head: self.devices[x as usize].head,
            });
        }
        if !self.tree[x as usize].contains(&y) {
            self.tree[x as usize].push(y);
            self.commits_total += 1;
        }
        self.m[x as usize].committed = true;
        self.m[x as usize].hs_peer = NONE;
        if std::env::var("FFD2D_DEBUG").is_ok() {
            eprintln!("  commit {}--{} (survivor={})", x, y, survivor);
        }
        if self.devices[x as usize].head == survivor {
            // Winning side: the peer becomes a child.
            if !self.devices[x as usize].children.contains(&y)
                && self.devices[x as usize].parent != Some(y)
            {
                self.devices[x as usize].children.push(y);
            }
        } else {
            // Losing side: adopt the surviving identity and flood it
            // into the old fragment.
            self.devices[x as usize].fragment = survivor;
            self.devices[x as usize].head = survivor;
            self.devices[x as usize].parent = Some(y);
            let fwd: Vec<DeviceId> = self.tree[x as usize]
                .iter()
                .copied()
                .filter(|&u| u != y)
                .collect();
            self.devices[x as usize].children = fwd.clone();
            for c in fwd {
                self.send(x, c, Msg::NewFragment { head: survivor });
            }
        }
    }

    fn handle_rach2(&mut self, receiver: DeviceId, sig: &ProximitySignal, slot: Slot) {
        // Accepts travel as reliable MAC-acknowledged signalling (see
        // `Msg::Accept`); an on-air HAccept frame is not used by this
        // engine, so only HConnect frames matter here.
        let FrameKind::HConnect {
            to,
            fragment,
            fragment_size,
            head,
        } = sig.kind
        else {
            return;
        };
        self.devices[receiver as usize]
            .table
            .update_fragment(sig.sender, fragment);
        if to != receiver {
            return;
        }
        if S::ENABLED {
            self.sink.event(&TraceEvent::MergeRequest {
                slot: slot.0,
                round: self.round,
                requester: sig.sender,
                target: receiver,
                req_fragment: fragment,
            });
        }
        if std::env::var("FFD2D_DEBUG").is_ok() && self.round >= 8 {
            eprintln!(
                "  r{} hconnect {}->{} (their frag={}, my frag={}, my hs_peer={}, link={})",
                self.round,
                sig.sender,
                receiver,
                fragment,
                self.devices[receiver as usize].fragment,
                self.m[receiver as usize].hs_peer as i64,
                self.tree[receiver as usize].contains(&sig.sender)
            );
        }
        let me = &self.devices[receiver as usize];
        if me.fragment == fragment {
            // Same fragment: either a stale edge choice by the
            // peer, or the peer missed our accept after a
            // committed merge. Reply either way — the accept
            // carries our current labels, which lets the peer
            // heal a missed commit (tree link exists) or abort a
            // void handshake (no link).
            self.send_accept(receiver, sig.sender, slot);
            return;
        }
        if self.m[receiver as usize].hs_peer == sig.sender {
            // Mutual choice (the GHS core edge): accept without
            // a head round-trip. Both boundaries exchange
            // accepts; the commit happens on Accept/Finalize.
            let _ = (head, fragment_size);
            self.send_accept(receiver, sig.sender, slot);
            return;
        }
        if self.tree[receiver as usize].contains(&sig.sender) {
            self.send_accept(receiver, sig.sender, slot);
            return;
        }
        if slot.0 > self.round_grace_end {
            return; // too late in the round for a grant trip
        }
        let already_pending = self.m[receiver as usize]
            .foreign
            .iter()
            .any(|&(r, _, _)| r == sig.sender);
        if !already_pending {
            self.m[receiver as usize]
                .foreign
                .push((sig.sender, fragment, fragment_size));
            let round = self.round;
            if self.devices[receiver as usize].is_head() {
                self.handle_msg(
                    receiver,
                    receiver,
                    Msg::GrantReq {
                        round,
                        origin: receiver,
                        requester: sig.sender,
                        req_fragment: fragment,
                        req_size: fragment_size,
                        ttl: GRANT_TTL,
                    },
                    slot,
                );
            } else if let Some(parent) = self.devices[receiver as usize].parent {
                self.send(
                    receiver,
                    parent,
                    Msg::GrantReq {
                        round,
                        origin: receiver,
                        requester: sig.sender,
                        req_fragment: fragment,
                        req_size: fragment_size,
                        ttl: GRANT_TTL,
                    },
                );
            }
        }
    }

    /// Apply every scheduled churn event due at or before `slot`, then
    /// (if anything happened) re-open the merge machinery so the tree
    /// heals. Called at slot-body start; in event-driven mode every
    /// churn slot is pre-scheduled as a wake, so both engines apply
    /// each event in exactly its scheduled slot.
    fn apply_churn(&mut self, slot: Slot) {
        let mut churned: Vec<DeviceId> = Vec::new();
        while self.next_churn < self.churn_events.len()
            && self.churn_events[self.next_churn].slot <= slot.0
        {
            let ev = self.churn_events[self.next_churn];
            self.next_churn += 1;
            churned.push(ev.device);
            self.rec.add("chaos.churn_events", 1);
            match ev.kind {
                ChurnKind::Leave => self.device_leave(ev.device, slot),
                ChurnKind::Join => self.device_join(ev.device, slot),
            }
        }
        if !churned.is_empty() {
            // Population changed: stale exactly the churned devices'
            // link-state cache rows; everyone else's stay hot.
            self.medium.note_churn_of(&churned);
            self.reopen_merging(slot);
        }
    }

    /// Power a device off: freeze its oscillator, strip its tree edges,
    /// count the fragments its departure orphans, and re-derive the
    /// survivors' fragment identities.
    fn device_leave(&mut self, d: DeviceId, slot: Slot) {
        if !self.active[d as usize] {
            return;
        }
        self.active[d as usize] = false;
        let nbrs: Vec<DeviceId> = std::mem::take(&mut self.tree[d as usize]);
        for &u in &nbrs {
            self.tree[u as usize].retain(|&x| x != d);
            let dev = &mut self.devices[u as usize];
            if dev.parent == Some(d) {
                dev.parent = None;
            }
            dev.children.retain(|&x| x != d);
        }
        self.devices[d as usize].parent = None;
        self.devices[d as usize].children.clear();
        let orphaned = self.refragment_after_leave(&nbrs);
        self.orphaned_fragments += orphaned;
        if S::ENABLED {
            self.sink.event(&TraceEvent::DeviceLeft {
                slot: slot.0,
                device: d,
                orphaned,
            });
        }
    }

    /// Power a device (back) on as a fresh singleton fragment. Stale
    /// pre-outage state is discarded — the device re-discovers its
    /// neighbours from live traffic.
    fn device_join(&mut self, d: DeviceId, slot: Slot) {
        if self.active[d as usize] {
            return;
        }
        self.active[d as usize] = true;
        let dev = &mut self.devices[d as usize];
        dev.fragment = d;
        dev.head = d;
        dev.parent = None;
        dev.children.clear();
        dev.table = NeighborTable::new();
        dev.coupling = if self.phase == Phase::Discovery {
            CouplingMode::Isolated
        } else {
            CouplingMode::TreeOnly
        };
        self.m[d as usize] = MState::default();
        if EV && self.live_ev {
            // Re-predict the thawed oscillator's next fire. (Stepped
            // windows materialize every slot, so the tick catches it;
            // the cutover reseed re-predicts the whole population.)
            self.touched.push(d);
        }
        if S::ENABLED {
            self.sink.event(&TraceEvent::DeviceJoined {
                slot: slot.0,
                device: d,
            });
        }
    }

    /// Rebuild fragment identities from the surviving tree edges after
    /// a departure: union-find over the live population, the minimum id
    /// of each component becomes its head, and parents re-orient toward
    /// it by BFS. Returns the number of fragments orphaned among
    /// `former` (the departed device's ex-neighbours): each component
    /// beyond the first.
    fn refragment_after_leave(&mut self, former: &[DeviceId]) -> u32 {
        let n = self.devices.len();
        let mut uf = ffd2d_graph::UnionFind::new(n);
        for v in 0..n {
            if !self.active[v] {
                continue;
            }
            for &u in &self.tree[v] {
                if self.active[u as usize] {
                    uf.union(v as DeviceId, u);
                }
            }
        }
        let mut former_roots: Vec<DeviceId> = former
            .iter()
            .filter(|&&u| self.active[u as usize])
            .map(|&u| uf.find(u))
            .collect();
        former_roots.sort_unstable();
        former_roots.dedup();
        let orphaned = (former_roots.len() as u32).saturating_sub(1);
        // Head = minimum id per live component (ids ascend, so the
        // first member seen is the minimum).
        let mut head = vec![NONE; n];
        for v in 0..n as DeviceId {
            if !self.active[v as usize] {
                continue;
            }
            let r = uf.find(v) as usize;
            if head[r] == NONE {
                head[r] = v;
            }
        }
        for v in 0..n as DeviceId {
            if !self.active[v as usize] {
                continue;
            }
            let h = head[uf.find(v) as usize];
            self.devices[v as usize].fragment = h;
            self.devices[v as usize].head = h;
        }
        // Re-orient every live component from its head.
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        for v in 0..n as DeviceId {
            if self.active[v as usize] && self.devices[v as usize].is_head() {
                seen[v as usize] = true;
                self.devices[v as usize].parent = None;
                queue.push_back(v);
            }
        }
        while let Some(v) = queue.pop_front() {
            let children: Vec<DeviceId> = self.tree[v as usize]
                .iter()
                .copied()
                .filter(|&u| self.active[u as usize] && !seen[u as usize])
                .collect();
            self.devices[v as usize].children = children.clone();
            for c in children {
                seen[c as usize] = true;
                self.devices[c as usize].parent = Some(v);
                queue.push_back(c);
            }
        }
        orphaned
    }

    /// Churn re-opens tree construction: return to the merge phase,
    /// grant extra rounds, and hold the phase open long enough for
    /// rejoining devices to re-discover their neighbours before the
    /// idle-round exit can fire.
    fn reopen_merging(&mut self, slot: Slot) {
        if self.phase == Phase::Discovery {
            return; // merging has not started; discovery handles it
        }
        let period = self.world.config().protocol.period_slots as u64;
        self.merge_deadline = self.merge_deadline.max(slot.0 + 3 * period);
        self.max_rounds = self.max_rounds.max(self.round + 16);
        self.stagnant_rounds = 0;
        if self.phase != Phase::Merge {
            self.phase = Phase::Merge;
            if S::ENABLED {
                self.sink.event(&TraceEvent::PhaseEnter {
                    slot: slot.0,
                    phase: ProtoPhase::Merge,
                });
            }
        }
        self.start_round(slot);
    }

    /// Schedule a wake-up slot, tallying scheduler pressure for an
    /// enabled recorder (a no-op push otherwise). Wake-ups landing on
    /// an already-scheduled slot coalesce inside the wheel.
    #[inline]
    fn push_wake(&mut self, s: u64) {
        self.rec.add("engine.wakeups_scheduled", 1);
        self.wake.push(s);
    }

    /// Flush the wheel's coalesce/stale tallies into the recorder.
    fn flush_wheel_stats(&mut self) {
        let (coalesced, stale) = self.wake.take_stats();
        if coalesced > 0 {
            self.rec.add("engine.coalesced_wakeups", coalesced);
        }
        if stale > 0 {
            self.rec.add("engine.wakeups_stale", stale);
        }
    }

    /// Queue a staggered fire transmission for a device whose firing
    /// instant was `base_age` slots ago (0 for a natural threshold
    /// crossing; the absorbing pulse's age for an absorption).
    fn enqueue_fire(&mut self, id: DeviceId, slot: Slot, min_jitter: u64, base_age: u8) {
        let j = self
            .rng
            .gen_range(min_jitter..FIRE_JITTER.max(min_jitter + 1));
        let at = (slot.0 + j) as usize % FIRE_RING;
        self.fire_queue[at].push((id, base_age.saturating_add(j as u8)));
        if EV && j > 0 {
            // Jittered transmissions land in a future slot, which must
            // be materialized for the ring take to find them (`j = 0`
            // entries are taken later in the *current*, already
            // materialized slot).
            self.push_wake(slot.0 + j);
        }
    }

    /// One slot of broadcast traffic: tick oscillators, transmit due
    /// (staggered) fires plus queued RACH2 frames through the medium,
    /// and couple decoded pulses with age compensation.
    fn broadcast_step(&mut self, slot: Slot) {
        let pathloss = self.world.channel_config().pathloss;
        let tx_power = self.world.channel_config().tx_power;

        // Natural fires from the slot tick. Cursor/touched maintenance
        // only pays off when skip-ahead will use it — stepped windows
        // of an adaptive run shed it (and reseed at the next cutover).
        for i in 0..self.devices.len() {
            if self.churned && !self.active[i] {
                continue; // departed devices are frozen
            }
            if self.devices[i].osc.tick() {
                if EV {
                    self.fired_this_slot = true;
                    if self.live_ev {
                        self.touched.push(i as DeviceId);
                    }
                }
                self.enqueue_fire(i as DeviceId, slot, 0, 0);
            } else if EV && self.live_ev {
                self.cursors[i] = self.cursors[i].map(Cursor::next);
            }
        }
        // Due transmissions. The ring bucket and the transmission list
        // are reusable scratch: taken here, returned below with their
        // capacity intact, so steady-state slots allocate nothing.
        let ring_at = slot.0 as usize % FIRE_RING;
        let mut due = core::mem::take(&mut self.fire_queue[ring_at]);
        let mut pending = core::mem::take(&mut self.pending_scratch);
        pending.clear();
        pending.extend(
            due.iter()
                // A device that left after staggering a fire never
                // transmits it.
                .filter(|&&(id, _)| !self.churned || self.active[id as usize])
                .map(|&(id, age)| ProximitySignal {
                    sender: id,
                    service: self.devices[id as usize].service,
                    kind: FrameKind::Fire {
                        fragment: self.devices[id as usize].fragment,
                        age,
                    },
                }),
        );
        due.clear();
        self.fire_queue[ring_at] = due;
        // Merge-phase keep-alive beacons: one per device per period, at
        // a per-device random offset. Synchronized fragments fire in a
        // tight window that self-jams; beacons keep fragment labels and
        // weights fresh without carrying timing.
        if self.phase == Phase::Merge {
            let period = self.world.config().protocol.period_slots as u64;
            for id in 0..self.devices.len() {
                if self.churned && !self.active[id] {
                    continue;
                }
                if slot.0 % period == self.beacon_offset[id] {
                    pending.push(ProximitySignal {
                        sender: id as DeviceId,
                        service: self.devices[id].service,
                        kind: FrameKind::Fire {
                            fragment: self.devices[id].fragment,
                            age: BEACON_AGE,
                        },
                    });
                }
            }
        }
        pending.append(&mut self.rach2_out);
        if pending.is_empty() {
            self.pending_scratch = pending;
            return;
        }

        let mut absorbed: Vec<(DeviceId, u8)> = Vec::new();
        let mut rach2_events: Vec<(DeviceId, ProximitySignal)> = Vec::new();
        let mut fault_drops = 0u64;
        let mut fault_dups = 0u64;
        {
            let faults = &self.world.config().faults;
            let has_frame_faults = faults.has_frame_faults();
            let chaos_key = self.chaos_key;
            let active_mask: Option<&[bool]> = if self.churned {
                Some(&self.active)
            } else {
                None
            };
            let devices = &mut self.devices;
            let prc = &self.prc;
            let touched = &mut self.touched;
            let live_ev = self.live_ev;
            self.medium.resolve_instrumented(
                self.world,
                slot,
                &pending,
                active_mask,
                &mut self.counters,
                &mut *self.sink,
                &mut *self.rec,
                |receiver, sig, rx_dbm, sink| {
                    // Frame faults apply at the engine boundary, after
                    // the decode decision: a dropped frame was on the
                    // air (counters unchanged) but never reaches the
                    // protocol; a duplicated one is handled twice. The
                    // fate is a stateless keyed draw, so it cannot
                    // depend on delivery order or worker count.
                    let mut copies = 1u32;
                    if has_frame_faults {
                        match faults.frame_fate(chaos_key, slot.0, sig.sender, receiver) {
                            FrameFate::Drop => {
                                fault_drops += 1;
                                if S::ENABLED {
                                    sink.event(&TraceEvent::FaultInjected {
                                        slot: slot.0,
                                        device: receiver,
                                        sender: sig.sender,
                                        kind: FaultKind::FrameDrop,
                                    });
                                }
                                return;
                            }
                            FrameFate::Duplicate => {
                                fault_dups += 1;
                                if S::ENABLED {
                                    sink.event(&TraceEvent::FaultInjected {
                                        slot: slot.0,
                                        device: receiver,
                                        sender: sig.sender,
                                        kind: FaultKind::FrameDup,
                                    });
                                }
                                copies = 2;
                            }
                            FrameFate::Deliver => {}
                        }
                    }
                    for _ in 0..copies {
                        match sig.kind {
                            FrameKind::Fire { fragment, age } => {
                                let dev = &mut devices[receiver as usize];
                                dev.table.observe_fire(
                                    sig.sender,
                                    Dbm(rx_dbm),
                                    sig.service,
                                    fragment,
                                    slot,
                                    &pathloss,
                                    tx_power,
                                );
                                if age != BEACON_AGE {
                                    let before = if S::ENABLED || (EV && live_ev) {
                                        dev.osc.phase()
                                    } else {
                                        0.0
                                    };
                                    let fired = dev.hear_fire_delayed(sig.sender, prc, age as u32);
                                    if S::ENABLED || (EV && live_ev) {
                                        let after = dev.osc.phase();
                                        if S::ENABLED && (after != before || fired) {
                                            sink.event(&TraceEvent::PhaseAdjust {
                                                slot: slot.0,
                                                device: receiver,
                                                sender: sig.sender,
                                                before,
                                                after,
                                                absorbed: fired,
                                            });
                                        }
                                        if EV && live_ev && (after != before || fired) {
                                            touched.push(receiver);
                                        }
                                    }
                                    if fired {
                                        absorbed.push((receiver, age));
                                    }
                                }
                            }
                            _ => rach2_events.push((receiver, *sig)),
                        }
                    }
                },
            );
        }
        self.counters.add_fault_dropped_frames(fault_drops);
        self.counters.add_fault_dup_frames(fault_dups);
        if fault_drops > 0 {
            self.rec.add("chaos.frames_dropped", fault_drops);
        }
        if fault_dups > 0 {
            self.rec.add("chaos.frames_duplicated", fault_dups);
        }
        for (receiver, sig) in rach2_events {
            self.handle_rach2(receiver, &sig, slot);
        }
        // Absorbed devices fire now; their transmissions stagger into
        // the following slots.
        for (id, age) in absorbed {
            self.enqueue_fire(id, slot, 1, age);
        }
        self.pending_scratch = pending;
    }

    /// Smallest covering arc of the population's phases, in turns.
    /// Departed devices keep free-running oscillators but are absent
    /// from the air, so they are excluded from the convergence metric.
    fn phase_spread(&mut self) -> f64 {
        self.phases_scratch.clear();
        let (churned, active) = (self.churned, &self.active);
        self.phases_scratch.extend(
            self.devices
                .iter()
                .enumerate()
                .filter(|(i, _)| !churned || active[*i])
                .map(|(_, d)| d.osc.phase()),
        );
        ffd2d_osc::sync::phase_spread(&self.phases_scratch)
    }

    /// One materialized slot, wrapped in a phase-keyed scoped timer
    /// when a recorder listens. The key is derived from the phase *at
    /// slot entry*, so a transition inside the body bills to the phase
    /// that paid for the work.
    fn slot_body(&mut self, slot: Slot) -> Option<u64> {
        if !R::ENABLED {
            return self.slot_body_inner(slot);
        }
        let key = match self.phase {
            Phase::Discovery => "engine.slot.discovery",
            Phase::Merge => "engine.slot.merge",
            Phase::Sync => "engine.slot.sync",
        };
        let t_slot = self.rec.start();
        let probe = self.slot_body_inner(slot);
        self.rec.add("engine.slots_materialized", 1);
        self.rec.stop(key, t_slot);
        probe
    }

    /// One materialized slot — the body shared verbatim by the stepped
    /// and event-driven loops. Returns `Some(slot)` when convergence is
    /// declared (the caller breaks out of its loop).
    fn slot_body_inner(&mut self, slot: Slot) -> Option<u64> {
        let world = self.world;
        let cfg = world.config();
        let n = self.devices.len();
        let s = slot.0;

        // Scheduled churn fires before anything else in the slot, so a
        // join participates (and a leave is silent) from this slot on.
        if self.next_churn < self.churn_events.len() {
            self.apply_churn(slot);
        }

        // Phase transitions.
        match self.phase {
            Phase::Discovery if s >= self.discovery_end => {
                self.phase = Phase::Merge;
                if S::ENABLED {
                    self.sink.event(&TraceEvent::PhaseEnter {
                        slot: s,
                        phase: ProtoPhase::Merge,
                    });
                }
                for d in self.devices.iter_mut() {
                    d.coupling = CouplingMode::TreeOnly;
                }
                self.start_round(slot);
            }
            Phase::Merge if s >= self.round_end => {
                if self.commits_total == self.commits_at_round_start {
                    self.stagnant_rounds += 1;
                } else {
                    self.stagnant_rounds = 0;
                }
                self.commits_at_round_start = self.commits_total;
                // Done when all heads are idle, when rounds stopped
                // producing merges (stale phantom edges), or at the
                // safety cap. A recent churn event holds the phase open
                // (`merge_deadline`, 0 when no churn ever happened) so
                // a rejoining device gets time to be discovered before
                // the idle-round exit can fire.
                if ((self.mergecmds_this_round == 0 || self.stagnant_rounds >= 4)
                    && s >= self.merge_deadline)
                    || self.round >= self.max_rounds
                {
                    self.phase = Phase::Sync;
                    if S::ENABLED {
                        self.sink.event(&TraceEvent::PhaseEnter {
                            slot: s,
                            phase: ProtoPhase::Sync,
                        });
                    }
                    for d in self.devices.iter_mut() {
                        d.coupling = CouplingMode::TreeOnly;
                    }
                } else {
                    self.start_round(slot);
                }
            }
            _ => {}
        }

        // Deliver last slot's unicasts. The swap hands the handlers an
        // empty outbox to push replies into; the delivered batch buffer
        // is reused across slots (no per-slot allocation).
        core::mem::swap(&mut self.inbox, &mut self.outbox);
        let mut batch = core::mem::take(&mut self.inbox);
        for &(from, to, msg) in &batch {
            // In-flight unicasts involving a device that churned between
            // send and delivery are lost with it.
            if self.churned && (!self.active[from as usize] || !self.active[to as usize]) {
                continue;
            }
            self.handle_msg(from, to, msg, slot);
        }
        batch.clear();
        self.inbox = batch;

        // Boundary handshake (re)transmissions — only while enough
        // round time remains for the full grant/accept/finalize
        // exchange (late handshakes would straddle the round
        // boundary and leave half-committed edges).
        if self.phase == Phase::Merge && s <= self.round_grace_end {
            for v in 0..n as DeviceId {
                if self.churned && !self.active[v as usize] {
                    continue;
                }
                let st = &self.m[v as usize];
                if st.hs_peer != NONE && !st.committed && st.hs_next_tx == s {
                    let d = &self.devices[v as usize];
                    let sig = ProximitySignal {
                        sender: v,
                        service: d.service,
                        kind: FrameKind::HConnect {
                            to: st.hs_peer,
                            fragment: d.fragment,
                            fragment_size: st.frag_size,
                            head: d.head,
                        },
                    };
                    self.rach2_out.push(sig);
                    let st = &mut self.m[v as usize];
                    if st.hs_retries > 0 {
                        st.hs_retries -= 1;
                        let next = s
                            + HANDSHAKE_TIMEOUT
                            + self.rng.gen_range(0..cfg.protocol.handshake_window as u64);
                        st.hs_next_tx = next;
                        if EV {
                            self.push_wake(next);
                        }
                    }
                }
            }
        }

        // Broadcast traffic + coupling.
        self.broadcast_step(slot);

        // Per-slot population summary — the "slot tick" of the
        // trace. O(n log n), gathered only when a sink listens.
        if S::ENABLED {
            let fragments = self.fragment_count();
            let phase_spread = self.phase_spread();
            let discovered_links: u64 = self
                .devices
                .iter()
                .map(|d| d.table.discovered() as u64)
                .sum();
            self.sink.event(&TraceEvent::SlotStats {
                slot: s,
                fragments,
                phase_spread,
                discovered_links,
                ground_truth_links: self.ground_truth_links,
            });
        }

        // Convergence: all phases within one slot of each other.
        if self.phase == Phase::Sync && s.is_multiple_of(SYNC_CHECK_INTERVAL) {
            let tol = 1.0 / cfg.protocol.period_slots as f64 + 1e-12;
            if n > 0 && self.phase_spread() <= tol {
                if S::ENABLED {
                    self.sink.event(&TraceEvent::Converged { slot: s });
                }
                return Some(s);
            }
        }
        None
    }

    /// Seed the wake queue: every device's first natural fire plus the
    /// discovery→merge boundary. (A device whose oscillator needs `k`
    /// ticks fires in slot `k - 1`: slot bodies tick once each, starting
    /// at slot 0.)
    fn schedule_initial(&mut self) {
        self.push_wake(self.discovery_end);
        for i in 0..self.devices.len() {
            let k = u64::from(self.devices[i].osc.ticks_to_next_fire());
            self.push_wake(k - 1);
        }
        // Churn slots must materialize: joins/leaves happen at the top
        // of the slot body, and the heap keeps them in slot order.
        for i in 0..self.churn_events.len() {
            let at = self.churn_events[i].slot;
            self.push_wake(at);
        }
    }

    /// Pop the next slot to materialize. The wheel already coalesced
    /// duplicates and dropped stale pushes, so every pop is a distinct,
    /// strictly increasing slot; `None` ends the run (pops are ordered,
    /// so once one reaches the horizon every remaining candidate is
    /// past it too).
    fn next_wake(&mut self, max_slots: u64) -> Option<u64> {
        if R::ENABLED {
            self.flush_wheel_stats();
        }
        let s = self.wake.pop()?;
        debug_assert!(s >= self.synced_next, "wheel popped a processed slot");
        if s >= max_slots {
            return None;
        }
        self.rec.add("engine.wakeups_fired", 1);
        if R::ENABLED {
            self.rec
                .observe("engine.wake_heap_depth", self.wake.pending() as u64);
            self.rec
                .observe("engine.wheel_occupancy", self.wake.in_window() as u64);
        }
        Some(s)
    }

    /// Stepped-window counterpart of [`next_wake`](Engine::next_wake):
    /// consume the wheel entry (if any) at exactly slot `s`, keeping
    /// the wheel's clock in lockstep with the materialized slots.
    /// Returns whether a wake was pending — the "would the event
    /// engine have woken here?" half of the density signal.
    fn claim_wake(&mut self, s: u64) -> bool {
        if R::ENABLED {
            self.flush_wheel_stats();
        }
        let woke = self.wake.claim(s);
        if woke {
            self.rec.add("engine.wakeups_fired", 1);
            if R::ENABLED {
                self.rec
                    .observe("engine.wheel_occupancy", self.wake.in_window() as u64);
            }
        }
        woke
    }

    /// Fast-forward every device through the skipped slots
    /// `[synced_next, s)`. These are pure ticks by construction of the
    /// wake set (a fire inside the window would have been scheduled as
    /// a wake), so devices holding a trajectory cursor warp in O(1);
    /// the rest tick literally.
    fn advance_to(&mut self, s: u64) {
        let ticks = s - self.synced_next;
        if ticks == 0 {
            return;
        }
        let mut warps = 0u64;
        let mut literal = 0u64;
        for i in 0..self.devices.len() {
            // Departed devices are frozen: their oscillators stop with
            // them, exactly as in the stepped loop's tick skip.
            if self.churned && !self.active[i] {
                continue;
            }
            let fast = match self.cursors[i] {
                Some(c) => self.traj.advance(c, ticks),
                None => None,
            };
            match fast {
                Some((phase, moved)) => {
                    self.devices[i].osc.warp(phase, ticks);
                    self.cursors[i] = Some(moved);
                    warps += 1;
                }
                None => {
                    self.cursors[i] = None;
                    let fires = self.devices[i].osc.advance_by(ticks);
                    debug_assert_eq!(
                        fires, 0,
                        "device {i} fired inside a skipped window ending at slot {s}"
                    );
                    literal += 1;
                }
            }
        }
        self.synced_next = s;
        if R::ENABLED {
            self.rec.add("engine.slots_skipped", ticks);
            self.rec.add("osc.cursor_warps", warps);
            self.rec.add("osc.literal_advances", literal);
        }
    }

    /// Re-arm the wake queue after materializing slot `s`.
    fn post_schedule(&mut self, s: u64) {
        // Unicasts sent this slot deliver next slot.
        if !self.outbox.is_empty() {
            self.push_wake(s + 1);
        }
        // Devices whose phase changed: re-derive the trajectory cursor
        // from the (canonical) reset phase and re-predict the fire.
        while let Some(v) = self.touched.pop() {
            let phase = self.devices[v as usize].osc.phase();
            // The shared trajectory is tabulated for the nominal
            // period; clock-skewed devices must tick literally.
            let cur = if self.skewed[v as usize] {
                None
            } else {
                self.traj.cursor_for_start(phase)
            };
            self.cursors[v as usize] = cur;
            let k = match cur {
                Some(c) => {
                    self.rec.add("osc.cursor_derived", 1);
                    u64::from(self.traj.ticks_to_fire(c))
                }
                None => {
                    self.rec.add("osc.cursor_fallback", 1);
                    u64::from(self.devices[v as usize].osc.ticks_to_next_fire())
                }
            };
            self.push_wake(s + k);
        }
        match self.phase {
            // The discovery→merge boundary is scheduled up front.
            Phase::Discovery => {}
            // Keep-alive beacons: materialize the next slot in which any
            // device's beacon offset comes up. Each beacon slot re-arms
            // the next one, so the chain spans the whole phase.
            Phase::Merge => {
                if let Some(b) = self.next_beacon_slot(s) {
                    self.push_wake(b);
                }
            }
            // Convergence probes run on the SYNC_CHECK_INTERVAL grid;
            // like the beacons, each probe re-arms the next.
            Phase::Sync => {
                self.push_wake(s + (SYNC_CHECK_INTERVAL - s % SYNC_CHECK_INTERVAL));
            }
        }
    }

    /// Feed the density tracker after materializing slot `s` and apply
    /// the execution-strategy cutover it decides (adaptive mode only).
    /// `woke` is the scheduler half of the busy signal: did a wheel
    /// entry land on this slot?
    fn update_cutover(&mut self, s: u64, woke: bool) {
        let busy = woke || self.fired_this_slot;
        let stepped = self.density.observe(s, busy);
        if stepped != self.live_ev {
            return;
        }
        self.rec.add("engine.cutover_transitions", 1);
        self.live_ev = !stepped;
        if self.live_ev {
            self.reseed_event_wakes(s);
        }
    }

    /// Entering an event-driven window from a stepped one: cursors and
    /// per-device fire predictions went unmaintained, so drop every
    /// cursor back to the literal-ticking fallback (the engine-start
    /// state) and re-predict each live oscillator's next fire. Deadline,
    /// outbox, beacon and probe wakes kept flowing into the wheel
    /// throughout the stepped window, so they need no repair.
    fn reseed_event_wakes(&mut self, s: u64) {
        self.touched.clear();
        for i in 0..self.devices.len() {
            self.cursors[i] = None;
            if self.churned && !self.active[i] {
                continue;
            }
            let k = u64::from(self.devices[i].osc.ticks_to_next_fire());
            self.push_wake(s + k);
        }
    }

    /// The first slot strictly after `s` holding any device's
    /// merge-phase beacon offset.
    fn next_beacon_slot(&self, s: u64) -> Option<u64> {
        if self.beacon_residues.is_empty() {
            return None;
        }
        let period = u64::from(self.world.config().protocol.period_slots);
        let q = s + 1;
        let rem = q % period;
        let idx = self.beacon_residues.partition_point(|&r| r < rem);
        Some(match self.beacon_residues.get(idx) {
            Some(&r) => q + (r - rem),
            None => q + (period - rem) + self.beacon_residues[0],
        })
    }

    fn run(mut self) -> RunOutcome {
        let t_run = self.rec.start();
        let world = self.world;
        let cfg = world.config();
        let n = self.devices.len();
        self.discovery_end =
            cfg.protocol.discovery_periods as u64 * cfg.protocol.period_slots as u64;
        self.max_rounds = 2 * (usize::BITS - n.leading_zeros()) + 16;
        // Completeness denominator for per-slot stats (constant over a
        // static run; the graph is built lazily either way).
        self.ground_truth_links = if S::ENABLED {
            2 * world.proximity_graph().m() as u64
        } else {
            0
        };
        let mut convergence: Option<u64> = None;
        let mut reconvergence: Option<u64> = None;
        let mut last_slot = 0u64;
        if S::ENABLED {
            self.sink.event(&TraceEvent::PhaseEnter {
                slot: 0,
                phase: ProtoPhase::Discovery,
            });
        }

        // Fault-free runs stop at the first successful convergence
        // probe (the paper's metric). With scheduled faults the run
        // keeps going until a probe succeeds *after* the last fault, so
        // graceful degradation (re-convergence time) is observable.
        let last_fault = self.last_fault_slot;
        let max_slots = cfg.sim.max_slots.0;
        if EV {
            self.schedule_initial();
            loop {
                // Acquire the next slot under the current strategy:
                // event-driven windows pop the wheel and skip ahead,
                // stepped windows of an adaptive run materialize every
                // slot (claiming keeps the wheel's clock in lockstep).
                let (s, woke) = if self.live_ev {
                    match self.next_wake(max_slots) {
                        Some(s) => (s, true),
                        None => break,
                    }
                } else {
                    let s = self.synced_next;
                    if s >= max_slots {
                        break;
                    }
                    (s, self.claim_wake(s))
                };
                self.advance_to(s);
                last_slot = s;
                self.fired_this_slot = false;
                let probe = self.slot_body(Slot(s));
                self.synced_next = s + 1;
                if let Some(c) = probe {
                    if convergence.is_none() {
                        convergence = Some(c);
                    }
                    match last_fault {
                        None => break,
                        Some(l) if c > l => {
                            reconvergence = Some(c - l);
                            break;
                        }
                        _ => {}
                    }
                }
                self.post_schedule(s);
                if self.adaptive {
                    self.update_cutover(s, woke);
                }
            }
        } else {
            for s in 0..max_slots {
                last_slot = s;
                let probe = self.slot_body(Slot(s));
                if let Some(c) = probe {
                    if convergence.is_none() {
                        convergence = Some(c);
                    }
                    match last_fault {
                        None => break,
                        Some(l) if c > l => {
                            reconvergence = Some(c - l);
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }

        if S::ENABLED {
            self.sink.event(&TraceEvent::RunEnd {
                slot: last_slot,
                converged: convergence.is_some(),
            });
            self.sink.finish();
        }
        self.rec.stop("engine.run_ns", t_run);
        self.finish(convergence, reconvergence)
    }

    fn finish(self, convergence: Option<u64>, reconvergence: Option<u64>) -> RunOutcome {
        let n = self.devices.len();
        let mut tree_edges: Vec<(DeviceId, DeviceId)> = Vec::new();
        for v in 0..n as DeviceId {
            for &u in &self.tree[v as usize] {
                if v < u {
                    tree_edges.push((v, u));
                }
            }
        }
        tree_edges.sort();
        let discovered_links: u64 = self
            .devices
            .iter()
            .map(|d| d.table.discovered() as u64)
            .sum();
        let service_matches: u64 = self
            .devices
            .iter()
            .map(|d| d.table.service_matches(d.service).count() as u64)
            .sum();
        RunOutcome {
            convergence_time: convergence.map(SlotDuration),
            counters: self.counters,
            tree_edges,
            merge_rounds: self.round,
            discovered_links,
            ground_truth_links: 2 * self.world.proximity_graph().m() as u64,
            service_matches,
            n_devices: n,
            reconvergence_time: reconvergence.map(SlotDuration),
            orphaned_fragments: self.orphaned_fragments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffd2d_graph::tree::is_spanning_tree;

    fn cfg(n: usize, seed: u64) -> ScenarioConfig {
        ScenarioConfig::table1(n)
            .seeded(seed)
            .with_max_slots(SlotDuration(120_000))
    }

    #[test]
    fn small_ideal_world_converges_with_a_spanning_tree() {
        let out = StProtocol::run(&cfg(12, 1).ideal_channel());
        assert!(out.converged(), "{out:?}");
        assert_eq!(out.tree_edges.len(), 11, "tree edges {:?}", out.tree_edges);
        let edges: Vec<ffd2d_graph::Edge> = out
            .tree_edges
            .iter()
            .map(|&(u, v)| ffd2d_graph::Edge::new(u, v, ffd2d_graph::W::new(0.0)))
            .collect();
        assert!(is_spanning_tree(12, &edges));
    }

    #[test]
    fn table1_scenario_converges() {
        let out = StProtocol::run(&cfg(50, 2));
        assert!(out.converged(), "{out:?}");
        assert!(out.merge_rounds >= 1);
        assert!(out.messages() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = StProtocol::run(&cfg(20, 3));
        let b = StProtocol::run(&cfg(20, 3));
        assert_eq!(a, b);
        // A different seed changes the deployment and the whole
        // trajectory; compare full outputs rather than the (slot-
        // quantized, collision-prone) convergence time alone.
        let c = StProtocol::run(&cfg(20, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn tree_matches_sequential_oracle_on_ideal_channel() {
        // With no shadowing/fading, perfect discovery makes the
        // distributed tree equal the sequential Algorithm-1 tree (the
        // unique maximum spanning tree).
        let scenario = cfg(15, 5).ideal_channel();
        let world = World::new(&scenario);
        let out = StProtocol::run_in(&world);
        assert!(out.converged());
        let oracle = crate::reference::build_spanning_tree(world.proximity_graph());
        let oracle_edges: Vec<(DeviceId, DeviceId)> =
            oracle.forest.edges.iter().map(|e| (e.u, e.v)).collect();
        assert_eq!(out.tree_edges, oracle_edges);
    }

    #[test]
    fn discovery_is_nearly_complete() {
        let out = StProtocol::run(&cfg(30, 6));
        assert!(
            out.discovery_completeness() > 0.9,
            "completeness {}",
            out.discovery_completeness()
        );
        assert!(out.service_matches > 0);
    }

    #[test]
    fn two_devices_sync_quickly() {
        let out = StProtocol::run(&cfg(2, 7).ideal_channel());
        assert!(out.converged());
        assert_eq!(out.tree_edges.len(), 1);
    }

    #[test]
    fn message_counts_are_plausible() {
        let out = StProtocol::run(&cfg(40, 8));
        // Fires at least: discovery_periods × n.
        assert!(out.counters.rach1_tx >= 3 * 40);
        // Some merge signalling must have happened.
        assert!(out.counters.rach2_tx > 0, "{:?}", out.counters);
        assert!(out.counters.unicast_tx > 0);
    }
}
