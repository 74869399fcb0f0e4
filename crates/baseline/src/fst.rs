//! The FST mesh firefly protocol.
//!
//! Slot loop identical in structure to the ST engine's sync phase, but
//! with [`CouplingMode::Mesh`] from slot 0 and no tree machinery at all:
//! no convergecasts, no RACH2 handshakes, no fragments. Message cost is
//! therefore pure RACH1 fire traffic — but *convergence* must be won
//! against the full mesh: every firing couples every audible receiver,
//! and as the population grows in the fixed Table-I area, simultaneous
//! fires of partially-synchronized groups collide and the capture
//! margin decides who is heard. This is exactly the scalability wall
//! the paper's Figs. 3–4 report for FST.
//!
//! Like the ST engine, the loop runs in either execution mode of
//! [`EngineMode`]: stepped (every slot materialized) or event-driven (a
//! wake queue of fire slots, staggered-transmission deadlines and
//! convergence probes decides which slots to materialize, and the idle
//! stretches are fast-forwarded). Outcomes are bit-identical either way
//! (`tests/engine_equivalence.rs`).

use rand::Rng;

use ffd2d_chaos::{ChurnEvent, ChurnKind, FaultPlan, FrameFate};
use ffd2d_core::device::{CouplingMode, Device};
use ffd2d_core::outcome::RunOutcome;
use ffd2d_core::scenario::{EngineMode, ScenarioConfig};
use ffd2d_core::world::{FastMedium, World};
use ffd2d_core::NeighborTable;
use ffd2d_osc::prc::Prc;
use ffd2d_osc::predict::{Cursor, TrajectoryCache};
use ffd2d_osc::sync::phase_spread;
use ffd2d_phy::frame::{FrameKind, ProximitySignal};
use ffd2d_radio::units::Dbm;
use ffd2d_sim::counters::Counters;
use ffd2d_sim::deployment::DeviceId;
use ffd2d_sim::event::{DensityWindow, SlotWheel};
use ffd2d_sim::rng::{StreamId, StreamRng};
use ffd2d_sim::time::{Slot, SlotDuration};
use ffd2d_telemetry::{NullRecorder, Recorder};
use ffd2d_trace::{FaultKind, NullSink, ProtoPhase, TraceEvent, TraceSink};

/// Fire transmissions are staggered over this many slots (same value as
/// the ST engine, so the comparison is apples-to-apples).
const FIRE_JITTER: u64 = 8;
const FIRE_RING: usize = 16;
const SYNC_CHECK_INTERVAL: u64 = 16;

/// The mesh firefly baseline.
pub struct FstProtocol;

impl FstProtocol {
    /// Run one trial of the scenario.
    pub fn run(cfg: &ScenarioConfig) -> RunOutcome {
        Self::run_traced(cfg, &mut NullSink)
    }

    /// Run one trial, reporting protocol events to `sink`. Tracing is
    /// strictly observational (no randomness consumed, no state
    /// touched): a traced run's outcome is bit-identical to an untraced
    /// one, and a [`NullSink`] compiles the emission sites out.
    pub fn run_traced<S: TraceSink>(cfg: &ScenarioConfig, sink: &mut S) -> RunOutcome {
        let world = World::new(cfg);
        Self::run_in_traced(&world, sink)
    }

    /// Run one trial in a pre-built world (paired comparisons share the
    /// world with the ST engine).
    pub fn run_in(world: &World) -> RunOutcome {
        Self::run_in_traced(world, &mut NullSink)
    }

    /// [`FstProtocol::run_in`] with protocol-event tracing. The mesh
    /// baseline has no discovery or merge machinery, so the trace is one
    /// long `Sync` phase of fire traffic and oscillator adjustments;
    /// `SlotStats.fragments` stays at `n` (every device is its own
    /// fragment — nothing ever merges).
    ///
    /// An enabled sink consumes per-slot statistics, which requires
    /// materializing every slot — a traced run always executes the
    /// stepped loop, whatever [`ScenarioConfig::engine`] says (same
    /// rule as the ST engine).
    pub fn run_in_traced<S: TraceSink>(world: &World, sink: &mut S) -> RunOutcome {
        Self::run_in_instrumented(world, sink, &mut NullRecorder)
    }

    /// Run one trial with performance telemetry (and no protocol
    /// trace). See [`FstProtocol::run_in_instrumented`].
    pub fn run_instrumented<R: Recorder>(cfg: &ScenarioConfig, rec: &mut R) -> RunOutcome {
        let world = World::new(cfg);
        Self::run_in_instrumented(&world, &mut NullSink, rec)
    }

    /// [`FstProtocol::run_in_traced`] plus a telemetry [`Recorder`].
    /// Telemetry is observational exactly like tracing: it consumes no
    /// randomness and mutates no protocol state, so the outcome is
    /// bit-identical whatever recorder is attached, and a
    /// [`NullRecorder`] compiles every instrumentation site out.
    ///
    /// Engine dispatch keys on the *sink* only (a recorder does not
    /// force the stepped loop): profiling the event-driven calendar
    /// queue is precisely what the recorder is for.
    pub fn run_in_instrumented<S: TraceSink, R: Recorder>(
        world: &World,
        sink: &mut S,
        rec: &mut R,
    ) -> RunOutcome {
        if !S::ENABLED && world.config().engine != EngineMode::Stepped {
            // EventDriven and Adaptive share the wake machinery (see
            // the ST engine's dispatch for the rationale).
            FstEngine::<S, R, true>::new(world, sink, rec).run()
        } else {
            FstEngine::<S, R, false>::new(world, sink, rec).run()
        }
    }
}

/// The mesh slot loop, in either execution mode (`EV` selects the
/// event-driven calendar queue at compile time; see the ST engine for
/// the full design rationale).
struct FstEngine<'w, S: TraceSink, R: Recorder, const EV: bool> {
    world: &'w World,
    sink: &'w mut S,
    /// Performance recorder; every call site is a no-op under
    /// [`NullRecorder`].
    rec: &'w mut R,
    devices: Vec<Device>,
    medium: FastMedium,
    counters: Counters,
    prc: Prc,
    rng: StreamRng,
    fire_queue: Vec<Vec<(DeviceId, u8)>>,
    phases: Vec<f64>,
    /// Reusable per-slot transmission list (no steady-state allocation).
    pending_scratch: Vec<ProximitySignal>,
    tol: f64,
    ground_truth_links: u64,
    // --- Fault injection & churn (dormant when the plan is none) ---
    /// Per-device liveness (all `true` without churn).
    active: Vec<bool>,
    /// Any churn scheduled at all? Gates every liveness check so the
    /// fault-free path stays branch-cheap and bit-identical.
    churned: bool,
    /// Remaining churn events, sorted by slot.
    churn_events: Vec<ChurnEvent>,
    /// Index of the next unapplied churn event.
    next_churn: usize,
    /// Devices whose oscillator period differs from nominal (clock
    /// skew): they cannot use the shared trajectory cache.
    skewed: Vec<bool>,
    /// Key for the stateless frame-fate draws.
    chaos_key: u64,
    /// Slot of the last scheduled fault, if any — the re-convergence
    /// reference point.
    last_fault_slot: Option<u64>,
    // --- Event-driven machinery (dormant when `EV` is false) ---
    /// Candidate wake-up slots (bare slot numbers, coalesced per slot
    /// by the two-tier wheel; spurious entries are harmless).
    wake: SlotWheel,
    /// All slots `< synced_next` are fully processed.
    synced_next: u64,
    /// May the run cut between strategies ([`EngineMode::Adaptive`])?
    adaptive: bool,
    /// Current strategy: `true` ⇒ event-driven windows, `false` ⇒
    /// stepped windows (wake bookkeeping kept, cursor/touched
    /// maintenance shed).
    live_ev: bool,
    /// Sliding-window wake density driving the cutover (adaptive only).
    density: DensityWindow,
    /// Did any oscillator fire naturally in the current slot?
    fired_this_slot: bool,
    /// Devices whose phase may have changed this slot.
    touched: Vec<DeviceId>,
    /// Per-device memoized-trajectory position (`None` ⇒ literal ticks).
    ///
    /// Mesh coupling nudges most phases off the canonical reset values
    /// (every heard pulse applies the PRC), so FST leans on the literal
    /// fallback far more than ST does — the event win here comes mostly
    /// from skipping whole slots, not from O(1) warps.
    cursors: Vec<Option<Cursor>>,
    traj: TrajectoryCache,
}

impl<'w, S: TraceSink, R: Recorder, const EV: bool> FstEngine<'w, S, R, EV> {
    fn new(world: &'w World, sink: &'w mut S, rec: &'w mut R) -> Self {
        let cfg = world.config();
        let n = world.n();
        let seed = cfg.sim.seed;
        let faults = &cfg.faults;
        let churn_events = faults.sorted_churn();
        let skewed: Vec<bool> = (0..n as DeviceId)
            .map(|id| faults.period_for(id, cfg.protocol.period_slots) != cfg.protocol.period_slots)
            .collect();
        let mut phase_rng = StreamRng::new(seed, 0, StreamId::Phases);
        let devices: Vec<Device> = (0..n as DeviceId)
            .map(|id| {
                let mut d = Device::new(
                    id,
                    phase_rng.gen_range(0.0..1.0),
                    faults.period_for(id, cfg.protocol.period_slots),
                    cfg.protocol.refractory_slots,
                    world.services()[id as usize],
                );
                d.coupling = CouplingMode::Mesh;
                d
            })
            .collect();
        FstEngine {
            world,
            sink,
            rec,
            devices,
            medium: FastMedium::new(n),
            counters: Counters::new(),
            prc: Prc::from_dissipation(cfg.protocol.dissipation, cfg.protocol.coupling),
            rng: StreamRng::new(seed, 0, StreamId::Protocol),
            fire_queue: vec![Vec::new(); FIRE_RING],
            phases: Vec::with_capacity(n),
            pending_scratch: Vec::new(),
            tol: 1.0 / cfg.protocol.period_slots as f64 + 1e-12,
            ground_truth_links: 0,
            active: faults.initial_active(n),
            churned: !churn_events.is_empty(),
            churn_events,
            next_churn: 0,
            skewed,
            chaos_key: FaultPlan::chaos_key(seed),
            last_fault_slot: faults.last_fault_slot(),
            wake: SlotWheel::new(),
            synced_next: 0,
            adaptive: cfg.engine == EngineMode::Adaptive,
            live_ev: true,
            density: DensityWindow::new(DensityWindow::DEFAULT_WINDOW),
            fired_this_slot: false,
            touched: Vec::new(),
            cursors: vec![None; n],
            traj: TrajectoryCache::new(cfg.protocol.period_slots),
        }
    }

    /// Apply every churn event scheduled for a slot `<= slot`. The mesh
    /// has no tree state, so a leave just silences the device and a
    /// join brings it back with a fresh neighbour table; the full-mesh
    /// coupling re-entrains it without any protocol machinery.
    fn apply_churn(&mut self, slot: Slot) {
        let mut churned: Vec<DeviceId> = Vec::new();
        while self.next_churn < self.churn_events.len()
            && self.churn_events[self.next_churn].slot <= slot.0
        {
            let ev = self.churn_events[self.next_churn];
            self.next_churn += 1;
            churned.push(ev.device);
            self.rec.add("chaos.churn_events", 1);
            let d = ev.device as usize;
            match ev.kind {
                ChurnKind::Leave => {
                    if !self.active[d] {
                        continue;
                    }
                    self.active[d] = false;
                    if S::ENABLED {
                        self.sink.event(&TraceEvent::DeviceLeft {
                            slot: slot.0,
                            device: ev.device,
                            orphaned: 0,
                        });
                    }
                }
                ChurnKind::Join => {
                    if self.active[d] {
                        continue;
                    }
                    self.active[d] = true;
                    self.devices[d].table = NeighborTable::new();
                    if EV && self.live_ev {
                        // Stepped windows tick every slot and the
                        // cutover reseed re-predicts the population.
                        self.touched.push(ev.device);
                    }
                    if S::ENABLED {
                        self.sink.event(&TraceEvent::DeviceJoined {
                            slot: slot.0,
                            device: ev.device,
                        });
                    }
                }
            }
        }
        if !churned.is_empty() {
            // Population changed: stale exactly the churned devices'
            // link-state cache rows; everyone else's stay hot.
            self.medium.note_churn_of(&churned);
        }
    }

    /// One materialized slot, under a scoped timer when a recorder
    /// listens. The mesh has no protocol phases, so every slot bills to
    /// the single `engine.slot.sync` key.
    fn slot_body(&mut self, slot: Slot) -> Option<u64> {
        if !R::ENABLED {
            return self.slot_body_inner(slot);
        }
        let t_slot = self.rec.start();
        let probe = self.slot_body_inner(slot);
        self.rec.add("engine.slots_materialized", 1);
        self.rec.stop("engine.slot.sync", t_slot);
        probe
    }

    /// One materialized slot — the body shared by both loops. Returns
    /// `Some(slot)` on convergence.
    fn slot_body_inner(&mut self, slot: Slot) -> Option<u64> {
        let world = self.world;
        let pathloss = world.channel_config().pathloss;
        let tx_power = world.channel_config().tx_power;
        let n = self.devices.len();
        let s = slot.0;

        // Scheduled churn fires before anything else in the slot.
        if self.next_churn < self.churn_events.len() {
            self.apply_churn(slot);
        }

        // Tick and stagger natural fires. Cursor/touched maintenance
        // only pays off when skip-ahead will use it — stepped windows
        // of an adaptive run shed it (and reseed at the next cutover).
        for i in 0..n {
            if self.churned && !self.active[i] {
                continue; // departed devices are frozen
            }
            if self.devices[i].osc.tick() {
                let j = self.rng.gen_range(0..FIRE_JITTER);
                self.fire_queue[(s + j) as usize % FIRE_RING].push((i as DeviceId, j as u8));
                if EV {
                    self.fired_this_slot = true;
                    if self.live_ev {
                        self.touched.push(i as DeviceId);
                    }
                    if j > 0 {
                        // The staggered transmission lands in a future
                        // slot, which must be materialized for the ring
                        // take below to find it.
                        self.push_wake(s + j);
                    }
                }
            } else if EV && self.live_ev {
                self.cursors[i] = self.cursors[i].map(Cursor::next);
            }
        }
        let ring_at = s as usize % FIRE_RING;
        let mut due = core::mem::take(&mut self.fire_queue[ring_at]);
        if !due.is_empty() {
            // The transmission list is reusable scratch, taken and
            // returned with its capacity intact.
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
                        kind: FrameKind::Fire { fragment: id, age },
                    }),
            );
            let mut absorbed: Vec<(DeviceId, u8)> = Vec::new();
            let mut fault_drops = 0u64;
            let mut fault_dups = 0u64;
            {
                let faults = &world.config().faults;
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
                    world,
                    slot,
                    &pending,
                    active_mask,
                    &mut self.counters,
                    &mut *self.sink,
                    &mut *self.rec,
                    |receiver, sig, rx_dbm, sink| {
                        // Frame faults at the engine boundary, after the
                        // decode decision — same placement and keyed
                        // draw as the ST engine, so fates are identical
                        // for identical (slot, sender, receiver).
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
                            if let FrameKind::Fire { fragment, age } = sig.kind {
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
            for (id, age) in absorbed {
                let j = self.rng.gen_range(1..FIRE_JITTER);
                self.fire_queue[(s + j) as usize % FIRE_RING]
                    .push((id, age.saturating_add(j as u8)));
                if EV {
                    self.push_wake(s + j);
                }
            }
            self.pending_scratch = pending;
        }
        due.clear();
        self.fire_queue[ring_at] = due;

        // Per-slot population summary (tracing only). Departed devices
        // are off the air and excluded from the spread, as in ST.
        if S::ENABLED {
            self.gather_active_phases();
            let discovered: u64 = self
                .devices
                .iter()
                .map(|d| d.table.discovered() as u64)
                .sum();
            let spread = phase_spread(&self.phases);
            self.sink.event(&TraceEvent::SlotStats {
                slot: s,
                fragments: n as u32,
                phase_spread: spread,
                discovered_links: discovered,
                ground_truth_links: self.ground_truth_links,
            });
        }

        if s.is_multiple_of(SYNC_CHECK_INTERVAL) && n > 0 {
            self.gather_active_phases();
            if phase_spread(&self.phases) <= self.tol {
                if S::ENABLED {
                    self.sink.event(&TraceEvent::Converged { slot: s });
                }
                return Some(s);
            }
        }
        None
    }

    /// Phases of the live population, into the reusable scratch.
    fn gather_active_phases(&mut self) {
        self.phases.clear();
        let (churned, active) = (self.churned, &self.active);
        self.phases.extend(
            self.devices
                .iter()
                .enumerate()
                .filter(|(i, _)| !churned || active[*i])
                .map(|(_, d)| d.osc.phase()),
        );
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

    /// Seed the wake queue: slot 0 (its body runs the unconditional
    /// `s % 16 == 0` convergence probe) plus every device's first
    /// natural fire (`k` ticks to fire ⇒ fires in slot `k - 1`).
    fn schedule_initial(&mut self) {
        self.push_wake(0);
        for i in 0..self.devices.len() {
            let k = u64::from(self.devices[i].osc.ticks_to_next_fire());
            self.push_wake(k - 1);
        }
        // Churn slots must materialize (joins/leaves happen at the top
        // of the slot body).
        for i in 0..self.churn_events.len() {
            let at = self.churn_events[i].slot;
            self.push_wake(at);
        }
    }

    /// Pop the next slot to materialize (see the ST engine — the wheel
    /// already coalesced duplicates, so pops are distinct and strictly
    /// increasing).
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

    /// Stepped-window counterpart of [`next_wake`](FstEngine::
    /// next_wake): consume the wheel entry (if any) at exactly slot
    /// `s`, keeping the wheel's clock in lockstep.
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

    /// Feed the density tracker after materializing slot `s` and apply
    /// the execution-strategy cutover it decides (adaptive mode only).
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

    /// Entering an event-driven window from a stepped one: drop every
    /// cursor back to the literal-ticking fallback and re-predict each
    /// live oscillator's next fire (probe and jitter wakes kept flowing
    /// into the wheel throughout the stepped window).
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

    /// Fast-forward every device through the skipped (pure-tick) slots
    /// `[synced_next, s)`.
    fn advance_to(&mut self, s: u64) {
        let ticks = s - self.synced_next;
        if ticks == 0 {
            return;
        }
        let mut warps = 0u64;
        let mut literal = 0u64;
        for i in 0..self.devices.len() {
            // Departed devices are frozen, exactly as in the stepped
            // loop's tick skip.
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

    /// Re-arm the wake queue after materializing slot `s`: re-predict
    /// fires of phase-changed devices and chain the next convergence
    /// probe on the `SYNC_CHECK_INTERVAL` grid.
    fn post_schedule(&mut self, s: u64) {
        while let Some(v) = self.touched.pop() {
            let phase = self.devices[v as usize].osc.phase();
            // Clock-skewed devices cannot use the nominal-period
            // trajectory cache; they tick literally.
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
        self.push_wake(s + (SYNC_CHECK_INTERVAL - s % SYNC_CHECK_INTERVAL));
    }

    fn run(mut self) -> RunOutcome {
        let t_run = self.rec.start();
        let world = self.world;
        let n = self.devices.len();
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
                phase: ProtoPhase::Sync,
            });
        }

        // As in the ST engine: fault-free runs stop at the first
        // successful probe; faulted runs continue until a probe succeeds
        // after the last scheduled fault.
        let last_fault = self.last_fault_slot;
        let max_slots = world.config().sim.max_slots.0;
        if EV {
            self.schedule_initial();
            loop {
                // Acquire the next slot under the current strategy
                // (see the ST engine's loop for the rationale).
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
            tree_edges: Vec::new(),
            merge_rounds: 0,
            discovered_links,
            ground_truth_links: 2 * world.proximity_graph().m() as u64,
            service_matches,
            n_devices: n,
            reconvergence_time: reconvergence.map(SlotDuration),
            // The mesh holds no tree, so leaves never orphan fragments.
            orphaned_fragments: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffd2d_core::StProtocol;

    fn cfg(n: usize, seed: u64) -> ScenarioConfig {
        ScenarioConfig::table1(n)
            .seeded(seed)
            .with_max_slots(SlotDuration(120_000))
    }

    #[test]
    fn small_mesh_converges() {
        let out = FstProtocol::run(&cfg(10, 1).ideal_channel());
        assert!(out.converged(), "{out:?}");
        assert!(out.tree_edges.is_empty());
        assert_eq!(out.merge_rounds, 0);
    }

    #[test]
    fn table1_scenario_converges() {
        let out = FstProtocol::run(&cfg(50, 2));
        assert!(out.converged(), "{out:?}");
    }

    #[test]
    fn messages_are_pure_fire_traffic() {
        let out = FstProtocol::run(&cfg(20, 3));
        assert_eq!(out.counters.rach2_tx, 0);
        assert_eq!(out.counters.unicast_tx, 0);
        assert!(out.counters.rach1_tx > 0);
        assert_eq!(out.messages(), out.counters.rach1_tx);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FstProtocol::run(&cfg(15, 4));
        let b = FstProtocol::run(&cfg(15, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn engine_modes_agree() {
        for seed in [1, 4, 9] {
            let stepped = FstProtocol::run(&cfg(25, seed).with_engine(EngineMode::Stepped));
            let event = FstProtocol::run(&cfg(25, seed).with_engine(EngineMode::EventDriven));
            assert_eq!(stepped, event, "seed {seed}");
        }
    }

    #[test]
    fn discovery_is_passive_and_bounded_by_convergence() {
        // FST discovers only while it runs: the mesh often synchronizes
        // within a few periods, so passive discovery stays partial —
        // one of the trade-offs the ST method's explicit discovery
        // phase avoids.
        let out = FstProtocol::run(&cfg(30, 5));
        let c = out.discovery_completeness();
        assert!(c > 0.3, "completeness {c}");
        assert!(out.service_matches > 0);
    }

    #[test]
    fn fst_beats_st_on_messages_at_small_n() {
        // Fig. 4's left side: below the crossover the tree machinery
        // costs more messages than plain mesh firing.
        let scenario = cfg(20, 6);
        let world = World::new(&scenario);
        let fst = FstProtocol::run_in(&world);
        let st = StProtocol::run_in(&world);
        assert!(fst.converged() && st.converged());
        assert!(
            fst.messages() < st.messages(),
            "fst {} vs st {}",
            fst.messages(),
            st.messages()
        );
    }
}
