//! Shared-medium delivery with collisions and capture.
//!
//! Per slot, the medium takes every transmission attempted in that slot
//! and decides, for every potential receiver, what decodes:
//!
//! * transmissions on **different codecs** never interfere (orthogonal
//!   Zadoff–Chu roots, §III's OFDMA argument — validated quantitatively
//!   in [`crate::zadoffchu`]);
//! * within one codec, a receiver hearing **exactly one**
//!   above-threshold transmission decodes it;
//! * hearing **several**, the strongest decodes only if it beats the
//!   next strongest by at least the configured **capture margin**
//!   (physical capture effect); otherwise all collide;
//! * a transmitting device is deaf in its own slot (half-duplex) and
//!   never receives its own signal.
//!
//! The resolver also tallies [`Counters`] so experiments can attribute
//! losses (Fig. 4's message accounting and the collision ablations).

use ffd2d_sim::counters::Counters;
use ffd2d_sim::deployment::DeviceId;
use ffd2d_sim::time::Slot;
use ffd2d_telemetry::{NullRecorder, Recorder};
use ffd2d_trace::{NullSink, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

use crate::codec::RachCodec;
use crate::frame::ProximitySignal;
use ffd2d_radio::channel::Channel;
use ffd2d_radio::units::Db;

/// One transmission attempt within a slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transmission {
    /// The signal on the air (sender, codec, payload).
    pub signal: ProximitySignal,
}

impl Transmission {
    /// Convenience constructor.
    pub fn new(signal: ProximitySignal) -> Transmission {
        Transmission { signal }
    }

    /// Transmitting device.
    #[inline]
    pub fn sender(&self) -> DeviceId {
        self.signal.sender
    }

    /// Codec in use.
    #[inline]
    pub fn codec(&self) -> RachCodec {
        self.signal.codec()
    }
}

/// What one receiver decoded in one slot.
#[derive(Debug, Clone, Default)]
pub struct DeliveryReport {
    /// Successfully decoded signals (at most one per codec).
    pub decoded: Vec<ProximitySignal>,
}

/// Medium configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MediumConfig {
    /// Capture margin: the strongest same-codec signal decodes if it
    /// exceeds the runner-up by at least this many dB.
    pub capture_margin: Db,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            // 6 dB is a conventional preamble capture threshold.
            capture_margin: Db(6.0),
        }
    }
}

/// The per-slot shared-medium resolver. It is the serial oracle the
/// fast medium in `ffd2d-core` is checked against, so it walks every
/// `(transmission, receiver)` pair on the calling thread.
#[derive(Debug, Clone)]
pub struct Medium {
    config: MediumConfig,
}

impl Default for Medium {
    fn default() -> Self {
        Medium::new(MediumConfig::default())
    }
}

/// Per-slot precomputation shared by every receiver: the
/// transmitting-sender set and the per-codec transmission lists, each
/// built once instead of re-derived per receiver.
struct PreparedSlot {
    slot: Slot,
    /// Senders transmitting this slot, sorted for membership tests.
    senders: Vec<DeviceId>,
    /// Transmissions partitioned by codec (indexed like
    /// [`RachCodec::ALL`]), submission order preserved within a codec —
    /// the same order the old per-receiver filter visited them in.
    by_codec: [Vec<Transmission>; 2],
    /// Sender ids parallel to `by_codec`, so the per-receiver loop can
    /// hand a whole codec's senders to the batched mean-gain kernel
    /// ([`Channel::mean_rx_power_batch`]) in one call.
    senders_by_codec: [Vec<DeviceId>; 2],
}

impl PreparedSlot {
    fn new(slot: Slot, transmissions: &[Transmission]) -> PreparedSlot {
        let mut senders: Vec<DeviceId> = transmissions.iter().map(|t| t.sender()).collect();
        senders.sort_unstable();
        let mut by_codec: [Vec<Transmission>; 2] = [Vec::new(), Vec::new()];
        let mut senders_by_codec: [Vec<DeviceId>; 2] = [Vec::new(), Vec::new()];
        for &tx in transmissions {
            // Indexing follows `RachCodec::ALL` order; a match can't miss
            // a codec, so no fallible lookup in the per-slot hot path.
            let ci = match tx.codec() {
                RachCodec::Rach1 => 0,
                RachCodec::Rach2 => 1,
            };
            by_codec[ci].push(tx);
            senders_by_codec[ci].push(tx.sender());
        }
        PreparedSlot {
            slot,
            senders,
            by_codec,
            senders_by_codec,
        }
    }
}

impl Medium {
    /// A medium with the given configuration.
    pub fn new(config: MediumConfig) -> Medium {
        Medium { config }
    }

    /// Resolve one slot.
    ///
    /// `transmissions` are this slot's attempts; `receivers` is the set
    /// of listening devices (typically all devices). Returns one
    /// [`DeliveryReport`] per receiver, index-aligned with `receivers`,
    /// and tallies transmissions/receptions into `counters`.
    pub fn resolve(
        &self,
        channel: &Channel<'_>,
        slot: Slot,
        transmissions: &[Transmission],
        receivers: &[DeviceId],
        counters: &mut Counters,
    ) -> Vec<DeliveryReport> {
        self.resolve_traced(
            channel,
            slot,
            transmissions,
            receivers,
            counters,
            &mut NullSink,
        )
    }

    /// [`Medium::resolve`] with per-event tracing: every transmission,
    /// decode and collision is reported to `sink`, plus one aggregate
    /// below-threshold count per slot. With a disabled sink this
    /// monomorphizes to exactly the untraced resolver.
    pub fn resolve_traced<S: TraceSink>(
        &self,
        channel: &Channel<'_>,
        slot: Slot,
        transmissions: &[Transmission],
        receivers: &[DeviceId],
        counters: &mut Counters,
        sink: &mut S,
    ) -> Vec<DeliveryReport> {
        self.resolve_instrumented(
            channel,
            slot,
            transmissions,
            receivers,
            counters,
            sink,
            &mut NullRecorder,
        )
    }

    /// [`Medium::resolve_traced`] plus a telemetry [`Recorder`]: the
    /// resolver times itself and counts work (transmissions, tx×rx
    /// pairs, always one worker). Telemetry reads the clock but never the channel or any
    /// RNG, so reports, counters and trace bytes are bit-identical
    /// whatever recorder is attached; a [`NullRecorder`] compiles every
    /// site out, leaving exactly the untraced resolver.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_instrumented<S: TraceSink, R: Recorder>(
        &self,
        channel: &Channel<'_>,
        slot: Slot,
        transmissions: &[Transmission],
        receivers: &[DeviceId],
        counters: &mut Counters,
        sink: &mut S,
        rec: &mut R,
    ) -> Vec<DeliveryReport> {
        if transmissions.is_empty() {
            // Nothing on the air: every report is empty, no counter
            // moves and no channel sample is drawn. The early-out turns
            // an idle slot from an O(receivers) scan over nothing into
            // O(1) (the fast resolver in ffd2d-core has the same
            // shortcut), which is what both engine modes lean on for
            // idle slots.
            return vec![DeliveryReport::default(); receivers.len()];
        }
        let t_resolve = rec.start();
        // Tally transmissions by codec.
        for tx in transmissions {
            match tx.codec() {
                RachCodec::Rach1 => counters.add_rach1_tx(1),
                RachCodec::Rach2 => counters.add_rach2_tx(1),
            }
            if S::ENABLED {
                sink.event(&TraceEvent::Tx {
                    slot: slot.0,
                    sender: tx.sender(),
                    codec: tx.codec().trace_codec(),
                    kind: tx.signal.kind.trace_label(),
                });
            }
        }

        let prepared = PreparedSlot::new(slot, transmissions);
        let before = counters.rx_below_threshold;
        let mut reports: Vec<DeliveryReport> = Vec::with_capacity(receivers.len());
        self.resolve_receivers(channel, &prepared, receivers, counters, &mut reports, sink);
        let below_threshold = counters.rx_below_threshold - before;

        if S::ENABLED && below_threshold > 0 {
            sink.event(&TraceEvent::RxBelowThreshold {
                slot: slot.0,
                count: below_threshold,
            });
        }
        if R::ENABLED {
            rec.add("medium.slots_resolved", 1);
            rec.add("medium.transmissions", transmissions.len() as u64);
            rec.observe(
                "medium.pairs_per_slot",
                transmissions.len() as u64 * receivers.len() as u64,
            );
            rec.observe("medium.workers_per_slot", 1);
            rec.stop("medium.resolve_ns", t_resolve);
        }
        reports
    }

    /// The per-receiver decode loop: appends one report per receiver and
    /// tallies receptions (including `rx_below_threshold`; the caller
    /// emits the per-slot aggregate event).
    fn resolve_receivers<S: TraceSink>(
        &self,
        channel: &Channel<'_>,
        prepared: &PreparedSlot,
        receivers: &[DeviceId],
        counters: &mut Counters,
        reports: &mut Vec<DeliveryReport>,
        sink: &mut S,
    ) {
        let slot = prepared.slot;
        let threshold = channel.config().detection_threshold;
        // Scratch: audible same-codec signals at the current receiver,
        // and the batched mean link gains feeding them.
        let mut audible: Vec<(f64, &Transmission)> = Vec::new();
        let mut means: Vec<f64> = Vec::new();
        for &rx in receivers {
            let mut report = DeliveryReport::default();
            if prepared.senders.binary_search(&rx).is_ok() {
                // Half-duplex: a transmitting device hears nothing.
                reports.push(report);
                continue;
            }
            for (ci, codec) in RachCodec::ALL.into_iter().enumerate() {
                audible.clear();
                // Mean gains for the whole codec batch in one kernel
                // pass (symmetric, so rx-side batching matches the
                // tx→rx facade bit for bit); fading — the only per-slot
                // term — is then added per transmission, which is
                // exactly `channel.sample` split in two.
                means.clear();
                channel.mean_rx_power_batch(rx, &prepared.senders_by_codec[ci], &mut means);
                for (tx, &mean) in prepared.by_codec[ci].iter().zip(&means) {
                    let rx_power = channel.rx_power_from_mean(mean, tx.sender(), rx, slot);
                    if rx_power >= threshold {
                        audible.push((rx_power.get(), tx));
                    } else {
                        counters.add_rx_below_threshold(1);
                    }
                }
                match audible.len() {
                    0 => {}
                    1 => {
                        counters.add_rx_ok(1);
                        if S::ENABLED {
                            sink.event(&TraceEvent::RxDecode {
                                slot: slot.0,
                                receiver: rx,
                                sender: audible[0].1.sender(),
                                codec: codec.trace_codec(),
                                rx_dbm: audible[0].0,
                            });
                        }
                        report.decoded.push(audible[0].1.signal);
                    }
                    _ => {
                        // Capture check: strongest vs runner-up.
                        // `unwrap_or(Equal)` is unreachable (powers are
                        // finite dBm, never NaN) and, when both compare
                        // paths exist, bit-identical to the panicking
                        // sort for every non-NaN input.
                        audible.sort_by(|a, b| {
                            b.0.partial_cmp(&a.0).unwrap_or(core::cmp::Ordering::Equal)
                        });
                        let margin = audible[0].0 - audible[1].0;
                        if margin >= self.config.capture_margin.get() {
                            counters.add_rx_ok(1);
                            counters.add_rx_collision((audible.len() - 1) as u64);
                            if S::ENABLED {
                                sink.event(&TraceEvent::RxDecode {
                                    slot: slot.0,
                                    receiver: rx,
                                    sender: audible[0].1.sender(),
                                    codec: codec.trace_codec(),
                                    rx_dbm: audible[0].0,
                                });
                                sink.event(&TraceEvent::RxCollision {
                                    slot: slot.0,
                                    receiver: rx,
                                    codec: codec.trace_codec(),
                                    signals: (audible.len() - 1) as u32,
                                });
                            }
                            report.decoded.push(audible[0].1.signal);
                        } else {
                            counters.add_rx_collision(audible.len() as u64);
                            if S::ENABLED {
                                sink.event(&TraceEvent::RxCollision {
                                    slot: slot.0,
                                    receiver: rx,
                                    codec: codec.trace_codec(),
                                    signals: audible.len() as u32,
                                });
                            }
                        }
                    }
                }
            }
            reports.push(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ServiceClass;
    use crate::frame::FrameKind;
    use ffd2d_radio::channel::ChannelConfig;
    use ffd2d_sim::deployment::{Deployment, Meters, Position};

    fn line_deployment(xs: &[f64]) -> Deployment {
        Deployment::from_positions(
            xs.iter().map(|&x| Position::new(x, 0.0)).collect(),
            Meters(1000.0),
            Meters(1000.0),
        )
    }

    fn fire(sender: u32) -> Transmission {
        Transmission::new(ProximitySignal {
            sender,
            service: ServiceClass::KEEP_ALIVE,
            kind: FrameKind::Fire {
                fragment: sender,
                age: 0,
            },
        })
    }

    fn hconnect(sender: u32, to: u32) -> Transmission {
        Transmission::new(ProximitySignal {
            sender,
            service: ServiceClass::KEEP_ALIVE,
            kind: FrameKind::HConnect {
                to,
                fragment: sender,
                fragment_size: 1,
                head: sender,
            },
        })
    }

    #[test]
    fn single_transmission_decodes_everywhere_in_range() {
        let dep = line_deployment(&[0.0, 10.0, 50.0, 500.0]);
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(0)], &[0, 1, 2, 3], &mut counters);
        assert!(reports[0].decoded.is_empty(), "sender hears nothing");
        assert_eq!(reports[1].decoded.len(), 1);
        assert_eq!(reports[2].decoded.len(), 1);
        assert!(reports[3].decoded.is_empty(), "out of range");
        assert_eq!(counters.rach1_tx, 1);
        assert_eq!(counters.rx_ok, 2);
        assert_eq!(counters.rx_below_threshold, 1);
    }

    #[test]
    fn equidistant_same_codec_transmitters_collide() {
        // Receiver 1 sits exactly between 0 and 2: equal power, margin 0.
        let dep = line_deployment(&[0.0, 20.0, 40.0]);
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(0), fire(2)], &[1], &mut counters);
        assert!(reports[0].decoded.is_empty());
        assert_eq!(counters.rx_collision, 2);
        assert_eq!(counters.rx_ok, 0);
    }

    #[test]
    fn capture_effect_rescues_strong_signal() {
        // Receiver at x=10: tx 0 at distance 10, tx 2 at distance 80 —
        // power gap far exceeds 6 dB, so 0 captures.
        let dep = line_deployment(&[0.0, 10.0, 90.0]);
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(0), fire(2)], &[1], &mut counters);
        assert_eq!(reports[0].decoded.len(), 1);
        assert_eq!(reports[0].decoded[0].sender, 0);
        assert_eq!(counters.rx_ok, 1);
        assert_eq!(counters.rx_collision, 1);
    }

    #[test]
    fn different_codecs_are_orthogonal() {
        // Same slot, same receiver: one RACH1 fire and one RACH2
        // handshake both decode.
        let dep = line_deployment(&[0.0, 20.0, 40.0]);
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(
            &ch,
            Slot(0),
            &[fire(0), hconnect(2, 1)],
            &[1],
            &mut counters,
        );
        assert_eq!(reports[0].decoded.len(), 2);
        assert_eq!(counters.rach1_tx, 1);
        assert_eq!(counters.rach2_tx, 1);
        assert_eq!(counters.rx_ok, 2);
    }

    #[test]
    fn half_duplex_sender_misses_concurrent_signal() {
        let dep = line_deployment(&[0.0, 20.0]);
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(0), fire(1)], &[0, 1], &mut counters);
        assert!(reports[0].decoded.is_empty());
        assert!(reports[1].decoded.is_empty());
    }

    #[test]
    fn empty_slot_produces_empty_reports() {
        let dep = line_deployment(&[0.0, 20.0]);
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[], &[0, 1], &mut counters);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.decoded.is_empty()));
        assert_eq!(counters.total_tx(), 0);
    }

    #[test]
    fn reports_align_with_receiver_order() {
        let dep = line_deployment(&[0.0, 20.0, 40.0]);
        let ch = Channel::new(&dep, ChannelConfig::ideal(), 1);
        let medium = Medium::default();
        let mut counters = Counters::new();
        let reports = medium.resolve(&ch, Slot(0), &[fire(1)], &[2, 0], &mut counters);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].decoded[0].sender, 1);
        assert_eq!(reports[1].decoded[0].sender, 1);
    }
}
