//! Per-device neighbour tables — simultaneous neighbour & service
//! discovery.
//!
//! Every proximity signal a device decodes teaches it four things at
//! once (this is the paper's "neighbour discovery and service discovery
//! simultaneously"):
//!
//! * the sender exists and is audible (**neighbour discovery**);
//! * the received power, smoothed over observations, is the link's PS
//!   strength — the spanning-tree **edge weight** of §IV;
//! * inverting the path-loss model over that power yields an **RSSI
//!   distance estimate** (eqs. (6)–(12)) — the ranging contribution;
//! * the preamble's service class reveals the sender's **application
//!   interest**, and the payload its current **fragment**.
//!
//! [`NeighborTable`] is the per-device store of those facts. Weights are
//! EWMA-smoothed: a single deep fade must not permanently misrank an
//! edge, but the table must also track fragment ids promptly.

use serde::{Deserialize, Serialize};

use ffd2d_phy::codec::ServiceClass;
use ffd2d_radio::pathloss::PathLoss;
use ffd2d_radio::rssi::RangingEstimate;
use ffd2d_radio::units::Dbm;
use ffd2d_sim::deployment::{DeviceId, Meters};
use ffd2d_sim::time::Slot;

/// EWMA smoothing factor for PS-strength estimates.
const WEIGHT_EWMA_ALPHA: f64 = 0.25;

/// Everything a device knows about one neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeighborInfo {
    /// Smoothed PS strength in dBm (the §IV edge weight).
    pub weight_dbm: f64,
    /// Latest RSSI distance estimate.
    pub est_distance: Meters,
    /// Advertised service interest.
    pub service: ServiceClass,
    /// Sender's fragment at last contact.
    pub fragment: DeviceId,
    /// Slot of the last decoded PS.
    pub last_heard: Slot,
    /// Number of PSs decoded from this neighbour.
    pub samples: u32,
}

/// One device's view of its neighbourhood.
///
/// Only discovered neighbours are stored, as two parallel vectors kept
/// sorted by id: memory is O(discovered), not O(n), and iteration runs
/// in ascending id order, so every scan is deterministic.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NeighborTable {
    ids: Vec<DeviceId>,
    infos: Vec<NeighborInfo>,
}

impl NeighborTable {
    /// An empty table.
    pub fn new() -> NeighborTable {
        NeighborTable::default()
    }

    /// Number of distinct neighbours discovered.
    #[inline]
    pub fn discovered(&self) -> u32 {
        self.ids.len() as u32
    }

    /// Look up a neighbour.
    #[inline]
    pub fn get(&self, id: DeviceId) -> Option<&NeighborInfo> {
        self.ids.binary_search(&id).ok().map(|i| &self.infos[i])
    }

    /// Record a decoded firing PS.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_fire(
        &mut self,
        sender: DeviceId,
        rx_power: Dbm,
        service: ServiceClass,
        fragment: DeviceId,
        slot: Slot,
        pathloss: &PathLoss,
        tx_power: Dbm,
    ) {
        let est = RangingEstimate::from_rx(tx_power, rx_power, pathloss);
        match self.ids.binary_search(&sender) {
            Ok(i) => {
                let info = &mut self.infos[i];
                info.weight_dbm = info.weight_dbm * (1.0 - WEIGHT_EWMA_ALPHA)
                    + rx_power.get() * WEIGHT_EWMA_ALPHA;
                info.est_distance = est.distance;
                info.service = service;
                info.fragment = fragment;
                info.last_heard = slot;
                info.samples += 1;
            }
            Err(i) => {
                self.ids.insert(i, sender);
                self.infos.insert(
                    i,
                    NeighborInfo {
                        weight_dbm: rx_power.get(),
                        est_distance: est.distance,
                        service,
                        fragment,
                        last_heard: slot,
                        samples: 1,
                    },
                );
            }
        }
    }

    /// Update only the fragment label of a known neighbour (learned from
    /// merge traffic rather than a fire).
    pub fn update_fragment(&mut self, sender: DeviceId, fragment: DeviceId) {
        if let Ok(i) = self.ids.binary_search(&sender) {
            self.infos[i].fragment = fragment;
        }
    }

    /// The heaviest known edge toward a neighbour *outside* fragment
    /// `my_fragment` — the per-node half of Algorithm 2's
    /// "highest weighted edge ∉ S_v adjacent to v". Ties break toward
    /// the smaller neighbour id, deterministically.
    pub fn best_outgoing(&self, my_fragment: DeviceId) -> Option<(DeviceId, f64)> {
        self.best_outgoing_fresh(my_fragment, Slot(u64::MAX), u64::MAX)
    }

    /// Like [`NeighborTable::best_outgoing`], but only trusts entries
    /// heard within `max_age_slots` of `now`: a fragment label that has
    /// not been refreshed recently may be stale (the neighbour merged
    /// elsewhere), and proposing it would waste a merge round on a void
    /// handshake.
    pub fn best_outgoing_fresh(
        &self,
        my_fragment: DeviceId,
        now: Slot,
        max_age_slots: u64,
    ) -> Option<(DeviceId, f64)> {
        let cutoff = now.0.saturating_sub(max_age_slots);
        let mut best: Option<(DeviceId, f64)> = None;
        for (id, info) in self.iter() {
            if info.fragment == my_fragment || info.last_heard.0 < cutoff {
                continue;
            }
            let candidate = (id, info.weight_dbm);
            best = Some(match best {
                None => candidate,
                Some(cur) => {
                    if candidate.1 > cur.1 || (candidate.1 == cur.1 && candidate.0 < cur.0) {
                        candidate
                    } else {
                        cur
                    }
                }
            });
        }
        best
    }

    /// Ids of discovered neighbours sharing service `mine`
    /// (application-level proximity), in ascending id order.
    pub fn service_matches(&self, mine: ServiceClass) -> impl Iterator<Item = DeviceId> + '_ {
        self.iter()
            .filter(move |(_, info)| info.service.matches(mine))
            .map(|(id, _)| id)
    }

    /// Iterate over `(id, info)` of all discovered neighbours, in
    /// ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, &NeighborInfo)> {
        self.ids.iter().copied().zip(self.infos.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TX: Dbm = Dbm(23.0);
    const PL: PathLoss = PathLoss::PaperPiecewise;

    fn observe(t: &mut NeighborTable, sender: DeviceId, dbm: f64, fragment: DeviceId) {
        t.observe_fire(
            sender,
            Dbm(dbm),
            ServiceClass::new(1),
            fragment,
            Slot(0),
            &PL,
            TX,
        );
    }

    #[test]
    fn first_observation_creates_entry() {
        let mut t = NeighborTable::new();
        assert_eq!(t.discovered(), 0);
        observe(&mut t, 3, -60.0, 3);
        assert_eq!(t.discovered(), 1);
        let Some(info) = t.get(3) else {
            panic!("neighbour 3 missing after first observation")
        };
        assert_eq!(info.weight_dbm, -60.0);
        assert_eq!(info.samples, 1);
        assert!(info.est_distance.0 > 0.0);
    }

    #[test]
    fn ewma_smooths_weight() {
        let mut t = NeighborTable::new();
        observe(&mut t, 3, -60.0, 3);
        observe(&mut t, 3, -80.0, 3);
        let Some(info) = t.get(3) else {
            panic!("neighbour 3 missing after two observations")
        };
        let w = info.weight_dbm;
        assert!((w - (-65.0)).abs() < 1e-9, "got {w}");
        assert_eq!(info.samples, 2);
        assert_eq!(t.discovered(), 1);
    }

    #[test]
    fn ranging_estimate_is_plausible() {
        // −60 dBm from 23 dBm tx: loss 83 dB → 40+40log d = 83 → ~11.9 m.
        let mut t = NeighborTable::new();
        observe(&mut t, 1, -60.0, 1);
        let Some(info) = t.get(1) else {
            panic!("neighbour 1 missing after observation")
        };
        let d = info.est_distance.0;
        assert!((d - 11.88).abs() < 0.05, "distance {d}");
    }

    #[test]
    fn best_outgoing_skips_own_fragment() {
        let mut t = NeighborTable::new();
        observe(&mut t, 1, -50.0, 7); // strongest but same fragment
        observe(&mut t, 2, -70.0, 9);
        observe(&mut t, 3, -65.0, 9);
        let Some(best) = t.best_outgoing(7) else {
            panic!("fragment 7 should see an outgoing neighbour")
        };
        assert_eq!(best.0, 3);
        assert!((best.1 - -65.0).abs() < 1e-12);
        // From fragment 9's perspective, node 1 is outgoing.
        assert_eq!(t.best_outgoing(9).map(|b| b.0), Some(1));
    }

    #[test]
    fn best_outgoing_none_when_all_internal() {
        let mut t = NeighborTable::new();
        observe(&mut t, 1, -50.0, 42);
        assert!(t.best_outgoing(42).is_none());
        assert!(NeighborTable::new().best_outgoing(0).is_none());
    }

    #[test]
    fn best_outgoing_tie_breaks_to_lower_id() {
        let mut t = NeighborTable::new();
        observe(&mut t, 4, -60.0, 1);
        observe(&mut t, 2, -60.0, 1);
        assert_eq!(t.best_outgoing(0).map(|b| b.0), Some(2));
    }

    #[test]
    fn fresh_filter_excludes_stale_entries() {
        let mut t = NeighborTable::new();
        t.observe_fire(1, Dbm(-50.0), ServiceClass::new(0), 1, Slot(100), &PL, TX);
        t.observe_fire(2, Dbm(-70.0), ServiceClass::new(0), 2, Slot(900), &PL, TX);
        // At slot 1000 with a 300-slot window, only neighbour 2 counts.
        let Some(best) = t.best_outgoing_fresh(0, Slot(1000), 300) else {
            panic!("fresh neighbour 2 should survive the 300-slot window")
        };
        assert_eq!(best.0, 2);
        // The unbounded variant still sees the stronger stale entry.
        assert_eq!(t.best_outgoing(0).map(|b| b.0), Some(1));
        // Everything stale -> none.
        assert!(t.best_outgoing_fresh(0, Slot(10_000), 300).is_none());
    }

    #[test]
    fn fragment_updates() {
        let mut t = NeighborTable::new();
        observe(&mut t, 1, -50.0, 1);
        t.update_fragment(1, 99);
        assert_eq!(t.get(1).map(|i| i.fragment), Some(99));
        assert!(t.best_outgoing(99).is_none());
        // Updating an unknown neighbour is a no-op.
        t.update_fragment(2, 5);
        assert!(t.get(2).is_none());
    }

    #[test]
    fn service_matching() {
        let mut t = NeighborTable::new();
        t.observe_fire(1, Dbm(-50.0), ServiceClass::new(2), 1, Slot(0), &PL, TX);
        t.observe_fire(2, Dbm(-50.0), ServiceClass::new(3), 2, Slot(0), &PL, TX);
        t.observe_fire(3, Dbm(-50.0), ServiceClass::new(2), 3, Slot(0), &PL, TX);
        let matches: Vec<DeviceId> = t.service_matches(ServiceClass::new(2)).collect();
        assert_eq!(matches, vec![1, 3]);
        assert_eq!(t.service_matches(ServiceClass::new(5)).count(), 0);
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut t = NeighborTable::new();
        observe(&mut t, 5, -55.0, 5);
        observe(&mut t, 2, -65.0, 2);
        let ids: Vec<DeviceId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![2, 5]);
    }
}
