//! The per-node communication controller.
//!
//! Per the paper's system model (Sec. 3), the communication controller
//! executes the global communication schedule, automatically updates the
//! node's copies of the **interface variables** when messages are received,
//! maintains one **validity bit** per interface variable using its *local
//! error detection mechanisms*, and features a **local collision detection
//! mechanism** that checks whether messages sent by the node could actually
//! be read from the bus.
//!
//! Traffic from nodes marked inactive (isolated by the diagnostic protocol)
//! is ignored, as required by the paper's Sec. 5 ("Eventual traffic
//! generated by isolated nodes must be ignored by the communication
//! controllers of all other nodes").

use bytes::Bytes;

use crate::bus::Reception;
use crate::time::{NodeId, RoundIndex};

/// The largest cluster a controller covers: validity bits and the active
/// set are one bit per node in a 64-bit mask.
pub const MAX_NODES: usize = 64;

/// The mask with one bit set per node of an `n`-node cluster.
pub(crate) fn nodes_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// How many past rounds of collision-detector outcomes are retained (the
/// width of the window masks).
///
/// The add-on protocol queries at most `k - 3` (Lemma 1), so a small window
/// suffices; we keep a margin for the low-latency variant and debugging.
const COLLISION_HISTORY: u64 = u16::BITS as u64;

/// Health of the local collision detector, used to validate Lemma 3's claim
/// that a *correct* collision detector is necessary for self-diagnosis
/// during communication blackouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollisionDetectorMode {
    /// Faithfully reports the on-bus outcome of own transmissions.
    #[default]
    Accurate,
    /// Broken: always claims own transmissions were fine.
    StuckOk,
    /// Broken: always claims own transmissions failed.
    StuckFailed,
}

/// The bit of `round` in a collision-detector window whose newest round is
/// `newest`, if the round lies inside the window.
fn window_bit(newest: RoundIndex, round: RoundIndex) -> Option<u16> {
    let age = newest.as_u64().checked_sub(round.as_u64())?;
    (age < COLLISION_HISTORY).then(|| 1 << age)
}

/// The communication controller of one node.
///
/// Holds the node's local copies of all `N` interface variables, their
/// validity bits, the round of their last successful update, the transmit
/// buffer for the node's own slot, the active-node mask, and the collision
/// detector history.
#[derive(Debug, Clone)]
pub struct Controller {
    node: NodeId,
    n_nodes: usize,
    /// Latest successfully received value per sender (index = sender index).
    iface: Vec<Option<Bytes>>,
    /// Validity bit per interface variable (bit = sender index), updated
    /// with each slot.
    validity: u64,
    /// Round in which each variable was last successfully updated.
    last_update: Vec<Option<RoundIndex>>,
    /// Payload queued for the node's own next sending slot.
    tx: Bytes,
    /// Nodes whose traffic is accepted (bit = node index; clear = isolated,
    /// ignore).
    active: u64,
    /// The newest round with a collision-detector observation. Bit `d` of
    /// `seen` / `ok` covers round `newest - d`, for the 16 rounds up to it
    /// (a fixed 16-round window): whether it was observed, and whether the
    /// own frame read back fine.
    newest: Option<RoundIndex>,
    seen: u16,
    ok: u16,
    mode: CollisionDetectorMode,
}

impl Controller {
    /// Creates the controller of `node` in an `n_nodes` cluster.
    ///
    /// All interface variables start empty with validity bit 0; all nodes
    /// start active; the transmit buffer starts empty.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` exceeds [`MAX_NODES`].
    pub fn new(node: NodeId, n_nodes: usize) -> Self {
        assert!(
            n_nodes <= MAX_NODES,
            "a controller covers at most {MAX_NODES} nodes, got {n_nodes}"
        );
        Controller {
            node,
            n_nodes,
            iface: vec![None; n_nodes],
            validity: 0,
            last_update: vec![None; n_nodes],
            tx: Bytes::new(),
            active: nodes_mask(n_nodes),
            newest: None,
            seen: 0,
            ok: 0,
            mode: CollisionDetectorMode::Accurate,
        }
    }

    /// The node this controller belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Cluster size `N`.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Sets the health of the local collision detector.
    pub fn set_collision_detector_mode(&mut self, mode: CollisionDetectorMode) {
        self.mode = mode;
    }

    /// Queues `payload` for transmission in the node's next sending slot.
    ///
    /// Mirrors the `write_iface` operation of the paper's Alg. 1: the value
    /// is placed in the node's outgoing interface variable and transmitted
    /// by the controller according to the global communication schedule.
    pub fn write_tx(&mut self, payload: Bytes) {
        self.tx = payload;
    }

    /// The payload the controller will transmit in the node's own slot.
    pub fn tx_payload(&self) -> Bytes {
        self.tx.clone()
    }

    /// Delivers the reception outcome for the slot of `sender` in `round`.
    ///
    /// Updates the interface variable and its validity bit together, as the
    /// paper specifies. Traffic from inactive senders is ignored and the
    /// validity bit forced to 0.
    pub fn deliver(&mut self, sender: NodeId, round: RoundIndex, reception: Reception) {
        let idx = sender.index();
        debug_assert!(idx < self.n_nodes);
        let bit = 1u64 << idx;
        match reception {
            Reception::Valid(payload) if self.active & bit != 0 => {
                self.iface[idx] = Some(payload);
                self.validity |= bit;
                self.last_update[idx] = Some(round);
            }
            _ => self.validity &= !bit,
        }
    }

    /// Records the collision-detector observation for the node's own
    /// transmission in `round`.
    pub fn record_collision(&mut self, round: RoundIndex, ok: bool) {
        // A newer round slides the window forward.
        let newest = match self.newest {
            Some(newest) if newest >= round => newest,
            Some(newest) => {
                let shift = round.as_u64() - newest.as_u64();
                if shift >= COLLISION_HISTORY {
                    (self.seen, self.ok) = (0, 0);
                } else {
                    self.seen <<= shift;
                    self.ok <<= shift;
                }
                round
            }
            None => round,
        };
        self.newest = Some(newest);
        if let Some(bit) = window_bit(newest, round) {
            self.seen |= bit;
            if ok {
                self.ok |= bit;
            } else {
                self.ok &= !bit;
            }
        }
        // The node knows what it sent: its own copy of its own interface
        // variable reflects the transmit buffer, and the validity bit
        // reflects the collision-detector outcome.
        let idx = self.node.index();
        self.iface[idx] = Some(self.tx.clone());
        if self.reported(ok) {
            self.validity |= 1 << idx;
        } else {
            self.validity &= !(1 << idx);
        }
        self.last_update[idx] = Some(round);
    }

    /// An observation as the configured [`CollisionDetectorMode`] reports
    /// it.
    fn reported(&self, ok: bool) -> bool {
        match self.mode {
            CollisionDetectorMode::Accurate => ok,
            CollisionDetectorMode::StuckOk => true,
            CollisionDetectorMode::StuckFailed => false,
        }
    }

    /// Queries the local collision detector: was the node's own message in
    /// `round` readable on the bus?
    ///
    /// Returns `None` if the observation has aged out of the history window
    /// or the round has not been transmitted yet. The answer is filtered
    /// through the configured [`CollisionDetectorMode`].
    pub fn collision_ok(&self, round: RoundIndex) -> Option<bool> {
        let bit = window_bit(self.newest?, round)?;
        (self.seen & bit != 0).then(|| self.reported(self.ok & bit != 0))
    }

    /// All interface variables (index = sender index), borrowed. The
    /// allocation-free hot path reads through this; use
    /// [`Controller::iface_snapshot`] when an owned copy is needed.
    pub fn iface(&self) -> &[Option<Bytes>] {
        &self.iface
    }

    /// All validity bits as a mask (bit = sender index).
    pub fn validity_mask(&self) -> u64 {
        self.validity
    }

    /// A snapshot of all interface variables (index = sender index).
    pub fn iface_snapshot(&self) -> Vec<Option<Bytes>> {
        self.iface.clone()
    }

    /// A snapshot of all validity bits (index = sender index).
    pub fn validity_snapshot(&self) -> Vec<bool> {
        (0..self.n_nodes)
            .map(|j| self.validity & (1 << j) != 0)
            .collect()
    }

    /// The round of the last successful update of `sender`'s variable.
    pub fn last_update(&self, sender: NodeId) -> Option<RoundIndex> {
        self.last_update[sender.index()]
    }

    /// Marks `node` as isolated: its subsequent traffic is ignored.
    pub fn isolate(&mut self, node: NodeId) {
        self.active &= !(1 << node.index());
    }

    /// Marks `node` as active again (reintegration).
    pub fn reintegrate(&mut self, node: NodeId) {
        self.active |= 1 << node.index();
    }

    /// Whether this controller currently accepts traffic from `node`.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.active & (1 << node.index()) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Controller {
        Controller::new(NodeId::new(2), 4)
    }

    #[test]
    fn starts_empty_and_invalid() {
        let c = mk();
        assert!(c.iface_snapshot().iter().all(Option::is_none));
        assert!(c.validity_snapshot().iter().all(|v| !v));
        assert!(NodeId::all(4).all(|n| c.is_active(n)));
    }

    #[test]
    fn valid_delivery_updates_variable_and_bit() {
        let mut c = mk();
        let r = RoundIndex::new(3);
        c.deliver(
            NodeId::new(1),
            r,
            Reception::Valid(Bytes::from_static(b"\x07")),
        );
        assert_eq!(c.iface_snapshot()[0], Some(Bytes::from_static(b"\x07")));
        assert!(c.validity_snapshot()[0]);
        assert_eq!(c.last_update(NodeId::new(1)), Some(r));
    }

    #[test]
    fn detected_delivery_clears_bit_but_keeps_value() {
        let mut c = mk();
        c.deliver(
            NodeId::new(1),
            RoundIndex::new(3),
            Reception::Valid(Bytes::from_static(b"\x07")),
        );
        c.deliver(NodeId::new(1), RoundIndex::new(4), Reception::Detected);
        // The stale value is retained but invalid; freshness unchanged.
        assert_eq!(c.iface_snapshot()[0], Some(Bytes::from_static(b"\x07")));
        assert!(!c.validity_snapshot()[0]);
        assert_eq!(c.last_update(NodeId::new(1)), Some(RoundIndex::new(3)));
    }

    #[test]
    fn isolated_senders_are_ignored() {
        let mut c = mk();
        c.isolate(NodeId::new(3));
        c.deliver(
            NodeId::new(3),
            RoundIndex::new(1),
            Reception::Valid(Bytes::from_static(b"\x01")),
        );
        assert_eq!(c.iface_snapshot()[2], None);
        assert!(!c.validity_snapshot()[2]);
        c.reintegrate(NodeId::new(3));
        c.deliver(
            NodeId::new(3),
            RoundIndex::new(2),
            Reception::Valid(Bytes::from_static(b"\x01")),
        );
        assert!(c.validity_snapshot()[2]);
    }

    #[test]
    fn collision_history_is_queryable_per_round() {
        let mut c = mk();
        c.write_tx(Bytes::from_static(b"\x0a"));
        c.record_collision(RoundIndex::new(5), true);
        c.record_collision(RoundIndex::new(6), false);
        assert_eq!(c.collision_ok(RoundIndex::new(5)), Some(true));
        assert_eq!(c.collision_ok(RoundIndex::new(6)), Some(false));
        assert_eq!(c.collision_ok(RoundIndex::new(7)), None);
        // Own interface variable mirrors the transmit buffer.
        assert_eq!(c.iface_snapshot()[1], Some(Bytes::from_static(b"\x0a")));
    }

    #[test]
    fn collision_history_evicts_old_rounds() {
        let mut c = mk();
        for r in 0..(COLLISION_HISTORY + 4) {
            c.record_collision(RoundIndex::new(r), true);
        }
        assert_eq!(c.collision_ok(RoundIndex::new(0)), None, "aged out");
        assert_eq!(
            c.collision_ok(RoundIndex::new(COLLISION_HISTORY + 3)),
            Some(true)
        );
    }

    #[test]
    fn broken_collision_detector_modes() {
        let mut c = mk();
        c.record_collision(RoundIndex::new(1), false);
        c.set_collision_detector_mode(CollisionDetectorMode::StuckOk);
        assert_eq!(c.collision_ok(RoundIndex::new(1)), Some(true));
        c.set_collision_detector_mode(CollisionDetectorMode::StuckFailed);
        assert_eq!(c.collision_ok(RoundIndex::new(1)), Some(false));
        c.set_collision_detector_mode(CollisionDetectorMode::Accurate);
        assert_eq!(c.collision_ok(RoundIndex::new(1)), Some(false));
    }
}
