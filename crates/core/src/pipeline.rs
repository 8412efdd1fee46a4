//! Shared per-activation pipeline state: the buffering that read and send
//! alignment require (Alg. 1, lines 16–17), plus the node's local record of
//! the syndromes it disseminated.
//!
//! Both the diagnostic protocol ([`crate::DiagJob`]) and the membership
//! variant ([`crate::MembershipJob`]) drive this state machine; they differ
//! only in phase ordering and in the minority accusations added before
//! dissemination.

use std::collections::VecDeque;

use tt_sim::{JobCtx, NodeId, RoundIndex};

use crate::alignment::{send_align, SendChoice};
use crate::syndrome::{bits, low_bits, Syndrome};

/// How many disseminated syndromes are remembered (the analysis needs only
/// the one transmitted in round `k - 1`; we keep a margin).
const OWN_TX_HISTORY: usize = 8;

/// The aligned view produced by phases 1 & 3 of one activation. The aligned
/// rows themselves stay in the [`AlignmentBuffers`] that produced it
/// ([`AlignmentBuffers::aligned_rows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aligned {
    /// The aligned diagnostic-matrix rows (all sent in round `k - 1`) that
    /// hold a syndrome: bit `i` clear means the row of node `i+1` is ε.
    pub present: u64,
    /// Aligned local syndrome (local detection for round `k - 1`).
    pub al_ls: Syndrome,
}

impl Aligned {
    /// Number of ε rows in the aligned diagnostic matrix (syndromes whose
    /// carrying message was invalid or never received).
    pub fn epsilon_rows(&self) -> u64 {
        u64::from(self.al_ls.len() as u32 - self.present.count_ones())
    }
}

/// Alignment buffers of one protocol instance.
///
/// Matrix rows are kept as syndrome words (bit `j` of row `i` = node
/// `i+1`'s opinion on node `j+1`) under a mask of the rows that are
/// present; a word outside its mask is stale and never read.
#[derive(Debug, Clone)]
pub struct AlignmentBuffers {
    n: usize,
    /// Rows read by the previous activation, present under `prev_present`.
    prev_rows: Vec<u64>,
    prev_present: u64,
    /// Validity bits read by the previous activation.
    prev_valid: u64,
    prev_al_ls: Syndrome,
    /// Rows read by the current activation, present under `curr_present`.
    curr_rows: Vec<u64>,
    curr_present: u64,
    curr_valid: u64,
    /// The current activation's aligned matrix.
    al_rows: Vec<u64>,
    own_tx: VecDeque<(RoundIndex, Syndrome)>,
}

impl AlignmentBuffers {
    /// Fresh buffers for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        AlignmentBuffers {
            n,
            prev_rows: vec![0; n],
            prev_present: 0,
            prev_valid: 0,
            prev_al_ls: Syndrome::all_ok(n),
            curr_rows: vec![0; n],
            curr_present: 0,
            curr_valid: 0,
            al_rows: vec![0; n],
            own_tx: VecDeque::with_capacity(OWN_TX_HISTORY),
        }
    }

    /// Phases 1 & 3: read interface variables and validity bits, decode
    /// syndromes (ε for invalid rows) and apply read alignment.
    ///
    /// The aligned rows are readable through
    /// [`AlignmentBuffers::aligned_rows`] until the next call; hand the
    /// returned view back via [`AlignmentBuffers::commit`].
    pub fn read_and_align(&mut self, ctx: &JobCtx<'_>) -> Aligned {
        let iface = ctx.iface();
        let valid = ctx.validity_mask();
        let mut present = 0;
        for j in bits(valid) {
            if let Some(p) = &iface[j] {
                self.curr_rows[j] = Syndrome::decode(p, self.n).bits();
                present |= 1 << j;
            }
        }
        self.curr_present = present;
        self.curr_valid = valid;
        // Read alignment (Alg. 1, lines 3–6): previous-activation values for
        // the slots already refreshed this round, current values for the rest.
        let l = ctx.l();
        let fresh = low_bits(l);
        self.al_rows[..l].copy_from_slice(&self.prev_rows[..l]);
        self.al_rows[l..].copy_from_slice(&self.curr_rows[l..]);
        Aligned {
            present: (self.prev_present & fresh) | (present & !fresh),
            al_ls: Syndrome::from_mask(self.n, (self.prev_valid & fresh) | (valid & !fresh)),
        }
    }

    /// The aligned matrix rows of the last [`AlignmentBuffers::read_and_align`]
    /// (index = sender index), meaningful under [`Aligned::present`].
    pub fn aligned_rows(&self) -> &[u64] {
        &self.al_rows
    }

    /// Puts the node's own row into the matrix analysed at round `k`: the
    /// syndrome it disseminated in round `k - 1`, taken from its local
    /// buffer rather than the bus (a node always knows what it sent).
    /// Returns the matrix's present-row mask, which includes that row
    /// whenever the node has it.
    pub fn install_own_row(&mut self, aligned: &Aligned, node: NodeId, k: RoundIndex) -> u64 {
        match k.checked_sub(1).and_then(|r| self.own_row_for_tx_round(r)) {
            Some(own) => {
                self.al_rows[node.index()] = own.bits();
                aligned.present | 1 << node.index()
            }
            None => aligned.present,
        }
    }

    /// Phase 2: applies send alignment, writes the chosen syndrome to the
    /// outgoing interface variable and remembers it under its transmission
    /// round. `mutate` lets the caller add minority accusations to the
    /// outgoing syndrome (membership variant) after the choice is made.
    ///
    /// Returns the round whose sending slot carries the syndrome on the bus
    /// (observability consumers stamp dissemination events with it).
    pub fn disseminate(
        &mut self,
        ctx: &mut JobCtx<'_>,
        all_send_curr_round: bool,
        al_ls: &Syndrome,
        mutate: impl FnOnce(&mut Syndrome),
    ) -> RoundIndex {
        let choice = send_align(all_send_curr_round, ctx.send_curr_round());
        let mut to_send = match choice {
            SendChoice::Current => *al_ls,
            SendChoice::Previous => self.prev_al_ls,
        };
        mutate(&mut to_send);
        ctx.write_iface(to_send.encode());
        let tx_round = if ctx.send_curr_round() {
            ctx.round()
        } else {
            ctx.round().next()
        };
        if self.own_tx.len() >= OWN_TX_HISTORY {
            self.own_tx.pop_front();
        }
        self.own_tx.push_back((tx_round, to_send));
        tx_round
    }

    /// The syndrome this node put (or attempted to put) on the bus in
    /// `round`. Locally known regardless of bus faults — the basis of
    /// Lemma 3's blackout argument.
    pub fn own_row_for_tx_round(&self, round: RoundIndex) -> Option<Syndrome> {
        self.own_tx
            .iter()
            .rev()
            .find(|(r, _)| *r == round)
            .map(|(_, s)| *s)
    }

    /// Lines 16–17 of Alg. 1: buffer this activation's reads for the next.
    pub fn commit(&mut self, aligned: Aligned) {
        std::mem::swap(&mut self.prev_rows, &mut self.curr_rows);
        self.prev_present = self.curr_present;
        self.prev_valid = self.curr_valid;
        self.prev_al_ls = aligned.al_ls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_sim::{Controller, NodeId, NodeSchedule, Reception};

    fn ctx_for<'a>(
        controller: &'a mut Controller,
        node: NodeId,
        offset: usize,
        round: u64,
    ) -> JobCtx<'a> {
        let sched = NodeSchedule::new(node, offset, 4).unwrap();
        JobCtx::new(controller, sched, RoundIndex::new(round))
    }

    #[test]
    fn read_and_align_marks_invalid_rows_epsilon() {
        let node = NodeId::new(1);
        let mut c = Controller::new(node, 4);
        let s = Syndrome::all_ok(4);
        c.deliver(
            NodeId::new(2),
            RoundIndex::new(0),
            Reception::Valid(s.encode()),
        );
        c.deliver(NodeId::new(3), RoundIndex::new(0), Reception::Detected);
        let mut bufs = AlignmentBuffers::new(4);
        let ctx = ctx_for(&mut c, node, 0, 1);
        let aligned = bufs.read_and_align(&ctx);
        assert_eq!(bufs.aligned_rows()[1], s.bits());
        assert_ne!(aligned.present & 1 << 1, 0, "valid row is present");
        assert_eq!(aligned.present & 1 << 2, 0, "invalid row is ε");
        assert_eq!(aligned.epsilon_rows(), 3);
        assert!(!aligned.al_ls.get(2));
        assert!(aligned.al_ls.get(1));
    }

    #[test]
    fn disseminate_records_tx_round_by_send_predicate() {
        let node = NodeId::new(1); // slot 0
        let mut c = Controller::new(node, 4);
        let mut bufs = AlignmentBuffers::new(4);
        let al = Syndrome::all_ok(4);
        // offset 2 > slot 0: cannot send this round -> tx next round.
        {
            let mut ctx = ctx_for(&mut c, node, 2, 5);
            let tx = bufs.disseminate(&mut ctx, false, &al, |_| {});
            assert_eq!(tx, RoundIndex::new(6), "returned tx round");
        }
        assert!(bufs.own_row_for_tx_round(RoundIndex::new(5)).is_none());
        assert_eq!(bufs.own_row_for_tx_round(RoundIndex::new(6)), Some(al));
        // offset 0 <= slot 0: sends this round. With mixed alignment the
        // *previous* aligned syndrome ships.
        let node4 = NodeId::new(4);
        let mut c4 = Controller::new(node4, 4);
        let mut bufs4 = AlignmentBuffers::new(4);
        {
            let mut ctx = ctx_for(&mut c4, node4, 0, 5);
            bufs4.disseminate(&mut ctx, false, &al, |_| {});
        }
        assert_eq!(
            bufs4.own_row_for_tx_round(RoundIndex::new(5)),
            Some(Syndrome::all_ok(4)), // initial prev_al_ls
        );
    }

    #[test]
    fn mutate_hook_applies_accusations_to_outgoing() {
        let node = NodeId::new(2);
        let mut c = Controller::new(node, 4);
        let mut bufs = AlignmentBuffers::new(4);
        let al = Syndrome::all_ok(4);
        let mut ctx = ctx_for(&mut c, node, 0, 3);
        bufs.disseminate(&mut ctx, true, &al, |s| s.set(NodeId::new(4), false));
        let _ = ctx;
        let sent = bufs.own_row_for_tx_round(RoundIndex::new(3)).unwrap();
        assert_eq!(sent.accused(), vec![NodeId::new(4)]);
        assert_eq!(c.tx_payload(), sent.encode());
    }

    #[test]
    fn tx_history_is_bounded() {
        let node = NodeId::new(1);
        let mut c = Controller::new(node, 4);
        let mut bufs = AlignmentBuffers::new(4);
        let al = Syndrome::all_ok(4);
        for r in 0..20u64 {
            let mut ctx = ctx_for(&mut c, node, 0, r);
            bufs.disseminate(&mut ctx, true, &al, |_| {});
        }
        assert!(bufs.own_row_for_tx_round(RoundIndex::new(0)).is_none());
        assert!(bufs.own_row_for_tx_round(RoundIndex::new(19)).is_some());
    }

    #[test]
    fn commit_rotates_buffers() {
        let node = NodeId::new(1);
        let mut c = Controller::new(node, 4);
        let mut accused = Syndrome::all_ok(4);
        accused.set(NodeId::new(2), false);
        c.deliver(
            NodeId::new(2),
            RoundIndex::new(0),
            Reception::Valid(accused.encode()),
        );
        let mut bufs = AlignmentBuffers::new(4);
        let aligned = {
            let ctx = ctx_for(&mut c, node, 0, 1);
            bufs.read_and_align(&ctx)
        };
        bufs.commit(aligned);
        // Next activation with l = 4 is impossible (l < N), but l = 3 uses
        // prev for the first three positions.
        let ctx = ctx_for(&mut c, node, 3, 2);
        let aligned2 = bufs.read_and_align(&ctx);
        assert_eq!(bufs.aligned_rows()[1], accused.bits());
        assert_ne!(aligned2.present & 1 << 1, 0);
    }
}
