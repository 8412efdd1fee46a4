//! Local syndromes and their wire encoding.
//!
//! The **local syndrome** of node `i` is the binary `N`-tuple containing its
//! local view on the messages sent by the other nodes (paper Sec. 5): bit
//! `j` is 1 if the message of node `j+1` passed local error detection, 0
//! otherwise. Syndromes travel inside the non-replicated **diagnostic
//! message** `dm_i`; the bandwidth is `N` bits per message, matching the
//! paper's prototype.
//!
//! At the receiver, a whole row of the diagnostic matrix takes the special
//! error value **ε** when the diagnostic message carrying it was itself
//! locally detected as faulty (validity bit 0). [`SyndromeRow`] models a
//! row as `Option<Syndrome>` with `None` = ε.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use tt_sim::NodeId;

/// The largest cluster a [`Syndrome`] can cover (one bit per node in the
/// packed representation).
pub const MAX_SYNDROME_NODES: usize = 64;

/// The indices of the set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// A local syndrome: one boolean opinion per node, `true` = "message
/// received correctly" (the paper's 1), `false` = "faulty" (the paper's 0).
///
/// Stored as a packed bitmask so syndromes are `Copy`: the simulation hot
/// path clones, aligns and decodes one syndrome per node per round, and a
/// heap-backed representation would make every such step allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Syndrome {
    n: u8,
    mask: u64,
}

impl Syndrome {
    /// An all-ones syndrome ("everyone correct") for an `n`-node cluster.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_SYNDROME_NODES`].
    pub fn all_ok(n: usize) -> Self {
        assert!(n <= MAX_SYNDROME_NODES, "cluster too large for a syndrome");
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        Syndrome { n: n as u8, mask }
    }

    /// Builds a syndrome from per-node opinions (index = node index).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SYNDROME_NODES`] opinions are given.
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Self {
        let mut n = 0usize;
        let mut mask = 0u64;
        for ok in bits {
            assert!(n < MAX_SYNDROME_NODES, "cluster too large for a syndrome");
            if ok {
                mask |= 1 << n;
            }
            n += 1;
        }
        Syndrome { n: n as u8, mask }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True if the syndrome covers zero nodes (never valid in a cluster,
    /// but kept total for robustness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The opinion on `node`: `true` = correct, `false` = faulty.
    pub fn opinion(&self, node: NodeId) -> bool {
        self.get(node.index())
    }

    /// The opinion at 0-based index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, like the indexing it replaced.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.n as usize, "syndrome index out of range");
        self.mask & (1 << idx) != 0
    }

    /// Sets the opinion on `node` (used for minority accusations).
    pub fn set(&mut self, node: NodeId, ok: bool) {
        let idx = node.index();
        assert!(idx < self.n as usize, "syndrome index out of range");
        if ok {
            self.mask |= 1 << idx;
        } else {
            self.mask &= !(1 << idx);
        }
    }

    /// The packed opinions: bit `j` is the opinion on node `j+1`.
    pub(crate) fn bits(&self) -> u64 {
        self.mask
    }

    /// Iterates over the opinions in node order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        let mask = self.mask;
        (0..self.n as usize).map(move |j| mask & (1 << j) != 0)
    }

    /// The nodes accused as faulty by this syndrome.
    pub fn accused(&self) -> Vec<NodeId> {
        self.iter()
            .enumerate()
            .filter(|(_, ok)| !ok)
            .map(|(i, _)| NodeId::from_slot(i))
            .collect()
    }

    /// Encodes the syndrome into its `ceil(N/8)`-byte wire format
    /// (LSB-first bit packing: bit `j` of byte `j / 8` is the opinion on
    /// node `j+1`).
    pub fn encode(&self) -> Bytes {
        let n = self.n as usize;
        let mut out = vec![0u8; n.div_ceil(8)];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = (self.mask >> (i * 8)) as u8;
        }
        Bytes::from(out)
    }

    /// Decodes a syndrome for an `n`-node cluster from arbitrary bytes.
    ///
    /// Decoding is **total**: short payloads are zero-extended and long
    /// payloads truncated. This mirrors the fault model — a malicious
    /// diagnostic message is *not locally detectable*, so whatever bits
    /// arrive are interpreted as a syndrome.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_SYNDROME_NODES`].
    pub fn decode(payload: &[u8], n: usize) -> Self {
        assert!(n <= MAX_SYNDROME_NODES, "cluster too large for a syndrome");
        let mut mask = 0u64;
        for (i, &b) in payload.iter().take(n.div_ceil(8)).enumerate() {
            mask |= u64::from(b) << (i * 8);
        }
        if n < 64 {
            mask &= (1u64 << n) - 1;
        }
        Syndrome { n: n as u8, mask }
    }
}

impl std::fmt::Display for Syndrome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// One row of the diagnostic matrix as stored at a receiver: the syndrome
/// sent by some node, or ε (`None`) when that diagnostic message was
/// locally detected as faulty.
pub type SyndromeRow = Option<Syndrome>;

/// Renders a row the way the paper's Table 1 does (`ε ε ε ε` for lost
/// rows, `1 0 …` otherwise, with `-` on the diagonal).
pub fn format_row(row: &SyndromeRow, own_index: usize, n: usize) -> String {
    let mut parts = Vec::with_capacity(n);
    for j in 0..n {
        if j == own_index {
            parts.push("-".to_string());
        } else {
            parts.push(match row {
                Some(s) => if s.get(j) { "1" } else { "0" }.to_string(),
                None => "ε".to_string(),
            });
        }
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ok_has_no_accusations() {
        let s = Syndrome::all_ok(4);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.accused().is_empty());
        assert!(s.iter().all(|b| b));
    }

    #[test]
    fn set_and_accuse() {
        let mut s = Syndrome::all_ok(4);
        s.set(NodeId::new(3), false);
        assert!(!s.opinion(NodeId::new(3)));
        assert!(s.opinion(NodeId::new(1)));
        assert_eq!(s.accused(), vec![NodeId::new(3)]);
        assert_eq!(s.to_string(), "1101");
    }

    #[test]
    fn encode_decode_roundtrip() {
        for n in [1, 4, 7, 8, 9, 16, 31] {
            let mut s = Syndrome::all_ok(n);
            for j in (0..n).step_by(3) {
                s.set(NodeId::from_slot(j), false);
            }
            let enc = s.encode();
            assert_eq!(enc.len(), n.div_ceil(8), "N bits on the wire");
            assert_eq!(Syndrome::decode(&enc, n), s);
        }
    }

    #[test]
    fn four_node_message_is_one_byte() {
        // The paper's prototype: "The bandwidth required for each
        // diagnostic message is N = 4 bits."
        assert_eq!(Syndrome::all_ok(4).encode().len(), 1);
    }

    #[test]
    fn decode_is_total_on_garbage() {
        // Short payload: missing bits read as 0 (accusations).
        let s = Syndrome::decode(b"", 4);
        assert_eq!(s.accused().len(), 4);
        // Long payload: extra bytes ignored.
        let s = Syndrome::decode(&[0b1111, 0xAB, 0xCD], 4);
        assert!(s.iter().all(|b| b));
    }

    #[test]
    fn format_row_matches_table1_style() {
        let mut s = Syndrome::all_ok(4);
        s.set(NodeId::new(3), false);
        s.set(NodeId::new(4), false);
        assert_eq!(format_row(&Some(s), 0, 4), "- 1 0 0");
        assert_eq!(format_row(&None, 2, 4), "ε ε - ε");
    }
}
