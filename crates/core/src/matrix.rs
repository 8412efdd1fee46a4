//! The diagnostic matrix (paper Sec. 5, Table 1).
//!
//! Row `i` of the matrix is the (aligned) local syndrome sent by node `i`;
//! column `j` collects the opinions of all nodes on node `j`. A whole row is
//! ε when the diagnostic message carrying it was locally detected as faulty.
//! The analysis phase votes `H-maj` over each column, discarding the
//! diagnosed node's opinion about itself.

use tt_sim::NodeId;

use crate::syndrome::{bits, format_row, low_bits, Syndrome, SyndromeRow};
use crate::voting::{h_maj, h_maj_counts, h_maj_tally, HMaj, VoteTally};

/// A diagnostic matrix for one diagnosed round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosticMatrix {
    rows: Vec<SyndromeRow>,
}

impl DiagnosticMatrix {
    /// Builds a matrix from aligned rows (index = sender index; `None` = ε).
    ///
    /// # Panics
    ///
    /// Panics if any present row's length differs from the number of rows.
    pub fn new(rows: Vec<SyndromeRow>) -> Self {
        let n = rows.len();
        for (i, row) in rows.iter().enumerate() {
            if let Some(s) = row {
                assert_eq!(s.len(), n, "row {i} has wrong width");
            }
        }
        DiagnosticMatrix { rows }
    }

    /// Builds the matrix of `rows`, syndrome words (bit `j` of `rows[i]` =
    /// node `i+1`'s opinion on node `j+1`) of which the rows in `present`
    /// hold a syndrome and the rest are ε, reusing `storage`'s allocation.
    pub(crate) fn from_words(rows: &[u64], present: u64, mut storage: Vec<SyndromeRow>) -> Self {
        let n = rows.len();
        storage.clear();
        storage.extend(
            rows.iter()
                .enumerate()
                .map(|(i, &w)| (present & 1 << i != 0).then(|| Syndrome::from_mask(n, w))),
        );
        DiagnosticMatrix { rows: storage }
    }

    /// Cluster size `N`.
    pub fn n_nodes(&self) -> usize {
        self.rows.len()
    }

    /// The row of `sender`, i.e. the syndrome it disseminated (ε = `None`).
    pub fn row(&self, sender: NodeId) -> &SyndromeRow {
        &self.rows[sender.index()]
    }

    /// Consumes the matrix, returning its row storage (so callers recycling
    /// scratch vectors can reclaim the allocation).
    pub fn into_rows(self) -> Vec<SyndromeRow> {
        self.rows
    }

    /// Iterates the votes of column `j` with the self-opinion of the
    /// diagnosed node removed, without materialising them.
    fn column_votes_iter(&self, diagnosed: NodeId) -> impl Iterator<Item = Option<bool>> + '_ {
        let j = diagnosed.index();
        self.rows
            .iter()
            .enumerate()
            .filter(move |(i, _)| *i != j)
            .map(move |(_, row)| row.as_ref().map(|s| s.get(j)))
    }

    /// The votes of column `j` with the self-opinion of the diagnosed node
    /// removed: `⟨al_dm_1[j], …, al_dm_{j-1}[j], al_dm_{j+1}[j], …⟩`.
    pub fn column_votes(&self, diagnosed: NodeId) -> Vec<Option<bool>> {
        self.column_votes_iter(diagnosed).collect()
    }

    /// Votes `H-maj` on the column of `diagnosed` (Alg. 1, lines 11–12).
    pub fn vote(&self, diagnosed: NodeId) -> HMaj {
        h_maj(self.column_votes_iter(diagnosed))
    }

    /// The full [`VoteTally`] of the column of `diagnosed`: bucket counts
    /// plus the `H-maj` outcome (observability view of
    /// [`DiagnosticMatrix::vote`]).
    pub fn tally(&self, diagnosed: NodeId) -> VoteTally {
        h_maj_tally(self.column_votes_iter(diagnosed))
    }

    /// Computes the consistent health vector for this matrix.
    ///
    /// For columns where the vote is `⊥` (no non-ε opinion at all), the
    /// protocol falls back to `collision_fallback(j)` — the local collision
    /// detector for the diagnosed round (Alg. 1, line 14). The fallback's
    /// `None` (no observation available) is conservatively treated as
    /// healthy, preserving correctness.
    pub fn consistent_health_vector(
        &self,
        mut collision_fallback: impl FnMut(NodeId) -> Option<bool>,
    ) -> Vec<bool> {
        NodeId::all(self.n_nodes())
            .map(|j| match self.vote(j) {
                HMaj::Decided(v) => v,
                HMaj::Undecidable => collision_fallback(j).unwrap_or(true),
            })
            .collect()
    }

    /// Renders the matrix in the style of the paper's Table 1.
    pub fn render(&self) -> String {
        let n = self.n_nodes();
        let mut out = String::new();
        out.push_str("Accuser    | ");
        for j in 1..=n {
            out.push_str(&format!("{j} "));
        }
        out.push('\n');
        for i in 0..n {
            out.push_str(&format!(
                "Node {:<5} | {}\n",
                i + 1,
                format_row(&self.rows[i], i, n)
            ));
        }
        out
    }
}

/// The consistent health vector of the matrix whose rows are the syndrome
/// words `rows` (as in [`DiagnosticMatrix::from_words`]) under the mask
/// `present` of rows that are not ε, as a mask: bit `j` set = node `j+1`
/// healthy.
///
/// Equal to [`DiagnosticMatrix::consistent_health_vector`] of the same
/// matrix, but `H-maj` runs only on accused columns. A column that nobody
/// accuses is a unanimous healthy vote if any present row other than the
/// subject's votes on it, and `⊥` otherwise, resolved by
/// `collision_fallback` (`None` = healthy).
pub(crate) fn health_mask(
    rows: &[u64],
    present: u64,
    mut collision_fallback: impl FnMut(NodeId) -> Option<bool>,
) -> u64 {
    let all = low_bits(rows.len());
    let accused = bits(present).fold(0, |acc, i| acc | (!rows[i] & !(1 << i))) & all;
    let mut healthy = all & !accused;
    for j in bits(accused) {
        let voters = present & !(1 << j);
        let ok = bits(voters).filter(|&i| rows[i] & 1 << j != 0).count() as u64;
        let faulty = u64::from(voters.count_ones()) - ok;
        if h_maj_counts(ok, faulty) == HMaj::Decided(true) {
            healthy |= 1 << j;
        }
    }
    // A column is ⊥ when no row but the subject's own is present.
    let undecidable = match present.count_ones() {
        0 => all,
        1 => present,
        _ => 0,
    };
    for j in bits(undecidable) {
        if !collision_fallback(NodeId::from_slot(j)).unwrap_or(true) {
            healthy &= !(1 << j);
        }
    }
    healthy
}

/// Convenience constructor used by tests and examples: builds the matrix of
/// the paper's Table 1 scenario, where `faulty` nodes were benign faulty in
/// both the diagnosed round and the dissemination round.
pub fn matrix_with_benign_faulty(n: usize, faulty: &[NodeId]) -> DiagnosticMatrix {
    let mut obedient_view = Syndrome::all_ok(n);
    for &f in faulty {
        obedient_view.set(f, false);
    }
    let rows = NodeId::all(n)
        .map(|i| {
            if faulty.contains(&i) {
                None // their dissemination also failed: ε row
            } else {
                Some(obedient_view)
            }
        })
        .collect();
    DiagnosticMatrix::new(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voting::HMaj;

    /// The exact scenario of Table 1: nodes 3 and 4 benign faulty.
    #[test]
    fn table1_reproduction() {
        let m = matrix_with_benign_faulty(4, &[NodeId::new(3), NodeId::new(4)]);
        let hv = m.consistent_health_vector(|_| None);
        assert_eq!(hv, vec![true, true, false, false], "voted cons_hv 1 1 0 0");
    }

    #[test]
    fn table1_rendering_shows_epsilon_rows() {
        let m = matrix_with_benign_faulty(4, &[NodeId::new(3), NodeId::new(4)]);
        let s = m.render();
        assert!(s.contains("- 1 0 0"), "row 1 as in Table 1:\n{s}");
        assert!(s.contains("ε ε - ε"), "row 3 as in Table 1:\n{s}");
    }

    #[test]
    fn self_opinion_is_discarded() {
        // Node 2 claims itself healthy while everyone else accuses it.
        let mut liar_row = Syndrome::all_ok(3);
        liar_row.set(NodeId::new(1), false); // frame-up attempt
        let mut accuse2 = Syndrome::all_ok(3);
        accuse2.set(NodeId::new(2), false);
        let m = DiagnosticMatrix::new(vec![Some(accuse2), Some(liar_row), Some(accuse2)]);
        // Column 2 votes exclude row 2 entirely.
        assert_eq!(
            m.column_votes(NodeId::new(2)),
            vec![Some(false), Some(false)]
        );
        assert_eq!(m.vote(NodeId::new(2)), HMaj::Decided(false));
        // The frame-up on node 1 is outvoted 1 against 1... tie => healthy.
        assert_eq!(m.vote(NodeId::new(1)), HMaj::Decided(true));
    }

    #[test]
    fn undecidable_column_uses_collision_fallback() {
        // Blackout: every row ε. Self-diagnosis must consult coll-det.
        let m = DiagnosticMatrix::new(vec![None, None, None, None]);
        let hv = m.consistent_health_vector(|j| {
            // Pretend the local collision detector saw node 2's slot fail.
            Some(j != NodeId::new(2))
        });
        assert_eq!(hv, vec![true, false, true, true]);
        // Without an observation, default to healthy (correctness-first).
        let hv = m.consistent_health_vector(|_| None);
        assert_eq!(hv, vec![true; 4]);
    }

    #[test]
    #[should_panic(expected = "wrong width")]
    fn rejects_misshaped_rows() {
        let _ = DiagnosticMatrix::new(vec![Some(Syndrome::all_ok(3)), None]);
    }

    #[test]
    fn tally_exposes_bucket_counts() {
        let m = matrix_with_benign_faulty(4, &[NodeId::new(3), NodeId::new(4)]);
        // Column 3: rows 1 and 2 accuse, row 4 is ε (self-row 3 excluded).
        let t = m.tally(NodeId::new(3));
        assert_eq!((t.ok, t.faulty, t.epsilon), (0, 2, 1));
        assert_eq!(t.outcome, HMaj::Decided(false));
        assert!(t.contested());
        // Column 1: rows 2 endorses, rows 3 and 4 are ε.
        let t = m.tally(NodeId::new(1));
        assert_eq!((t.ok, t.faulty, t.epsilon), (1, 0, 2));
        assert_eq!(t.outcome, HMaj::Decided(true));
        assert_eq!(t.outcome, m.vote(NodeId::new(1)));
    }

    /// `health_mask` agrees with the column-by-column vote on every
    /// matrix of a 3-node cluster (each row ε or any of 8 syndromes) and
    /// every collision-detector answer, and on a pseudo-random sample of
    /// 5-node matrices.
    #[test]
    fn health_mask_matches_the_column_vote() {
        let check =
            |n: usize, rows: &[u64], present: u64, fallback: &dyn Fn(NodeId) -> Option<bool>| {
                let m = DiagnosticMatrix::from_words(rows, present, Vec::new());
                let want = m.consistent_health_vector(fallback);
                let got = health_mask(rows, present, fallback);
                let got: Vec<bool> = (0..n).map(|j| got & 1 << j != 0).collect();
                assert_eq!(got, want, "rows {rows:?} present {present:#b}");
            };
        let fallbacks: [&dyn Fn(NodeId) -> Option<bool>; 3] =
            [&|_| None, &|j| Some(j != NodeId::new(2)), &|_| Some(false)];
        for code in 0..9u64.pow(3) {
            let cells: Vec<u64> = (0..3).map(|i| code / 9u64.pow(i) % 9).collect();
            let present = cells
                .iter()
                .enumerate()
                .fold(0, |p, (i, &c)| if c < 8 { p | 1 << i } else { p });
            let rows: Vec<u64> = cells.iter().map(|&c| c % 8).collect();
            for fallback in fallbacks {
                check(3, &rows, present, fallback);
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let rows: Vec<u64> = (0..5).map(|i| (x >> (5 * i)) & 0b11111).collect();
            let present = (x >> 40) & 0b11111;
            for fallback in fallbacks {
                check(5, &rows, present, fallback);
            }
        }
    }

    #[test]
    fn accessors() {
        let m = matrix_with_benign_faulty(4, &[NodeId::new(3)]);
        assert_eq!(m.n_nodes(), 4);
        assert!(m.row(NodeId::new(3)).is_none());
        assert!(m.row(NodeId::new(1)).is_some());
    }
}
