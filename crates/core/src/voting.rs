//! The hybrid majority voting function `H-maj` (paper Eqn. 1).
//!
//! Voting combines the opinions of the other `N-1` nodes on one diagnosed
//! node. Erroneous votes ε (from benign-faulty disseminators) are excluded
//! before the majority is computed, following the hybrid-fault voting of
//! Lincoln & Rushby \[18\] as adapted by the paper:
//!
//! ```text
//!            ⎧ ⊥   if |excl(V, ε)| = 0
//! H-maj(V) = ⎨ v   if v = maj(excl(V, ε)) and |excl(V, ε)| ≥ 1
//!            ⎩ 1   else
//! ```
//!
//! `0` denotes "faulty", `1` denotes "not faulty"; a tie therefore resolves
//! to "not faulty" (the `else` branch), which preserves *correctness*: a
//! correct node is never convicted by a non-majority.

/// The outcome of hybrid-majority voting on one diagnostic-matrix column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HMaj {
    /// No non-ε vote was available (`⊥`): the voter must fall back to its
    /// local collision detector for self-diagnosis (Alg. 1, line 14).
    Undecidable,
    /// The voted health: `true` = not faulty (1), `false` = faulty (0).
    Decided(bool),
}

impl HMaj {
    /// The decided value, if any.
    pub fn decided(self) -> Option<bool> {
        match self {
            HMaj::Undecidable => None,
            HMaj::Decided(v) => Some(v),
        }
    }
}

/// Computes `H-maj` over a column of votes.
///
/// Each vote is `Some(opinion)` or `None` for ε (the voter's own syndrome
/// was not received). The caller is responsible for excluding the diagnosed
/// node's opinion about itself before calling (paper Sec. 5: "The opinion
/// of a node about itself is considered unreliable and discarded").
///
/// ```
/// use tt_core::voting::{h_maj, HMaj};
/// // Two accusations outvote one endorsement.
/// assert_eq!(h_maj([Some(false), Some(false), Some(true)]), HMaj::Decided(false));
/// // ε votes are excluded before the majority.
/// assert_eq!(h_maj([None, None, Some(false)]), HMaj::Decided(false));
/// // No usable votes at all: undecidable.
/// assert_eq!(h_maj([None, None, None]), HMaj::Undecidable);
/// ```
pub fn h_maj(votes: impl IntoIterator<Item = Option<bool>>) -> HMaj {
    h_maj_tally(votes).outcome
}

/// The full accounting of one `H-maj` vote: how many opinions landed in
/// each bucket, plus the outcome.
///
/// This is what observability consumers want (a `1 0 0` vote and a `4 3 0`
/// vote are both `Decided(false)` but tell very different stories); the
/// protocol itself only needs [`VoteTally::outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VoteTally {
    /// Explicit "not faulty" opinions.
    pub ok: u64,
    /// Explicit "faulty" opinions.
    pub faulty: u64,
    /// Excluded ε opinions.
    pub epsilon: u64,
    /// The `H-maj` outcome over the non-ε opinions.
    pub outcome: HMaj,
}

impl VoteTally {
    /// Whether the column was contested: any explicit accusation, any ε
    /// exclusion, or an undecidable outcome. Unanimous all-healthy columns
    /// (the steady state) answer `false`.
    pub fn contested(&self) -> bool {
        self.faulty > 0 || self.epsilon > 0 || self.outcome != HMaj::Decided(true)
    }

    /// The decided health of [`VoteTally::outcome`], if any (shorthand for
    /// `self.outcome.decided()`).
    pub fn decided(&self) -> Option<bool> {
        self.outcome.decided()
    }
}

/// Computes `H-maj` over a column of votes, returning the full
/// [`VoteTally`] (bucket counts plus outcome). [`h_maj`] is the
/// outcome-only shorthand.
pub fn h_maj_tally(votes: impl IntoIterator<Item = Option<bool>>) -> VoteTally {
    let mut ok = 0u64;
    let mut faulty = 0u64;
    let mut epsilon = 0u64;
    for v in votes {
        match v {
            Some(true) => ok += 1,
            Some(false) => faulty += 1,
            None => epsilon += 1,
        }
    }
    VoteTally {
        ok,
        faulty,
        epsilon,
        outcome: h_maj_counts(ok, faulty),
    }
}

/// `H-maj` from the two opinion counts alone (ε votes do not enter Eqn. 1),
/// for callers that count a column with popcounts over vote masks.
pub(crate) fn h_maj_counts(ok: u64, faulty: u64) -> HMaj {
    if ok + faulty == 0 {
        HMaj::Undecidable
    } else if faulty > ok {
        HMaj::Decided(false)
    } else {
        // Majority healthy, or a tie: the `else` branch of Eqn. 1 —
        // default to "not faulty".
        HMaj::Decided(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_votes_decide() {
        assert_eq!(h_maj(vec![Some(true); 3]), HMaj::Decided(true));
        assert_eq!(h_maj(vec![Some(false); 3]), HMaj::Decided(false));
    }

    #[test]
    fn epsilon_votes_are_excluded() {
        assert_eq!(
            h_maj([None, Some(true), Some(true), Some(false)]),
            HMaj::Decided(true)
        );
        assert_eq!(h_maj([None, None, Some(false)]), HMaj::Decided(false));
    }

    #[test]
    fn all_epsilon_is_undecidable() {
        assert_eq!(h_maj(std::iter::repeat_n(None, 5)), HMaj::Undecidable);
        assert_eq!(h_maj(std::iter::empty()), HMaj::Undecidable);
    }

    #[test]
    fn tie_defaults_to_not_faulty() {
        // Eqn. 1 `else` branch: protects correct nodes from split votes
        // caused by malicious/asymmetric disseminators.
        assert_eq!(h_maj([Some(true), Some(false)]), HMaj::Decided(true));
        assert_eq!(h_maj([Some(true), Some(false), None]), HMaj::Decided(true));
    }

    #[test]
    fn single_vote_decides() {
        // |excl(V, ε)| = 1: the lone opinion is the majority (Lemma 3's
        // blackout case relies on this).
        assert_eq!(h_maj([None, None, Some(false)]), HMaj::Decided(false));
        assert_eq!(h_maj([Some(true)]), HMaj::Decided(true));
    }

    #[test]
    fn decided_accessor() {
        assert_eq!(HMaj::Undecidable.decided(), None);
        assert_eq!(HMaj::Decided(false).decided(), Some(false));
    }

    #[test]
    fn tally_counts_every_bucket() {
        let t = h_maj_tally([Some(true), Some(false), Some(false), None]);
        assert_eq!((t.ok, t.faulty, t.epsilon), (1, 2, 1));
        assert_eq!(t.outcome, HMaj::Decided(false));
        assert!(t.contested());
    }

    #[test]
    fn tally_contested_classification() {
        // Unanimous healthy: the steady state, not contested.
        assert!(!h_maj_tally([Some(true), Some(true)]).contested());
        // Outvoted accusation: still contested.
        assert!(h_maj_tally([Some(true), Some(true), Some(false)]).contested());
        // ε exclusions alone mark the column contested.
        assert!(h_maj_tally([Some(true), None]).contested());
        // Undecidable (all ε) is contested by definition.
        assert!(h_maj_tally([None, None]).contested());
    }

    #[test]
    fn tally_outcome_matches_h_maj() {
        let cases: [&[Option<bool>]; 5] = [
            &[Some(true), Some(false)],
            &[Some(false), Some(false), Some(true)],
            &[None, None],
            &[Some(true); 4],
            &[None, Some(false)],
        ];
        for votes in cases {
            assert_eq!(
                h_maj_tally(votes.iter().copied()).outcome,
                h_maj(votes.iter().copied())
            );
        }
    }
}
