//! The bounded-occurrence matcher (Section 4.2, Theorem 4.3).
//!
//! If every symbol occurs at most `k` times in the expression, transition
//! simulation only needs to run the constant-time `checkIfFollow` test of
//! Theorem 2.4 against the (at most `k`) candidate positions carrying the
//! input symbol. Matching a word `w` therefore costs `O(k·|w|)` after the
//! `O(|e|)` parse-tree preprocessing — linear for the 1-ORE/CHARE
//! expressions that dominate real-world schemas.
//!
//! The candidate scan is array work end to end: the per-symbol
//! position lists live in the parse tree's CSR index (one offsets array and
//! one positions array — two loads yield the slice), and every candidate is
//! tested with [`redet_tree::TreeAnalysis::follow_ids`], which performs
//! one leaf-pair LCA lookup plus a few interval comparisons over dense
//! preorder arrays. No per-query allocation, hashing or pointer chasing.

use crate::matcher::TransitionSim;
use redet_syntax::Symbol;
use redet_tree::{PosId, TreeAnalysis};
use std::sync::Arc;

/// Transition simulation scanning the per-symbol position lists
/// (Theorem 4.3).
#[derive(Clone, Debug)]
pub struct KOccurrenceMatcher {
    analysis: Arc<TreeAnalysis>,
}

impl KOccurrenceMatcher {
    /// Builds the matcher. Preprocessing is the shared `O(|e|)` parse-tree
    /// analysis — nothing else is materialized.
    pub fn new(analysis: Arc<TreeAnalysis>) -> Self {
        KOccurrenceMatcher { analysis }
    }

    /// Builds the matcher from the shared pipeline artifact, reusing its
    /// parse-tree analysis.
    pub fn from_compiled(compiled: &crate::pipeline::CompiledAnalysis) -> Self {
        Self::new(compiled.analysis().clone())
    }

    /// The maximal number of candidate positions inspected per input symbol
    /// (the `k` of the `O(|e| + k|w|)` bound).
    pub fn max_occurrences(&self) -> usize {
        let tree = self.analysis.tree();
        (0..tree.num_symbols())
            .map(|i| tree.positions_of_symbol(Symbol::from_index(i)).len())
            .max()
            .unwrap_or(0)
    }
}

impl TransitionSim for KOccurrenceMatcher {
    fn analysis(&self) -> &TreeAnalysis {
        &self.analysis
    }

    #[inline]
    fn find_next(&self, p: PosId, symbol: Symbol) -> Option<PosId> {
        let analysis = &*self.analysis;
        let pid = p.index() as u32;
        analysis
            .tree()
            .positions_of_symbol(symbol)
            .iter()
            .copied()
            .find(|&q| analysis.follow_ids(pid, q.index() as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::testutil::{assert_agrees_with_baseline, DETERMINISTIC_EXPRESSIONS};
    use crate::matcher::PositionMatcher;
    use redet_syntax::parse_with_alphabet;

    #[test]
    fn agrees_with_glushkov_dfa() {
        for input in DETERMINISTIC_EXPRESSIONS {
            assert_agrees_with_baseline(input, 5, |e| {
                PositionMatcher::new(KOccurrenceMatcher::new(Arc::new(TreeAnalysis::build(e))))
            });
        }
    }

    #[test]
    fn reports_k() {
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("(a b + b b? a)*", &mut sigma).unwrap();
        let m = KOccurrenceMatcher::new(Arc::new(TreeAnalysis::build(&e)));
        assert_eq!(m.max_occurrences(), 3);
        let e = parse_with_alphabet("(title, author, year?)", &mut sigma).unwrap();
        let m = KOccurrenceMatcher::new(Arc::new(TreeAnalysis::build(&e)));
        assert_eq!(m.max_occurrences(), 1);
    }

    #[test]
    fn streaming_example_4_1_prefix() {
        // Figure 1 expression; follow the prefix of Example 4.1: from p3
        // reading c goes to p5, then reading a goes to p2.
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("(c?((a b*)(a? c)))*(b a)", &mut sigma).unwrap();
        let analysis = Arc::new(TreeAnalysis::build(&e));
        let m = KOccurrenceMatcher::new(analysis);
        let c = sigma.lookup("c").unwrap();
        let a = sigma.lookup("a").unwrap();
        let p3 = PosId::from_index(3);
        let p5 = m.find_next(p3, c).unwrap();
        assert_eq!(p5, PosId::from_index(5));
        let p2 = m.find_next(p5, a).unwrap();
        assert_eq!(p2, PosId::from_index(2));
    }

    #[test]
    fn unknown_symbols_never_follow() {
        let mut sigma = redet_syntax::Alphabet::new();
        let e = parse_with_alphabet("a b", &mut sigma).unwrap();
        let zzz = sigma.intern("zzz");
        let analysis = Arc::new(TreeAnalysis::build(&e));
        let m = KOccurrenceMatcher::new(analysis.clone());
        assert_eq!(m.find_next(analysis.tree().begin_pos(), zzz), None);
    }
}
