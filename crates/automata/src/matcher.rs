//! The common stepping interface shared by baselines and the paper's
//! matchers: **transition simulation** over single positions.
//!
//! Section 4 defines matching as transition simulation: "begin with
//! position #, use the transition simulation procedure iteratively, and
//! finally test if the position obtained after processing the last symbol
//! of w is followed by $". [`PosStepper`] is exactly that: the caller keeps
//! the current [`PosId`], [`PosStepper::advance`] is the per-symbol step,
//! and [`PosStepper::matches`] is the whole-word loop over it. Because
//! every implementor simulates a *deterministic* automaton, `advance`
//! returning `None` at event `i` means **no extension** of the first `i`
//! symbols belongs to the language — callers such as a document validator
//! can stop early and report the exact failure point.

use redet_syntax::Symbol;
use redet_tree::PosId;

/// A matcher whose entire per-word state is one position of the marked
/// expression (the deterministic transition-simulation shape shared by the
/// Glushkov DFA baseline and all four Section 4 matchers).
pub trait PosStepper {
    /// The state before any symbol has been read (the phantom `#`).
    fn begin(&self) -> PosId;

    /// The unique `symbol`-labeled position following `p`, or `None` if the
    /// symbol cannot be read at this point.
    fn advance(&self, p: PosId, symbol: Symbol) -> Option<PosId>;

    /// Whether a word can end at position `p` (`$ ∈ Follow(p)`).
    fn can_end(&self, p: PosId) -> bool;

    /// Whether `word` belongs to the language: [`Self::begin`], one
    /// [`Self::advance`] per symbol, then [`Self::can_end`].
    fn matches(&self, word: &[Symbol]) -> bool {
        let mut p = self.begin();
        for &symbol in word {
            match self.advance(p, symbol) {
                Some(q) => p = q,
                None => return false,
            }
        }
        self.can_end(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy stepper for the language (ab)* over symbols 0 = a, 1 = b,
    /// exercising the provided `matches` loop. Position 0 expects `a`,
    /// position 1 expects `b`.
    struct ToyAbStar;

    impl PosStepper for ToyAbStar {
        fn begin(&self) -> PosId {
            PosId::from_index(0)
        }

        fn advance(&self, p: PosId, symbol: Symbol) -> Option<PosId> {
            match (p.index(), symbol.index()) {
                (0, 0) => Some(PosId::from_index(1)),
                (1, 1) => Some(PosId::from_index(0)),
                _ => None,
            }
        }

        fn can_end(&self, p: PosId) -> bool {
            p.index() == 0
        }
    }

    #[test]
    fn provided_matches_steps_the_positions() {
        let a = Symbol::from_index(0);
        let b = Symbol::from_index(1);
        let m = ToyAbStar;
        assert!(m.matches(&[]));
        assert!(m.matches(&[a, b]));
        assert!(m.matches(&[a, b, a, b]));
        assert!(!m.matches(&[a]));
        assert!(!m.matches(&[b, a]));
        assert!(!m.matches(&[a, b, a]));
        assert!(!m.matches(&[a, a]));
    }
}
