//! The matching algorithms of Section 4.
//!
//! All matchers share the same skeleton: matching is *transition
//! simulation* over positions of the marked expression. The matcher state
//! is the current position (initially the phantom `#`); reading a symbol
//! `a` moves to the unique `a`-labeled position that follows the current
//! one (unique because the expression is deterministic); the word is
//! accepted when the phantom `$` follows the final position. What differs
//! between the algorithms — and what the paper's theorems are about — is
//! how fast `find_next(p, a)` can be answered and how much preprocessing it
//! needs:
//!
//! | matcher | preprocessing | per symbol | theorem |
//! |---------|---------------|------------|---------|
//! | [`kocc::KOccurrenceMatcher`] | `O(\|e\|)` | `O(k)` | 4.3 |
//! | [`pathdecomp::PathDecompositionMatcher`] | `O(\|e\|)` | amortized `O(c_e)` | 4.10 |
//! | [`colored::ColoredAncestorMatcher`] | `O(\|e\|)` | `O(log \|e\|)`¹ | 4.2 |
//! | [`starfree::StarFreeMatcher`] | `O(\|e\|)` | amortized `O(1)`² | 4.12 |
//! | Glushkov DFA (`redet-automata`) | `O(σ\|e\|)` | `O(1)` | baseline |
//!
//! ¹ the paper obtains `O(log log |e|)` with the structure of \[23\]; see
//!   DESIGN.md for the substitution.
//! ² the multi-word entry point matches several words in one traversal of
//!   the expression, holding the pending words in dynamic LCA-closed
//!   skeleta (`redet_structures::BatchSkeleta`) so each is touched `O(1)`
//!   times — the `O(|e| + Σ|wᵢ|)` bound of Theorem 4.12.

pub mod colored;
pub mod kocc;
pub mod pathdecomp;
pub mod starfree;

use redet_automata::PosStepper;
use redet_syntax::Symbol;
use redet_tree::{PosId, TreeAnalysis};

/// A transition-simulation procedure: given the current position and an
/// input symbol, find the unique following position with that label.
pub trait TransitionSim {
    /// The preprocessed parse tree the simulation runs on.
    fn analysis(&self) -> &TreeAnalysis;

    /// The position labeled `symbol` that follows `p`, or `None` if the
    /// symbol cannot be read at this point.
    fn find_next(&self, p: PosId, symbol: Symbol) -> Option<PosId>;
}

/// Adapter turning any [`TransitionSim`] into a [`PosStepper`] (Section 4:
/// "matching a word w against e′ is straightforward: begin with position #,
/// use the transition simulation procedure iteratively, and finally test if
/// the position obtained after processing the last symbol of w is followed
/// by $"). The per-word state is a single position the caller owns, and
/// whole-word matching is the provided [`PosStepper::matches`] loop.
#[derive(Clone, Debug)]
pub struct PositionMatcher<T> {
    sim: T,
}

impl<T: TransitionSim> PositionMatcher<T> {
    /// Wraps a transition simulation.
    pub fn new(sim: T) -> Self {
        PositionMatcher { sim }
    }

    /// The wrapped transition simulation.
    pub fn sim(&self) -> &T {
        &self.sim
    }

    /// Unwraps the transition simulation.
    pub fn into_inner(self) -> T {
        self.sim
    }
}

impl<T: TransitionSim> PosStepper for PositionMatcher<T> {
    #[inline]
    fn begin(&self) -> PosId {
        self.sim.analysis().tree().begin_pos()
    }

    #[inline]
    fn advance(&self, p: PosId, symbol: Symbol) -> Option<PosId> {
        self.sim.find_next(p, symbol)
    }

    #[inline]
    fn can_end(&self, p: PosId) -> bool {
        self.sim.analysis().can_end_at(p)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for matcher tests: every matcher is compared against
    //! the Glushkov DFA baseline on the same expressions and words.

    use redet_automata::{GlushkovDfaMatcher, PosStepper};
    use redet_syntax::{parse_with_alphabet, Alphabet, Regex, Symbol};

    /// Deterministic expressions exercising all structural features.
    pub const DETERMINISTIC_EXPRESSIONS: &[&str] = &[
        "a",
        "a b",
        "a + b",
        "a? b? c?",
        "(a b)*",
        "(a b + b (b?) a)*",
        "(c?((a b*)(a? c)))*(b a)",
        "(c (b? a)) a",
        "(a (b? a))*",
        "(title, (author author*), (year | date)?)",
        "(a + b)* ",
        "(a0 + a1 + a2 + a3 + a4)*",
        "(a + b c) (d + e)",
        "((a + b) + (c + d)) e",
        "(a (b + c (d + e)))*",
        "x (a? b)* c",
        "((a b)* (c d)*)*",
        "a (b (c (d (e f)?)?)?)?",
        "(a? (b? (c? (d? e?))))*",
        "(a + b (a + b))*",
        "(chapter (section (para)* )* )? appendix",
        // Native one-or-more (DTD-style postfix plus).
        "(a b)+",
        "(a b)+, c",
        "(title, author+, (year | date)?)",
        "(a, b+, c)+, d",
        "(x, (a b)+, y)+",
    ];

    /// Parses an expression and produces sample words: all short words over
    /// the expression's alphabet (exhaustive up to `max_len`).
    pub fn expression_and_words(
        input: &str,
        max_len: usize,
    ) -> (Regex, Alphabet, Vec<Vec<Symbol>>) {
        let mut sigma = Alphabet::new();
        let e = parse_with_alphabet(input, &mut sigma).unwrap();
        let alphabet: Vec<Symbol> = sigma.symbols().collect();
        let mut words: Vec<Vec<Symbol>> = vec![Vec::new()];
        let mut frontier: Vec<Vec<Symbol>> = vec![Vec::new()];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for w in &frontier {
                for &s in &alphabet {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            words.extend(next.iter().cloned());
            frontier = next;
        }
        (e, sigma, words)
    }

    /// Asserts that `matcher` agrees with the Glushkov DFA baseline on all
    /// words up to the given length.
    pub fn assert_agrees_with_baseline<M: PosStepper>(
        input: &str,
        max_len: usize,
        matcher: impl Fn(&Regex) -> M,
    ) {
        let (e, _, words) = expression_and_words(input, max_len);
        let baseline = GlushkovDfaMatcher::build(&e).expect("test expressions are deterministic");
        let m = matcher(&e);
        for w in &words {
            assert_eq!(
                m.matches(w),
                baseline.matches(w),
                "{input} disagrees with the baseline on {w:?}"
            );
        }
    }
}
