//! High-level entry point: a thin layer over the compilation pipeline
//! ([`CompiledAnalysis`]) that picks a matching algorithm and validates
//! words — in whole-word form or one symbol at a time through the flat
//! stepping interface.
//!
//! All the heavy lifting — interning, parsing, normalization, the shared
//! parse-tree analysis, determinism certification — happens once in the
//! pipeline and is captured in an [`Arc<CompiledAnalysis>`]; this module
//! only chooses a strategy and builds the (cheap) strategy-specific
//! structures on top of the artifact. Consequently, switching strategies on
//! an already-compiled expression ([`DeterministicRegex::with_strategy`])
//! never re-parses or re-analyzes, and a schema's models, compiled with
//! [`CompiledAnalysis::from_parsed`] over one shared alphabet, attach here
//! through [`DeterministicRegex::from_compiled`].
//!
//! # Stepping a content model
//!
//! Matching is transition simulation (Section 4): start at the phantom `#`
//! ([`DeterministicRegex::pos_begin`]), take one
//! [`DeterministicRegex::pos_advance`] per symbol, then ask whether `$` may
//! follow ([`DeterministicRegex::pos_can_end`]). The caller owns the
//! position, so a streaming document validator can hold one per open
//! element:
//!
//! ```
//! use redet_core::DeterministicRegex;
//!
//! let model = DeterministicRegex::compile("(title, author+, year?)").unwrap();
//! let title = model.alphabet().lookup("title").unwrap();
//! let author = model.alphabet().lookup("author").unwrap();
//!
//! let mut p = model.pos_begin().expect("counting-free models step positions");
//! p = model.pos_advance(p, title).unwrap();
//! p = model.pos_advance(p, author).unwrap();
//! assert!(model.pos_can_end(p));
//! // `title` cannot appear again: by determinism, no extension of the
//! // prefix read so far is in the language.
//! assert_eq!(model.pos_advance(p, title), None);
//! ```
//!
//! Counted expressions (`e{i,j}`) step a position *set* instead, through
//! [`DeterministicRegex::counted_matcher`].

use crate::diagnostics::{Code, Diagnostic};
use crate::matcher::colored::ColoredAncestorMatcher;
use crate::matcher::kocc::KOccurrenceMatcher;
use crate::matcher::pathdecomp::{PathDecompositionError, PathDecompositionMatcher};
use crate::matcher::starfree::StarFreeMatcher;
use crate::matcher::PositionMatcher;
use crate::pipeline::CompiledAnalysis;
use redet_automata::{GlushkovDfaMatcher, NfaSimulationMatcher, PosStepper};
use redet_syntax::{Alphabet, ExprStats, Regex, Symbol};
use redet_tree::{PosId, TreeAnalysis};
use std::fmt;
use std::sync::Arc;

/// Which transition-simulation algorithm backs a compiled expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatchStrategy {
    /// Pick automatically from the expression's structural statistics
    /// (star-free → Theorem 4.12; small `k` → Theorem 4.3; small
    /// alternation depth → Theorem 4.10; otherwise Theorem 4.2; counted
    /// expressions → the unrolled simulation).
    #[default]
    Auto,
    /// The star-free forward sweep (Theorem 4.12).
    StarFree,
    /// The bounded-occurrence scan (Theorem 4.3).
    KOccurrence,
    /// The path-decomposition matcher (Theorem 4.10).
    PathDecomposition,
    /// The lowest-colored-ancestor matcher (Theorem 4.2).
    ColoredAncestor,
    /// The Glushkov DFA baseline (`O(σ|e|)` preprocessing).
    GlushkovDfa,
    /// The set-of-positions simulation of the unrolled expression — the only
    /// strategy applicable to counted expressions (`e{i,j}`), because
    /// unrolling preserves the language but not determinism. Counted
    /// expressions always report this strategy, whatever was requested.
    CountedSimulation,
}

enum MatcherImpl {
    StarFree(PositionMatcher<StarFreeMatcher>),
    KOccurrence(PositionMatcher<KOccurrenceMatcher>),
    PathDecomposition(PositionMatcher<PathDecompositionMatcher>),
    ColoredAncestor(PositionMatcher<ColoredAncestorMatcher>),
    GlushkovDfa(GlushkovDfaMatcher),
    /// Counted expressions are matched by simulating the Glushkov automaton
    /// of the (language-preserving) unrolled expression, because unrolling
    /// does not preserve determinism. The simulation is built once by the
    /// pipeline and shared.
    CountedNfa(Arc<NfaSimulationMatcher>),
}

/// A compiled deterministic regular expression (content model): parsing,
/// normalization, the linear-time determinism check of Theorem 3.5, and a
/// matching algorithm chosen from Section 4.
///
/// ```
/// use redet_core::DeterministicRegex;
///
/// let model = DeterministicRegex::compile("(title, author+, (year | date)?)").unwrap();
/// assert!(model.matches(&["title", "author", "author", "year"]));
/// assert!(!model.matches(&["title", "year"]));
///
/// // Non-deterministic content models are rejected with a diagnostic
/// // carrying the conflict witness and its source spans.
/// let diag = DeterministicRegex::compile("(a* b a + b b)*").unwrap_err();
/// assert_eq!(diag.code(), redet_core::Code::NotDeterministic);
/// ```
pub struct DeterministicRegex {
    compiled: Arc<CompiledAnalysis>,
    strategy: MatchStrategy,
    matcher: MatcherImpl,
}

impl DeterministicRegex {
    /// Parses, normalizes, checks determinism and prepares a matcher,
    /// selecting the algorithm automatically.
    pub fn compile(input: &str) -> Result<Self, Diagnostic> {
        Self::compile_with(input, MatchStrategy::Auto)
    }

    /// Like [`Self::compile`] with an explicit matching strategy.
    pub fn compile_with(input: &str, strategy: MatchStrategy) -> Result<Self, Diagnostic> {
        Self::from_compiled(CompiledAnalysis::compile(input)?, strategy)
    }

    /// Attaches a matcher to a shared pipeline artifact. This is the only
    /// constructor that does real work, and the work is limited to the
    /// strategy-specific structures — the artifact already carries the
    /// parse-tree analysis and the determinism certificate.
    pub fn from_compiled(
        compiled: Arc<CompiledAnalysis>,
        strategy: MatchStrategy,
    ) -> Result<Self, Diagnostic> {
        // Counted expressions are matched by the cached unrolled simulation
        // whatever was requested; report that honestly instead of echoing
        // the requested strategy.
        let chosen = if compiled.counted_simulation().is_some() {
            MatchStrategy::CountedSimulation
        } else {
            match strategy {
                MatchStrategy::Auto => Self::auto_strategy(compiled.stats()),
                other => other,
            }
        };
        let matcher = Self::build_matcher(&compiled, chosen)?;
        Ok(DeterministicRegex {
            compiled,
            strategy: chosen,
            matcher,
        })
    }

    /// Re-targets the expression at a different matching strategy, sharing
    /// every stage of the compilation — no re-parse, no re-normalization, no
    /// re-analysis, no re-certification.
    pub fn with_strategy(&self, strategy: MatchStrategy) -> Result<Self, Diagnostic> {
        Self::from_compiled(self.compiled.clone(), strategy)
    }

    fn auto_strategy(stats: &ExprStats) -> MatchStrategy {
        if stats.counting {
            MatchStrategy::CountedSimulation
        } else if stats.star_free {
            MatchStrategy::StarFree
        } else if stats.max_occurrences <= 4 {
            MatchStrategy::KOccurrence
        } else if stats.plus_depth <= 8 && !stats.has_plus {
            // The path decomposition is proven for the `∗`-only grammar;
            // expressions with native `e+` take the colored-ancestor route.
            MatchStrategy::PathDecomposition
        } else {
            MatchStrategy::ColoredAncestor
        }
    }

    fn not_applicable(why: &str) -> Diagnostic {
        Diagnostic::new(
            Code::StrategyNotApplicable,
            format!("requested matching strategy does not apply: {why}"),
        )
    }

    /// Maps a path-decomposition construction failure to a diagnostic that
    /// says *why* the strategy is out of scope instead of echoing a generic
    /// preprocessing failure. Lemmas 4.5–4.9 are stated for the `∗`-only
    /// grammar of Section 2, where every iterating node is nullable, so a
    /// native `e+` (non-nullable iterator) must be named explicitly.
    fn pathdecomp_not_applicable(
        compiled: &CompiledAnalysis,
        err: PathDecompositionError,
    ) -> Diagnostic {
        match err {
            PathDecompositionError::CountingNotSupported if compiled.stats().has_plus => {
                Self::not_applicable(
                    "the path decomposition (Theorem 4.10) is proven for the `∗`-only \
                     grammar, where every iterating node is nullable; this expression \
                     contains the non-nullable iterator `e+` — use the k-occurrence or \
                     colored-ancestor matcher (automatic selection routes `e+` models \
                     there)",
                )
            }
            PathDecompositionError::CountingNotSupported => Self::not_applicable(
                "numeric occurrence indicators must be unrolled before path-decomposition \
                 matching",
            ),
            PathDecompositionError::Collision { .. } => {
                Self::not_applicable("path decomposition preprocessing failed")
            }
        }
    }

    fn build_matcher(
        compiled: &Arc<CompiledAnalysis>,
        strategy: MatchStrategy,
    ) -> Result<MatcherImpl, Diagnostic> {
        Ok(match strategy {
            MatchStrategy::Auto => unreachable!("Auto is resolved before building"),
            MatchStrategy::StarFree => MatcherImpl::StarFree(PositionMatcher::new(
                StarFreeMatcher::from_compiled(compiled).map_err(|_| {
                    Self::not_applicable("the expression contains an iterating operator")
                })?,
            )),
            MatchStrategy::KOccurrence => MatcherImpl::KOccurrence(PositionMatcher::new(
                KOccurrenceMatcher::from_compiled(compiled),
            )),
            MatchStrategy::PathDecomposition => {
                MatcherImpl::PathDecomposition(PositionMatcher::new(
                    PathDecompositionMatcher::from_compiled(compiled)
                        .map_err(|err| Self::pathdecomp_not_applicable(compiled, err))?,
                ))
            }
            MatchStrategy::ColoredAncestor => MatcherImpl::ColoredAncestor(PositionMatcher::new(
                ColoredAncestorMatcher::from_compiled(compiled).map_err(|_| {
                    Self::not_applicable(
                        "no determinism certificate is available for this expression",
                    )
                })?,
            )),
            MatchStrategy::GlushkovDfa => MatcherImpl::GlushkovDfa(
                GlushkovDfaMatcher::from_tree(compiled.analysis().tree())
                    .map_err(|_| Self::not_applicable("expression is not deterministic"))?,
            ),
            MatchStrategy::CountedSimulation => MatcherImpl::CountedNfa(
                compiled
                    .counted_simulation()
                    .ok_or_else(|| {
                        Self::not_applicable(
                            "the expression has no numeric occurrence indicators; \
                             use one of the linear matchers",
                        )
                    })?
                    .clone(),
            ),
        })
    }

    /// The shared compilation artifact backing this expression.
    pub fn compiled(&self) -> &Arc<CompiledAnalysis> {
        &self.compiled
    }

    /// The interned alphabet of the expression.
    pub fn alphabet(&self) -> &Alphabet {
        self.compiled.alphabet()
    }

    /// The normalized abstract syntax tree.
    pub fn regex(&self) -> &Regex {
        self.compiled.regex()
    }

    /// Structural statistics (`k`, `c_e`, star-freedom, σ, …).
    pub fn stats(&self) -> &ExprStats {
        self.compiled.stats()
    }

    /// The preprocessed parse tree (Theorem 2.4 queries and friends).
    pub fn analysis(&self) -> &TreeAnalysis {
        self.compiled.analysis()
    }

    /// The determinism certificate (colors and skeleta), when the expression
    /// is counting-free.
    pub fn certificate(&self) -> Option<&crate::determinism::DeterminismCertificate> {
        self.compiled.certificate().map(|c| c.as_ref())
    }

    /// The matching strategy in use. Counted expressions always report
    /// [`MatchStrategy::CountedSimulation`] — the algorithm that actually
    /// runs — regardless of the strategy requested at compile time.
    pub fn strategy(&self) -> MatchStrategy {
        self.strategy
    }

    /// The state of the position machine before any symbol has been read
    /// (the phantom `#`), or `None` for counted expressions, whose per-word
    /// state is a position *set* (see [`Self::counted_matcher`]).
    ///
    /// Together with [`Self::pos_advance`] and [`Self::pos_can_end`] this is
    /// the **flat stepping interface**: the caller keeps the `PosId` and the
    /// per-symbol step is a single enum dispatch straight into the
    /// strategy's `find_next`. The schema validator holds one `PosId` per
    /// open element; [`Self::matches_symbols`] is the same loop over a
    /// whole word.
    #[inline]
    #[must_use]
    pub fn pos_begin(&self) -> Option<PosId> {
        match &self.matcher {
            MatcherImpl::StarFree(m) => Some(m.begin()),
            MatcherImpl::KOccurrence(m) => Some(m.begin()),
            MatcherImpl::PathDecomposition(m) => Some(m.begin()),
            MatcherImpl::ColoredAncestor(m) => Some(m.begin()),
            MatcherImpl::GlushkovDfa(m) => Some(m.begin()),
            MatcherImpl::CountedNfa(_) => None,
        }
    }

    /// The unique `symbol`-labeled position following `p`, or `None` if the
    /// symbol cannot be read at this point (by determinism, no extension of
    /// the word read so far is in the language). For counted expressions —
    /// which have no single-position machine — this is always `None`; feed
    /// the [`Self::counted_matcher`] instead.
    #[inline]
    pub fn pos_advance(&self, p: PosId, symbol: Symbol) -> Option<PosId> {
        match &self.matcher {
            MatcherImpl::StarFree(m) => m.advance(p, symbol),
            MatcherImpl::KOccurrence(m) => m.advance(p, symbol),
            MatcherImpl::PathDecomposition(m) => m.advance(p, symbol),
            MatcherImpl::ColoredAncestor(m) => m.advance(p, symbol),
            MatcherImpl::GlushkovDfa(m) => m.advance(p, symbol),
            MatcherImpl::CountedNfa(_) => None,
        }
    }

    /// Whether a word may end at position `p` (`$ ∈ Follow(p)`). `false`
    /// for counted expressions (see [`Self::pos_advance`]).
    #[inline]
    pub fn pos_can_end(&self, p: PosId) -> bool {
        match &self.matcher {
            MatcherImpl::StarFree(m) => m.can_end(p),
            MatcherImpl::KOccurrence(m) => m.can_end(p),
            MatcherImpl::PathDecomposition(m) => m.can_end(p),
            MatcherImpl::ColoredAncestor(m) => m.can_end(p),
            MatcherImpl::GlushkovDfa(m) => m.can_end(p),
            MatcherImpl::CountedNfa(_) => false,
        }
    }

    /// The cached unrolled simulation backing a counted expression
    /// ([`MatchStrategy::CountedSimulation`]), exposing the owned-state
    /// stepping interface ([`NfaSimulationMatcher::reset`] /
    /// [`NfaSimulationMatcher::step`]); `None` for counting-free
    /// expressions, whose state is a single [`PosId`] (see
    /// [`Self::pos_begin`]).
    #[must_use]
    pub fn counted_matcher(&self) -> Option<&NfaSimulationMatcher> {
        match &self.matcher {
            MatcherImpl::CountedNfa(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the word, given as element names, belongs to the content
    /// model. Unknown element names immediately reject.
    pub fn matches(&self, word: &[&str]) -> bool {
        match self.compiled.to_symbols(word) {
            Some(symbols) => self.matches_symbols(&symbols),
            None => false,
        }
    }

    /// Whether the word, given as interned symbols, belongs to the content
    /// model: [`Self::pos_begin`], one [`Self::pos_advance`] per symbol,
    /// then [`Self::pos_can_end`] — the loop the schema validator runs.
    /// Counted expressions run [`NfaSimulationMatcher::matches`] instead.
    pub fn matches_symbols(&self, word: &[Symbol]) -> bool {
        let Some(mut p) = self.pos_begin() else {
            return self.counted_matcher().is_some_and(|nfa| nfa.matches(word));
        };
        for &symbol in word {
            match self.pos_advance(p, symbol) {
                Some(q) => p = q,
                None => return false,
            }
        }
        self.pos_can_end(p)
    }

    /// Validates a batch of words. Star-free expressions use the
    /// single-traversal multi-word algorithm of Theorem 4.12; other
    /// expressions fall back to word-by-word matching.
    pub fn matches_all<W: AsRef<[Symbol]>>(&self, words: &[W]) -> Vec<bool> {
        if let MatcherImpl::StarFree(m) = &self.matcher {
            return m.sim().match_words(words);
        }
        words
            .iter()
            .map(|w| self.matches_symbols(w.as_ref()))
            .collect()
    }
}

impl fmt::Debug for DeterministicRegex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeterministicRegex")
            .field("strategy", &self.strategy)
            .field("stats", self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_and_match_dtd_model() {
        let model = DeterministicRegex::compile("(title, author+, (year | date)?)").unwrap();
        assert!(model.matches(&["title", "author"]));
        assert!(model.matches(&["title", "author", "author", "date"]));
        assert!(!model.matches(&["title"]));
        assert!(!model.matches(&["title", "author", "year", "date"]));
        assert!(!model.matches(&["title", "unknown-element"]));
    }

    #[test]
    fn rejects_nondeterministic_models() {
        for input in ["(a* b a + b b)*", "a b* b", "(a b){1,2} a"] {
            let diag = DeterministicRegex::compile(input)
                .map(|_| ())
                .expect_err(input);
            assert_eq!(diag.code(), Code::NotDeterministic, "{input}");
        }
    }

    #[test]
    fn strategy_selection() {
        let star_free = DeterministicRegex::compile("(a + b) (c + d)?").unwrap();
        assert_eq!(star_free.strategy(), MatchStrategy::StarFree);

        let small_k = DeterministicRegex::compile("(a b + b b? a)*").unwrap();
        assert_eq!(small_k.strategy(), MatchStrategy::KOccurrence);

        // Many occurrences of a (k = 5) with small alternation depth and a
        // star (so the star-free and k-occurrence strategies do not apply).
        let path = DeterministicRegex::compile(
            "(a x1 + b y1)(a x2 + b y2)(a x3 + b y3)(a x4 + b y4)(a x5 + b y5) r*",
        )
        .unwrap();
        assert_eq!(path.strategy(), MatchStrategy::PathDecomposition);
    }

    #[test]
    fn explicit_strategies_agree() {
        let input = "(c?((a b*)(a? c)))*(b a)";
        let words: Vec<Vec<&str>> = vec![
            vec!["b", "a"],
            vec!["a", "c", "b", "a"],
            vec!["c", "a", "c", "b", "a"],
            vec!["a", "b", "b", "a", "c", "b", "a"],
            vec!["a", "b"],
            vec![],
            vec!["c", "c"],
        ];
        let strategies = [
            MatchStrategy::KOccurrence,
            MatchStrategy::PathDecomposition,
            MatchStrategy::ColoredAncestor,
            MatchStrategy::GlushkovDfa,
        ];
        let reference =
            DeterministicRegex::compile_with(input, MatchStrategy::GlushkovDfa).unwrap();
        for strategy in strategies {
            let model = DeterministicRegex::compile_with(input, strategy).unwrap();
            for w in &words {
                assert_eq!(
                    model.matches(w),
                    reference.matches(w),
                    "{strategy:?} on {w:?}"
                );
            }
        }
    }

    #[test]
    fn strategy_switching_shares_the_artifact() {
        let model = DeterministicRegex::compile("(c?((a b*)(a? c)))*(b a)").unwrap();
        let switched = model.with_strategy(MatchStrategy::ColoredAncestor).unwrap();
        // Same Arc: nothing upstream of matcher construction was redone.
        assert!(Arc::ptr_eq(model.compiled(), switched.compiled()));
        assert_eq!(switched.strategy(), MatchStrategy::ColoredAncestor);
        for w in [vec!["b", "a"], vec!["a", "c", "b", "a"], vec!["a", "b"]] {
            assert_eq!(model.matches(&w), switched.matches(&w), "{w:?}");
        }
        // And back through every strategy, still on the same artifact.
        for strategy in [
            MatchStrategy::KOccurrence,
            MatchStrategy::PathDecomposition,
            MatchStrategy::GlushkovDfa,
            MatchStrategy::Auto,
        ] {
            let again = switched.with_strategy(strategy).unwrap();
            assert!(Arc::ptr_eq(model.compiled(), again.compiled()));
        }
    }

    #[test]
    fn early_reject_is_final() {
        let model = DeterministicRegex::compile("(title, author+, year?)").unwrap();
        let sigma = model.alphabet();
        let title = sigma.lookup("title").unwrap();
        let year = sigma.lookup("year").unwrap();
        let p = model.pos_begin().unwrap();
        let p = model.pos_advance(p, title).unwrap();
        // `year` cannot follow `title` directly, and no extension of
        // `title year` is in the language.
        assert_eq!(model.pos_advance(p, year), None);
        assert!(!model.matches_symbols(&[title, year]));
        assert!(!model.matches(&["title", "year", "author"]));
    }

    #[test]
    fn dtd_plus_models_get_linear_matchers_and_a_certificate() {
        // `author+` used to classify the model as "counting", routing it to
        // the unrolled-NFA simulation with a misleading GlushkovDfa report.
        let model = DeterministicRegex::compile("(title, author+, (year | date)?)").unwrap();
        assert!(!model.stats().counting);
        assert_eq!(model.strategy(), MatchStrategy::KOccurrence);
        assert!(model.certificate().is_some(), "plus models are certified");
        assert!(model.matches(&["title", "author", "author", "author", "date"]));
        assert!(!model.matches(&["title", "date"]));
        // Every applicable strategy agrees on the plus model; the path
        // decomposition is proven for the `∗`-only grammar and reports
        // itself not applicable.
        let words: Vec<Vec<&str>> = vec![
            vec!["title", "author"],
            vec!["title", "author", "author", "year"],
            vec!["title"],
            vec!["author"],
            vec![],
        ];
        for strategy in [MatchStrategy::ColoredAncestor, MatchStrategy::GlushkovDfa] {
            let switched = model.with_strategy(strategy).unwrap();
            for w in &words {
                assert_eq!(switched.matches(w), model.matches(w), "{strategy:?} {w:?}");
            }
        }
        assert_eq!(
            model
                .with_strategy(MatchStrategy::PathDecomposition)
                .unwrap_err()
                .code(),
            Code::StrategyNotApplicable
        );
    }

    #[test]
    fn flat_stepping_interface_agrees_with_whole_word_matching() {
        let model = DeterministicRegex::compile("(c?((a b*)(a? c)))*(b a)").unwrap();
        let sigma = model.alphabet();
        let word: Vec<Symbol> = ["c", "a", "c", "b", "a"]
            .iter()
            .map(|n| sigma.lookup(n).unwrap())
            .collect();
        let mut pos = model.pos_begin().expect("counting-free");
        for (i, &sym) in word.iter().enumerate() {
            assert_eq!(model.pos_can_end(pos), model.matches_symbols(&word[..i]));
            pos = model.pos_advance(pos, sym).expect("member word");
        }
        assert!(model.pos_can_end(pos));
        assert!(model.matches_symbols(&word));
        // A symbol with no continuation.
        let c = sigma.lookup("c").unwrap();
        assert_eq!(model.pos_advance(pos, c), None);
        assert!(model.counted_matcher().is_none());

        // Counted expressions have no position machine; the owned-state
        // simulation is exposed instead.
        let counted = DeterministicRegex::compile("(a b){2,3} c").unwrap();
        assert!(counted.pos_begin().is_none());
        let nfa = counted.counted_matcher().expect("counted simulation");
        let sigma = counted.alphabet();
        let (a, b, c) = (
            sigma.lookup("a").unwrap(),
            sigma.lookup("b").unwrap(),
            sigma.lookup("c").unwrap(),
        );
        let mut state = redet_automata::NfaScratch::new();
        nfa.reset(&mut state);
        for sym in [a, b, a, b, c] {
            assert!(nfa.step(&mut state, sym), "member word");
        }
        assert!(nfa.state_accepts(&state));
        // One more `c` kills the state: step reports it and leaves the set
        // untouched.
        assert!(!nfa.step(&mut state, c));
        assert!(nfa.state_accepts(&state), "state unchanged after rejection");
    }

    #[test]
    fn counted_expressions_match_their_true_language() {
        let model = DeterministicRegex::compile("(a b){2,2} a (b + d)").unwrap();
        assert!(model.matches(&["a", "b", "a", "b", "a", "d"]));
        assert!(model.matches(&["a", "b", "a", "b", "a", "b"]));
        // Only exactly two iterations are allowed.
        assert!(!model.matches(&["a", "b", "a", "d"]));
        assert!(!model.matches(&["a", "b", "a", "b", "a", "b", "a", "d"]));
    }

    #[test]
    fn counted_expressions_report_the_simulation_fallback() {
        // The strategy report is what actually runs — the unrolled
        // simulation — not the requested strategy.
        let model = DeterministicRegex::compile("(a b){2,4} c").unwrap();
        assert_eq!(model.strategy(), MatchStrategy::CountedSimulation);
        for requested in [
            MatchStrategy::KOccurrence,
            MatchStrategy::ColoredAncestor,
            MatchStrategy::GlushkovDfa,
        ] {
            let switched = model.with_strategy(requested).unwrap();
            assert_eq!(
                switched.strategy(),
                MatchStrategy::CountedSimulation,
                "{requested:?}"
            );
        }
        // And the reverse direction: the simulation cannot be requested for
        // counting-free expressions.
        let plain = DeterministicRegex::compile("(a b)*").unwrap();
        assert_eq!(
            plain
                .with_strategy(MatchStrategy::CountedSimulation)
                .unwrap_err()
                .code(),
            Code::StrategyNotApplicable
        );
    }

    #[test]
    fn star_free_batch_validation() {
        let model = DeterministicRegex::compile("(a + b) (c + d)? e?").unwrap();
        let sigma = model.alphabet();
        let to_word = |names: &[&str]| -> Vec<Symbol> {
            names.iter().map(|n| sigma.lookup(n).unwrap()).collect()
        };
        let words = vec![
            to_word(&["a"]),
            to_word(&["a", "c", "e"]),
            to_word(&["b", "d"]),
            to_word(&["c"]),
            to_word(&["a", "e", "c"]),
        ];
        assert_eq!(
            model.matches_all(&words),
            vec![true, true, true, false, false]
        );
    }

    #[test]
    fn strategy_not_applicable_errors() {
        let diag = DeterministicRegex::compile_with("(a b)*", MatchStrategy::StarFree).unwrap_err();
        assert_eq!(diag.code(), Code::StrategyNotApplicable);
    }

    #[test]
    fn normalization_is_applied() {
        let model = DeterministicRegex::compile("((a?)*)?").unwrap();
        assert!(model.matches(&[]));
        assert!(model.matches(&["a", "a", "a"]));
        assert!(model.stats().nullable);
    }

    #[test]
    fn invalid_syntax_is_reported() {
        assert_eq!(
            DeterministicRegex::compile("(a b").unwrap_err().code(),
            Code::Parse
        );
        assert_eq!(
            DeterministicRegex::compile("a{0,0}").unwrap_err().code(),
            Code::Syntax
        );
    }
}
