//! Regression suite for `e+` (DTD one-or-more) strategy routing.
//!
//! The path-decomposition matcher (Theorem 4.10) is proven for the
//! `∗`-only grammar of Section 2, where every iterating node is nullable;
//! a native `e+` is a *non-nullable* iterator and breaks its invariants.
//! These tests pin the routing contract:
//!
//! * automatic selection routes `e+` models to the k-occurrence or
//!   colored-ancestor matchers — with a **truthfully reported** strategy
//!   (what runs, not what was requested) and a determinism certificate;
//! * explicitly requesting `PathDecomposition` on an `e+` model fails with
//!   a clear [`Code::StrategyNotApplicable`] diagnostic instead of
//!   producing a silently wrong matcher;
//! * the routed matchers agree with the Glushkov DFA baseline and the NFA
//!   oracle on the `e+` language (one-or-more really is one-or-more).

use redet::{Code, DeterministicRegex, MatchStrategy, NfaSimulationMatcher, Symbol};

/// DTD-style `+` models together with the strategy auto-selection must
/// report for them (small `k` → k-occurrence; `k > 4` → colored-ancestor,
/// never path-decomposition, never the counted simulation).
const PLUS_MODELS: &[(&str, MatchStrategy)] = &[
    ("(title, author+, year?)", MatchStrategy::KOccurrence),
    ("(a b)+", MatchStrategy::KOccurrence),
    ("(a, b+, c)+, d", MatchStrategy::KOccurrence),
    ("(x, (a b)+, y)+", MatchStrategy::KOccurrence),
    (
        // `a` occurs five times: k-occurrence is out, and `+` keeps the
        // path decomposition out — colored-ancestor is the routed matcher.
        "(a x1 a x2 a x3 a x4 a x5)+",
        MatchStrategy::ColoredAncestor,
    ),
];

fn words_upto(alphabet: &[Symbol], max_len: usize) -> Vec<Vec<Symbol>> {
    let mut words: Vec<Vec<Symbol>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<Symbol>> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for w in &frontier {
            for &s in alphabet {
                let mut w2 = w.clone();
                w2.push(s);
                next.push(w2);
            }
        }
        words.extend(next.iter().cloned());
        frontier = next;
    }
    words
}

#[test]
fn plus_models_route_to_linear_matchers_with_certificates() {
    for &(input, expected) in PLUS_MODELS {
        let model = DeterministicRegex::compile(input).unwrap();
        assert!(
            model.stats().has_plus && !model.stats().counting,
            "{input}: `e+` is native one-or-more, not a counter"
        );
        assert_eq!(model.strategy(), expected, "{input}");
        assert!(
            model.certificate().is_some(),
            "{input}: counting-free models keep their determinism certificate"
        );
    }
}

#[test]
fn requesting_path_decomposition_on_plus_is_a_clear_error() {
    for &(input, _) in PLUS_MODELS {
        // At compile time.
        let diag = DeterministicRegex::compile_with(input, MatchStrategy::PathDecomposition)
            .map(|m| m.strategy())
            .expect_err(input);
        assert_eq!(diag.code(), Code::StrategyNotApplicable, "{input}");
        assert!(
            diag.message().contains("non-nullable iterator"),
            "{input}: the diagnostic must explain *why* — got: {}",
            diag.message()
        );
        // And when switching an already-compiled model.
        let model = DeterministicRegex::compile(input).unwrap();
        let diag = model
            .with_strategy(MatchStrategy::PathDecomposition)
            .map(|m| m.strategy())
            .expect_err(input);
        assert_eq!(diag.code(), Code::StrategyNotApplicable, "{input}");
        assert!(
            diag.message().contains("k-occurrence") || diag.message().contains("colored"),
            "{input}: the diagnostic should point at the applicable matchers — got: {}",
            diag.message()
        );
    }
}

#[test]
fn reported_strategy_is_what_runs_not_what_was_requested() {
    // Auto on a plus model: the report names the routed matcher.
    let model = DeterministicRegex::compile("(title, author+, year?)").unwrap();
    assert_eq!(model.strategy(), MatchStrategy::KOccurrence);
    // Explicitly requesting an applicable strategy is honored and reported.
    let colored = model.with_strategy(MatchStrategy::ColoredAncestor).unwrap();
    assert_eq!(colored.strategy(), MatchStrategy::ColoredAncestor);
    // Counted models (true counters, not `e+`) report the simulation that
    // actually runs, whatever was requested.
    let counted = DeterministicRegex::compile("(item{2,4}, total)").unwrap();
    assert_eq!(counted.strategy(), MatchStrategy::CountedSimulation);
    let switched = counted.with_strategy(MatchStrategy::KOccurrence).unwrap();
    assert_eq!(
        switched.strategy(),
        MatchStrategy::CountedSimulation,
        "no echo of the rejected request"
    );
}

#[test]
fn routed_plus_matchers_agree_with_dfa_and_nfa_oracle() {
    for &(input, _) in PLUS_MODELS {
        let auto = DeterministicRegex::compile(input).unwrap();
        let dfa = auto.with_strategy(MatchStrategy::GlushkovDfa).unwrap();
        let oracle = NfaSimulationMatcher::build(auto.regex());
        let alphabet: Vec<Symbol> = auto.alphabet().symbols().collect();
        let max_len = if alphabet.len() > 4 { 3 } else { 6 };
        for word in words_upto(&alphabet, max_len) {
            let want = oracle.matches(&word);
            assert_eq!(
                auto.matches_symbols(&word),
                want,
                "{input}: auto-routed matcher disagrees with the oracle on {word:?}"
            );
            assert_eq!(
                dfa.matches_symbols(&word),
                want,
                "{input}: DFA baseline disagrees with the oracle on {word:?}"
            );
        }
    }
}

#[test]
fn plus_is_one_or_more_exactly() {
    let model = DeterministicRegex::compile("(title, author+, year?)").unwrap();
    assert!(!model.matches(&["title"]), "zero authors must be rejected");
    assert!(model.matches(&["title", "author"]));
    assert!(model.matches(&["title", "author", "author", "author", "year"]));
    assert!(!model.matches(&["title", "year"]));

    // Iterated plus bodies nest.
    let nested = DeterministicRegex::compile("(a, b+, c)+, d").unwrap();
    assert!(nested.matches(&["a", "b", "c", "d"]));
    assert!(nested.matches(&["a", "b", "b", "c", "a", "b", "c", "d"]));
    assert!(!nested.matches(&["a", "c", "d"]), "inner + needs one b");
    assert!(!nested.matches(&["d"]), "outer + needs one iteration");

    // The colored-ancestor-routed model accepts whole iterations only.
    let wide = DeterministicRegex::compile("(a x1 a x2 a x3 a x4 a x5)+").unwrap();
    assert_eq!(wide.strategy(), MatchStrategy::ColoredAncestor);
    let one = ["a", "x1", "a", "x2", "a", "x3", "a", "x4", "a", "x5"];
    let two: Vec<&str> = one.iter().chain(one.iter()).copied().collect();
    assert!(wide.matches(&one));
    assert!(wide.matches(&two));
    assert!(!wide.matches(&one[..8]), "partial iteration");
    assert!(!wide.matches(&[]), "plus needs one iteration");
}
