//! Workspace-level cross-validation: the linear-time algorithms must agree
//! with the Glushkov baselines on randomly generated expressions and words.
//!
//! These are property-style tests driven by a seeded deterministic
//! generator (`redet_workloads::random_expression`) instead of an external
//! property-testing framework: every case is reproducible from its seed,
//! and failures print the offending expression.

use redet::core::matcher::pathdecomp::PathDecompositionMatcher;
use redet::core::matcher::starfree::StarFreeMatcher;
use redet::{
    check_determinism, ColoredAncestorMatcher, GlushkovAutomaton, GlushkovDfaMatcher,
    KOccurrenceMatcher, PosStepper, PositionMatcher, TreeAnalysis,
};
use redet_automata::glushkov_determinism;
use redet_syntax::{normalize, Regex, Symbol};
use redet_workloads as workloads;
use redet_workloads::rng::StdRng;
use std::sync::Arc;

const CASES: u64 = 256;

/// One random (often non-deterministic) expression over a small alphabet,
/// together with a mixed bag of member and random words.
fn random_workload(case: u64) -> (Regex, Vec<Vec<Symbol>>) {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ case);
    let positions = rng.gen_range(1usize..14);
    let sigma = rng.gen_range(1usize..4);
    let seed = rng.next_u64();
    let workload = workloads::random_expression(positions, sigma, seed);
    let regex = normalize(workload.regex).expect("random expressions normalize");
    let mut words = Vec::new();
    for s in 0..6u64 {
        words.push(workloads::sample_member_word(&regex, 12, seed ^ (s * 7919)));
        words.push(workloads::sample_random_word(
            &workload.alphabet,
            (seed as usize + s as usize) % 9,
            seed.wrapping_add(s),
        ));
    }
    (regex, words)
}

/// Theorem 3.5 cross-check: the linear-time determinism test agrees with
/// the Glushkov-automaton baseline on arbitrary expressions.
#[test]
fn determinism_test_agrees_with_glushkov() {
    for case in 0..CASES {
        let (regex, _) = random_workload(case);
        if regex.has_counting() {
            continue;
        }
        let analysis = TreeAnalysis::build(&regex);
        let linear = check_determinism(&analysis).is_ok();
        let baseline = glushkov_determinism(&GlushkovAutomaton::build(&regex)).is_ok();
        assert_eq!(linear, baseline, "case {case}: disagreement on {regex:?}");
    }
}

/// Theorems 4.2, 4.3, 4.10, 4.12: every matcher accepts exactly the same
/// words as the Glushkov DFA on deterministic expressions.
#[test]
fn matchers_agree_with_dfa() {
    for case in 0..CASES {
        let (regex, words) = random_workload(case);
        if regex.has_counting() {
            continue;
        }
        let Ok(dfa) = GlushkovDfaMatcher::build(&regex) else {
            // Non-deterministic: out of scope for the deterministic matchers.
            continue;
        };
        let analysis = Arc::new(TreeAnalysis::build(&regex));
        let certificate =
            Arc::new(check_determinism(&analysis).expect("DFA build implies determinism"));

        let kocc = PositionMatcher::new(KOccurrenceMatcher::new(analysis.clone()));
        let colored =
            PositionMatcher::new(ColoredAncestorMatcher::new(analysis.clone(), certificate));
        let pathdecomp = PathDecompositionMatcher::new(analysis.clone())
            .ok()
            .map(PositionMatcher::new);
        let starfree = StarFreeMatcher::new(analysis.clone())
            .ok()
            .map(PositionMatcher::new);

        for word in &words {
            let expected = dfa.matches(word);
            assert_eq!(
                kocc.matches(word),
                expected,
                "case {case}: k-occurrence on {regex:?} / {word:?}"
            );
            assert_eq!(
                colored.matches(word),
                expected,
                "case {case}: colored on {regex:?} / {word:?}"
            );
            if let Some(m) = &pathdecomp {
                assert_eq!(
                    m.matches(word),
                    expected,
                    "case {case}: path decomposition on {regex:?} / {word:?}"
                );
            }
            if let Some(m) = &starfree {
                assert_eq!(
                    m.matches(word),
                    expected,
                    "case {case}: star-free on {regex:?} / {word:?}"
                );
            }
        }

        // The star-free batch interface agrees with per-word matching.
        if let Some(m) = &starfree {
            let batch = m.sim().match_words(&words);
            let individual: Vec<bool> = words.iter().map(|w| dfa.matches(w)).collect();
            assert_eq!(
                batch, individual,
                "case {case}: batch star-free on {regex:?}"
            );
        }
    }
}

/// `checkIfFollow` (Theorem 2.4) agrees with the Glushkov follow lists on
/// arbitrary expressions, deterministic or not.
#[test]
fn check_if_follow_agrees_with_glushkov() {
    for case in 0..CASES {
        let (regex, _) = random_workload(case);
        let analysis = TreeAnalysis::build(&regex);
        let automaton = GlushkovAutomaton::build(&regex);
        let m = analysis.tree().num_positions();
        for p in 0..m {
            for q in 0..m {
                let p = redet::tree::PosId::from_index(p);
                let q = redet::tree::PosId::from_index(q);
                assert_eq!(
                    analysis.check_if_follow(p, q),
                    automaton.follow(p).binary_search(&q).is_ok(),
                    "case {case}: follow({p:?},{q:?}) on {regex:?}"
                );
            }
        }
    }
}

/// Deterministic workload families are accepted by the linear test and by
/// the baseline, and their structural statistics are as advertised.
#[test]
fn workload_families_are_deterministic() {
    let families: Vec<(&str, Regex)> = vec![
        ("mixed content", workloads::mixed_content(128).regex),
        ("CHARE", workloads::chare(40, 5, 3).regex),
        (
            "star-free CHARE",
            workloads::star_free_chare(40, 5, 4).regex,
        ),
        ("4-occurrence", workloads::k_occurrence(4, 6, 3, 5).regex),
        ("deep alternation", workloads::deep_alternation(8, 6).regex),
    ];
    for (name, regex) in families {
        let analysis = TreeAnalysis::build(&regex);
        assert!(
            check_determinism(&analysis).is_ok(),
            "{name} should be deterministic"
        );
        assert!(
            glushkov_determinism(&GlushkovAutomaton::build(&regex)).is_ok(),
            "{name} baseline"
        );
    }
}

/// The facade gives the same verdicts as driving the pieces by hand, for all
/// strategies, on the full deterministic family sweep — and strategy
/// switching shares one compilation artifact.
#[test]
fn facade_strategies_agree_on_workloads() {
    use redet::{DeterministicRegex, MatchStrategy};
    let workload = workloads::chare(15, 3, 9);
    let printed = redet::syntax::printer::to_string(&workload.regex, &workload.alphabet);
    let reference = DeterministicRegex::compile_with(&printed, MatchStrategy::GlushkovDfa).unwrap();
    let words: Vec<Vec<Symbol>> = (0..40)
        .map(|seed| workloads::sample_member_word(&workload.regex, 20, seed))
        .chain((0..40).map(|seed| workloads::sample_random_word(&workload.alphabet, 10, seed)))
        .collect();
    for strategy in [
        MatchStrategy::Auto,
        MatchStrategy::KOccurrence,
        MatchStrategy::PathDecomposition,
        MatchStrategy::ColoredAncestor,
    ] {
        // Strategy switching stays on the reference's compilation artifact.
        let model = reference.with_strategy(strategy).unwrap();
        assert!(Arc::ptr_eq(model.compiled(), reference.compiled()));
        for word in &words {
            assert_eq!(
                model.matches_symbols(word),
                reference.matches_symbols(word),
                "{strategy:?} on {word:?}"
            );
        }
    }
}
