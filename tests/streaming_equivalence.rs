//! Seeded property suite for the flat stepping interface the validator
//! runs (`pos_begin`/`pos_advance`/`pos_can_end`, and `reset`/`step`/
//! `state_accepts` for counted models). For **every** strategy — including
//! counted expressions and native `e+` models — stepping a word must agree
//! with whole-word matching, the Glushkov DFA baseline, and the NFA
//! language oracle at every prefix; the first failed step must land on the
//! event where the oracle dies; and that failure must be final (no
//! extension of the rejected prefix is ever accepted).

use redet::{
    DeterministicRegex, GlushkovDfaMatcher, MatchStrategy, NfaSimulationMatcher, PosStepper, Symbol,
};
use redet_automata::NfaScratch;
use redet_workloads as workloads;
use redet_workloads::rng::StdRng;

const ALL_STRATEGIES: &[MatchStrategy] = &[
    MatchStrategy::Auto,
    MatchStrategy::StarFree,
    MatchStrategy::KOccurrence,
    MatchStrategy::PathDecomposition,
    MatchStrategy::ColoredAncestor,
    MatchStrategy::GlushkovDfa,
    MatchStrategy::CountedSimulation,
];

/// A corpus exercising every structural feature: star-free, stars, native
/// `e+` (DTD plus), and numeric counters.
const CORPUS: &[&str] = &[
    "a",
    "(a + b) (c + d)? e?",
    "(title, author, (year | date)?)",
    "(a b + b (b?) a)*",
    "(c?((a b*)(a? c)))*(b a)",
    "(a (b + c (d + e)))*",
    "(a0 + a1 + a2 + a3 + a4)*",
    "x (a? b)* c",
    // Native one-or-more.
    "(a b)+",
    "(title, author+, (year | date)?)",
    "(a, b+, c)+, d",
    "(x, (a b)+, y)+",
    // Counted models (validated through the unrolled simulation).
    "(a b){2,2} a (b + d)",
    "(a b){2,4} c",
    "(item{1,4}, total)",
    "a{3} (b + c)",
];

/// What stepping a word reports: whether each prefix read so far is in
/// the language (`accepts[i]` for the first `i` symbols), and the event of
/// the first failed step, if any (stepping stops there).
#[derive(Debug, PartialEq, Eq)]
struct Run {
    accepts: Vec<bool>,
    death: Option<usize>,
}

/// Steps `state` through `word` with `step`, recording `accepts` after
/// every symbol until the first failed step.
fn run<S>(
    mut state: S,
    word: &[Symbol],
    mut step: impl FnMut(&mut S, Symbol) -> bool,
    accepts: impl Fn(&S) -> bool,
) -> Run {
    let mut out = Run {
        accepts: vec![accepts(&state)],
        death: None,
    };
    for (event, &symbol) in word.iter().enumerate() {
        if !step(&mut state, symbol) {
            out.death = Some(event);
            break;
        }
        out.accepts.push(accepts(&state));
    }
    out
}

/// Steps `word` through `oracle`'s position sets.
fn nfa_run(oracle: &NfaSimulationMatcher, word: &[Symbol]) -> Run {
    let mut state = NfaScratch::new();
    oracle.reset(&mut state);
    run(
        state,
        word,
        |state, symbol| oracle.step(state, symbol),
        |state| oracle.state_accepts(state),
    )
}

/// Steps `word` through `model` on the flat interface, as the schema
/// validator does: a position for counting-free models, the counted
/// simulation's position set otherwise.
fn flat_run(model: &DeterministicRegex, word: &[Symbol]) -> Run {
    match model.pos_begin() {
        Some(begin) => run(
            begin,
            word,
            |p, symbol| model.pos_advance(*p, symbol).map(|q| *p = q).is_some(),
            |&p| model.pos_can_end(p),
        ),
        None => nfa_run(model.counted_matcher().expect("counted model"), word),
    }
}

/// The model's expression with counters unrolled (re-normalized, because
/// unrolling can reintroduce (R2)/(R3) violations).
fn unrolled_regex(model: &DeterministicRegex) -> redet::Regex {
    redet::syntax::normalize(redet::automata::unroll_counting(model.regex()))
        .expect("unrolled expressions normalize")
}

/// Builds the language oracle for a compiled model: the set-of-positions
/// simulation of its (normalized, counting-unrolled) expression.
fn oracle_for(model: &DeterministicRegex) -> NfaSimulationMatcher {
    if model.stats().counting {
        NfaSimulationMatcher::build(&unrolled_regex(model))
    } else {
        NfaSimulationMatcher::build(model.regex())
    }
}

/// Sample words for a model: members of the language plus uniform noise.
fn sample_words(model: &DeterministicRegex, seed: u64) -> Vec<Vec<Symbol>> {
    let sampling_regex = if model.stats().counting {
        unrolled_regex(model)
    } else {
        model.regex().clone()
    };
    let mut words = vec![Vec::new()];
    for s in 0..8u64 {
        words.push(workloads::sample_member_word(
            &sampling_regex,
            3 + (s as usize) * 4,
            seed ^ (s * 7919),
        ));
        words.push(workloads::sample_random_word(
            model.alphabet(),
            (s as usize * 3) % 11,
            seed.wrapping_add(s),
        ));
    }
    words
}

/// Asserts the full equivalence bundle for one compiled model on one word:
/// the flat run equals the oracle's run (verdict at every prefix, event of
/// death), whole-word matching equals the reference verdict, and a failed
/// step is final.
fn assert_equivalent(
    model: &DeterministicRegex,
    oracle: &NfaSimulationMatcher,
    word: &[Symbol],
    expected: bool,
    context: &str,
) {
    let flat = flat_run(model, word);
    assert_eq!(flat, nfa_run(oracle, word), "flat run vs oracle: {context}");
    assert_eq!(
        flat.death.is_none() && flat.accepts[word.len()],
        expected,
        "flat verdict vs reference: {context}"
    );
    assert_eq!(
        model.matches_symbols(word),
        expected,
        "whole-word vs reference: {context}"
    );
    if let Some(event) = flat.death {
        // Direct witness of finality: no sampled extension of the rejected
        // prefix is accepted.
        let symbols: Vec<Symbol> = model.alphabet().symbols().collect();
        let mut extended = word[..=event].to_vec();
        for &extra in symbols.iter().take(3) {
            extended.push(extra);
            assert!(
                !model.matches_symbols(&extended),
                "extension of a rejected prefix accepted: {context}"
            );
        }
    }
}

/// Reference verdicts for `words`: the language oracle, cross-checked
/// against the Glushkov DFA wherever the model is counting-free.
fn reference_verdicts(
    model: &DeterministicRegex,
    oracle: &NfaSimulationMatcher,
    words: &[Vec<Symbol>],
) -> Vec<bool> {
    let dfa = GlushkovDfaMatcher::from_tree(model.analysis().tree())
        .ok()
        .filter(|_| !model.stats().counting);
    words
        .iter()
        .map(|w| {
            let want = oracle.matches(w);
            if let Some(dfa) = &dfa {
                assert_eq!(dfa.matches(w), want, "DFA vs oracle on {w:?}");
            }
            want
        })
        .collect()
}

#[test]
fn corpus_verdicts_agree_across_all_strategies() {
    for input in CORPUS {
        let reference = DeterministicRegex::compile(input)
            .unwrap_or_else(|e| panic!("{input} should compile: {e}"));
        let oracle = oracle_for(&reference);
        let words = sample_words(&reference, 0xDEADBEEF);
        let expected = reference_verdicts(&reference, &oracle, &words);
        for &strategy in ALL_STRATEGIES {
            let Ok(model) = reference.with_strategy(strategy) else {
                continue; // strategy not applicable to this expression
            };
            for (word, &want) in words.iter().zip(&expected) {
                assert_equivalent(
                    &model,
                    &oracle,
                    word,
                    want,
                    &format!("{input} [{strategy:?}] {word:?}"),
                );
            }
        }
    }
}

#[test]
fn seeded_random_expressions_stream_like_they_match() {
    let mut rng = StdRng::seed_from_u64(0x5E5510);
    let mut checked = 0usize;
    let mut case = 0u64;
    while checked < 192 {
        case += 1;
        let positions = 1 + (rng.next_u64() as usize) % 12;
        let sigma = 1 + (rng.next_u64() as usize) % 3;
        let seed = rng.next_u64();
        let workload = workloads::random_expression(positions, sigma, seed);
        // Only deterministic expressions compile; that is the property's
        // precondition.
        let printed = redet::syntax::printer::to_string(&workload.regex, &workload.alphabet);
        let Ok(reference) = DeterministicRegex::compile(&printed) else {
            continue;
        };
        checked += 1;
        let oracle = oracle_for(&reference);
        let words = sample_words(&reference, seed);
        let expected = reference_verdicts(&reference, &oracle, &words);
        for &strategy in ALL_STRATEGIES {
            let Ok(model) = reference.with_strategy(strategy) else {
                continue;
            };
            for (word, &want) in words.iter().zip(&expected) {
                assert_equivalent(
                    &model,
                    &oracle,
                    word,
                    want,
                    &format!("case {case} ({printed}) [{strategy:?}] {word:?}"),
                );
            }
        }
    }
}

#[test]
fn schema_sized_dtd_streams_equivalently() {
    // The acceptance-scale schema: a DTD with 20+ element declarations
    // compiles into one Arc<Schema>, and for every element the flat
    // stepping runs equal the oracle and whole-word matching on sampled
    // child words.
    let schema = redet::SchemaBuilder::new()
        .parse_dtd(workloads::BOOK_DTD)
        .build()
        .expect("BOOK_DTD compiles");
    assert!(
        schema.len() >= 20,
        "schema has {} declarations",
        schema.len()
    );
    for sym in schema.elements() {
        let Some(model) = schema.model(sym) else {
            continue;
        };
        let oracle = oracle_for(model);
        let words = sample_words(model, 0xB00C ^ sym.index() as u64);
        let expected = reference_verdicts(model, &oracle, &words);
        for (word, want) in words.iter().zip(expected) {
            assert_equivalent(
                model,
                &oracle,
                word,
                want,
                &format!("<{}> {word:?}", schema.name(sym)),
            );
        }
    }
}
