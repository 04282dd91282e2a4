//! The staged compilation pipeline and its shared artifact.
//!
//! Every algorithm in this workspace consumes the same `O(|e|)`
//! preprocessing: the interned alphabet, the normalized AST, the parse tree
//! with its LCA/`SupFirst`/`SupLast` machinery ([`TreeAnalysis`]), and — for
//! counting-free expressions — the determinism certificate with its colors
//! and per-symbol skeleta. [`CompiledAnalysis`] runs the stages exactly once
//! per expression:
//!
//! 1. **intern + parse** — symbols are interned into dense `u32` ids by an
//!    [`Alphabet`], the textual syntax is parsed, and the byte span of every
//!    position is recorded so diagnostics can point back into the source.
//!    [`CompiledAnalysis::compile`] parses into a fresh alphabet; a schema
//!    parses all of its content models into one alphabet, freezes it into
//!    one `Arc`, and hands that `Arc` to [`CompiledAnalysis::from_parsed`]
//!    for every model, so all models share one string ↔ symbol map;
//! 2. **normalize** — the structural restrictions (R2)/(R3) are enforced so
//!    the parse tree is linear in the number of positions, and the
//!    structural statistics ([`ExprStats`]) are computed;
//! 3. **analyze** — the parse tree is built, wrapped into `(# e′) $` (R1),
//!    and preprocessed for constant-time `checkIfFollow` (Theorem 2.4);
//! 4. **certify** — the linear-time determinism test (Theorem 3.5, or its
//!    counting extension of Section 3.3) runs; for counting-free expressions
//!    the certificate (colors + skeleta) is retained because the
//!    lowest-colored-ancestor matcher reuses it; for counted expressions the
//!    language-preserving unrolled simulation is built here, once.
//!
//! Failures at any stage surface as structured [`Diagnostic`]s with stable
//! codes, byte spans, and — for determinism conflicts — the witness
//! positions the certifier computes.
//!
//! The result is an immutable [`CompiledAnalysis`] behind an `Arc`. All five
//! matchers — k-occurrence, path decomposition, lowest colored ancestor,
//! star-free, and the Glushkov DFA baseline — are constructed *from* this
//! artifact (see the `from_compiled` constructors) without re-running any
//! stage, so switching matching strategies on an already-compiled expression
//! costs only the strategy's own preprocessing.

use crate::counting::check_counting_determinism;
use crate::determinism::{check_determinism, DeterminismCertificate, NonDeterminism};
use crate::diagnostics::{Code, ConflictWitness, Diagnostic};
use redet_automata::NfaSimulationMatcher;
use redet_syntax::{normalize, parse_spanned, Alphabet, ExprStats, Regex, Span, Symbol};
use redet_tree::TreeAnalysis;
use std::sync::Arc;

/// The immutable, shareable result of running an expression through the
/// pipeline: everything the matchers, the benchmarks and the facade need,
/// computed exactly once.
///
/// `CompiledAnalysis` is handed around behind an [`Arc`]; cloning the handle
/// is free and thread-safe, so one compiled schema can serve many validator
/// threads.
///
/// ```
/// use redet_core::pipeline::CompiledAnalysis;
///
/// let compiled = CompiledAnalysis::compile("(a b + b b? a)*").unwrap();
/// assert!(!compiled.stats().star_free);
/// assert_eq!(compiled.alphabet().len(), 2);
/// assert!(compiled.certificate().is_some());
/// ```
#[derive(Debug)]
pub struct CompiledAnalysis {
    /// The string ↔ symbol map; one `Arc` shared by every model of a schema.
    alphabet: Arc<Alphabet>,
    regex: Regex,
    stats: ExprStats,
    analysis: Arc<TreeAnalysis>,
    certificate: Option<Arc<DeterminismCertificate>>,
    /// For counted expressions: the set-of-positions simulation of the
    /// unrolled (language-preserving) expression, built once here because
    /// unrolling does not preserve determinism and every strategy falls back
    /// to it.
    counted_simulation: Option<Arc<NfaSimulationMatcher>>,
    /// The source text the expression was compiled from, when it came in as
    /// text (diagnostics quote it).
    source: Option<String>,
    /// Byte span of every alphabet position, in position order, when the
    /// expression was compiled from text.
    spans: Option<Vec<Span>>,
}

impl CompiledAnalysis {
    /// Runs the full pipeline on a textual content model with a fresh
    /// alphabet.
    pub fn compile(input: &str) -> Result<Arc<Self>, Diagnostic> {
        // Stage 1: intern + parse, keeping per-position source spans.
        let (regex, alphabet, spans) = parse_spanned(input)?;
        Self::from_parsed(regex, spans, input.to_owned(), Arc::new(alphabet))
    }

    /// Runs the normalize → analyze → certify stages on a content model
    /// already parsed from `source` (with
    /// [`redet_syntax::parse_spanned_with_alphabet`]) into `alphabet`, which
    /// the artifact shares rather than copies. `spans` are the parser's
    /// per-position byte spans into `source`.
    ///
    /// ```
    /// use redet_core::pipeline::CompiledAnalysis;
    /// use redet_syntax::{parse_spanned_with_alphabet, Alphabet};
    /// use std::sync::Arc;
    ///
    /// let sources = ["(title, author+, year?)", "(title, author+, journal)"];
    /// let mut alphabet = Alphabet::new();
    /// let parsed: Vec<_> = sources
    ///     .iter()
    ///     .map(|source| parse_spanned_with_alphabet(source, &mut alphabet).unwrap())
    ///     .collect();
    /// let alphabet = Arc::new(alphabet);
    /// let models: Vec<_> = parsed
    ///     .into_iter()
    ///     .zip(sources)
    ///     .map(|((regex, spans, _), source)| {
    ///         CompiledAnalysis::from_parsed(regex, spans, source.into(), alphabet.clone()).unwrap()
    ///     })
    ///     .collect();
    /// // Both models read the one alphabet: "title" is one symbol in both.
    /// assert!(std::ptr::eq(models[0].alphabet(), models[1].alphabet()));
    /// ```
    pub fn from_parsed(
        regex: Regex,
        spans: Vec<Span>,
        source: String,
        alphabet: Arc<Alphabet>,
    ) -> Result<Arc<Self>, Diagnostic> {
        Self::from_parts(regex, alphabet, Some(source), Some(spans))
    }

    /// Runs the normalize → analyze → certify stages on an already-parsed
    /// AST and its alphabet.
    pub fn from_regex(regex: Regex, alphabet: Alphabet) -> Result<Arc<Self>, Diagnostic> {
        Self::from_parts(regex, Arc::new(alphabet), None, None)
    }

    fn from_parts(
        regex: Regex,
        alphabet: Arc<Alphabet>,
        source: Option<String>,
        spans: Option<Vec<Span>>,
    ) -> Result<Arc<Self>, Diagnostic> {
        // Stage 2: normalization (R2/R3) and structural statistics.
        let regex = normalize(regex)?;
        let stats = ExprStats::of(&regex);

        // Stage 3: the shared parse-tree analysis (Theorem 2.4).
        let analysis = Arc::new(TreeAnalysis::build(&regex));

        // Stage 4: determinism certification. The counting-aware test
        // subsumes the plain one; counting-free expressions keep the
        // certificate because the colored-ancestor matcher reuses it.
        let (certificate, counted_simulation) = if stats.counting {
            if let Err(conflict) = check_counting_determinism(&regex) {
                return Err(diagnose_conflict(&conflict, &alphabet, spans.as_deref()));
            }
            // Unrolling rewrites counters into unions/concatenations of
            // optionals and can reintroduce (R2)/(R3) violations (e.g. for
            // a nullable counted body); re-normalize before building the
            // simulation's parse tree.
            let unrolled = normalize(redet_automata::unroll_counting(&regex))?;
            let sim = Arc::new(NfaSimulationMatcher::build(&unrolled));
            (None, Some(sim))
        } else {
            match check_determinism(&analysis) {
                Ok(cert) => (Some(Arc::new(cert)), None),
                Err(conflict) => {
                    return Err(diagnose_conflict(&conflict, &alphabet, spans.as_deref()));
                }
            }
        };

        Ok(Arc::new(CompiledAnalysis {
            alphabet,
            regex,
            stats,
            analysis,
            certificate,
            counted_simulation,
            source,
            spans,
        }))
    }

    /// The interned alphabet of the expression — the single source of truth
    /// for the string ↔ symbol mapping.
    #[inline]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The normalized abstract syntax tree.
    #[inline]
    pub fn regex(&self) -> &Regex {
        &self.regex
    }

    /// Structural statistics (`k`, `c_e`, star-freedom, σ, …).
    #[inline]
    pub fn stats(&self) -> &ExprStats {
        &self.stats
    }

    /// The preprocessed parse tree (Theorem 2.4 queries and friends).
    #[inline]
    pub fn analysis(&self) -> &Arc<TreeAnalysis> {
        &self.analysis
    }

    /// The determinism certificate (colors and skeleta), when the expression
    /// is counting-free.
    #[inline]
    pub fn certificate(&self) -> Option<&Arc<DeterminismCertificate>> {
        self.certificate.as_ref()
    }

    /// The cached unrolled-expression simulation, when the expression uses
    /// numeric occurrence indicators.
    #[inline]
    pub fn counted_simulation(&self) -> Option<&Arc<NfaSimulationMatcher>> {
        self.counted_simulation.as_ref()
    }

    /// The source text this expression was compiled from, when it came in
    /// as text.
    #[inline]
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// The source byte span of tree position `p` (phantom markers and
    /// AST-built expressions have none).
    pub fn pos_span(&self, p: redet_tree::PosId) -> Option<Span> {
        span_of_position(self.spans.as_deref(), p)
    }

    /// Interns-free conversion of a word of element names into symbols.
    /// Returns `None` as soon as a name is not part of the alphabet — such a
    /// word cannot be a member of any content model over this alphabet.
    pub fn to_symbols(&self, word: &[&str]) -> Option<Vec<Symbol>> {
        word.iter().map(|name| self.alphabet.lookup(name)).collect()
    }
}

/// Maps a tree position to its source span: tree position `i` (1-based,
/// after the phantom `#`) was written at `spans[i - 1]`. The single home of
/// that offset convention.
fn span_of_position(spans: Option<&[Span]>, p: redet_tree::PosId) -> Option<Span> {
    p.index()
        .checked_sub(1)
        .and_then(|i| spans?.get(i))
        .copied()
}

/// Enriches the certifier's conflict witness into a [`Diagnostic`]: symbol
/// names from the alphabet, source spans from the parser's position map.
pub(crate) fn diagnose_conflict(
    conflict: &NonDeterminism,
    alphabet: &Alphabet,
    spans: Option<&[Span]>,
) -> Diagnostic {
    let name = alphabet.name(conflict.symbol).to_owned();
    let first_span = span_of_position(spans, conflict.first);
    let second_span = span_of_position(spans, conflict.second);
    let message = format!(
        "content model is not deterministic: two '{name}'-labeled positions can \
         follow a common position, so a one-pass parser reading '{name}' would \
         not know which occurrence to take"
    );
    let mut diag = Diagnostic::new(Code::NotDeterministic, message).with_witness(ConflictWitness {
        kind: conflict.kind,
        symbol: conflict.symbol,
        symbol_name: name,
        first: conflict.first,
        second: conflict.second,
        first_span,
        second_span,
    });
    if let Some(span) = second_span.or(first_span) {
        diag = diag.with_span(span);
    }
    diag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_carries_all_stages() {
        let compiled = CompiledAnalysis::compile("(a b + b b? a)*").unwrap();
        assert_eq!(compiled.alphabet().len(), 2);
        assert_eq!(compiled.stats().max_occurrences, 3);
        assert!(compiled.certificate().is_some());
        assert!(compiled.counted_simulation().is_none());
        assert!(compiled.analysis().tree().num_positions() >= 5);
        assert_eq!(compiled.source(), Some("(a b + b b? a)*"));
    }

    #[test]
    fn counted_expressions_cache_the_unrolled_simulation() {
        let compiled = CompiledAnalysis::compile("(a b){2,4} c").unwrap();
        assert!(compiled.stats().counting);
        assert!(compiled.certificate().is_none());
        assert!(compiled.counted_simulation().is_some());
    }

    #[test]
    fn nondeterministic_models_are_rejected_with_witness_spans() {
        let diag = CompiledAnalysis::compile("(a* b a + b b)*").unwrap_err();
        assert_eq!(diag.code(), Code::NotDeterministic);
        let witness = diag
            .witness()
            .expect("determinism conflicts carry a witness");
        assert_eq!(witness.symbol_name, "b");
        // Both spans point at 'b' occurrences in the source.
        for span in [witness.first_span.unwrap(), witness.second_span.unwrap()] {
            assert_eq!(&"(a* b a + b b)*"[span.start..span.end], "b");
        }
    }

    #[test]
    fn parse_and_syntax_errors_become_diagnostics() {
        assert_eq!(
            CompiledAnalysis::compile("(a b").unwrap_err().code(),
            Code::Parse
        );
        assert_eq!(
            CompiledAnalysis::compile("a{0,0}").unwrap_err().code(),
            Code::Syntax
        );
    }

    #[test]
    fn nullable_counted_bodies_unroll_to_normal_form() {
        // `(a?){2,3}` unrolls into optionals over nullable bodies; the
        // pipeline must re-normalize before building the simulation's parse
        // tree (this used to panic the (R2)/(R3) assertion).
        let compiled = CompiledAnalysis::compile("(a?){2,3}").unwrap();
        assert!(compiled.counted_simulation().is_some());
    }

    #[test]
    fn position_spans_map_back_into_the_source() {
        let source = "(title, author+, (year | date)?)";
        let compiled = CompiledAnalysis::compile(source).unwrap();
        let tree = compiled.analysis().tree();
        // Positions 1..=m are the alphabet positions in source order.
        let author = redet_tree::PosId::from_index(2);
        let span = compiled.pos_span(author).unwrap();
        assert_eq!(&source[span.start..span.end], "author");
        // Phantom markers have no span.
        assert_eq!(compiled.pos_span(tree.begin_pos()), None);
    }

    #[test]
    fn to_symbols_rejects_unknown_names() {
        let compiled = CompiledAnalysis::compile("(title, author+)").unwrap();
        assert!(compiled.to_symbols(&["title", "author"]).is_some());
        assert!(compiled.to_symbols(&["title", "intruder"]).is_none());
    }
}
