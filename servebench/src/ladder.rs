//! The traced in-process layer ladder: the workload's documents pushed
//! through each layer's public functions, one rung at a time, with a span
//! around every call (or per document, where a single call costs less
//! than reading the clock).
//!
//! A rung's time is the sum of its spans in one pass over the documents;
//! every figure is the median over passes. A layer's self time is its rung
//! minus the rungs it contains (tokenize ⊂ tokenize + lookup ⊂ service).

use crate::corpus::Corpus;
use crate::trace::{total, Span, Tracer};
use redet_automata::NfaScratch;
use redet_schema::registry::Registry;
use redet_schema::{DocEvent, Schema, Tag, Tokenizer};
use redet_syntax::Symbol;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chunk size for `Tokenizer::feed` and `ValidationService::feed_bytes`.
const CHUNK: usize = 4096;
/// Documents a service holds in flight at once.
const IN_FLIGHT: usize = 64;
/// Passes run at least, whatever the time budget.
const MIN_PASSES: usize = 3;
/// Passes run at most: enough for steady medians, few enough to keep the
/// written trace small.
const MAX_PASSES: usize = 64;

/// One document pre-digested for the rungs that start after tokenizing.
struct Digest {
    /// Its interned event stream, cut at the first unknown name or
    /// tokenizer error.
    events: Vec<DocEvent>,
    /// `(element, child word)` for each element with a content model.
    words: Vec<(Symbol, Vec<Symbol>)>,
    /// Tag and attribute names looked up.
    names: u64,
    /// Tokenizer events.
    tags: u64,
}

/// The ladder's results, in nanoseconds per pass unless named otherwise.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Passes run.
    pub passes: usize,
    /// Tokenizer events per pass.
    pub tags: u64,
    /// Names looked up per pass.
    pub names: u64,
    /// Validator events per pass.
    pub events: u64,
    /// Matcher steps per pass.
    pub steps: u64,
    /// Body bytes per pass, all documents.
    pub bytes: f64,
    /// Body bytes of the plain and the entity-dense documents.
    pub plain_bytes: f64,
    /// See `plain_bytes`.
    pub entity_bytes: f64,
    /// Documents per pass.
    pub docs: f64,
    /// `Tokenizer::feed` over all, plain and entity documents.
    pub tokenize: f64,
    /// See `tokenize`.
    pub tokenize_plain: f64,
    /// See `tokenize`.
    pub tokenize_entity: f64,
    /// `Tokenizer::feed` with `Schema::lookup_bytes` on every name.
    pub lookup: f64,
    /// `DocumentValidator::validate_events`, all and entity documents.
    pub validate: f64,
    /// See `validate`.
    pub validate_entity: f64,
    /// Matcher stepping over every content model's child word.
    pub matcher: f64,
    /// `ValidationService::feed_bytes` alone.
    pub feed: f64,
    /// `try_open` + `finish`.
    pub open_finish: f64,
    /// `feed_bytes` + `try_open` + `finish`, entity documents only.
    pub service_entity: f64,
    /// Wall time of the traced service rung.
    pub service_wall_traced: f64,
    /// Wall time of the same rung without spans.
    pub service_wall_untraced: f64,
    /// `ValidationService::validate_bytes` per pass.
    pub validate_bytes: f64,
    /// `Registry::compile` of every start-up DTD on an empty registry.
    pub compile_cold: f64,
    /// The same texts again, served from the cache.
    pub compile_cached: f64,
    /// Start-up DTDs compiled per pass.
    pub compiles: f64,
    /// `RegistryStats` hit ratio over start-up plus the publish sequence.
    pub hit_ratio: f64,
    /// Documents the service rejected, as a share of all.
    pub reject_frac: f64,
}

/// Runs ladder passes over `corpus` until `budget` is spent or
/// [`MAX_PASSES`] are done (at least [`MIN_PASSES`]), recording spans into
/// `tracer`.
pub fn run(corpus: &Corpus, budget: Duration, tracer: &mut Tracer) -> Ladder {
    let schemas: Vec<Arc<Schema>> = {
        let mut registry = Registry::new();
        corpus
            .slots
            .iter()
            .map(|s| {
                registry
                    .compile(&s.dtd)
                    .expect("the oracle compiled every slot")
            })
            .collect()
    };
    let digests: Vec<Digest> = corpus
        .docs
        .iter()
        .map(|d| digest(&schemas[d.slot], &d.body))
        .collect();
    let entity = |i: usize| corpus.docs[i].entity;
    let plain = |i: usize| !corpus.docs[i].entity;
    let all = |_: usize| true;

    let mut ladder = Ladder {
        tags: digests.iter().map(|d| d.tags).sum(),
        names: digests.iter().map(|d| d.names).sum(),
        events: digests.iter().map(|d| d.events.len() as u64).sum(),
        steps: digests
            .iter()
            .flat_map(|d| d.words.iter().map(|(_, w)| w.len() as u64))
            .sum(),
        bytes: corpus.body_bytes() as f64,
        plain_bytes: bytes_of(corpus, plain),
        entity_bytes: bytes_of(corpus, entity),
        docs: corpus.docs.len() as f64,
        compiles: corpus.slots.len() as f64,
        hit_ratio: hit_ratio(corpus),
        ..Ladder::default()
    };

    let mut per_pass: Vec<Ladder> = Vec::new();
    let started = Instant::now();
    while per_pass.len() < MIN_PASSES || (per_pass.len() < MAX_PASSES && started.elapsed() < budget)
    {
        tracer.lane = per_pass.len();
        let first = tracer.spans.len();
        let (traced_wall, untraced_wall, rejected) = pass(corpus, &schemas, &digests, tracer);
        let spans: &[Span] = &tracer.spans[first..];
        let service = |keep: &dyn Fn(usize) -> bool| {
            total(spans, "service.feed_bytes", keep)
                + total(spans, "service.try_open", keep)
                + total(spans, "service.finish", keep)
        };
        per_pass.push(Ladder {
            tokenize: total(spans, "tokenizer.feed", all),
            tokenize_plain: total(spans, "tokenizer.feed", plain),
            tokenize_entity: total(spans, "tokenizer.feed", entity),
            lookup: total(spans, "lookup.feed", all),
            validate: total(spans, "validator.validate_events", all),
            validate_entity: total(spans, "validator.validate_events", entity),
            matcher: total(spans, "matcher.step", all),
            feed: total(spans, "service.feed_bytes", all),
            open_finish: total(spans, "service.try_open", all)
                + total(spans, "service.finish", all),
            service_entity: service(&entity),
            service_wall_traced: traced_wall,
            service_wall_untraced: untraced_wall,
            validate_bytes: total(spans, "service.validate_bytes", all),
            compile_cold: total(spans, "registry.compile_cold", all),
            compile_cached: total(spans, "registry.compile_cached", all),
            reject_frac: rejected as f64 / corpus.docs.len() as f64,
            ..Ladder::default()
        });
    }

    let med = |f: fn(&Ladder) -> f64| crate::stats::median(per_pass.iter().map(f).collect());
    ladder.passes = per_pass.len();
    ladder.tokenize = med(|l| l.tokenize);
    ladder.tokenize_plain = med(|l| l.tokenize_plain);
    ladder.tokenize_entity = med(|l| l.tokenize_entity);
    ladder.lookup = med(|l| l.lookup);
    ladder.validate = med(|l| l.validate);
    ladder.validate_entity = med(|l| l.validate_entity);
    ladder.matcher = med(|l| l.matcher);
    ladder.feed = med(|l| l.feed);
    ladder.open_finish = med(|l| l.open_finish);
    ladder.service_entity = med(|l| l.service_entity);
    ladder.service_wall_traced = med(|l| l.service_wall_traced);
    ladder.service_wall_untraced = med(|l| l.service_wall_untraced);
    ladder.validate_bytes = med(|l| l.validate_bytes);
    ladder.compile_cold = med(|l| l.compile_cold);
    ladder.compile_cached = med(|l| l.compile_cached);
    ladder.reject_frac = med(|l| l.reject_frac);
    ladder
}

fn bytes_of(corpus: &Corpus, keep: impl Fn(usize) -> bool) -> f64 {
    (0..corpus.docs.len())
        .filter(|&i| keep(i))
        .map(|i| corpus.docs[i].body.len() as f64)
        .sum()
}

/// Tokenizes and interns one document into its event stream and child
/// words, the inputs of the validator and matcher rungs.
fn digest(schema: &Schema, body: &[u8]) -> Digest {
    let mut d = Digest {
        events: Vec::new(),
        words: Vec::new(),
        names: 0,
        tags: 0,
    };
    // Open elements: symbol and child word so far.
    let mut stack: Vec<(Symbol, Vec<Symbol>)> = Vec::new();
    let mut broken = false;
    let close = |d: &mut Digest, stack: &mut Vec<(Symbol, Vec<Symbol>)>| {
        if let Some((elem, word)) = stack.pop() {
            if schema.model(elem).is_some() {
                d.words.push((elem, word));
            }
        }
        d.events.push(DocEvent::Close);
    };
    let mut tokenizer = Tokenizer::default();
    for chunk in body.chunks(CHUNK) {
        tokenizer.feed(chunk, &mut |tag| {
            d.tags += 1;
            if broken {
                return true;
            }
            match tag {
                Tag::Open(name) => {
                    d.names += 1;
                    match schema.lookup_bytes(name) {
                        Some(sym) => {
                            if let Some((_, word)) = stack.last_mut() {
                                word.push(sym);
                            }
                            stack.push((sym, Vec::new()));
                            d.events.push(DocEvent::Open(sym));
                        }
                        None => broken = true,
                    }
                }
                Tag::Attr { name, .. } => {
                    d.names += 1;
                    match schema.lookup_bytes(name) {
                        Some(sym) => d.events.push(DocEvent::Attr(sym)),
                        None => broken = true,
                    }
                }
                Tag::Close(name) => {
                    d.names += 1;
                    close(&mut d, &mut stack);
                    broken |= schema.lookup_bytes(name).is_none();
                }
                Tag::SelfClose => close(&mut d, &mut stack),
                Tag::Text(_) => {
                    // One event per character-data run, however many
                    // segments the tokenizer splits it into.
                    if d.events.last() != Some(&DocEvent::Text) {
                        d.events.push(DocEvent::Text);
                    }
                }
                Tag::Error(_) => broken = true,
            }
            true
        });
    }
    d
}

/// One pass of every rung over every document. Returns the traced and the
/// untraced wall time of the service rung and the documents it rejected.
fn pass(
    corpus: &Corpus,
    schemas: &[Arc<Schema>],
    digests: &[Digest],
    tracer: &mut Tracer,
) -> (f64, f64, usize) {
    let mut tokenizer = Tokenizer::default();
    for (i, doc) in corpus.docs.iter().enumerate() {
        tokenizer.reset();
        for chunk in doc.body.chunks(CHUNK) {
            tracer.span("tokenizer.feed", i, || {
                tokenizer.feed(chunk, &mut |tag| {
                    black_box(&tag);
                    true
                })
            });
        }
    }

    for (i, doc) in corpus.docs.iter().enumerate() {
        let schema = &schemas[doc.slot];
        tokenizer.reset();
        for chunk in doc.body.chunks(CHUNK) {
            tracer.span("lookup.feed", i, || {
                tokenizer.feed(chunk, &mut |tag| {
                    match tag {
                        Tag::Open(name) | Tag::Close(name) | Tag::Attr { name, .. } => {
                            black_box(schema.lookup_bytes(name));
                        }
                        other => {
                            black_box(&other);
                        }
                    }
                    true
                })
            });
        }
    }

    let mut validators: Vec<_> = schemas.iter().map(Schema::validator).collect();
    for (i, doc) in corpus.docs.iter().enumerate() {
        let validator = &mut validators[doc.slot];
        tracer.span("validator.validate_events", i, || {
            black_box(validator.validate_events(&digests[i].events).is_ok())
        });
    }

    let mut scratch = NfaScratch::new();
    for (i, doc) in corpus.docs.iter().enumerate() {
        let schema = &schemas[doc.slot];
        tracer.span("matcher.step", i, || {
            for (elem, word) in &digests[i].words {
                black_box(step_word(schema, *elem, word, &mut scratch));
            }
        });
    }

    let started = Instant::now();
    let rejected = service_rung(corpus, schemas, Some(tracer));
    let traced = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    service_rung(corpus, schemas, None);
    let untraced = started.elapsed().as_nanos() as f64;

    let mut services: Vec<_> = schemas.iter().map(Schema::service).collect();
    for (i, doc) in corpus.docs.iter().enumerate() {
        let service = &mut services[doc.slot];
        tracer.span("service.validate_bytes", i, || {
            black_box(service.validate_bytes(&doc.body).is_ok())
        });
    }

    for (slot, info) in corpus.slots.iter().enumerate() {
        let mut registry = Registry::new();
        tracer.span("registry.compile_cold", slot, || {
            black_box(registry.compile(&info.dtd).is_ok())
        });
        tracer.span("registry.compile_cached", slot, || {
            black_box(registry.compile(&info.dtd).is_ok())
        });
    }
    (traced, untraced, rejected)
}

/// Steps one child word through its element's content model on the flat
/// interface the validator uses: `pos_advance` for position machines,
/// the unrolled NFA for counted models. Returns whether the word matches.
fn step_word(schema: &Schema, elem: Symbol, word: &[Symbol], scratch: &mut NfaScratch) -> bool {
    let Some(model) = schema.model(elem) else {
        return false;
    };
    if let Some(nfa) = model.counted_matcher() {
        nfa.reset(scratch);
        word.iter().all(|&s| nfa.step(scratch, s)) && nfa.state_accepts(scratch)
    } else {
        let Some(mut p) = model.pos_begin() else {
            return false;
        };
        for &s in word {
            match model.pos_advance(p, s) {
                Some(q) => p = q,
                None => return false,
            }
        }
        model.pos_can_end(p)
    }
}

/// Feeds every document through one service per slot, [`IN_FLIGHT`]
/// documents at a time in [`CHUNK`]-byte round-robin chunks, as a server
/// with that many open requests would. Spans when `tracer` is given.
/// Returns the documents rejected.
fn service_rung(
    corpus: &Corpus,
    schemas: &[Arc<Schema>],
    mut tracer: Option<&mut Tracer>,
) -> usize {
    let mut rejected = 0;
    for (slot, schema) in schemas.iter().enumerate() {
        let mut service = schema.service();
        let mine: Vec<usize> = (0..corpus.docs.len())
            .filter(|&i| corpus.docs[i].slot == slot)
            .collect();
        for batch in mine.chunks(IN_FLIGHT) {
            let mut handles = Vec::with_capacity(batch.len());
            for &i in batch {
                let handle = match tracer.as_deref_mut() {
                    Some(t) => t.span("service.try_open", i, || service.try_open()),
                    None => service.try_open(),
                };
                handles.push(handle.expect("the service has no in-flight cap"));
            }
            let mut offset = 0;
            loop {
                let mut live = false;
                for (k, &i) in batch.iter().enumerate() {
                    let body = &corpus.docs[i].body;
                    if offset >= body.len() {
                        continue;
                    }
                    live = true;
                    let chunk = &body[offset..(offset + CHUNK).min(body.len())];
                    match tracer.as_deref_mut() {
                        Some(t) => t.span("service.feed_bytes", i, || {
                            black_box(service.feed_bytes(handles[k], chunk))
                        }),
                        None => black_box(service.feed_bytes(handles[k], chunk)),
                    };
                }
                if !live {
                    break;
                }
                offset += CHUNK;
            }
            for (k, &i) in batch.iter().enumerate() {
                let verdict = match tracer.as_deref_mut() {
                    Some(t) => t.span("service.finish", i, || service.finish(handles[k])),
                    None => service.finish(handles[k]),
                };
                rejected += usize::from(verdict.is_err());
            }
        }
    }
    rejected
}

/// The registry's hit ratio over the workload's compile sequence: every
/// start-up DTD, then every publish body.
fn hit_ratio(corpus: &Corpus) -> f64 {
    let mut registry = Registry::new();
    for text in corpus
        .slots
        .iter()
        .map(|s| &s.dtd)
        .chain(corpus.publishes.iter().map(|p| &p.body))
    {
        registry
            .compile(text)
            .expect("the oracle compiled every version");
    }
    let stats = registry.stats();
    stats.hits as f64 / (stats.hits + stats.misses) as f64
}
