//! Concurrency equivalence suite for schema-level validation.
//!
//! A compiled [`Schema`] is immutable and `Send + Sync`; all validation
//! state lives in per-thread `DocumentValidator`s. These tests pin the
//! contract that parallel serving **changes nothing semantically**:
//!
//! * N threads validating a shuffled corpus against one shared
//!   `Arc<Schema>` produce diagnostics byte-identical to the
//!   single-threaded validator's, document by document;
//! * a validator owns its schema, so it moves to another thread and back
//!   and keeps validating.
//!
//! The corpus mixes valid generated books with seeded corruptions (swapped
//! children, truncations, misplaced and unknown elements) so both the
//! accepting hot path and every diagnostic path run under contention.

use redet::{DocEvent, Schema, SchemaBuilder};
use redet_bench::book_document_events;
use redet_workloads::rng::StdRng;
use std::sync::Arc;

fn book_schema() -> Arc<Schema> {
    SchemaBuilder::new()
        .parse_dtd(redet_workloads::BOOK_DTD)
        .build()
        .expect("BOOK_DTD compiles")
}

/// Renders a validation outcome so equivalence means *byte-identical
/// diagnostics* (codes, messages, paths, event indices), not just matching
/// verdicts.
fn render(result: &Result<(), Vec<redet::Diagnostic>>) -> String {
    match result {
        Ok(()) => "ok".to_owned(),
        Err(diagnostics) => diagnostics
            .iter()
            .map(|d| format!("[{:?}] {d}", d.code()))
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

/// A corpus of valid and seeded-corrupt documents.
fn corpus(schema: &Schema, documents: usize) -> Vec<Vec<DocEvent>> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    (0..documents)
        .map(|i| {
            let mut events = book_document_events(schema, 1 + i % 3, i as u64);
            match i % 5 {
                // Keep every 5th document valid.
                0 => {}
                // Swap two adjacent open events (children out of order).
                1 => {
                    let opens: Vec<usize> = (0..events.len() - 1)
                        .filter(|&j| {
                            matches!(events[j], DocEvent::Open(_))
                                && matches!(events[j + 1], DocEvent::Open(_))
                        })
                        .collect();
                    if let Some(&j) = opens.get(rng.gen_range(0..opens.len().max(1))) {
                        events.swap(j, j + 1);
                    }
                }
                // Truncate: unclosed elements.
                2 => {
                    let keep = rng.gen_range(events.len() / 2..events.len());
                    events.truncate(keep);
                }
                // Drop a close: unbalanced nesting further up.
                3 => {
                    let closes: Vec<usize> = (0..events.len())
                        .filter(|&j| events[j] == DocEvent::Close)
                        .collect();
                    let j = closes[rng.gen_range(0..closes.len())];
                    events.remove(j);
                }
                // Replace an element with a different one (misplaced child).
                _ => {
                    let opens: Vec<usize> = (0..events.len())
                        .filter(|&j| matches!(events[j], DocEvent::Open(_)))
                        .collect();
                    let j = opens[rng.gen_range(0..opens.len())];
                    let replacement = schema
                        .lookup(if i % 2 == 0 { "locator" } else { "chapter" })
                        .unwrap();
                    events[j] = DocEvent::Open(replacement);
                }
            }
            events
        })
        .collect()
}

#[test]
fn threads_produce_byte_identical_diagnostics() {
    let schema = book_schema();
    let documents = corpus(&schema, 40);

    // Single-threaded reference, in input order.
    let mut reference = schema.validator();
    let expected: Vec<String> = documents
        .iter()
        .map(|doc| render(&reference.validate_events(doc)))
        .collect();
    assert!(
        expected.iter().any(|r| r == "ok") && expected.iter().any(|r| r != "ok"),
        "sanity: the corpus mixes valid and invalid documents"
    );

    // N threads over a *shuffled* assignment of the same corpus, each with
    // its own validator from the shared Arc<Schema>, every validator
    // serving many documents back to back.
    let mut shuffled: Vec<usize> = (0..documents.len()).collect();
    let mut rng = StdRng::seed_from_u64(7);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..i + 1));
    }
    let threads = 4;
    let chunk = shuffled.len().div_ceil(threads);
    let results = std::sync::Mutex::new(vec![String::new(); documents.len()]);
    std::thread::scope(|scope| {
        for assignment in shuffled.chunks(chunk) {
            let mut validator = schema.validator();
            let (documents, results) = (&documents, &results);
            scope.spawn(move || {
                for &index in assignment {
                    let rendered = render(&validator.validate_events(&documents[index]));
                    results.lock().unwrap()[index] = rendered;
                }
            });
        }
    });
    let results = results.into_inner().unwrap();
    for (index, (got, want)) in results.iter().zip(&expected).enumerate() {
        assert_eq!(
            got, want,
            "document {index}: diagnostics differ across threads"
        );
    }
}

#[test]
fn validators_move_across_threads_with_their_schema() {
    // The satellite regression: validators used to borrow the schema and
    // could not leave the thread (or even the stack frame) that owned it.
    let validator = {
        let schema = book_schema();
        schema.validator()
    }; // the schema Arc binding is gone; the validator keeps it alive
    let mut validator = validator;
    let handle = std::thread::spawn(move || {
        let schema = validator.schema();
        let doc = book_document_events(schema, 2, 99);
        let first = validator.validate_events(&doc).is_ok();
        (first, validator)
    });
    let (ok, mut validator) = handle.join().unwrap();
    assert!(ok, "generated documents are valid");
    // And back on the main thread, still warm and functional.
    let doc = book_document_events(validator.schema(), 1, 7);
    assert!(validator.validate_events(&doc).is_ok());
}
