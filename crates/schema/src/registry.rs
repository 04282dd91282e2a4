//! Multi-tenant schema registry: content-hashed compile cache and the
//! atomic hot-swap handle.
//!
//! A validation *service* assumes one compiled [`Schema`]; a validation
//! *fleet* sees thousands of schemas arriving, repeating, and changing
//! while documents are in flight. This module is the layer between
//! compilation and serving that makes that cheap:
//!
//! * **Content-hashed cache** — [`Registry::compile`] keys compiled
//!   artifacts by a 128-bit hash of the *whitespace-normalized* DTD text
//!   ([`content_hash`]), so byte-identical schema text — across tenants,
//!   reconnects, and repeated `redet serve --schema` flags — compiles
//!   exactly once and shares one `Arc<Schema>`. Hit/miss/compile counters
//!   ([`Registry::stats`]) make the dedup auditable. The cache holds at
//!   most [`MAX_CACHED`] artifacts and evicts the least recently used, so
//!   a stream of distinct texts cannot pin memory for the life of the
//!   process.
//! * **Concurrent compilation** — [`Registry::compile_shared`] compiles
//!   through a registry behind a `Mutex`, holding the lock only for the
//!   cache lookup and the insert, so threads compile in parallel; each
//!   compile owns its [`crate::SchemaBuilder`] pipeline, and the produced
//!   [`Schema`]s are `Send + Sync`.
//! * **Atomic hot-swap** — [`SharedSchema`] is a per-schema-id epoch
//!   handle: [`SharedSchema::publish`] atomically replaces the current
//!   `Arc<Schema>` and bumps the epoch, [`SharedSchema::load`] binds a
//!   caller to whatever is current. Handles already validating keep their
//!   own `Arc` clone until they finish, so the old artifact drops exactly
//!   when its last in-flight document closes. Built on
//!   `RwLock<Arc<Schema>>`: the workspace forbids `unsafe`, which rules
//!   out a homemade ArcSwap, and the write lock is held only for a
//!   pointer-sized store — readers clone an `Arc` under a read lock, a
//!   few nanoseconds, never across validation work.
//!
//! ```
//! use redet_schema::registry::Registry;
//!
//! let mut registry = Registry::new();
//! let a = registry.compile("<!ELEMENT note (#PCDATA)>").unwrap();
//! let b = registry.compile("<!ELEMENT  note  (#PCDATA)>  ").unwrap();
//! assert!(std::sync::Arc::ptr_eq(&a, &b)); // normalized text, one artifact
//! assert_eq!(registry.stats().compiled, 1);
//! assert_eq!(registry.stats().hits, 1);
//! ```

use crate::{Schema, SchemaBuilder};
use redet_core::Diagnostic;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// How many compiled artifacts the content-hash cache keeps. Past it the
/// least recently used artifact is evicted (it stays alive for as long as
/// anything else holds its `Arc`).
pub const MAX_CACHED: usize = 64;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Content hash of DTD source text: 128-bit FNV-1a over the
/// whitespace-normalized bytes.
///
/// Normalization folds every run of ASCII whitespace (space, tab, CR, LF,
/// form feed) to a single space and ignores leading/trailing whitespace,
/// so reformatting a DTD — reflowing declarations, converting line
/// endings, trailing newlines — does not change its identity. Anything
/// inside the text that survives normalization (names, models, attribute
/// defaults) does. The hash is dependency-free and streaming: no
/// intermediate normalized string is allocated.
#[must_use]
pub fn content_hash(source: &str) -> u128 {
    let mut hash = FNV_OFFSET;
    let mut pending_space = false;
    let mut started = false;
    for &byte in source.as_bytes() {
        if byte.is_ascii_whitespace() {
            pending_space = started;
            continue;
        }
        if pending_space {
            hash = (hash ^ u128::from(b' ')).wrapping_mul(FNV_PRIME);
            pending_space = false;
        }
        started = true;
        hash = (hash ^ u128::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Where a [`Registry::compile_traced`] artifact came from: a cache hit or
/// a fresh pipeline compilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// The normalized source hashed to an already-compiled artifact.
    Cached,
    /// The source was compiled through a fresh [`SchemaBuilder`] pipeline.
    Compiled,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Provenance::Cached => "cached",
            Provenance::Compiled => "compiled",
        })
    }
}

/// Cache-audit counters of a [`Registry`]; see [`Registry::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Compile requests served from the content-hash cache.
    pub hits: u64,
    /// Compile requests that could not be served from the cache, each of
    /// which ran the pipeline (failures count every time: rejected sources
    /// are never cached).
    pub misses: u64,
    /// Pipeline compilations actually performed (successes and failures).
    /// For a corpus of 256 sources with 32 distinct texts on a fresh
    /// registry this is exactly 32.
    pub compiled: u64,
    /// Distinct artifacts currently cached.
    pub cached: usize,
}

/// A per-schema-id hot-swap handle: the atomically publishable "current
/// schema" slot behind each route of a front end's schema table.
///
/// Cheap to share (`Arc<SharedSchema>`): front ends hold one handle per
/// schema id and [`SharedSchema::load`] the current artifact when opening
/// a document. [`SharedSchema::publish`] replaces the artifact atomically
/// and bumps the [`SharedSchema::epoch`] — loads that raced before the
/// publish keep their (old) `Arc` and finish on it; loads after bind the
/// new one. The old artifact is freed by `Arc` reference counting the
/// moment its last holder drops — the registry never has to track
/// in-flight documents.
#[derive(Debug)]
pub struct SharedSchema {
    current: RwLock<Arc<Schema>>,
    epoch: AtomicU64,
}

impl SharedSchema {
    /// Wraps `schema` as the handle's first published artifact (epoch 0).
    #[must_use]
    pub fn new(schema: Arc<Schema>) -> Self {
        SharedSchema {
            current: RwLock::new(schema),
            epoch: AtomicU64::new(0),
        }
    }

    /// The currently published artifact. The returned `Arc` is the
    /// caller's to keep: a publish after this load does not affect it.
    #[must_use]
    pub fn load(&self) -> Arc<Schema> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replaces the published artifact and returns the new
    /// epoch. Loads strictly ordered after this call observe `schema`;
    /// earlier loads keep the artifact they bound.
    pub fn publish(&self, schema: Arc<Schema>) -> u64 {
        let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *slot, schema);
        // Bumped while the write lock is held, so epoch observations under
        // a subsequent load() are never behind the artifact they saw.
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(slot);
        // The superseded artifact may be its last reference: free it
        // outside the lock.
        drop(old);
        epoch
    }

    /// How many times [`SharedSchema::publish`] has replaced the artifact
    /// (0 for a freshly created handle).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// The multi-tenant schema registry: a content-hashed compile cache.
///
/// Compilation goes through [`Registry::compile`]: identical normalized
/// DTD text compiles once and every caller shares the same `Arc<Schema>`.
/// Which artifact serves which schema id is not the registry's business:
/// front ends keep one [`SharedSchema`] per id and publish compiled
/// artifacts into it.
///
/// The registry itself is single-writer (`&mut self` for compilation);
/// [`Registry::compile_shared`] compiles through a registry behind a
/// `Mutex` without holding the lock across the compile.
#[derive(Debug, Default)]
pub struct Registry {
    /// Artifact plus the `clock` value of its last use, for LRU eviction.
    cache: HashMap<u128, (Arc<Schema>, u64)>,
    /// Bumped on every cache use.
    clock: u64,
    hits: u64,
    misses: u64,
    compiled: u64,
}

impl Registry {
    /// Creates an empty registry: no cached artifacts.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Compiles DTD source text, serving byte-identical (after whitespace
    /// normalization) text from the cache. On failure the *first* build
    /// diagnostic is returned — run [`SchemaBuilder`] directly for the
    /// full list — and nothing is cached: rejected text recompiles on
    /// every request.
    pub fn compile(&mut self, source: &str) -> Result<Arc<Schema>, Diagnostic> {
        self.compile_traced(source).map(|(schema, _)| schema)
    }

    /// [`Registry::compile`] plus the artifact's [`Provenance`] — whether
    /// this request hit the cache or performed a pipeline compilation.
    pub fn compile_traced(
        &mut self,
        source: &str,
    ) -> Result<(Arc<Schema>, Provenance), Diagnostic> {
        let hash = content_hash(source);
        if let Some(schema) = self.lookup(hash) {
            return Ok((schema, Provenance::Cached));
        }
        let built = Self::build(source);
        self.record(hash, &built);
        built.map(|schema| (schema, Provenance::Compiled))
    }

    /// [`Registry::compile_traced`] through a registry shared behind a
    /// `Mutex`: the lock is held for the cache lookup and for recording the
    /// result, never across the compile itself or while an evicted
    /// artifact is dropped, so one slow compile does not stall other
    /// threads' cache hits. Two threads missing on the same text at once
    /// both compile it; the later result replaces the earlier in the
    /// cache.
    pub fn compile_shared(
        registry: &Mutex<Registry>,
        source: &str,
    ) -> Result<(Arc<Schema>, Provenance), Diagnostic> {
        let lock = || registry.lock().unwrap_or_else(PoisonError::into_inner);
        let hash = content_hash(source);
        if let Some(schema) = lock().lookup(hash) {
            return Ok((schema, Provenance::Cached));
        }
        let built = Self::build(source);
        let evicted = lock().record(hash, &built);
        drop(evicted);
        built.map(|schema| (schema, Provenance::Compiled))
    }

    /// The cached artifact for `source` — a counted hit, marked most
    /// recently used — or `None`, which counts nothing: a caller that
    /// compiles the text itself pairs this with [`Registry::build`].
    pub fn cached(&mut self, source: &str) -> Option<Arc<Schema>> {
        self.lookup(content_hash(source))
    }

    /// A cache hit (counted, and marked most recently used), or `None`.
    fn lookup(&mut self, hash: u128) -> Option<Arc<Schema>> {
        self.clock += 1;
        let (schema, used) = self.cache.get_mut(&hash)?;
        *used = self.clock;
        self.hits += 1;
        Some(Arc::clone(schema))
    }

    /// Counts one compile of `hash` and caches a successful result,
    /// returning the artifact it evicted, if any, for the caller to drop.
    fn record(
        &mut self,
        hash: u128,
        built: &Result<Arc<Schema>, Diagnostic>,
    ) -> Option<Arc<Schema>> {
        self.misses += 1;
        self.compiled += 1;
        let schema = built.as_ref().ok()?;
        self.insert(hash, Arc::clone(schema))
    }

    /// Caches `schema` under `hash` as the most recently used artifact,
    /// evicting the least recently used one past [`MAX_CACHED`].
    fn insert(&mut self, hash: u128, schema: Arc<Schema>) -> Option<Arc<Schema>> {
        self.clock += 1;
        if let Some((old, _)) = self.cache.insert(hash, (schema, self.clock)) {
            return Some(old);
        }
        if self.cache.len() <= MAX_CACHED {
            return None;
        }
        let (&oldest, _) = self.cache.iter().min_by_key(|(_, (_, used))| *used)?;
        self.cache.remove(&oldest).map(|(schema, _)| schema)
    }

    /// Cache-audit counters: cumulative hits/misses/compilations plus the
    /// current number of cached artifacts.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits,
            misses: self.misses,
            compiled: self.compiled,
            cached: self.cache.len(),
        }
    }

    /// Compiles DTD source text without touching any cache, returning the
    /// first build diagnostic on failure — what a cache miss runs.
    pub fn build(source: &str) -> Result<Arc<Schema>, Diagnostic> {
        SchemaBuilder::new()
            .parse_dtd(source)
            .build()
            .map_err(|mut diagnostics| diagnostics.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note_dtd(extra: &str) -> String {
        format!("<!ELEMENT note (line{extra})*> <!ELEMENT line (#PCDATA)>")
    }

    #[test]
    fn hash_normalizes_whitespace() {
        let canonical = content_hash("<!ELEMENT a (b)> <!ELEMENT b EMPTY>");
        assert_eq!(
            content_hash("  <!ELEMENT a\t(b)>\r\n<!ELEMENT b EMPTY>\n"),
            canonical
        );
        assert_ne!(
            content_hash("<!ELEMENT a (b)> <!ELEMENT c EMPTY>"),
            canonical
        );
        // Whitespace folding must not merge adjacent tokens.
        assert_ne!(content_hash("a b"), content_hash("ab"));
    }

    #[test]
    fn identical_text_compiles_once() {
        let mut registry = Registry::new();
        let first = registry.compile(&note_dtd("")).unwrap();
        let second = registry.compile(&format!("  {}\n", note_dtd(""))).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = registry.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.compiled, stats.cached),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn failures_are_not_cached() {
        let mut registry = Registry::new();
        let bad = "<!ELEMENT a (b | b)>"; // not deterministic
        assert!(registry.compile(bad).is_err());
        assert!(registry.compile(bad).is_err());
        let stats = registry.stats();
        assert_eq!((stats.misses, stats.compiled, stats.cached), (2, 2, 0));
    }

    #[test]
    fn cache_evicts_the_least_recently_used() {
        let mut registry = Registry::new();
        let texts: Vec<String> = (0..MAX_CACHED + 10)
            .map(|i| note_dtd(&format!("{i}")))
            .collect();
        let first = registry.compile(&texts[0]).unwrap();
        for text in &texts[1..] {
            registry.compile(text).unwrap();
            // Keep the first text hot: it survives every eviction.
            registry.compile(&texts[0]).unwrap();
        }
        assert_eq!(registry.stats().cached, MAX_CACHED);
        let (again, provenance) = registry.compile_traced(&texts[0]).unwrap();
        assert_eq!(provenance, Provenance::Cached);
        assert!(Arc::ptr_eq(&first, &again));
        let last = texts.last().unwrap();
        assert_eq!(registry.compile_traced(last).unwrap().1, Provenance::Cached);
        // The oldest cold texts were evicted and compile again.
        assert_eq!(
            registry.compile_traced(&texts[1]).unwrap().1,
            Provenance::Compiled
        );
        assert_eq!(registry.stats().cached, MAX_CACHED);
    }

    #[test]
    fn cached_counts_only_hits() {
        let mut registry = Registry::new();
        let text = note_dtd("");
        assert!(registry.cached(&text).is_none());
        let built = Registry::build(&text).unwrap();
        assert_eq!(registry.stats(), RegistryStats::default());
        let compiled = registry.compile(&text).unwrap();
        assert!(!Arc::ptr_eq(&built, &compiled));
        let hit = registry.cached(&format!(" {text}\n")).unwrap();
        assert!(Arc::ptr_eq(&hit, &compiled));
        let stats = registry.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.compiled, stats.cached),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn shared_compiles_go_through_the_cache() {
        let registry = Mutex::new(Registry::new());
        let text = note_dtd("");
        let (a, first) = Registry::compile_shared(&registry, &text).unwrap();
        let (b, second) = Registry::compile_shared(&registry, &text).unwrap();
        assert_eq!((first, second), (Provenance::Compiled, Provenance::Cached));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Registry::compile_shared(&registry, "<!ELEMENT a (b | b)>").is_err());
        let stats = registry.lock().unwrap().stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.compiled, stats.cached),
            (1, 2, 2, 1)
        );
    }

    #[test]
    fn registry_and_handles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<SharedSchema>();
        assert_send_sync::<RegistryStats>();
    }

    #[test]
    fn shared_schema_loads_race_free_across_threads() {
        let mut registry = Registry::new();
        let handle = SharedSchema::new(registry.compile(&note_dtd("")).unwrap());
        let variants: Vec<Arc<Schema>> = (0..4)
            .map(|i| registry.compile(&note_dtd(&format!("{i}"))).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let handle = &handle;
                let variants = &variants;
                scope.spawn(move || {
                    for round in 0..200 {
                        let schema = handle.load();
                        // Every load observes some fully published artifact.
                        assert!(schema.lookup("note").is_some());
                        if round % 5 == worker {
                            handle.publish(Arc::clone(&variants[round % variants.len()]));
                        }
                    }
                });
            }
        });
        assert!(handle.epoch() >= 1);
    }
}
