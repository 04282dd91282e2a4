//! Seeded request streams for the three traffic mixes.
//!
//! Everything a run sends is generated here from the workload and the seed
//! alone: the schemas each id serves, the documents, the order the `V`
//! requests cycle through, and the `P` (publish) sequence. The same seed
//! yields byte-identical streams; [`Corpus::fingerprint`] hashes them so a
//! run can show which inputs it measured.

use redet_workloads::rng::StdRng;

/// One of the benchmark's traffic mixes; see `README.md` for why each
/// exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One connection, one small book document at a time.
    SmallSeq,
    /// Two connections pipelining large book documents, half entity-dense.
    BulkPipe,
    /// Paper content-model families behind four ids, hot-swapped while read.
    PaperModels,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 3] = [
        Workload::SmallSeq,
        Workload::BulkPipe,
        Workload::PaperModels,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallSeq => "small_seq",
            Workload::BulkPipe => "bulk_pipe",
            Workload::PaperModels => "paper_models",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Load connections, each driven by its own generator thread.
    pub fn connections(self) -> usize {
        match self {
            Workload::SmallSeq => 1,
            Workload::BulkPipe | Workload::PaperModels => 2,
        }
    }

    /// Requests a pipelining connection keeps in flight (1 = sequential).
    pub fn window(self) -> usize {
        match self {
            Workload::SmallSeq => 1,
            Workload::BulkPipe => 8,
            Workload::PaperModels => 4,
        }
    }

    /// The share of load windows the `V` figures pool: the calmest ones
    /// of a mix whose figures are bound by the server's CPU, all of them
    /// for `small_seq`. Its round trips are the server's idle sleep; the
    /// windows with the least server CPU per request there are the ones
    /// where the next request beat the server's idle check, not the ones
    /// where the machine ran undisturbed.
    pub fn calm_share(self) -> f64 {
        match self {
            Workload::SmallSeq => 1.0,
            Workload::BulkPipe | Workload::PaperModels => 0.125,
        }
    }

    /// How many `P` requests the corpus carries. `paper_models` publishes
    /// one every [`PUBLISH_INTERVAL_MS`] during the load, so its sequence
    /// covers 48 seconds before it repeats (and every text is cached); the
    /// other mixes send their sequence once, as a quiet probe after the
    /// load.
    pub fn publishes(self) -> usize {
        match self {
            Workload::SmallSeq | Workload::BulkPipe => 320,
            Workload::PaperModels => 640,
        }
    }
}

/// A schema id the server is started with, and its DTD text.
#[derive(Clone, Debug)]
pub struct Slot {
    /// The wire schema id.
    pub id: String,
    /// The DTD the server loads at start-up (and the cached publish body).
    pub dtd: String,
}

/// One generated document.
#[derive(Clone, Debug)]
pub struct Doc {
    /// Index into [`Corpus::slots`] of the schema it is sent to.
    pub slot: usize,
    /// The markup bytes (the framed `V` body).
    pub body: Vec<u8>,
    /// Whether every attribute value and text run carries entity references.
    pub entity: bool,
    /// Whether the generator mutated the document to be invalid.
    pub invalid: bool,
}

/// One `P` request: a DTD hot-swapped under a slot's id.
#[derive(Clone, Debug)]
pub struct Publish {
    /// Index into [`Corpus::slots`].
    pub slot: usize,
    /// The DTD text.
    pub body: String,
    /// Whether the text is new to the server's compile cache.
    pub fresh: bool,
    /// How long the quiet probe pauses before sending it, in microseconds:
    /// varied, so the requests land at every phase of the idle server's
    /// sleep.
    pub pause_us: u64,
}

/// Everything one workload sends for one seed.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// The workload this corpus belongs to.
    pub workload: Workload,
    /// The schema ids the server serves.
    pub slots: Vec<Slot>,
    /// The distinct documents.
    pub docs: Vec<Doc>,
    /// One cycle of the `V` stream: indexes into `docs`, repeated for as
    /// long as a run lasts. Every document occurs equally often in it.
    pub order: Vec<usize>,
    /// The `P` sequence, alternating cached and never-seen texts.
    pub publishes: Vec<Publish>,
}

/// Shuffles of the documents one cycle of the book mixes' `V` stream
/// chains, so which documents queue behind which varies within a run
/// instead of being fixed by the seed.
const SHUFFLES: usize = 32;

/// The `paper_models` publish cadence.
pub const PUBLISH_INTERVAL_MS: u64 = 75;

/// E16-style entity-dense attribute value.
const ENTITY_VALUE: &str = "a&amp;b &#x2013; &lt;c&gt;";
/// E16-style entity-dense text run.
const ENTITY_TEXT: &str = "G &amp; S &#x2013; &quot;vol.&quot; &#49; &apos;x&apos;";
/// Words for plain text runs.
const WORDS: [&str; 16] = [
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "schema", "model", "word",
    "linear", "time", "regular", "content", "stream",
];

impl Corpus {
    /// Generates the corpus of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Corpus {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_BE4C);
        let (slots, docs) = match workload {
            Workload::SmallSeq => book_docs(&mut rng, 250, 500..2048),
            Workload::BulkPipe => book_docs(&mut rng, 30, 64 << 10..128 << 10),
            Workload::PaperModels => paper_docs(&mut rng, 20),
        };
        let order = match workload {
            Workload::PaperModels => round_robin(&mut rng, &slots, &docs),
            _ => (0..SHUFFLES)
                .flat_map(|_| shuffled(&mut rng, docs.len()))
                .collect(),
        };
        let publishes = (0..workload.publishes())
            .map(|j| {
                let slot = j % slots.len();
                // Odd publishes are never-seen texts: the base DTD plus an
                // unused declaration, so they accept the same documents.
                let fresh = j % 2 == 1;
                let mut body = slots[slot].dtd.clone();
                if fresh {
                    body.push_str(&format!("<!ELEMENT zpad{j} EMPTY>\n"));
                }
                Publish {
                    slot,
                    body,
                    fresh,
                    pause_us: rng.gen_range(5_000..15_000u64),
                }
            })
            .collect();
        Corpus {
            workload,
            slots,
            docs,
            order,
            publishes,
        }
    }

    /// The framed `V` request for document `doc`.
    pub fn v_request(&self, doc: usize) -> Vec<u8> {
        let d = &self.docs[doc];
        frame('V', &self.slots[d.slot].id, &d.body)
    }

    /// The framed `P` request for publish `p`.
    pub fn p_request(&self, p: usize) -> Vec<u8> {
        let publish = &self.publishes[p];
        frame('P', &self.slots[publish.slot].id, publish.body.as_bytes())
    }

    /// Every DTD text a slot serves during a run: its start-up text, then
    /// each never-seen publish body, in publish order.
    pub fn versions(&self, slot: usize) -> Vec<&str> {
        std::iter::once(self.slots[slot].dtd.as_str())
            .chain(
                self.publishes
                    .iter()
                    .filter(|p| p.slot == slot && p.fresh)
                    .map(|p| p.body.as_str()),
            )
            .collect()
    }

    /// FNV-1a over one cycle of framed `V` requests, then every framed `P`
    /// request: equal fingerprints mean byte-identical streams.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv::default();
        for &doc in &self.order {
            hash.write(&self.v_request(doc));
        }
        for p in 0..self.publishes.len() {
            hash.write(&self.p_request(p));
        }
        hash.0
    }

    /// Total body bytes of the distinct documents.
    pub fn body_bytes(&self) -> usize {
        self.docs.iter().map(|d| d.body.len()).sum()
    }

    /// The share of distinct documents the generator made invalid (every
    /// document occurs equally often in one cycle of the stream).
    pub fn invalid_frac(&self) -> f64 {
        self.docs.iter().filter(|d| d.invalid).count() as f64 / self.docs.len() as f64
    }
}

fn frame(op: char, id: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!("{op} {id} {}\n", body.len()).into_bytes();
    out.extend_from_slice(body);
    out
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A seeded permutation of `0..n`.
fn shuffled(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

/// Which of `n` documents are invalid: one picked at random from each run
/// of ten consecutive indices, so exactly a tenth are, spread evenly over
/// the document sizes (which grow with the index, see [`sizes`]).
fn invalid_set(rng: &mut StdRng, n: usize) -> Vec<bool> {
    let mut invalid = vec![false; n];
    for block in (0..n).step_by(10) {
        invalid[block + rng.gen_range(0..10.min(n - block))] = true;
    }
    invalid
}

/// `n` sizes evenly spaced over `range`, smallest first. Every seed gets
/// the same sizes, so the work per cycle of the stream barely depends on
/// the seed; the seed decides the content and the order.
fn sizes(range: std::ops::Range<usize>, n: usize) -> Vec<usize> {
    let width = range.end - range.start;
    (0..n)
        .map(|i| range.start + width * (2 * i + 1) / (2 * n))
        .collect()
}

/// Cycles the slots in turn, each through its own shuffled documents.
fn round_robin(rng: &mut StdRng, slots: &[Slot], docs: &[Doc]) -> Vec<usize> {
    let per_slot: Vec<Vec<usize>> = (0..slots.len())
        .map(|s| {
            let mine: Vec<usize> = (0..docs.len()).filter(|&d| docs[d].slot == s).collect();
            shuffled(rng, mine.len())
                .into_iter()
                .map(|i| mine[i])
                .collect()
        })
        .collect();
    let rounds = per_slot.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|r| per_slot.iter().filter_map(move |docs| docs.get(r).copied()))
        .collect()
}

// ---------------------------------------------------------------------------
// Book documents (small_seq, bulk_pipe)
// ---------------------------------------------------------------------------

/// How a generated book document is made invalid.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BookMutation {
    None,
    /// `<date>` before `<author>` in the front matter (content model).
    DateBeforeAuthor,
    /// An undeclared attribute on the first chapter.
    UndeclaredAttribute,
    /// `&nope;` in the book title (unknown entity).
    UnknownEntity,
    /// `<colophon/>` before `<index>` in the back matter (content model,
    /// late in the document).
    ColophonFirst,
}

fn book_docs(rng: &mut StdRng, n: usize, size: std::ops::Range<usize>) -> (Vec<Slot>, Vec<Doc>) {
    let slots = vec![Slot {
        id: "book".to_owned(),
        dtd: redet_workloads::BOOK_DTD.to_owned(),
    }];
    let invalid = invalid_set(rng, n);
    // Invalid documents take the mutations in turn, late rejection first.
    let mut mutations = [
        BookMutation::ColophonFirst,
        BookMutation::DateBeforeAuthor,
        BookMutation::UnknownEntity,
        BookMutation::UndeclaredAttribute,
    ]
    .into_iter()
    .cycle();
    let docs = sizes(size, n)
        .into_iter()
        .enumerate()
        .map(|(i, target)| {
            let entity = i % 2 == 1;
            let mutation = if invalid[i] {
                mutations.next().expect("cycle")
            } else {
                BookMutation::None
            };
            let body = BookWriter {
                rng: &mut *rng,
                out: String::with_capacity(target + 1024),
                entity,
            }
            .book(target, mutation);
            Doc {
                slot: 0,
                body: body.into_bytes(),
                entity,
                invalid: invalid[i],
            }
        })
        .collect();
    (slots, docs)
}

/// Writes one `BOOK_DTD` document as markup.
struct BookWriter<'a> {
    rng: &'a mut StdRng,
    out: String,
    entity: bool,
}

impl BookWriter<'_> {
    fn book(mut self, target: usize, mutation: BookMutation) -> String {
        self.out.push_str("<book");
        self.maybe_attr("lang", "en");
        self.maybe_attr("edition", "2");
        self.out.push('>');

        self.out.push_str("<front>");
        if mutation == BookMutation::UnknownEntity {
            self.out.push_str("<title>Unknown &nope; reference</title>");
        } else {
            self.leaf_text("title");
        }
        if self.rng.gen_bool(0.5) {
            self.leaf_text("subtitle");
        }
        if mutation == BookMutation::DateBeforeAuthor {
            self.leaf_text("date");
        }
        for _ in 0..self.rng.gen_range(1..4usize) {
            self.leaf_text("author");
        }
        if mutation != BookMutation::DateBeforeAuthor && self.rng.gen_bool(0.5) {
            self.leaf_text("date");
        }
        self.out.push_str("</front>");

        // Chapters until the body reaches the target size; the back matter
        // adds a few hundred bytes after it.
        self.out.push_str("<body>");
        let mut first = true;
        while first || self.out.len() + 300 < target {
            self.chapter(
                target,
                first && mutation == BookMutation::UndeclaredAttribute,
            );
            first = false;
        }
        self.out.push_str("</body>");

        self.out.push_str("<back>");
        if mutation == BookMutation::ColophonFirst {
            self.out.push_str("<colophon/>");
        }
        for _ in 0..self.rng.gen_range(0..2usize) {
            self.out.push_str("<appendix>");
            self.leaf_text("title");
            for _ in 0..self.rng.gen_range(0..3usize) {
                self.para();
            }
            self.out.push_str("</appendix>");
        }
        self.out.push_str("<index>");
        for _ in 0..self.rng.gen_range(2..5usize) {
            self.out.push_str("<entry><term/>");
            for _ in 0..self.rng.gen_range(1..5usize) {
                self.out.push_str("<locator");
                self.maybe_attr("page", "12");
                self.out.push_str("/>");
            }
            self.out.push_str("</entry>");
        }
        self.out.push_str("</index></back></book>");
        self.out
    }

    fn chapter(&mut self, target: usize, bogus_attr: bool) {
        self.out.push_str("<chapter");
        self.maybe_attr("id", "ch");
        if bogus_attr {
            self.out.push_str(" bogus=\"1\"");
        }
        self.out.push('>');
        self.leaf_text("title");
        if self.rng.gen_bool(0.3) {
            self.out.push_str("<epigraph>");
            self.para();
            if self.rng.gen_bool(0.5) {
                self.out.push_str("<attribution/>");
            }
            self.out.push_str("</epigraph>");
        }
        let mut parts = 0;
        while parts == 0 || (parts < 3 && self.out.len() + 300 < target) {
            if self.rng.gen_bool(0.15) {
                self.out.push_str("<interlude>");
                for _ in 0..self.rng.gen_range(1..3usize) {
                    self.para();
                }
                self.out.push_str("</interlude>");
            } else {
                self.section(2, target);
            }
            parts += 1;
        }
        self.out.push_str("</chapter>");
    }

    fn section(&mut self, depth: usize, target: usize) {
        self.out.push_str("<section");
        self.maybe_attr("id", "s");
        self.out.push('>');
        self.leaf_text("title");
        let blocks = self.rng.gen_range(1..6usize);
        for _ in 0..blocks {
            if self.out.len() + 300 >= target {
                break;
            }
            match self.rng.gen_range(0..8usize) {
                0 => {
                    self.out.push_str("<list>");
                    for _ in 0..self.rng.gen_range(1..4usize) {
                        self.out.push_str("<item/>");
                    }
                    self.out.push_str("</list>");
                }
                1 => {
                    self.out.push_str("<table>");
                    if self.rng.gen_bool(0.5) {
                        self.leaf_text("caption");
                    }
                    for _ in 0..self.rng.gen_range(1..3usize) {
                        self.out.push_str("<row>");
                        for _ in 0..self.rng.gen_range(1..4usize) {
                            self.out.push_str("<cell/>");
                        }
                        self.out.push_str("</row>");
                    }
                    self.out.push_str("</table>");
                }
                2 => {
                    self.out.push_str("<figure");
                    self.maybe_attr("src", "fig.png");
                    self.maybe_attr("width", "320");
                    if self.rng.gen_bool(0.5) {
                        self.out.push('>');
                        self.leaf_text("caption");
                        self.out.push_str("</figure>");
                    } else {
                        self.out.push_str("/>");
                    }
                }
                3 if depth > 0 => self.section(depth - 1, target),
                _ => self.para(),
            }
        }
        self.out.push_str("</section>");
    }

    fn para(&mut self) {
        self.out.push_str("<para");
        self.maybe_attr("role", "note");
        self.out.push('>');
        self.text();
        self.out.push_str("</para>");
    }

    fn leaf_text(&mut self, name: &str) {
        self.out.push('<');
        self.out.push_str(name);
        self.out.push('>');
        self.text();
        self.out.push_str("</");
        self.out.push_str(name);
        self.out.push('>');
    }

    fn maybe_attr(&mut self, name: &str, plain: &str) {
        if self.rng.gen_bool(0.6) {
            let n = self.rng.gen_range(0..1000u64);
            self.out.push(' ');
            self.out.push_str(name);
            self.out.push_str("=\"");
            if self.entity {
                self.out.push_str(ENTITY_VALUE);
            } else {
                self.out.push_str(plain);
                self.out.push_str(&n.to_string());
            }
            self.out.push('"');
        }
    }

    fn text(&mut self) {
        if self.entity {
            self.out.push_str(ENTITY_TEXT);
            return;
        }
        for k in 0..self.rng.gen_range(4..10usize) {
            if k > 0 {
                self.out.push(' ');
            }
            self.out.push_str(WORDS[self.rng.gen_range(0..WORDS.len())]);
        }
    }
}

// ---------------------------------------------------------------------------
// Paper content-model families (paper_models)
// ---------------------------------------------------------------------------

/// Factors of the star-free CHARE; every other one is optional, so words
/// run to about three quarters of this. A star-free model bounds its words
/// by its own length, and the model's concatenation spine is parsed
/// recursively, so this is as long as a default 2 MiB thread stack
/// compiles with room to spare.
const CHARE_FACTORS: usize = 4_000;

fn paper_docs(rng: &mut StdRng, per_slot: usize) -> (Vec<Slot>, Vec<Doc>) {
    let note = "<!ATTLIST doc note CDATA #IMPLIED>\n";
    let wide = format!(
        "<!ELEMENT doc ({})*>\n{note}",
        (1..=256)
            .map(|i| format!("a{i}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let kocc = format!(
        "<!ELEMENT doc ({})*>\n{note}",
        (1..=16)
            .map(|i| format!("(h{i}, m, n?, o*)"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let chare = format!(
        "<!ELEMENT doc ({})>\n{note}",
        (0..CHARE_FACTORS)
            .map(|j| {
                let k = j % 61;
                if j % 2 == 1 {
                    format!("(c{k} | d{k})?")
                } else {
                    format!("(c{k} | d{k})")
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    let counted = format!("<!ELEMENT doc (r, (p | q){{1,8}})*>\n{note}");
    let slots: Vec<Slot> = [
        ("wide256", wide),
        ("kocc16", kocc),
        ("chare", chare),
        ("counted", counted),
    ]
    .into_iter()
    .map(|(id, dtd)| Slot {
        id: id.to_owned(),
        dtd,
    })
    .collect();

    let mut docs = Vec::with_capacity(slots.len() * per_slot);
    for slot in 0..slots.len() {
        let invalid = invalid_set(rng, per_slot);
        for (i, children) in sizes(10_000..20_000, per_slot).into_iter().enumerate() {
            let invalid = invalid[i];
            let entity = i % 2 == 1;
            let children = if slot == 2 { CHARE_FACTORS } else { children };
            // The mutation lands halfway through the children.
            let mut bad_at = invalid.then_some(children / 2);
            let mut out = String::with_capacity(children * 8);
            out.push_str("<doc note=\"");
            if entity {
                out.push_str(ENTITY_VALUE);
            } else {
                out.push_str(&format!("n{i}"));
            }
            out.push_str("\">");
            let leaf = |out: &mut String, name: &str| {
                out.push('<');
                out.push_str(name);
                out.push_str("/>");
            };
            let mut emitted = 0usize;
            match slot {
                0 => {
                    while emitted < children {
                        if bad_at == Some(emitted) {
                            leaf(&mut out, "doc");
                        }
                        leaf(&mut out, &format!("a{}", rng.gen_range(1..257usize)));
                        emitted += 1;
                    }
                }
                1 => {
                    while emitted < children {
                        leaf(&mut out, &format!("h{}", rng.gen_range(1..17usize)));
                        leaf(&mut out, "m");
                        emitted += 2;
                        if bad_at.is_some_and(|b| b < emitted) {
                            // `m` may not follow `m`.
                            leaf(&mut out, "m");
                            emitted += 1;
                            bad_at = None;
                        }
                        if rng.gen_bool(0.5) {
                            leaf(&mut out, "n");
                            emitted += 1;
                        }
                        for _ in 0..rng.gen_range(0..4usize) {
                            leaf(&mut out, "o");
                            emitted += 1;
                        }
                    }
                }
                2 => {
                    for j in 0..CHARE_FACTORS {
                        let k = j % 61;
                        let skip = if j % 2 == 1 {
                            rng.gen_bool(0.5)
                        } else {
                            // Dropping a mandatory factor breaks the word.
                            bad_at.is_some_and(|b| j == b & !1)
                        };
                        if !skip {
                            let c = if rng.gen_bool(0.5) { 'c' } else { 'd' };
                            leaf(&mut out, &format!("{c}{k}"));
                        }
                    }
                }
                _ => {
                    while emitted < children {
                        leaf(&mut out, "r");
                        // One run past the counter's upper bound.
                        let run = if bad_at.take_if(|b| *b <= emitted).is_some() {
                            9
                        } else {
                            rng.gen_range(1..9usize)
                        };
                        for _ in 0..run {
                            leaf(&mut out, if rng.gen_bool(0.5) { "p" } else { "q" });
                        }
                        emitted += 1 + run;
                    }
                }
            }
            out.push_str("</doc>");
            docs.push(Doc {
                slot,
                body: out.into_bytes(),
                entity,
                invalid,
            });
        }
    }
    (slots, docs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams() {
        for workload in Workload::ALL {
            let a = Corpus::generate(workload, 7);
            let b = Corpus::generate(workload, 7);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", workload.name());
            assert_ne!(
                a.fingerprint(),
                Corpus::generate(workload, 8).fingerprint(),
                "{}",
                workload.name()
            );
        }
    }

    /// Pins the development seed's streams: a change here changes what the
    /// benchmark measures, so it must be deliberate.
    #[test]
    fn pinned_fingerprints() {
        let pins = [
            (Workload::SmallSeq, 0xfd54_b8c0_445a_8f42_u64),
            (Workload::BulkPipe, 0xbb68_e00f_e334_a71c),
            (Workload::PaperModels, 0x9129_d9f6_0a06_f2e8),
        ];
        for (workload, pin) in pins {
            assert_eq!(
                format!("{:016x}", Corpus::generate(workload, 1).fingerprint()),
                format!("{pin:016x}"),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn sizes_and_invalid_shares_match_the_workload_definitions() {
        for workload in Workload::ALL {
            let corpus = Corpus::generate(workload, 3);
            assert!(
                (corpus.invalid_frac() - 0.1).abs() < 1e-9,
                "{}",
                workload.name()
            );
            let mut seen = vec![0usize; corpus.docs.len()];
            for &doc in &corpus.order {
                seen[doc] += 1;
            }
            assert!(seen.iter().all(|&n| n == seen[0]), "{}", workload.name());
            for doc in &corpus.docs {
                let len = doc.body.len();
                match workload {
                    Workload::SmallSeq => assert!((400..3000).contains(&len), "{len}"),
                    Workload::BulkPipe => assert!((60 << 10..140 << 10).contains(&len), "{len}"),
                    Workload::PaperModels => {
                        let children = doc.body.iter().filter(|&&b| b == b'/').count() - 1;
                        let expected = if doc.slot == 2 {
                            2_500..3_500
                        } else {
                            10_000..21_000
                        };
                        assert!(expected.contains(&children), "{children}");
                    }
                }
            }
        }
    }
}
