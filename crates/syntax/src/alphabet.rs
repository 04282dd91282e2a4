//! Interned alphabet symbols.
//!
//! XML content models range over element names, so the alphabet of a regular
//! expression is a set of strings rather than single characters. Symbols are
//! interned into a dense numeric range `0..len`, which is what all the
//! algorithmic machinery downstream (bucket grouping, per-symbol skeleta,
//! colored-ancestor structures) relies on.

use std::collections::HashMap;
use std::fmt;

/// An interned alphabet symbol.
///
/// Symbols are small integers handed out by an [`Alphabet`]; comparing,
/// hashing and indexing by symbol is constant time. The paper's phantom
/// markers `#` and `$` (restriction R1) are *not* alphabet symbols — they are
/// materialised only in the parse tree (`redet-tree`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Creates a symbol from a raw index.
    ///
    /// Mostly useful in tests and generators; in normal operation symbols are
    /// obtained from [`Alphabet::intern`].
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Symbol(u32::try_from(index).expect("alphabet larger than u32::MAX"))
    }

    /// The dense index of this symbol, suitable for indexing per-symbol
    /// tables of size [`Alphabet::len`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// An interner mapping symbol names to dense [`Symbol`] ids and back.
///
/// ```
/// use redet_syntax::Alphabet;
///
/// let mut sigma = Alphabet::new();
/// let a = sigma.intern("a");
/// let title = sigma.intern("title");
/// assert_eq!(sigma.intern("a"), a);
/// assert_eq!(sigma.name(title), "title");
/// assert_eq!(sigma.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Alphabet {
    names: Vec<String>,
    by_name: HashMap<String, Symbol>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an alphabet with `n` single-letter-ish symbols named
    /// `a0, a1, …` — convenient for synthetic workloads.
    pub fn with_generic_symbols(n: usize) -> Self {
        let mut alphabet = Self::new();
        for i in 0..n {
            alphabet.intern(&format!("a{i}"));
        }
        alphabet
    }

    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.by_name.get(name) {
            return sym;
        }
        let sym = Symbol::from_index(self.names.len());
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), sym);
        sym
    }

    /// Looks up a symbol by name without interning.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// The name of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not handed out by this alphabet.
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct symbols interned so far (the paper's `σ`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all symbols in interning order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.names.len()).map(Symbol::from_index)
    }

    /// Iterates over `(symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol::from_index(i), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut sigma = Alphabet::new();
        let a = sigma.intern("a");
        let b = sigma.intern("b");
        assert_ne!(a, b);
        assert_eq!(sigma.intern("a"), a);
        assert_eq!(sigma.intern("b"), b);
        assert_eq!(sigma.len(), 2);
    }

    #[test]
    fn names_round_trip() {
        let mut sigma = Alphabet::new();
        let names = ["title", "author", "year", "a", "b"];
        let syms: Vec<_> = names.iter().map(|n| sigma.intern(n)).collect();
        for (sym, name) in syms.iter().zip(names.iter()) {
            assert_eq!(sigma.name(*sym), *name);
            assert_eq!(sigma.lookup(name), Some(*sym));
        }
        assert_eq!(sigma.lookup("missing"), None);
    }

    #[test]
    fn generic_symbols() {
        let sigma = Alphabet::with_generic_symbols(4);
        assert_eq!(sigma.len(), 4);
        assert_eq!(sigma.name(Symbol::from_index(2)), "a2");
    }

    #[test]
    fn indices_are_dense() {
        let mut sigma = Alphabet::new();
        for i in 0..100 {
            let sym = sigma.intern(&format!("s{i}"));
            assert_eq!(sym.index(), i);
        }
        let collected: Vec<_> = sigma.symbols().map(|s| s.index()).collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }
}
