//! Dynamic LCA-closed skeleta for batch matching (Section 4.4,
//! Theorem 4.12).
//!
//! The star-free batch matcher traverses the expression's positions once, in
//! document order, advancing "parked" words when the traversal reaches a
//! position that follows the position they are parked at. The naive layout —
//! a flat pending list per symbol, re-tested at every later position with
//! that symbol — touches each entry up to `k` times (`k` = occurrences of
//! the symbol). The paper instead keeps the pending entries of each symbol
//! in a *dynamic LCA-closed skeleton* so that every entry is touched `O(1)`
//! times.
//!
//! This module implements that structure as a chain-indexed union of
//! per-symbol group stacks:
//!
//! * The traversal's current leaf determines the **chain** — the root-to-leaf
//!   path of ancestors. Parked entries are grouped by the *lowest chain node
//!   above their own leaf*, which is exactly `LCA(parked, current)`; the
//!   nonempty groups of one symbol are threaded deepest-first along the
//!   chain (a stack). The set of group nodes is the LCA-closure of the
//!   parked leaves with the current traversal point — hence the name.
//! * Moving the traversal to the next leaf pops the chain nodes that are no
//!   longer ancestors; each popped node's groups merge `O(1)` into its
//!   parent's groups (linked-list concatenation), keeping the invariant.
//!   Total chain work over a traversal is `O(|e|)` because the leaf walk is
//!   a DFS: every tree edge is pushed and popped once.
//! * Reaching an `a`-position `p`, the candidate follow witnesses are the
//!   concatenation ancestors `v` of `p` with `p ∈ First(Rchild(v))` — by
//!   Lemma 2.3 a *contiguous* chain segment bounded above by
//!   `parent(pSupFirst(p))`. The `a`-stack is walked from its deepest group
//!   up to that boundary; every group at a candidate `v` is consumed whole:
//!   entries `x` with `pSupLast(x) ≼ Lchild(v)` advance (they satisfy
//!   `checkIfFollow(x, p)`), and the rest are *dropped*, because for every
//!   later position the LCA only moves up, so `Lchild` only rises further
//!   above their `pSupLast` — they can never advance (star-freedom: there is
//!   no iterating node to resurrect them). Either way the entry is touched
//!   exactly once here.
//!
//! Groups parked under a union branch (or a concatenation whose `First` test
//! fails for `p`) are skipped without touching their entries; such skips
//! cost `O(1)` per *group* per position and are the only deviation from the
//! paper's strict per-entry bound (see DESIGN.md). On the 1-ORE/CHARE
//! content models that motivate the theorem they do not occur at all, and
//! the batch bound is the paper's `O(|e| + Σ|wᵢ|)`.
//!
//! The structure is a reusable scratch arena: all state lives in flat `u32`
//! vectors that are recycled across batches, so steady-state matching
//! allocates nothing.

use redet_tree::{ParseTree, NONE};

/// An entry parked in a skeleton: a word sitting at a position, waiting for
/// its next symbol. Entries form singly-linked lists inside [`Group`]s.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// The position the word is parked at.
    pos: u32,
    /// The caller's word index.
    word: u32,
    /// Next entry in the group, or [`NONE`].
    next: u32,
}

/// A group of entries sharing their symbol and their LCA with the current
/// traversal leaf.
#[derive(Clone, Copy, Debug)]
struct Group {
    /// The symbol the entries wait for.
    symbol: u32,
    /// The chain node the group sits at (`LCA(entry, current leaf)` for all
    /// entries), or [`NONE`] once the group has been consumed.
    node: u32,
    /// Head/tail of the entry list.
    head: u32,
    tail: u32,
    /// Next group at the same chain node (any symbol), or [`NONE`].
    next_at_node: u32,
    /// Next group of the same symbol higher up the chain, or [`NONE`].
    next_up: u32,
}

/// The dynamic LCA-closed skeleta of all symbols, plus the traversal chain.
///
/// Drive it left-to-right over the positions of a star-free expression:
///
/// 1. [`BatchSkeleta::begin`] once per batch;
/// 2. [`BatchSkeleta::park`] the first symbol of every word;
/// 3. for every position `p` (document order): [`BatchSkeleta::process`],
///    then [`BatchSkeleta::park`] the advanced words' next symbols.
#[derive(Clone, Debug, Default)]
pub struct BatchSkeleta {
    groups: Vec<Group>,
    entries: Vec<Entry>,
    /// Per tree node: head of its group list, or [`NONE`].
    node_head: Vec<u32>,
    /// Per symbol: deepest group of the symbol's chain stack, or [`NONE`].
    symbol_top: Vec<u32>,
    /// The current root-to-leaf chain (node ids, root first).
    chain: Vec<u32>,
    /// Scratch for building chain segments.
    path_buf: Vec<u32>,
    /// The leaf of the position most recently passed to
    /// [`BatchSkeleta::begin`]/[`BatchSkeleta::process`].
    cur_leaf: u32,
}

impl BatchSkeleta {
    /// Creates an empty structure (no allocations until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the structure for a batch over `tree`, positioning the
    /// traversal at the phantom `#`. Reuses all previous allocations.
    pub fn begin(&mut self, tree: &ParseTree) {
        self.groups.clear();
        self.entries.clear();
        self.node_head.clear();
        self.node_head.resize(tree.num_nodes(), NONE);
        self.symbol_top.clear();
        self.symbol_top.resize(tree.num_symbols(), NONE);
        self.chain.clear();
        // Chain = path root → begin leaf.
        let begin_leaf = tree.leaf(0);
        let mut n = begin_leaf;
        self.path_buf.clear();
        while n != NONE {
            self.path_buf.push(n);
            n = tree.parent_id(n);
        }
        while let Some(x) = self.path_buf.pop() {
            self.chain.push(x);
        }
        self.cur_leaf = begin_leaf;
    }

    /// Parks `word` at position `pos` (which must be the position whose
    /// leaf the traversal currently sits on), waiting for `symbol`.
    pub fn park(&mut self, symbol: u32, pos: u32, word: u32) {
        let eid = self.entries.len() as u32;
        self.entries.push(Entry {
            pos,
            word,
            next: NONE,
        });
        let top = self.symbol_top[symbol as usize];
        if top != NONE && self.groups[top as usize].node == self.cur_leaf {
            // Extend the existing group at the current leaf.
            let tail = self.groups[top as usize].tail;
            self.entries[tail as usize].next = eid;
            self.groups[top as usize].tail = eid;
            return;
        }
        let gid = self.groups.len() as u32;
        self.groups.push(Group {
            symbol,
            node: self.cur_leaf,
            head: eid,
            tail: eid,
            next_at_node: self.node_head[self.cur_leaf as usize],
            next_up: top,
        });
        self.node_head[self.cur_leaf as usize] = gid;
        self.symbol_top[symbol as usize] = gid;
    }

    /// Moves the traversal to position `pos` (document order, strictly after
    /// the previous one), pops the chain accordingly, and consumes every
    /// group whose node witnesses `checkIfFollow(entry, pos)` for entries
    /// waiting on `symbol`. The advanced words are appended to `advanced`;
    /// entries proven dead (doomed by their `pSupLast`) are dropped.
    pub fn process(&mut self, tree: &ParseTree, pos: u32, symbol: u32, advanced: &mut Vec<u32>) {
        let leaf = tree.leaf(pos);
        debug_assert!(
            leaf > self.cur_leaf,
            "positions must be processed left to right"
        );

        // Pop chain nodes that are not ancestors of the new leaf, merging
        // their groups into their parents.
        while {
            let top = *self.chain.last().expect("chain contains the root");
            !tree.is_ancestor_ids(top, leaf)
        } {
            self.pop_and_merge();
        }
        // Push the path from the old chain top down to the new leaf.
        let anchor = *self.chain.last().expect("chain contains the root");
        self.path_buf.clear();
        let mut n = leaf;
        while n != anchor {
            self.path_buf.push(n);
            n = tree.parent_id(n);
            debug_assert!(n != NONE, "anchor is an ancestor of the leaf");
        }
        while let Some(x) = self.path_buf.pop() {
            self.chain.push(x);
        }
        self.cur_leaf = leaf;

        // Candidate walk: the concatenation ancestors v with
        // p ∈ First(Rchild(v)) lie between parent(pSupFirst(p)) and
        // parent(leaf); in preorder that zone is v ≥ parent(pSupFirst(p)).
        let boundary = tree.psf(pos);
        let zone_lo = tree.parent_id(boundary);
        debug_assert!(zone_lo != NONE, "R1: pSupFirst of a position has a parent");

        let mut prev = NONE;
        let mut g = self.symbol_top[symbol as usize];
        while g != NONE {
            let group = self.groups[g as usize];
            let v = group.node;
            if v < zone_lo {
                // Strictly above the zone: the First test fails here and at
                // every higher group — stop without touching them.
                break;
            }
            let r = tree.concat_rchild(v);
            let candidate = r != NONE && leaf >= r && tree.is_ancestor_ids(boundary, r);
            if candidate {
                // Consume the whole group: v = LCA(entry, pos) for each of
                // its entries, so checkIfFollow reduces to the pSupLast test
                // against Lchild(v) = v + 1.
                let mut e = group.head;
                while e != NONE {
                    let entry = self.entries[e as usize];
                    if tree.is_ancestor_ids(tree.psl(entry.pos), v + 1) {
                        advanced.push(entry.word);
                    }
                    e = entry.next;
                }
                // Unlink from the symbol stack; the node list forgets the
                // group lazily (skipped at pop time via `node == NONE`).
                if prev == NONE {
                    self.symbol_top[symbol as usize] = group.next_up;
                } else {
                    self.groups[prev as usize].next_up = group.next_up;
                }
                self.groups[g as usize].node = NONE;
            } else {
                prev = g;
            }
            g = group.next_up;
        }
    }

    /// Pops the deepest chain node, merging its groups into its parent.
    fn pop_and_merge(&mut self) {
        let v = self
            .chain
            .pop()
            .expect("pop_and_merge needs a non-root top");
        let parent = *self.chain.last().expect("the root is never popped");
        let mut g = self.node_head[v as usize];
        self.node_head[v as usize] = NONE;
        while g != NONE {
            let next_at_node = self.groups[g as usize].next_at_node;
            if self.groups[g as usize].node != NONE {
                let symbol = self.groups[g as usize].symbol;
                let up = self.groups[g as usize].next_up;
                debug_assert_eq!(
                    self.symbol_top[symbol as usize], g,
                    "a group at the deepest chain node is its symbol's stack top"
                );
                if up != NONE && self.groups[up as usize].node == parent {
                    // O(1) list concatenation into the parent's group.
                    let (head, tail) = (self.groups[g as usize].head, self.groups[g as usize].tail);
                    let up_head = self.groups[up as usize].head;
                    self.entries[tail as usize].next = up_head;
                    self.groups[up as usize].head = head;
                    self.symbol_top[symbol as usize] = up;
                } else {
                    // Re-home the group at the parent node.
                    self.groups[g as usize].node = parent;
                    self.groups[g as usize].next_at_node = self.node_head[parent as usize];
                    self.node_head[parent as usize] = g;
                }
            }
            g = next_at_node;
        }
    }
}
