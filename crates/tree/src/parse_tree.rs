//! The parse tree of a regular expression, stored once as a struct of
//! arrays together with the node properties of Section 2 of the paper.
//!
//! Nodes are numbered in preorder, so the left child of an inner node `n`
//! is `n + 1`, the right child of a binary node is `subtree_end(n + 1)`,
//! and the ancestor test is two comparisons against `subtree_end`. Every
//! per-node and per-position fact lives in exactly one array, filled in one
//! `O(|e|)` build:
//!
//! * per node: the label, the right child of a concatenation
//!   (`concat_rchild`, [`NONE`] otherwise), the parent, `subtree_end`, the
//!   depth, nullability (a bitset), and the `pStar`/`pSupFirst`/`pSupLast`
//!   pointers ([`NONE`] when undefined);
//! * per position: its leaf, its symbol, the `pSupFirst`/`pSupLast` node
//!   of that leaf with the root standing in for "undefined" (the root is an
//!   ancestor of everything, so the Lemma 2.3 test stays two comparisons),
//!   and whether it can end a word (a bitset).
//!
//! A node `n` with parent `n′` is
//!
//! * a **SupFirst** node iff `lab(n′) = ·`, `n` is the right child of `n′`
//!   and the left child of `n′` is non-nullable — at such a node the
//!   `First`-set "stops" growing upwards;
//! * a **SupLast** node iff `lab(n′) = ·`, `n` is the left child of `n′` and
//!   the right child of `n′` is non-nullable.
//!
//! `pSupFirst(n)` / `pSupLast(n)` / `pStar(n)` are the lowest
//! (ancestor-or-self) SupFirst node, SupLast node, and iterating (`∗` or
//! `{i,j}` with `j ≥ 2`) node above `n`. Lemma 2.3 then gives constant-time
//! `First`/`Last` membership:
//!
//! * `p ∈ First(n)` iff `pSupFirst(p) ≼ n ≼ p`;
//! * `p ∈ Last(n)`  iff `pSupLast(p) ≼ n ≼ p`.
//!
//! The raw `u32` accessors (`leaf`, `parent_id`, `concat_rchild`, `psf`,
//! `psl`, …) are the allocation- and branch-minimal forms the matchers'
//! hot loops use; the typed accessors read the same arrays.

use crate::node::{NodeId, NodeKind, PosId};
use redet_syntax::{Regex, Symbol};

/// Sentinel for "no node" in the `u32` tables.
pub const NONE: u32 = u32::MAX;

/// The parse tree of a regular expression, wrapped into the `(# e′) $` form
/// of restriction (R1), with its node properties.
///
/// Leaves are the *positions* of the expression; the phantom markers `#`
/// and `$` are positions `p0` and `p_{m-1}`.
///
/// ```
/// use redet_syntax::parse;
/// use redet_tree::ParseTree;
///
/// let (e, _) = parse("(a b + b b? a)*").unwrap();
/// let tree = ParseTree::build(&e);
/// // 5 alphabet positions plus # and $.
/// assert_eq!(tree.num_positions(), 7);
/// assert!(tree.is_ancestor(tree.root(), tree.expr_root()));
/// assert!(tree.nullable(tree.expr_root()));
/// ```
#[derive(Clone, Debug)]
pub struct ParseTree {
    // The arrays `follow_ids` and the batch matcher read come first.
    /// Exclusive end of each node's preorder interval: the subtree rooted
    /// at `n` is exactly the ids `n .. subtree_end[n]`.
    subtree_end: Vec<u32>,
    concat_rchild: Vec<u32>,
    p_star: Vec<u32>,
    parent: Vec<u32>,
    /// The leaf of each position, in left-to-right order.
    leaf: Vec<NodeId>,
    psf: Vec<u32>,
    psl: Vec<u32>,
    can_end: Vec<u64>,
    /// CSR index over positions by symbol: the positions labeled with symbol
    /// `s` are `sym_positions[sym_offsets[s] .. sym_offsets[s + 1]]`, so the
    /// per-symbol candidate scan of the k-occurrence matcher is two loads
    /// and a slice.
    sym_offsets: Vec<u32>,
    sym_positions: Vec<PosId>,
    kind: Vec<NodeKind>,
    depth: Vec<u32>,
    nullable: Vec<u64>,
    p_sup_first: Vec<u32>,
    p_sup_last: Vec<u32>,
    /// `leaves_before[n]` — the number of leaves before node `n` in
    /// preorder (`num_nodes + 1` entries): a leaf's position index, and the
    /// position range of any subtree.
    leaves_before: Vec<u32>,
    /// Symbol of each position as a dense `u32` (`u32::MAX` for `#`/`$`).
    pos_symbol: Vec<u32>,
    /// Root of the embedded user expression `e′`.
    expr_root: NodeId,
}

/// Node 1 is the inner concatenation `# e′` of the R1 wrapping.
const INNER: u32 = 1;

#[inline]
fn bit(bits: &[u64], i: u32) -> bool {
    bits[i as usize / 64] & (1 << (i % 64)) != 0
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

#[inline]
fn node(raw: u32) -> Option<NodeId> {
    (raw != NONE).then_some(NodeId(raw))
}

impl ParseTree {
    /// Builds the parse tree of `regex`, adding the phantom `#`/`$` markers,
    /// and computes every node property. `O(|regex|)`.
    ///
    /// The input should already satisfy restrictions (R2) and (R3) (see
    /// `redet_syntax::normalize`); this is asserted in debug builds. The
    /// algorithms remain correct on non-normalized input but their running
    /// time is then no longer guaranteed to be linear in the number of
    /// positions.
    pub fn build(regex: &Regex) -> Self {
        debug_assert!(
            redet_syntax::normalize::satisfies_r2_r3(regex),
            "ParseTree::build expects an (R2)/(R3)-normalized expression"
        );
        let n = regex.size() + 4;
        let m = regex.num_positions() + 2;
        // Allocation order places the arrays `follow_ids` reads next to
        // each other and to the leaf-pair LCA tables `TreeAnalysis` builds
        // right after (the per-position ones are collected last): a
        // `checkIfFollow` loop over a tree of a few hundred positions sits
        // at the edge of the L1 cache, where placement shows.
        let mut tree = ParseTree {
            kind: Vec::with_capacity(n),
            depth: Vec::with_capacity(n),
            p_sup_first: Vec::with_capacity(n),
            p_sup_last: Vec::with_capacity(n),
            leaves_before: Vec::with_capacity(n + 1),
            pos_symbol: Vec::with_capacity(m),
            sym_offsets: Vec::new(),
            sym_positions: vec![PosId(0); m - 2],
            can_end: vec![0; m.div_ceil(64)],
            subtree_end: Vec::with_capacity(n),
            concat_rchild: Vec::with_capacity(n),
            p_star: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            nullable: vec![0; n.div_ceil(64)],
            leaf: Vec::with_capacity(m),
            psf: Vec::new(),
            psl: Vec::new(),
            expr_root: NodeId(0),
        };

        // e  =  (# e′) $   — root is the outer concatenation.
        let root = tree.push(NodeKind::Concat, NONE);
        let inner = tree.push(NodeKind::Concat, root);
        tree.push(NodeKind::Begin, inner);
        let expr_root = tree.push_expr(regex, inner);
        tree.concat_rchild[inner as usize] = expr_root;
        tree.close(inner);
        tree.concat_rchild[root as usize] = tree.push(NodeKind::End, root);
        tree.close(root);
        tree.leaves_before.push(tree.leaf.len() as u32);
        tree.expr_root = NodeId(expr_root);
        tree.compute_properties();
        tree
    }

    /// Appends a node under `parent` (a leaf is closed at once).
    fn push(&mut self, kind: NodeKind, parent: u32) -> u32 {
        let id = u32::try_from(self.kind.len()).expect("parse tree larger than u32::MAX");
        self.kind.push(kind);
        self.concat_rchild.push(NONE);
        self.parent.push(parent);
        self.subtree_end.push(0);
        self.depth.push(if parent == NONE {
            0
        } else {
            self.depth[parent as usize] + 1
        });
        self.leaves_before.push(self.leaf.len() as u32);
        if kind.is_leaf() {
            self.leaf.push(NodeId(id));
            self.pos_symbol
                .push(kind.symbol().map_or(u32::MAX, |s| s.index() as u32));
            self.close(id);
        }
        id
    }

    fn close(&mut self, id: u32) {
        self.subtree_end[id as usize] = self.kind.len() as u32;
    }

    fn push_expr(&mut self, regex: &Regex, parent: u32) -> u32 {
        match regex {
            Regex::Symbol(sym) => self.push(NodeKind::Position(*sym), parent),
            Regex::Concat(l, r) | Regex::Union(l, r) => {
                let concat = matches!(regex, Regex::Concat(..));
                let id = self.push(
                    if concat {
                        NodeKind::Concat
                    } else {
                        NodeKind::Union
                    },
                    parent,
                );
                self.push_expr(l, id);
                let rchild = self.push_expr(r, id);
                if concat {
                    self.concat_rchild[id as usize] = rchild;
                }
                self.close(id);
                id
            }
            Regex::Optional(inner) | Regex::Star(inner) | Regex::Repeat(inner, ..) => {
                let kind = match regex {
                    Regex::Optional(_) => NodeKind::Optional,
                    Regex::Star(_) => NodeKind::Star,
                    Regex::Repeat(_, min, max) => NodeKind::Repeat(*min, *max),
                    _ => unreachable!("unary arm"),
                };
                let id = self.push(kind, parent);
                self.push_expr(inner, id);
                self.close(id);
                id
            }
        }
    }

    /// Fills nullability, the three pointers, the per-position tables and
    /// the per-symbol index over the built structure.
    fn compute_properties(&mut self) {
        let n = self.kind.len();
        // Children have larger preorder ids than their parent, so a reverse
        // sweep is a bottom-up evaluation.
        for id in (0..n).rev() {
            let child = id as u32 + 1;
            let nullable = match self.kind[id] {
                NodeKind::Begin | NodeKind::End | NodeKind::Position(_) => false,
                NodeKind::Concat => {
                    self.nullable_id(child) && self.nullable_id(self.concat_rchild[id])
                }
                NodeKind::Union => {
                    self.nullable_id(child) || self.nullable_id(self.subtree_end[child as usize])
                }
                NodeKind::Optional | NodeKind::Star => true,
                NodeKind::Repeat(min, _) => min == 0 || self.nullable_id(child),
            };
            if nullable {
                set_bit(&mut self.nullable, id);
            }
        }

        // Lowest ancestor-or-self pointers: a forward sweep is a top-down
        // traversal because parents precede children in preorder.
        for id in 0..n {
            let parent = self.parent[id];
            let (mut sf, mut sl, mut star) = match parent {
                NONE => (NONE, NONE, NONE),
                p => (
                    self.p_sup_first[p as usize],
                    self.p_sup_last[p as usize],
                    self.p_star[p as usize],
                ),
            };
            if parent != NONE && self.kind[parent as usize] == NodeKind::Concat {
                let (lchild, rchild) = (parent + 1, self.concat_rchild[parent as usize]);
                if id as u32 == rchild && !self.nullable_id(lchild) {
                    sf = id as u32;
                }
                if id as u32 == lchild && !self.nullable_id(rchild) {
                    sl = id as u32;
                }
            }
            if self.kind[id].is_iterating() {
                star = id as u32;
            }
            self.p_sup_first.push(sf);
            self.p_sup_last.push(sl);
            self.p_star.push(star);
        }

        // Per-symbol CSR index: count, prefix-sum, scatter from the back so
        // each offset ends at its bucket's start.
        let num_symbols = self
            .pos_symbol
            .iter()
            .filter(|&&s| s != u32::MAX)
            .map(|&s| s as usize + 1)
            .max()
            .unwrap_or(0);
        let mut offsets = vec![0u32; num_symbols + 1];
        for &s in &self.pos_symbol {
            if s != u32::MAX {
                offsets[s as usize] += 1;
            }
        }
        let mut total = 0;
        for slot in &mut offsets[..num_symbols] {
            total += *slot;
            *slot = total;
        }
        offsets[num_symbols] = total;
        for (p, &s) in self.pos_symbol.iter().enumerate().rev() {
            if s != u32::MAX {
                offsets[s as usize] -= 1;
                self.sym_positions[offsets[s as usize] as usize] = PosId::from_index(p);
            }
        }
        self.sym_offsets = offsets;

        let or_root = |x: u32| if x == NONE { 0 } else { x };
        let leaf_pointer = |pointers: &[u32]| -> Vec<u32> {
            self.leaf
                .iter()
                .map(|l| or_root(pointers[l.index()]))
                .collect()
        };
        self.psf = leaf_pointer(&self.p_sup_first);
        self.psl = leaf_pointer(&self.p_sup_last);
        // `$ ∈ Follow(p)` iff p ∈ Last(# e′): the concatenation at the root
        // is the only node `$` follows through.
        for p in 0..self.leaf.len() {
            if self.in_last_ids(p as u32, INNER) {
                set_bit(&mut self.can_end, p);
            }
        }
    }

    /// Number of nodes in the tree (including the R1 wrapper nodes).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kind.len()
    }

    /// Number of positions, including the phantom `#` and `$`.
    #[inline]
    pub fn num_positions(&self) -> usize {
        self.leaf.len()
    }

    /// Number of distinct symbol indices the per-symbol tables cover.
    #[inline]
    pub fn num_symbols(&self) -> usize {
        self.sym_offsets.len() - 1
    }

    /// The root of the whole tree (the outer concatenation with `$`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The root of the embedded user expression `e′`.
    #[inline]
    pub fn expr_root(&self) -> NodeId {
        self.expr_root
    }

    /// The label of node `n`.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kind[n.index()]
    }

    /// The parent of `n`, or `None` for the root.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        node(self.parent[n.index()])
    }

    /// The left (or only) child of `n` (`None` for leaves): `n + 1` in
    /// preorder.
    #[inline]
    pub fn lchild(&self, n: NodeId) -> Option<NodeId> {
        (!self.kind(n).is_leaf()).then_some(NodeId(n.0 + 1))
    }

    /// The right child of `n` (`None` for leaves and unary nodes): the node
    /// right after the left child's subtree.
    #[inline]
    pub fn rchild(&self, n: NodeId) -> Option<NodeId> {
        self.kind(n)
            .is_binary()
            .then(|| NodeId(self.subtree_end[n.index() + 1]))
    }

    /// The depth of `n` (root has depth 0).
    #[inline]
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// Whether `ancestor ≼ descendant` in the (reflexive) ancestor order.
    #[inline]
    pub fn is_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        self.is_ancestor_ids(ancestor.0, descendant.0)
    }

    /// Whether `ancestor ≺ descendant` strictly.
    #[inline]
    pub fn is_strict_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        ancestor != descendant && self.is_ancestor(ancestor, descendant)
    }

    /// Exclusive end of the preorder interval of the subtree rooted at `n`.
    #[inline]
    pub fn subtree_end(&self, n: NodeId) -> usize {
        self.subtree_end[n.index()] as usize
    }

    /// Iterates over all node ids in preorder.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.kind.len()).map(NodeId::from_index)
    }

    /// Iterates over the children of `n` (left then right).
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> {
        self.lchild(n).into_iter().chain(self.rchild(n))
    }

    /// All positions' leaves in left-to-right order (including `#` and `$`).
    #[inline]
    pub fn positions(&self) -> &[NodeId] {
        &self.leaf
    }

    /// The node of position `p`.
    #[inline]
    pub fn pos_node(&self, p: PosId) -> NodeId {
        self.leaf[p.index()]
    }

    /// The position index of node `n`, if `n` is a leaf.
    #[inline]
    pub fn node_pos(&self, n: NodeId) -> Option<PosId> {
        self.kind(n)
            .is_leaf()
            .then_some(PosId(self.leaves_before[n.index()]))
    }

    /// The positions whose leaf lies in the subtree rooted at `n`.
    pub fn positions_under(&self, n: NodeId) -> impl Iterator<Item = PosId> {
        let start = self.leaves_before[n.index()];
        let end = self.leaves_before[self.subtree_end(n)];
        (start..end).map(PosId)
    }

    /// The alphabet symbol of position `p` (`None` for `#` and `$`).
    #[inline]
    pub fn symbol_at(&self, p: PosId) -> Option<Symbol> {
        match self.pos_symbol[p.index()] {
            u32::MAX => None,
            s => Some(Symbol::from_index(s as usize)),
        }
    }

    /// The phantom begin position `#`.
    #[inline]
    pub fn begin_pos(&self) -> PosId {
        PosId(0)
    }

    /// The phantom end position `$`.
    #[inline]
    pub fn end_pos(&self) -> PosId {
        PosId::from_index(self.leaf.len() - 1)
    }

    /// Positions labeled with `sym`, in left-to-right order. Symbols unknown
    /// to this expression yield an empty slice.
    #[inline]
    pub fn positions_of_symbol(&self, sym: Symbol) -> &[PosId] {
        let s = sym.index();
        if s + 1 >= self.sym_offsets.len() {
            return &[];
        }
        let lo = self.sym_offsets[s] as usize;
        let hi = self.sym_offsets[s + 1] as usize;
        &self.sym_positions[lo..hi]
    }

    /// Iterates over the alphabet positions (excluding `#`/`$`) as
    /// `(PosId, Symbol)` pairs in left-to-right order.
    pub fn symbol_positions(&self) -> impl Iterator<Item = (PosId, Symbol)> + '_ {
        self.pos_symbol
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != u32::MAX)
            .map(|(i, &s)| (PosId::from_index(i), Symbol::from_index(s as usize)))
    }

    /// The lowest common ancestor of `u` and `v`, computed naively by
    /// climbing parent pointers. `O(depth)` — used for testing and as a
    /// fallback; use [`crate::Lca`] for constant-time queries.
    pub fn lca_naive(&self, u: NodeId, v: NodeId) -> NodeId {
        let (mut u, mut v) = (u, v);
        while self.depth(u) > self.depth(v) {
            u = self.parent(u).expect("depth > 0 implies a parent");
        }
        while self.depth(v) > self.depth(u) {
            v = self.parent(v).expect("depth > 0 implies a parent");
        }
        while u != v {
            u = self.parent(u).expect("distinct roots are impossible");
            v = self.parent(v).expect("distinct roots are impossible");
        }
        u
    }

    /// Whether `ε ∈ L(e/n)`.
    #[inline]
    pub fn nullable(&self, n: NodeId) -> bool {
        self.nullable_id(n.0)
    }

    /// Whether `n` is a SupFirst node.
    #[inline]
    pub fn sup_first(&self, n: NodeId) -> bool {
        self.p_sup_first[n.index()] == n.0
    }

    /// Whether `n` is a SupLast node.
    #[inline]
    pub fn sup_last(&self, n: NodeId) -> bool {
        self.p_sup_last[n.index()] == n.0
    }

    /// The lowest SupFirst node on the path from `n` to the root (including
    /// `n` itself), or `None` if there is none.
    #[inline]
    pub fn p_sup_first(&self, n: NodeId) -> Option<NodeId> {
        node(self.p_sup_first[n.index()])
    }

    /// The lowest SupLast node on the path from `n` to the root (including
    /// `n` itself), or `None` if there is none.
    #[inline]
    pub fn p_sup_last(&self, n: NodeId) -> Option<NodeId> {
        node(self.p_sup_last[n.index()])
    }

    /// The lowest iterating (`∗` or `{i,j}` with `j ≥ 2`) node on the path
    /// from `n` to the root (including `n` itself), or `None`.
    #[inline]
    pub fn p_star(&self, n: NodeId) -> Option<NodeId> {
        node(self.p_star[n.index()])
    }

    /// Lemma 2.3 (1): whether position `p` belongs to `First(n)`.
    #[inline]
    pub fn in_first(&self, p: PosId, n: NodeId) -> bool {
        self.in_first_ids(p.0, n.0)
    }

    /// Lemma 2.3 (2): whether position `p` belongs to `Last(n)`.
    #[inline]
    pub fn in_last(&self, p: PosId, n: NodeId) -> bool {
        self.in_last_ids(p.0, n.0)
    }

    /// Enumerates `First(n)` by scanning the positions below `n`.
    ///
    /// `O(|subtree|)` — intended for tests, diagnostics and the quadratic
    /// Glushkov baseline, not for the linear-time algorithms.
    pub fn first_set(&self, n: NodeId) -> Vec<PosId> {
        self.positions_under(n)
            .filter(|&p| self.in_first(p, n))
            .collect()
    }

    /// Enumerates `Last(n)` by scanning the positions below `n`.
    pub fn last_set(&self, n: NodeId) -> Vec<PosId> {
        self.positions_under(n)
            .filter(|&p| self.in_last(p, n))
            .collect()
    }

    /// Reflexive ancestor test over raw preorder ids: `a ≼ d`.
    #[inline]
    pub fn is_ancestor_ids(&self, a: u32, d: u32) -> bool {
        a <= d && d < self.subtree_end[a as usize]
    }

    /// The right child of `n` when `n` is a concatenation, else [`NONE`]:
    /// one load answers both "is this a concatenation?" and "where does its
    /// right child start?".
    #[inline]
    pub fn concat_rchild(&self, n: u32) -> u32 {
        self.concat_rchild[n as usize]
    }

    /// The lowest iterating ancestor-or-self of `n`, or [`NONE`].
    #[inline]
    pub fn p_star_id(&self, n: u32) -> u32 {
        self.p_star[n as usize]
    }

    /// The parent of `n`, or [`NONE`] for the root.
    #[inline]
    pub fn parent_id(&self, n: u32) -> u32 {
        self.parent[n as usize]
    }

    #[inline]
    fn nullable_id(&self, n: u32) -> bool {
        bit(&self.nullable, n)
    }

    /// The leaf node of position `p`.
    #[inline]
    pub fn leaf(&self, p: u32) -> u32 {
        self.leaf[p as usize].0
    }

    /// `pSupFirst` of position `p`'s leaf (the root when undefined).
    #[inline]
    pub fn psf(&self, p: u32) -> u32 {
        self.psf[p as usize]
    }

    /// `pSupLast` of position `p`'s leaf (the root when undefined).
    #[inline]
    pub fn psl(&self, p: u32) -> u32 {
        self.psl[p as usize]
    }

    /// Whether position `p` can end a word (`$ ∈ Follow(p)`), precomputed.
    #[inline]
    pub fn can_end(&self, p: u32) -> bool {
        bit(&self.can_end, p)
    }

    /// Lemma 2.3 (1) over raw ids: position `p` ∈ `First(n)`.
    #[inline]
    pub fn in_first_ids(&self, p: u32, n: u32) -> bool {
        self.is_ancestor_ids(n, self.leaf(p)) && self.is_ancestor_ids(self.psf(p), n)
    }

    /// Lemma 2.3 (2) over raw ids: position `p` ∈ `Last(n)`.
    #[inline]
    pub fn in_last_ids(&self, p: u32, n: u32) -> bool {
        self.is_ancestor_ids(n, self.leaf(p)) && self.is_ancestor_ids(self.psl(p), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_syntax::parse;

    fn tree(input: &str) -> ParseTree {
        let (e, _) = parse(input).unwrap();
        ParseTree::build(&e)
    }

    #[test]
    fn r1_wrapping_shape() {
        let t = tree("a");
        // root = Concat(Concat(#, a), $): 5 nodes, 3 positions.
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_positions(), 3);
        assert_eq!(t.kind(t.root()), NodeKind::Concat);
        let inner = t.lchild(t.root()).unwrap();
        assert_eq!(t.kind(inner), NodeKind::Concat);
        assert_eq!(t.kind(t.lchild(inner).unwrap()), NodeKind::Begin);
        assert_eq!(t.kind(t.rchild(t.root()).unwrap()), NodeKind::End);
        assert!(matches!(t.kind(t.expr_root()), NodeKind::Position(_)));
        assert_eq!(t.symbol_at(t.begin_pos()), None);
        assert_eq!(t.symbol_at(t.end_pos()), None);
    }

    #[test]
    fn positions_are_left_to_right() {
        let (e, sigma) = parse("(a b + b b? a)*").unwrap();
        let t = ParseTree::build(&e);
        assert_eq!(t.num_positions(), 7);
        let names: Vec<_> = t
            .positions()
            .iter()
            .map(|&n| match t.kind(n) {
                NodeKind::Begin => "#".to_owned(),
                NodeKind::End => "$".to_owned(),
                NodeKind::Position(sym) => sigma.name(sym).to_owned(),
                other => panic!("non-leaf position {other:?}"),
            })
            .collect();
        assert_eq!(names, vec!["#", "a", "b", "b", "b", "a", "$"]);
        let a = sigma.lookup("a").unwrap();
        let b = sigma.lookup("b").unwrap();
        assert_eq!(
            t.positions_of_symbol(a),
            &[PosId::from_index(1), PosId::from_index(5)]
        );
        assert_eq!(
            t.positions_of_symbol(b),
            &[
                PosId::from_index(2),
                PosId::from_index(3),
                PosId::from_index(4)
            ]
        );
    }

    #[test]
    fn preorder_and_ancestors() {
        let t = tree("(a b)* c");
        for n in t.node_ids() {
            for m in t.node_ids() {
                let expected = {
                    // Naive ancestor check by climbing.
                    let mut cur = Some(m);
                    let mut found = false;
                    while let Some(x) = cur {
                        if x == n {
                            found = true;
                            break;
                        }
                        cur = t.parent(x);
                    }
                    found
                };
                assert_eq!(t.is_ancestor(n, m), expected, "ancestor({n:?},{m:?})");
            }
        }
    }

    #[test]
    fn children_and_parent_are_consistent() {
        let t = tree("(c?((a b*)(a? c)))*(b a)");
        for n in t.node_ids() {
            for c in t.children(n) {
                assert_eq!(t.parent(c), Some(n));
                assert_eq!(t.depth(c), t.depth(n) + 1);
                assert!(t.is_strict_ancestor(n, c));
            }
            match t.kind(n) {
                k if k.is_leaf() => {
                    assert_eq!(t.children(n).count(), 0);
                    assert!(t.node_pos(n).is_some());
                }
                NodeKind::Concat | NodeKind::Union => assert_eq!(t.children(n).count(), 2),
                _ => assert_eq!(t.children(n).count(), 1),
            }
        }
    }

    #[test]
    fn naive_lca_agrees_with_structure() {
        let t = tree("(c?((a b*)(a? c)))*(b a)");
        for u in t.node_ids() {
            for v in t.node_ids() {
                let l = t.lca_naive(u, v);
                assert!(t.is_ancestor(l, u));
                assert!(t.is_ancestor(l, v));
                // No child of l is an ancestor of both.
                for c in t.children(l) {
                    assert!(!(t.is_ancestor(c, u) && t.is_ancestor(c, v)));
                }
            }
        }
    }

    #[test]
    fn symbol_positions_iterator() {
        let (e, sigma) = parse("(title, author+, year?)").unwrap();
        let t = ParseTree::build(&e);
        let syms: Vec<_> = t.symbol_positions().map(|(_, s)| s).collect();
        assert_eq!(
            syms,
            vec![
                sigma.lookup("title").unwrap(),
                sigma.lookup("author").unwrap(),
                sigma.lookup("year").unwrap()
            ]
        );
    }

    #[test]
    fn unknown_symbol_has_no_positions() {
        let (e, _) = parse("a b").unwrap();
        let t = ParseTree::build(&e);
        assert!(t.positions_of_symbol(Symbol::from_index(57)).is_empty());
    }

    fn setup(input: &str) -> (ParseTree, redet_syntax::Alphabet) {
        let (e, sigma) = parse(input).unwrap();
        (ParseTree::build(&e), sigma)
    }

    /// Reference First computation straight from the syntax-directed
    /// definition (used only to validate Lemma 2.3 membership).
    fn first_naive(tree: &ParseTree, n: NodeId) -> Vec<PosId> {
        match tree.kind(n) {
            k if k.is_leaf() => vec![tree.node_pos(n).unwrap()],
            NodeKind::Concat => {
                let l = tree.lchild(n).unwrap();
                let r = tree.rchild(n).unwrap();
                let mut out = first_naive(tree, l);
                if tree.nullable(l) {
                    out.extend(first_naive(tree, r));
                }
                out
            }
            NodeKind::Union => {
                let mut out = first_naive(tree, tree.lchild(n).unwrap());
                out.extend(first_naive(tree, tree.rchild(n).unwrap()));
                out
            }
            _ => first_naive(tree, tree.lchild(n).unwrap()),
        }
    }

    fn last_naive(tree: &ParseTree, n: NodeId) -> Vec<PosId> {
        match tree.kind(n) {
            k if k.is_leaf() => vec![tree.node_pos(n).unwrap()],
            NodeKind::Concat => {
                let l = tree.lchild(n).unwrap();
                let r = tree.rchild(n).unwrap();
                let mut out = last_naive(tree, r);
                if tree.nullable(r) {
                    out.extend(last_naive(tree, l));
                }
                out
            }
            NodeKind::Union => {
                let mut out = last_naive(tree, tree.lchild(n).unwrap());
                out.extend(last_naive(tree, tree.rchild(n).unwrap()));
                out
            }
            _ => last_naive(tree, tree.lchild(n).unwrap()),
        }
    }

    fn check_lemma_2_3(input: &str) {
        let (tree, _) = setup(input);
        for n in tree.node_ids() {
            let mut expected_first = first_naive(&tree, n);
            expected_first.sort();
            let mut got_first = tree.first_set(n);
            got_first.sort();
            assert_eq!(got_first, expected_first, "First({n:?}) in {input}");

            let mut expected_last = last_naive(&tree, n);
            expected_last.sort();
            let mut got_last = tree.last_set(n);
            got_last.sort();
            assert_eq!(got_last, expected_last, "Last({n:?}) in {input}");
        }
    }

    #[test]
    fn lemma_2_3_on_paper_expressions() {
        for input in [
            "a",
            "a b",
            "a + b",
            "a? b",
            "(a b + b b? a)*",
            "(a* b a + b b)*",
            "(c?((a b*)(a? c)))*(b a)",
            "(c (b? a?)) a",
            "(c (a? b?)) a",
            "(c (b? a)*) a",
            "(c (b? a)) a",
            "(a (b? a))*",
            "(a (b? a?))*",
            "a? b? c? d?",
            "(a0 + a1 + a2 + a3)*",
            "(a b){2,3} c",
            "(a{2,5} + b)* c",
        ] {
            check_lemma_2_3(input);
        }
    }

    #[test]
    fn nullability_matches_ast() {
        for input in ["(a b + b b? a)*", "a? b?", "a b?", "(a + b?) c*", "a{2,3}"] {
            let (e, _) = parse(input).unwrap();
            let tree = ParseTree::build(&e);
            assert_eq!(tree.nullable(tree.expr_root()), e.nullable(), "{input}");
            // The wrapped expression (# e′) $ is never nullable.
            assert!(!tree.nullable(tree.root()));
        }
    }

    #[test]
    fn figure1_sup_nodes() {
        // e0 = (c?((ab*)(a?c)))*(ba) — Figure 1. We check the structural
        // facts the figure annotates, independently of node numbering:
        // the root of e′ (node n1 in the figure) is a SupFirst node because
        // of the phantom #, and the star subtree is a SupLast node because
        // the (b a) factor to its right is non-nullable. The (b a) factor
        // itself is *not* SupFirst because the starred part is nullable.
        let (tree, sigma) = setup("(c?((a b*)(a? c)))*(b a)");
        let a = sigma.lookup("a").unwrap();
        let b = sigma.lookup("b").unwrap();
        let expr_root = tree.expr_root();
        let star = tree.lchild(expr_root).unwrap();
        let ba = tree.rchild(expr_root).unwrap();
        assert!(matches!(tree.kind(star), NodeKind::Star));
        assert!(tree.sup_first(expr_root));
        assert!(tree.sup_last(star));
        assert!(!tree.sup_first(ba));
        // First(e0) = {c (p1), a (p2), b (p6)}: the starred part is nullable
        // so the b of (b a) is a First position, but the final a is not.
        let last_b = *tree.positions_of_symbol(b).last().unwrap();
        let last_a = *tree.positions_of_symbol(a).last().unwrap();
        assert!(tree.in_first(last_b, expr_root));
        assert!(!tree.in_first(last_a, expr_root));
        // Last(e0) = {a (p7)} only.
        assert!(tree.in_last(last_a, expr_root));
        assert!(!tree.in_last(last_b, expr_root));
    }

    #[test]
    fn p_pointers_are_lowest_ancestors() {
        let (tree, _) = setup("(c?((a b*)(a? c)))*(b a)");
        for n in tree.node_ids() {
            // Recompute by climbing.
            let mut cur = Some(n);
            let mut expect_sf = None;
            while let Some(x) = cur {
                if tree.sup_first(x) {
                    expect_sf = Some(x);
                    break;
                }
                cur = tree.parent(x);
            }
            assert_eq!(tree.p_sup_first(n), expect_sf, "pSupFirst({n:?})");

            let mut cur = Some(n);
            let mut expect_sl = None;
            while let Some(x) = cur {
                if tree.sup_last(x) {
                    expect_sl = Some(x);
                    break;
                }
                cur = tree.parent(x);
            }
            assert_eq!(tree.p_sup_last(n), expect_sl, "pSupLast({n:?})");

            let mut cur = Some(n);
            let mut expect_star = None;
            while let Some(x) = cur {
                if tree.kind(x).is_iterating() {
                    expect_star = Some(x);
                    break;
                }
                cur = tree.parent(x);
            }
            assert_eq!(tree.p_star(n), expect_star, "pStar({n:?})");
        }
    }

    #[test]
    fn r1_guarantees_defined_pointers_inside_expr() {
        // For every node of e′ both pSupFirst and pSupLast are defined
        // (the paper notes this follows from R1).
        let (tree, _) = setup("(a b + b b? a)*");
        let expr_root = tree.expr_root();
        for n in tree.node_ids() {
            if tree.is_ancestor(expr_root, n) {
                assert!(
                    tree.p_sup_first(n).is_some(),
                    "pSupFirst undefined at {n:?}"
                );
                assert!(tree.p_sup_last(n).is_some(), "pSupLast undefined at {n:?}");
            }
        }
    }

    #[test]
    fn positions_under_subtrees() {
        let (tree, _) = setup("(a b)(c d)");
        let expr_root = tree.expr_root();
        let left = tree.lchild(expr_root).unwrap();
        let right = tree.rchild(expr_root).unwrap();
        let under_left: Vec<_> = tree.positions_under(left).collect();
        let under_right: Vec<_> = tree.positions_under(right).collect();
        assert_eq!(under_left.len(), 2);
        assert_eq!(under_right.len(), 2);
        let all: Vec<_> = tree.positions_under(tree.root()).collect();
        assert_eq!(all.len(), tree.num_positions());
    }
}
