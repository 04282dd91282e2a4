//! Parser for the textual regular expression syntax.
//!
//! The concrete syntax follows the paper and common DTD/XML-Schema practice:
//!
//! * union is written `+` (paper style) or `|` (DTD style);
//! * concatenation is juxtaposition (`ab`, `a b`) or a comma (`a, b`, DTD
//!   style);
//! * postfix operators are `*`, `?` and the numeric occurrence indicators
//!   `{i}`, `{i,}`, `{i,j}` (XML-Schema `minOccurs`/`maxOccurs`);
//! * symbols are identifiers (`title`, `author-name`, `a1`) or single
//!   alphanumeric characters; multi-character identifiers must be separated
//!   by whitespace or punctuation;
//! * parentheses group.
//!
//! The characters `#` and `$` are reserved for the phantom begin/end markers
//! introduced by restriction (R1) and are rejected by the parser.
//!
//! Parsing, normalization, the parse-tree analysis and `Drop` all recurse
//! along the tree, so the parser bounds its shape: a tree deeper than
//! [`MAX_TREE_DEPTH`] nodes, or parentheses nested deeper than
//! [`MAX_NESTING`], is a [`ParseError`] at the token that crossed the cap.
//!
//! A model with numeric occurrence indicators (`e{i,j}`) is compiled by
//! unrolling them (`redet_automata::unroll_counting`) into a tree whose
//! follow lists are stored explicitly, so the parser also bounds the tree
//! the unroll *will* build, before anything is built: its depth (again
//! [`MAX_TREE_DEPTH`]), its position count ([`MAX_UNROLLED_POSITIONS`]) and
//! the position-set entries its Glushkov automaton stores
//! ([`MAX_UNROLLED_SET_ENTRIES`]). Crossing one is a [`ParseError`] at the
//! operator token where it is crossed — for a single counted node, at its
//! `{`.
//!
//! ```
//! use redet_syntax::{parse, Regex};
//!
//! let (e, sigma) = parse("(a b + b b? a)*").unwrap();
//! assert_eq!(e.num_positions(), 5);
//! assert_eq!(sigma.len(), 2);
//!
//! // DTD style content model.
//! let (e, sigma) = parse("(title, author+, year?)").unwrap();
//! assert_eq!(e.num_positions(), 3);
//! assert_eq!(sigma.len(), 3);
//! ```

use crate::alphabet::Alphabet;
use crate::ast::Regex;
use crate::error::{ParseError, Span};

/// The deepest parsed tree accepted, counted in nodes from the root to the
/// deepest leaf. A sequence, union or postfix chain of `n` factors is `n`
/// deep; the longest models the repository compiles (4 000-factor
/// sequences) are 4 001 deep. At this cap an x86-64 release build compiles
/// every tree shape on a 2 MiB thread stack with about a quarter of it to
/// spare.
pub const MAX_TREE_DEPTH: usize = 4_500;

/// The deepest parenthesis nesting accepted. Every `(` costs several parser
/// frames on top of the tree node it may add, so nesting is capped below
/// [`MAX_TREE_DEPTH`]. The tokenizer enforces it, before any recursion.
pub const MAX_NESTING: usize = 1_000;

/// The most positions a counted model may unroll to. Each unrolled copy of
/// a position is a node of the compiled simulation.
pub const MAX_UNROLLED_POSITIONS: usize = 1 << 16;

/// The most position-set entries a counted model may unroll to: every
/// follow pair (position `p` may be followed by position `q`) plus the
/// first and last sets of every node, which the unrolled model's Glushkov
/// automaton all materialises. Each copy of a counted body follows every
/// last position of the copy before it with every first position of its
/// own, so `(b1 | … | bn){1,2}` alone adds `n²` pairs, and a union of `n`
/// names holds `n²` first/last entries along its chain of union nodes.
pub const MAX_UNROLLED_SET_ENTRIES: usize = 1 << 21;

/// The size of the tree `unroll_counting` builds from a parsed model: its
/// positions and the position-set entries its Glushkov automaton stores.
/// Zero for a model without numeric occurrence indicators (`e+` is not
/// one), which compiles in time linear in its text instead. Each counted
/// model is capped on these ([`MAX_UNROLLED_POSITIONS`],
/// [`MAX_UNROLLED_SET_ENTRIES`]); a schema sums them to budget all of its
/// models together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnrolledSize {
    /// Positions of the unrolled tree.
    pub positions: usize,
    /// Follow pairs plus the first/last set sizes of every unrolled node.
    pub entries: usize,
}

/// Parses `input` into an expression, interning symbols into a fresh
/// [`Alphabet`].
pub fn parse(input: &str) -> Result<(Regex, Alphabet), ParseError> {
    let mut alphabet = Alphabet::new();
    let regex = parse_with_alphabet(input, &mut alphabet)?;
    Ok((regex, alphabet))
}

/// Parses `input`, interning symbols into the provided `alphabet`.
///
/// Useful when several content models (e.g. all the element declarations of
/// one DTD) must share a single symbol space.
pub fn parse_with_alphabet(input: &str, alphabet: &mut Alphabet) -> Result<Regex, ParseError> {
    parse_spanned_with_alphabet(input, alphabet).map(|(regex, ..)| regex)
}

/// Like [`parse`], additionally returning the byte span of every alphabet
/// position (leaf) of the expression, in position (left-to-right) order.
///
/// The spans let diagnostics point back into the source: position `i` of the
/// expression (0-based, phantom markers excluded) was written at
/// `spans[i]`.
///
/// ```
/// use redet_syntax::parse_spanned;
///
/// let (e, _, spans) = parse_spanned("(a bb)* a").unwrap();
/// assert_eq!(e.num_positions(), 3);
/// assert_eq!((spans[1].start, spans[1].end), (3, 5)); // "bb"
/// assert_eq!((spans[2].start, spans[2].end), (8, 9)); // the final "a"
/// ```
pub fn parse_spanned(input: &str) -> Result<(Regex, Alphabet, Vec<Span>), ParseError> {
    let mut alphabet = Alphabet::new();
    let (regex, spans, _) = parse_spanned_with_alphabet(input, &mut alphabet)?;
    Ok((regex, alphabet, spans))
}

/// Like [`parse_with_alphabet`], additionally returning per-position byte
/// spans (see [`parse_spanned`]) and the [`UnrolledSize`] of the model.
///
/// ```
/// use redet_syntax::{parse_spanned_with_alphabet, Alphabet, UnrolledSize};
///
/// let mut alphabet = Alphabet::new();
/// let (_, _, size) = parse_spanned_with_alphabet("(a, b)+", &mut alphabet).unwrap();
/// assert_eq!(size, UnrolledSize::default());
/// let (_, _, size) = parse_spanned_with_alphabet("(a{3})", &mut alphabet).unwrap();
/// assert_eq!(size.positions, 3);
/// ```
pub fn parse_spanned_with_alphabet(
    input: &str,
    alphabet: &mut Alphabet,
) -> Result<(Regex, Vec<Span>, UnrolledSize), ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        alphabet,
        spans: Vec::new(),
    };
    let (expr, shape) = parser.parse_union()?;
    if parser.pos != parser.tokens.len() {
        let (offset, _, tok) = &parser.tokens[parser.pos];
        return Err(ParseError::new(
            *offset,
            format!("unexpected trailing input near {tok:?}"),
        ));
    }
    let size = if shape.counted {
        UnrolledSize {
            positions: shape.positions,
            entries: shape.entries,
        }
    } else {
        UnrolledSize::default()
    };
    Ok((expr, parser.spans, size))
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Token {
    LParen,
    RParen,
    Union,
    Star,
    Question,
    Comma,
    Repeat(u32, Option<u32>),
    PostfixPlus,
    Ident(String),
}

fn tokenize(input: &str) -> Result<Vec<(usize, usize, Token)>, ParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut nesting = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                nesting += 1;
                if nesting > MAX_NESTING {
                    return Err(ParseError::new(
                        i,
                        format!("parentheses nest deeper than {MAX_NESTING} levels"),
                    ));
                }
                tokens.push((i, i + 1, Token::LParen));
                i += 1;
            }
            ')' => {
                nesting = nesting.saturating_sub(1);
                tokens.push((i, i + 1, Token::RParen));
                i += 1;
            }
            '+' | '|' => {
                // `+` directly after an atom/closing construct is the DTD
                // "one or more" postfix operator; otherwise it is union.
                let postfix = c == '+'
                    && matches!(
                        tokens.last(),
                        Some((
                            _,
                            _,
                            Token::RParen
                                | Token::Ident(_)
                                | Token::Star
                                | Token::Question
                                | Token::Repeat(_, _)
                                | Token::PostfixPlus
                        ))
                    )
                    && {
                        // Lookahead: union must be followed by something that
                        // starts an atom; postfix-plus is followed by an
                        // operator, `)`, `,` or end of input.
                        let mut j = i + 1;
                        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                            j += 1;
                        }
                        j >= bytes.len()
                            || matches!(bytes[j] as char, ')' | ',' | '|' | '+' | '*' | '?' | '{')
                    };
                tokens.push((
                    i,
                    i + 1,
                    if postfix {
                        Token::PostfixPlus
                    } else {
                        Token::Union
                    },
                ));
                i += 1;
            }
            '*' => {
                tokens.push((i, i + 1, Token::Star));
                i += 1;
            }
            '?' => {
                tokens.push((i, i + 1, Token::Question));
                i += 1;
            }
            ',' => {
                tokens.push((i, i + 1, Token::Comma));
                i += 1;
            }
            '{' => {
                let start = i;
                let close = input[i..]
                    .find('}')
                    .map(|off| i + off)
                    .ok_or_else(|| ParseError::new(i, "unterminated '{'"))?;
                let body = &input[i + 1..close];
                let token = parse_repeat(body).map_err(|msg| ParseError::new(start, msg))?;
                tokens.push((start, close + 1, token));
                i = close + 1;
            }
            '#' | '$' => {
                return Err(ParseError::new(
                    i,
                    format!("'{c}' is reserved for the phantom begin/end markers"),
                ));
            }
            c if is_ident_start(c) => {
                let start = i;
                i += 1;
                while i < bytes.len() && is_ident_continue(bytes[i] as char) {
                    i += 1;
                }
                tokens.push((start, i, Token::Ident(input[start..i].to_owned())));
            }
            _ => {
                return Err(ParseError::new(i, format!("unexpected character '{c}'")));
            }
        }
    }
    Ok(tokens)
}

fn parse_repeat(body: &str) -> Result<Token, String> {
    let body = body.trim();
    let parse_u32 = |s: &str| -> Result<u32, String> {
        s.trim()
            .parse::<u32>()
            .map_err(|_| format!("invalid repetition bound '{s}'"))
    };
    if let Some((lo, hi)) = body.split_once(',') {
        let min = parse_u32(lo)?;
        let max = if hi.trim().is_empty() {
            None
        } else {
            Some(parse_u32(hi)?)
        };
        if let Some(max) = max {
            if min > max {
                return Err(format!("lower bound {min} exceeds upper bound {max}"));
            }
        }
        Ok(Token::Repeat(min, max))
    } else {
        let n = parse_u32(body)?;
        Ok(Token::Repeat(n, Some(n)))
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-' || c == '.'
}

/// The size measures of a parsed subtree the parse caps bound: its depth
/// as parsed, and — for the tree `unroll_counting` would build from it —
/// its depth, positions, first/last set sizes, nullability and
/// position-set entries (Glushkov's construction, counted rather than
/// built). Counts saturate.
#[derive(Clone, Copy, Debug)]
struct Shape {
    depth: usize,
    unrolled_depth: usize,
    positions: usize,
    first: usize,
    last: usize,
    nullable: bool,
    /// Follow pairs plus the first/last set sizes of every node.
    entries: usize,
    /// Whether the subtree has a genuine counter (not `e+`), so that it is
    /// compiled unrolled.
    counted: bool,
}

impl Shape {
    const LEAF: Shape = Shape {
        depth: 1,
        unrolled_depth: 1,
        positions: 1,
        first: 1,
        last: 1,
        nullable: false,
        entries: 2,
        counted: false,
    };

    fn concat(&self, r: &Shape) -> Shape {
        Shape {
            depth: self.depth.max(r.depth) + 1,
            unrolled_depth: self.unrolled_depth.max(r.unrolled_depth) + 1,
            positions: self.positions.saturating_add(r.positions),
            first: if self.nullable {
                self.first.saturating_add(r.first)
            } else {
                self.first
            },
            last: if r.nullable {
                r.last.saturating_add(self.last)
            } else {
                r.last
            },
            nullable: self.nullable && r.nullable,
            entries: self
                .entries
                .saturating_add(r.entries)
                .saturating_add(self.last.saturating_mul(r.first)),
            counted: self.counted || r.counted,
        }
        .with_sets()
    }

    fn union(&self, r: &Shape) -> Shape {
        Shape {
            depth: self.depth.max(r.depth) + 1,
            unrolled_depth: self.unrolled_depth.max(r.unrolled_depth) + 1,
            positions: self.positions.saturating_add(r.positions),
            first: self.first.saturating_add(r.first),
            last: self.last.saturating_add(r.last),
            nullable: self.nullable || r.nullable,
            entries: self.entries.saturating_add(r.entries),
            counted: self.counted || r.counted,
        }
        .with_sets()
    }

    fn opt(&self) -> Shape {
        Shape {
            depth: self.depth + 1,
            unrolled_depth: self.unrolled_depth + 1,
            nullable: true,
            ..*self
        }
        .with_sets()
    }

    fn star(&self) -> Shape {
        let mut star = self.opt();
        star.entries = star
            .entries
            .saturating_add(self.last.saturating_mul(self.first));
        star
    }

    /// Counts a new node's own first and last sets.
    fn with_sets(mut self) -> Shape {
        self.entries = self
            .entries
            .saturating_add(self.first)
            .saturating_add(self.last);
        self
    }

    /// `e{min,max}` (`e+` is `e{1,}`): one node as parsed, and the tree
    /// `unroll_counting` expands it to — `min` copies chained left-deep,
    /// then `e*` or `max − min` nested optional copies. The fold stops as
    /// soon as a cap is crossed, so huge bounds cost nothing.
    fn repeat(&self, min: u32, max: Option<u32>) -> Shape {
        let within = |shape: &Shape| !shape.over_caps();
        let mut unrolled = match max {
            None if min == 0 => self.star(),
            None => {
                let mut chain = *self;
                for _ in 1..min {
                    if !within(&chain) {
                        break;
                    }
                    chain = chain.concat(self);
                }
                chain.concat(&self.star())
            }
            Some(max) => {
                let mut tail: Option<Shape> = None;
                for _ in 0..max - min {
                    tail = Some(match tail {
                        None => self.opt(),
                        Some(t) if within(&t) => self.concat(&t).opt(),
                        Some(_) => break,
                    });
                }
                let mut chain = (min > 0).then_some(*self);
                for _ in 1..min {
                    match chain {
                        Some(c) if within(&c) => chain = Some(c.concat(self)),
                        _ => break,
                    }
                }
                match (chain, tail) {
                    (Some(c), Some(t)) => c.concat(&t),
                    (Some(c), None) => c,
                    (None, Some(t)) => t,
                    (None, None) => self.opt(),
                }
            }
        };
        unrolled.depth = self.depth + 1;
        unrolled.counted = self.counted || !(min == 1 && max.is_none());
        unrolled
    }

    /// Whether the unrolled tree crosses a cap (only meaningful for
    /// counted subtrees).
    fn over_caps(&self) -> bool {
        self.unrolled_depth > MAX_TREE_DEPTH
            || self.positions > MAX_UNROLLED_POSITIONS
            || self.entries > MAX_UNROLLED_SET_ENTRIES
    }

    /// `self`, or the error naming the cap it crosses at the token at
    /// `offset`: the parsed depth for every tree, the unrolled measures for
    /// counted ones.
    fn checked(self, offset: usize) -> Result<Shape, ParseError> {
        let crossed = if self.depth > MAX_TREE_DEPTH {
            format!("expression nests deeper than {MAX_TREE_DEPTH} levels")
        } else if !self.counted {
            return Ok(self);
        } else if self.unrolled_depth > MAX_TREE_DEPTH {
            format!("counted repetition unrolls deeper than {MAX_TREE_DEPTH} levels")
        } else if self.positions > MAX_UNROLLED_POSITIONS {
            format!("counted repetition unrolls to more than {MAX_UNROLLED_POSITIONS} positions")
        } else if self.entries > MAX_UNROLLED_SET_ENTRIES {
            format!(
                "counted repetition unrolls to more than {MAX_UNROLLED_SET_ENTRIES} \
                 position-set entries"
            )
        } else {
            return Ok(self);
        };
        Err(ParseError::new(offset, crossed))
    }
}

struct Parser<'a> {
    tokens: Vec<(usize, usize, Token)>,
    pos: usize,
    alphabet: &'a mut Alphabet,
    /// Byte span of every symbol leaf, pushed in parse order — which is
    /// position (left-to-right) order, because the descent builds leaves
    /// strictly left to right.
    spans: Vec<Span>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, _, t)| t)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(o, _, _)| *o)
            .unwrap_or_else(|| {
                // Past the end: report just after the last token (0 for empty
                // input) instead of a nonsense offset.
                self.tokens.last().map(|(_, end, _)| *end).unwrap_or(0)
            })
    }

    fn bump(&mut self) -> Option<Token> {
        let tok = self.tokens.get(self.pos).map(|(_, _, t)| t.clone());
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    // Each `parse_*` returns the subtree and its `Shape`.

    fn parse_union(&mut self) -> Result<(Regex, Shape), ParseError> {
        let (mut expr, mut shape) = self.parse_concat()?;
        while matches!(self.peek(), Some(Token::Union)) {
            let offset = self.offset();
            self.bump();
            let (rhs, rhs_shape) = self.parse_concat()?;
            shape = shape.union(&rhs_shape).checked(offset)?;
            expr = expr.or(rhs);
        }
        Ok((expr, shape))
    }

    fn parse_concat(&mut self) -> Result<(Regex, Shape), ParseError> {
        let (mut expr, mut shape) = self.parse_postfix()?;
        loop {
            let offset = self.offset();
            match self.peek() {
                Some(Token::Comma) => {
                    self.bump();
                }
                Some(Token::LParen) | Some(Token::Ident(_)) => {}
                _ => break,
            }
            let (rhs, rhs_shape) = self.parse_postfix()?;
            shape = shape.concat(&rhs_shape).checked(offset)?;
            expr = expr.then(rhs);
        }
        Ok((expr, shape))
    }

    fn parse_postfix(&mut self) -> Result<(Regex, Shape), ParseError> {
        let (mut expr, mut shape) = self.parse_atom()?;
        loop {
            let offset = self.offset();
            (expr, shape) = match self.peek() {
                Some(Token::Star) => (expr.star(), shape.star()),
                Some(Token::Question) => (expr.opt(), shape.opt()),
                Some(Token::PostfixPlus) => (expr.plus(), shape.repeat(1, None)),
                Some(Token::Repeat(min, max)) => {
                    (expr.repeat(*min, *max), shape.repeat(*min, *max))
                }
                _ => break,
            };
            self.bump();
            shape = shape.checked(offset)?;
        }
        Ok((expr, shape))
    }

    fn parse_atom(&mut self) -> Result<(Regex, Shape), ParseError> {
        let offset = self.offset();
        let end = self
            .tokens
            .get(self.pos)
            .map(|(_, end, _)| *end)
            .unwrap_or(offset);
        match self.bump() {
            Some(Token::LParen) => {
                let expr = self.parse_union()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(expr),
                    _ => Err(ParseError::new(offset, "unbalanced '(': expected ')'")),
                }
            }
            Some(Token::Ident(name)) => {
                self.spans.push(Span::new(offset, end));
                Ok((Regex::symbol(self.alphabet.intern(&name)), Shape::LEAF))
            }
            Some(tok) => Err(ParseError::new(
                offset,
                format!("expected a symbol or '(' but found {tok:?}"),
            )),
            None => Err(ParseError::new(offset, "unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_2_1() {
        // e1 = (ab + b(b?)a)* has positions a b b b a.
        let (e, sigma) = parse("(a b + b (b?) a)*").unwrap();
        assert_eq!(sigma.len(), 2);
        assert_eq!(e.num_positions(), 5);
        let names: Vec<_> = e
            .positions()
            .iter()
            .map(|s| sigma.name(*s).to_owned())
            .collect();
        assert_eq!(names, vec!["a", "b", "b", "b", "a"]);
        // e2 = (a*ba + bb)*
        let (e2, _) = parse("(a* b a + b b)*").unwrap();
        assert_eq!(e2.num_positions(), 5);
    }

    #[test]
    fn figure1_expression_parses() {
        // e0 = (c?((ab*)(a?c)))*(ba)
        let (e, sigma) = parse("(c?((a b*)(a? c)))*(b a)").unwrap();
        assert_eq!(sigma.len(), 3);
        assert_eq!(e.num_positions(), 7);
    }

    #[test]
    fn dtd_style_content_model() {
        let (e, sigma) = parse("(title, author+, (year | date)?)").unwrap();
        assert_eq!(sigma.len(), 4);
        assert_eq!(e.num_positions(), 4);
        // author+ is the native one-or-more closure, not a counter.
        assert!(!e.has_counting());
    }

    #[test]
    fn union_pipe_and_plus_are_equivalent() {
        let (e1, _) = parse("a + b + c").unwrap();
        let (e2, _) = parse("a | b | c").unwrap();
        assert_eq!(format!("{e1:?}"), format!("{e2:?}"));
    }

    #[test]
    fn postfix_plus_detection() {
        let (e, _) = parse("a+, b").unwrap();
        // a{1,∞} concatenated (DTD comma) with b.
        assert!(matches!(e, Regex::Concat(_, _)));
        assert!(!e.has_counting()); // native plus, not a counter
                                    // Without the comma and with a following atom, `+` is a union
                                    // (paper convention wins over the DTD postfix reading).
        let (e, _) = parse("a+ b").unwrap();
        assert!(matches!(e, Regex::Union(_, _)));
        let (e, _) = parse("a + b").unwrap();
        // With spaces but a following atom this is a union.
        assert!(matches!(e, Regex::Union(_, _)));
        let (e, _) = parse("(a b)+").unwrap();
        assert!(matches!(e, Regex::Repeat(_, 1, None)));
    }

    #[test]
    fn numeric_occurrences() {
        let (e, _) = parse("(a b){2,2} a (b + d)").unwrap();
        assert_eq!(e.num_positions(), 5);
        let (e, _) = parse("a{3}").unwrap();
        assert!(matches!(e, Regex::Repeat(_, 3, Some(3))));
        let (e, _) = parse("a{2,}").unwrap();
        assert!(matches!(e, Regex::Repeat(_, 2, None)));
        assert!(parse("a{3,1}").is_err());
        assert!(parse("a{x}").is_err());
        assert!(parse("a{1").is_err());
    }

    #[test]
    fn errors_are_reported_with_offsets() {
        assert!(parse("(a b").is_err());
        assert!(parse("a )").is_err());
        assert!(parse("* a").is_err());
        assert!(parse("a @ b").is_err());
        assert!(parse("").is_err());
        assert!(parse("a # b").is_err());
        assert!(parse("$").is_err());
        let err = parse("a @ b").unwrap_err();
        assert_eq!(err.offset, 2);
    }

    #[test]
    fn end_of_input_errors_point_past_the_last_token() {
        // Empty input: the error points at offset 0, not a garbage offset.
        assert_eq!(parse("").unwrap_err().offset, 0);
        // EOF mid-expression: just after the last token, not inside it
        // (the union token spans 2..3, so the missing operand is at 3).
        assert_eq!(parse("a |").unwrap_err().offset, 3);
        assert_eq!(parse("title |").unwrap_err().offset, 7);
        // An unbalanced '(' is reported at the '(' itself.
        assert_eq!(parse("(title").unwrap_err().offset, 0);
    }

    /// The byte offset of the `n`th (0-based) occurrence of `needle`.
    fn nth_offset(input: &str, needle: &str, n: usize) -> usize {
        input.match_indices(needle).nth(n).unwrap().0
    }

    #[test]
    fn over_deep_trees_are_refused_at_the_crossing_token() {
        // One shape per way the tree grows: postfix chain, sequence (comma
        // and juxtaposition), union. Each has MAX_TREE_DEPTH + 1 levels; the
        // error lands on the operator that would build the deepest node.
        let postfix = format!("a{}", "?".repeat(MAX_TREE_DEPTH));
        let comma = vec!["a"; MAX_TREE_DEPTH + 1].join(",");
        let juxtaposed = vec!["a"; MAX_TREE_DEPTH + 1].join(" ");
        let names: Vec<String> = (0..=MAX_TREE_DEPTH).map(|i| format!("a{i}")).collect();
        let union = names.join("|");
        for (input, needle, crossing) in [
            (&postfix, "?", MAX_TREE_DEPTH - 1),
            (&comma, ",", MAX_TREE_DEPTH - 1),
            (&juxtaposed, " ", MAX_TREE_DEPTH - 1),
            (&union, "|", MAX_TREE_DEPTH - 1),
        ] {
            let err = parse(input).unwrap_err();
            assert_eq!(
                err.message,
                format!("expression nests deeper than {MAX_TREE_DEPTH} levels")
            );
            // Juxtaposition has no operator token: the crossing token is the
            // factor after the separating space.
            let expected = nth_offset(input, needle, crossing) + usize::from(needle == " ");
            assert_eq!(err.offset, expected, "{needle:?}");
        }
    }

    #[test]
    fn counted_models_are_bounded_by_their_unrolled_tree() {
        let crossing = |input: &str| {
            let err = parse(input).unwrap_err();
            (err.offset, err.message)
        };
        // Depth: `a{n}` unrolls to a chain of n copies.
        assert!(parse(&format!("a{{{MAX_TREE_DEPTH}}}")).is_ok());
        assert_eq!(
            crossing(&format!("a{{{}}}", MAX_TREE_DEPTH + 1)),
            (
                1,
                format!("counted repetition unrolls deeper than {MAX_TREE_DEPTH} levels")
            )
        );
        // Huge bounds are refused without unrolling them.
        assert_eq!(crossing("b, a{4294967295}").0, 4);
        assert_eq!(crossing("(a, b?){0,4294967295}").0, 7);
        // Positions: 1 000 per copy.
        let sequence = vec!["a"; 1000].join(" ");
        assert!(parse(&format!("({sequence}){{65}}")).is_ok());
        assert_eq!(
            crossing(&format!("({sequence}){{66}}")).1,
            format!("counted repetition unrolls to more than {MAX_UNROLLED_POSITIONS} positions")
        );
        // Position-set entries: n names, two copies, n² follow pairs.
        let union = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
            format!("({}){{1,2}}", names.join("|"))
        };
        assert!(parse(&union(834)).is_ok());
        assert_eq!(
            crossing(&union(835)).1,
            format!(
                "counted repetition unrolls to more than {MAX_UNROLLED_SET_ENTRIES} \
                 position-set entries"
            )
        );
        // A counter anywhere makes the whole model unrolled: a wide `+`
        // is free on its own but not next to a counter.
        let plus = format!(
            "({})+",
            (0..2000)
                .map(|i| format!("a{i}"))
                .collect::<Vec<_>>()
                .join("|")
        );
        assert!(parse(&plus).is_ok());
        let err = parse(&format!("{plus}, b{{2}}")).unwrap_err();
        assert_eq!(err.offset, plus.len());
        // Counter-free models are never bounded by the unrolled measures.
        assert!(parse(&format!("({})*", union(3000).trim_end_matches("{1,2}"))).is_ok());
    }

    #[test]
    fn over_deep_parentheses_are_refused_before_parsing() {
        let input = format!(
            "{}a{}",
            "(".repeat(MAX_NESTING + 1),
            ")".repeat(MAX_NESTING + 1)
        );
        let err = parse(&input).unwrap_err();
        assert_eq!(
            err.message,
            format!("parentheses nest deeper than {MAX_NESTING} levels")
        );
        assert_eq!(err.offset, MAX_NESTING);
        // Sibling groups do not add up: only the open depth counts.
        let siblings = vec!["(a)"; MAX_NESTING + 1].join(",");
        assert!(parse(&format!("({siblings})")).is_ok());
    }

    #[test]
    fn shared_alphabet_across_models() {
        let mut sigma = Alphabet::new();
        let e1 = parse_with_alphabet("(a, b)", &mut sigma).unwrap();
        let e2 = parse_with_alphabet("(b, c)", &mut sigma).unwrap();
        assert_eq!(sigma.len(), 3);
        assert_eq!(e1.positions()[1], e2.positions()[0]);
    }

    #[test]
    fn multi_character_names() {
        let (e, sigma) = parse("(chapter-title section.1)* appendix?").unwrap();
        assert_eq!(sigma.len(), 3);
        assert!(sigma.lookup("chapter-title").is_some());
        assert!(sigma.lookup("section.1").is_some());
        assert_eq!(e.num_positions(), 3);
    }

    #[test]
    fn identifiers_are_greedy() {
        let (e1, _) = parse("(ab)*c").unwrap();
        let (e2, _) = parse("( a b ) * c").unwrap();
        // "(ab)*c": `ab` is a single identifier! So these differ.
        assert_eq!(e1.num_positions(), 2);
        assert_eq!(e2.num_positions(), 3);
    }
}
