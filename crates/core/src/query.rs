//! The query language: a small boolean/phrase AST and its text parser.
//!
//! [`Query`] generalizes the original conjunctive term list to a tree of
//! operators — `AND` (juxtaposition), `OR`, negation (`-word` / `NOT`),
//! and `"quoted phrases"` — that the planner ([`crate::plan`]) lowers
//! into a physical plan DAG. The scoring semantics are fixed by the AST
//! shape (see [`crate::plan`] for the exact f32 fold orders) so that
//! every execution mode, split, and fault path produces bit-identical
//! results.
//!
//! # Grammar
//!
//! ```text
//! query  := or
//! or     := and ('OR' and)*
//! and    := unary+                      -- juxtaposition; 'AND' optional
//! unary  := ('-' | 'NOT') primary | primary
//! primary:= '(' or ')' | '"' word+ '"' | word
//! ```
//!
//! `AND` binds tighter than `OR` (`a b OR c` is `(a AND b) OR c`), and a
//! negation subtracts from the other conjuncts of its `AND` group
//! (`a -b` keeps documents matching `a` but not `b`). A query with only
//! negative conjuncts is rejected: it would enumerate the whole corpus.

use griffin_index::{Dictionary, InvertedIndex, TermId};

use crate::request::QueryError;

/// A parsed query tree.
///
/// Construct one with [`Query::parse`] (text) or directly (programmatic),
/// then [`Query::normalize`] to the canonical shape the engine executes.
/// The derived `Ord` is the structural order [`Query::canonicalize`]
/// sorts commutative children by — any total order works for keying, so
/// long as it is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Query {
    /// A single term.
    Term(TermId),
    /// Conjunction: documents matching every child, scores summed.
    And(Vec<Query>),
    /// Disjunction: documents matching any child, scores summed where
    /// children overlap.
    Or(Vec<Query>),
    /// Difference: documents matching the left child but not the right.
    /// The right child only filters; it never contributes to scores.
    Not(Box<Query>, Box<Query>),
    /// The terms must appear at consecutive positions, in order. Scored
    /// as the conjunction of its terms.
    Phrase(Vec<TermId>),
    /// Matches no documents. Produced by normalization (e.g. an unknown
    /// word under lenient parsing) — never by the parser directly.
    Nothing,
}

impl Query {
    /// Canonicalizes the tree: flattens nested `And`/`Or`, unwraps
    /// single-child operators, reduces trivial phrases, and propagates
    /// [`Query::Nothing`] (a conjunction with an empty arm matches
    /// nothing; a disjunction drops empty arms; a negative empty arm is
    /// a no-op filter).
    pub fn normalize(self) -> Query {
        match self {
            Query::Term(t) => Query::Term(t),
            Query::Nothing => Query::Nothing,
            Query::Phrase(ts) => match ts.len() {
                0 => Query::Nothing,
                1 => Query::Term(ts[0]),
                _ => Query::Phrase(ts),
            },
            Query::And(children) => {
                let mut flat = Vec::with_capacity(children.len());
                for c in children {
                    match c.normalize() {
                        Query::Nothing => return Query::Nothing,
                        Query::And(gs) => flat.extend(gs),
                        g => flat.push(g),
                    }
                }
                match flat.len() {
                    0 => Query::Nothing,
                    1 => flat.pop().expect("len checked"),
                    _ => Query::And(flat),
                }
            }
            Query::Or(children) => {
                let mut flat = Vec::with_capacity(children.len());
                for c in children {
                    match c.normalize() {
                        Query::Nothing => {}
                        Query::Or(gs) => flat.extend(gs),
                        g => flat.push(g),
                    }
                }
                match flat.len() {
                    0 => Query::Nothing,
                    1 => flat.pop().expect("len checked"),
                    _ => Query::Or(flat),
                }
            }
            Query::Not(a, b) => {
                let a = a.normalize();
                let b = b.normalize();
                match (a, b) {
                    (Query::Nothing, _) => Query::Nothing,
                    (a, Query::Nothing) => a,
                    (a, b) => Query::Not(Box::new(a), Box::new(b)),
                }
            }
        }
    }

    /// Canonicalizes a *normalized* tree into the unique representative
    /// of its semantic-equivalence class, for cache keying: the children
    /// of the commutative operators (`And`, `Or`) are sorted by the
    /// derived structural order and exact duplicates dropped, then
    /// operators left with one child unwrap. Semantically equal queries —
    /// operand order flipped under `AND`/`OR`, duplicated conjuncts,
    /// redundant parenthesization — land on byte-identical trees, so one
    /// result-cache entry serves all of them. `Not` and `Phrase` are
    /// order-sensitive and keep their shape.
    ///
    /// This is a *keying* transform, applied where queries enter the
    /// serving path ([`crate::QueryRequest::from_query`]), not inside
    /// [`Query::normalize`]: the planner's f32 score folds follow AST
    /// order, so the canonical order must be fixed before execution for
    /// every spelling of a query to produce the same bits.
    pub fn canonicalize(self) -> Query {
        match self {
            Query::And(children) => {
                let mut cs: Vec<Query> = children.into_iter().map(Query::canonicalize).collect();
                cs.sort();
                cs.dedup();
                match cs.len() {
                    1 => cs.pop().expect("len checked"),
                    _ => Query::And(cs),
                }
            }
            Query::Or(children) => {
                let mut cs: Vec<Query> = children.into_iter().map(Query::canonicalize).collect();
                cs.sort();
                cs.dedup();
                match cs.len() {
                    1 => cs.pop().expect("len checked"),
                    _ => Query::Or(cs),
                }
            }
            Query::Not(a, b) => Query::Not(Box::new(a.canonicalize()), Box::new(b.canonicalize())),
            q => q,
        }
    }

    /// Renders a compact, dictionary-free, injective byte key for the
    /// result cache. Two queries share a key iff their trees are equal —
    /// call [`Query::canonicalize`] first so semantic equals collide.
    pub fn cache_key(&self) -> String {
        match self {
            Query::Term(t) => format!("t{}", t.0),
            Query::Nothing => "0".to_owned(),
            Query::Phrase(ts) => {
                let ids: Vec<String> = ts.iter().map(|t| t.0.to_string()).collect();
                format!("p({})", ids.join(","))
            }
            Query::And(cs) => {
                let parts: Vec<String> = cs.iter().map(Query::cache_key).collect();
                format!("a({})", parts.join(","))
            }
            Query::Or(cs) => {
                let parts: Vec<String> = cs.iter().map(Query::cache_key).collect();
                format!("o({})", parts.join(","))
            }
            Query::Not(a, b) => format!("n({},{})", a.cache_key(), b.cache_key()),
        }
    }

    /// Total number of term occurrences in the tree (phrase terms count
    /// individually). Used for telemetry and planner sizing.
    pub fn num_terms(&self) -> usize {
        match self {
            Query::Term(_) => 1,
            Query::Phrase(ts) => ts.len(),
            Query::And(cs) | Query::Or(cs) => cs.iter().map(Query::num_terms).sum(),
            Query::Not(a, b) => a.num_terms() + b.num_terms(),
            Query::Nothing => 0,
        }
    }

    /// Parses query text against the index vocabulary, returning the
    /// normalized AST. With `lenient` set, words missing from the
    /// vocabulary become [`Query::Nothing`] (an unmatched conjunct empties
    /// its conjunction, an unmatched disjunct drops out); without it they
    /// are a [`QueryError::UnknownTerm`]. Whitespace-only input is
    /// [`QueryError::EmptyQuery`].
    pub fn parse(index: &InvertedIndex, text: &str, lenient: bool) -> Result<Query, QueryError> {
        let tokens = tokenize(text)?;
        if tokens.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        let mut p = Parser {
            index,
            lenient,
            tokens,
            pos: 0,
            depth: 0,
        };
        let q = p.or_level()?;
        if p.pos != p.tokens.len() {
            return Err(QueryError::Parse(format!(
                "unexpected {} after end of query",
                p.tokens[p.pos].describe()
            )));
        }
        Ok(q.normalize())
    }

    /// Renders the query back to parseable text using the index
    /// dictionary. For any normalized query free of [`Query::Nothing`],
    /// `parse(display(q))` yields `q` back (the round-trip property the
    /// plan test-suite checks); `Nothing` renders as a non-parseable
    /// placeholder.
    pub fn display(&self, dict: &Dictionary) -> String {
        self.render(dict, 0)
    }

    /// `min_prec`: 0 = or-level context, 1 = and-level, 2 = primary.
    fn render(&self, dict: &Dictionary, min_prec: u8) -> String {
        let wrap = |s: String, prec: u8| {
            if min_prec > prec {
                format!("({s})")
            } else {
                s
            }
        };
        match self {
            Query::Term(t) => dict.term(*t).to_owned(),
            Query::Nothing => "<nothing>".to_owned(),
            Query::Phrase(ts) => {
                let words: Vec<&str> = ts.iter().map(|&t| dict.term(t)).collect();
                format!("\"{}\"", words.join(" "))
            }
            Query::Or(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| c.render(dict, 1)).collect();
                wrap(parts.join(" OR "), 0)
            }
            Query::And(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| c.render(dict, 2)).collect();
                wrap(parts.join(" "), 1)
            }
            Query::Not(a, b) => {
                let s = format!("{} -{}", a.render(dict, 2), b.render(dict, 2));
                wrap(s, 1)
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Word(String),
    Phrase(Vec<String>),
    Or,
    And,
    Minus,
    LParen,
    RParen,
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Word(w) => format!("word {w:?}"),
            Token::Phrase(_) => "phrase".to_owned(),
            Token::Or => "'OR'".to_owned(),
            Token::And => "'AND'".to_owned(),
            Token::Minus => "'-'".to_owned(),
            Token::LParen => "'('".to_owned(),
            Token::RParen => "')'".to_owned(),
        }
    }
}

fn tokenize(text: &str) -> Result<Vec<Token>, QueryError> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            '-' => {
                chars.next();
                tokens.push(Token::Minus);
            }
            '"' => {
                chars.next();
                let mut inner = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    inner.push(c);
                }
                if !closed {
                    return Err(QueryError::Parse("unterminated quote".to_owned()));
                }
                let words: Vec<String> = inner.split_whitespace().map(str::to_owned).collect();
                if words.is_empty() {
                    return Err(QueryError::Parse("empty phrase".to_owned()));
                }
                tokens.push(Token::Phrase(words));
            }
            _ => {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || matches!(c, '(' | ')' | '"') {
                        break;
                    }
                    word.push(c);
                    chars.next();
                }
                match word.as_str() {
                    "OR" => tokens.push(Token::Or),
                    "AND" => tokens.push(Token::And),
                    "NOT" => tokens.push(Token::Minus),
                    _ => tokens.push(Token::Word(word)),
                }
            }
        }
    }
    Ok(tokens)
}

/// How deeply parentheses may nest. The parser recurses once per level,
/// and so do the walks over the tree it returns (normalizing, rendering,
/// running, dropping): unbounded, 100 000 levels overflowed the stack,
/// which aborts the process instead of failing the call. Hand-written and
/// generated queries nest a few levels. On a 2 MiB stack, a spawned
/// thread's default, a debug build parses, renders and runs 600 levels in
/// every mode and overflows at 700, so 256 leaves more than twice that.
const MAX_NESTING: usize = 256;

struct Parser<'a> {
    index: &'a InvertedIndex,
    lenient: bool,
    tokens: Vec<Token>,
    pos: usize,
    /// Open parentheses around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn or_level(&mut self) -> Result<Query, QueryError> {
        let mut arms = vec![self.and_level()?];
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            arms.push(self.and_level()?);
        }
        Ok(if arms.len() == 1 {
            arms.pop().expect("len checked")
        } else {
            Query::Or(arms)
        })
    }

    fn and_level(&mut self) -> Result<Query, QueryError> {
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        loop {
            match self.peek() {
                Some(Token::And) => {
                    self.pos += 1;
                    continue;
                }
                Some(Token::Minus) => {
                    self.pos += 1;
                    negatives.push(self.primary()?);
                }
                Some(Token::Word(_) | Token::Phrase(_) | Token::LParen) => {
                    positives.push(self.primary()?);
                }
                _ => break,
            }
        }
        if positives.is_empty() {
            return Err(QueryError::Parse(if negatives.is_empty() {
                "expected a term".to_owned()
            } else {
                "purely negative query: nothing to subtract from".to_owned()
            }));
        }
        let base = if positives.len() == 1 {
            positives.pop().expect("len checked")
        } else {
            Query::And(positives)
        };
        Ok(match negatives.len() {
            0 => base,
            1 => Query::Not(
                Box::new(base),
                Box::new(negatives.pop().expect("len checked")),
            ),
            _ => Query::Not(Box::new(base), Box::new(Query::Or(negatives))),
        })
    }

    fn primary(&mut self) -> Result<Query, QueryError> {
        match self.tokens.get(self.pos).cloned() {
            Some(Token::LParen) => {
                if self.depth == MAX_NESTING {
                    return Err(QueryError::Parse(format!(
                        "parentheses nested more than {MAX_NESTING} deep"
                    )));
                }
                self.depth += 1;
                self.pos += 1;
                let q = self.or_level()?;
                if self.peek() != Some(&Token::RParen) {
                    return Err(QueryError::Parse("missing ')'".to_owned()));
                }
                self.depth -= 1;
                self.pos += 1;
                Ok(q)
            }
            Some(Token::Word(w)) => {
                self.pos += 1;
                self.lookup(&w)
            }
            Some(Token::Phrase(words)) => {
                self.pos += 1;
                let mut terms = Vec::with_capacity(words.len());
                for w in &words {
                    match self.lookup(w)? {
                        Query::Term(t) => terms.push(t),
                        // One unknown word (lenient) empties the phrase.
                        _ => return Ok(Query::Nothing),
                    }
                }
                Ok(Query::Phrase(terms))
            }
            other => Err(QueryError::Parse(match other {
                Some(t) => format!("expected a term, found {}", t.describe()),
                None => "expected a term, found end of query".to_owned(),
            })),
        }
    }

    fn lookup(&self, word: &str) -> Result<Query, QueryError> {
        match self.index.lookup(word) {
            Some(t) => Ok(Query::Term(t)),
            None if self.lenient => Ok(Query::Nothing),
            None => Err(QueryError::UnknownTerm(word.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::Codec;
    use griffin_index::IndexBuilder;

    fn idx() -> InvertedIndex {
        let mut b = IndexBuilder::new(Codec::EliasFano);
        b.add_text("alpha beta gamma delta");
        b.add_text("beta gamma epsilon");
        b.add_text("alpha epsilon");
        b.build()
    }

    fn t(idx: &InvertedIndex, w: &str) -> TermId {
        idx.lookup(w).unwrap()
    }

    #[test]
    fn parses_juxtaposition_as_and() {
        let i = idx();
        let q = Query::parse(&i, "alpha beta", false).unwrap();
        assert_eq!(
            q,
            Query::And(vec![
                Query::Term(t(&i, "alpha")),
                Query::Term(t(&i, "beta")),
            ])
        );
        // An explicit AND keyword parses identically.
        assert_eq!(q, Query::parse(&i, "alpha AND beta", false).unwrap());
    }

    #[test]
    fn or_binds_looser_than_and() {
        let i = idx();
        let q = Query::parse(&i, "alpha beta OR gamma", false).unwrap();
        assert_eq!(
            q,
            Query::Or(vec![
                Query::And(vec![
                    Query::Term(t(&i, "alpha")),
                    Query::Term(t(&i, "beta")),
                ]),
                Query::Term(t(&i, "gamma")),
            ])
        );
    }

    #[test]
    fn negation_and_not_keyword() {
        let i = idx();
        let q = Query::parse(&i, "alpha -beta", false).unwrap();
        assert_eq!(
            q,
            Query::Not(
                Box::new(Query::Term(t(&i, "alpha"))),
                Box::new(Query::Term(t(&i, "beta"))),
            )
        );
        assert_eq!(q, Query::parse(&i, "alpha NOT beta", false).unwrap());
        // Multiple negatives union before subtracting.
        let q = Query::parse(&i, "alpha -beta -gamma", false).unwrap();
        assert_eq!(
            q,
            Query::Not(
                Box::new(Query::Term(t(&i, "alpha"))),
                Box::new(Query::Or(vec![
                    Query::Term(t(&i, "beta")),
                    Query::Term(t(&i, "gamma")),
                ])),
            )
        );
    }

    #[test]
    fn phrases_and_parens() {
        let i = idx();
        let q = Query::parse(&i, "\"beta gamma\" (alpha OR epsilon)", false).unwrap();
        assert_eq!(
            q,
            Query::And(vec![
                Query::Phrase(vec![t(&i, "beta"), t(&i, "gamma")]),
                Query::Or(vec![
                    Query::Term(t(&i, "alpha")),
                    Query::Term(t(&i, "epsilon")),
                ]),
            ])
        );
    }

    #[test]
    fn parse_errors() {
        let i = idx();
        assert_eq!(Query::parse(&i, "   ", false), Err(QueryError::EmptyQuery));
        assert!(matches!(
            Query::parse(&i, "-alpha", false),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            Query::parse(&i, "(alpha", false),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            Query::parse(&i, "\"alpha beta", false),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            Query::parse(&i, "alpha) beta", false),
            Err(QueryError::Parse(_))
        ));
        assert_eq!(
            Query::parse(&i, "alpha zeta", false),
            Err(QueryError::UnknownTerm("zeta".to_owned()))
        );
    }

    /// Before the bound, 100 000 open parentheses overflowed the stack and
    /// aborted the process. A `-(` chain nests through the same arm.
    #[test]
    fn nesting_is_bounded() {
        let i = idx();
        let nested = |depth: usize| format!("{}alpha{}", "(".repeat(depth), ")".repeat(depth));
        let negated = |depth: usize| {
            let words = ["alpha", "beta", "gamma", "delta"];
            let mut text = String::new();
            for level in 0..depth {
                text.push_str(words[level % 4]);
                text.push_str(" -(");
            }
            text.push_str("epsilon");
            text.push_str(&")".repeat(depth));
            text
        };
        for text in [nested(MAX_NESTING), negated(MAX_NESTING)] {
            assert!(Query::parse(&i, &text, false).is_ok());
        }
        for depth in [MAX_NESTING + 1, 100_000] {
            for text in [nested(depth), negated(depth)] {
                assert!(matches!(
                    Query::parse(&i, &text, false),
                    Err(QueryError::Parse(_))
                ));
            }
        }
    }

    #[test]
    fn lenient_maps_unknown_words_to_nothing() {
        let i = idx();
        // An unknown conjunct empties the conjunction...
        assert_eq!(
            Query::parse(&i, "alpha zeta", true).unwrap(),
            Query::Nothing
        );
        // ...an unknown disjunct drops out...
        assert_eq!(
            Query::parse(&i, "alpha OR zeta", true).unwrap(),
            Query::Term(t(&i, "alpha"))
        );
        // ...an unknown negative is a no-op filter...
        assert_eq!(
            Query::parse(&i, "alpha -zeta", true).unwrap(),
            Query::Term(t(&i, "alpha"))
        );
        // ...and an unknown phrase word empties the phrase.
        assert_eq!(
            Query::parse(&i, "\"alpha zeta\" OR beta", true).unwrap(),
            Query::Term(t(&i, "beta"))
        );
    }

    #[test]
    fn normalize_flattens_and_reduces() {
        let a = Query::Term(TermId(0));
        let b = Query::Term(TermId(1));
        let c = Query::Term(TermId(2));
        let nested = Query::And(vec![Query::And(vec![a.clone(), b.clone()]), c.clone()]);
        assert_eq!(
            nested.normalize(),
            Query::And(vec![a.clone(), b.clone(), c.clone()])
        );
        assert_eq!(Query::Or(vec![a.clone()]).normalize(), a.clone());
        assert_eq!(Query::Phrase(vec![TermId(0)]).normalize(), a.clone());
        assert_eq!(Query::And(vec![]).normalize(), Query::Nothing);
        assert_eq!(
            Query::Not(Box::new(a.clone()), Box::new(Query::Nothing)).normalize(),
            a.clone()
        );
        assert_eq!(
            Query::Not(Box::new(Query::Nothing), Box::new(a.clone())).normalize(),
            Query::Nothing
        );
    }

    #[test]
    fn semantically_equal_queries_share_canonical_keys() {
        let i = idx();
        // Each group: every spelling must canonicalize to byte-identical
        // trees and cache keys.
        let groups: &[&[&str]] = &[
            // Commutative operand order under AND (and the explicit keyword).
            &["alpha beta", "beta alpha", "beta AND alpha"],
            // ...and under OR.
            &["alpha OR beta", "beta OR alpha"],
            // Duplicate conjuncts collapse.
            &["alpha alpha beta", "alpha beta", "beta alpha alpha"],
            // Duplicate disjuncts collapse.
            &["alpha OR beta OR alpha", "beta OR alpha"],
            // Nested parens flatten to the same canonical form.
            &["((alpha)) ((beta))", "(alpha beta)", "alpha beta"],
            &["alpha (beta OR gamma)", "(gamma OR beta) alpha"],
            // Order-sensitive shapes must NOT be conflated: phrase and
            // negation keep their operand order (checked below).
        ];
        for group in groups {
            let canon: Vec<Query> = group
                .iter()
                .map(|s| Query::parse(&i, s, false).unwrap().canonicalize())
                .collect();
            let keys: Vec<String> = canon.iter().map(Query::cache_key).collect();
            for (c, k) in canon.iter().zip(&keys).skip(1) {
                assert_eq!(c, &canon[0], "group {group:?} diverged structurally");
                assert_eq!(k, &keys[0], "group {group:?} diverged in key");
            }
        }
        // Phrases are positional: reversing the words is a different query.
        let p1 = Query::parse(&i, "\"beta gamma\"", false)
            .unwrap()
            .canonicalize();
        let p2 = Query::parse(&i, "\"gamma beta\"", false)
            .unwrap()
            .canonicalize();
        assert_ne!(p1.cache_key(), p2.cache_key());
        // Negation is asymmetric.
        let n1 = Query::parse(&i, "alpha -beta", false)
            .unwrap()
            .canonicalize();
        let n2 = Query::parse(&i, "beta -alpha", false)
            .unwrap()
            .canonicalize();
        assert_ne!(n1.cache_key(), n2.cache_key());
        // The key is injective on distinct canonical trees even when
        // term-id digit strings could run together.
        let a = Query::And(vec![Query::Term(TermId(1)), Query::Term(TermId(23))]);
        let b = Query::And(vec![Query::Term(TermId(12)), Query::Term(TermId(3))]);
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn display_round_trips() {
        let i = idx();
        for text in [
            "alpha beta",
            "alpha OR beta",
            "alpha beta OR gamma delta",
            "alpha -beta",
            "alpha -(beta OR gamma)",
            "\"beta gamma\" (alpha OR epsilon)",
            "(alpha OR beta) -\"beta gamma\"",
            "alpha (beta OR gamma) -delta",
        ] {
            let q = Query::parse(&i, text, false).unwrap();
            let shown = q.display(i.dictionary());
            let again = Query::parse(&i, &shown, false).unwrap();
            assert_eq!(q, again, "{text:?} displayed as {shown:?}");
        }
    }
}
