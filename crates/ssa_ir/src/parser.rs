//! Parser for the textual IR produced by [`crate::printer`].
//!
//! The grammar is a compact LLVM-like syntax; see the crate-level docs for an
//! example. Parsing is staged, and no stage copies the text:
//!
//! 1. **lex** — one pass over the bytes of the text makes a vector of
//!    tokens, each a kind plus the slice of the text it spans and its line
//!    ([`tokenize`]). ASCII bytes take a fast path; other characters are
//!    decoded and classified by `char::is_whitespace`, `is_alphanumeric` and
//!    `is_alphabetic`. Lexical errors are recorded and skipped instead of
//!    aborting,
//! 2. **structure** — the token vector is partitioned into top-level units
//!    (`define` bodies, `declare`s, and stray-token runs) by brace depth
//!    ([`segment_tokens`]), so one broken unit cannot desynchronize its
//!    neighbors. A unit is a slice of the token vector,
//! 3. **parse** — a cursor over each unit's tokens builds an AST whose names
//!    borrow from the text,
//! 4. **lower** — each AST becomes a [`Function`]. The result names are
//!    collected first, so every instruction is built once with its forward
//!    references (phi nodes and branches may refer to values and labels
//!    defined later) already resolved.
//!
//! Besides what the output owns (names, operand lists, arenas), a load
//! allocates only the token vector and a few vectors per unit. On the
//! 1.87 MB of the 19 cleaned `spec2006()` modules (a shared 2-vCPU VM,
//! release build, in process) the stages cost about 6 ns (lex), 1 ns
//! (structure), 6 ns (parse) and 10 ns (lower) per byte, 37–57 MB/s in
//! all, with 132,364 allocations per load.
//!
//! [`parse_module`] is the strict entry point: the first error anywhere
//! aborts. [`parse_module_recovering`] degrades gracefully instead — a unit
//! that fails any stage is skipped with a [`SkippedFunction`] record carrying
//! function/line provenance while every healthy unit still loads. Both
//! report an error at the line of the token it concerns (an unknown type,
//! predicate or instruction word is reported at its own line); one detected
//! past a unit's last token takes the unit's first line, except an
//! unexpected end of input, which takes the line of the last token.

use crate::function::{Function, Linkage};
use crate::ids::{BlockId, EntityId, InstId};
use crate::instruction::{BinOp, CastKind, ICmpPred, InstKind};
use crate::module::{FuncDecl, Module};
use crate::types::Type;
use crate::value::{Constant, Value};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Error produced when parsing fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line where the problem was detected.
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

/// A top-level unit that failed to parse and was dropped by
/// [`parse_module_recovering`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedFunction {
    /// `@name` of the unit when one was seen before the failure (empty for
    /// anonymous garbage or lexical noise between units).
    pub name: String,
    /// 1-based line of the failure.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl SkippedFunction {
    fn new(name: String, e: ParseError) -> Self {
        SkippedFunction {
            name,
            line: e.line,
            message: e.message,
        }
    }
}

/// Result of [`parse_module_recovering`]: everything that parsed plus a
/// record of everything that did not.
#[derive(Debug, Clone)]
pub struct RecoveredModule {
    /// The module assembled from all units that parsed and lowered cleanly.
    pub module: Module,
    /// One entry per dropped unit, ordered by line.
    pub skipped: Vec<SkippedFunction>,
}

impl RecoveredModule {
    /// True when at least one unit was dropped.
    pub fn degraded(&self) -> bool {
        !self.skipped.is_empty()
    }
}

/// Parses a whole module (declarations and definitions), aborting on the
/// first error at any stage.
pub fn parse_module(text: &str) -> Result<Module> {
    let (tokens, lex_errors) = tokenize(text);
    if let Some(e) = lex_errors.into_iter().next() {
        return Err(e);
    }
    let mut module = Module::new("parsed");
    for segment in segment_tokens(&tokens) {
        match parse_unit(&segment)? {
            Unit::Declare(decl, trailing) => {
                trailing?;
                module.declare(decl);
            }
            Unit::Define(function) => {
                if module.function(&function.name).is_some() {
                    return Err(segment.duplicate(&function));
                }
                module.add_function(function);
            }
        }
    }
    Ok(module)
}

/// Parses a whole module, skipping broken units instead of aborting.
///
/// This entry point is infallible. Lexical errors poison only the unit whose
/// line range contains them; a unit that fails to lex, parse, or lower is
/// recorded in [`RecoveredModule::skipped`] with name/line provenance while
/// every healthy unit still loads. Duplicate definitions keep the first copy.
pub fn parse_module_recovering(text: &str) -> RecoveredModule {
    let (tokens, lex_errors) = tokenize(text);
    let mut module = Module::new("parsed");
    let mut skipped = Vec::new();
    let mut lex_used = vec![false; lex_errors.len()];
    for segment in segment_tokens(&tokens) {
        // A lexical error inside this unit's line range makes its token
        // stream untrustworthy: drop the whole unit, reporting the first
        // error and consuming the rest.
        let mut poisoned_by: Option<&ParseError> = None;
        for (i, e) in lex_errors.iter().enumerate() {
            if !lex_used[i] && e.line >= segment.start_line() && e.line <= segment.end_line() {
                lex_used[i] = true;
                poisoned_by.get_or_insert(e);
            }
        }
        if let Some(e) = poisoned_by {
            skipped.push(segment.skip(e.clone()));
            continue;
        }
        if segment.kind == SegmentKind::Define
            && telemetry::faultinject::should_fail("parse.function")
        {
            skipped.push(segment.skip(ParseError {
                message: "fault injected at parse.function".into(),
                line: segment.start_line(),
            }));
            continue;
        }
        match parse_unit(&segment) {
            Ok(Unit::Declare(decl, trailing)) => {
                module.declare(decl);
                // Stray tokens between this declaration and the next unit
                // are dropped on their own, keeping the decl.
                if let Err(e) = trailing {
                    skipped.push(SkippedFunction::new(String::new(), e));
                }
            }
            Ok(Unit::Define(function)) => {
                if module.function(&function.name).is_some() {
                    let e = segment.duplicate(&function);
                    skipped.push(SkippedFunction::new(function.name, e));
                } else {
                    module.add_function(function);
                }
            }
            Err(e) => skipped.push(segment.skip(e)),
        }
    }
    // Lexical noise between units: one record per line, not per character.
    let mut last_noise_line = None;
    for (i, e) in lex_errors.iter().enumerate() {
        if !lex_used[i] && last_noise_line != Some(e.line) {
            last_noise_line = Some(e.line);
            skipped.push(SkippedFunction::new(String::new(), e.clone()));
        }
    }
    skipped.sort_by_key(|s| s.line);
    RecoveredModule { module, skipped }
}

/// One top-level unit, parsed and lowered.
enum Unit {
    /// A declaration, and the error of any stray tokens after it.
    Declare(FuncDecl, Result<()>),
    Define(Function),
}

/// Parses and lowers one unit; the first error of its stages wins.
fn parse_unit(segment: &Segment<'_, '_>) -> Result<Unit> {
    let mut parser = Parser::over(segment.tokens);
    match segment.kind {
        SegmentKind::Garbage => Err(segment.garbage_error()),
        SegmentKind::Declare => {
            let decl = parser.declaration()?;
            Ok(Unit::Declare(decl, parser.expect_done()))
        }
        SegmentKind::Define => {
            let ast = parser.function()?;
            parser.expect_done()?;
            lower_function(&ast).map(Unit::Define)
        }
    }
}

/// Parses a single function definition.
pub fn parse_function(text: &str) -> Result<Function> {
    let module = parse_module(text)?;
    module
        .functions()
        .first()
        .cloned()
        .ok_or_else(|| ParseError {
            message: "input contains no function definition".into(),
            line: 1,
        })
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// A token's kind and value; names borrow from the text they were read from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Word(&'a str),   // identifiers, keywords, type names
    Local(&'a str),  // %name
    Global(&'a str), // @name
    Int(i64),
    Float(f64),
    Punct(char), // ( ) { } [ ] , = :
}

#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    tok: Tok<'a>,
    line: usize,
}

/// Lenient scan: lexical errors are recorded and skipped, never fatal.
/// Strict callers treat a non-empty error list as failure; the recovering
/// path maps each error back to the unit containing it.
fn tokenize(text: &str) -> (Vec<Token<'_>>, Vec<ParseError>) {
    let mut lexer = Lexer {
        text,
        pos: 0,
        line: 1,
        tokens: Vec::new(),
        errors: Vec::new(),
    };
    lexer.run();
    (lexer.tokens, lexer.errors)
}

/// A byte cursor over the text. It always rests on a character boundary:
/// ASCII bytes advance it by one, other characters by their UTF-8 length.
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
    tokens: Vec<Token<'a>>,
    errors: Vec<ParseError>,
}

impl<'a> Lexer<'a> {
    fn run(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                // The ASCII members of `char::is_whitespace`.
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => self.pos += 1,
                b';' => {
                    // Comment until end of line.
                    self.pos = bytes[self.pos..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |n| self.pos + n);
                }
                b'%' | b'@' => {
                    let name = self.ident(self.pos + 1);
                    let tok = if b == b'%' {
                        Tok::Local(name)
                    } else {
                        Tok::Global(name)
                    };
                    self.push(tok);
                }
                b'(' | b')' | b'{' | b'}' | b'[' | b']' | b',' | b'=' | b':' => {
                    self.pos += 1;
                    self.push(Tok::Punct(char::from(b)));
                }
                b'0'..=b'9' | b'-' | b'+' => self.number(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'.' => {
                    let word = self.ident(self.pos);
                    self.push(Tok::Word(word));
                }
                0x80.. => {
                    let c = self.char_at(self.pos);
                    if c.is_whitespace() {
                        self.pos += c.len_utf8();
                    } else if c.is_alphabetic() {
                        let word = self.ident(self.pos);
                        self.push(Tok::Word(word));
                    } else {
                        self.unexpected(c);
                    }
                }
                _ => self.unexpected(char::from(b)),
            }
        }
    }

    fn push(&mut self, tok: Tok<'a>) {
        self.tokens.push(Token {
            tok,
            line: self.line,
        });
    }

    /// The (non-ASCII) character that starts at byte `pos`.
    fn char_at(&self, pos: usize) -> char {
        self.text[pos..]
            .chars()
            .next()
            .expect("a character starts at the cursor")
    }

    fn unexpected(&mut self, c: char) {
        self.errors.push(ParseError {
            message: format!("unexpected character '{c}'"),
            line: self.line,
        });
        self.pos += c.len_utf8();
    }

    /// Consumes the longest run of name characters (alphanumerics, `_`, `.`
    /// and `-`) from `start` and returns it.
    fn ident(&mut self, start: usize) -> &'a str {
        let bytes = self.text.as_bytes();
        let mut end = start;
        while let Some(&b) = bytes.get(end) {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-') {
                end += 1;
            } else if b >= 0x80 && self.char_at(end).is_alphanumeric() {
                end += self.char_at(end).len_utf8();
            } else {
                break;
            }
        }
        self.pos = end;
        &self.text[start..end]
    }

    /// A sign, then digits, `.`, and `e`/`E` each with an optional sign:
    /// a float when it has a `.` or an exponent, an integer otherwise.
    fn number(&mut self) {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if matches!(bytes[self.pos], b'-' | b'+') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    if b != b'.' && matches!(bytes.get(self.pos), Some(b'-' | b'+')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let s = &self.text[start..self.pos];
        let tok = if is_float {
            s.parse::<f64>().map(Tok::Float).map_err(|_| "float")
        } else {
            s.parse::<i64>().map(Tok::Int).map_err(|_| "integer")
        };
        match tok {
            Ok(tok) => self.push(tok),
            Err(kind) => self.errors.push(ParseError {
                message: format!("bad {kind} literal '{s}'"),
                line: self.line,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Structure stage: top-level unit segmentation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentKind {
    Define,
    Declare,
    Garbage,
}

/// One top-level unit of the token stream: a `define` body, a `declare`
/// (plus any stray tokens up to the next unit), or a run of tokens that
/// belongs to no unit at all. Never empty.
#[derive(Debug)]
struct Segment<'t, 'a> {
    kind: SegmentKind,
    tokens: &'t [Token<'a>],
}

impl Segment<'_, '_> {
    fn start_line(&self) -> usize {
        self.tokens[0].line
    }

    fn end_line(&self) -> usize {
        self.tokens[self.tokens.len() - 1].line
    }

    /// First `@name` of the unit, for skip provenance (empty without one).
    fn provenance(&self) -> String {
        self.tokens
            .iter()
            .find_map(|t| match t.tok {
                Tok::Global(name) => Some(name.to_string()),
                _ => None,
            })
            .unwrap_or_default()
    }

    fn skip(&self, e: ParseError) -> SkippedFunction {
        SkippedFunction::new(self.provenance(), e)
    }

    /// The error of a definition whose name an earlier unit defined.
    fn duplicate(&self, function: &Function) -> ParseError {
        ParseError {
            message: format!("duplicate function definition @{}", function.name),
            line: self.start_line(),
        }
    }

    /// The error of a unit that starts with neither `define` nor `declare`.
    fn garbage_error(&self) -> ParseError {
        let t = &self.tokens[0];
        ParseError {
            message: format!("expected 'define' or 'declare', found {:?}", t.tok),
            line: t.line,
        }
    }
}

/// Splits the token stream into independent top-level units so one broken
/// unit cannot desynchronize its neighbors. `define`/`declare` keywords
/// always open a new unit — even inside an unterminated body, since real
/// bodies never contain them they are reliable resynchronization points — and
/// a `define` unit otherwise ends with the `}` closing its body.
fn segment_tokens<'t, 'a>(tokens: &'t [Token<'a>]) -> Vec<Segment<'t, 'a>> {
    let mut segments = Vec::new();
    let mut close = |kind, range: Range<usize>| {
        segments.push(Segment {
            kind,
            tokens: &tokens[range],
        })
    };
    // The kind and first token index of the open unit.
    let mut open: Option<(SegmentKind, usize)> = None;
    let mut depth = 0usize;
    for (i, token) in tokens.iter().enumerate() {
        let keyword = match token.tok {
            Tok::Word("define") => Some(SegmentKind::Define),
            Tok::Word("declare") => Some(SegmentKind::Declare),
            _ => None,
        };
        if let Some(kind) = keyword {
            if let Some((kind, start)) = open.take() {
                close(kind, start..i);
            }
            depth = 0;
            open = Some((kind, i));
            continue;
        }
        match token.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => depth = depth.saturating_sub(1),
            _ => {}
        }
        let (kind, start) = *open.get_or_insert((SegmentKind::Garbage, i));
        if depth == 0 && token.tok == Tok::Punct('}') && kind == SegmentKind::Define {
            close(kind, start..i + 1);
            open = None;
        }
    }
    if let Some((kind, start)) = open {
        close(kind, start..tokens.len());
    }
    segments
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    Local(&'a str),
    Int(i64),
    Float(f64),
    Bool(bool),
    Undef,
    Null,
}

#[derive(Debug, Clone, Copy)]
struct TypedOperand<'a> {
    ty: Type,
    op: Operand<'a>,
}

#[derive(Debug, Clone)]
enum AstInst<'a> {
    Binary {
        op: BinOp,
        ty: Type,
        lhs: Operand<'a>,
        rhs: Operand<'a>,
    },
    ICmp {
        pred: ICmpPred,
        ty: Type,
        lhs: Operand<'a>,
        rhs: Operand<'a>,
    },
    Select {
        cond: TypedOperand<'a>,
        if_true: TypedOperand<'a>,
        if_false: TypedOperand<'a>,
    },
    Call {
        ret: Type,
        callee: &'a str,
        args: Vec<TypedOperand<'a>>,
    },
    Invoke {
        ret: Type,
        callee: &'a str,
        args: Vec<TypedOperand<'a>>,
        normal: &'a str,
        unwind: &'a str,
    },
    LandingPad,
    Resume {
        value: TypedOperand<'a>,
    },
    Phi {
        ty: Type,
        incomings: Vec<(Operand<'a>, &'a str)>,
    },
    Alloca {
        ty: Type,
    },
    Load {
        ty: Type,
        ptr: TypedOperand<'a>,
    },
    Store {
        value: TypedOperand<'a>,
        ptr: TypedOperand<'a>,
    },
    Gep {
        base: TypedOperand<'a>,
        index: TypedOperand<'a>,
        stride: u32,
    },
    Cast {
        kind: CastKind,
        value: TypedOperand<'a>,
        to: Type,
    },
    Br {
        dest: &'a str,
    },
    CondBr {
        cond: TypedOperand<'a>,
        if_true: &'a str,
        if_false: &'a str,
    },
    Switch {
        value: TypedOperand<'a>,
        default: &'a str,
        cases: Vec<(i64, &'a str)>,
    },
    Ret {
        value: Option<TypedOperand<'a>>,
    },
    Unreachable,
}

#[derive(Debug, Clone)]
struct AstStmt<'a> {
    result: Option<&'a str>,
    inst: AstInst<'a>,
    line: usize,
}

#[derive(Debug, Clone)]
struct AstBlock<'a> {
    label: &'a str,
    /// Line of the label.
    line: usize,
    /// The block's statements, as a range of [`AstFunction::stmts`].
    stmts: Range<usize>,
}

#[derive(Debug, Clone)]
struct AstFunction<'a> {
    name: &'a str,
    ret: Type,
    linkage: Linkage,
    params: Vec<(Type, &'a str)>,
    blocks: Vec<AstBlock<'a>>,
    /// Every statement of the body, in program order.
    stmts: Vec<AstStmt<'a>>,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A cursor over one unit's tokens (never empty).
struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
}

impl<'t, 'a> Parser<'t, 'a> {
    fn over(tokens: &'t [Token<'a>]) -> Self {
        Parser { tokens, pos: 0 }
    }

    /// Fails if the segment has trailing tokens after its unit parsed.
    fn expect_done(&self) -> Result<()> {
        match self.tokens.get(self.pos) {
            None => Ok(()),
            Some(t) => Err(ParseError {
                message: format!("expected 'define' or 'declare', found {:?}", t.tok),
                line: t.line,
            }),
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.tokens.get(self.pos).map(|t| t.tok)
    }

    /// Line of the next token. Past the last one it is the unit's first
    /// line: the unit as a whole ended too early.
    fn line(&self) -> usize {
        self.tokens.get(self.pos).unwrap_or(&self.tokens[0]).line
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    /// Consumes the next token; running out of them is reported at the
    /// line of the unit's last token.
    fn next(&mut self) -> Result<Token<'a>> {
        let t = *self.tokens.get(self.pos).ok_or_else(|| ParseError {
            message: "unexpected end of input".into(),
            line: self.tokens[self.tokens.len() - 1].line,
        })?;
        self.pos += 1;
        Ok(t)
    }

    /// Fails at the line of the token consumed last: the offending one.
    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(ParseError {
            message: message.into(),
            line: self.tokens[self.pos - 1].line,
        })
    }

    fn expect_punct(&mut self, c: char) -> Result<()> {
        let t = self.next()?;
        if t.tok == Tok::Punct(c) {
            Ok(())
        } else {
            Err(ParseError {
                message: format!("expected '{c}', found {:?}", t.tok),
                line: t.line,
            })
        }
    }

    fn expect_word(&mut self, w: &str) -> Result<()> {
        let t = self.next()?;
        if t.tok == Tok::Word(w) {
            Ok(())
        } else {
            Err(ParseError {
                message: format!("expected '{w}', found {:?}", t.tok),
                line: t.line,
            })
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(Tok::Punct(c)) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn word(&mut self) -> Result<&'a str> {
        let t = self.next()?;
        match t.tok {
            Tok::Word(w) => Ok(w),
            other => Err(ParseError {
                message: format!("expected identifier, found {other:?}"),
                line: t.line,
            }),
        }
    }

    fn global(&mut self) -> Result<&'a str> {
        let t = self.next()?;
        match t.tok {
            Tok::Global(name) => Ok(name),
            other => Err(ParseError {
                message: format!("expected @name, found {other:?}"),
                line: t.line,
            }),
        }
    }

    fn local(&mut self) -> Result<&'a str> {
        let t = self.next()?;
        match t.tok {
            Tok::Local(name) => Ok(name),
            other => Err(ParseError {
                message: format!("expected %name, found {other:?}"),
                line: t.line,
            }),
        }
    }

    fn ty(&mut self) -> Result<Type> {
        let w = self.word()?;
        match parse_type(w) {
            Some(ty) => Ok(ty),
            None => self.err(format!("unknown type '{w}'")),
        }
    }

    fn label(&mut self) -> Result<&'a str> {
        self.expect_word("label")?;
        self.local()
    }

    fn operand(&mut self) -> Result<Operand<'a>> {
        let t = self.next()?;
        match t.tok {
            Tok::Local(name) => Ok(Operand::Local(name)),
            Tok::Int(v) => Ok(Operand::Int(v)),
            Tok::Float(v) => Ok(Operand::Float(v)),
            Tok::Word(w) => match w {
                "true" => Ok(Operand::Bool(true)),
                "false" => Ok(Operand::Bool(false)),
                "undef" => Ok(Operand::Undef),
                "null" => Ok(Operand::Null),
                other => Err(ParseError {
                    message: format!("expected operand, found '{other}'"),
                    line: t.line,
                }),
            },
            other => Err(ParseError {
                message: format!("expected operand, found {other:?}"),
                line: t.line,
            }),
        }
    }

    fn typed_operand(&mut self) -> Result<TypedOperand<'a>> {
        let ty = self.ty()?;
        let op = self.operand()?;
        Ok(TypedOperand { ty, op })
    }

    fn declaration(&mut self) -> Result<FuncDecl> {
        self.expect_word("declare")?;
        let linkage = self.linkage();
        let ret = self.ty()?;
        let name = self.global()?;
        self.expect_punct('(')?;
        let mut params = Vec::new();
        if !self.eat_punct(')') {
            loop {
                params.push(self.ty()?);
                // Optional parameter name in declarations.
                if matches!(self.peek(), Some(Tok::Local(_))) {
                    self.bump();
                }
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        Ok(FuncDecl {
            name: name.to_string(),
            params,
            ret_ty: ret,
            linkage,
        })
    }

    /// Consumes an optional `internal`/`external` linkage keyword (shared by
    /// `define` and `declare`); absent means external.
    fn linkage(&mut self) -> Linkage {
        let linkage = match self.peek() {
            Some(Tok::Word("internal")) => Linkage::Internal,
            Some(Tok::Word("external")) => Linkage::External,
            _ => return Linkage::External,
        };
        self.bump();
        linkage
    }

    fn function(&mut self) -> Result<AstFunction<'a>> {
        self.expect_word("define")?;
        let linkage = self.linkage();
        let ret = self.ty()?;
        let name = self.global()?;
        self.expect_punct('(')?;
        let mut params = Vec::new();
        if !self.eat_punct(')') {
            loop {
                let ty = self.ty()?;
                let pname = self.local()?;
                params.push((ty, pname));
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        self.expect_punct('{')?;

        let mut blocks = Vec::new();
        let mut stmts = Vec::new();
        loop {
            if self.eat_punct('}') {
                break;
            }
            // A block label: `name:`
            let line = self.line();
            let label = self.word()?;
            self.expect_punct(':')?;
            let first = stmts.len();
            loop {
                match self.peek() {
                    Some(Tok::Punct('}')) => break,
                    // Next block label: Word followed by ':'
                    Some(Tok::Word(_)) if self.peek_is_label() => break,
                    None => {
                        return Err(ParseError {
                            message: "unterminated function body".into(),
                            line: self.line(),
                        })
                    }
                    _ => stmts.push(self.statement()?),
                }
            }
            blocks.push(AstBlock {
                label,
                line,
                stmts: first..stmts.len(),
            });
        }
        Ok(AstFunction {
            name,
            ret,
            linkage,
            params,
            blocks,
            stmts,
        })
    }

    /// Returns true when the next two tokens form a block label (`word ':'`).
    fn peek_is_label(&self) -> bool {
        match self.tokens.get(self.pos..self.pos + 2) {
            Some([a, b]) => matches!(a.tok, Tok::Word(_)) && b.tok == Tok::Punct(':'),
            _ => false,
        }
    }

    fn statement(&mut self) -> Result<AstStmt<'a>> {
        let line = self.line();
        let mut result = None;
        if let Some(Tok::Local(_)) = self.peek() {
            result = Some(self.local()?);
            self.expect_punct('=')?;
        }
        let inst = self.instruction()?;
        Ok(AstStmt { result, inst, line })
    }

    fn call_args(&mut self) -> Result<Vec<TypedOperand<'a>>> {
        self.expect_punct('(')?;
        let mut args = Vec::new();
        if !self.eat_punct(')') {
            loop {
                args.push(self.typed_operand()?);
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        Ok(args)
    }

    fn instruction(&mut self) -> Result<AstInst<'a>> {
        match self.word()? {
            "icmp" => {
                let predw = self.word()?;
                let Some(pred) = parse_icmp(predw) else {
                    return self.err(format!("unknown icmp predicate '{predw}'"));
                };
                let ty = self.ty()?;
                let lhs = self.operand()?;
                self.expect_punct(',')?;
                let rhs = self.operand()?;
                Ok(AstInst::ICmp { pred, ty, lhs, rhs })
            }
            "select" => {
                let cond = self.typed_operand()?;
                self.expect_punct(',')?;
                let if_true = self.typed_operand()?;
                self.expect_punct(',')?;
                let if_false = self.typed_operand()?;
                Ok(AstInst::Select {
                    cond,
                    if_true,
                    if_false,
                })
            }
            "call" => {
                let ret = self.ty()?;
                let callee = self.global()?;
                let args = self.call_args()?;
                Ok(AstInst::Call { ret, callee, args })
            }
            "invoke" => {
                let ret = self.ty()?;
                let callee = self.global()?;
                let args = self.call_args()?;
                self.expect_word("to")?;
                let normal = self.label()?;
                self.expect_word("unwind")?;
                let unwind = self.label()?;
                Ok(AstInst::Invoke {
                    ret,
                    callee,
                    args,
                    normal,
                    unwind,
                })
            }
            "landingpad" => Ok(AstInst::LandingPad),
            "resume" => Ok(AstInst::Resume {
                value: self.typed_operand()?,
            }),
            "phi" => {
                let ty = self.ty()?;
                let mut incomings = Vec::new();
                loop {
                    self.expect_punct('[')?;
                    let value = self.operand()?;
                    self.expect_punct(',')?;
                    let block = self.local()?;
                    self.expect_punct(']')?;
                    incomings.push((value, block));
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                Ok(AstInst::Phi { ty, incomings })
            }
            "alloca" => Ok(AstInst::Alloca { ty: self.ty()? }),
            "load" => {
                let ty = self.ty()?;
                self.expect_punct(',')?;
                let ptr = self.typed_operand()?;
                Ok(AstInst::Load { ty, ptr })
            }
            "store" => {
                let value = self.typed_operand()?;
                self.expect_punct(',')?;
                let ptr = self.typed_operand()?;
                Ok(AstInst::Store { value, ptr })
            }
            "getelementptr" => {
                let base = self.typed_operand()?;
                self.expect_punct(',')?;
                let index = self.typed_operand()?;
                self.expect_punct(',')?;
                self.expect_word("stride")?;
                let stride = match self.next()?.tok {
                    Tok::Int(v) if v >= 0 => v as u32,
                    other => return self.err(format!("expected stride integer, found {other:?}")),
                };
                Ok(AstInst::Gep {
                    base,
                    index,
                    stride,
                })
            }
            "br" => {
                if self.peek() == Some(Tok::Word("label")) {
                    let dest = self.label()?;
                    return Ok(AstInst::Br { dest });
                }
                let cond = self.typed_operand()?;
                self.expect_punct(',')?;
                let if_true = self.label()?;
                self.expect_punct(',')?;
                let if_false = self.label()?;
                Ok(AstInst::CondBr {
                    cond,
                    if_true,
                    if_false,
                })
            }
            "switch" => {
                let value = self.typed_operand()?;
                self.expect_punct(',')?;
                let default = self.label()?;
                self.expect_punct('[')?;
                let mut cases = Vec::new();
                if !self.eat_punct(']') {
                    loop {
                        let c = match self.next()?.tok {
                            Tok::Int(v) => v,
                            other => {
                                return self.err(format!("expected case value, found {other:?}"))
                            }
                        };
                        self.expect_punct(':')?;
                        let dest = self.label()?;
                        cases.push((c, dest));
                        if self.eat_punct(']') {
                            break;
                        }
                        self.expect_punct(',')?;
                    }
                }
                Ok(AstInst::Switch {
                    value,
                    default,
                    cases,
                })
            }
            "ret" => {
                if self.peek() == Some(Tok::Word("void")) {
                    self.bump();
                    return Ok(AstInst::Ret { value: None });
                }
                Ok(AstInst::Ret {
                    value: Some(self.typed_operand()?),
                })
            }
            "unreachable" => Ok(AstInst::Unreachable),
            other => {
                if let Some(op) = parse_binop(other) {
                    let ty = self.ty()?;
                    let lhs = self.operand()?;
                    self.expect_punct(',')?;
                    let rhs = self.operand()?;
                    return Ok(AstInst::Binary { op, ty, lhs, rhs });
                }
                if let Some(kind) = parse_cast(other) {
                    let value = self.typed_operand()?;
                    self.expect_word("to")?;
                    let to = self.ty()?;
                    return Ok(AstInst::Cast { kind, value, to });
                }
                self.err(format!("unknown instruction '{other}'"))
            }
        }
    }
}

fn parse_type(word: &str) -> Option<Type> {
    match word {
        "void" => Some(Type::Void),
        "double" => Some(Type::Float),
        "ptr" => Some(Type::Ptr),
        // Integer constants are kept in an `i64`: wider or empty integer
        // types would run with the wrong semantics.
        w if w.starts_with('i') => w[1..]
            .parse::<u16>()
            .ok()
            .filter(|bits| (1..=64).contains(bits))
            .map(Type::Int),
        _ => None,
    }
}

fn parse_binop(word: &str) -> Option<BinOp> {
    BinOp::all()
        .iter()
        .copied()
        .find(|op| op.mnemonic() == word)
}

fn parse_icmp(word: &str) -> Option<ICmpPred> {
    ICmpPred::all()
        .iter()
        .copied()
        .find(|p| p.mnemonic() == word)
}

fn parse_cast(word: &str) -> Option<CastKind> {
    [
        CastKind::Trunc,
        CastKind::ZExt,
        CastKind::SExt,
        CastKind::Bitcast,
        CastKind::PtrToInt,
        CastKind::IntToPtr,
        CastKind::SIToFP,
        CastKind::FPToSI,
    ]
    .into_iter()
    .find(|k| k.mnemonic() == word)
}

// ---------------------------------------------------------------------------
// Lowering (AST -> Function)
// ---------------------------------------------------------------------------

struct Env<'a> {
    values: HashMap<&'a str, Value>,
    blocks: HashMap<&'a str, BlockId>,
    /// The first use of an undefined value. It is reported only when the
    /// unit has no other error, so building goes on past it.
    undefined: Option<ParseError>,
}

impl<'a> Env<'a> {
    fn value(&mut self, op: &Operand<'a>, ty: Type, line: usize) -> Value {
        match *op {
            Operand::Local(name) => match self.values.get(name) {
                Some(&v) => v,
                None => {
                    self.undefined.get_or_insert_with(|| ParseError {
                        message: format!("use of undefined value %{name}"),
                        line,
                    });
                    Value::undef(ty)
                }
            },
            Operand::Int(value) => {
                let bits = if ty.is_int() { ty.bits() } else { 64 };
                Value::Const(Constant::Int { bits, value })
            }
            Operand::Float(v) => Value::float(v),
            Operand::Bool(b) => Value::bool(b),
            Operand::Undef => Value::undef(ty),
            Operand::Null => Value::Const(Constant::Null),
        }
    }

    fn typed(&mut self, t: &TypedOperand<'a>, line: usize) -> Value {
        self.value(&t.op, t.ty, line)
    }

    fn block(&self, name: &str, line: usize) -> Result<BlockId> {
        self.blocks.get(name).copied().ok_or_else(|| ParseError {
            message: format!("reference to unknown label %{name}"),
            line,
        })
    }
}

/// Lowers a parsed unit, building each instruction once.
///
/// Errors keep the precedence of the unit's stages: a duplicate block label
/// first, then each statement's own error in program order, then the first
/// use of an undefined value.
fn lower_function(ast: &AstFunction<'_>) -> Result<Function> {
    let mut function = Function::new(ast.name, Vec::new(), ast.ret);
    function.params = ast.params.iter().map(|&(t, _)| t).collect();
    function.param_names = ast.params.iter().map(|&(_, n)| n.to_string()).collect();
    function.linkage = ast.linkage;

    let mut env = Env {
        values: HashMap::with_capacity(ast.params.len() + ast.stmts.len()),
        blocks: HashMap::with_capacity(ast.blocks.len()),
        undefined: None,
    };
    for (i, &(_, name)) in ast.params.iter().enumerate() {
        env.values.insert(name, Value::Arg(i as u32));
    }
    let mut block_ids = Vec::with_capacity(ast.blocks.len());
    for block in &ast.blocks {
        let id = function.add_block(block.label);
        if env.blocks.insert(block.label, id).is_some() {
            return Err(ParseError {
                message: format!("duplicate block label {}", block.label),
                line: block.line,
            });
        }
        block_ids.push(id);
    }
    // The k-th statement becomes instruction k of the fresh arena; a name
    // defined twice resolves to its last definition everywhere.
    for (k, stmt) in ast.stmts.iter().enumerate() {
        if let Some(name) = stmt.result {
            env.values.insert(name, Value::Inst(InstId::from_index(k)));
        }
    }

    for (block, &block_id) in ast.blocks.iter().zip(&block_ids) {
        let mut terminated = false;
        for k in block.stmts.clone() {
            let stmt = &ast.stmts[k];
            // A second terminator (or any code after one) would trip
            // `append_inst`'s single-terminator invariant; report it as a
            // parse error so the recovering frontend can skip the function.
            if terminated {
                return Err(ParseError {
                    message: format!("instruction after terminator in block {}", block.label),
                    line: stmt.line,
                });
            }
            let (kind, ty) = build_kind(&stmt.inst, &mut env, stmt.line)?;
            terminated = kind.is_terminator();
            let id = function.append_inst(block_id, kind, ty);
            debug_assert_eq!(id, InstId::from_index(k));
            if let Some(name) = stmt.result {
                if !ty.is_first_class() {
                    return Err(ParseError {
                        message: format!("instruction producing void cannot be named %{name}"),
                        line: stmt.line,
                    });
                }
                function.set_inst_name(id, name);
            }
        }
    }
    match env.undefined {
        Some(e) => Err(e),
        None => Ok(function),
    }
}

fn build_kind<'a>(inst: &AstInst<'a>, env: &mut Env<'a>, line: usize) -> Result<(InstKind, Type)> {
    Ok(match inst {
        AstInst::Binary { op, ty, lhs, rhs } => (
            InstKind::Binary {
                op: *op,
                lhs: env.value(lhs, *ty, line),
                rhs: env.value(rhs, *ty, line),
            },
            *ty,
        ),
        AstInst::ICmp { pred, ty, lhs, rhs } => (
            InstKind::ICmp {
                pred: *pred,
                lhs: env.value(lhs, *ty, line),
                rhs: env.value(rhs, *ty, line),
            },
            Type::I1,
        ),
        AstInst::Select {
            cond,
            if_true,
            if_false,
        } => (
            InstKind::Select {
                cond: env.typed(cond, line),
                if_true: env.typed(if_true, line),
                if_false: env.typed(if_false, line),
            },
            if_true.ty,
        ),
        AstInst::Call { ret, callee, args } => (
            InstKind::Call {
                callee: callee.to_string(),
                args: args.iter().map(|a| env.typed(a, line)).collect(),
            },
            *ret,
        ),
        AstInst::Invoke {
            ret,
            callee,
            args,
            normal,
            unwind,
        } => (
            InstKind::Invoke {
                callee: callee.to_string(),
                args: args.iter().map(|a| env.typed(a, line)).collect(),
                normal: env.block(normal, line)?,
                unwind: env.block(unwind, line)?,
            },
            *ret,
        ),
        AstInst::LandingPad => (InstKind::LandingPad, Type::Ptr),
        AstInst::Resume { value } => (
            InstKind::Resume {
                value: env.typed(value, line),
            },
            Type::Void,
        ),
        AstInst::Phi { ty, incomings } => (
            InstKind::Phi {
                incomings: incomings
                    .iter()
                    .map(|(v, b)| Ok((env.value(v, *ty, line), env.block(b, line)?)))
                    .collect::<Result<_>>()?,
            },
            *ty,
        ),
        AstInst::Alloca { ty } => (InstKind::Alloca { ty: *ty }, Type::Ptr),
        AstInst::Load { ty, ptr } => (
            InstKind::Load {
                ptr: env.typed(ptr, line),
            },
            *ty,
        ),
        AstInst::Store { value, ptr } => (
            InstKind::Store {
                value: env.typed(value, line),
                ptr: env.typed(ptr, line),
            },
            Type::Void,
        ),
        AstInst::Gep {
            base,
            index,
            stride,
        } => (
            InstKind::Gep {
                base: env.typed(base, line),
                index: env.typed(index, line),
                stride: *stride,
            },
            Type::Ptr,
        ),
        AstInst::Cast { kind, value, to } => (
            InstKind::Cast {
                kind: *kind,
                value: env.typed(value, line),
            },
            *to,
        ),
        AstInst::Br { dest } => (
            InstKind::Br {
                dest: env.block(dest, line)?,
            },
            Type::Void,
        ),
        AstInst::CondBr {
            cond,
            if_true,
            if_false,
        } => (
            InstKind::CondBr {
                cond: env.typed(cond, line),
                if_true: env.block(if_true, line)?,
                if_false: env.block(if_false, line)?,
            },
            Type::Void,
        ),
        AstInst::Switch {
            value,
            default,
            cases,
        } => (
            InstKind::Switch {
                value: env.typed(value, line),
                default: env.block(default, line)?,
                cases: cases
                    .iter()
                    .map(|(c, b)| Ok((*c, env.block(b, line)?)))
                    .collect::<Result<_>>()?,
            },
            Type::Void,
        ),
        AstInst::Ret { value } => (
            InstKind::Ret {
                value: value.as_ref().map(|v| env.typed(v, line)),
            },
            Type::Void,
        ),
        AstInst::Unreachable => (InstKind::Unreachable, Type::Void),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::{print_function, print_module};

    #[test]
    fn linkage_parses_and_round_trips() {
        let text =
            "define internal i32 @local(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}\n";
        let f = parse_function(text).unwrap();
        assert_eq!(f.linkage, Linkage::Internal);
        let printed = print_function(&f);
        assert!(printed.starts_with("define internal i32 @local"));
        assert_eq!(print_function(&parse_function(&printed).unwrap()), printed);
        // An explicit `external` keyword parses and prints as the default.
        let g =
            parse_function("define external i32 @ext(i32 %x) {\nentry:\n  ret i32 %x\n}").unwrap();
        assert_eq!(g.linkage, Linkage::External);
        assert!(print_function(&g).starts_with("define i32 @ext"));
    }

    const EXAMPLE_F1: &str = r#"
define i32 @f1(i32 %n) {
L1:
  %x1 = call i32 @start(i32 %n)
  %x2 = icmp slt i32 %x1, 0
  br i1 %x2, label %L2, label %L3
L2:
  %x3 = call i32 @body(i32 %x1)
  br label %L4
L3:
  %x4 = call i32 @other(i32 %x1)
  br label %L4
L4:
  %x5 = phi i32 [ %x3, %L2 ], [ %x4, %L3 ]
  %x6 = call i32 @end(i32 %x5)
  ret i32 %x6
}
"#;

    #[test]
    fn parses_paper_motivating_function() {
        let f = parse_function(EXAMPLE_F1).unwrap();
        assert_eq!(f.name, "f1");
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_insts(), 10);
        let l4 = f.block_by_name("L4").unwrap();
        assert_eq!(f.block(l4).phis.len(), 1);
    }

    #[test]
    fn roundtrips_through_printer() {
        let f = parse_function(EXAMPLE_F1).unwrap();
        let printed = print_function(&f);
        let reparsed = parse_function(&printed).unwrap();
        assert_eq!(print_function(&reparsed), printed);
        assert_eq!(reparsed.num_insts(), f.num_insts());
        assert_eq!(reparsed.num_blocks(), f.num_blocks());
    }

    #[test]
    fn declaration_linkage_parses_and_round_trips() {
        let text = "declare internal i32 @local_helper(i32)\ndeclare i32 @ext(i32)\n";
        let m = parse_module(text).unwrap();
        assert_eq!(m.declarations()[0].linkage, Linkage::Internal);
        assert_eq!(m.declarations()[1].linkage, Linkage::External);
        let printed = print_module(&m);
        assert!(printed.contains("declare internal i32 @local_helper(i32)"));
        let again = parse_module(&printed).unwrap();
        assert_eq!(again.declarations(), m.declarations());
        assert_eq!(print_module(&again), printed);
        // An explicit `external` keyword parses and prints as the default.
        let e = parse_module("declare external i32 @e(i32)").unwrap();
        assert_eq!(e.declarations()[0].linkage, Linkage::External);
        assert!(print_module(&e).contains("declare i32 @e(i32)"));
    }

    #[test]
    fn parses_module_with_declarations() {
        let text = format!("declare i32 @start(i32)\ndeclare i32 @end(i32)\n{EXAMPLE_F1}");
        let m = parse_module(&text).unwrap();
        assert_eq!(m.declarations().len(), 2);
        assert_eq!(m.num_functions(), 1);
        let printed = print_module(&m);
        let reparsed = parse_module(&printed).unwrap();
        assert_eq!(reparsed.declarations().len(), 2);
    }

    #[test]
    fn parses_all_instruction_forms() {
        let text = r#"
define i64 @all(i64 %a, ptr %p, double %d) {
entry:
  %m = alloca i64
  store i64 %a, ptr %m
  %l = load i64, ptr %m
  %g = getelementptr ptr %p, i64 %l, stride 8
  %add = add i64 %l, 3
  %shifted = shl i64 %add, 1
  %f = fadd double %d, 1.5
  %fi = fptosi double %f to i64
  %c = icmp eq i64 %add, %fi
  %sel = select i1 %c, i64 %add, i64 %fi
  %tr = trunc i64 %sel to i32
  %w = zext i32 %tr to i64
  switch i64 %w, label %other [ 1: label %one, 2: label %two ]
one:
  br label %done
two:
  br label %done
other:
  %u = invoke i64 @may_throw(i64 %a) to label %done unwind label %pad
pad:
  %lp = landingpad
  resume ptr %lp
done:
  %r = phi i64 [ 1, %one ], [ 2, %two ], [ %u, %other ]
  ret i64 %r
}
"#;
        let f = parse_function(text).unwrap();
        assert_eq!(f.num_blocks(), 6);
        let printed = print_function(&f);
        let again = parse_function(&printed).unwrap();
        assert_eq!(print_function(&again), printed);
    }

    #[test]
    fn rejects_unknown_value() {
        let text = "define i32 @f(i32 %n) {\nentry:\n  ret i32 %missing\n}";
        let err = parse_function(text).unwrap_err();
        assert!(err.message.contains("undefined value"));
    }

    #[test]
    fn rejects_unknown_label() {
        let text = "define void @f() {\nentry:\n  br label %nowhere\n}";
        let err = parse_function(text).unwrap_err();
        assert!(err.message.contains("unknown label"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_module("definitely not ir").is_err());
        assert!(parse_module("define i32 @f(").is_err());
    }

    #[test]
    fn rejects_duplicate_definition_without_panicking() {
        let one = "define i32 @dup(i32 %x) {\nentry:\n  ret i32 %x\n}\n";
        let text = format!("{one}{one}");
        let err = parse_module(&text).unwrap_err();
        assert!(err.message.contains("duplicate function definition @dup"));
        // The recovering path keeps the first copy and records the second.
        let recovered = parse_module_recovering(&text);
        assert_eq!(recovered.module.num_functions(), 1);
        assert_eq!(recovered.skipped.len(), 1);
        assert_eq!(recovered.skipped[0].name, "dup");
    }

    const MIXED: &str = "\
define i32 @good1(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
define i32 @bad(i32 %x) {
entry:
  %r = frobnicate i32 %x, 1
  ret i32 %r
}
define i32 @good2(i32 %x) {
entry:
  ret i32 %x
}
";

    #[test]
    fn recovers_around_broken_function() {
        assert!(parse_module(MIXED).is_err());
        let recovered = parse_module_recovering(MIXED);
        assert_eq!(recovered.module.num_functions(), 2);
        assert!(recovered.module.function("good1").is_some());
        assert!(recovered.module.function("good2").is_some());
        assert_eq!(recovered.skipped.len(), 1);
        let skip = &recovered.skipped[0];
        assert_eq!(skip.name, "bad");
        assert_eq!(skip.line, 8);
        assert!(skip.message.contains("unknown instruction 'frobnicate'"));
    }

    #[test]
    fn recovers_from_lexical_and_structural_noise() {
        let text = "\
$$$
define i32 @ok(i32 %x) {
entry:
  ret i32 %x
}
stray words here
define i32 @poisoned(i32 %x) {
entry:
  %r = add i32 %x, 1 ###
  ret i32 %r
}
declare i32 @ext(i32)
";
        let recovered = parse_module_recovering(text);
        assert_eq!(recovered.module.num_functions(), 1);
        assert!(recovered.module.function("ok").is_some());
        assert_eq!(recovered.module.declarations().len(), 1);
        // Three casualties: the leading noise, the stray words, and the
        // function whose body contains a lexical error.
        assert_eq!(recovered.skipped.len(), 3);
        assert!(recovered
            .skipped
            .iter()
            .any(|s| s.name == "poisoned" && s.message.contains("unexpected character")));
        // An unterminated body swallows nothing past the next `define`.
        let truncated = "\
define i32 @cut(i32 %x) {
entry:
  %r = add i32 %x, 1
define i32 @after(i32 %x) {
entry:
  ret i32 %x
}
";
        let recovered = parse_module_recovering(truncated);
        assert_eq!(recovered.module.num_functions(), 1);
        assert!(recovered.module.function("after").is_some());
        assert_eq!(recovered.skipped.len(), 1);
        assert_eq!(recovered.skipped[0].name, "cut");
    }

    #[test]
    fn recovery_is_invisible_on_clean_input() {
        let text = format!("declare i32 @start(i32)\ndeclare i32 @end(i32)\n{EXAMPLE_F1}");
        let strict = parse_module(&text).unwrap();
        let recovered = parse_module_recovering(&text);
        assert!(!recovered.degraded());
        assert_eq!(print_module(&recovered.module), print_module(&strict));
    }

    /// The strict error of `text` and the line of its one skip record.
    fn error_lines(text: &str) -> (ParseError, usize) {
        let err = parse_module(text).unwrap_err();
        let recovered = parse_module_recovering(text);
        assert_eq!(recovered.skipped.len(), 1, "{:?}", recovered.skipped);
        assert_eq!(recovered.skipped[0].message, err.message);
        (err, recovered.skipped[0].line)
    }

    #[test]
    fn duplicate_label_reports_its_second_occurrence() {
        let text = "\
define void @f() {
a:
  br label %a
a:
  ret void
}
";
        let (err, skip_line) = error_lines(text);
        assert_eq!(err.message, "duplicate block label a");
        assert_eq!((err.line, skip_line), (4, 4));
    }

    #[test]
    fn unexpected_end_reports_the_units_last_token() {
        let text = "\
define i32 @f(i32 %x) {
entry:
  %r = add i32 %x,
";
        let (err, skip_line) = error_lines(text);
        assert_eq!(err.message, "unexpected end of input");
        assert_eq!((err.line, skip_line), (3, 3));
        // A unit cut inside its signature ends on the `define` line.
        let (err, skip_line) = error_lines("\n\ndefine i32 @g(");
        assert_eq!(err.message, "unexpected end of input");
        assert_eq!((err.line, skip_line), (3, 3));
    }

    #[test]
    fn an_offending_word_at_the_end_of_a_line_reports_its_own_line() {
        // Each offending token ends line 3, so the next token is on line 4.
        let cases = [
            ("  %m = alloca i0\n  ret i32 %x\n", "unknown type 'i0'"),
            (
                "  frobnicate\n  ret i32 %x\n",
                "unknown instruction 'frobnicate'",
            ),
            (
                "  %c = icmp sometimes\n    i32 %x, 0\n  ret i32 %x\n",
                "unknown icmp predicate 'sometimes'",
            ),
            (
                "  %p = getelementptr ptr null, i64 1, stride x\n  ret i32 %x\n",
                "expected stride integer, found Word(\"x\")",
            ),
            (
                "  switch i32 %x, label %entry [ x\n : label %entry ]\n",
                "expected case value, found Word(\"x\")",
            ),
        ];
        for (body, message) in cases {
            let text = format!("define i32 @f(i32 %x) {{\nentry:\n{body}}}\n");
            let (err, skip_line) = error_lines(&text);
            assert_eq!(err.message, message);
            assert_eq!((err.line, skip_line), (3, 3), "{message}");
        }
    }

    #[test]
    fn errors_past_the_last_token_report_the_units_first_line() {
        let text = "\
declare i32 @ext(i32)
define i32 @f(i32 %x) {
entry:
  ret i32 %x
";
        let (err, skip_line) = error_lines(text);
        assert_eq!(err.message, "unterminated function body");
        assert_eq!((err.line, skip_line), (2, 2));
    }
}
