//! SQL-like query language: tokenizer, AST and parser.
//!
//! Implements the paper's offline query-provisioning syntax (Fig. 7):
//!
//! ```sql
//! CREATE VIEW prob_view AS DENSITY r
//! OVER t OMEGA delta=2, n=2
//! FROM raw_values WHERE t >= 1 AND t <= 3
//! ```
//!
//! plus the surrounding statements a usable system needs (`CREATE TABLE`,
//! `INSERT`, `SELECT`, `DROP`) and two documented extensions on the view
//! statement: `USING METRIC <name>` selects the dynamic density metric and
//! `WINDOW <H>` sets the sliding-window length (both default to the
//! engine's configuration when omitted).
//!
//! `SELECT` carries the probabilistic extensions:
//!
//! * an **aggregate grammar** — `SELECT COUNT(*) | SUM(col) | AVG(col) |
//!   EXPECTED(col)`, optionally `GROUP BY col, …`, optionally a `HAVING`
//!   event predicate such as `HAVING COUNT(*) >= 2` (the probability that
//!   the group's tuple count is at least 2). Aggregate queries are planned
//!   and evaluated by [`crate::plan`];
//! * **temporal windows** — `GROUP BY WINDOW(<col>, <width> [, <origin>])`
//!   buckets tuples by a numeric column into half-open intervals
//!   `[origin + k·width, origin + (k+1)·width)` and aggregates per bucket
//!   (`origin` defaults to 0). The window composes with further `GROUP BY`
//!   columns and with `HAVING`/`WITH WORLDS`; see [`WindowSpec`];
//! * `THRESHOLD <tau>` — keep only tuples with probability ≥ τ
//!   ([`crate::query::threshold`]);
//! * `TOP <k>` — the k most probable tuples, ties to the earlier row;
//! * `WITH WORLDS <n> [SEED <s>] [CONFIDENCE <eps>]` — estimate an
//!   aggregate's `HAVING` event by Monte-Carlo possible-world sampling
//!   ([`crate::worlds::WorldsExecutor`]) over at most `n` worlds, seeded
//!   with `s` (default 0), optionally stopping early once the 95% CI
//!   half-width of the event estimate is ≤ `eps`. A row query's domain
//!   answer is closed forms (no world is sampled), aggregate values are
//!   exact under the clause, and an aggregate without `HAVING` is
//!   answered by exact evaluation;
//! * `WITH SYNOPSIS [BUCKETS <b>] [MAXERROR <e>]` — accepted and answered
//!   by exact evaluation, which meets any error bound `e`; `b` is checked
//!   and otherwise ignored. At most one `WITH` clause per statement.
//!
//! `EXPLAIN <select>` wraps any `SELECT` and, instead of executing it,
//! reports the logical plan, the lowered physical plan and the chosen
//! evaluation strategy (see [`crate::plan`]).
//!
//! Every statement implements `Display` with the guarantee that
//! `parse(stmt.to_string())` reproduces the statement exactly (the
//! round-trip property the SQL proptests pin down).

use crate::error::DbError;
use crate::query::{CmpOp, Comparison, Conjunction};
use crate::value::{ColumnType, Value};
use std::fmt;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE, …)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, ColumnType)>,
    },
    /// `INSERT INTO name VALUES (…), (…)`
    Insert {
        /// Target table.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<Value>>,
    },
    /// `SELECT … FROM … [WHERE …] [ORDER BY …] [LIMIT …]`
    Select(SelectStmt),
    /// `EXPLAIN SELECT …` — plan the query and report the plan instead of
    /// executing it.
    Explain(SelectStmt),
    /// The paper's probabilistic view generation query.
    CreateDensityView(DensityViewSpec),
    /// `DROP TABLE name` / `DROP VIEW name`
    Drop {
        /// Table or view name.
        name: String,
    },
    /// `TAIL SELECT … GROUP BY WINDOW(…)` — registers the wrapped windowed
    /// query as a standing continuous query. The catalog cannot execute it
    /// (there is nothing to return yet); the server surface owns the
    /// subscription lifecycle and emits a frame each time a window bucket
    /// closes.
    Tail(SelectStmt),
}

/// An aggregate function name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — the (distribution of the) number of tuples.
    Count,
    /// `SUM(col)` — the sum of a numeric column over present tuples.
    Sum,
    /// `AVG(col)` — `E[SUM(col)] / E[COUNT(*)]` (ratio of expectations).
    Avg,
    /// `EXPECTED(col)` — `E[SUM(col)]`, the paper-style expected aggregate.
    Expected,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Expected => "EXPECTED",
        })
    }
}

/// An aggregate expression in a projection: `COUNT(*)` or `FUNC(col)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated column; `None` only for `COUNT(*)`.
    pub column: Option<String>,
}

impl AggExpr {
    /// `COUNT(*)`.
    pub fn count() -> Self {
        AggExpr {
            func: AggFunc::Count,
            column: None,
        }
    }

    /// `FUNC(col)` for the column-taking aggregates.
    pub fn over(func: AggFunc, column: impl Into<String>) -> Self {
        AggExpr {
            func,
            column: Some(column.into()),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.column {
            Some(col) => write!(f, "{}({col})", self.func),
            None => write!(f, "{}(*)", self.func),
        }
    }
}

/// One item of a `SELECT` projection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain column reference.
    Column(String),
    /// An aggregate expression.
    Aggregate(AggExpr),
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Column(c) => f.write_str(c),
            SelectItem::Aggregate(a) => a.fmt(f),
        }
    }
}

/// A `HAVING <agg> <op> <literal>` event predicate over an aggregate
/// query. On probabilistic relations it is *not* a filter: each group
/// reports the probability that the predicate holds (e.g.
/// `HAVING COUNT(*) >= 2` yields `P(count ≥ 2)` per group). On
/// deterministic tables it filters groups, SQL-classic.
#[derive(Debug, Clone, PartialEq)]
pub struct HavingClause {
    /// The aggregate on the left-hand side (currently only `COUNT(*)` is
    /// executable; the grammar is kept general).
    pub agg: AggExpr,
    /// The comparison operator.
    pub op: CmpOp,
    /// The literal right-hand side.
    pub value: Value,
}

impl fmt::Display for HavingClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.agg, self.op)?;
        fmt_literal(&self.value, f)
    }
}

/// A temporal window bucketing: `WINDOW(<col>, <width> [, <origin>])`
/// inside a `GROUP BY` list.
///
/// Tuples are assigned to half-open buckets
/// `[origin + k·width, origin + (k+1)·width)` by the **canonical bucket
/// index** `k = ⌊(value − origin) / width⌋` over the numeric window column;
/// each bucket becomes one aggregation group keyed by its bucket *start*
/// `origin + k·width` (a float), ahead of any further `GROUP BY` columns.
/// `origin` defaults to 0 when omitted.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    /// The bucketed (numeric) column — typically the time column.
    pub column: String,
    /// Bucket width; must be positive and finite.
    pub width: f64,
    /// Bucket alignment origin (`None` = 0).
    pub origin: Option<f64>,
}

impl WindowSpec {
    /// The effective alignment origin (0 when omitted).
    pub(crate) fn origin(&self) -> f64 {
        self.origin.unwrap_or(0.0)
    }

    /// The start of the bucket containing `value`: `origin + k·width` with
    /// the canonical index `k = ⌊(value − origin) / width⌋`. Every strategy
    /// derives bucket keys through this one function, so exact and
    /// Monte-Carlo evaluation agree on bucket boundaries bit for bit.
    pub(crate) fn bucket_start(&self, value: f64) -> f64 {
        let origin = self.origin();
        origin + ((value - origin) / self.width).floor() * self.width
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WINDOW({}, {:?}", self.column, self.width)?;
        if let Some(o) = self.origin {
            write!(f, ", {o:?}")?;
        }
        f.write_str(")")
    }
}

/// A `SELECT` statement over a deterministic table or probabilistic view.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projected items; empty means `*`.
    pub projection: Vec<SelectItem>,
    /// Source table or view.
    pub table: String,
    /// Conjunctive predicate (may reference the `prob` pseudo-column on
    /// probabilistic views).
    pub predicate: Conjunction,
    /// Optional temporal window bucketing (`GROUP BY WINDOW(…)`; aggregate
    /// queries only). At most one window per statement; it composes with
    /// plain `group_by` columns.
    pub window: Option<WindowSpec>,
    /// `GROUP BY` columns (aggregate queries only).
    pub group_by: Vec<String>,
    /// Optional `HAVING` event predicate (aggregate queries only).
    pub having: Option<HavingClause>,
    /// Optional `THRESHOLD <tau>`: minimum tuple probability (probabilistic
    /// relations only).
    pub threshold: Option<f64>,
    /// Optional `TOP <k>`: the k most probable tuples (probabilistic
    /// relations only).
    pub top: Option<usize>,
    /// Optional `(column, ascending)` ordering.
    pub order_by: Option<(String, bool)>,
    /// Optional row limit.
    pub limit: Option<usize>,
    /// Optional `WITH WORLDS …`: sample a row query's domain or an
    /// aggregate's `HAVING` event by Monte-Carlo possible-world sampling
    /// (an aggregate without `HAVING` is answered exactly).
    pub worlds: Option<WorldsClause>,
    /// Optional `WITH SYNOPSIS …`: accepted and answered exactly.
    pub synopsis: Option<SynopsisClause>,
}

/// The `WITH WORLDS <n> [SEED <s>] [CONFIDENCE <eps>]` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldsClause {
    /// Maximum number of worlds to sample.
    pub worlds: usize,
    /// RNG seed (`SEED <s>`); the executor defaults to 0 when omitted.
    pub seed: Option<u64>,
    /// Early-termination CI half-width target (`CONFIDENCE <eps>`).
    pub confidence: Option<f64>,
}

/// The `WITH SYNOPSIS [BUCKETS <b>] [MAXERROR <e>]` clause. The planner
/// answers it exactly, so both parts are kept only to round-trip the
/// statement text.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisClause {
    /// Bucket budget (`BUCKETS <b>`, positive).
    pub buckets: Option<usize>,
    /// Largest acceptable absolute error (`MAXERROR <e>`, positive); an
    /// exact answer always meets it.
    pub max_error: Option<f64>,
}

/// The probability value generation query (paper Definition 2 / Fig. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityViewSpec {
    /// Name of the probabilistic view to create.
    pub view_name: String,
    /// Column carrying the raw values (`DENSITY r`).
    pub value_column: String,
    /// Column carrying time (`OVER t`).
    pub time_column: String,
    /// Ω lattice cell width Δ (`OMEGA delta=…`).
    pub delta: f64,
    /// Ω lattice cell count n (`OMEGA …, n=…`); the paper requires n even.
    pub n: usize,
    /// Source table (`FROM raw_values`).
    pub source_table: String,
    /// Time predicate (`WHERE t >= 1 AND t <= 3`).
    pub predicate: Conjunction,
    /// Extension: `USING METRIC <name>` — dynamic density metric to use.
    pub metric: Option<String>,
    /// Extension: `WINDOW <H>` — sliding-window length.
    pub window: Option<usize>,
}

/// Lexical token.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Tokenizes SQL text.
fn tokenize(input: &str) -> Result<Vec<Token>, DbError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    let err = |msg: String| DbError::Parse(msg);
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' | '\n' | '\r' | ';' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(err("expected '=' after '!'".into()));
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token::Le);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&'>') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                        None => return Err(err("unterminated string literal".into())),
                    }
                }
                out.push(Token::Str(s));
            }
            _ if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let start = i;
                i += 1; // consume digit or '-'
                let mut is_float = false;
                while let Some(&d) = bytes.get(i) {
                    if d.is_ascii_digit() {
                        i += 1;
                    } else if d == '.' && !is_float {
                        is_float = true;
                        i += 1;
                    } else if (d == 'e' || d == 'E')
                        && bytes
                            .get(i + 1)
                            .is_some_and(|n| n.is_ascii_digit() || *n == '-' || *n == '+')
                    {
                        is_float = true;
                        i += 2;
                    } else {
                        break;
                    }
                }
                let text: String = bytes[start..i].iter().collect();
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| err(format!("bad float literal {text:?}")))?;
                    out.push(Token::Float(v));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| err(format!("bad integer literal {text:?}")))?;
                    out.push(Token::Int(v));
                }
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.push(Token::Ident(bytes[start..i].iter().collect()));
            }
            _ => return Err(err(format!("unexpected character {c:?}"))),
        }
    }
    Ok(out)
}

/// Recursive-descent parser state.
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> DbError {
        DbError::Parse(format!("{} (at token {})", msg.into(), self.pos))
    }

    /// Consumes a keyword (case-insensitive identifier match).
    fn expect_kw(&mut self, kw: &str) -> Result<(), DbError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.error(format!("expected keyword {kw}, found {other:?}"))),
        }
    }

    /// Peeks whether the next token is the given keyword.
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_ident(&mut self) -> Result<String, DbError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_token(&mut self, t: Token) -> Result<(), DbError> {
        match self.next() {
            Some(found) if found == t => Ok(()),
            other => Err(self.error(format!("expected {t:?}, found {other:?}"))),
        }
    }

    fn expect_number(&mut self) -> Result<f64, DbError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(v as f64),
            Some(Token::Float(v)) => Ok(v),
            other => Err(self.error(format!("expected number, found {other:?}"))),
        }
    }

    fn expect_usize(&mut self) -> Result<usize, DbError> {
        match self.next() {
            Some(Token::Int(v)) if v >= 0 => Ok(v as usize),
            other => Err(self.error(format!("expected non-negative integer, found {other:?}"))),
        }
    }

    fn literal(&mut self) -> Result<Value, DbError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Value::Int(v)),
            Some(Token::Float(v)) => Ok(Value::Float(v)),
            Some(Token::Str(s)) => Ok(Value::Text(s)),
            other => Err(self.error(format!("expected literal, found {other:?}"))),
        }
    }

    fn comparison_op(&mut self) -> Result<CmpOp, DbError> {
        match self.next() {
            Some(Token::Eq) => Ok(CmpOp::Eq),
            Some(Token::Ne) => Ok(CmpOp::Ne),
            Some(Token::Lt) => Ok(CmpOp::Lt),
            Some(Token::Le) => Ok(CmpOp::Le),
            Some(Token::Gt) => Ok(CmpOp::Gt),
            Some(Token::Ge) => Ok(CmpOp::Ge),
            other => Err(self.error(format!("expected comparison operator, found {other:?}"))),
        }
    }

    /// `WHERE col op literal (AND col op literal)*`
    fn conjunction(&mut self) -> Result<Conjunction, DbError> {
        let mut out = Vec::new();
        loop {
            let column = self.expect_ident()?;
            let op = self.comparison_op()?;
            let value = self.literal()?;
            out.push(Comparison { column, op, value });
            if self.peek_kw("AND") {
                self.next();
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn column_type(&mut self) -> Result<ColumnType, DbError> {
        let t = self.expect_ident()?;
        match t.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => Ok(ColumnType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Ok(ColumnType::Float),
            "TEXT" | "VARCHAR" | "STRING" => Ok(ColumnType::Text),
            other => Err(self.error(format!("unknown column type {other}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement, DbError> {
        if self.peek_kw("CREATE") {
            self.next();
            if self.peek_kw("TABLE") {
                self.next();
                self.create_table()
            } else if self.peek_kw("VIEW") {
                self.next();
                self.create_view()
            } else {
                Err(self.error("expected TABLE or VIEW after CREATE"))
            }
        } else if self.peek_kw("INSERT") {
            self.next();
            self.insert()
        } else if self.peek_kw("SELECT") {
            self.next();
            self.select()
        } else if self.peek_kw("EXPLAIN") {
            self.next();
            self.expect_kw("SELECT")?;
            match self.select()? {
                Statement::Select(sel) => Ok(Statement::Explain(sel)),
                _ => unreachable!("select() only builds SELECTs"),
            }
        } else if self.peek_kw("TAIL") {
            self.next();
            self.expect_kw("SELECT")?;
            match self.select()? {
                Statement::Select(sel) => {
                    if sel.window.is_none() {
                        return Err(self.error("TAIL requires GROUP BY WINDOW(…)"));
                    }
                    Ok(Statement::Tail(sel))
                }
                _ => unreachable!("select() only builds SELECTs"),
            }
        } else if self.peek_kw("DROP") {
            self.next();
            if self.peek_kw("TABLE") || self.peek_kw("VIEW") {
                self.next();
            }
            Ok(Statement::Drop {
                name: self.expect_ident()?,
            })
        } else {
            Err(self.error("expected CREATE, INSERT, SELECT, EXPLAIN, TAIL or DROP"))
        }
    }

    /// Parses the aggregate function name the parser is peeking at, if any
    /// — an identifier is only an aggregate when followed by `(`.
    fn peek_agg_func(&self) -> Option<AggFunc> {
        let Some(Token::Ident(name)) = self.peek() else {
            return None;
        };
        if self.tokens.get(self.pos + 1) != Some(&Token::LParen) {
            return None;
        }
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "EXPECTED" => Some(AggFunc::Expected),
            _ => None,
        }
    }

    /// `COUNT(*)` / `SUM(col)` / `AVG(col)` / `EXPECTED(col)`; the caller
    /// has already identified the function via [`Parser::peek_agg_func`].
    fn aggregate(&mut self, func: AggFunc) -> Result<AggExpr, DbError> {
        self.next(); // function name
        self.expect_token(Token::LParen)?;
        let agg = if func == AggFunc::Count {
            self.expect_token(Token::Star)
                .map_err(|_| self.error("COUNT takes '*' (tuple counts have no column)"))?;
            AggExpr::count()
        } else {
            AggExpr::over(func, self.expect_ident()?)
        };
        self.expect_token(Token::RParen)?;
        Ok(agg)
    }

    fn create_table(&mut self) -> Result<Statement, DbError> {
        let name = self.expect_ident()?;
        self.expect_token(Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident()?;
            let ty = self.column_type()?;
            columns.push((col, ty));
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return Err(self.error(format!("expected ',' or ')', found {other:?}"))),
            }
        }
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement, DbError> {
        self.expect_kw("INTO")?;
        let table = self.expect_ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_token(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                match self.next() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => {
                        return Err(self.error(format!("expected ',' or ')', found {other:?}")))
                    }
                }
            }
            rows.push(row);
            if self.peek() == Some(&Token::Comma) {
                self.next();
            } else {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn select(&mut self) -> Result<Statement, DbError> {
        let mut projection = Vec::new();
        if self.peek() == Some(&Token::Star) {
            self.next();
        } else {
            loop {
                let item = match self.peek_agg_func() {
                    Some(func) => SelectItem::Aggregate(self.aggregate(func)?),
                    None => SelectItem::Column(self.expect_ident()?),
                };
                projection.push(item);
                if self.peek() == Some(&Token::Comma) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect_kw("FROM")?;
        let table = self.expect_ident()?;
        let mut predicate = Vec::new();
        if self.peek_kw("WHERE") {
            self.next();
            predicate = self.conjunction()?;
        }
        let mut group_by = Vec::new();
        let mut window = None;
        if self.peek_kw("GROUP") {
            self.next();
            self.expect_kw("BY")?;
            loop {
                // `WINDOW` is only the bucketing form when followed by `(`;
                // otherwise it is an ordinary grouping column name.
                if self.peek_kw("WINDOW") && self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    if window.is_some() {
                        return Err(self.error("GROUP BY allows at most one WINDOW bucketing"));
                    }
                    window = Some(self.window_spec()?);
                } else {
                    group_by.push(self.expect_ident()?);
                }
                if self.peek() == Some(&Token::Comma) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let mut having = None;
        if self.peek_kw("HAVING") {
            self.next();
            let func = self
                .peek_agg_func()
                .ok_or_else(|| self.error("HAVING needs an aggregate left-hand side"))?;
            let agg = self.aggregate(func)?;
            let op = self.comparison_op()?;
            let value = self.literal()?;
            having = Some(HavingClause { agg, op, value });
        }
        let mut threshold = None;
        if self.peek_kw("THRESHOLD") {
            self.next();
            let tau = self.expect_number()?;
            if !(0.0..=1.0).contains(&tau) {
                return Err(self.error(format!("THRESHOLD must lie in [0, 1], got {tau}")));
            }
            threshold = Some(tau);
        }
        let mut top = None;
        if self.peek_kw("TOP") {
            self.next();
            top = Some(self.expect_usize()?);
        }
        let mut order_by = None;
        if self.peek_kw("ORDER") {
            self.next();
            self.expect_kw("BY")?;
            let col = self.expect_ident()?;
            let asc = if self.peek_kw("DESC") {
                self.next();
                false
            } else {
                if self.peek_kw("ASC") {
                    self.next();
                }
                true
            };
            order_by = Some((col, asc));
        }
        let mut limit = None;
        if self.peek_kw("LIMIT") {
            self.next();
            limit = Some(self.expect_usize()?);
        }
        let mut worlds = None;
        let mut synopsis = None;
        if self.peek_kw("WITH") {
            self.next();
            if self.peek_kw("SYNOPSIS") {
                self.next();
                let mut buckets = None;
                if self.peek_kw("BUCKETS") {
                    self.next();
                    let b = self.expect_usize()?;
                    if b == 0 {
                        return Err(self.error("SYNOPSIS BUCKETS needs at least one bucket"));
                    }
                    buckets = Some(b);
                }
                let mut max_error = None;
                if self.peek_kw("MAXERROR") {
                    self.next();
                    let e = self.expect_number()?;
                    if !(e > 0.0) {
                        return Err(self.error(format!("MAXERROR bound must be positive, got {e}")));
                    }
                    max_error = Some(e);
                }
                synopsis = Some(SynopsisClause { buckets, max_error });
            } else {
                self.expect_kw("WORLDS")?;
                let n = self.expect_usize()?;
                if n == 0 {
                    return Err(self.error("WITH WORLDS needs at least one world"));
                }
                let mut seed = None;
                if self.peek_kw("SEED") {
                    self.next();
                    seed = Some(self.expect_usize()? as u64);
                }
                let mut confidence = None;
                if self.peek_kw("CONFIDENCE") {
                    self.next();
                    let eps = self.expect_number()?;
                    if !(eps > 0.0) {
                        return Err(
                            self.error(format!("CONFIDENCE target must be positive, got {eps}"))
                        );
                    }
                    confidence = Some(eps);
                }
                worlds = Some(WorldsClause {
                    worlds: n,
                    seed,
                    confidence,
                });
            }
        }
        Ok(Statement::Select(SelectStmt {
            projection,
            table,
            predicate,
            window,
            group_by,
            having,
            threshold,
            top,
            order_by,
            limit,
            worlds,
            synopsis,
        }))
    }

    /// `WINDOW(col, width [, origin])` inside a `GROUP BY` list; the caller
    /// has already seen the keyword and the `(`.
    fn window_spec(&mut self) -> Result<WindowSpec, DbError> {
        self.next(); // WINDOW
        self.expect_token(Token::LParen)?;
        let column = self.expect_ident()?;
        self.expect_token(Token::Comma)?;
        let width = self.expect_number()?;
        if !(width > 0.0) || !width.is_finite() {
            return Err(self.error(format!("WINDOW width must be positive, got {width}")));
        }
        let origin = if self.peek() == Some(&Token::Comma) {
            self.next();
            let o = self.expect_number()?;
            // Like the width, a non-finite origin (e.g. the overflowing
            // literal 1e999) would break the parse→format→parse identity.
            if !o.is_finite() {
                return Err(self.error(format!("WINDOW origin must be finite, got {o}")));
            }
            Some(o)
        } else {
            None
        };
        self.expect_token(Token::RParen)?;
        Ok(WindowSpec {
            column,
            width,
            origin,
        })
    }

    /// `VIEW name AS DENSITY col OVER col OMEGA delta=…, n=… FROM table
    ///  [WHERE …] [USING METRIC m] [WINDOW h]`
    fn create_view(&mut self) -> Result<Statement, DbError> {
        let view_name = self.expect_ident()?;
        self.expect_kw("AS")?;
        self.expect_kw("DENSITY")?;
        let value_column = self.expect_ident()?;
        self.expect_kw("OVER")?;
        let time_column = self.expect_ident()?;
        self.expect_kw("OMEGA")?;
        let mut delta = None;
        let mut n = None;
        loop {
            let key = self.expect_ident()?;
            self.expect_token(Token::Eq)?;
            match key.to_ascii_lowercase().as_str() {
                "delta" => delta = Some(self.expect_number()?),
                "n" => n = Some(self.expect_usize()?),
                other => return Err(self.error(format!("unknown OMEGA parameter {other}"))),
            }
            if self.peek() == Some(&Token::Comma) {
                self.next();
            } else {
                break;
            }
        }
        let delta = delta.ok_or_else(|| self.error("OMEGA clause must set delta"))?;
        let n = n.ok_or_else(|| self.error("OMEGA clause must set n"))?;
        if n == 0 || n % 2 != 0 {
            return Err(self.error(format!("OMEGA n must be a positive even integer, got {n}")));
        }
        if !(delta > 0.0) {
            return Err(self.error(format!("OMEGA delta must be positive, got {delta}")));
        }
        self.expect_kw("FROM")?;
        let source_table = self.expect_ident()?;
        let mut predicate = Vec::new();
        if self.peek_kw("WHERE") {
            self.next();
            predicate = self.conjunction()?;
        }
        let mut metric = None;
        if self.peek_kw("USING") {
            self.next();
            self.expect_kw("METRIC")?;
            metric = Some(self.expect_ident()?);
        }
        let mut window = None;
        if self.peek_kw("WINDOW") {
            self.next();
            window = Some(self.expect_usize()?);
        }
        Ok(Statement::CreateDensityView(DensityViewSpec {
            view_name,
            value_column,
            time_column,
            delta,
            n,
            source_table,
            predicate,
            metric,
            window,
        }))
    }
}

/// Formats a literal so that the tokenizer reads back the same [`Value`]:
/// floats use the shortest round-trip representation (which always keeps a
/// fractional or exponent part), text is single-quoted.
///
/// Round-tripping is guaranteed for finite floats and for text containing
/// no `'` — exactly the values the parser itself can produce.
fn fmt_literal(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Value::Int(i) => write!(f, "{i}"),
        Value::Float(x) => write!(f, "{x:?}"),
        Value::Text(s) => write!(f, "'{s}'"),
    }
}

/// Formats a conjunction as `a = 1 AND b >= 2.5`.
fn fmt_conjunction(pred: &Conjunction, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    for (i, cmp) in pred.iter().enumerate() {
        if i > 0 {
            f.write_str(" AND ")?;
        }
        write!(f, "{} {} ", cmp.column, cmp.op)?;
        fmt_literal(&cmp.value, f)?;
    }
    Ok(())
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.projection.is_empty() {
            f.write_str("*")?;
        } else {
            for (i, item) in self.projection.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                item.fmt(f)?;
            }
        }
        write!(f, " FROM {}", self.table)?;
        if !self.predicate.is_empty() {
            f.write_str(" WHERE ")?;
            fmt_conjunction(&self.predicate, f)?;
        }
        if self.window.is_some() || !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            let mut first = true;
            if let Some(w) = &self.window {
                w.fmt(f)?;
                first = false;
            }
            for col in &self.group_by {
                if !first {
                    f.write_str(", ")?;
                }
                f.write_str(col)?;
                first = false;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if let Some(tau) = self.threshold {
            write!(f, " THRESHOLD {tau:?}")?;
        }
        if let Some(k) = self.top {
            write!(f, " TOP {k}")?;
        }
        if let Some((col, asc)) = &self.order_by {
            write!(f, " ORDER BY {col} {}", if *asc { "ASC" } else { "DESC" })?;
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(w) = &self.worlds {
            write!(f, " WITH WORLDS {}", w.worlds)?;
            if let Some(s) = w.seed {
                write!(f, " SEED {s}")?;
            }
            if let Some(eps) = w.confidence {
                write!(f, " CONFIDENCE {eps:?}")?;
            }
        }
        if let Some(s) = &self.synopsis {
            f.write_str(" WITH SYNOPSIS")?;
            if let Some(b) = s.buckets {
                write!(f, " BUCKETS {b}")?;
            }
            if let Some(e) = s.max_error {
                write!(f, " MAXERROR {e:?}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for DensityViewSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CREATE VIEW {} AS DENSITY {} OVER {} OMEGA delta={:?}, n={} FROM {}",
            self.view_name,
            self.value_column,
            self.time_column,
            self.delta,
            self.n,
            self.source_table
        )?;
        if !self.predicate.is_empty() {
            f.write_str(" WHERE ")?;
            fmt_conjunction(&self.predicate, f)?;
        }
        if let Some(m) = &self.metric {
            write!(f, " USING METRIC {m}")?;
        }
        if let Some(h) = self.window {
            write!(f, " WINDOW {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable { name, columns } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, (col, ty)) in columns.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{col} {ty}")?;
                }
                f.write_str(")")
            }
            Statement::Insert { table, rows } => {
                write!(f, "INSERT INTO {table} VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str("(")?;
                    for (j, v) in row.iter().enumerate() {
                        if j > 0 {
                            f.write_str(", ")?;
                        }
                        fmt_literal(v, f)?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
            Statement::Select(sel) => sel.fmt(f),
            Statement::Explain(sel) => write!(f, "EXPLAIN {sel}"),
            Statement::CreateDensityView(spec) => spec.fmt(f),
            Statement::Drop { name } => write!(f, "DROP TABLE {name}"),
            Statement::Tail(sel) => write!(f, "TAIL {sel}"),
        }
    }
}

/// Parses one SQL statement.
pub fn parse(sql: &str) -> Result<Statement, DbError> {
    let tokens = tokenize(sql)?;
    if tokens.is_empty() {
        return Err(DbError::Parse("empty statement".into()));
    }
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(p.error("trailing tokens after statement"));
    }
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_fig7_query_verbatim() {
        let sql = "CREATE VIEW prob_view AS DENSITY r \
                   OVER t OMEGA delta=2, n=2 \
                   FROM raw_values WHERE t >= 1 AND t <= 3";
        let stmt = parse(sql).unwrap();
        match stmt {
            Statement::CreateDensityView(spec) => {
                assert_eq!(spec.view_name, "prob_view");
                assert_eq!(spec.value_column, "r");
                assert_eq!(spec.time_column, "t");
                assert_eq!(spec.delta, 2.0);
                assert_eq!(spec.n, 2);
                assert_eq!(spec.source_table, "raw_values");
                assert_eq!(spec.predicate.len(), 2);
                assert_eq!(spec.predicate[0].op, CmpOp::Ge);
                assert_eq!(spec.predicate[1].op, CmpOp::Le);
                assert_eq!(spec.metric, None);
                assert_eq!(spec.window, None);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_view_extensions() {
        let sql = "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=0.05, n=300 \
                   FROM raw USING METRIC arma_garch WINDOW 60";
        match parse(sql).unwrap() {
            Statement::CreateDensityView(spec) => {
                assert_eq!(spec.delta, 0.05);
                assert_eq!(spec.n, 300);
                assert_eq!(spec.metric.as_deref(), Some("arma_garch"));
                assert_eq!(spec.window, Some(60));
                assert!(spec.predicate.is_empty());
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn rejects_odd_or_zero_n() {
        let bad = "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=3 FROM raw";
        assert!(matches!(parse(bad), Err(DbError::Parse(_))));
        let zero = "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=0 FROM raw";
        assert!(matches!(parse(zero), Err(DbError::Parse(_))));
    }

    #[test]
    fn parses_create_table_and_insert() {
        let create = parse("CREATE TABLE raw_values (t INT, r FLOAT, tag TEXT)").unwrap();
        assert_eq!(
            create,
            Statement::CreateTable {
                name: "raw_values".into(),
                columns: vec![
                    ("t".into(), ColumnType::Int),
                    ("r".into(), ColumnType::Float),
                    ("tag".into(), ColumnType::Text),
                ],
            }
        );
        let insert = parse("INSERT INTO raw_values VALUES (1, 4.2, 'a'), (2, -5.9, 'b')").unwrap();
        match insert {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "raw_values");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Value::Float(-5.9));
                assert_eq!(rows[0][2], Value::Text("a".into()));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_select_with_all_clauses() {
        let sql = "SELECT room, prob FROM prob_view WHERE time = 1 AND prob >= 0.25 \
                   ORDER BY prob DESC LIMIT 2";
        match parse(sql).unwrap() {
            Statement::Select(s) => {
                assert_eq!(
                    s.projection,
                    vec![
                        SelectItem::Column("room".into()),
                        SelectItem::Column("prob".into())
                    ]
                );
                assert_eq!(s.predicate.len(), 2);
                assert_eq!(s.order_by, Some(("prob".into(), false)));
                assert_eq!(s.limit, Some(2));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn select_star_yields_empty_projection() {
        match parse("SELECT * FROM t").unwrap() {
            Statement::Select(s) => assert!(s.projection.is_empty()),
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_aggregates_group_by_and_having() {
        let sql = "SELECT g, COUNT(*), SUM(r), AVG(r), EXPECTED(r) FROM pv \
                   WHERE t >= 1 GROUP BY g, h HAVING COUNT(*) >= 2";
        match parse(sql).unwrap() {
            Statement::Select(s) => {
                assert_eq!(s.projection.len(), 5);
                assert_eq!(s.projection[0], SelectItem::Column("g".into()));
                assert_eq!(s.projection[1], SelectItem::Aggregate(AggExpr::count()));
                assert_eq!(
                    s.projection[2],
                    SelectItem::Aggregate(AggExpr::over(AggFunc::Sum, "r"))
                );
                assert_eq!(
                    s.projection[3],
                    SelectItem::Aggregate(AggExpr::over(AggFunc::Avg, "r"))
                );
                assert_eq!(
                    s.projection[4],
                    SelectItem::Aggregate(AggExpr::over(AggFunc::Expected, "r"))
                );
                assert_eq!(s.group_by, vec!["g".to_string(), "h".to_string()]);
                let having = s.having.clone().unwrap();
                assert_eq!(having.agg, AggExpr::count());
                assert_eq!(having.op, CmpOp::Ge);
                assert_eq!(having.value, Value::Int(2));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_group_by_window() {
        let sql =
            "SELECT COUNT(*), SUM(r) FROM pv GROUP BY WINDOW(t, 3600), room HAVING COUNT(*) >= 2";
        match parse(sql).unwrap() {
            Statement::Select(s) => {
                let w = s.window.unwrap();
                assert_eq!(w.column, "t");
                assert_eq!(w.width, 3600.0);
                assert_eq!(w.origin, None);
                assert_eq!(s.group_by, vec!["room".to_string()]);
                assert!(s.having.is_some());
            }
            other => panic!("wrong statement: {other:?}"),
        }
        // The window may appear anywhere in the GROUP BY list, with a
        // fractional width and a negative origin.
        match parse("SELECT COUNT(*) FROM pv GROUP BY room, WINDOW(t, 0.5, -2.25)").unwrap() {
            Statement::Select(s) => {
                let w = s.window.unwrap();
                assert_eq!(w.width, 0.5);
                assert_eq!(w.origin, Some(-2.25));
                assert_eq!(w.origin(), -2.25);
                assert_eq!(s.group_by, vec!["room".to_string()]);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_tail_of_windowed_select() {
        let sql = "TAIL SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 60)";
        match parse(sql).unwrap() {
            Statement::Tail(s) => {
                let w = s.window.unwrap();
                assert_eq!(w.column, "t");
                assert_eq!(w.width, 60.0);
            }
            other => panic!("wrong statement: {other:?}"),
        }
        // TAIL without a window has no bucket to close on: rejected.
        assert!(parse("TAIL SELECT COUNT(*) FROM pv").is_err());
    }

    #[test]
    fn window_keyword_without_parens_stays_a_column() {
        // Like the aggregate names, `window` is only special when followed
        // by '(' inside GROUP BY.
        match parse("SELECT window, COUNT(*) FROM t GROUP BY window").unwrap() {
            Statement::Select(s) => {
                assert_eq!(s.window, None);
                assert_eq!(s.group_by, vec!["window".to_string()]);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_windows() {
        for bad in [
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 0)", // zero width
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, -5)", // negative
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t)",    // no width
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 1, 2, 3)", // extra arg
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 1), WINDOW(r, 2)", // two windows
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(, 1)",  // no column
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 1e999)", // overflow → inf width
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 1, 1e999)", // overflow → inf origin
        ] {
            assert!(
                matches!(parse(bad), Err(DbError::Parse(_))),
                "should fail: {bad:?}"
            );
        }
    }

    #[test]
    fn bucket_start_uses_floor_semantics() {
        let w = WindowSpec {
            column: "t".into(),
            width: 2.0,
            origin: None,
        };
        assert_eq!(w.bucket_start(3.0), 2.0);
        assert_eq!(w.bucket_start(4.0), 4.0);
        assert_eq!(w.bucket_start(-0.5), -2.0);
        let o = WindowSpec {
            column: "t".into(),
            width: 2.0,
            origin: Some(1.0),
        };
        assert_eq!(o.bucket_start(3.0), 3.0);
        assert_eq!(o.bucket_start(0.5), -1.0);
    }

    #[test]
    fn aggregate_names_without_parens_stay_plain_columns() {
        // `count`, `sum` etc. are only aggregate keywords when followed by
        // '('; otherwise they are ordinary identifiers.
        match parse("SELECT count, sum FROM t WHERE avg = 1").unwrap() {
            Statement::Select(s) => {
                assert_eq!(
                    s.projection,
                    vec![
                        SelectItem::Column("count".into()),
                        SelectItem::Column("sum".into())
                    ]
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_explain() {
        match parse("EXPLAIN SELECT COUNT(*) FROM pv WITH WORLDS 100").unwrap() {
            Statement::Explain(s) => {
                assert_eq!(s.projection, vec![SelectItem::Aggregate(AggExpr::count())]);
                assert!(s.worlds.is_some());
            }
            other => panic!("wrong statement: {other:?}"),
        }
        // Only SELECTs can be explained.
        assert!(matches!(
            parse("EXPLAIN DROP TABLE t"),
            Err(DbError::Parse(_))
        ));
    }

    #[test]
    fn rejects_malformed_aggregates() {
        for bad in [
            "SELECT COUNT(r) FROM t",                    // COUNT takes *
            "SELECT SUM(*) FROM t",                      // SUM takes a column
            "SELECT COUNT(* FROM t",                     // unclosed
            "SELECT SUM() FROM t",                       // missing column
            "SELECT * FROM t GROUP BY",                  // missing columns
            "SELECT COUNT(*) FROM t HAVING x >= 2",      // non-aggregate HAVING lhs
            "SELECT COUNT(*) FROM t HAVING COUNT(*) >=", // missing literal
        ] {
            assert!(
                matches!(parse(bad), Err(DbError::Parse(_))),
                "should fail: {bad:?}"
            );
        }
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("select * from t where x <> 3").is_ok());
        assert!(parse("CREATE table T (a int)").is_ok());
    }

    #[test]
    fn drop_statement() {
        assert_eq!(
            parse("DROP VIEW prob_view").unwrap(),
            Statement::Drop {
                name: "prob_view".into()
            }
        );
        assert_eq!(
            parse("DROP TABLE raw").unwrap(),
            Statement::Drop { name: "raw".into() }
        );
    }

    #[test]
    fn reports_parse_errors() {
        for bad in [
            "",
            "FOO BAR",
            "SELECT FROM t",
            "CREATE TABLE t (a NOPE)",
            "INSERT INTO t VALUES (1", // unterminated tuple
            "SELECT * FROM t WHERE x ! 3",
            "SELECT * FROM t extra",
            "SELECT * FROM t WHERE s = 'unterminated",
        ] {
            assert!(
                matches!(parse(bad), Err(DbError::Parse(_))),
                "should fail: {bad:?}"
            );
        }
    }

    #[test]
    fn scientific_notation_floats() {
        match parse("INSERT INTO t VALUES (1e-3, -2.5E+2)").unwrap() {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0][0], Value::Float(1e-3));
                assert_eq!(rows[0][1], Value::Float(-250.0));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_threshold_top_and_worlds_clauses() {
        let sql = "SELECT room FROM pv WHERE time = 1 THRESHOLD 0.25 TOP 3 \
                   ORDER BY prob DESC LIMIT 2 WITH WORLDS 5000 SEED 42 CONFIDENCE 0.01";
        match parse(sql).unwrap() {
            Statement::Select(s) => {
                assert_eq!(s.threshold, Some(0.25));
                assert_eq!(s.top, Some(3));
                assert_eq!(s.order_by, Some(("prob".into(), false)));
                assert_eq!(s.limit, Some(2));
                assert_eq!(
                    s.worlds,
                    Some(WorldsClause {
                        worlds: 5000,
                        seed: Some(42),
                        confidence: Some(0.01),
                    })
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn worlds_clause_parts_are_optional() {
        match parse("SELECT * FROM pv WITH WORLDS 100").unwrap() {
            Statement::Select(s) => {
                assert_eq!(
                    s.worlds,
                    Some(WorldsClause {
                        worlds: 100,
                        seed: None,
                        confidence: None,
                    })
                );
                assert_eq!(s.threshold, None);
                assert_eq!(s.top, None);
            }
            other => panic!("wrong statement: {other:?}"),
        }
        match parse("SELECT * FROM pv WITH WORLDS 100 SEED 7").unwrap() {
            Statement::Select(s) => {
                assert_eq!(s.worlds.unwrap().seed, Some(7));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_synopsis_clause_parts() {
        match parse("SELECT COUNT(*) FROM pv WITH SYNOPSIS BUCKETS 64 MAXERROR 0.5").unwrap() {
            Statement::Select(s) => {
                assert_eq!(
                    s.synopsis,
                    Some(SynopsisClause {
                        buckets: Some(64),
                        max_error: Some(0.5),
                    })
                );
                assert_eq!(s.worlds, None);
            }
            other => panic!("wrong statement: {other:?}"),
        }
        // Both parts are optional.
        match parse("SELECT COUNT(*) FROM pv WITH SYNOPSIS").unwrap() {
            Statement::Select(s) => {
                assert_eq!(
                    s.synopsis,
                    Some(SynopsisClause {
                        buckets: None,
                        max_error: None,
                    })
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_probabilistic_clauses() {
        for bad in [
            "SELECT * FROM pv THRESHOLD 1.5",
            "SELECT * FROM pv THRESHOLD -0.1",
            "SELECT * FROM pv WITH WORLDS 0",
            "SELECT * FROM pv WITH WORLDS 100 CONFIDENCE 0",
            "SELECT * FROM pv WITH WORLDS 100 CONFIDENCE -0.5",
            "SELECT * FROM pv WITH WORLDS",
            "SELECT * FROM pv WITH TABLES 3",
            "SELECT * FROM pv TOP x",
            "SELECT COUNT(*) FROM pv WITH SYNOPSIS BUCKETS 0",
            "SELECT COUNT(*) FROM pv WITH SYNOPSIS MAXERROR 0",
            "SELECT COUNT(*) FROM pv WITH SYNOPSIS MAXERROR -1.5",
            "SELECT COUNT(*) FROM pv WITH SYNOPSIS BUCKETS",
            // One WITH clause per statement.
            "SELECT COUNT(*) FROM pv WITH WORLDS 100 WITH SYNOPSIS",
            "SELECT COUNT(*) FROM pv WITH SYNOPSIS WITH WORLDS 100",
        ] {
            assert!(
                matches!(parse(bad), Err(DbError::Parse(_))),
                "should fail: {bad:?}"
            );
        }
    }

    #[test]
    fn statements_round_trip_through_display() {
        for sql in [
            "CREATE TABLE raw_values (t INT, r FLOAT, tag TEXT)",
            "INSERT INTO raw_values VALUES (1, 4.2, 'a'), (2, -5.9, 'b')",
            "SELECT room, prob FROM pv WHERE time = 1 AND prob >= 0.25 ORDER BY prob DESC LIMIT 2",
            "SELECT * FROM pv THRESHOLD 0.5 TOP 4 WITH WORLDS 1000 SEED 3 CONFIDENCE 0.05",
            "SELECT COUNT(*) FROM pv WHERE room = 2",
            "SELECT g, COUNT(*), SUM(r) FROM pv GROUP BY g HAVING COUNT(*) >= 2",
            "SELECT COUNT(*), SUM(r) FROM pv GROUP BY WINDOW(t, 3600.0) HAVING COUNT(*) >= 2",
            "SELECT g, COUNT(*) FROM pv GROUP BY WINDOW(t, 0.5, -2.25), g WITH WORLDS 100 SEED 2",
            "SELECT AVG(r), EXPECTED(r) FROM pv GROUP BY g THRESHOLD 0.25 WITH WORLDS 500 SEED 1",
            "EXPLAIN SELECT SUM(r) FROM pv GROUP BY g WITH WORLDS 100",
            "SELECT COUNT(*) FROM pv WITH SYNOPSIS BUCKETS 64 MAXERROR 0.25",
            "SELECT COUNT(*), SUM(r) FROM pv GROUP BY WINDOW(t, 10.0) WITH SYNOPSIS",
            "EXPLAIN SELECT AVG(r) FROM pv THRESHOLD 0.25 WITH SYNOPSIS BUCKETS 32",
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=0.05, n=300 \
             FROM raw WHERE t >= 1 AND t <= 3 USING METRIC arma_garch WINDOW 60",
            "DROP TABLE raw",
        ] {
            let stmt = parse(sql).unwrap();
            let formatted = stmt.to_string();
            let reparsed = parse(&formatted)
                .unwrap_or_else(|e| panic!("{sql:?} formatted to unparseable {formatted:?}: {e}"));
            assert_eq!(reparsed, stmt, "round trip changed {sql:?} → {formatted:?}");
        }
    }
}

#[cfg(test)]
mod roundtrip_props {
    use super::*;
    use proptest::prelude::*;

    const COLS: [&str; 5] = ["t", "room", "lambda", "val", "prob"];
    const TABLES: [&str; 3] = ["pv", "raw_values", "sensor7"];
    const TEXTS: [&str; 3] = ["a", "room b", "x_y"];
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// A literal the formatter round-trips: ints, "nice" finite floats, or
    /// quote-free text.
    fn literal(kind: usize, i: i64) -> Value {
        match kind {
            0 => Value::Int(i),
            1 => Value::Float(i as f64 / 8.0),
            _ => Value::Text(TEXTS[i.unsigned_abs() as usize % TEXTS.len()].to_string()),
        }
    }

    const AGG_FUNCS: [AggFunc; 4] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Expected,
    ];

    /// A projection item: plain column, or an aggregate over one.
    fn item(kind: usize, col: usize) -> SelectItem {
        let func = AGG_FUNCS[kind % AGG_FUNCS.len()];
        if kind == 0 {
            SelectItem::Column(COLS[col].to_string())
        } else if func == AggFunc::Count {
            SelectItem::Aggregate(AggExpr::count())
        } else {
            SelectItem::Aggregate(AggExpr::over(func, COLS[col]))
        }
    }

    fn arb_select() -> impl Strategy<Value = SelectStmt> {
        (
            (
                proptest::collection::vec((0usize..5, 0usize..COLS.len()), 0..4),
                0usize..TABLES.len(),
            ),
            proptest::collection::vec((0usize..COLS.len(), 0usize..6, 0usize..3, -50i64..50), 0..3),
            // GROUP BY columns, HAVING (op index; 0 = none, k) and the
            // window (kind; 0 = none, otherwise column + origin presence,
            // and the width/origin scale).
            (
                proptest::collection::vec(0usize..COLS.len(), 0..3),
                0usize..7,
                0i64..6,
                0usize..(2 * COLS.len() + 1),
                1usize..9,
            ),
            // threshold quarters (0 = none), TOP k (0 = none), ORDER BY
            // (0 = none, then column+direction), LIMIT (0 = none).
            (0usize..6, 0usize..4, 0usize..11, 0usize..4),
            // The WITH clause: WORLDS (presence, n, seed presence, seed,
            // confidence %) and SYNOPSIS (presence, buckets presence,
            // buckets, maxerror eighths; 0 = none). The grammar allows a
            // single WITH clause, so SYNOPSIS is only generated when
            // WORLDS is absent.
            (
                (
                    0usize..2,
                    1usize..5000,
                    0usize..2,
                    0usize..1000,
                    0usize..100,
                ),
                (0usize..2, 0usize..2, 1usize..300, 0usize..40),
            ),
        )
            .prop_map(
                |(
                    (items, table),
                    preds,
                    (groups, having_op, having_k, win, win_scale),
                    clauses,
                    (worlds, syn),
                )| {
                    let mut group_by: Vec<String> =
                        groups.into_iter().map(|c| COLS[c].to_string()).collect();
                    group_by.dedup();
                    SelectStmt {
                        projection: items.into_iter().map(|(k, c)| item(k, c)).collect(),
                        table: TABLES[table].to_string(),
                        predicate: preds
                            .into_iter()
                            .map(|(c, op, kind, i)| Comparison {
                                column: COLS[c].to_string(),
                                op: OPS[op],
                                value: literal(kind, i),
                            })
                            .collect(),
                        window: (win > 0).then(|| WindowSpec {
                            column: COLS[(win - 1) % COLS.len()].to_string(),
                            width: win_scale as f64 / 4.0,
                            origin: (win > COLS.len()).then(|| win_scale as f64 / 2.0 - 1.5),
                        }),
                        group_by,
                        having: (having_op > 0).then(|| HavingClause {
                            agg: AggExpr::count(),
                            op: OPS[having_op - 1],
                            value: Value::Int(having_k),
                        }),
                        threshold: (clauses.0 > 0).then(|| (clauses.0 - 1) as f64 / 4.0),
                        top: (clauses.1 > 0).then(|| clauses.1 - 1),
                        order_by: (clauses.2 > 0)
                            .then(|| (COLS[(clauses.2 - 1) / 2].to_string(), clauses.2 % 2 == 1)),
                        limit: (clauses.3 > 0).then(|| (clauses.3 - 1) * 10),
                        worlds: (worlds.0 > 0).then(|| WorldsClause {
                            worlds: worlds.1,
                            seed: (worlds.2 > 0).then_some(worlds.3 as u64),
                            confidence: (worlds.4 > 0).then(|| worlds.4 as f64 / 100.0),
                        }),
                        synopsis: (worlds.0 == 0 && syn.0 > 0).then(|| SynopsisClause {
                            buckets: (syn.1 > 0).then_some(syn.2),
                            max_error: (syn.3 > 0).then(|| syn.3 as f64 / 8.0),
                        }),
                    }
                },
            )
    }

    proptest! {
        #[test]
        fn select_statements_round_trip(sel in arb_select(), wrap in 0usize..3) {
            // Every SELECT the generator produces must survive
            // parse(format(…)) — and so must its EXPLAIN wrapping and (for
            // windowed statements) its TAIL wrapping.
            let stmt = match wrap {
                1 => Statement::Explain(sel),
                2 if sel.window.is_some() => Statement::Tail(sel),
                _ => Statement::Select(sel),
            };
            let formatted = stmt.to_string();
            let reparsed = parse(&formatted);
            prop_assert!(
                reparsed.is_ok(),
                "formatted SQL failed to parse: {formatted:?} → {reparsed:?}"
            );
            prop_assert_eq!(reparsed.unwrap(), stmt, "round trip via {}", formatted);
        }

        #[test]
        fn density_views_round_trip(
            delta_i in 1usize..40,
            n_half in 1usize..20,
            window in 0usize..100,
            metric in 0usize..3,
            bounds in (0i64..50, 0i64..50),
        ) {
            let spec = DensityViewSpec {
                view_name: "pv".into(),
                value_column: "r".into(),
                time_column: "t".into(),
                delta: delta_i as f64 / 8.0,
                n: n_half * 2,
                source_table: "raw_values".into(),
                predicate: vec![
                    Comparison::new("t", CmpOp::Ge, bounds.0),
                    Comparison::new("t", CmpOp::Le, bounds.0 + bounds.1),
                ],
                metric: (metric > 0).then(|| ["vt", "arma_garch"][metric - 1].to_string()),
                window: (window > 0).then_some(window),
            };
            let stmt = Statement::CreateDensityView(spec);
            let formatted = stmt.to_string();
            prop_assert_eq!(parse(&formatted).unwrap(), stmt, "round trip via {}", formatted);
        }
    }
}
