//! Recursive-descent parser for Fuzzy SQL: every statement form is parsed on
//! one token cursor, over the tokens of one `tokenize` call.
//!
//! Grammar (conjunctive WHERE, per the paper's Section 2.2 assumption).
//! Reserved words and statement words match case-insensitively; every
//! statement ends at the end of its input.
//!
//! ```text
//! statement := query
//!            | EXPLAIN [ANALYZE | VERIFY] query
//!            | CREATE TABLE ident '(' coldef (',' coldef)* ')'
//!            | DEFINE TERM string AS fuzzy
//!            | INSERT INTO ident VALUES '(' value (',' value)* ')' [WITH D '=' number]
//!            | DELETE FROM ident [where] [with]
//!            | UPDATE ident SET col '=' value (',' col '=' value)* [where] [with]
//!            | ANALYZE [ident]
//! coldef    := ident (TEXT | NUMBER) [KEY]          -- at most one KEY
//! query     := SELECT [DISTINCT] item (',' item)* FROM table (',' table)*
//!              [where] [GROUP BY col (',' col)*] [HAVING hpred (AND hpred)*]
//!              [with] [ORDER BY col [ASC | DESC]] [LIMIT integer]
//! where     := WHERE pred (AND pred)*
//! with      := WITH D ('>' | '>=') number           -- number in [0, 1]
//! item      := col | AGG '(' col ')' | COUNT '(' '*' ')' | MIN '(' D ')'
//! table     := ident [[AS] ident]
//! pred      := operand cmp operand
//!            | operand '~' operand WITHIN number    -- tolerance > 0
//!            | operand cmp (ALL | SOME | ANY) '(' query ')'
//!            | operand cmp '(' query ')'
//!            | operand [IS] [NOT] IN '(' query ')'
//!            | [NOT] EXISTS '(' query ')'
//! hpred     := hoperand cmp hoperand
//! hoperand  := AGG '(' col ')' | COUNT '(' '*' ')' | col | number | string
//! operand   := col | number | string | fuzzy
//! value     := number | string | fuzzy              -- an operand that is no column
//! fuzzy     := TRAP '(' a, b, c, d ')' | TRI '(' a, b, c ')' | ABOUT '(' v, w ')'
//! col       := ident ['.' ident]                    -- unqualified D: the degree
//! cmp       := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
//! ```
//!
//! A string is a linguistic term (or a text value); AGG is `COUNT`, `SUM`,
//! `AVG`, `MIN` or `MAX`.

use crate::ast::{
    AggFunc, ColumnRef, HavingOperand, HavingPredicate, Operand, OrderBy, OrderKey, Predicate,
    Quantifier, Query, SelectItem, TableRef, Threshold,
};
use crate::error::{ParseError, Result};
use crate::lexer::tokenize;
use crate::statement::{ColumnDef, ExplainMode, Statement};
use crate::token::{Token, TokenKind};
use fuzzy_core::CmpOp;

/// Parses one Fuzzy SQL SELECT statement.
pub fn parse(src: &str) -> Result<Query> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// A cursor over the tokens of one statement.
pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// The fuzzy literal forms and how many numbers each takes.
const FUZZY_LITERALS: [(&str, usize); 3] = [("TRAP", 4), ("TRI", 3), ("ABOUT", 2)];

impl Parser {
    /// Tokenizes `src`, the only lexing pass a statement gets.
    pub(crate) fn new(src: &str) -> Result<Parser> {
        Ok(Parser { tokens: tokenize(src)?, pos: 0 })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(ParseError::at(self.offset(), message))
    }

    /// Consumes `word` (uppercase) if it is next: a reserved keyword or an
    /// identifier spelt the same in any case (`TABLE`, `VALUES`, `D`, …).
    fn eat_word(&mut self, word: &str) -> bool {
        let hit = match self.peek() {
            TokenKind::Keyword(w) | TokenKind::Ident(w) => w.eq_ignore_ascii_case(word),
            _ => false,
        };
        if hit {
            self.bump();
        }
        hit
    }

    fn expect_word(&mut self, word: &str) -> Result<()> {
        if self.eat_word(word) {
            Ok(())
        } else {
            self.error(format!("expected {word}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            self.error(format!("expected {kind}, found {}", self.peek()))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            self.error(format!("unexpected trailing input: {}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.error(format!("expected an identifier, found {other}")),
        }
    }

    /// A numeric literal; `what` names it in the error.
    fn number(&mut self, what: &str) -> Result<f64> {
        match *self.peek() {
            TokenKind::Number(n) => {
                self.bump();
                Ok(n)
            }
            ref other => self.error(format!("expected {what}, found {other}")),
        }
    }

    /// `item (',' item)*`.
    fn commas<T>(&mut self, item: fn(&mut Parser) -> Result<T>) -> Result<Vec<T>> {
        let mut items = vec![item(self)?];
        while self.eat(&TokenKind::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// `item (AND item)*`.
    fn conjunction<T>(&mut self, item: fn(&mut Parser) -> Result<T>) -> Result<Vec<T>> {
        let mut items = vec![item(self)?];
        while self.eat_word("AND") {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// `statement`, through the end of input.
    pub(crate) fn statement(&mut self) -> Result<Statement> {
        let stmt = if matches!(self.peek(), TokenKind::Keyword(k) if k == "SELECT") {
            Statement::Select(self.query()?)
        } else if self.eat_word("EXPLAIN") {
            let mode = if self.eat_word("ANALYZE") {
                ExplainMode::Analyze
            } else if self.eat_word("VERIFY") {
                ExplainMode::Verify
            } else {
                ExplainMode::Plan
            };
            Statement::Explain { mode, query: self.query()? }
        } else if self.eat_word("CREATE") {
            self.create_table()?
        } else if self.eat_word("DEFINE") {
            self.expect_word("TERM")?;
            let name = match self.peek().clone() {
                TokenKind::Str(s) => s,
                other => return self.error(format!("expected a quoted term name, found {other}")),
            };
            self.bump();
            self.expect_word("AS")?;
            Statement::DefineTerm { name, shape: self.fuzzy_literal()? }
        } else if self.eat_word("INSERT") {
            self.insert()?
        } else if self.eat_word("DELETE") {
            self.expect_word("FROM")?;
            let table = self.ident()?;
            let (predicates, threshold) = (self.where_clause()?, self.with_clause()?);
            Statement::Delete { table, predicates, threshold }
        } else if self.eat_word("UPDATE") {
            let table = self.ident()?;
            self.expect_word("SET")?;
            let assignments = self.commas(|p| {
                let col = p.column_ref()?;
                p.expect(TokenKind::Eq)?;
                Ok((col, p.value()?))
            })?;
            let (predicates, threshold) = (self.where_clause()?, self.with_clause()?);
            Statement::Update { table, assignments, predicates, threshold }
        } else if self.eat_word("ANALYZE") {
            let table =
                if matches!(self.peek(), TokenKind::Eof) { None } else { Some(self.ident()?) };
            Statement::Analyze { table }
        } else {
            return self.error(
                "expected SELECT, CREATE TABLE, DEFINE TERM, INSERT, DELETE, UPDATE, ANALYZE, \
                 or EXPLAIN",
            );
        };
        self.expect_eof()?;
        Ok(stmt)
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_word("TABLE")?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let columns = self.commas(|p| {
            let name = p.ident()?;
            let is_text = if p.eat_word("TEXT") {
                true
            } else if p.eat_word("NUMBER") {
                false
            } else {
                return p.error(format!("expected TEXT or NUMBER after column {name}"));
            };
            Ok(ColumnDef { name, is_text, key: p.eat_word("KEY") })
        })?;
        self.expect(TokenKind::RParen)?;
        if columns.iter().filter(|c| c.key).count() > 1 {
            return Err(ParseError::at(0, "at most one KEY column"));
        }
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_word("INTO")?;
        let table = self.ident()?;
        self.expect_word("VALUES")?;
        self.expect(TokenKind::LParen)?;
        let values = self.commas(Parser::value)?;
        self.expect(TokenKind::RParen)?;
        let mut degree = 1.0;
        if self.eat_word("WITH") {
            self.expect_word("D")?;
            self.expect(TokenKind::Eq)?;
            let at = self.offset();
            degree = self.number("a degree number")?;
            if !(0.0..=1.0).contains(&degree) {
                return Err(ParseError::at(at, format!("degree {degree} outside [0, 1]")));
            }
        }
        Ok(Statement::Insert { table, values, degree })
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_word("SELECT")?;
        let distinct = self.eat_word("DISTINCT");
        let select = self.commas(Parser::select_item)?;
        self.expect_word("FROM")?;
        let from = self.commas(Parser::table_ref)?;
        let predicates = self.where_clause()?;
        let group_by = if self.eat_word("GROUP") {
            self.expect_word("BY")?;
            self.commas(Parser::column_ref)?
        } else {
            Vec::new()
        };
        let having = if self.eat_word("HAVING") {
            self.conjunction(Parser::having_predicate)?
        } else {
            Vec::new()
        };
        let with_threshold = self.with_clause()?;
        let order_by = if self.eat_word("ORDER") {
            self.expect_word("BY")?;
            let col = self.column_ref()?;
            let key = if col.is_degree() && col.table.is_none() {
                OrderKey::Degree
            } else {
                OrderKey::Column(col)
            };
            let descending = if self.eat_word("DESC") {
                true
            } else {
                let _ = self.eat_word("ASC");
                false
            };
            Some(OrderBy { key, descending })
        } else {
            None
        };
        let limit = if self.eat_word("LIMIT") {
            let at = self.offset();
            match self.number("a non-negative integer after LIMIT")? {
                n if n >= 0.0 && n.fract() == 0.0 => Some(n as usize),
                n => {
                    return Err(ParseError::at(
                        at,
                        format!("expected a non-negative integer after LIMIT, found {n}"),
                    ))
                }
            }
        } else {
            None
        };
        Ok(Query {
            distinct,
            select,
            from,
            predicates,
            group_by,
            having,
            with_threshold,
            order_by,
            limit,
        })
    }

    /// `[WHERE pred (AND pred)*]`: a SELECT's, DELETE's or UPDATE's matching
    /// conjunction (empty when absent).
    fn where_clause(&mut self) -> Result<Vec<Predicate>> {
        if self.eat_word("WHERE") {
            self.conjunction(Parser::predicate)
        } else {
            Ok(Vec::new())
        }
    }

    /// `[WITH D ('>' | '>=') z]`, z in [0, 1]: a SELECT's, DELETE's or
    /// UPDATE's threshold.
    fn with_clause(&mut self) -> Result<Option<Threshold>> {
        if !self.eat_word("WITH") {
            return Ok(None);
        }
        let at = self.offset();
        let col = self.column_ref()?;
        if !col.is_degree() {
            return Err(ParseError::at(
                at,
                format!("WITH clause must threshold the degree attribute D, found {col}"),
            ));
        }
        let strict = match self.peek() {
            TokenKind::Gt => true,
            TokenKind::Ge => false,
            other => return self.error(format!("expected > or >= after WITH D, found {other}")),
        };
        self.bump();
        let at = self.offset();
        let z = self.number("a threshold number")?;
        if !(0.0..=1.0).contains(&z) {
            return Err(ParseError::at(at, format!("WITH threshold {z} outside [0, 1]")));
        }
        Ok(Some(Threshold { z, strict }))
    }

    /// `AGG '(' col ')'` or `COUNT '(' '*' ')'` (column `None`) if one is
    /// next; `None` consumes nothing.
    fn aggregate(&mut self) -> Result<Option<(AggFunc, Option<ColumnRef>)>> {
        let agg = match self.peek() {
            TokenKind::Ident(name) if matches!(self.peek2(), TokenKind::LParen) => {
                AggFunc::from_name(name)
            }
            _ => None,
        };
        let Some(agg) = agg else { return Ok(None) };
        self.bump(); // name
        self.bump(); // (
        if agg == AggFunc::Count && self.eat(&TokenKind::Star) {
            self.expect(TokenKind::RParen)?;
            return Ok(Some((agg, None)));
        }
        let col = self.column_ref()?;
        self.expect(TokenKind::RParen)?;
        Ok(Some((agg, Some(col))))
    }

    fn having_operand(&mut self) -> Result<HavingOperand> {
        match self.aggregate()? {
            Some((agg, Some(col))) => return Ok(HavingOperand::Aggregate(agg, col)),
            Some((_, None)) => return Ok(HavingOperand::CountStar),
            None => {}
        }
        Ok(match self.operand()? {
            Operand::Column(c) => HavingOperand::Column(c),
            Operand::Number(n) => HavingOperand::Number(n),
            Operand::Term(t) => HavingOperand::Term(t),
            Operand::FuzzyLiteral(..) => {
                return self
                    .error("fuzzy literals are not supported in HAVING; define a term instead")
            }
        })
    }

    fn having_predicate(&mut self) -> Result<HavingPredicate> {
        let lhs = self.having_operand()?;
        let op = self.cmp_op()?;
        let rhs = self.having_operand()?;
        Ok(HavingPredicate { lhs, op, rhs })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        Ok(match self.aggregate()? {
            Some((AggFunc::Min, Some(col))) if col.is_degree() => SelectItem::MinDegree,
            Some((agg, Some(col))) => SelectItem::Aggregate(agg, col),
            Some((_, None)) => SelectItem::CountStar,
            None => SelectItem::Column(self.column_ref()?),
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident()?;
        let _ = self.eat_word("AS");
        let alias = match self.peek() {
            TokenKind::Ident(_) => Some(self.ident()?),
            _ => None,
        };
        Ok(TableRef { table, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if self.eat(&TokenKind::Dot) {
            let column = self.ident()?;
            Ok(ColumnRef { table: Some(first), column })
        } else {
            Ok(ColumnRef { table: None, column: first })
        }
    }

    fn operand(&mut self) -> Result<Operand> {
        match self.peek().clone() {
            TokenKind::Number(v) => {
                self.bump();
                Ok(Operand::Number(v))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Operand::Term(s))
            }
            TokenKind::Ident(_) if self.fuzzy_arity().is_some() => {
                let (a, b, c, d) = self.fuzzy_literal()?;
                Ok(Operand::FuzzyLiteral(a, b, c, d))
            }
            TokenKind::Ident(_) => Ok(Operand::Column(self.column_ref()?)),
            other => {
                self.error(format!("expected a column, number, or quoted term, found {other}"))
            }
        }
    }

    /// An INSERT or UPDATE value: an operand that is not a column.
    fn value(&mut self) -> Result<Operand> {
        let at = self.offset();
        match self.operand()? {
            Operand::Column(c) => Err(ParseError::at(
                at,
                format!(
                    "expected a value (number, quoted text/term, or TRAP/TRI/ABOUT), found {c}"
                ),
            )),
            v => Ok(v),
        }
    }

    /// The name and arity of the fuzzy literal that starts here, if one does.
    fn fuzzy_arity(&self) -> Option<(&'static str, usize)> {
        match (self.peek(), self.peek2()) {
            (TokenKind::Ident(w), TokenKind::LParen) => {
                FUZZY_LITERALS.into_iter().find(|(k, _)| w.eq_ignore_ascii_case(k))
            }
            _ => None,
        }
    }

    /// `TRAP(a, b, c, d)`, `TRI(a, b, c)` or `ABOUT(v, w)`, as the trapezoid
    /// `(a, b, c, d)` it denotes.
    fn fuzzy_literal(&mut self) -> Result<(f64, f64, f64, f64)> {
        let Some((kind, arity)) = self.fuzzy_arity() else {
            return self
                .error(format!("expected TRAP(…), TRI(…), or ABOUT(…), found {}", self.peek()));
        };
        self.bump(); // name
        self.bump(); // (
        let mut nums = vec![self.number("a number")?];
        while self.eat(&TokenKind::Comma) {
            nums.push(self.number("a number")?);
        }
        let shape = match nums[..] {
            [a, b, c, d] if arity == 4 => (a, b, c, d),
            [a, b, c] if arity == 3 => (a, b, b, c),
            [v, w] if arity == 2 => (v - w, v, v, v + w),
            _ => return self.error(format!("{kind}(…) takes {arity} numbers, got {}", nums.len())),
        };
        self.expect(TokenKind::RParen)?;
        Ok(shape)
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        let op = match self.peek() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => return self.error(format!("expected a comparison operator, found {other}")),
        };
        self.bump();
        Ok(op)
    }

    /// `'(' query ')'`.
    fn subquery(&mut self) -> Result<Box<Query>> {
        self.expect(TokenKind::LParen)?;
        let query = Box::new(self.query()?);
        self.expect(TokenKind::RParen)?;
        Ok(query)
    }

    fn predicate(&mut self) -> Result<Predicate> {
        // [NOT] EXISTS ( query )
        if self.eat_word("EXISTS") {
            return Ok(Predicate::Exists { negated: false, query: self.subquery()? });
        }
        if matches!(self.peek(), TokenKind::Keyword(k) if k == "NOT")
            && matches!(self.peek2(), TokenKind::Keyword(k) if k == "EXISTS")
        {
            self.bump();
            self.bump();
            return Ok(Predicate::Exists { negated: true, query: self.subquery()? });
        }
        let lhs = self.operand()?;
        // [IS] [NOT] IN ( query )
        let had_is = self.eat_word("IS");
        let negated = self.eat_word("NOT");
        if self.eat_word("IN") {
            return Ok(Predicate::In { lhs, negated, query: self.subquery()? });
        }
        if had_is || negated {
            return self.error(format!("expected IN after IS/NOT, found {}", self.peek()));
        }
        // Similarity: X ~ Y WITHIN t.
        if self.eat(&TokenKind::Tilde) {
            let rhs = self.operand()?;
            self.expect_word("WITHIN")?;
            let at = self.offset();
            let tolerance = self.number("a tolerance number after WITHIN")?;
            if tolerance <= 0.0 {
                return Err(ParseError::at(
                    at,
                    format!("similarity tolerance must be positive, got {tolerance}"),
                ));
            }
            return Ok(Predicate::Similar { lhs, rhs, tolerance });
        }
        let op = self.cmp_op()?;
        // Quantified: op ALL/SOME/ANY ( query )
        for (kw, quantifier) in
            [("ALL", Quantifier::All), ("SOME", Quantifier::Some), ("ANY", Quantifier::Some)]
        {
            if self.eat_word(kw) {
                return Ok(Predicate::Quantified { lhs, op, quantifier, query: self.subquery()? });
            }
        }
        // Aggregate sub-query: op ( SELECT … )
        if matches!(self.peek(), TokenKind::LParen)
            && matches!(self.peek2(), TokenKind::Keyword(k) if k == "SELECT")
        {
            return Ok(Predicate::AggSubquery { lhs, op, query: self.subquery()? });
        }
        let rhs = self.operand()?;
        Ok(Predicate::Compare { lhs, op, rhs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_1() {
        let q = parse(
            "SELECT F.NAME, M.NAME FROM F, M \
             WHERE F.AGE = M.AGE AND M.INCOME > 'medium high'",
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.depth(), 1);
        match &q.predicates[1] {
            Predicate::Compare { op, rhs, .. } => {
                assert_eq!(*op, CmpOp::Gt);
                assert_eq!(*rhs, Operand::Term("medium high".into()));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn parses_paper_query_2_nested_in() {
        let q = parse(
            "SELECT F.NAME FROM F \
             WHERE F.AGE = 'medium young' AND F.INCOME IN \
             (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')",
        )
        .unwrap();
        assert_eq!(q.depth(), 2);
        match &q.predicates[1] {
            Predicate::In { negated, query, .. } => {
                assert!(!negated);
                assert_eq!(query.from[0].table, "M");
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn parses_is_in_and_is_not_in() {
        let q = parse("SELECT R.X FROM R WHERE R.Y IS IN (SELECT S.Z FROM S)").unwrap();
        assert!(matches!(&q.predicates[0], Predicate::In { negated: false, .. }));
        let q = parse(
            "SELECT R.NAME FROM EMP_SALES R WHERE R.INCOME IS NOT IN \
             (SELECT S.INCOME FROM EMP_RESEARCH S WHERE S.AGE = R.AGE)",
        )
        .unwrap();
        assert!(matches!(&q.predicates[0], Predicate::In { negated: true, .. }));
        assert_eq!(q.from[0].alias.as_deref(), Some("R"));
    }

    #[test]
    fn parses_paper_query_5_aggregate() {
        let q = parse(
            "SELECT R.NAME FROM CITIES_REGION_A R \
             WHERE R.AVE_HOME_INCOME > \
             (SELECT MAX(S.AVE_HOME_INCOME) FROM CITIES_REGION_B S \
              WHERE S.POPULATION = R.POPULATION)",
        )
        .unwrap();
        match &q.predicates[0] {
            Predicate::AggSubquery { op, query, .. } => {
                assert_eq!(*op, CmpOp::Gt);
                assert!(matches!(query.select[0], SelectItem::Aggregate(AggFunc::Max, _)));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn parses_quantifiers() {
        for (kw, quant) in
            [("ALL", Quantifier::All), ("SOME", Quantifier::Some), ("ANY", Quantifier::Some)]
        {
            let q = parse(&format!(
                "SELECT R.X FROM R WHERE R.Y < {kw} (SELECT S.Z FROM S WHERE S.V = R.U)"
            ))
            .unwrap();
            match &q.predicates[0] {
                Predicate::Quantified { quantifier, op, .. } => {
                    assert_eq!(*quantifier, quant);
                    assert_eq!(*op, CmpOp::Lt);
                }
                other => panic!("unexpected predicate {other:?}"),
            }
        }
    }

    #[test]
    fn parses_exists() {
        let q =
            parse("SELECT R.X FROM R WHERE EXISTS (SELECT S.Z FROM S WHERE S.V = R.U)").unwrap();
        assert!(matches!(&q.predicates[0], Predicate::Exists { negated: false, .. }));
        let q = parse("SELECT R.X FROM R WHERE NOT EXISTS (SELECT S.Z FROM S)").unwrap();
        assert!(matches!(&q.predicates[0], Predicate::Exists { negated: true, .. }));
    }

    #[test]
    fn parses_with_group_by_and_aggregates() {
        let q = parse(
            "SELECT R.K, R.X, MIN(D) FROM R, S \
             WHERE R.Y = S.Z GROUP BY R.K WITH D >= 0",
        )
        .unwrap();
        assert!(matches!(q.select[2], SelectItem::MinDegree));
        assert_eq!(q.group_by, vec![ColumnRef::qualified("R", "K")]);
        let th = q.with_threshold.unwrap();
        assert!(!th.strict);
        assert_eq!(th.z, 0.0);
    }

    #[test]
    fn parses_with_threshold_strict() {
        let q = parse("SELECT R.X FROM R WITH D > 0.5").unwrap();
        let th = q.with_threshold.unwrap();
        assert!(th.strict);
        assert_eq!(th.z, 0.5);
        // Out-of-range thresholds rejected.
        assert!(parse("SELECT R.X FROM R WITH D > 1.5").is_err());
        // Non-degree columns rejected.
        assert!(parse("SELECT R.X FROM R WITH R.X > 0.5").is_err());
    }

    #[test]
    fn parses_count_star_and_distinct() {
        let q = parse("SELECT DISTINCT COUNT(*) FROM R").unwrap();
        assert!(q.distinct);
        assert!(matches!(q.select[0], SelectItem::CountStar));
    }

    #[test]
    fn parses_three_level_chain() {
        let q = parse(
            "SELECT R1.X1 FROM R1 WHERE R1.Y1 IN \
             (SELECT R2.X2 FROM R2 WHERE R2.U2 = R1.U1 AND R2.X2 IN \
              (SELECT R3.X3 FROM R3 WHERE R3.V3 = R2.V2 AND R3.W3 = R1.W1))",
        )
        .unwrap();
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn error_positions_and_messages() {
        let err = parse("SELECT FROM R").unwrap_err();
        assert!(err.to_string().contains("identifier"));
        let err = parse("SELECT R.X R").unwrap_err();
        assert!(err.to_string().contains("expected FROM"));
        let err = parse("SELECT R.X FROM R WHERE R.Y IS 5").unwrap_err();
        assert!(err.to_string().contains("IN"));
        let err = parse("SELECT R.X FROM R extra garbage()").unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn mixed_literal_operands() {
        let q = parse("SELECT R.X FROM R WHERE R.AGE >= 21 AND R.NAME = 'Ann'").unwrap();
        assert!(matches!(
            &q.predicates[0],
            Predicate::Compare { rhs: Operand::Number(v), .. } if *v == 21.0
        ));
        assert!(matches!(
            &q.predicates[1],
            Predicate::Compare { rhs: Operand::Term(t), .. } if t == "Ann"
        ));
    }
}

#[cfg(test)]
mod similar_tests {
    use super::*;

    #[test]
    fn parses_similarity_predicates() {
        let q = parse("SELECT R.X FROM R WHERE R.AGE ~ 30 WITHIN 5").unwrap();
        match &q.predicates[0] {
            Predicate::Similar { rhs, tolerance, .. } => {
                assert_eq!(*rhs, Operand::Number(30.0));
                assert_eq!(*tolerance, 5.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Column-to-column similarity with a nested query around it.
        let q = parse(
            "SELECT R.X FROM R WHERE R.AGE ~ R.RETIREMENT_AGE WITHIN 2.5 AND R.Y IN \
             (SELECT S.Y FROM S WHERE S.V ~ R.U WITHIN 1)",
        )
        .unwrap();
        assert_eq!(q.predicates.len(), 2);
        // Round-trips through Display.
        let q2 = parse(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn similarity_errors() {
        assert!(parse("SELECT R.X FROM R WHERE R.AGE ~ 30").is_err(), "missing WITHIN");
        assert!(parse("SELECT R.X FROM R WHERE R.AGE ~ 30 WITHIN 0").is_err(), "zero tolerance");
        assert!(parse("SELECT R.X FROM R WHERE R.AGE ~ 30 WITHIN -1").is_err());
        assert!(parse("SELECT R.X FROM R WHERE R.AGE ~ 30 WITHIN abc").is_err());
    }

    #[test]
    fn similarity_does_not_change_classification() {
        use crate::classify::{classify, QueryClass};
        let q = parse(
            "SELECT R.X FROM R WHERE R.AGE ~ 30 WITHIN 5 AND R.Y IN \
             (SELECT S.Y FROM S WHERE S.U = R.U)",
        )
        .unwrap();
        assert_eq!(classify(&q), QueryClass::TypeJ);
    }
}

#[cfg(test)]
mod extended_clause_tests {
    use super::*;
    use crate::ast::{HavingOperand, OrderKey};

    #[test]
    fn parses_having() {
        let q = parse(
            "SELECT R.REGION FROM R GROUP BY R.REGION \
             HAVING COUNT(*) > 2 AND AVG(R.AMOUNT) >= 10",
        )
        .unwrap();
        assert_eq!(q.having.len(), 2);
        assert!(matches!(q.having[0].lhs, HavingOperand::CountStar));
        assert!(matches!(q.having[1].lhs, HavingOperand::Aggregate(AggFunc::Avg, _)));
        assert!(matches!(q.having[1].rhs, HavingOperand::Number(n) if n == 10.0));
    }

    #[test]
    fn parses_order_by_and_limit() {
        let q = parse("SELECT R.X FROM R ORDER BY D DESC LIMIT 5").unwrap();
        let o = q.order_by.as_ref().unwrap();
        assert_eq!(o.key, OrderKey::Degree);
        assert!(o.descending);
        assert_eq!(q.limit, Some(5));

        let q = parse("SELECT R.X FROM R ORDER BY R.X ASC").unwrap();
        let o = q.order_by.as_ref().unwrap();
        assert!(matches!(&o.key, OrderKey::Column(c) if c.column == "X"));
        assert!(!o.descending);
        assert_eq!(q.limit, None);

        // R.D qualified is a column named D of R, not the degree pseudo-key.
        let q = parse("SELECT R.X FROM R ORDER BY R.D").unwrap();
        assert!(matches!(&q.order_by.as_ref().unwrap().key, OrderKey::Column(_)));
    }

    #[test]
    fn limit_validation() {
        assert!(parse("SELECT R.X FROM R LIMIT -1").is_err());
        assert!(parse("SELECT R.X FROM R LIMIT 1.5").is_err());
        assert!(parse("SELECT R.X FROM R LIMIT abc").is_err());
        assert_eq!(parse("SELECT R.X FROM R LIMIT 0").unwrap().limit, Some(0));
    }

    #[test]
    fn clause_order_is_enforced() {
        // WITH comes before ORDER BY; the reverse fails as trailing input.
        assert!(parse("SELECT R.X FROM R WITH D > 0.5 ORDER BY D").is_ok());
        assert!(parse("SELECT R.X FROM R ORDER BY D WITH D > 0.5").is_err());
    }
}
