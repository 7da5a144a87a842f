//! Recursive-descent parser for the XQuery fragment.
//!
//! Produces the surface AST of [`crate::ast`].  Path abbreviations are
//! desugared during parsing: `//n` becomes a `descendant::n` step, `@n`
//! becomes `attribute::n`, a leading `/` roots the path at [`Expr::Root`],
//! and a relative path inside a predicate is rooted at
//! [`Expr::ContextItem`].  `where` clauses are desugared into `if` wrappers
//! around the `return` body (the X Query Core treatment).

use crate::ast::{Expr, GenCmp, Literal};
use crate::lexer::{tokenize, ParseError, Token};
use xqjg_xml::{Axis, NodeTest};

/// Parse a complete XQuery expression.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let expr = p.parse_expr()?;
    p.expect(Token::Eof)?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        self.pos += 1;
        t
    }

    fn expect(&mut self, token: Token) -> Result<(), ParseError> {
        if *self.peek() == token {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {token}, found {}", self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, message)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Name(n) if n == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword '{kw}', found {}", self.peek())))
        }
    }

    // Expr := ExprSingle ("," ExprSingle)*
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_expr_single()?;
        if *self.peek() != Token::Comma {
            return Ok(first);
        }
        let mut items = vec![first];
        while *self.peek() == Token::Comma {
            self.advance();
            items.push(self.parse_expr_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    fn parse_expr_single(&mut self) -> Result<Expr, ParseError> {
        if self.at_keyword("for") || self.at_keyword("let") {
            return self.parse_flwor();
        }
        if self.at_keyword("if") && *self.peek2() == Token::LParen {
            return self.parse_if();
        }
        self.parse_or_expr()
    }

    // FLWOR := (ForClause | LetClause)+ ("where" ExprSingle)? "return" ExprSingle
    fn parse_flwor(&mut self) -> Result<Expr, ParseError> {
        // Each binding is (is_let, var, expr); bindings nest left-to-right.
        let mut bindings: Vec<(bool, String, Expr)> = Vec::new();
        loop {
            if self.eat_keyword("for") {
                loop {
                    let var = self.parse_variable()?;
                    self.expect_keyword("in")?;
                    let seq = self.parse_expr_single()?;
                    bindings.push((false, var, seq));
                    if *self.peek() == Token::Comma && matches!(self.peek2(), Token::Variable(_)) {
                        self.advance();
                        continue;
                    }
                    break;
                }
            } else if self.eat_keyword("let") {
                loop {
                    let var = self.parse_variable()?;
                    self.expect(Token::Assign)?;
                    let value = self.parse_expr_single()?;
                    bindings.push((true, var, value));
                    if *self.peek() == Token::Comma && matches!(self.peek2(), Token::Variable(_)) {
                        self.advance();
                        continue;
                    }
                    break;
                }
            } else {
                break;
            }
        }
        if bindings.is_empty() {
            return Err(self.err("FLWOR expression without for/let clause"));
        }
        let where_cond = if self.eat_keyword("where") {
            Some(self.parse_expr_single()?)
        } else {
            None
        };
        self.expect_keyword("return")?;
        let mut body = self.parse_expr_single()?;
        // where c return e  ≡  return if (c) then e else ()
        if let Some(cond) = where_cond {
            body = Expr::If {
                cond: Box::new(cond),
                then: Box::new(body),
                else_: Box::new(Expr::Empty),
            };
        }
        // Fold bindings from the innermost outwards.
        for (is_let, var, expr) in bindings.into_iter().rev() {
            body = if is_let {
                Expr::Let {
                    var,
                    value: Box::new(expr),
                    body: Box::new(body),
                }
            } else {
                Expr::For {
                    var,
                    seq: Box::new(expr),
                    body: Box::new(body),
                }
            };
        }
        Ok(body)
    }

    fn parse_if(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword("if")?;
        self.expect(Token::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(Token::RParen)?;
        self.expect_keyword("then")?;
        let then = self.parse_expr_single()?;
        self.expect_keyword("else")?;
        let else_ = self.parse_expr_single()?;
        Ok(Expr::If {
            cond: Box::new(cond),
            then: Box::new(then),
            else_: Box::new(else_),
        })
    }

    fn parse_variable(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Token::Variable(v) => Ok(v),
            other => Err(self.err(format!("expected variable, found {other}"))),
        }
    }

    fn parse_or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and_expr()?;
        while self.at_keyword("or") {
            self.advance();
            let rhs = self.parse_and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_comparison_expr()?;
        while self.at_keyword("and") {
            self.advance();
            let rhs = self.parse_comparison_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_comparison_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_path_expr()?;
        let op = match self.peek() {
            Token::Eq => GenCmp::Eq,
            Token::Ne => GenCmp::Ne,
            Token::Lt => GenCmp::Lt,
            Token::Le => GenCmp::Le,
            Token::Gt => GenCmp::Gt,
            Token::Ge => GenCmp::Ge,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.parse_path_expr()?;
        Ok(Expr::Compare {
            lhs: Box::new(lhs),
            op,
            rhs: Box::new(rhs),
        })
    }

    // PathExpr := ("/" RelativePath?) | ("//" RelativePath) | PrimaryPath
    fn parse_path_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Slash => {
                self.advance();
                if self.starts_step() {
                    self.parse_relative_path(Expr::Root, false)
                } else {
                    Ok(Expr::Root)
                }
            }
            Token::DoubleSlash => {
                self.advance();
                self.parse_relative_path(Expr::Root, true)
            }
            _ => {
                let primary = self.parse_primary()?;
                self.parse_path_continuation(primary)
            }
        }
    }

    fn parse_path_continuation(&mut self, mut current: Expr) -> Result<Expr, ParseError> {
        loop {
            match self.peek() {
                Token::Slash => {
                    self.advance();
                    current = self.parse_one_step(current, false)?;
                }
                Token::DoubleSlash => {
                    self.advance();
                    current = self.parse_one_step(current, true)?;
                }
                _ => return Ok(current),
            }
        }
    }

    fn parse_relative_path(&mut self, root: Expr, descendant: bool) -> Result<Expr, ParseError> {
        let first = self.parse_one_step(root, descendant)?;
        self.parse_path_continuation(first)
    }

    fn starts_step(&self) -> bool {
        matches!(
            self.peek(),
            Token::Name(_) | Token::At | Token::Star | Token::Dot | Token::DotDot
        )
    }

    /// Parse one step (axis + node test + predicates) applied to `input`.
    /// `via_double_slash` signals that the step was reached via `//`.
    fn parse_one_step(&mut self, input: Expr, via_double_slash: bool) -> Result<Expr, ParseError> {
        let (axis, test) = self.parse_axis_and_test()?;
        let base = if via_double_slash {
            if axis == Axis::Child {
                // `e//n` with the default child axis is exactly
                // `e/descendant::n` for the predicate-free steps we support.
                Expr::Step {
                    input: Box::new(input),
                    axis: Axis::Descendant,
                    test,
                }
            } else {
                let dos = Expr::Step {
                    input: Box::new(input),
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::AnyKind,
                };
                Expr::Step {
                    input: Box::new(dos),
                    axis,
                    test,
                }
            }
        } else {
            Expr::Step {
                input: Box::new(input),
                axis,
                test,
            }
        };
        self.parse_predicates(base)
    }

    fn parse_axis_and_test(&mut self) -> Result<(Axis, NodeTest), ParseError> {
        match self.peek().clone() {
            Token::At => {
                self.advance();
                match self.advance() {
                    Token::Name(n) => Ok((Axis::Attribute, NodeTest::name(n))),
                    Token::Star => Ok((Axis::Attribute, NodeTest::any_name())),
                    other => Err(self.err(format!("expected attribute name, found {other}"))),
                }
            }
            Token::Star => {
                self.advance();
                Ok((Axis::Child, NodeTest::any_name()))
            }
            Token::Dot => {
                self.advance();
                Ok((Axis::SelfAxis, NodeTest::AnyKind))
            }
            Token::DotDot => {
                self.advance();
                Ok((Axis::Parent, NodeTest::AnyKind))
            }
            Token::Name(name) => {
                // Explicit axis?
                if *self.peek2() == Token::DoubleColon {
                    let axis = Axis::from_name(&name)
                        .ok_or_else(|| self.err(format!("unknown axis {name:?}")))?;
                    self.advance();
                    self.advance();
                    let test = self.parse_node_test(axis)?;
                    Ok((axis, test))
                } else {
                    let test = self.parse_node_test(Axis::Child)?;
                    Ok((Axis::Child, test))
                }
            }
            other => Err(self.err(format!("expected a location step, found {other}"))),
        }
    }

    fn parse_node_test(&mut self, axis: Axis) -> Result<NodeTest, ParseError> {
        match self.advance() {
            Token::Star => Ok(NodeTest::any_name()),
            Token::At => match self.advance() {
                Token::Name(n) => Ok(NodeTest::Attribute(Some(n))),
                Token::Star => Ok(NodeTest::Attribute(None)),
                other => Err(self.err(format!("expected attribute name, found {other}"))),
            },
            Token::Name(n) => {
                if *self.peek() == Token::LParen {
                    // Kind test.
                    self.advance();
                    self.expect(Token::RParen)?;
                    match n.as_str() {
                        "text" => Ok(NodeTest::Text),
                        "node" => Ok(NodeTest::AnyKind),
                        "comment" => Ok(NodeTest::Comment),
                        "processing-instruction" => Ok(NodeTest::Pi),
                        "element" => Ok(NodeTest::Element(None)),
                        "attribute" => Ok(NodeTest::Attribute(None)),
                        "document-node" => Ok(NodeTest::DocumentNode),
                        other => Err(self.err(format!("unknown kind test {other}()"))),
                    }
                } else {
                    let _ = axis;
                    Ok(NodeTest::name(n))
                }
            }
            other => Err(self.err(format!("expected a node test, found {other}"))),
        }
    }

    fn parse_predicates(&mut self, mut input: Expr) -> Result<Expr, ParseError> {
        while *self.peek() == Token::LBracket {
            self.advance();
            let pred = self.parse_expr()?;
            self.expect(Token::RBracket)?;
            input = Expr::Filter {
                input: Box::new(input),
                pred: Box::new(pred),
            };
        }
        Ok(input)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Variable(v) => {
                self.advance();
                let var = Expr::Var(v);
                self.parse_predicates(var)
            }
            Token::StringLit(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::String(s)))
            }
            Token::IntegerLit(i) => {
                self.advance();
                Ok(Expr::Literal(Literal::Integer(i)))
            }
            Token::DecimalLit(d) => {
                self.advance();
                Ok(Expr::Literal(Literal::Decimal(d)))
            }
            Token::LParen => {
                self.advance();
                if *self.peek() == Token::RParen {
                    self.advance();
                    return Ok(Expr::Empty);
                }
                let e = self.parse_expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::DotDot => self.parse_one_step(Expr::ContextItem, false),
            Token::Dot => {
                self.advance();
                let ctx = Expr::ContextItem;
                self.parse_predicates(ctx)
            }
            Token::Name(name) if name == "doc" && *self.peek2() == Token::LParen => {
                self.advance();
                self.advance();
                let uri = match self.advance() {
                    Token::StringLit(s) => s,
                    other => {
                        return Err(
                            self.err(format!("doc() expects a string literal, found {other}"))
                        )
                    }
                };
                self.expect(Token::RParen)?;
                Ok(Expr::Doc(uri))
            }
            Token::Name(name) if name == "data" && *self.peek2() == Token::LParen => {
                // data(e) — atomization is implicit in general comparisons;
                // accept and return the argument unchanged.
                self.advance();
                self.advance();
                let e = self.parse_expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::Name(_) | Token::At | Token::Star => {
                // A relative path: rooted at the context item.
                self.parse_one_step(Expr::ContextItem, false)
            }
            other => Err(self.err(format!("unexpected token {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1() {
        let q = parse(r#"doc("auction.xml")/descendant::open_auction[bidder]"#).unwrap();
        match q {
            Expr::Filter { input, pred } => {
                match *input {
                    Expr::Step { axis, ref test, .. } => {
                        assert_eq!(axis, Axis::Descendant);
                        assert_eq!(*test, NodeTest::name("open_auction"));
                    }
                    ref other => panic!("expected step, got {other:?}"),
                }
                match *pred {
                    Expr::Step {
                        axis, ref input, ..
                    } => {
                        assert_eq!(axis, Axis::Child);
                        assert_eq!(**input, Expr::ContextItem);
                    }
                    ref other => panic!("expected relative step predicate, got {other:?}"),
                }
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn parses_q2_shape() {
        let q2 = r#"
            let $a := doc("auction.xml")
            for $ca in $a//closed_auction[price > 500],
                $i in $a//item,
                $c in $a//category
            where $ca/itemref/@item = $i/@id
              and $i/incategory/@category = $c/@id
            return $c/name
        "#;
        let e = parse(q2).unwrap();
        // Outermost binding is the let.
        match e {
            Expr::Let { var, body, .. } => {
                assert_eq!(var, "a");
                // Next: for $ca
                match *body {
                    Expr::For { ref var, .. } => assert_eq!(var, "ca"),
                    ref other => panic!("expected for, got {other:?}"),
                }
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn parses_absolute_and_double_slash_paths() {
        let q3 = parse(r#"/site/people/person[@id = "person0"]/name/text()"#).unwrap();
        // Outermost is the text() step.
        match q3 {
            Expr::Step { axis, test, .. } => {
                assert_eq!(axis, Axis::Child);
                assert_eq!(test, NodeTest::Text);
            }
            other => panic!("expected step, got {other:?}"),
        }
        let q4 = parse("//closed_auction/price/text()").unwrap();
        // Innermost step must be descendant::closed_auction from Root.
        fn innermost(e: &Expr) -> &Expr {
            match e {
                Expr::Step { input, .. } | Expr::Filter { input, .. } => innermost(input),
                other => other,
            }
        }
        assert_eq!(*innermost(&q4), Expr::Root);
        let q4_first = {
            fn first_step(e: &Expr) -> Option<(&Axis, &NodeTest)> {
                match e {
                    Expr::Step { input, axis, test } => first_step(input).or(Some((axis, test))),
                    Expr::Filter { input, .. } => first_step(input),
                    _ => None,
                }
            }
            first_step(&q4).unwrap()
        };
        assert_eq!(*q4_first.0, Axis::Descendant);
    }

    #[test]
    fn parses_predicate_conjunction() {
        let q5 = parse(r#"/dblp/*[@key = "conf/vldb2001" and editor and title]/title"#).unwrap();
        // Find the filter node and check its predicate is an And chain.
        fn find_filter(e: &Expr) -> Option<&Expr> {
            match e {
                Expr::Filter { pred, .. } => Some(pred),
                Expr::Step { input, .. } => find_filter(input),
                _ => None,
            }
        }
        let pred = find_filter(&q5).expect("filter present");
        assert!(matches!(pred, Expr::And(_, _)));
    }

    #[test]
    fn parses_sequence_return() {
        let q6 = parse(
            r#"for $t in /dblp/phdthesis[year < "1994" and author and title]
               return $t/title, $t/author, $t/year"#,
        )
        .unwrap();
        // Comma binds looser than `return`, so this parses as a top-level
        // sequence whose first item is the FLWOR (XQuery's actual grammar);
        // the harness uses parentheses when the whole sequence should be
        // inside the loop.
        assert!(matches!(q6, Expr::Sequence(ref items) if items.len() == 3));
        let q6b = parse(
            r#"for $t in /dblp/phdthesis[year < "1994" and author and title]
               return ($t/title, $t/author, $t/year)"#,
        )
        .unwrap();
        match q6b {
            Expr::For { body, .. } => {
                assert!(matches!(*body, Expr::Sequence(ref i) if i.len() == 3))
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_then_else_empty() {
        let e = parse("if ($x/bidder) then $x else ()").unwrap();
        match e {
            Expr::If { else_, .. } => assert_eq!(*else_, Expr::Empty),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn dot_dot_abbreviates_the_parent_step() {
        assert_eq!(
            parse("$x/../name").unwrap(),
            parse("$x/parent::node()/name").unwrap()
        );
        assert_eq!(
            parse("$x/a[../@id]").unwrap(),
            parse("$x/a[./parent::node()/@id]").unwrap()
        );
    }

    #[test]
    fn parses_explicit_axes() {
        let e = parse("$x/ancestor::open_auction/parent::node()").unwrap();
        match e {
            Expr::Step { axis, test, input } => {
                assert_eq!(axis, Axis::Parent);
                assert_eq!(test, NodeTest::AnyKind);
                match *input {
                    Expr::Step { axis, .. } => assert_eq!(axis, Axis::Ancestor),
                    other => panic!("expected step, got {other:?}"),
                }
            }
            other => panic!("expected step, got {other:?}"),
        }
    }

    #[test]
    fn parses_attribute_abbreviation() {
        let e = parse("$i/@id").unwrap();
        match e {
            Expr::Step { axis, test, .. } => {
                assert_eq!(axis, Axis::Attribute);
                assert_eq!(test, NodeTest::name("id"));
            }
            other => panic!("expected attribute step, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("for $x in").is_err());
        assert!(parse("doc(42)").is_err());
        assert!(parse("$x/unknown::y").is_err());
        assert!(parse("if ($x then 1 else 2").is_err());
        assert!(parse("$x [").is_err());
    }

    #[test]
    fn keyword_names_usable_as_element_names() {
        // `item` and `name` are ordinary element names even though they look
        // like common identifiers.
        let e = parse("$a/item/name").unwrap();
        match e {
            Expr::Step { test, .. } => assert_eq!(test, NodeTest::name("name")),
            other => panic!("expected step, got {other:?}"),
        }
    }

    #[test]
    fn data_call_is_transparent() {
        let e = parse("data($x/@id) = \"person0\"").unwrap();
        assert!(matches!(e, Expr::Compare { .. }));
    }

    #[test]
    fn multiple_for_bindings_nest() {
        let e = parse("for $a in doc(\"d\")/a, $b in doc(\"d\")/b return $b").unwrap();
        match e {
            Expr::For { var, body, .. } => {
                assert_eq!(var, "a");
                assert!(matches!(*body, Expr::For { ref var, .. } if var == "b"));
            }
            other => panic!("expected nested for, got {other:?}"),
        }
    }
}
