//! Tokenizer for the XQuery fragment.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A QName / keyword candidate.
    Name(String),
    /// `$name`
    Variable(String),
    /// A string literal (quotes stripped, entities not interpreted).
    StringLit(String),
    /// An integer literal.
    IntegerLit(i64),
    /// A decimal literal.
    DecimalLit(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `@`
    At,
    /// `::`
    DoubleColon,
    /// `:=`
    Assign,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `..` (abbreviated `parent::node()`)
    DotDot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Name(n) => write!(f, "{n}"),
            Token::Variable(v) => write!(f, "${v}"),
            Token::StringLit(s) => write!(f, "\"{s}\""),
            Token::IntegerLit(i) => write!(f, "{i}"),
            Token::DecimalLit(d) => write!(f, "{d}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Slash => write!(f, "/"),
            Token::DoubleSlash => write!(f, "//"),
            Token::At => write!(f, "@"),
            Token::DoubleColon => write!(f, "::"),
            Token::Assign => write!(f, ":="),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::DotDot => write!(f, ".."),
            Token::Star => write!(f, "*"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A lexical or syntactic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset (lexer) or token index (parser) of the error.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl ParseError {
    /// Create an error.
    pub fn new(position: usize, message: impl Into<String>) -> Self {
        ParseError {
            position,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XQuery parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Tokenize an XQuery string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let c = bytes[pos] as char;
        match c {
            c if c.is_whitespace() => pos += 1,
            '(' => {
                // XQuery comments: (: ... :)
                if bytes.get(pos + 1) == Some(&b':') {
                    let mut depth = 1;
                    let mut i = pos + 2;
                    while i + 1 < bytes.len() && depth > 0 {
                        if bytes[i] == b'(' && bytes[i + 1] == b':' {
                            depth += 1;
                            i += 2;
                        } else if bytes[i] == b':' && bytes[i + 1] == b')' {
                            depth -= 1;
                            i += 2;
                        } else {
                            i += 1;
                        }
                    }
                    if depth > 0 {
                        return Err(ParseError::new(pos, "unterminated comment"));
                    }
                    pos = i;
                } else {
                    out.push(Token::LParen);
                    pos += 1;
                }
            }
            ')' => {
                out.push(Token::RParen);
                pos += 1;
            }
            '[' => {
                out.push(Token::LBracket);
                pos += 1;
            }
            ']' => {
                out.push(Token::RBracket);
                pos += 1;
            }
            ',' => {
                out.push(Token::Comma);
                pos += 1;
            }
            '@' => {
                out.push(Token::At);
                pos += 1;
            }
            '*' => {
                out.push(Token::Star);
                pos += 1;
            }
            '/' => {
                if bytes.get(pos + 1) == Some(&b'/') {
                    out.push(Token::DoubleSlash);
                    pos += 2;
                } else {
                    out.push(Token::Slash);
                    pos += 1;
                }
            }
            ':' => {
                if bytes.get(pos + 1) == Some(&b':') {
                    out.push(Token::DoubleColon);
                    pos += 2;
                } else if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Assign);
                    pos += 2;
                } else {
                    return Err(ParseError::new(pos, "unexpected ':'"));
                }
            }
            '=' => {
                out.push(Token::Eq);
                pos += 1;
            }
            '!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    pos += 2;
                } else {
                    return Err(ParseError::new(pos, "unexpected '!'"));
                }
            }
            '<' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    pos += 2;
                } else {
                    out.push(Token::Lt);
                    pos += 1;
                }
            }
            '>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    pos += 2;
                } else {
                    out.push(Token::Gt);
                    pos += 1;
                }
            }
            '$' => {
                let start = pos + 1;
                let end = scan_name(bytes, start);
                if end == start {
                    return Err(ParseError::new(pos, "expected variable name after '$'"));
                }
                out.push(Token::Variable(input[start..end].to_string()));
                pos = end;
            }
            '"' | '\'' => {
                let quote = c;
                let start = pos + 1;
                let mut i = start;
                while i < bytes.len() && bytes[i] as char != quote {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(ParseError::new(pos, "unterminated string literal"));
                }
                out.push(Token::StringLit(input[start..i].to_string()));
                pos = i + 1;
            }
            '.' => {
                // Distinguish "." (context item) from a decimal like ".5".
                if bytes
                    .get(pos + 1)
                    .is_some_and(|b| (*b as char).is_ascii_digit())
                {
                    let (tok, next) = scan_number(input, pos)?;
                    out.push(tok);
                    pos = next;
                } else if bytes.get(pos + 1) == Some(&b'.') {
                    out.push(Token::DotDot);
                    pos += 2;
                } else {
                    out.push(Token::Dot);
                    pos += 1;
                }
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = scan_number(input, pos)?;
                out.push(tok);
                pos = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let end = scan_name(bytes, pos);
                out.push(Token::Name(input[pos..end].to_string()));
                pos = end;
            }
            other => {
                return Err(ParseError::new(
                    pos,
                    format!("unexpected character {other:?}"),
                ))
            }
        }
    }
    out.push(Token::Eof);
    Ok(out)
}

fn scan_name(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
            // A name must not swallow a trailing ".." or "." followed by
            // non-name characters; names in our workloads never contain '.'
            // so simply stop at '.' to keep "person0.name" unambiguous.
            if c == '.' {
                break;
            }
            i += 1;
        } else {
            break;
        }
    }
    i
}

fn scan_number(input: &str, start: usize) -> Result<(Token, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut i = start;
    let mut seen_dot = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() {
            i += 1;
        } else if c == '.' && !seen_dot {
            seen_dot = true;
            i += 1;
        } else {
            break;
        }
    }
    let text = &input[start..i];
    if seen_dot {
        text.parse::<f64>()
            .map(|d| (Token::DecimalLit(d), i))
            .map_err(|_| ParseError::new(start, format!("bad decimal literal {text:?}")))
    } else {
        text.parse::<i64>()
            .map(|n| (Token::IntegerLit(n), i))
            .map_err(|_| ParseError::new(start, format!("bad integer literal {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_q1() {
        let toks = tokenize(r#"doc("auction.xml")/descendant::open_auction[bidder]"#).unwrap();
        assert!(toks.contains(&Token::Name("doc".into())));
        assert!(toks.contains(&Token::StringLit("auction.xml".into())));
        assert!(toks.contains(&Token::DoubleColon));
        assert!(toks.contains(&Token::LBracket));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn tokenizes_variables_and_assign() {
        let toks = tokenize("let $a := doc(\"x\") return $a").unwrap();
        assert!(toks.contains(&Token::Variable("a".into())));
        assert!(toks.contains(&Token::Assign));
    }

    #[test]
    fn tokenizes_comparisons_and_numbers() {
        let toks = tokenize("price > 500 and year <= 19.5").unwrap();
        assert!(toks.contains(&Token::Gt));
        assert!(toks.contains(&Token::IntegerLit(500)));
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::DecimalLit(19.5)));
    }

    #[test]
    fn tokenizes_double_slash_and_at() {
        let toks = tokenize("$a//item/@id").unwrap();
        assert!(toks.contains(&Token::DoubleSlash));
        assert!(toks.contains(&Token::At));
    }

    #[test]
    fn skips_comments() {
        let toks = tokenize("(: a (: nested :) comment :) $x").unwrap();
        assert_eq!(toks, vec![Token::Variable("x".into()), Token::Eof]);
    }

    #[test]
    fn reports_errors() {
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("#").is_err());
        assert!(tokenize("(: open").is_err());
    }

    #[test]
    fn dot_vs_decimal() {
        let toks = tokenize(". .5").unwrap();
        assert_eq!(toks[0], Token::Dot);
        assert_eq!(toks[1], Token::DecimalLit(0.5));
        let toks = tokenize("a/../.").unwrap();
        assert_eq!(toks[2], Token::DotDot);
        assert_eq!(toks[4], Token::Dot);
    }
}
