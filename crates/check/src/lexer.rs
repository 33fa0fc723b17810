//! A hand-rolled Rust lexer, just deep enough for linting.
//!
//! The rules in [`crate::rules`] operate on a token stream with comments
//! and string/char literal *contents* stripped: a `Vec::new()` inside a
//! doc comment or an error message must never count as a violation. The
//! lexer therefore distinguishes exactly three code token kinds —
//! identifiers (keywords included), literals, and single-character
//! punctuation — and returns comments separately with their line spans
//! (L7's `// ordering:` comments and the `// lint: allow(...)`
//! suppressions need them).
//!
//! It is *not* a full Rust lexer: numeric literals are folded greedily,
//! and token text is borrowed straight from the source. That is enough
//! to track brace/paren nesting, `#[cfg(test)]` scopes and the specific
//! call shapes the rules look for.

/// What kind of code token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `match`, `unsafe`, `_`, ...).
    Ident,
    /// String/char/numeric literal (contents not preserved for strings).
    Literal,
    /// One punctuation character (`.`, `!`, `{`, `:`, ...).
    Punct,
}

/// One code token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok<'a> {
    /// Token kind.
    pub kind: TokKind,
    /// Source text (`"\"str\""` literals are collapsed to `""`).
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok<'_> {
    /// Is this punctuation `c`?
    pub fn is(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// Is this the identifier/keyword `word`?
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }
}

/// A comment with its last line and raw text (`//`/`/* */` markers kept).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment ends on.
    pub end_line: u32,
    /// The raw comment text.
    pub text: String,
}

/// The lexer's output: code tokens and comments, both in source order.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// Code tokens.
    pub toks: Vec<Tok<'a>>,
    /// Comments (doc comments included).
    pub comments: Vec<Comment>,
}

/// Lexes `src`, stripping comments and literal contents.
pub fn lex(src: &str) -> Lexed<'_> {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i];
        // A literal token carries the line it *starts* on; the skip
        // helpers bump `line` past any newlines inside it.
        let start_line = line;
        let literal = match c {
            b'"' => Some((skip_quoted(bytes, i, &mut line), "\"\"")),
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                Some((skip_quoted(bytes, i + 1, &mut line), "\"\""))
            }
            b'b' if bytes.get(i + 1) == Some(&b'\'') => {
                Some((skip_quoted(bytes, i + 1, &mut line), "''"))
            }
            b'r' | b'b' => skip_raw_string(bytes, i, &mut line).map(|end| (end, "\"\"")),
            b'\'' if !is_lifetime(bytes, i) => Some((skip_quoted(bytes, i, &mut line), "''")),
            _ => None,
        };
        if let Some((end, text)) = literal {
            out.toks.push(Tok {
                kind: TokKind::Literal,
                text,
                line: start_line,
            });
            i = end;
            continue;
        }
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    end_line: line,
                    text: src[start..i].to_string(),
                });
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    end_line: line,
                    text: src[start..i].to_string(),
                });
            }
            b'\'' => {
                // A lifetime (`'a`); char literals were taken above.
                i += 1;
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: &src[start..i],
                    line,
                });
            }
            _ if c.is_ascii_alphabetic() || c == b'_' || !c.is_ascii() => {
                let start = i;
                // A raw identifier (`r#match`) is one token whose text
                // keeps the `r#` prefix — splitting it into `r`, `#`,
                // `match` would hand the rules a phantom keyword.
                if c == b'r'
                    && bytes.get(i + 1) == Some(&b'#')
                    && bytes
                        .get(i + 2)
                        .is_some_and(|&b| b.is_ascii_alphabetic() || b == b'_')
                {
                    i += 2;
                }
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: &src[start..i],
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (is_ident_byte(bytes[i])
                        || (bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)))
                {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: &src[start..i],
                    line,
                });
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: &src[i..i + 1],
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || !b.is_ascii()
}

/// Lifetime (`'a`) vs char literal (`'a'`, `'\n'`) at the quote at `i`.
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    let after = bytes.get(i + 1).copied().unwrap_or(0);
    (after.is_ascii_alphabetic() || after == b'_') && bytes.get(i + 2) != Some(&b'\'')
}

/// Skips a `"..."` string or `'.'` char literal starting at its opening
/// quote; returns the index past the closing quote.
fn skip_quoted(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    let quote = bytes[i];
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                // An escaped byte may itself be a newline (line
                // continuation) — it is still a source line.
                if bytes.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b if b == quote => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips the raw (byte) string literal (`r"`, `r#"`, `br"`, ...) at `i`,
/// if one starts there; returns the index past its closing quote and
/// hashes.
fn skip_raw_string(bytes: &[u8], i: usize, line: &mut u32) -> Option<usize> {
    let r = i + usize::from(bytes[i] == b'b');
    let hashes = bytes.iter().skip(r + 1).take_while(|&&b| b == b'#').count();
    let open = r + 1 + hashes;
    if bytes.get(r) != Some(&b'r') || bytes.get(open) != Some(&b'"') {
        return None;
    }
    let mut k = open + 1;
    while k < bytes.len() {
        let tail = bytes[k + 1..].iter().take_while(|&&b| b == b'#').count();
        if bytes[k] == b'"' && tail >= hashes {
            return Some(k + 1 + hashes);
        }
        *line += u32::from(bytes[k] == b'\n');
        k += 1;
    }
    Some(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let src = r#"
            // a panic! in a comment
            /* and unwrap() in /* a nested */ block */
            fn f() { let s = "panic!(\"quoted\")"; }
        "#;
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "f", "let", "s"]);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("panic! in a comment"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let src = r##"let a = r#"unwrap()"#; let b = 'x'; let c: &'static str = b"z";"##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c", "str"]);
    }

    #[test]
    fn lines_are_tracked() {
        let src = "fn a() {}\nfn b() {}\n";
        let lexed = lex(src);
        let b = lexed.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 2);
    }

    #[test]
    fn multi_line_literals_carry_their_start_line() {
        // The literal token anchors where it *opens*; lines inside it
        // still count toward what follows.
        let src = "let a = \"one\ntwo\";\nlet b = r#\"three\nfour\"#;\nlet c = 1;";
        let lexed = lex(src);
        let lits: Vec<u32> = lexed
            .toks
            .iter()
            .filter(|t| t.text == "\"\"")
            .map(|t| t.line)
            .collect();
        assert_eq!(lits, vec![1, 3]);
        let c = lexed.toks.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!(c.line, 5);
    }

    #[test]
    fn escaped_newline_in_a_string_still_counts_as_a_line() {
        // `\` + newline is a string continuation, but the newline is a
        // real source line — without counting it every later token
        // drifts one line up.
        let src = "let a = \"one\\\ntwo\";\nlet b = 1;";
        let b = lex(src).toks.into_iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn raw_identifiers_are_single_tokens() {
        let src = "fn r#match(r#unsafe: u32) {}";
        let lexed = lex(src);
        assert!(lexed.toks.iter().any(|t| t.is_ident("r#match")));
        // No phantom keywords, no stray `#` punctuation.
        assert!(!lexed.toks.iter().any(|t| t.is_ident("match")));
        assert!(!lexed.toks.iter().any(|t| t.is_ident("unsafe")));
        assert!(!lexed.toks.iter().any(|t| t.is('#')));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        // The brace structure survives (a mis-lexed lifetime would swallow
        // the rest of the file as a char literal).
        let braces = lex(src).toks.iter().filter(|t| t.is('{')).count();
        assert_eq!(braces, 1);
    }
}
