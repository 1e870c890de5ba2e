//! Gate-level structural Verilog parser — the inverse of
//! [`crate::verilog::to_verilog`].
//!
//! Accepted subset (one bit per net, no vectors, no expressions):
//!
//! ```text
//! module NAME (port, ...);
//!   input  a; input b, c;
//!   output y;
//!   wire n1;
//!   and  g1 (n1, a, b);          // and|or|xor|nand|nor|xnor
//!   not  g2 (y, n1);             // not|buf
//!   assign n2 = 1'b0;            // constants
//!   assign y = n1;               // aliases
//! endmodule
//! ```
//!
//! `//` line comments and `/* */` block comments are skipped.
//! Statement order is irrelevant — construction topologically sorts —
//! but every referenced net must be declared (`input`/`output`/`wire`)
//! and driven exactly once.

use crate::gate::{BinOp, UnOp};

use super::{Driver, ImportError, ModuleGraph};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    /// `1'b0` / `1'b1`.
    Literal(bool),
    Punct(char),
}

/// Streaming tokenizer: yields each token with its line, borrowing
/// identifiers from the text, so no token list is ever materialized.
struct Lexer<'a> {
    text: &'a str,
    i: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            text,
            i: 0,
            line: 1,
        }
    }

    /// The error at `line`; the lexer yields nothing after it.
    fn fail(&mut self, line: usize, message: impl Into<String>) -> ImportError {
        self.i = self.text.len();
        ImportError::at(line, message)
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<(Tok<'a>, usize), ImportError>;

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.text.as_bytes();
        while self.i < bytes.len() {
            let i = self.i;
            let c = bytes[i] as char;
            match c {
                '\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                '/' if bytes.get(i + 1) == Some(&b'/') => {
                    while self.i < bytes.len() && bytes[self.i] != b'\n' {
                        self.i += 1;
                    }
                }
                '/' if bytes.get(i + 1) == Some(&b'*') => {
                    let start = self.line;
                    self.i += 2;
                    loop {
                        if self.i + 1 >= bytes.len() {
                            return Some(Err(self.fail(start, "unterminated block comment")));
                        }
                        if bytes[self.i] == b'\n' {
                            self.line += 1;
                        }
                        if bytes[self.i] == b'*' && bytes[self.i + 1] == b'/' {
                            self.i += 2;
                            break;
                        }
                        self.i += 1;
                    }
                }
                '(' | ')' | ',' | ';' | '=' => {
                    self.i += 1;
                    return Some(Ok((Tok::Punct(c), self.line)));
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    while self.i < bytes.len()
                        && ((bytes[self.i] as char).is_ascii_alphanumeric()
                            || bytes[self.i] == b'_'
                            || bytes[self.i] == b'$')
                    {
                        self.i += 1;
                    }
                    return Some(Ok((Tok::Ident(&self.text[i..self.i]), self.line)));
                }
                c if c.is_ascii_digit() => {
                    // Only the single-bit literals 1'b0 / 1'b1 are legal.
                    let rest = &bytes[i..];
                    if rest.len() >= 4
                        && &rest[..3] == b"1'b"
                        && (rest[3] == b'0' || rest[3] == b'1')
                    {
                        self.i += 4;
                        return Some(Ok((Tok::Literal(rest[3] == b'1'), self.line)));
                    }
                    let line = self.line;
                    return Some(Err(self.fail(
                        line,
                        "unsupported literal (only 1'b0 and 1'b1 are accepted)",
                    )));
                }
                other => {
                    let line = self.line;
                    return Some(Err(
                        self.fail(line, format!("unexpected character `{other}`"))
                    ));
                }
            }
        }
        None
    }
}

/// Cursor over the token stream with line-aware errors and one token
/// of lookahead. The text must already have lexed without error.
struct Cursor<'a> {
    lexer: Lexer<'a>,
    peeked: Option<(Tok<'a>, usize)>,
    /// Line of the last token lexed (0 before the first).
    last_line: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            lexer: Lexer::new(text),
            peeked: None,
            last_line: 0,
        }
    }

    fn peek(&mut self) -> Option<Tok<'a>> {
        if self.peeked.is_none() {
            self.peeked = self
                .lexer
                .next()
                .map(|tok| tok.expect("the text lexed without error before parsing"));
            if let Some((_, line)) = self.peeked {
                self.last_line = line;
            }
        }
        self.peeked.map(|(t, _)| t)
    }

    /// Line of the next token, or of the last one at the end of input.
    fn line(&mut self) -> usize {
        self.peek();
        self.peeked.map_or(self.last_line, |(_, l)| l)
    }

    fn next(&mut self, what: &str) -> Result<Tok<'a>, ImportError> {
        self.peek();
        match self.peeked.take() {
            Some((t, _)) => Ok(t),
            None => Err(ImportError::at(
                self.last_line,
                format!("unexpected end of input, expected {what}"),
            )),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ImportError> {
        let line = self.line();
        match self.next(what)? {
            Tok::Ident(s) => Ok(s.to_string()),
            other => Err(ImportError::at(
                line,
                format!("expected {what}, found {other:?}"),
            )),
        }
    }

    fn punct(&mut self, c: char) -> Result<(), ImportError> {
        let line = self.line();
        match self.next(&format!("`{c}`"))? {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(ImportError::at(
                line,
                format!("expected `{c}`, found {other:?}"),
            )),
        }
    }

    /// `ident {, ident} ;`
    fn ident_list(&mut self) -> Result<Vec<String>, ImportError> {
        let mut names = vec![self.ident("an identifier")?];
        loop {
            let line = self.line();
            match self.next("`,` or `;`")? {
                Tok::Punct(',') => names.push(self.ident("an identifier")?),
                Tok::Punct(';') => return Ok(names),
                other => {
                    return Err(ImportError::at(
                        line,
                        format!("expected `,` or `;`, found {other:?}"),
                    ))
                }
            }
        }
    }
}

fn binop_of(name: &str) -> Option<BinOp> {
    match name {
        "and" => Some(BinOp::And),
        "or" => Some(BinOp::Or),
        "xor" => Some(BinOp::Xor),
        "nand" => Some(BinOp::Nand),
        "nor" => Some(BinOp::Nor),
        "xnor" => Some(BinOp::Xnor),
        _ => None,
    }
}

fn unop_of(name: &str) -> Option<UnOp> {
    match name {
        "not" => Some(UnOp::Not),
        "buf" => Some(UnOp::Buf),
        _ => None,
    }
}

pub(crate) fn parse_modules(text: &str) -> Result<Vec<ModuleGraph>, ImportError> {
    // A lexical error wins over any parse error, wherever it sits, so
    // the text is lexed once up front and then streamed again.
    Lexer::new(text).try_for_each(|tok| tok.map(drop))?;
    let mut cur = Cursor::new(text);
    let mut modules = Vec::new();
    while cur.peek().is_some() {
        modules.push(parse_module(&mut cur)?);
    }
    Ok(modules)
}

fn parse_module(cur: &mut Cursor<'_>) -> Result<ModuleGraph, ImportError> {
    use std::collections::{HashMap, HashSet};

    let module_line = cur.line();
    let kw = cur.ident("`module`")?;
    if kw != "module" {
        return Err(ImportError::at(
            module_line,
            format!("expected `module`, found `{kw}`"),
        ));
    }
    let name = cur.ident("a module name")?;
    cur.punct('(')?;
    let mut header: Vec<String> = Vec::new();
    if cur.peek() != Some(Tok::Punct(')')) {
        header.push(cur.ident("a port name")?);
        while cur.peek() == Some(Tok::Punct(',')) {
            cur.punct(',')?;
            header.push(cur.ident("a port name")?);
        }
    }
    cur.punct(')')?;
    cur.punct(';')?;
    {
        let mut seen = HashSet::new();
        for port in &header {
            if !seen.insert(port.as_str()) {
                return Err(ImportError::at(
                    module_line,
                    format!("port `{port}` listed twice in the module header"),
                ));
            }
        }
    }

    // direction per port name: true = input
    let mut direction: HashMap<String, (bool, usize)> = HashMap::new();
    let mut declared: HashSet<String> = header.iter().cloned().collect();
    let mut drivers: Vec<(String, Driver, usize)> = Vec::new();

    loop {
        let line = cur.line();
        let kw = cur.ident("a statement or `endmodule`")?;
        match kw.as_str() {
            "endmodule" => break,
            "input" | "output" => {
                let is_input = kw == "input";
                for port in cur.ident_list()? {
                    if !header.iter().any(|p| p == &port) {
                        return Err(ImportError::at(
                            line,
                            format!("`{port}` declared {kw} but not listed in the module header"),
                        ));
                    }
                    if direction.insert(port.clone(), (is_input, line)).is_some() {
                        return Err(ImportError::at(
                            line,
                            format!("port `{port}` has more than one direction declaration"),
                        ));
                    }
                }
            }
            "wire" => {
                for net in cur.ident_list()? {
                    if !declared.insert(net.clone()) {
                        return Err(ImportError::at(line, format!("net `{net}` redeclared")));
                    }
                }
            }
            "assign" => {
                let lhs = cur.ident("a net name")?;
                check_declared(&declared, &lhs, line)?;
                cur.punct('=')?;
                let rhs_line = cur.line();
                let driver = match cur.next("a net name or literal")? {
                    Tok::Ident(rhs) => {
                        check_declared(&declared, rhs, rhs_line)?;
                        Driver::Alias(rhs.to_string())
                    }
                    Tok::Literal(v) => Driver::Const(v),
                    other => {
                        return Err(ImportError::at(
                            rhs_line,
                            format!("expected a net name or literal, found {other:?}"),
                        ))
                    }
                };
                cur.punct(';')?;
                drivers.push((lhs, driver, line));
            }
            prim => {
                let (out, args) = parse_instance(cur, prim, line)?;
                for arg in std::iter::once(&out).chain(&args) {
                    check_declared(&declared, arg, line)?;
                }
                let driver = if let Some(op) = binop_of(prim) {
                    if args.len() != 2 {
                        return Err(ImportError::at(
                            line,
                            format!("`{prim}` takes 2 inputs, found {}", args.len()),
                        ));
                    }
                    Driver::Binary(op, args[0].clone(), args[1].clone())
                } else if let Some(op) = unop_of(prim) {
                    if args.len() != 1 {
                        return Err(ImportError::at(
                            line,
                            format!("`{prim}` takes 1 input, found {}", args.len()),
                        ));
                    }
                    Driver::Unary(op, args[0].clone())
                } else {
                    return Err(ImportError::at(
                        line,
                        format!(
                            "unknown primitive `{prim}` \
                             (accepted: and, or, xor, nand, nor, xnor, not, buf)"
                        ),
                    ));
                };
                drivers.push((out, driver, line));
            }
        }
    }

    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for port in &header {
        match direction.get(port) {
            Some((true, _)) => inputs.push(port.clone()),
            Some((false, _)) => outputs.push(port.clone()),
            None => {
                return Err(ImportError::at(
                    module_line,
                    format!("port `{port}` has no input/output declaration"),
                ))
            }
        }
    }

    Ok(ModuleGraph {
        name,
        line: module_line,
        inputs,
        outputs,
        drivers,
    })
}

/// `<instname> ( out , in {, in} ) ;` after the primitive keyword.
fn parse_instance(
    cur: &mut Cursor<'_>,
    prim: &str,
    line: usize,
) -> Result<(String, Vec<String>), ImportError> {
    let _instance = cur.ident("an instance name")?;
    cur.punct('(')?;
    let out = cur.ident("an output net")?;
    let mut args = Vec::new();
    loop {
        match cur.next("`,` or `)`")? {
            Tok::Punct(',') => args.push(cur.ident("an input net")?),
            Tok::Punct(')') => break,
            other => {
                return Err(ImportError::at(
                    line,
                    format!("expected `,` or `)` in `{prim}` instance, found {other:?}"),
                ))
            }
        }
    }
    cur.punct(';')?;
    Ok((out, args))
}

fn check_declared(
    declared: &std::collections::HashSet<String>,
    net: &str,
    line: usize,
) -> Result<(), ImportError> {
    if declared.contains(net) {
        Ok(())
    } else {
        Err(ImportError::at(line, format!("undeclared net `{net}`")))
    }
}

#[cfg(test)]
mod tests {
    use crate::import::{parse_netlists, ImportFormat};
    use crate::verilog::to_verilog;
    use crate::{check_equivalence, BinOp, Equivalence, Netlist};

    fn parse_one(text: &str) -> Netlist {
        let mut mods = parse_netlists(text, ImportFormat::Verilog).unwrap();
        assert_eq!(mods.len(), 1);
        mods.pop().unwrap()
    }

    fn err_of(text: &str) -> String {
        parse_netlists(text, ImportFormat::Verilog)
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn full_adder_round_trips_equivalent() {
        let mut n = Netlist::new("fa");
        let a = n.input("a");
        let b = n.input("b");
        let cin = n.input("cin");
        let axb = n.binary(BinOp::Xor, a, b);
        let sum = n.binary(BinOp::Xor, axb, cin);
        let t1 = n.binary(BinOp::And, axb, cin);
        let t2 = n.binary(BinOp::And, a, b);
        let cout = n.binary(BinOp::Or, t1, t2);
        n.output("sum", sum);
        n.output("cout", cout);

        let back = parse_one(&to_verilog(&n));
        assert_eq!(back.name(), "fa");
        assert_eq!(back.input_count(), 3);
        assert_eq!(back.output_count(), 2);
        assert!(matches!(
            check_equivalence(&n, &back).unwrap(),
            Equivalence::Equivalent
        ));
    }

    #[test]
    fn constants_aliases_and_comments() {
        let src = "\
// header comment
module c (a, y, z);
  input  a;
  output y; output z;
  wire k; /* block
              comment */
  assign k = 1'b1;
  and g0 (y, a, k);
  assign z = a;
endmodule
";
        let n = parse_one(src);
        assert_eq!(n.eval_bits(&[true]), vec![true, true]);
        assert_eq!(n.eval_bits(&[false]), vec![false, false]);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let msg = err_of("module m (a, y);\n  input a;\n  output y;\n");
        assert!(msg.contains("unexpected end of input"), "{msg}");
        assert!(err_of("").contains("no modules"));
        assert!(err_of("module m (a").contains("end of input"));
    }

    #[test]
    fn structural_errors_are_reported_not_panicked() {
        let base = "module m (a, y);\n  input a;\n  output y;\n";
        assert!(err_of(&format!("{base}endmodule")).contains("never driven"));
        assert!(
            err_of(&format!("{base}  not g0 (y, ghost);\nendmodule")).contains("undeclared net")
        );
        assert!(err_of(&format!(
            "{base}  assign y = a;\n  assign y = a;\nendmodule"
        ))
        .contains("multiple drivers"));
        assert!(err_of(&format!("{base}  assign a = y;\nendmodule")).contains("cannot be driven"));
        assert!(err_of(&format!(
            "{base}  wire w;\n  not g (w, w);\n  assign y = w;\nendmodule"
        ))
        .contains("combinational loop"));
        assert!(err_of(&format!("{base}  foo g (y, a);\nendmodule")).contains("unknown primitive"));
        assert!(err_of(&format!("{base}  and g (y, a);\nendmodule")).contains("takes 2 inputs"));
        let two = "module m (y); output y; assign y = 1'b0; endmodule\n";
        assert!(err_of(&format!("{two}{two}")).contains("duplicate module"));
        assert!(err_of("module m (a, a); input a; endmodule").contains("listed twice"));
        assert!(err_of("module m (a); endmodule").contains("no input/output declaration"));
        assert!(
            err_of("module m (y); output y; assign y = 2'b10; endmodule")
                .contains("unsupported literal")
        );
    }

    #[test]
    fn a_lexical_error_wins_over_an_earlier_parse_error() {
        let msg = err_of("module m (a, y);\n  foo g (y, a);\n  assign y = 2'b10;\nendmodule");
        assert!(msg.starts_with("line 3: unsupported literal"), "{msg}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let msg = err_of("module m (a, y);\n  input a;\n  output y;\n  foo g (y, a);\nendmodule");
        assert!(msg.starts_with("line 4:"), "{msg}");
    }
}
