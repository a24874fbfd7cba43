//! Parser for a structural-Verilog subset.
//!
//! The accepted grammar covers the flat gate-level netlists emitted by
//! synthesis tools (and by this crate's own [`crate::writer`]):
//!
//! ```verilog
//! module sdram_ctrl (clk, rst, cmd, ready);
//!   input clk, rst;
//!   input [2:0] cmd;
//!   output ready;
//!   wire n1, n2;
//!   ND2 U393 (.A(cmd[0]), .B(n1), .Z(n2));
//!   DFF state_reg (.D(n2), .Q(ready));
//!   assign n1 = cmd[1];
//! endmodule
//! ```
//!
//! * Vector declarations `[msb:lsb]` expand to scalar bits `name[i]`.
//! * Instance connections may be named (`.A(net)`) or positional
//!   (inputs in pin order, output last).
//! * `assign lhs = rhs;` lowers to a `BUF` gate.
//! * `//` line comments and `/* */` block comments are skipped.
//! * The module port list is informative only; `input`/`output`
//!   declarations are authoritative.

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist};

/// Widest `[msb:lsb]` range a declaration may expand, in bits. Every
/// bit becomes a net, so the bound caps what a short source can make
/// the parser allocate; the widest port of the built-in and synthesized
/// designs is 64 bits.
pub const MAX_RANGE_WIDTH: u64 = 1 << 16;

/// Most bits the declarations of one module may expand to in total. One
/// declaration may list many names under one range, so the range bound
/// alone lets a short source declare millions of nets; the 100k-gate
/// synthesized design declares about 96,000.
pub const MAX_DECLARED_BITS: u64 = 1 << 22;

/// Parses a structural-Verilog-subset source into a validated [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for syntax errors,
/// [`NetlistError::RangeTooWide`] for a declared range wider than
/// [`MAX_RANGE_WIDTH`], [`NetlistError::TooManyDeclaredBits`] for
/// declarations past [`MAX_DECLARED_BITS`] in total,
/// [`NetlistError::UnknownCell`] for cells outside
/// the library, and any validation error from
/// [`NetlistBuilder::finish`].
///
/// # Example
///
/// ```
/// use fusa_netlist::parser::parse_verilog;
///
/// # fn main() -> Result<(), fusa_netlist::NetlistError> {
/// let src = "module t (a, z);\n input a;\n output z;\n IV U1 (.A(a), .Z(z));\nendmodule\n";
/// let netlist = parse_verilog(src)?;
/// assert_eq!(netlist.gate_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_verilog(source: &str) -> Result<Netlist, NetlistError> {
    let _span = fusa_obs::global().span("parse");
    Parser::new(source).parse()
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(i64),
    Punct(char),
}

/// Renders what an error found where it expected something else:
/// "end of file", "`;`", "identifier `foo`" or "number `7`".
fn found(token: Option<&Token>) -> String {
    match token {
        None => "end of file".to_string(),
        Some(Token::Punct(c)) => format!("`{c}`"),
        Some(Token::Ident(name)) => format!("identifier `{name}`"),
        Some(Token::Number(n)) => format!("number `{n}`"),
    }
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().peekable(),
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> NetlistError {
        NetlistError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    fn next_token(&mut self) -> Result<Option<(Token, usize)>, NetlistError> {
        loop {
            match self.chars.peek().copied() {
                None => return Ok(None),
                Some('\n') => {
                    self.line += 1;
                    self.chars.next();
                }
                Some(c) if c.is_whitespace() => {
                    self.chars.next();
                }
                Some('/') => {
                    self.chars.next();
                    match self.chars.peek().copied() {
                        Some('/') => {
                            for c in self.chars.by_ref() {
                                if c == '\n' {
                                    self.line += 1;
                                    break;
                                }
                            }
                        }
                        Some('*') => {
                            self.chars.next();
                            let mut prev = ' ';
                            loop {
                                match self.chars.next() {
                                    None => return Err(self.error("unterminated block comment")),
                                    Some('\n') => {
                                        self.line += 1;
                                        prev = '\n';
                                    }
                                    Some('/') if prev == '*' => break,
                                    Some(c) => prev = c,
                                }
                            }
                        }
                        _ => return Err(self.error("unexpected `/`")),
                    }
                }
                Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '\\' => {
                    let escaped = c == '\\';
                    if escaped {
                        self.chars.next();
                    }
                    let mut ident = String::new();
                    while let Some(&c) = self.chars.peek() {
                        let ok = if escaped {
                            !c.is_whitespace()
                        } else {
                            c.is_ascii_alphanumeric() || c == '_' || c == '$'
                        };
                        if ok {
                            ident.push(c);
                            self.chars.next();
                        } else {
                            break;
                        }
                    }
                    // Merge a bit-select suffix into the identifier name.
                    if !escaped && self.chars.peek() == Some(&'[') {
                        let mut clone = self.chars.clone();
                        clone.next();
                        let mut digits = String::new();
                        while let Some(&c) = clone.peek() {
                            if c.is_ascii_digit() {
                                digits.push(c);
                                clone.next();
                            } else {
                                break;
                            }
                        }
                        if !digits.is_empty() && clone.peek() == Some(&']') {
                            clone.next();
                            self.chars = clone;
                            ident.push('[');
                            ident.push_str(&digits);
                            ident.push(']');
                        }
                    }
                    return Ok(Some((Token::Ident(ident), self.line)));
                }
                Some(c) if c.is_ascii_digit() => {
                    let mut digits = String::new();
                    while let Some(&c) = self.chars.peek() {
                        if c.is_ascii_digit() {
                            digits.push(c);
                            self.chars.next();
                        } else {
                            break;
                        }
                    }
                    // Sized literals like 1'b0 are parsed as number + tick-suffix.
                    if self.chars.peek() == Some(&'\'') {
                        self.chars.next();
                        let base = self.chars.next().ok_or_else(|| self.error("bad literal"))?;
                        let mut value = String::new();
                        while let Some(&c) = self.chars.peek() {
                            if c.is_ascii_alphanumeric() {
                                value.push(c);
                                self.chars.next();
                            } else {
                                break;
                            }
                        }
                        let radix = match base {
                            'b' | 'B' => 2,
                            'd' | 'D' => 10,
                            'h' | 'H' => 16,
                            'o' | 'O' => 8,
                            _ => return Err(self.error("unsupported literal base")),
                        };
                        let parsed = i64::from_str_radix(&value, radix)
                            .map_err(|_| self.error("bad literal digits"))?;
                        return Ok(Some((Token::Number(parsed), self.line)));
                    }
                    let parsed: i64 = digits
                        .parse()
                        .map_err(|_| self.error("integer literal overflow"))?;
                    return Ok(Some((Token::Number(parsed), self.line)));
                }
                Some(c) if "();,.=[]:".contains(c) => {
                    self.chars.next();
                    return Ok(Some((Token::Punct(c), self.line)));
                }
                Some(c) => return Err(self.error(format!("unexpected character `{c}`"))),
            }
        }
    }
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    assign_counter: usize,
}

impl Parser {
    fn new(source: &str) -> Self {
        // Lexing errors surface lazily in parse(); collect eagerly here.
        let mut lexer = Lexer::new(source);
        let mut tokens = Vec::new();
        let mut lex_error = None;
        loop {
            match lexer.next_token() {
                Ok(Some(t)) => tokens.push(t),
                Ok(None) => break,
                Err(e) => {
                    lex_error = Some(e);
                    break;
                }
            }
        }
        let parser = Parser {
            tokens,
            pos: 0,
            assign_counter: 0,
        };
        if let Some(e) = lex_error {
            // Encode the lex error as a sentinel that parse() returns first.
            return Parser {
                tokens: vec![(Token::Ident(format!("\u{0}{e}")), 0)],
                pos: 0,
                assign_counter: 0,
            };
        }
        parser
    }

    fn error_at(&self, message: impl Into<String>) -> NetlistError {
        self.error_on(self.pos, message)
    }

    /// Like [`Self::error_at`] but for a failed `next()`: points at the
    /// token just consumed instead of the one after it.
    fn error_at_prev(&self, message: impl Into<String>) -> NetlistError {
        self.error_on(self.pos.saturating_sub(1), message)
    }

    fn error_on(&self, pos: usize, message: impl Into<String>) -> NetlistError {
        NetlistError::Parse {
            line: self.line_on(pos),
            message: message.into(),
        }
    }

    /// Source line of the token at `pos` (the last token past the end).
    fn line_on(&self, pos: usize) -> usize {
        self.tokens
            .get(pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), NetlistError> {
        match self.next() {
            Some(Token::Punct(p)) if p == c => Ok(()),
            other => {
                Err(self.error_at_prev(format!("expected `{c}`, found {}", found(other.as_ref()))))
            }
        }
    }

    fn expect_ident(&mut self) -> Result<String, NetlistError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.error_at_prev(format!(
                "expected identifier, found {}",
                found(other.as_ref())
            ))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), NetlistError> {
        let ident = self.expect_ident()?;
        if ident == kw {
            Ok(())
        } else {
            Err(self.error_at(format!("expected `{kw}`, found `{ident}`")))
        }
    }

    fn parse(mut self) -> Result<Netlist, NetlistError> {
        // Surface a lexing error stashed by `new`.
        if let Some(Token::Ident(s)) = self.peek() {
            if let Some(stripped) = s.strip_prefix('\u{0}') {
                return Err(NetlistError::Parse {
                    line: 0,
                    message: stripped.to_string(),
                });
            }
        }
        self.expect_keyword("module")?;
        let name = self.expect_ident()?;
        let mut builder = NetlistBuilder::new(name);

        // Port list (names only; directions come from declarations).
        if matches!(self.peek(), Some(Token::Punct('('))) {
            self.next();
            loop {
                match self.next() {
                    Some(Token::Punct(')')) => break,
                    Some(Token::Ident(_)) | Some(Token::Punct(',')) => {}
                    other => {
                        return Err(
                            self.error_at(format!("bad port list near {}", found(other.as_ref())))
                        )
                    }
                }
            }
        }
        self.expect_punct(';')?;

        let mut outputs: Vec<String> = Vec::new();
        let mut declared_bits = 0u64;
        let mut tie0: Option<NetId> = None;
        let mut tie1: Option<NetId> = None;

        loop {
            let keyword = match self.peek() {
                Some(Token::Ident(s)) => s.clone(),
                other => {
                    return Err(self.error_at(format!("expected statement, found {}", found(other))))
                }
            };
            match keyword.as_str() {
                "endmodule" => break,
                "input" | "output" | "wire" => {
                    self.next();
                    let names = self.parse_decl_names(&mut declared_bits)?;
                    for n in names {
                        match keyword.as_str() {
                            "input" => {
                                builder.primary_input(n);
                            }
                            "output" => {
                                builder.net(n.clone());
                                outputs.push(n);
                            }
                            _ => {
                                builder.net(n);
                            }
                        }
                    }
                }
                "assign" => {
                    self.next();
                    let lhs = self.expect_ident()?;
                    self.expect_punct('=')?;
                    let lhs_net = builder.net(lhs);
                    match self.next() {
                        Some(Token::Ident(rhs)) => {
                            let rhs_net = builder.net(rhs);
                            let inst = format!("ASSIGN{}", self.assign_counter);
                            self.assign_counter += 1;
                            builder.gate_driving(inst, GateKind::Buf, &[rhs_net], lhs_net);
                        }
                        Some(Token::Number(v)) => {
                            let kind = if v == 0 {
                                GateKind::Tie0
                            } else {
                                GateKind::Tie1
                            };
                            let inst = format!("ASSIGN{}", self.assign_counter);
                            self.assign_counter += 1;
                            builder.gate_driving(inst, kind, &[], lhs_net);
                            let slot = if v == 0 { &mut tie0 } else { &mut tie1 };
                            slot.get_or_insert(lhs_net);
                        }
                        other => {
                            return Err(
                                self.error_at(format!("bad assign rhs: {}", found(other.as_ref())))
                            )
                        }
                    }
                    self.expect_punct(';')?;
                }
                _ => {
                    // Cell instantiation: CELL INST ( connections ) ;
                    self.next();
                    let kind = GateKind::from_cell_name(&keyword)
                        .ok_or(NetlistError::UnknownCell { cell: keyword })?;
                    let inst = self.expect_ident()?;
                    self.expect_punct('(')?;
                    let (inputs, output) = self.parse_connections(kind, &mut builder)?;
                    self.expect_punct(')')?;
                    self.expect_punct(';')?;
                    let output = output.ok_or_else(|| {
                        self.error_at(format!("instance `{inst}` has no output connection"))
                    })?;
                    if inputs.len() != kind.num_inputs() {
                        return Err(NetlistError::ArityMismatch {
                            gate: inst,
                            expected: kind.num_inputs(),
                            found: inputs.len(),
                        });
                    }
                    builder.gate_driving(inst, kind, &inputs, output);
                }
            }
        }

        for port in outputs {
            let net = builder.net(port.clone());
            builder.primary_output(port, net);
        }
        builder.finish()
    }

    /// Parses one declaration's range and names, and expands them into
    /// one name per bit once the module's running total of declared bits,
    /// `declared_bits`, is known to stay within [`MAX_DECLARED_BITS`].
    fn parse_decl_names(&mut self, declared_bits: &mut u64) -> Result<Vec<String>, NetlistError> {
        let line = self.line_on(self.pos);
        // Optional range: [msb:lsb]
        let mut range: Option<(i64, i64)> = None;
        if matches!(self.peek(), Some(Token::Punct('['))) {
            self.next();
            let msb = match self.next() {
                Some(Token::Number(v)) => v,
                other => {
                    return Err(self.error_at(format!("bad range msb: {}", found(other.as_ref()))))
                }
            };
            self.expect_punct(':')?;
            let lsb = match self.next() {
                Some(Token::Number(v)) => v,
                other => {
                    return Err(self.error_at(format!("bad range lsb: {}", found(other.as_ref()))))
                }
            };
            self.expect_punct(']')?;
            // Each bit becomes a net, so the width bounds an allocation.
            if msb
                .abs_diff(lsb)
                .checked_add(1)
                .is_none_or(|w| w > MAX_RANGE_WIDTH)
            {
                return Err(NetlistError::RangeTooWide { line, msb, lsb });
            }
            range = Some((msb, lsb));
        }
        let mut bases = Vec::new();
        loop {
            bases.push(self.expect_ident()?);
            match self.next() {
                Some(Token::Punct(',')) => continue,
                Some(Token::Punct(';')) => break,
                other => {
                    return Err(self.error_at(format!("bad declaration: {}", found(other.as_ref()))))
                }
            }
        }
        // Bounded before any name is expanded: each bit becomes a net.
        let width = range.map_or(1, |(msb, lsb)| msb.abs_diff(lsb) + 1);
        let total = (bases.len() as u64)
            .saturating_mul(width)
            .saturating_add(*declared_bits);
        if total > MAX_DECLARED_BITS {
            return Err(NetlistError::TooManyDeclaredBits { line, total });
        }
        *declared_bits = total;
        let mut names = Vec::new();
        for base in bases {
            match range {
                None => names.push(base),
                Some((msb, lsb)) => {
                    let (lo, hi) = if msb >= lsb { (lsb, msb) } else { (msb, lsb) };
                    for bit in lo..=hi {
                        names.push(format!("{base}[{bit}]"));
                    }
                }
            }
        }
        Ok(names)
    }

    fn parse_connections(
        &mut self,
        kind: GateKind,
        builder: &mut NetlistBuilder,
    ) -> Result<(Vec<NetId>, Option<NetId>), NetlistError> {
        let pin_names = kind.input_pin_names();
        let mut inputs: Vec<Option<NetId>> = vec![None; kind.num_inputs()];
        let mut output: Option<NetId> = None;
        let mut positional: Vec<NetId> = Vec::new();
        let mut named = false;

        if matches!(self.peek(), Some(Token::Punct(')'))) {
            return Ok((Vec::new(), output));
        }
        loop {
            match self.peek() {
                Some(Token::Punct('.')) => {
                    named = true;
                    self.next();
                    let pin = self.expect_ident()?;
                    self.expect_punct('(')?;
                    let net_name = self.expect_ident()?;
                    self.expect_punct(')')?;
                    let net = builder.net(net_name);
                    if pin == kind.output_pin_name() {
                        output = Some(net);
                    } else if let Some(idx) = pin_names.iter().position(|&p| p == pin) {
                        inputs[idx] = Some(net);
                    } else {
                        return Err(
                            self.error_at(format!("cell {} has no pin `{pin}`", kind.cell_name()))
                        );
                    }
                }
                Some(Token::Ident(_)) => {
                    let net_name = self.expect_ident()?;
                    positional.push(builder.net(net_name));
                }
                other => return Err(self.error_at(format!("bad connection: {}", found(other)))),
            }
            match self.peek() {
                Some(Token::Punct(',')) => {
                    self.next();
                }
                _ => break,
            }
        }

        if named {
            let gathered: Option<Vec<NetId>> = inputs.into_iter().collect();
            let gathered = gathered
                .ok_or_else(|| self.error_at("instance leaves an input pin unconnected"))?;
            Ok((gathered, output))
        } else {
            // Positional: inputs in pin order, then the output. The
            // caller checks the input count so a miscounted instance
            // surfaces as `ArityMismatch` with the instance name.
            let out = positional.pop();
            Ok((positional, out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"
// A commented header.
module small (a, b, z);
  input a, b;
  output z;
  wire n1; /* inline block comment */
  ND2 U1 (.A(a), .B(b), .Z(n1));
  IV U2 (.A(n1), .Z(z));
endmodule
"#;

    #[test]
    fn parses_named_connections() {
        let netlist = parse_verilog(SMALL).unwrap();
        assert_eq!(netlist.gate_count(), 2);
        assert_eq!(netlist.primary_inputs().len(), 2);
        assert_eq!(netlist.primary_outputs().len(), 1);
        assert!(netlist.find_gate("U1").is_some());
    }

    #[test]
    fn parses_positional_connections() {
        let src = "module t (a, z);\n input a;\n output z;\n IV U1 (a, z);\nendmodule";
        let netlist = parse_verilog(src).unwrap();
        assert_eq!(netlist.gate_count(), 1);
    }

    #[test]
    fn vector_declarations_expand() {
        let src = "module t (d, q);\n input [3:0] d;\n output q;\n ND4 U1 (.A(d[0]), .B(d[1]), .C(d[2]), .D(d[3]), .Z(q));\nendmodule";
        let netlist = parse_verilog(src).unwrap();
        assert_eq!(netlist.primary_inputs().len(), 4);
        assert!(netlist.find_net("d[3]").is_some());
    }

    #[test]
    fn assign_lowered_to_buf() {
        let src = "module t (a, z);\n input a;\n output z;\n assign z = a;\nendmodule";
        let netlist = parse_verilog(src).unwrap();
        assert_eq!(netlist.gate_count(), 1);
        assert_eq!(netlist.gates()[0].kind, GateKind::Buf);
    }

    #[test]
    fn assign_constant_lowered_to_tie() {
        let src = "module t (z);\n output z;\n assign z = 1'b0;\nendmodule";
        let netlist = parse_verilog(src).unwrap();
        assert_eq!(netlist.gates()[0].kind, GateKind::Tie0);
    }

    #[test]
    fn range_wider_than_the_bound_rejected() {
        let widest = format!(
            "module t (a, z);\n input [{}:0] a;\n output z;\n assign z = a[0];\nendmodule",
            MAX_RANGE_WIDTH - 1
        );
        assert_eq!(
            parse_verilog(&widest).unwrap().primary_inputs().len() as u64,
            MAX_RANGE_WIDTH
        );
        for (msb, lsb) in [(9_999_999, 0), (0, MAX_RANGE_WIDTH as i64), (i64::MAX, 0)] {
            let src = format!("module t (a, z);\n input a;\n output z;\n wire [{msb}:{lsb}] w;\n assign z = a;\nendmodule");
            let err = parse_verilog(&src).unwrap_err();
            assert_eq!(err, NetlistError::RangeTooWide { line: 4, msb, lsb });
            let width = u128::from(msb.abs_diff(lsb)) + 1;
            assert!(err.to_string().contains(&format!("{width} bits")), "{err}");
        }
    }

    #[test]
    fn declared_bits_beyond_the_bound_rejected_before_expansion() {
        // 300 names of 2^16 bits each: 19.7M nets from a 1.8 KB source.
        let names: Vec<String> = (0..300).map(|i| format!("w{i}")).collect();
        let src = format!(
            "module t (a, z);\n input a;\n output z;\n wire [65535:0] {};\n assign z = a;\nendmodule",
            names.join(", ")
        );
        let err = parse_verilog(&src).unwrap_err();
        // The total counts the whole declaration: none of it was expanded.
        let total = 2 + 300 * MAX_RANGE_WIDTH;
        assert_eq!(err, NetlistError::TooManyDeclaredBits { line: 4, total });
        assert!(err.to_string().contains(&format!("{total} bits")), "{err}");
    }

    #[test]
    fn unknown_cell_rejected() {
        let src = "module t (a, z);\n input a;\n output z;\n WEIRD U1 (.A(a), .Z(z));\nendmodule";
        assert!(matches!(
            parse_verilog(src),
            Err(NetlistError::UnknownCell { .. })
        ));
    }

    #[test]
    fn unknown_pin_rejected() {
        let src = "module t (a, z);\n input a;\n output z;\n IV U1 (.X(a), .Z(z));\nendmodule";
        assert!(matches!(
            parse_verilog(src),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn dangling_input_pin_rejected() {
        let src = "module t (a, z);\n input a;\n output z;\n ND2 U1 (.A(a), .Z(z));\nendmodule";
        assert!(parse_verilog(src).is_err());
    }

    #[test]
    fn sequential_cells_parse() {
        let src = "module t (d, q);\n input d;\n output q;\n DFF R (.D(d), .Q(q));\nendmodule";
        let netlist = parse_verilog(src).unwrap();
        assert!(netlist.gates()[0].kind.is_sequential());
    }

    #[test]
    fn parse_error_reports_line() {
        let src = "module t (a);\n input a\n";
        match parse_verilog(src) {
            Err(NetlistError::Parse { line, .. }) => assert!(line >= 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_reports_expected_and_found() {
        // ND2 fed three inputs via positional connections.
        let src =
            "module t (a, b, c, z);\n input a, b, c;\n output z;\n ND2 U1 (a, b, c, z);\nendmodule";
        match parse_verilog(src) {
            Err(NetlistError::ArityMismatch {
                gate,
                expected,
                found,
            }) => {
                assert_eq!(gate, "U1");
                assert_eq!(expected, 2);
                assert_eq!(found, 3);
            }
            other => panic!("expected arity mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_cell_error_names_the_cell() {
        let src = "module t (a, z);\n input a;\n output z;\n BOGUS3 U1 (.A(a), .Z(z));\nendmodule";
        match parse_verilog(src) {
            Err(NetlistError::UnknownCell { cell }) => assert_eq!(cell, "BOGUS3"),
            other => panic!("expected unknown cell, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_instance_name_rejected() {
        let src = "module t (a, z);\n input a;\n output z;\n wire n1;\n \
                   IV U1 (.A(a), .Z(n1));\n IV U1 (.A(n1), .Z(z));\nendmodule";
        match parse_verilog(src) {
            Err(NetlistError::DuplicateName { name }) => assert_eq!(name, "U1"),
            other => panic!("expected duplicate name, got {other:?}"),
        }
    }

    #[test]
    fn doubly_driven_net_rejected() {
        let src = "module t (a, z);\n input a;\n output z;\n \
                   IV U1 (.A(a), .Z(z));\n BUF U2 (.A(a), .Z(z));\nendmodule";
        match parse_verilog(src) {
            Err(NetlistError::MultipleDrivers { net }) => assert_eq!(net, "z"),
            other => panic!("expected multiple drivers, got {other:?}"),
        }
    }

    #[test]
    fn malformed_statement_reports_line_number() {
        // Line 4 holds a statement that is neither a declaration, an
        // assign, nor a cell instantiation head followed by `(`.
        let src =
            "module t (a, z);\n input a;\n output z;\n IV U1 ;\n IV U2 (.A(a), .Z(z));\nendmodule";
        match parse_verilog(src) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.ends_with("found `;`"), "{message}");
                assert!(
                    !message.contains("Some(") && !message.contains("None"),
                    "{message}"
                );
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_module_rejected() {
        let src = "module t (a, z);\n input a;\n output z;\n IV U1 (.A(a), .Z(z));\n";
        match parse_verilog(src) {
            Err(NetlistError::Parse { message, .. }) => {
                assert_eq!(message, "expected statement, found end of file");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Cut inside a statement: the end of file is named there too.
        match parse_verilog("module t (a, z);\n input a;\n output z;\n IV U1 (.A(a") {
            Err(NetlistError::Parse { message, .. }) => {
                assert!(message.ends_with("found end of file"), "{message}");
                assert!(
                    !message.contains("Some(") && !message.contains("None"),
                    "{message}"
                );
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
