//! Error types for netlist construction, validation and parsing.

use std::error::Error;
use std::fmt;

/// Errors produced while building, validating, parsing or writing netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net was driven by more than one source.
    MultipleDrivers {
        /// Name of the multiply-driven net.
        net: String,
    },
    /// A net is referenced but never driven by a gate or primary input.
    UndrivenNet {
        /// Name of the floating net.
        net: String,
    },
    /// A gate was instantiated with the wrong number of input connections.
    ArityMismatch {
        /// Instance name of the offending gate.
        gate: String,
        /// Number of inputs the cell requires.
        expected: usize,
        /// Number of inputs that were connected.
        found: usize,
    },
    /// The combinational portion of the netlist contains a cycle.
    CombinationalLoop {
        /// Instance name of a gate on the cycle.
        gate: String,
    },
    /// A name (net or gate instance) was declared twice.
    DuplicateName {
        /// The colliding identifier.
        name: String,
    },
    /// A referenced name does not exist in the design.
    UnknownName {
        /// The unresolved identifier.
        name: String,
    },
    /// Parsing a structural-Verilog source failed.
    Parse {
        /// 1-based line where the failure occurred.
        line: usize,
        /// Human-readable description of the failure.
        message: String,
    },
    /// A declaration's `[msb:lsb]` range is wider than
    /// [`crate::parser::MAX_RANGE_WIDTH`] bits.
    RangeTooWide {
        /// 1-based line of the range.
        line: usize,
        /// Most significant index as written.
        msb: i64,
        /// Least significant index as written.
        lsb: i64,
    },
    /// A module's declarations expand to more than
    /// [`crate::parser::MAX_DECLARED_BITS`] bits in total.
    TooManyDeclaredBits {
        /// 1-based line of the declaration that crosses the bound.
        line: usize,
        /// Bits declared up to and including that declaration.
        total: u64,
    },
    /// A cell type in the source text is not part of the gate library.
    UnknownCell {
        /// The unresolved cell identifier.
        cell: String,
    },
    /// The design has no primary outputs, so no fault can ever be observed.
    NoOutputs,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net `{net}` has multiple drivers")
            }
            NetlistError::UndrivenNet { net } => write!(f, "net `{net}` is never driven"),
            NetlistError::ArityMismatch {
                gate,
                expected,
                found,
            } => write!(
                f,
                "gate `{gate}` expects {expected} inputs but {found} were connected"
            ),
            NetlistError::CombinationalLoop { gate } => {
                write!(f, "combinational loop through gate `{gate}`")
            }
            NetlistError::DuplicateName { name } => {
                write!(f, "identifier `{name}` declared more than once")
            }
            NetlistError::UnknownName { name } => write!(f, "unknown identifier `{name}`"),
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::RangeTooWide { line, msb, lsb } => write!(
                f,
                "parse error at line {line}: range [{msb}:{lsb}] declares {} bits, \
                 more than the {} a declaration may hold",
                u128::from(msb.abs_diff(*lsb)) + 1,
                crate::parser::MAX_RANGE_WIDTH
            ),
            NetlistError::TooManyDeclaredBits { line, total } => write!(
                f,
                "parse error at line {line}: declarations reach {total} bits, \
                 more than the {} a module may declare",
                crate::parser::MAX_DECLARED_BITS
            ),
            NetlistError::UnknownCell { cell } => {
                write!(f, "cell `{cell}` is not in the gate library")
            }
            NetlistError::NoOutputs => write!(f, "design has no primary outputs"),
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = NetlistError::MultipleDrivers {
            net: "n42".to_string(),
        };
        let text = err.to_string();
        assert!(text.contains("n42"));
        assert!(text.chars().next().map(char::is_lowercase).unwrap_or(false));
    }

    #[test]
    fn arity_mismatch_reports_counts() {
        let err = NetlistError::ArityMismatch {
            gate: "U7".to_string(),
            expected: 2,
            found: 3,
        };
        let text = err.to_string();
        assert!(text.contains('2') && text.contains('3') && text.contains("U7"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
