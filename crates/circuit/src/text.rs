//! A plain-text circuit format (QASM-flavoured, one operation per
//! line) for dumping and loading benchmark circuits.
//!
//! ```text
//! qubits 3
//! h 0
//! cx 0 1
//! rz 2 0.785398163
//! zz 1 2 0.4
//! ```
//!
//! Gate mnemonics are lowercase ASCII (`sdg`/`tdg` for the adjoint
//! phase gates, `sx`/`sy`/`sw` for the square-root gates). Gates with
//! embedded custom matrices (`Custom1`, `Custom2`, `CU`) have no text
//! form and fail to serialize.

use crate::{Circuit, Gate};
use std::fmt;

/// Error produced when parsing or serializing the text format.
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitTextError {
    /// 1-based line number (0 for serialization errors).
    pub line: usize,
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for CircuitTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "circuit text error: {}", self.message)
        } else {
            write!(
                f,
                "circuit text error at line {}: {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for CircuitTextError {}

fn err(line: usize, message: impl Into<String>) -> CircuitTextError {
    CircuitTextError {
        line,
        message: message.into(),
    }
}

/// Serializes a circuit to the text format.
///
/// # Errors
///
/// Fails when the circuit contains a gate without a text form
/// (`Custom1`, `Custom2`, `CU`).
pub fn to_text(circuit: &Circuit) -> Result<String, CircuitTextError> {
    let mut out = format!("qubits {}\n", circuit.n_qubits());
    for op in circuit.operations() {
        let qubits: Vec<String> = op.qubits.iter().map(|q| q.to_string()).collect();
        let q = qubits.join(" ");
        let line = match &op.gate {
            Gate::H => format!("h {q}"),
            Gate::X => format!("x {q}"),
            Gate::Y => format!("y {q}"),
            Gate::Z => format!("z {q}"),
            Gate::S => format!("s {q}"),
            Gate::Sdg => format!("sdg {q}"),
            Gate::T => format!("t {q}"),
            Gate::Tdg => format!("tdg {q}"),
            Gate::SqrtX => format!("sx {q}"),
            Gate::SqrtY => format!("sy {q}"),
            Gate::SqrtW => format!("sw {q}"),
            Gate::Rx(a) => format!("rx {q} {a:.17e}"),
            Gate::Ry(a) => format!("ry {q} {a:.17e}"),
            Gate::Rz(a) => format!("rz {q} {a:.17e}"),
            Gate::Phase(a) => format!("phase {q} {a:.17e}"),
            Gate::CZ => format!("cz {q}"),
            Gate::CX => format!("cx {q}"),
            Gate::CPhase(a) => format!("cphase {q} {a:.17e}"),
            Gate::ISwap => format!("iswap {q}"),
            Gate::FSim(a, b) => format!("fsim {q} {a:.17e} {b:.17e}"),
            Gate::Givens(a) => format!("givens {q} {a:.17e}"),
            Gate::ZZ(a) => format!("zz {q} {a:.17e}"),
            Gate::Custom1(_) | Gate::Custom2(_) | Gate::CU(_) => {
                return Err(err(
                    0,
                    format!("gate {} has no text representation", op.gate.name()),
                ))
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

/// Parses the text format into a circuit.
///
/// Blank lines and `#` comments are ignored. The first non-comment
/// line must be `qubits N`.
///
/// # Errors
///
/// Fails with line-level diagnostics on any malformed input.
pub fn from_text(text: &str) -> Result<Circuit, CircuitTextError> {
    let mut circuit: Option<Circuit> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if circuit.is_none() {
            if tokens.len() != 2 || tokens[0] != "qubits" {
                return Err(err(lineno, "expected header `qubits N`"));
            }
            let n: usize = tokens[1]
                .parse()
                .map_err(|_| err(lineno, "invalid qubit count"))?;
            if n == 0 {
                return Err(err(lineno, "qubit count must be positive"));
            }
            circuit = Some(Circuit::new(n));
            continue;
        }
        #[expect(
            clippy::expect_used,
            reason = "the loop `continue`s until the header has set `circuit`"
        )]
        let c = circuit.as_mut().expect("header parsed");
        let name = tokens[0];
        let parse_q = |tok: &str| -> Result<usize, CircuitTextError> {
            tok.parse()
                .map_err(|_| err(lineno, format!("invalid qubit `{tok}`")))
        };
        let parse_a = |tok: &str| -> Result<f64, CircuitTextError> {
            tok.parse()
                .map_err(|_| err(lineno, format!("invalid angle `{tok}`")))
        };
        let expect_args = |want: usize| -> Result<(), CircuitTextError> {
            if tokens.len() - 1 == want {
                Ok(())
            } else {
                Err(err(
                    lineno,
                    format!(
                        "`{name}` expects {want} arguments, got {}",
                        tokens.len() - 1
                    ),
                ))
            }
        };

        let (gate, qubits): (Gate, Vec<usize>) = match name {
            "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" | "sx" | "sy" | "sw" => {
                expect_args(1)?;
                let g = match name {
                    "h" => Gate::H,
                    "x" => Gate::X,
                    "y" => Gate::Y,
                    "z" => Gate::Z,
                    "s" => Gate::S,
                    "sdg" => Gate::Sdg,
                    "t" => Gate::T,
                    "tdg" => Gate::Tdg,
                    "sx" => Gate::SqrtX,
                    "sy" => Gate::SqrtY,
                    _ => Gate::SqrtW,
                };
                (g, vec![parse_q(tokens[1])?])
            }
            "rx" | "ry" | "rz" | "phase" => {
                expect_args(2)?;
                let a = parse_a(tokens[2])?;
                let g = match name {
                    "rx" => Gate::Rx(a),
                    "ry" => Gate::Ry(a),
                    "rz" => Gate::Rz(a),
                    _ => Gate::Phase(a),
                };
                (g, vec![parse_q(tokens[1])?])
            }
            "cz" | "cx" | "iswap" => {
                expect_args(2)?;
                let g = match name {
                    "cz" => Gate::CZ,
                    "cx" => Gate::CX,
                    _ => Gate::ISwap,
                };
                (g, vec![parse_q(tokens[1])?, parse_q(tokens[2])?])
            }
            "cphase" | "givens" | "zz" => {
                expect_args(3)?;
                let a = parse_a(tokens[3])?;
                let g = match name {
                    "cphase" => Gate::CPhase(a),
                    "givens" => Gate::Givens(a),
                    _ => Gate::ZZ(a),
                };
                (g, vec![parse_q(tokens[1])?, parse_q(tokens[2])?])
            }
            "fsim" => {
                expect_args(4)?;
                (
                    Gate::FSim(parse_a(tokens[3])?, parse_a(tokens[4])?),
                    vec![parse_q(tokens[1])?, parse_q(tokens[2])?],
                )
            }
            other => return Err(err(lineno, format!("unknown gate `{other}`"))),
        };
        for &q in &qubits {
            if q >= c.n_qubits() {
                return Err(err(lineno, format!("qubit {q} out of range")));
            }
        }
        if qubits.len() == 2 && qubits[0] == qubits[1] {
            return Err(err(lineno, "two-qubit gate on identical qubits"));
        }
        c.apply(gate, &qubits);
    }
    circuit.ok_or_else(|| err(0, "empty input (missing `qubits N` header)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ghz, inst_grid, qaoa_grid_random};

    #[test]
    fn round_trip_ghz() {
        let c = ghz(4);
        let text = to_text(&c).unwrap();
        let back = from_text(&text).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn round_trip_qaoa_with_angles() {
        let c = qaoa_grid_random(2, 3, 2, 5);
        let back = from_text(&to_text(&c).unwrap()).unwrap();
        assert_eq!(c.gate_count(), back.gate_count());
        // Angles survive with full precision: unitaries agree.
        assert!(c.unitary().approx_eq(&back.unitary(), 1e-12));
    }

    #[test]
    fn round_trip_supremacy() {
        let c = inst_grid(2, 3, 6, 9);
        let back = from_text(&to_text(&c).unwrap()).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\nqubits 2\nh 0 # trailing\n\ncx 0 1\n";
        let c = from_text(text).unwrap();
        assert_eq!(c.gate_count(), 2);
    }

    #[test]
    fn missing_header_is_an_error() {
        let e = from_text("h 0\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("qubits"));
    }

    #[test]
    fn unknown_gate_reports_line() {
        let e = from_text("qubits 2\nh 0\nfoo 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("foo"));
    }

    #[test]
    fn out_of_range_qubit_reports_line() {
        let e = from_text("qubits 2\ncx 0 5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn wrong_arity_reports_line() {
        let e = from_text("qubits 2\nrx 0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expects 2"));
    }

    #[test]
    fn duplicate_qubits_rejected() {
        let e = from_text("qubits 2\ncz 1 1\n").unwrap_err();
        assert!(e.message.contains("identical"));
    }

    #[test]
    fn custom_gate_fails_to_serialize() {
        let mut c = Circuit::new(1);
        c.apply(Gate::Custom1(Box::new(Gate::H.matrix())), &[0]);
        assert!(to_text(&c).is_err());
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(from_text("").is_err());
        assert!(from_text("# only comments\n").is_err());
    }

    #[test]
    fn error_display_includes_line() {
        let e = from_text("qubits 2\nbad 0\n").unwrap_err();
        let s = e.to_string();
        assert!(s.contains("line 2"), "{s}");
    }
}
