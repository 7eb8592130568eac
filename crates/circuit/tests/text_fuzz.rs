//! Adversarial input for the circuit text parser: `from_text` takes
//! files from outside the program, so whatever the bytes say it must
//! return `Ok` or `Err`, never panic. Every circuit it accepts must
//! survive a `to_text` → `from_text` round trip unchanged.

use proptest::prelude::*;
use qns_circuit::text::{from_text, to_text};

/// Every mnemonic the parser knows.
const GATES: &[&str] = &[
    "h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "sy", "sw", "rx", "ry", "rz", "phase", "cz",
    "cx", "iswap", "cphase", "givens", "zz", "fsim",
];

/// Near misses: a repeated header, wrong case, unknown gates.
const NOT_GATES: &[&str] = &["qubits", "H", "CX", "u3", "foo", "#"];

/// Qubit tokens: in range, out of range, negative, past `usize::MAX`,
/// and not integers at all.
const QUBITS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "64",
    "-1",
    "+1",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "1.5",
    "0x1",
    "q0",
];

/// Angle tokens that parse: finite, non-finite, overflowing to `inf`
/// and underflowing to zero.
const ANGLES: &[&str] = &[
    "0",
    "-0",
    "0.5",
    "-3.25",
    "6.283185307179586",
    "nan",
    "NaN",
    "-nan",
    "inf",
    "-inf",
    "infinity",
    "1e999",
    "-1e999",
    "1e-400",
];

/// Angle tokens that do not parse.
const BAD_ANGLES: &[&str] = &["1e", ".", "0x10", "--1", ""];

/// Header lines: valid, zero, negative, huge, malformed or repeated.
const HEADERS: &[&str] = &[
    "qubits 1",
    "qubits 3",
    "qubits 0",
    "qubits -2",
    "qubits 18446744073709551615",
    "qubits 18446744073709551616",
    "qubits",
    "qubits 3 4",
    "qubits x",
    "QUBITS 3",
    "qubits 3\nqubits 3",
    "# no header",
    "",
];

const MAX_LINES: usize = 8;
const MAX_ARGS: usize = 5;

fn pick(list: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..list.len()).prop_map(move |i| list[i])
}

/// Any token the parser might meet.
fn any_token() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        pick(GATES),
        pick(NOT_GATES),
        pick(QUBITS),
        pick(ANGLES),
        pick(BAD_ANGLES)
    ]
}

/// A gate line of random mnemonic and arity, with an optional
/// trailing comment.
fn soup_line() -> impl Strategy<Value = String> {
    (
        any_token(),
        0..MAX_ARGS + 1,
        proptest::collection::vec(any_token(), MAX_ARGS),
        0u8..4,
    )
        .prop_map(|(name, argc, args, comment)| {
            let mut line = std::iter::once(name)
                .chain(args[..argc].iter().copied())
                .collect::<Vec<_>>()
                .join(" ");
            if comment == 0 {
                line.push_str(" # trailing 1 2");
            }
            line
        })
}

/// A well-formed gate line: the gate's own arity, two distinct qubits
/// in `0..4` and angles that parse, non-finite ones included.
fn shaped_line() -> impl Strategy<Value = String> {
    (
        pick(GATES),
        0usize..4,
        1usize..4,
        pick(ANGLES),
        pick(ANGLES),
    )
        .prop_map(|(name, q0, step, a0, a1)| {
            let q1 = (q0 + step) % 4;
            match name {
                "rx" | "ry" | "rz" | "phase" => format!("{name} {q0} {a0}"),
                "cz" | "cx" | "iswap" => format!("{name} {q0} {q1}"),
                "cphase" | "givens" | "zz" => format!("{name} {q0} {q1} {a0}"),
                "fsim" => format!("{name} {q0} {q1} {a0} {a1}"),
                _ => format!("{name} {q0}"),
            }
        })
}

/// Parses `text` and checks the contract: no panic (the test would
/// fail), an error names a real line, and an accepted circuit
/// round-trips. Returns whether the text was accepted.
fn check(text: &str) -> Result<bool, TestCaseError> {
    match from_text(text) {
        Ok(circuit) => {
            let dumped = to_text(&circuit)
                .map_err(|e| TestCaseError::fail(format!("parsed circuit fails to dump: {e}")))?;
            let back = from_text(&dumped)
                .map_err(|e| TestCaseError::fail(format!("dump fails to parse: {e}\n{dumped}")))?;
            prop_assert_eq!(back.n_qubits(), circuit.n_qubits());
            prop_assert_eq!(back.gate_count(), circuit.gate_count());
            // Text equality also covers NaN angles, which `==` on the
            // circuits would not.
            prop_assert_eq!(to_text(&back).ok(), Some(dumped));
            Ok(true)
        }
        Err(e) => {
            prop_assert!(
                e.line <= text.lines().count(),
                "error line {} past the end of {text:?}",
                e.line
            );
            Ok(false)
        }
    }
}

fn document(header: &str, lines: &[String], len: usize) -> String {
    let mut text = header.to_string();
    for line in &lines[..len] {
        text.push('\n');
        text.push_str(line);
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_soup_never_panics(
        header in pick(HEADERS),
        len in 0..MAX_LINES + 1,
        lines in proptest::collection::vec(soup_line(), MAX_LINES),
    ) {
        check(&document(header, &lines, len))?;
    }

    /// Well-formed documents are all accepted, so the round trip runs
    /// on every case, including NaN, infinite and underflowing angles
    /// and a `usize::MAX` qubit count.
    #[test]
    fn well_formed_documents_parse_and_round_trip(
        header in prop_oneof![Just("qubits 4"), Just("qubits 18446744073709551615")],
        len in 0..MAX_LINES + 1,
        lines in proptest::collection::vec(shaped_line(), MAX_LINES),
    ) {
        let text = document(header, &lines, len);
        prop_assert!(check(&text)?, "rejected well-formed document {text:?}");
    }
}
