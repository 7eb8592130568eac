//! Canonical job fingerprinting.
//!
//! A [`Fingerprint`] is a stable 128-bit structural hash of everything
//! that determines an [`ExpectationJob`](crate::ExpectationJob)'s
//! answer: the circuit's gates (including rotation angles and custom
//! matrices), every noise channel and its insertion point, the initial
//! state and the observable projector. Two jobs built independently
//! from structurally identical inputs hash equal, so a serving layer
//! can use the fingerprint as a cache / dedup key without holding the
//! jobs themselves.
//!
//! The hash is FNV-1a over a canonical byte encoding with explicit
//! domain-separation tags. It is **not** cryptographic — it defends
//! against accidental collisions (128-bit space), not adversaries —
//! and it is **structural**: the same circuit built through a
//! different gate decomposition hashes differently even when the
//! unitaries coincide.

use qns_circuit::{Circuit, Gate, Operation};
use qns_linalg::{Complex64, Matrix};
use qns_noise::{NoiseEvent, NoisyCircuit};
use qns_tnet::builder::ProductState;

/// A stable 128-bit structural hash of a job (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Folds extra context (e.g. a routing policy, an options string)
    /// into the fingerprint, returning the combined fingerprint.
    /// Mixing is order-sensitive: `a.mix_str(x).mix_str(y)` differs
    /// from `a.mix_str(y).mix_str(x)`.
    pub fn mix_str(self, s: &str) -> Fingerprint {
        let mut h = Fingerprinter { state: self.0 };
        h.write_str(s);
        h.finish()
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental FNV-1a (128-bit) writer with typed helpers, used to
/// build [`Fingerprint`]s over canonical byte encodings.
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    state: u128,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprinter {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprinter { state: FNV_OFFSET }
    }

    /// Hashes raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Hashes a 64-bit integer (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hashes a `usize` via its 64-bit value.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Hashes a float by its exact bit pattern (structural: `-0.0` and
    /// `0.0` hash differently).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Hashes a string as length + UTF-8 bytes (length-prefixing keeps
    /// concatenations unambiguous).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Hashes a complex number (real then imaginary bits).
    pub fn write_complex(&mut self, c: Complex64) {
        self.write_f64(c.re);
        self.write_f64(c.im);
    }

    /// The accumulated fingerprint. The hasher can keep writing.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

fn write_matrix(h: &mut Fingerprinter, m: &Matrix) {
    h.write_usize(m.rows());
    h.write_usize(m.cols());
    for c in m.as_slice() {
        h.write_complex(*c);
    }
}

/// Every gate variant gets a fixed tag so renames/reorders in the enum
/// cannot silently change fingerprints.
fn write_gate(h: &mut Fingerprinter, g: &Gate) {
    use Gate::*;
    match g {
        H => h.write_u8(0),
        X => h.write_u8(1),
        Y => h.write_u8(2),
        Z => h.write_u8(3),
        S => h.write_u8(4),
        Sdg => h.write_u8(5),
        T => h.write_u8(6),
        Tdg => h.write_u8(7),
        SqrtX => h.write_u8(8),
        SqrtY => h.write_u8(9),
        SqrtW => h.write_u8(10),
        Rx(t) => {
            h.write_u8(11);
            h.write_f64(*t);
        }
        Ry(t) => {
            h.write_u8(12);
            h.write_f64(*t);
        }
        Rz(t) => {
            h.write_u8(13);
            h.write_f64(*t);
        }
        Phase(t) => {
            h.write_u8(14);
            h.write_f64(*t);
        }
        Custom1(m) => {
            h.write_u8(15);
            write_matrix(h, m);
        }
        CZ => h.write_u8(16),
        CX => h.write_u8(17),
        CPhase(t) => {
            h.write_u8(18);
            h.write_f64(*t);
        }
        CU(m) => {
            h.write_u8(19);
            write_matrix(h, m);
        }
        ISwap => h.write_u8(20),
        FSim(t, p) => {
            h.write_u8(21);
            h.write_f64(*t);
            h.write_f64(*p);
        }
        Givens(t) => {
            h.write_u8(22);
            h.write_f64(*t);
        }
        ZZ(t) => {
            h.write_u8(23);
            h.write_f64(*t);
        }
        Custom2(m) => {
            h.write_u8(24);
            write_matrix(h, m);
        }
    }
}

fn write_operation(h: &mut Fingerprinter, op: &Operation) {
    write_gate(h, &op.gate);
    h.write_usize(op.qubits.len());
    for &q in &op.qubits {
        h.write_usize(q);
    }
}

fn write_circuit(h: &mut Fingerprinter, c: &Circuit) {
    h.write_str("circuit");
    h.write_usize(c.n_qubits());
    h.write_usize(c.gate_count());
    for op in c.operations() {
        write_operation(h, op);
    }
}

fn write_noise_event(h: &mut Fingerprinter, e: &NoiseEvent) {
    h.write_usize(e.after_gate);
    h.write_usize(e.qubit);
    h.write_usize(e.kraus.len());
    for op in e.kraus.operators() {
        write_matrix(h, op);
    }
}

fn write_product_state(h: &mut Fingerprinter, tag: &str, s: &ProductState) {
    h.write_str(tag);
    h.write_usize(s.n_qubits());
    for q in 0..s.n_qubits() {
        let [a, b] = s.factor(q);
        h.write_complex(a);
        h.write_complex(b);
    }
}

/// Fingerprints the full job: circuit, noise, input state, observable.
pub(crate) fn fingerprint_job(
    noisy: &NoisyCircuit,
    initial: &ProductState,
    observable: &ProductState,
) -> Fingerprint {
    let mut h = Fingerprinter::new();
    h.write_str("qns/job/v1");
    write_circuit(&mut h, noisy.circuit());
    h.write_str("noise/initial");
    h.write_usize(noisy.initial_events().len());
    for e in noisy.initial_events() {
        write_noise_event(&mut h, e);
    }
    h.write_str("noise/events");
    h.write_usize(noisy.events().len());
    for e in noisy.events() {
        write_noise_event(&mut h, e);
    }
    write_product_state(&mut h, "initial", initial);
    write_product_state(&mut h, "observable", observable);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Simulation;
    use qns_circuit::generators::ghz;
    use qns_noise::channels;

    fn fp(noisy: &NoisyCircuit, bits: usize) -> Fingerprint {
        Simulation::new(noisy)
            .observable_basis(bits)
            .build()
            .unwrap()
            .fingerprint()
    }

    #[test]
    fn identical_rebuilt_jobs_hash_equal() {
        // Two fully independent constructions of the same job.
        let a = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-3), 2, 7);
        let b = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-3), 2, 7);
        assert_eq!(fp(&a, 0b1111), fp(&b, 0b1111));
    }

    #[test]
    fn every_ingredient_perturbs_the_hash() {
        let base = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-3), 2, 7);
        let h0 = fp(&base, 0);

        // Different observable.
        assert_ne!(h0, fp(&base, 0b0001));
        // Different initial state.
        let job = Simulation::new(&base)
            .initial_basis(0b1000)
            .build()
            .unwrap();
        assert_ne!(h0, job.fingerprint());
        // Different channel at the same positions.
        let swapped = base.with_channel(&channels::depolarizing(2e-3));
        assert_ne!(h0, fp(&swapped, 0));
        // Different noise positions (seed).
        let moved = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-3), 2, 8);
        assert_ne!(h0, fp(&moved, 0));
        // Different circuit.
        let bigger = NoisyCircuit::inject_random(ghz(5), &channels::depolarizing(1e-3), 2, 7);
        assert_ne!(h0, fp(&bigger, 0));
    }

    #[test]
    fn rotation_angles_are_part_of_the_hash() {
        let mut a = qns_circuit::Circuit::new(2);
        a.h(0).rz(1, 0.5);
        let mut b = qns_circuit::Circuit::new(2);
        b.h(0).rz(1, 0.5000001);
        let fa = fp(&NoisyCircuit::noiseless(a), 0);
        let fb = fp(&NoisyCircuit::noiseless(b), 0);
        assert_ne!(fa, fb);
    }

    #[test]
    fn mixing_is_order_sensitive_and_deterministic() {
        let noisy = NoisyCircuit::noiseless(ghz(3));
        let f = fp(&noisy, 0);
        assert_eq!(f.mix_str("a").mix_str("b"), f.mix_str("a").mix_str("b"));
        assert_ne!(f.mix_str("a").mix_str("b"), f.mix_str("b").mix_str("a"));
        assert_ne!(f.mix_str("x"), f);
    }

    #[test]
    fn display_is_stable_hex() {
        let noisy = NoisyCircuit::noiseless(ghz(3));
        let s = fp(&noisy, 0).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(s, fp(&noisy, 0).to_string());
    }
}
