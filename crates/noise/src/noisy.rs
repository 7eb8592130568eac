//! Noisy circuits: a circuit plus noise events after chosen gates.
//!
//! The paper's fault-injection procedure: "Each decoherence noise is
//! appended after a randomly chosen gate in the circuit." A
//! [`NoisyCircuit`] records those insertion points explicitly so every
//! simulator (dense, trajectories, tensor network, decision diagram,
//! and the approximation algorithm) sees exactly the same noisy
//! circuit.

use crate::{Kraus, QnsError};
use qns_circuit::{Circuit, Operation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// A single noise insertion: channel `kraus` on `qubit`, applied right
/// after the gate at `after_gate` (index into the circuit's operation
/// list). `after_gate == usize::MAX` is not allowed; use index 0 with
/// `before_first = true` semantics via [`NoisyCircuit::push_initial`].
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseEvent {
    /// Index of the gate this noise follows.
    pub after_gate: usize,
    /// The qubit the channel acts on.
    pub qubit: usize,
    /// The noise channel (must be a single-qubit channel).
    pub kraus: Kraus,
}

/// One element of a noisy circuit's execution order.
#[derive(Clone, Debug)]
pub enum Element<'a> {
    /// A unitary gate application.
    Gate(&'a Operation),
    /// A noise event.
    Noise(&'a NoiseEvent),
}

/// A circuit with noise channels appended after chosen gates.
///
/// ```
/// use qns_circuit::generators::ghz;
/// use qns_noise::{channels, NoisyCircuit};
///
/// let noisy = NoisyCircuit::inject_random(
///     ghz(4),
///     &channels::depolarizing(1e-3),
///     2,    // number of noise events
///     42,   // seed
/// );
/// assert_eq!(noisy.noise_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct NoisyCircuit {
    circuit: Circuit,
    /// Noise applied before any gate runs (rarely used; kept ordered).
    initial: Vec<NoiseEvent>,
    /// Noise events sorted by `after_gate` (stable for equal indices).
    events: Vec<NoiseEvent>,
}

impl NoisyCircuit {
    /// Wraps a noiseless circuit.
    pub fn noiseless(circuit: Circuit) -> Self {
        NoisyCircuit {
            circuit,
            initial: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Builds a noisy circuit with explicit noise events.
    ///
    /// # Panics
    ///
    /// Panics if an event references a gate index or qubit out of
    /// range, or a channel that is not single-qubit. Use
    /// [`NoisyCircuit::try_new`] for a non-panicking variant.
    #[expect(
        clippy::panic,
        reason = "documented panicking wrapper of the `try_` variant"
    )]
    pub fn new(circuit: Circuit, events: Vec<NoiseEvent>) -> Self {
        Self::try_new(circuit, events).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a noisy circuit with explicit noise events, validating
    /// every event.
    ///
    /// # Errors
    ///
    /// [`QnsError::IndexOutOfRange`] if an event references a gate or
    /// qubit beyond the circuit, [`QnsError::NotSingleQubit`] if a
    /// channel is not single-qubit.
    pub fn try_new(circuit: Circuit, mut events: Vec<NoiseEvent>) -> Result<Self, QnsError> {
        for e in &events {
            if e.after_gate >= circuit.gate_count() {
                return Err(QnsError::IndexOutOfRange {
                    what: "noise after_gate",
                    index: e.after_gate,
                    limit: circuit.gate_count(),
                });
            }
            if e.qubit >= circuit.n_qubits() {
                return Err(QnsError::IndexOutOfRange {
                    what: "noise qubit",
                    index: e.qubit,
                    limit: circuit.n_qubits(),
                });
            }
            if e.kraus.dim() != 2 {
                return Err(QnsError::NotSingleQubit { dim: e.kraus.dim() });
            }
        }
        events.sort_by_key(|e| e.after_gate);
        Ok(NoisyCircuit {
            circuit,
            initial: Vec::new(),
            events,
        })
    }

    /// Injects `count` copies of `channel` after uniformly random gates
    /// (on a uniformly random qubit of each chosen gate), seeded and
    /// reproducible — the paper's fault model.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has no gates or `channel` is not
    /// single-qubit.
    pub fn inject_random(circuit: Circuit, channel: &Kraus, count: usize, seed: u64) -> Self {
        assert!(
            circuit.gate_count() > 0,
            "cannot inject into an empty circuit"
        );
        assert_eq!(channel.dim(), 2, "noise channels must be single-qubit");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let g = rng.random_range(0..circuit.gate_count());
            let qubits = &circuit.operations()[g].qubits;
            let q = qubits[rng.random_range(0..qubits.len())];
            events.push(NoiseEvent {
                after_gate: g,
                qubit: q,
                kraus: channel.clone(),
            });
        }
        NoisyCircuit::new(circuit, events)
    }

    /// Adds a noise event applied before the first gate.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range or the channel is not
    /// single-qubit. Use [`NoisyCircuit::try_push_initial`] for a
    /// non-panicking variant.
    #[expect(
        clippy::panic,
        reason = "documented panicking wrapper of the `try_` variant"
    )]
    pub fn push_initial(&mut self, qubit: usize, kraus: Kraus) -> &mut Self {
        self.try_push_initial(qubit, kraus)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a noise event applied before the first gate, validating it.
    ///
    /// # Errors
    ///
    /// [`QnsError::IndexOutOfRange`] for a bad qubit,
    /// [`QnsError::NotSingleQubit`] for a multi-qubit channel.
    pub fn try_push_initial(&mut self, qubit: usize, kraus: Kraus) -> Result<&mut Self, QnsError> {
        if qubit >= self.circuit.n_qubits() {
            return Err(QnsError::IndexOutOfRange {
                what: "initial-noise qubit",
                index: qubit,
                limit: self.circuit.n_qubits(),
            });
        }
        if kraus.dim() != 2 {
            return Err(QnsError::NotSingleQubit { dim: kraus.dim() });
        }
        self.initial.push(NoiseEvent {
            after_gate: 0,
            qubit,
            kraus,
        });
        Ok(self)
    }

    /// The underlying circuit.
    #[inline]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.circuit.n_qubits()
    }

    /// The noise events following gates, sorted by gate index.
    #[inline]
    pub fn events(&self) -> &[NoiseEvent] {
        &self.events
    }

    /// The noise events preceding the first gate.
    #[inline]
    pub fn initial_events(&self) -> &[NoiseEvent] {
        &self.initial
    }

    /// Total number of noise events.
    #[inline]
    pub fn noise_count(&self) -> usize {
        self.initial.len() + self.events.len()
    }

    /// The largest noise rate among all events (the paper's `p`).
    pub fn max_noise_rate(&self) -> f64 {
        self.initial
            .iter()
            .chain(&self.events)
            .map(|e| e.kraus.noise_rate())
            .fold(0.0, f64::max)
    }

    /// The interleaved execution order: initial noise, then each gate
    /// followed by its attached noise events.
    pub fn elements(&self) -> Vec<Element<'_>> {
        let mut out =
            Vec::with_capacity(self.initial.len() + self.circuit.gate_count() + self.events.len());
        for e in &self.initial {
            out.push(Element::Noise(e));
        }
        let mut ev = self.events.iter().peekable();
        for (g, op) in self.circuit.operations().iter().enumerate() {
            out.push(Element::Gate(op));
            while let Some(e) = ev.peek() {
                if e.after_gate == g {
                    out.push(Element::Noise(e));
                    ev.next();
                } else {
                    break;
                }
            }
        }
        out
    }

    /// Replaces every noise channel, keeping positions (useful for
    /// noise-rate sweeps over a fixed fault pattern).
    pub fn with_channel(&self, channel: &Kraus) -> NoisyCircuit {
        assert_eq!(channel.dim(), 2, "noise channels must be single-qubit");
        let mut out = self.clone();
        for e in out.initial.iter_mut().chain(out.events.iter_mut()) {
            e.kraus = channel.clone();
        }
        out
    }
}

impl fmt::Display for NoisyCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NoisyCircuit({} qubits, {} gates, {} noises)",
            self.n_qubits(),
            self.circuit.gate_count(),
            self.noise_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels;
    use qns_circuit::generators::ghz;

    #[test]
    fn injection_is_reproducible() {
        let a = NoisyCircuit::inject_random(ghz(5), &channels::depolarizing(0.01), 3, 9);
        let b = NoisyCircuit::inject_random(ghz(5), &channels::depolarizing(0.01), 3, 9);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn injection_respects_count_and_targets() {
        let noisy = NoisyCircuit::inject_random(ghz(6), &channels::bit_flip(0.1), 10, 1);
        assert_eq!(noisy.noise_count(), 10);
        for e in noisy.events() {
            assert!(e.after_gate < noisy.circuit().gate_count());
            // Every noise sits on a qubit the chosen gate touches.
            let op = &noisy.circuit().operations()[e.after_gate];
            assert!(op.qubits.contains(&e.qubit));
        }
    }

    #[test]
    fn elements_interleave_in_order() {
        let c = ghz(3); // 3 gates
        let events = vec![
            NoiseEvent {
                after_gate: 0,
                qubit: 0,
                kraus: channels::bit_flip(0.1),
            },
            NoiseEvent {
                after_gate: 2,
                qubit: 2,
                kraus: channels::bit_flip(0.1),
            },
        ];
        let noisy = NoisyCircuit::new(c, events);
        let kinds: Vec<&str> = noisy
            .elements()
            .iter()
            .map(|e| match e {
                Element::Gate(_) => "G",
                Element::Noise(_) => "N",
            })
            .collect();
        assert_eq!(kinds, vec!["G", "N", "G", "G", "N"]);
    }

    #[test]
    fn multiple_noises_after_same_gate_preserved() {
        let c = ghz(3);
        let mk = |q| NoiseEvent {
            after_gate: 1,
            qubit: q,
            kraus: channels::phase_flip(0.2),
        };
        let noisy = NoisyCircuit::new(c, vec![mk(1), mk(2)]);
        assert_eq!(noisy.noise_count(), 2);
        let kinds: Vec<&str> = noisy
            .elements()
            .iter()
            .map(|e| match e {
                Element::Gate(_) => "G",
                Element::Noise(_) => "N",
            })
            .collect();
        assert_eq!(kinds, vec!["G", "G", "N", "N", "G"]);
    }

    #[test]
    fn with_channel_swaps_all_channels() {
        let noisy = NoisyCircuit::inject_random(ghz(4), &channels::bit_flip(0.5), 4, 3);
        let swapped = noisy.with_channel(&channels::depolarizing(1e-3));
        assert_eq!(swapped.noise_count(), 4);
        assert!(swapped.max_noise_rate() < 0.01);
        // positions unchanged
        for (a, b) in noisy.events().iter().zip(swapped.events()) {
            assert_eq!(a.after_gate, b.after_gate);
            assert_eq!(a.qubit, b.qubit);
        }
    }

    #[test]
    fn max_noise_rate_reflects_strongest_event() {
        let c = ghz(3);
        let events = vec![
            NoiseEvent {
                after_gate: 0,
                qubit: 0,
                kraus: channels::depolarizing(1e-4),
            },
            NoiseEvent {
                after_gate: 1,
                qubit: 1,
                kraus: channels::depolarizing(1e-2),
            },
        ];
        let noisy = NoisyCircuit::new(c, events);
        let rate = noisy.max_noise_rate();
        assert!((rate - channels::depolarizing(1e-2).noise_rate()).abs() < 1e-12);
    }

    #[test]
    fn try_new_reports_structured_errors() {
        let bad_gate = NoisyCircuit::try_new(
            ghz(3),
            vec![NoiseEvent {
                after_gate: 99,
                qubit: 0,
                kraus: channels::bit_flip(0.1),
            }],
        );
        assert!(matches!(
            bad_gate,
            Err(QnsError::IndexOutOfRange {
                what: "noise after_gate",
                index: 99,
                ..
            })
        ));

        let bad_qubit = NoisyCircuit::try_new(
            ghz(3),
            vec![NoiseEvent {
                after_gate: 0,
                qubit: 7,
                kraus: channels::bit_flip(0.1),
            }],
        );
        assert!(matches!(
            bad_qubit,
            Err(QnsError::IndexOutOfRange {
                what: "noise qubit",
                ..
            })
        ));

        let ok = NoisyCircuit::try_new(ghz(3), Vec::new());
        assert!(ok.is_ok());
    }

    #[test]
    fn try_push_initial_validates_qubit() {
        let mut noisy = NoisyCircuit::noiseless(ghz(3));
        let err = noisy
            .try_push_initial(9, channels::bit_flip(0.1))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, QnsError::IndexOutOfRange { .. }));
        assert_eq!(noisy.noise_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn event_past_end_panics() {
        let _ = NoisyCircuit::new(
            ghz(3),
            vec![NoiseEvent {
                after_gate: 99,
                qubit: 0,
                kraus: channels::bit_flip(0.1),
            }],
        );
    }

    #[test]
    fn initial_noise_comes_first() {
        let mut noisy = NoisyCircuit::noiseless(ghz(3));
        noisy.push_initial(1, channels::amplitude_damping(0.2));
        let first = &noisy.elements()[0];
        assert!(matches!(first, Element::Noise(_)));
    }
}
