//! Standard single-qubit noise channels.
//!
//! All constructors return CPTP [`Kraus`] channels on one qubit. The
//! realistic superconducting decoherence model of the paper's fault
//! injection is [`thermal_relaxation`].

use crate::Kraus;
use qns_circuit::Gate;
use qns_linalg::{cr, Matrix};

/// Depolarizing channel
/// `E(ρ) = (1−p)ρ + p/3 (XρX + YρY + ZρZ)` (paper, Section IV).
///
/// # Panics
///
/// Panics unless `0 ≤ p ≤ 1`.
pub fn depolarizing(p: f64) -> Kraus {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let s0 = (1.0 - p).sqrt();
    let s = (p / 3.0).sqrt();
    Kraus::new(vec![
        Matrix::identity(2).scale(cr(s0)),
        Gate::X.matrix().scale(cr(s)),
        Gate::Y.matrix().scale(cr(s)),
        Gate::Z.matrix().scale(cr(s)),
    ])
}

/// Bit-flip channel `E(ρ) = (1−p)ρ + p·XρX`.
///
/// # Panics
///
/// Panics unless `0 ≤ p ≤ 1`.
pub fn bit_flip(p: f64) -> Kraus {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    Kraus::new(vec![
        Matrix::identity(2).scale(cr((1.0 - p).sqrt())),
        Gate::X.matrix().scale(cr(p.sqrt())),
    ])
}

/// Phase-flip channel `E(ρ) = (1−p)ρ + p·ZρZ`.
///
/// # Panics
///
/// Panics unless `0 ≤ p ≤ 1`.
pub fn phase_flip(p: f64) -> Kraus {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    Kraus::new(vec![
        Matrix::identity(2).scale(cr((1.0 - p).sqrt())),
        Gate::Z.matrix().scale(cr(p.sqrt())),
    ])
}

/// Bit-phase-flip channel `E(ρ) = (1−p)ρ + p·YρY`.
///
/// # Panics
///
/// Panics unless `0 ≤ p ≤ 1`.
pub fn bit_phase_flip(p: f64) -> Kraus {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    Kraus::new(vec![
        Matrix::identity(2).scale(cr((1.0 - p).sqrt())),
        Gate::Y.matrix().scale(cr(p.sqrt())),
    ])
}

/// General Pauli channel
/// `E(ρ) = (1−px−py−pz)ρ + px·XρX + py·YρY + pz·ZρZ`.
///
/// # Panics
///
/// Panics if any probability is negative or they sum above 1.
pub fn pauli_channel(px: f64, py: f64, pz: f64) -> Kraus {
    assert!(px >= 0.0 && py >= 0.0 && pz >= 0.0, "negative probability");
    let pi = 1.0 - px - py - pz;
    assert!(pi >= -1e-12, "probabilities exceed 1");
    Kraus::new(vec![
        Matrix::identity(2).scale(cr(pi.max(0.0).sqrt())),
        Gate::X.matrix().scale(cr(px.sqrt())),
        Gate::Y.matrix().scale(cr(py.sqrt())),
        Gate::Z.matrix().scale(cr(pz.sqrt())),
    ])
    .prune(1e-15)
}

/// Amplitude damping with decay probability `gamma`:
/// `E_0 = [[1,0],[0,√(1−γ)]]`, `E_1 = [[0,√γ],[0,0]]`.
///
/// # Panics
///
/// Panics unless `0 ≤ gamma ≤ 1`.
pub fn amplitude_damping(gamma: f64) -> Kraus {
    assert!((0.0..=1.0).contains(&gamma), "gamma out of range");
    let e0 = Matrix::from_rows(&[
        vec![cr(1.0), cr(0.0)],
        vec![cr(0.0), cr((1.0 - gamma).sqrt())],
    ]);
    let e1 = Matrix::from_rows(&[vec![cr(0.0), cr(gamma.sqrt())], vec![cr(0.0), cr(0.0)]]);
    Kraus::new(vec![e0, e1])
}

/// Phase damping with parameter `lambda`:
/// `E_0 = [[1,0],[0,√(1−λ)]]`, `E_1 = [[0,0],[0,√λ]]`.
///
/// # Panics
///
/// Panics unless `0 ≤ lambda ≤ 1`.
pub fn phase_damping(lambda: f64) -> Kraus {
    assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
    let e0 = Matrix::from_rows(&[
        vec![cr(1.0), cr(0.0)],
        vec![cr(0.0), cr((1.0 - lambda).sqrt())],
    ]);
    let e1 = Matrix::from_rows(&[vec![cr(0.0), cr(0.0)], vec![cr(0.0), cr(lambda.sqrt())]]);
    Kraus::new(vec![e0, e1])
}

/// Realistic superconducting decoherence: thermal relaxation over a
/// gate of duration `t_gate_ns` on a qubit with relaxation time
/// `t1_us` and dephasing time `t2_us` (both in microseconds; the gate
/// time in nanoseconds, matching hardware datasheets).
///
/// The channel composes amplitude damping with
/// `γ = 1 − e^{−t/T1}` and pure phase damping chosen so the total
/// off-diagonal decay equals `e^{−t/T2}` — the standard zero-temperature
/// decoherence model for transmon qubits, and this workspace's stand-in
/// for the fault model the paper cites.
///
/// # Panics
///
/// Panics unless `0 < T2 ≤ 2·T1` and all times are positive.
///
/// ```
/// use qns_noise::channels::thermal_relaxation;
/// // 25 ns gate on a T1 = 30 µs, T2 = 40 µs qubit: tiny noise rate.
/// let ch = thermal_relaxation(30.0, 40.0, 25.0);
/// assert!(ch.is_cptp(1e-12));
/// assert!(ch.noise_rate() < 5e-3);
/// ```
pub fn thermal_relaxation(t1_us: f64, t2_us: f64, t_gate_ns: f64) -> Kraus {
    assert!(
        t1_us > 0.0 && t2_us > 0.0 && t_gate_ns > 0.0,
        "times must be positive"
    );
    assert!(
        t2_us <= 2.0 * t1_us + 1e-12,
        "physicality requires T2 ≤ 2·T1"
    );
    let t = t_gate_ns * 1e-3; // convert to µs
    let gamma = 1.0 - (-t / t1_us).exp();
    // Off-diagonal decay from amplitude damping alone: e^{−t/(2T1)}.
    // Remaining pure dephasing must contribute e^{−t/T2 + t/(2T1)}.
    let extra = (-t / t2_us + t / (2.0 * t1_us)).exp();
    let lambda = (1.0 - extra * extra).clamp(0.0, 1.0);
    amplitude_damping(gamma)
        .then(&phase_damping(lambda))
        .prune(1e-15)
}

/// Coherent over-rotation noise: the unitary channel `ρ ↦ UρU†` with
/// `U = R_axis(epsilon)` — a systematic control error rather than a
/// stochastic one. Its superoperator is still close to the identity
/// for small `epsilon`, so the paper's approximation applies
/// unchanged; unlike the stochastic channels it is *not*
/// mixed-unitary-decomposable into more than one branch.
///
/// `axis` is `'x'`, `'y'` or `'z'`.
///
/// # Panics
///
/// Panics on an unknown axis.
pub fn coherent_overrotation(axis: char, epsilon: f64) -> Kraus {
    let gate = match axis.to_ascii_lowercase() {
        'x' => Gate::Rx(epsilon),
        'y' => Gate::Ry(epsilon),
        'z' => Gate::Rz(epsilon),
        #[expect(clippy::panic, reason = "documented: an unknown axis is a caller bug")]
        other => panic!("unknown rotation axis `{other}`"),
    };
    Kraus::from_unitary(gate.matrix())
}

/// A small catalogue of named channels at a common strength, handy for
/// randomized tests and harnesses.
pub fn catalogue(p: f64) -> Vec<(&'static str, Kraus)> {
    vec![
        ("depolarizing", depolarizing(p)),
        ("bit_flip", bit_flip(p)),
        ("phase_flip", phase_flip(p)),
        ("bit_phase_flip", bit_phase_flip(p)),
        ("amplitude_damping", amplitude_damping(p)),
        ("phase_damping", phase_damping(p)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_linalg::{c64, Matrix};

    #[test]
    fn all_catalogue_channels_are_cptp() {
        for p in [0.0, 1e-4, 0.01, 0.3, 1.0] {
            for (name, ch) in catalogue(p) {
                assert!(ch.is_cptp(1e-12), "{name}({p}) not CPTP");
            }
        }
    }

    #[test]
    fn depolarizing_noise_rate_scales_linearly() {
        // Numerically ‖M_E − I‖₂ = 4p/3 for the depolarizing channel
        // (the paper quotes 2p; see DESIGN.md §4 for the constant note).
        for p in [1e-4, 1e-3, 1e-2] {
            let rate = depolarizing(p).noise_rate();
            assert!(
                (rate - 4.0 * p / 3.0).abs() < 1e-10,
                "rate {rate} ≠ 4p/3 at p={p}"
            );
        }
    }

    #[test]
    fn depolarizing_contracts_bloch_vector() {
        // E(|+⟩⟨+|) should have off-diagonals shrunk by (1−4p/3).
        let p = 0.3;
        let ch = depolarizing(p);
        let mut plus = Matrix::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                plus[(i, j)] = cr(0.5);
            }
        }
        let out = ch.apply(&plus);
        assert!((out[(0, 1)].re - 0.5 * (1.0 - 4.0 * p / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let gamma = 0.4;
        let ch = amplitude_damping(gamma);
        let mut one = Matrix::zeros(2, 2);
        one[(1, 1)] = cr(1.0);
        let out = ch.apply(&one);
        assert!((out[(1, 1)].re - (1.0 - gamma)).abs() < 1e-12);
        assert!((out[(0, 0)].re - gamma).abs() < 1e-12);
    }

    #[test]
    fn phase_damping_kills_coherence_only() {
        let ch = phase_damping(0.5);
        let mut rho = Matrix::zeros(2, 2);
        rho[(0, 0)] = cr(0.5);
        rho[(1, 1)] = cr(0.5);
        rho[(0, 1)] = c64(0.5, 0.0);
        rho[(1, 0)] = c64(0.5, 0.0);
        let out = ch.apply(&rho);
        assert!((out[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!(out[(0, 1)].abs() < 0.5);
    }

    #[test]
    fn pauli_channel_generalizes_flips() {
        let a = pauli_channel(0.1, 0.0, 0.0);
        let b = bit_flip(0.1);
        let rho = {
            let mut r = Matrix::zeros(2, 2);
            r[(0, 0)] = cr(1.0);
            r
        };
        assert!(a.apply(&rho).approx_eq(&b.apply(&rho), 1e-12));
    }

    #[test]
    fn thermal_relaxation_is_cptp_across_regimes() {
        for (t1, t2, tg) in [
            (25.0, 30.0, 25.0),
            (100.0, 150.0, 300.0),
            (50.0, 100.0, 50.0), // T2 = 2·T1 boundary
            (30.0, 10.0, 100.0), // strongly dephasing
        ] {
            let ch = thermal_relaxation(t1, t2, tg);
            assert!(ch.is_cptp(1e-10), "not CPTP at ({t1},{t2},{tg})");
        }
    }

    #[test]
    fn thermal_relaxation_diagonal_decay_rates() {
        let (t1, t2, tg) = (30.0, 40.0, 1000.0); // 1 µs "gate" to amplify
        let ch = thermal_relaxation(t1, t2, tg);
        let t = 1.0; // µs
        let mut rho = Matrix::zeros(2, 2);
        rho[(1, 1)] = cr(0.5);
        rho[(0, 0)] = cr(0.5);
        rho[(0, 1)] = cr(0.5);
        rho[(1, 0)] = cr(0.5);
        let out = ch.apply(&rho);
        // population decay toward |0⟩
        let expect_p1 = 0.5 * (-t / t1).exp();
        assert!((out[(1, 1)].re - expect_p1).abs() < 1e-10);
        // coherence decay at rate 1/T2
        let expect_c = 0.5 * (-t / t2).exp();
        assert!((out[(0, 1)].abs() - expect_c).abs() < 1e-10);
    }

    #[test]
    fn thermal_relaxation_rate_grows_with_gate_time() {
        let fast = thermal_relaxation(30.0, 40.0, 25.0).noise_rate();
        let slow = thermal_relaxation(30.0, 40.0, 250.0).noise_rate();
        assert!(slow > fast);
    }

    #[test]
    #[should_panic(expected = "T2 ≤ 2·T1")]
    fn unphysical_t2_panics() {
        let _ = thermal_relaxation(10.0, 30.0, 25.0);
    }

    #[test]
    fn zero_probability_channels_are_identity_like() {
        for (name, ch) in catalogue(0.0) {
            assert!(ch.noise_rate() < 1e-10, "{name}(0) should be identity");
        }
    }

    #[test]
    fn coherent_overrotation_is_unitary_channel() {
        for axis in ['x', 'y', 'z'] {
            let ch = coherent_overrotation(axis, 0.01);
            assert!(ch.is_cptp(1e-12));
            assert_eq!(ch.len(), 1);
            assert!(ch.operators()[0].is_unitary(1e-12));
        }
    }

    #[test]
    fn coherent_overrotation_rate_scales_linearly() {
        // Unlike stochastic p-channels, the coherent rate is O(ε).
        let r1 = coherent_overrotation('x', 1e-3).noise_rate();
        let r2 = coherent_overrotation('x', 2e-3).noise_rate();
        assert!((r2 / r1 - 2.0).abs() < 0.01, "ratio {}", r2 / r1);
    }

    #[test]
    #[should_panic(expected = "unknown rotation axis")]
    fn bad_axis_panics() {
        let _ = coherent_overrotation('q', 0.1);
    }
}
