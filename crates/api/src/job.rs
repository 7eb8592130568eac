//! Jobs, states, observables and the fluent [`Simulation`] builder.

use crate::backends::Backend;
use qns_linalg::Complex64;
use qns_noise::{NoisyCircuit, QnsError};
use qns_tnet::builder::ProductState;

/// The input state `|ψ⟩` of a simulation, as a product state.
///
/// Every engine in the workspace accepts product inputs (the paper's
/// experiments use computational basis states and local rotations);
/// this type owns the conversions to the three representations the
/// engines want — a [`ProductState`], a dense statevector, and a list
/// of per-qubit factors — so call sites stop hand-rolling state glue.
/// Conversions are computed on demand, once per backend invocation;
/// their cost is negligible next to any simulation.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub struct InitialState {
    state: ProductState,
}

impl InitialState {
    /// `|0…0⟩` on `n` qubits.
    pub fn zeros(n: usize) -> Self {
        ProductState::all_zeros(n).into()
    }

    /// The computational basis state `|bits⟩` (qubit 0 is the most
    /// significant bit, matching the rest of the workspace).
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn basis(n: usize, bits: usize) -> Self {
        ProductState::basis(n, bits).into()
    }

    /// The uniform superposition `|+⟩^{⊗n}`.
    pub fn plus(n: usize) -> Self {
        ProductState::all_plus(n).into()
    }

    /// Builds from explicit per-qubit factors.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty.
    pub fn from_factors(factors: Vec<[Complex64; 2]>) -> Self {
        ProductState::from_factors(factors).into()
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.state.n_qubits()
    }

    /// The [`ProductState`] representation (tensor-network engines).
    pub fn product(&self) -> &ProductState {
        &self.state
    }

    /// The per-qubit factor representation (the TDD engine).
    pub fn factors(&self) -> Vec<[Complex64; 2]> {
        (0..self.state.n_qubits())
            .map(|q| self.state.factor(q))
            .collect()
    }

    /// The dense statevector representation (`2^n` amplitudes; dense
    /// and trajectory engines).
    ///
    /// # Panics
    ///
    /// Panics, before allocating, past
    /// [`qns_tnet::builder::MAX_STATEVECTOR_QUBITS`] qubits.
    pub fn statevector(&self) -> Vec<Complex64> {
        self.state.to_statevector()
    }
}

impl From<ProductState> for InitialState {
    fn from(state: ProductState) -> Self {
        InitialState { state }
    }
}

/// The measured quantity: the projector `|v⟩⟨v|` onto a product state
/// `|v⟩`, i.e. the paper's Problem 1 expectation `⟨v|E_N(ρ)|v⟩`.
///
/// Shares [`InitialState`]'s conversions between the three state
/// representations. For a non-product `|v⟩ = U|0…0⟩` use
/// [`qns_core::append_ideal_inverse`] and observe `|0…0⟩⟨0…0|` on the
/// extended circuit (the paper's Table IV construction).
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub struct Observable {
    state: ProductState,
}

impl Observable {
    /// The projector onto `|0…0⟩`.
    pub fn zeros(n: usize) -> Self {
        ProductState::all_zeros(n).into()
    }

    /// The projector onto the computational basis state `|bits⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn basis(n: usize, bits: usize) -> Self {
        ProductState::basis(n, bits).into()
    }

    /// The projector onto an arbitrary product state.
    pub fn projector(state: ProductState) -> Self {
        state.into()
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.state.n_qubits()
    }

    /// The [`ProductState`] being projected onto.
    pub fn product(&self) -> &ProductState {
        &self.state
    }

    /// The per-qubit factor representation.
    pub fn factors(&self) -> Vec<[Complex64; 2]> {
        (0..self.state.n_qubits())
            .map(|q| self.state.factor(q))
            .collect()
    }

    /// The dense statevector representation.
    ///
    /// # Panics
    ///
    /// Panics, before allocating, past
    /// [`qns_tnet::builder::MAX_STATEVECTOR_QUBITS`] qubits.
    pub fn statevector(&self) -> Vec<Complex64> {
        self.state.to_statevector()
    }
}

impl From<ProductState> for Observable {
    fn from(state: ProductState) -> Self {
        Observable { state }
    }
}

/// A validated expectation request: which noisy circuit to run, on
/// which input, measuring which projector.
///
/// Construction via [`ExpectationJob::new`] (or the [`Simulation`]
/// builder) checks all qubit counts once, so [`Backend`]
/// implementations never re-validate and never panic on mismatched
/// sizes.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct ExpectationJob<'a> {
    noisy: &'a NoisyCircuit,
    initial: InitialState,
    observable: Observable,
}

impl<'a> ExpectationJob<'a> {
    /// Builds and validates a job.
    ///
    /// # Errors
    ///
    /// [`QnsError::SizeMismatch`] if the initial state or observable
    /// disagrees with the circuit's qubit count.
    pub fn new(
        noisy: &'a NoisyCircuit,
        initial: impl Into<InitialState>,
        observable: impl Into<Observable>,
    ) -> Result<Self, QnsError> {
        let initial = initial.into();
        let observable = observable.into();
        if initial.n_qubits() != noisy.n_qubits() {
            return Err(QnsError::SizeMismatch {
                what: "input state",
                expected: noisy.n_qubits(),
                actual: initial.n_qubits(),
            });
        }
        if observable.n_qubits() != noisy.n_qubits() {
            return Err(QnsError::SizeMismatch {
                what: "observable",
                expected: noisy.n_qubits(),
                actual: observable.n_qubits(),
            });
        }
        Ok(ExpectationJob {
            noisy,
            initial,
            observable,
        })
    }

    /// The noisy circuit to simulate.
    pub fn noisy(&self) -> &'a NoisyCircuit {
        self.noisy
    }

    /// The input state `|ψ⟩`.
    pub fn initial(&self) -> &InitialState {
        &self.initial
    }

    /// The observable projector `|v⟩⟨v|`.
    pub fn observable(&self) -> &Observable {
        &self.observable
    }

    /// Number of qubits (shared by circuit, state and observable).
    pub fn n_qubits(&self) -> usize {
        self.noisy.n_qubits()
    }

    /// The job's canonical structural hash: two jobs built
    /// independently from identical circuits, noise, states and
    /// observables fingerprint equal (see [`crate::Fingerprint`]).
    /// Serving layers use this as their cache / dedup key.
    pub fn fingerprint(&self) -> crate::Fingerprint {
        crate::fingerprint::fingerprint_job(
            self.noisy,
            self.initial.product(),
            self.observable.product(),
        )
    }
}

/// One backend's answer to an [`ExpectationJob`].
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// The estimated expectation `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩`.
    pub value: f64,
    /// Statistical standard error of the mean for sampling backends;
    /// `None` for deterministic ones.
    pub std_error: Option<f64>,
    /// A-priori Theorem-1 error bound for level-truncated pattern-sum
    /// runs: `|value − exact| ≤ error_bound`. `None` when the run was
    /// exact or the backend carries its uncertainty elsewhere.
    pub error_bound: Option<f64>,
    /// The truncation level of a level-truncated pattern-sum run;
    /// `None` for backends without a level knob (or exact runs).
    pub level: Option<usize>,
    /// Name of the backend that produced the estimate.
    pub backend: &'static str,
}

impl Estimate {
    /// An estimate from a deterministic backend that ran without any
    /// approximation-forcing truncation.
    pub fn exact(value: f64, backend: &'static str) -> Self {
        Estimate {
            value,
            std_error: None,
            error_bound: None,
            level: None,
            backend,
        }
    }

    /// An estimate from a sampling backend, with its standard error.
    pub fn sampled(value: f64, std_error: f64, backend: &'static str) -> Self {
        Estimate {
            value,
            std_error: Some(std_error),
            error_bound: None,
            level: None,
            backend,
        }
    }

    /// A level-truncated pattern-sum estimate with its a-priori
    /// Theorem-1 error bound: `|value − exact| ≤ error_bound`.
    pub fn bounded(value: f64, error_bound: f64, level: usize, backend: &'static str) -> Self {
        Estimate {
            value,
            std_error: None,
            error_bound: Some(error_bound),
            level: Some(level),
            backend,
        }
    }

    /// `true` when the estimate carries no statistical error bar.
    pub fn is_deterministic(&self) -> bool {
        self.std_error.is_none()
    }

    /// `true` when the estimate is exact up to machine precision:
    /// deterministic *and* free of level truncation.
    pub fn is_exact(&self) -> bool {
        self.std_error.is_none() && self.error_bound.is_none()
    }

    /// Bound-aware agreement check between two estimates: the values
    /// must differ by at most `tol` **plus** each side's declared
    /// uncertainty — five standard errors for sampling backends and the
    /// Theorem-1 bound for level-truncated ones. This is the one
    /// comparison the agreement suites share instead of hand-rolling
    /// `max(k·σ, ε)` at every call site.
    ///
    /// ```
    /// use qns_api::Estimate;
    /// let exact = Estimate::exact(0.500, "density");
    /// let noisy = Estimate::sampled(0.512, 0.01, "trajectory");
    /// assert!(noisy.agrees_with(&exact, 1e-3)); // |Δ| ≤ 1e-3 + 5σ
    /// assert!(!Estimate::exact(0.6, "tdd").agrees_with(&exact, 1e-3));
    /// ```
    pub fn agrees_with(&self, other: &Estimate, tol: f64) -> bool {
        let slack = tol
            + 5.0 * self.std_error.unwrap_or(0.0)
            + 5.0 * other.std_error.unwrap_or(0.0)
            + self.error_bound.unwrap_or(0.0)
            + other.error_bound.unwrap_or(0.0);
        (self.value - other.value).abs() <= slack
    }
}

/// Fluent builder for [`ExpectationJob`]s:
///
/// ```
/// use qns_api::{ApproxBackend, Simulation};
/// use qns_circuit::generators::ghz;
/// use qns_noise::{channels, NoisyCircuit};
///
/// let noisy = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-3), 2, 7);
/// let est = Simulation::new(&noisy)
///     .observable_basis(0b1111)
///     .run_on(&ApproxBackend::level(2))?;
/// assert!((est.value - 0.5).abs() < 0.01);
/// # Ok::<(), qns_api::QnsError>(())
/// ```
///
/// The initial state defaults to `|0…0⟩` and the observable to the
/// `|0…0⟩⟨0…0|` projector.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct Simulation<'a> {
    noisy: &'a NoisyCircuit,
    initial: Option<InitialState>,
    observable: Option<Observable>,
}

impl<'a> Simulation<'a> {
    /// Starts a simulation of `noisy`.
    pub fn new(noisy: &'a NoisyCircuit) -> Self {
        Simulation {
            noisy,
            initial: None,
            observable: None,
        }
    }

    /// Sets the input state (default: `|0…0⟩`).
    pub fn initial(mut self, initial: impl Into<InitialState>) -> Self {
        self.initial = Some(initial.into());
        self
    }

    /// Sets the input to the basis state `|bits⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn initial_basis(self, bits: usize) -> Self {
        let n = self.noisy.n_qubits();
        self.initial(InitialState::basis(n, bits))
    }

    /// Sets the observable (default: the `|0…0⟩⟨0…0|` projector).
    pub fn observable(mut self, observable: impl Into<Observable>) -> Self {
        self.observable = Some(observable.into());
        self
    }

    /// Sets the observable to the `|bits⟩⟨bits|` projector.
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn observable_basis(self, bits: usize) -> Self {
        let n = self.noisy.n_qubits();
        self.observable(Observable::basis(n, bits))
    }

    /// Finalizes the builder into a validated [`ExpectationJob`].
    ///
    /// # Errors
    ///
    /// As [`ExpectationJob::new`].
    pub fn build(self) -> Result<ExpectationJob<'a>, QnsError> {
        let n = self.noisy.n_qubits();
        let initial = self.initial.unwrap_or_else(|| InitialState::zeros(n));
        let observable = self.observable.unwrap_or_else(|| Observable::zeros(n));
        ExpectationJob::new(self.noisy, initial, observable)
    }

    /// Builds the job and runs it on `backend` in one call.
    ///
    /// # Errors
    ///
    /// Validation errors from [`Simulation::build`] plus whatever the
    /// backend reports.
    pub fn run_on(self, backend: &dyn Backend) -> Result<Estimate, QnsError> {
        backend.expectation(&self.build()?)
    }
}
