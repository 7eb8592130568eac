//! The [`Backend`] trait and its six engine implementations.

use crate::job::{Estimate, ExpectationJob};
use qns_core::ApproxOptions;
use qns_mpo::MpoState;
use qns_noise::{NoisyCircuit, QnsError};
use qns_sim::trajectory::SamplingStrategy;
use qns_sim::{density, trajectory};
use qns_tnet::network::OrderStrategy;

/// A simulation engine that can answer the paper's Problem 1,
/// `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩`, for a validated [`ExpectationJob`].
///
/// All six engines in the workspace implement this trait, so
/// cross-backend comparisons (the paper's tables), benchmark
/// harnesses, and services can hold a `&dyn Backend` and stay agnostic
/// of the engine's native state representation.
pub trait Backend {
    /// Short stable name, used in reports and [`Estimate::backend`].
    fn name(&self) -> &'static str;

    /// Runs the job and returns the estimate.
    ///
    /// # Errors
    ///
    /// [`QnsError::Unsupported`] when the backend cannot run this job
    /// (capability limit), [`QnsError::TermBudgetExceeded`] /
    /// [`QnsError::InvalidJob`] for configuration problems. Size
    /// mismatches cannot occur: the job is validated at construction.
    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError>;

    /// Cheap feasibility pre-check: `Ok(())` when
    /// [`Backend::expectation`] would not decline this job for a
    /// capability or configuration reason. Routers call this before
    /// committing work to an engine, so an infeasible engine is
    /// skipped instead of queued. The default accepts everything;
    /// backends with hard limits (the dense engine's qubit cap, the
    /// approximation's term budget) override it with the same check
    /// their `expectation` performs.
    ///
    /// # Errors
    ///
    /// The error `expectation` would return for the same job.
    fn supports(&self, job: &ExpectationJob<'_>) -> Result<(), QnsError> {
        let _ = job;
        Ok(())
    }

    /// Deterministic relative cost estimate for running `job` on this
    /// backend, in abstract "work units" comparable *across* backends
    /// only for routing purposes (larger = slower). `None` means the
    /// backend offers no model (routers treat it as a last resort).
    /// Implementations must be cheap — O(1) in the circuit size apart
    /// from reading counts — and must return `None` whenever
    /// [`Backend::supports`] would fail.
    fn cost_hint(&self, job: &ExpectationJob<'_>) -> Option<u128> {
        let _ = job;
        None
    }

    /// The absolute tolerance within which this backend, *configured
    /// to be exact* (full level, generous bond, …), agrees with the
    /// dense density-matrix reference. Sampling backends return a
    /// loose default; prefer a multiple of [`Estimate::std_error`].
    fn tolerance(&self) -> f64 {
        1e-9
    }
}

/// One "work unit" of a job for the [`Backend::cost_hint`] models: its
/// gate count plus noise count (plus one, so degenerate jobs still
/// cost something). Every engine's per-state/per-pattern/per-sample
/// work scales with this.
fn job_units(job: &ExpectationJob<'_>) -> u128 {
    (job.noisy().circuit().gate_count() + job.noisy().noise_count() + 1) as u128
}

/// `2^k`, saturating instead of overflowing for astronomically large
/// jobs (whose costs only need to compare as "huge").
fn pow2_saturating(k: usize) -> u128 {
    if k >= 127 {
        u128::MAX
    } else {
        1u128 << k
    }
}

/// The paper's level-`l` SVD approximation ([`qns_core::approx`]).
///
/// Deterministic; exact when the level reaches the circuit's noise
/// count. The [`ApproxOptions::max_terms`] guard surfaces as
/// [`QnsError::TermBudgetExceeded`] instead of a panic.
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub struct ApproxBackend {
    opts: ApproxOptions,
}

impl ApproxBackend {
    /// A backend running at approximation level `level` with default
    /// options otherwise.
    pub fn level(level: usize) -> Self {
        ApproxBackend {
            opts: ApproxOptions::default().with_level(level),
        }
    }

    /// A backend with fully explicit options.
    pub fn with_options(opts: ApproxOptions) -> Self {
        ApproxBackend { opts }
    }

    /// Returns a copy evaluating patterns on `threads` worker threads
    /// (see [`ApproxOptions::threads`]): the workers share one cached
    /// contraction plan per split half and pull substitution patterns
    /// from a streaming enumerator in chunks. `0` is clamped to `1`
    /// (sequential), so a computed thread count can never produce a
    /// degenerate configuration.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.opts = self.opts.with_threads(threads);
        self
    }

    /// The Theorem-1 substitution-pattern count of a run on `noisy`
    /// (`Σ_{u≤l} C(N,u)·3^u`) — the same
    /// [`qns_core::bounds::planned_patterns`] quantity the engine's
    /// `max_terms` guard checks, so `supports`/`cost_hint` can never
    /// disagree with `expectation` about feasibility. It is an upper
    /// bound on the patterns that run: those using an exactly-zero
    /// Kraus term are skipped.
    fn planned_patterns(&self, noisy: &NoisyCircuit) -> u128 {
        qns_core::bounds::planned_patterns(noisy.noise_count(), self.opts.level)
    }

    /// A backend whose level equals `noisy`'s noise count — exact for
    /// that circuit (all `4^N` patterns), subject to the `max_terms`
    /// guard.
    pub fn exact_for(noisy: &NoisyCircuit) -> Self {
        Self::level(noisy.noise_count())
    }

    /// The configured options.
    pub fn options(&self) -> &ApproxOptions {
        &self.opts
    }
}

impl Backend for ApproxBackend {
    fn name(&self) -> &'static str {
        "approx"
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        let res = qns_core::try_approximate_expectation(
            job.noisy(),
            job.initial().product(),
            job.observable().product(),
            &self.opts,
        )?;
        let n = job.noisy().noise_count();
        let level = self.opts.level.min(n);
        if level < n {
            // A truncated level carries its a-priori Theorem-1
            // certificate instead of claiming exactness.
            let bound = qns_core::bounds::error_bound(n, job.noisy().max_noise_rate(), level);
            Ok(Estimate::bounded(res.value, bound, level, self.name()))
        } else {
            Ok(Estimate::exact(res.value, self.name()))
        }
    }

    fn tolerance(&self) -> f64 {
        1e-8
    }

    fn supports(&self, job: &ExpectationJob<'_>) -> Result<(), QnsError> {
        let planned = self.planned_patterns(job.noisy());
        if planned > self.opts.max_terms {
            return Err(QnsError::TermBudgetExceeded {
                level: self.opts.level,
                planned,
                max_terms: self.opts.max_terms,
            });
        }
        Ok(())
    }

    fn cost_hint(&self, job: &ExpectationJob<'_>) -> Option<u128> {
        self.supports(job).ok()?;
        // Patterns × network size: the paper's two single-size
        // contractions per pattern, halved to one for an expectation,
        // which only rescales every approx cost by the same constant.
        Some(
            self.planned_patterns(job.noisy())
                .saturating_mul(job_units(job)),
        )
    }
}

/// Exact dense density-matrix evolution (the MM-based baseline).
///
/// Memory is `O(4^n)`, so jobs beyond [`DensityBackend::max_qubits`]
/// are declined with [`QnsError::Unsupported`] — the programmatic
/// version of the paper's 2048 GB memory-out rows.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct DensityBackend {
    max_qubits: usize,
}

impl Default for DensityBackend {
    fn default() -> Self {
        DensityBackend { max_qubits: 12 }
    }
}

impl DensityBackend {
    /// A backend with the default feasibility cap (12 qubits ≈ 270 MB).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy with the feasibility cap raised or lowered.
    pub fn with_max_qubits(mut self, max_qubits: usize) -> Self {
        self.max_qubits = max_qubits;
        self
    }

    /// The largest job this backend will accept.
    pub fn max_qubits(&self) -> usize {
        self.max_qubits
    }
}

impl Backend for DensityBackend {
    fn name(&self) -> &'static str {
        "density"
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        self.supports(job)?;
        let value = density::expectation(
            job.noisy(),
            &job.initial().statevector(),
            &job.observable().statevector(),
        );
        Ok(Estimate::exact(value, self.name()))
    }

    fn supports(&self, job: &ExpectationJob<'_>) -> Result<(), QnsError> {
        let n = job.n_qubits();
        if n > self.max_qubits {
            return Err(QnsError::Unsupported {
                backend: self.name(),
                reason: format!(
                    "{n} qubits exceed the dense-matrix cap of {} (O(4^n) memory)",
                    self.max_qubits
                ),
            });
        }
        Ok(())
    }

    fn cost_hint(&self, job: &ExpectationJob<'_>) -> Option<u128> {
        self.supports(job).ok()?;
        // A 4^n-element density matrix touched once per gate/noise.
        Some(pow2_saturating(2 * job.n_qubits()).saturating_mul(job_units(job)))
    }
}

/// Quantum-trajectory (Monte-Carlo wavefunction) sampling.
///
/// The estimate carries [`Estimate::std_error`]; agreement checks
/// should use a multiple of it rather than a fixed tolerance.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct TrajectoryBackend {
    samples: usize,
    strategy: SamplingStrategy,
    seed: u64,
}

impl Default for TrajectoryBackend {
    fn default() -> Self {
        TrajectoryBackend {
            samples: 4000,
            strategy: SamplingStrategy::MixedUnitaryFastPath,
            seed: 7,
        }
    }
}

impl TrajectoryBackend {
    /// A backend drawing `samples` trajectories (fast-path sampling,
    /// fixed default seed).
    pub fn samples(samples: usize) -> Self {
        TrajectoryBackend {
            samples,
            ..Default::default()
        }
    }

    /// Returns a copy with the Kraus-sampling strategy set.
    pub fn with_strategy(mut self, strategy: SamplingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns a copy with the RNG seed set.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Backend for TrajectoryBackend {
    fn name(&self) -> &'static str {
        "trajectory"
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        self.supports(job)?;
        let est = trajectory::estimate(
            job.noisy(),
            &job.initial().statevector(),
            &job.observable().statevector(),
            self.samples,
            self.strategy,
            self.seed,
        );
        Ok(Estimate::sampled(est.mean, est.std_error, self.name()))
    }

    fn tolerance(&self) -> f64 {
        0.05
    }

    fn supports(&self, job: &ExpectationJob<'_>) -> Result<(), QnsError> {
        let _ = job;
        if self.samples == 0 {
            return Err(QnsError::InvalidJob {
                reason: "trajectory backend needs at least one sample".into(),
            });
        }
        Ok(())
    }

    fn cost_hint(&self, job: &ExpectationJob<'_>) -> Option<u128> {
        self.supports(job).ok()?;
        // One 2^n statevector evolution per sample.
        Some(
            (self.samples as u128)
                .saturating_mul(pow2_saturating(job.n_qubits()))
                .saturating_mul(job_units(job)),
        )
    }
}

/// Density-matrix evolution on tensor decision diagrams.
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub struct TddBackend;

impl TddBackend {
    /// A decision-diagram backend.
    pub fn new() -> Self {
        TddBackend
    }
}

impl Backend for TddBackend {
    fn name(&self) -> &'static str {
        "tdd"
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        let value = qns_tdd::expectation(
            job.noisy(),
            &job.initial().factors(),
            &job.observable().factors(),
        );
        Ok(Estimate::exact(value, self.name()))
    }

    fn cost_hint(&self, job: &ExpectationJob<'_>) -> Option<u128> {
        // Worst-case 4^n diagram nodes, discounted for the node
        // sharing structured circuits enjoy.
        Some(
            pow2_saturating(2 * job.n_qubits())
                .saturating_mul(job_units(job))
                .saturating_div(8)
                .max(1),
        )
    }
}

/// Exact contraction of the paper's double-size tensor network.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default)]
pub struct TnetBackend {
    strategy: OrderStrategy,
}

impl TnetBackend {
    /// A tensor-network backend with the greedy contraction order.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy with the contraction-order strategy set.
    pub fn with_strategy(mut self, strategy: OrderStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

impl Backend for TnetBackend {
    fn name(&self) -> &'static str {
        "tnet"
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        let value = qns_tnet::simulator::expectation(
            job.noisy(),
            job.initial().product(),
            job.observable().product(),
            self.strategy,
        );
        Ok(Estimate::exact(value, self.name()))
    }

    fn cost_hint(&self, job: &ExpectationJob<'_>) -> Option<u128> {
        // Contracting the 2n-rail double network: intermediate tensors
        // grow with the cut through the circuit, and every noise event
        // bridges the halves, thickening the cut.
        let bridges = (job.noisy().noise_count() + 1) as u128;
        Some(
            pow2_saturating(job.n_qubits())
                .saturating_mul(job_units(job))
                .saturating_mul(bridges),
        )
    }
}

/// Matrix-product-operator density evolution with a bond cap.
///
/// Exact while the state's bond dimension stays below the cap; once
/// entanglement exceeds it, SVD truncation kicks in and the estimate
/// reports the accumulated discarded weight in
/// [`Estimate::truncation_error`] instead of claiming exactness.
#[non_exhaustive]
#[derive(Clone, Copy, Debug)]
pub struct MpoBackend {
    max_bond: usize,
}

impl Default for MpoBackend {
    fn default() -> Self {
        MpoBackend { max_bond: 64 }
    }
}

impl MpoBackend {
    /// An MPO backend truncating bonds to `max_bond`.
    pub fn max_bond(max_bond: usize) -> Self {
        MpoBackend { max_bond }
    }
}

impl Backend for MpoBackend {
    fn name(&self) -> &'static str {
        "mpo"
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        self.supports(job)?;
        let mut rho = MpoState::from_product(&job.initial().factors(), self.max_bond);
        rho.run(job.noisy());
        let value = rho.expectation_product(&job.observable().factors());
        let truncation = rho.truncation_error();
        if truncation > 0.0 {
            Ok(Estimate::truncated(value, truncation, self.name()))
        } else {
            Ok(Estimate::exact(value, self.name()))
        }
    }

    fn tolerance(&self) -> f64 {
        1e-8
    }

    fn supports(&self, job: &ExpectationJob<'_>) -> Result<(), QnsError> {
        let _ = job;
        if self.max_bond == 0 {
            return Err(QnsError::InvalidJob {
                reason: "MPO backend needs max_bond ≥ 1".into(),
            });
        }
        Ok(())
    }

    fn cost_hint(&self, job: &ExpectationJob<'_>) -> Option<u128> {
        self.supports(job).ok()?;
        // A chain of n χ×χ tensors, SVD-swept once per gate/noise.
        let chi3 = (self.max_bond as u128).saturating_pow(3);
        Some(
            (job.n_qubits() as u128)
                .saturating_mul(job_units(job))
                .saturating_mul(chi3),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Simulation;
    use qns_circuit::Circuit;
    use qns_noise::channels;

    /// A circuit that at χ = 1 must truncate and at χ = 64 must not:
    /// a GHZ ladder followed by an entangling ZZ round.
    fn entangling_circuit() -> NoisyCircuit {
        let mut c = Circuit::new(5);
        c.h(0);
        for q in 1..5 {
            c.cx(q - 1, q);
        }
        for q in 0..4 {
            c.zz(q, q + 1, 0.7);
        }
        NoisyCircuit::noiseless(c)
    }

    #[test]
    fn mpo_backend_reports_truncation_under_tight_bond() {
        let noisy = entangling_circuit();
        let job = Simulation::new(&noisy).build().unwrap();

        let tight = MpoBackend::max_bond(1).expectation(&job).unwrap();
        let err = tight
            .truncation_error
            .expect("χ=1 must truncate and say so");
        assert!(err > 1e-6, "truncation bound should be visible: {err}");
        assert!(tight.is_deterministic(), "no sampling error bar");
        assert!(!tight.is_exact(), "a truncated run is not exact");

        let loose = MpoBackend::max_bond(64).expectation(&job).unwrap();
        assert!(loose.is_exact(), "χ=64 is exact on this circuit");
        assert_eq!(loose.truncation_error, None);
    }

    #[test]
    fn approx_backend_threads_setter_routes_to_options() {
        let b = ApproxBackend::level(2).with_threads(4);
        assert_eq!(b.options().threads, 4);
        assert_eq!(b.options().level, 2);
    }

    #[test]
    fn thread_counts_are_clamped_to_at_least_one() {
        // Regression: a computed `0` (e.g. `available / jobs` rounding
        // down) used to flow straight into the options.
        assert_eq!(ApproxBackend::level(1).with_threads(0).options().threads, 1);
        assert_eq!(
            qns_core::ApproxOptions::default().with_threads(0).threads,
            1
        );
    }

    #[test]
    fn supports_mirrors_expectation_feasibility() {
        let noisy = NoisyCircuit::noiseless({
            let mut c = Circuit::new(4);
            c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
            c
        });
        let job = Simulation::new(&noisy).build().unwrap();

        // Dense: within the cap both paths succeed, beyond it both
        // decline with the same error.
        assert!(DensityBackend::new().supports(&job).is_ok());
        let tiny = DensityBackend::new().with_max_qubits(2);
        assert!(matches!(
            tiny.supports(&job),
            Err(QnsError::Unsupported {
                backend: "density",
                ..
            })
        ));
        assert!(tiny.expectation(&job).is_err());

        // Approx: the term budget guard surfaces through supports too.
        let strangled =
            ApproxBackend::with_options(ApproxOptions::default().with_level(0).with_max_terms(0));
        assert!(matches!(
            strangled.supports(&job),
            Err(QnsError::TermBudgetExceeded { .. })
        ));

        // Degenerate configurations decline before running.
        assert!(TrajectoryBackend::samples(0).supports(&job).is_err());
        assert!(MpoBackend::max_bond(0).supports(&job).is_err());
        assert!(TrajectoryBackend::samples(10).supports(&job).is_ok());
    }

    #[test]
    fn cost_hints_are_none_exactly_when_unsupported() {
        let noisy = NoisyCircuit::noiseless({
            let mut c = Circuit::new(5);
            c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4);
            c
        });
        let job = Simulation::new(&noisy).build().unwrap();

        assert!(DensityBackend::new().cost_hint(&job).is_some());
        assert_eq!(
            DensityBackend::new().with_max_qubits(2).cost_hint(&job),
            None
        );
        assert_eq!(TrajectoryBackend::samples(0).cost_hint(&job), None);
        assert_eq!(MpoBackend::max_bond(0).cost_hint(&job), None);

        // A low-level approximation must model as far cheaper than the
        // dense engine on a noisy job — that asymmetry is what the
        // router's Auto policy exploits.
        let noisy = NoisyCircuit::inject_random(
            qns_circuit::generators::ghz(5),
            &channels::depolarizing(1e-3),
            6,
            3,
        );
        let job = Simulation::new(&noisy).build().unwrap();
        let approx = ApproxBackend::level(1).cost_hint(&job).unwrap();
        let dense = DensityBackend::new().cost_hint(&job).unwrap();
        assert!(approx < dense, "approx {approx} vs dense {dense}");
    }

    #[test]
    fn cost_hints_saturate_instead_of_overflowing() {
        let mut c = Circuit::new(80);
        for q in 0..79 {
            c.cx(q, q + 1);
        }
        let noisy = NoisyCircuit::noiseless(c);
        let job = Simulation::new(&noisy).build().unwrap();
        // 4^80 work units saturate; the hint stays a valid ordering key.
        let hint = DensityBackend::new().with_max_qubits(100).cost_hint(&job);
        assert_eq!(hint, Some(u128::MAX));
        assert!(TnetBackend::new().cost_hint(&job).unwrap() < u128::MAX);
    }
}
