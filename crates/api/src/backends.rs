//! The [`Backend`] trait and its five engine implementations.

use crate::job::{Estimate, ExpectationJob};
use qns_core::ApproxOptions;
use qns_noise::{NoisyCircuit, QnsError};
use qns_sim::trajectory::SamplingStrategy;
use qns_sim::{density, statevector, trajectory};

/// A simulation engine that can answer the paper's Problem 1,
/// `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩`, for a validated [`ExpectationJob`].
///
/// All five engines in the workspace implement this trait, so
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
    /// to be exact* (full level, …), agrees with the dense
    /// density-matrix reference. Sampling backends return a
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
    /// (the calling thread alone), so a computed thread count can never
    /// produce a degenerate configuration. The count changes no bit of
    /// the estimate.
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

    /// Runs the job's [`Refinement`](crate::Refinement) through the
    /// configured level: a truncated level carries its a-priori
    /// Theorem-1 certificate, the full level is exact.
    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        let mut refinement = self.refinement(job)?;
        let level = self.opts.level.min(refinement.max_level());
        loop {
            let partial = refinement.advance()?;
            if partial.level >= level {
                return Ok(refinement.estimate_for(&partial));
            }
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
/// version of the paper's 2048 GB memory-out rows. The cap can be
/// lowered or raised, but never above the engine's hard limit
/// [`density::MAX_QUBITS`].
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

    /// Returns a copy with the feasibility cap raised or lowered; jobs
    /// above [`density::MAX_QUBITS`] stay declined whatever the cap.
    pub fn with_max_qubits(mut self, max_qubits: usize) -> Self {
        self.max_qubits = max_qubits;
        self
    }

    /// The largest job this backend will accept: the configured cap,
    /// at most [`density::MAX_QUBITS`].
    pub fn max_qubits(&self) -> usize {
        self.max_qubits.min(density::MAX_QUBITS)
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
        let cap = self.max_qubits();
        if n > cap {
            return Err(QnsError::Unsupported {
                backend: self.name(),
                reason: format!("{n} qubits exceed the dense-matrix cap of {cap} (O(4^n) memory)"),
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
/// should use a multiple of it rather than a fixed tolerance. Memory
/// is `O(2^n)`, so jobs beyond [`statevector::MAX_QUBITS`] are
/// declined with [`QnsError::Unsupported`].
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
        if self.samples == 0 {
            return Err(QnsError::InvalidJob {
                reason: "trajectory backend needs at least one sample".into(),
            });
        }
        let n = job.n_qubits();
        if n > statevector::MAX_QUBITS {
            return Err(QnsError::Unsupported {
                backend: self.name(),
                reason: format!(
                    "{n} qubits exceed the statevector cap of {} (O(2^n) memory)",
                    statevector::MAX_QUBITS
                ),
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
pub struct TnetBackend;

impl TnetBackend {
    /// A tensor-network backend with the greedy contraction order.
    pub fn new() -> Self {
        TnetBackend
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Simulation;
    use qns_circuit::Circuit;
    use qns_noise::channels;

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

        // Past the dense caps the service's default engines (the
        // five below) still answer `supports` and `cost_hint` without
        // panicking, and the density and trajectory engines decline:
        // a 2^n statevector at n = 64 would abort the process on
        // allocation.
        let engines: [&dyn Backend; 5] = [
            &ApproxBackend::level(1),
            &DensityBackend::new(),
            &TnetBackend::new(),
            &TddBackend::new(),
            &TrajectoryBackend::default(),
        ];
        for n in [31, 63, 64, 65, 225] {
            let noisy = NoisyCircuit::inject_random(
                qns_circuit::generators::ghz(n),
                &channels::depolarizing(1e-3),
                2,
                3,
            );
            let job = Simulation::new(&noisy).build().unwrap();
            for engine in engines {
                let supported = engine.supports(&job);
                assert_eq!(engine.cost_hint(&job).is_some(), supported.is_ok());
                if matches!(engine.name(), "density" | "trajectory") {
                    assert!(
                        matches!(supported, Err(QnsError::Unsupported { .. })),
                        "{} at {n} qubits: {supported:?}",
                        engine.name()
                    );
                }
            }
            if n == 64 {
                assert!(TrajectoryBackend::default().expectation(&job).is_err());
            }
        }

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
        // The dense engine declines 80 qubits whatever its cap, so its
        // hint is `None`; the model's arithmetic is checked on its own.
        assert_eq!(
            pow2_saturating(2 * 80).saturating_mul(job_units(&job)),
            u128::MAX
        );
        let hint = DensityBackend::new().with_max_qubits(100).cost_hint(&job);
        assert_eq!(hint, None);
        assert!(TnetBackend::new().cost_hint(&job).unwrap() < u128::MAX);
    }

    #[test]
    fn raised_dense_cap_declines_past_the_hard_limit() {
        let n = density::MAX_QUBITS + 1;
        let noisy = NoisyCircuit::noiseless(qns_circuit::generators::ghz(n));
        let job = Simulation::new(&noisy).build().unwrap();
        let raised = DensityBackend::new().with_max_qubits(n);
        assert_eq!(raised.max_qubits(), density::MAX_QUBITS);
        for result in [raised.supports(&job), raised.expectation(&job).map(|_| ())] {
            assert!(matches!(
                result,
                Err(QnsError::Unsupported {
                    backend: "density",
                    ..
                })
            ));
        }
        assert_eq!(raised.cost_hint(&job), None);
    }
}
