//! Anytime refinement at the API layer: [`Refinement`] drives the
//! level-streaming evaluator of [`qns_core::refine`] for a validated
//! [`ExpectationJob`], converting each [`PartialEstimate`] into an
//! [`Estimate`] that carries its Theorem-1 bound, and
//! [`partial_sum_key`] derives the cache key under which per-level
//! partial sums may be stored and resumed.
//!
//! # Cache-key semantics
//!
//! [`ExpectationJob::fingerprint`] hashes the *job* — circuit, noise,
//! states — and deliberately **not** the [`ApproxOptions`]. A
//! per-level partial-sum cache stores *bits*, and no option changes the
//! bits of a level's contribution: the contraction order is chosen
//! from the job alone, and every level is summed in the same chunk
//! order whatever [`ApproxOptions::threads`] says. `level` only picks
//! how many levels run (the cache is indexed *per level* under one key,
//! which is what lets a higher-level resubmission resume from the
//! cached prefix instead of restarting), and `max_terms` only gates
//! feasibility. [`partial_sum_key`] therefore mixes a domain-separation
//! tag into the fingerprint and nothing else, so one cached prefix
//! serves every option set.
//!
//! The domain tag keeps partial-sum keys disjoint from the keys a
//! result cache derives from the same fingerprint (e.g. a serving
//! layer's `route/…` mixes), so a same-job-different-level partial sum
//! can never collide with a full-run result.

use crate::backends::ApproxBackend;
use crate::fingerprint::Fingerprint;
use crate::job::{Estimate, ExpectationJob};
use qns_core::refine::LevelEvaluator;
use qns_core::ApproxOptions;
use qns_noise::QnsError;

pub use qns_core::refine::PartialEstimate;

/// Derives the key under which a job's per-level partial sums are
/// cached (see the module docs for why no option is mixed in).
pub fn partial_sum_key(job_fingerprint: Fingerprint) -> Fingerprint {
    job_fingerprint.mix_str("refine/v1")
}

/// A level-streaming refinement of one job: wraps the core
/// [`LevelEvaluator`] and speaks [`Estimate`].
///
/// ```
/// use qns_api::{ApproxBackend, Simulation};
/// use qns_circuit::generators::ghz;
/// use qns_noise::{channels, NoisyCircuit};
///
/// let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 3, 7);
/// let job = Simulation::new(&noisy).observable_basis(0b111).build()?;
/// let mut refinement = ApproxBackend::level(3).refinement(&job)?;
/// while !refinement.is_complete() {
///     let partial = refinement.advance()?;
///     let est = refinement.estimate_for(&partial);
///     // Each level's estimate carries its Theorem-1 certificate …
///     assert!(est.error_bound.is_some() || est.is_exact());
/// }
/// // … and the last one, with every level in, is exact.
/// assert!(refinement.latest_estimate().unwrap().is_exact());
/// # Ok::<(), qns_api::QnsError>(())
/// ```
pub struct Refinement {
    eval: LevelEvaluator,
    backend: &'static str,
}

impl Refinement {
    /// Builds the refinement for `job` under `opts` (the once-per-run
    /// planning happens here; no patterns are contracted yet).
    ///
    /// # Errors
    ///
    /// As [`LevelEvaluator::new`].
    pub fn new(job: &ExpectationJob<'_>, opts: &ApproxOptions) -> Result<Self, QnsError> {
        let eval = LevelEvaluator::new(
            job.noisy(),
            job.initial().product(),
            job.observable().product(),
            opts,
        )?;
        Ok(Refinement {
            eval,
            backend: "approx",
        })
    }

    /// Number of noise sites `N` — the level at which the sum is exact.
    pub fn max_level(&self) -> usize {
        self.eval.max_level()
    }

    /// The level the next [`advance`](Self::advance) will compute.
    pub fn next_level(&self) -> usize {
        self.eval.next_level()
    }

    /// The highest completed level, if any.
    pub fn completed_level(&self) -> Option<usize> {
        self.eval.completed_level()
    }

    /// `true` once every level `0..=N` is in.
    pub fn is_complete(&self) -> bool {
        self.eval.is_complete()
    }

    /// Computes the next level's patterns and returns the tightened
    /// partial estimate.
    ///
    /// # Errors
    ///
    /// As [`LevelEvaluator::advance`].
    pub fn advance(&mut self) -> Result<PartialEstimate, QnsError> {
        self.eval.advance()
    }

    /// Installs a cached contribution for the next level instead of
    /// recomputing it (see [`LevelEvaluator::install_level`]).
    ///
    /// # Errors
    ///
    /// As [`LevelEvaluator::install_level`].
    pub fn install_level(
        &mut self,
        contribution: f64,
        patterns: usize,
    ) -> Result<PartialEstimate, QnsError> {
        self.eval.install_level(contribution, patterns)
    }

    /// The estimate as of the highest completed level, if any.
    pub fn partial(&self) -> Option<PartialEstimate> {
        self.eval.partial()
    }

    /// Converts a partial estimate from this refinement into an
    /// [`Estimate`]: level-truncated snapshots carry their Theorem-1
    /// bound, the full-level snapshot is exact.
    pub fn estimate_for(&self, partial: &PartialEstimate) -> Estimate {
        if partial.level >= self.max_level() {
            Estimate::exact(partial.value, self.backend)
        } else {
            Estimate::bounded(
                partial.value,
                partial.theorem1_bound,
                partial.level,
                self.backend,
            )
        }
    }

    /// [`estimate_for`](Self::estimate_for) applied to the latest
    /// completed level, if any.
    pub fn latest_estimate(&self) -> Option<Estimate> {
        self.partial().map(|p| self.estimate_for(&p))
    }
}

impl ApproxBackend {
    /// Starts a level-streaming [`Refinement`] of `job` under this
    /// backend's options: levels `0..=options().level` (clamped to the
    /// noise count) refine incrementally instead of running in one
    /// shot, each emitting its Theorem-1-bounded estimate.
    ///
    /// # Errors
    ///
    /// As [`Refinement::new`].
    pub fn refinement(&self, job: &ExpectationJob<'_>) -> Result<Refinement, QnsError> {
        Refinement::new(job, self.options())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::Backend;
    use crate::job::Simulation;
    use qns_circuit::generators::ghz;
    use qns_noise::{channels, NoisyCircuit};

    fn noisy() -> NoisyCircuit {
        NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(5e-3), 3, 21)
    }

    #[test]
    fn streamed_estimates_match_backend_runs_bitwise() {
        let noisy = noisy();
        let job = Simulation::new(&noisy)
            .observable_basis(0b111)
            .build()
            .unwrap();
        let mut r = ApproxBackend::level(3).refinement(&job).unwrap();
        for l in 0..=3usize {
            let partial = r.advance().unwrap();
            let est = r.estimate_for(&partial);
            let direct = ApproxBackend::level(l).expectation(&job).unwrap();
            assert_eq!(est.value.to_bits(), direct.value.to_bits(), "level {l}");
            assert_eq!(est.error_bound, direct.error_bound, "level {l}");
            assert_eq!(est.level, direct.level, "level {l}");
        }
        assert!(r.latest_estimate().unwrap().is_exact());
    }

    #[test]
    fn truncated_backend_runs_carry_their_bound() {
        let noisy = noisy();
        let job = Simulation::new(&noisy)
            .observable_basis(0b111)
            .build()
            .unwrap();
        let est = ApproxBackend::level(1).expectation(&job).unwrap();
        assert!(!est.is_exact());
        assert_eq!(est.level, Some(1));
        let bound = est.error_bound.expect("truncated run must carry a bound");
        assert!(bound > 0.0);
        // Exact reference within the certificate.
        let exact = ApproxBackend::exact_for(&noisy).expectation(&job).unwrap();
        assert!(exact.is_exact());
        assert!((est.value - exact.value).abs() <= bound + 1e-12);
        assert!(est.agrees_with(&exact, 1e-12));
    }

    #[test]
    fn partial_sum_keys_are_domain_separated_and_option_free() {
        let noisy = noisy();
        let job = Simulation::new(&noisy).build().unwrap();
        let fp = job.fingerprint();

        // Domain-separated from the raw job fingerprint, and stable.
        assert_ne!(partial_sum_key(fp), fp);
        assert_eq!(partial_sum_key(fp), partial_sum_key(fp));

        // No option changes a level's bits, so levels cached under one
        // option set serve every other: threads, level and max_terms
        // all leave the estimates, and with them the key, alone.
        let runs = [
            ApproxOptions::default().with_level(3),
            ApproxOptions::default().with_level(2).with_threads(4),
            ApproxOptions::default().with_level(3).with_max_terms(64),
        ];
        let per_level = |opts: &ApproxOptions| {
            let mut r = Refinement::new(&job, opts).unwrap();
            (0..=opts.level)
                .map(|_| r.advance().unwrap().level_contribution.to_bits())
                .collect::<Vec<_>>()
        };
        let reference = per_level(&runs[0]);
        for opts in &runs[1..] {
            assert_eq!(per_level(opts), reference[..=opts.level], "{opts:?}");
        }
    }
}
