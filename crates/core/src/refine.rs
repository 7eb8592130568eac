//! Level-streaming (anytime) evaluation of the pattern sum.
//!
//! The level-(l+1) approximation is the level-l sum *plus* the new
//! (l+1)-site correction terms — refinement is inherently incremental
//! (paper, Theorem 1). [`LevelEvaluator`] exposes that structure as an
//! anytime API: it performs the once-per-run setup of
//! [`crate::approx`] (site collection, planning and compiling the one
//! amplitude network an expectation needs), then computes the sum
//! **one level at a time**.
//! After each level it emits a [`PartialEstimate`] carrying the running
//! value, the level just completed, and the computable Theorem-1 error
//! bound at that level — so a caller can answer early at a coarse
//! level and keep refining in the background.
//!
//! # Bitwise identity with direct runs
//!
//! [`crate::approx::try_approximate_expectation`] is itself implemented
//! on this evaluator, so a streamed run and a direct run at the same
//! level execute the same code in the same order: the per-level
//! contributions, and therefore every partial sum, are **bitwise
//! identical** — not merely close. Each level's contribution `T_u` is
//! a well-defined `f64` that depends on the job alone: the Gray
//! enumeration order of the parent patterns is fixed, delta replay is
//! bit-identical to full replay, an environment sweep reads only what
//! a full replay of its parent computes, and every level is reduced in
//! the same compensated chunk order whatever the thread count. That is
//! what makes per-level caching sound: a cached `T_u` can be
//! [installed](LevelEvaluator::install_level) into a fresh evaluator,
//! on any thread count, without changing any later bit.
//!
//! # One network per pattern
//!
//! An expectation caps both halves of the split with the same `|v⟩`,
//! and [`crate::NoiseSvd`] builds each lower factor as exactly
//! `V_i = conj(U_i)`; the lower network is then the entry-wise
//! conjugate of the upper one, and so is its contraction, bit for bit
//! (see [`crate::approx`]). The evaluator plans, compiles, warms,
//! delta-replays and sweeps only the upper network and adds
//! `amp·conj(amp)` per pattern — bitwise what the two-network product
//! would give, at half the work. Every pattern term is a
//! Kraus-trajectory probability, so every `T_u ≥ 0` and `A(l)` rises
//! monotonically toward the exact value from below.
//!
//! A matrix element `⟨x|E(ρ)|y⟩` runs on the same evaluator with two
//! caps ([`crate::approx::try_approximate_matrix_element`]); it keeps
//! its level sums complex and adds the lower network `⟨y|·|ψ⟩`.
//!
//! # One sweep per parent
//!
//! Level 0 is one replay. Above it, each level-`u` pattern is a
//! level-`(u − 1)` parent plus one correction at a site above the
//! parent's highest one, so the evaluator installs each parent with
//! one delta replay and prices all its children with one environment
//! sweep (see [`crate::approx`]); level 1 sweeps the pattern level 0
//! left installed.
//!
//! # Example
//!
//! ```
//! use qns_circuit::generators::ghz;
//! use qns_core::approx::ApproxOptions;
//! use qns_core::refine::LevelEvaluator;
//! use qns_noise::{channels, NoisyCircuit};
//! use qns_tnet::builder::ProductState;
//!
//! let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 3, 7);
//! let psi = ProductState::all_zeros(3);
//! let v = ProductState::basis(3, 0b111);
//! let opts = ApproxOptions::default().with_level(2);
//! let mut eval = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
//! let mut last = None;
//! while eval.next_level() <= 2 {
//!     let p = eval.advance().unwrap();
//!     // Theorem-1 bounds tighten monotonically as levels complete.
//!     if let Some(prev) = last.replace(p) {
//!         assert!(p.theorem1_bound <= prev.theorem1_bound);
//!     }
//! }
//! ```

use crate::approx::{
    build_split, check_budget, check_state, collect_sites, evaluate_level, ApproxOptions,
    ApproxResult, SplitDelta, SplitShared, PARENT_CHUNK,
};
use qns_linalg::Complex64;
use qns_noise::{NoisyCircuit, QnsError};
use qns_tnet::builder::ProductState;
use qns_tnet::network::ContractionStats;

/// Snapshot emitted after a level completes: the running approximation
/// together with its a-priori Theorem-1 accuracy certificate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialEstimate {
    /// The level-`level` approximation `A(level)` — the sum of all
    /// per-level contributions computed (or installed) so far.
    pub value: f64,
    /// The highest level whose contribution is included in `value`.
    pub level: usize,
    /// Theorem-1 error bound `|A(level) − exact| ≤ bound` at this
    /// level; `0` once every level is in (the sum is then exact).
    pub theorem1_bound: f64,
    /// Total substitution patterns accounted for across all levels so
    /// far (computed or installed from cache).
    pub patterns_done: usize,
    /// The contribution `T_level` of the level just completed.
    pub level_contribution: f64,
    /// The patterns the level just completed ran (or, if installed
    /// from a cache, had run): those whose terms all have a nonzero
    /// eigenvalue, [`crate::bounds::level_patterns_for_ranks`]. At
    /// most the Theorem-1 count `C(N,level)·3^level`, which is what
    /// budgets and deadlines are priced with.
    pub level_patterns: usize,
}

/// Level-incremental evaluator for the pattern sum of
/// [`crate::approx::approximate_expectation`].
///
/// Construction performs the once-per-run setup (validation, SVD site
/// collection, planning + compiling the amplitude network); each
/// [`advance`](Self::advance) then sums exactly one level's new
/// patterns through the compiled plans, one delta replay and one
/// environment sweep per parent pattern on warm workspaces, and
/// returns the tightened
/// [`PartialEstimate`]. Levels already paid for elsewhere can be
/// [installed](Self::install_level) from a cache instead of recomputed.
pub struct LevelEvaluator {
    /// Number of noise sites `N` (the maximum — exact — level).
    n: usize,
    threads: usize,
    max_terms: u128,
    /// Largest per-event noise rate, the `p` of the Theorem-1 bound:
    /// `None` for a matrix element, whose estimates carry no bound.
    noise_rate: Option<f64>,
    shared: SplitShared,
    /// One delta evaluator per worker thread, each with its own
    /// skeletons and hot workspace, kept across levels so its warm
    /// intermediates and installed assignment carry over (a level's
    /// first parent diffs against the worker's last one). Worker 0
    /// runs on the calling thread; the others are forked from it on
    /// the first level with more than one parent chunk, at most one
    /// worker per chunk.
    workers: Vec<SplitDelta>,
    /// Sums `T_0 … T_k` of the completed levels. An expectation's are
    /// real and only their real parts are read; a matrix element's
    /// are complex.
    per_level: Vec<Complex64>,
    /// Pattern count of each completed level.
    level_counts: Vec<usize>,
    /// Patterns of the levels computed here, not installed.
    computed: usize,
    stats: ContractionStats,
}

impl LevelEvaluator {
    /// Builds the evaluator: validates states, collects the noise
    /// sites, checks the [`ApproxOptions::max_terms`] budget at the
    /// requested `opts.level` (clamped to the site count), and plans +
    /// compiles the upper amplitude network — the only one an
    /// expectation needs. No patterns are contracted yet.
    ///
    /// # Errors
    ///
    /// [`QnsError::SizeMismatch`] if a state's qubit count disagrees
    /// with the circuit, [`QnsError::TermBudgetExceeded`] if running up
    /// to `opts.level` would exceed `opts.max_terms`.
    pub fn new(
        noisy: &NoisyCircuit,
        psi: &ProductState,
        v: &ProductState,
        opts: &ApproxOptions,
    ) -> Result<Self, QnsError> {
        let circuit = noisy.circuit();
        check_state("input state", psi, circuit)?;
        check_state("test state", v, circuit)?;
        Self::build(noisy, psi, v, v, opts, true)
    }

    /// [`new`](Self::new) for the matrix element `⟨x|E(ρ)|y⟩`: the
    /// upper network is capped with `x`, and a lower one with `y` when
    /// it differs. The caller has validated the three states. Its
    /// estimates carry no Theorem-1 bound (`theorem1_bound` reads
    /// infinity), so it computes no noise rate.
    pub(crate) fn with_caps(
        noisy: &NoisyCircuit,
        psi: &ProductState,
        x: &ProductState,
        y: &ProductState,
        opts: &ApproxOptions,
    ) -> Result<Self, QnsError> {
        Self::build(noisy, psi, x, y, opts, false)
    }

    fn build(
        noisy: &NoisyCircuit,
        psi: &ProductState,
        x: &ProductState,
        y: &ProductState,
        opts: &ApproxOptions,
        bounded: bool,
    ) -> Result<Self, QnsError> {
        let sites = collect_sites(noisy);
        let n = sites.len();
        check_budget(n, opts.level.min(n), opts.max_terms)?;
        let noise_rate = bounded.then(|| sites.max_noise_rate());
        let (skels, shared) = build_split(noisy.circuit(), psi, x, y, &sites);
        let mut stats = ContractionStats::default();
        stats.absorb(&shared.planning);
        let workers = vec![SplitDelta::new(skels, &shared)];
        Ok(LevelEvaluator {
            n,
            threads: opts.threads,
            max_terms: opts.max_terms,
            noise_rate,
            shared,
            workers,
            per_level: Vec::new(),
            level_counts: Vec::new(),
            computed: 0,
            stats,
        })
    }

    /// Number of noise sites `N`: the deepest level, at which the sum
    /// is exact.
    pub fn max_level(&self) -> usize {
        self.n
    }

    /// The level the next [`advance`](Self::advance) will compute
    /// (0-based; equals the number of completed levels).
    pub fn next_level(&self) -> usize {
        self.per_level.len()
    }

    /// The highest completed level, or `None` before the first
    /// [`advance`](Self::advance).
    pub fn completed_level(&self) -> Option<usize> {
        self.per_level.len().checked_sub(1)
    }

    /// `true` once every level `0..=N` is in — the sum is exact and
    /// further [`advance`](Self::advance) calls error.
    pub fn is_complete(&self) -> bool {
        self.per_level.len() > self.n
    }

    /// Aggregated contraction statistics so far (planning included).
    pub fn stats(&self) -> &ContractionStats {
        &self.stats
    }

    /// Computes the next level's contribution by contracting exactly
    /// its new patterns, and returns the tightened estimate.
    ///
    /// # Errors
    ///
    /// [`QnsError::TermBudgetExceeded`] if the cumulative pattern count
    /// through the next level exceeds the `max_terms` guard (only
    /// reachable past the level validated at construction);
    /// [`QnsError::InvalidJob`] if the evaluator
    /// [is already complete](Self::is_complete).
    pub fn advance(&mut self) -> Result<PartialEstimate, QnsError> {
        let u = self.begin_level()?;
        // A worker per parent chunk at most: level 0 (one pattern) and
        // a level of one chunk run on the calling thread.
        let chunks = match u {
            0 => 1,
            _ => crate::patterns::parent_count(&self.shared.ranks, u - 1)
                .div_ceil(PARENT_CHUNK as u128),
        };
        let workers = (self.threads as u128).min(chunks).max(1) as usize;
        while self.workers.len() < workers {
            let fork = self.workers[0].fork(&self.shared);
            self.workers.push(fork);
        }
        let (tu, count, level_stats) =
            evaluate_level(&mut self.workers[..workers], &self.shared, u);
        self.stats.absorb(&level_stats);
        self.per_level.push(tu);
        self.level_counts.push(count);
        self.computed += count;
        Ok(self.estimate_at(u))
    }

    /// [`advance`](Self::advance)s until `level` (clamped to
    /// [`max_level`](Self::max_level)) is complete.
    pub(crate) fn advance_to(&mut self, level: usize) -> Result<(), QnsError> {
        while self.next_level() <= level.min(self.n) {
            self.advance()?;
        }
        Ok(())
    }

    /// Installs a previously computed contribution for the next level
    /// instead of recomputing it — the cache-resume path. Because each
    /// `T_u` is bitwise well-defined independent of evaluator history,
    /// installing a cached value leaves every later level's bits
    /// unchanged relative to a full fresh run.
    ///
    /// # Errors
    ///
    /// [`QnsError::InvalidJob`] if the evaluator is complete or
    /// `patterns` is not the count [`advance`](Self::advance) would
    /// run for the next level,
    /// [`crate::bounds::level_patterns_for_ranks`] (a corrupt or
    /// mismatched cache entry).
    pub fn install_level(
        &mut self,
        contribution: f64,
        patterns: usize,
    ) -> Result<PartialEstimate, QnsError> {
        let u = self.begin_level()?;
        let expected = crate::bounds::level_patterns_for_ranks(&self.shared.ranks, u);
        if patterns as u128 != expected {
            return Err(QnsError::InvalidJob {
                reason: format!(
                    "cached level {u} carries {patterns} patterns, expected {expected}"
                ),
            });
        }
        self.per_level.push(Complex64::new(contribution, 0.0));
        self.level_counts.push(patterns);
        Ok(self.estimate_at(u))
    }

    /// Completion/budget gate shared by [`advance`](Self::advance) and
    /// [`install_level`](Self::install_level); returns the level about
    /// to be filled.
    fn begin_level(&self) -> Result<usize, QnsError> {
        let u = self.per_level.len();
        if u > self.n {
            return Err(QnsError::InvalidJob {
                reason: format!("refinement already complete at level {}", self.n),
            });
        }
        check_budget(self.n, u, self.max_terms)?;
        Ok(u)
    }

    /// The estimate as of the highest completed level, or `None`
    /// before the first [`advance`](Self::advance).
    pub fn partial(&self) -> Option<PartialEstimate> {
        self.completed_level().map(|level| self.estimate_at(level))
    }

    /// The estimate through `level`, which must be the highest
    /// completed level (the callers pass the level they just pushed).
    fn estimate_at(&self, level: usize) -> PartialEstimate {
        PartialEstimate {
            value: self.per_level.iter().map(|t| t.re).sum(),
            level,
            theorem1_bound: self.noise_rate.map_or(f64::INFINITY, |p| {
                crate::bounds::error_bound(self.n, p, level)
            }),
            patterns_done: self.level_counts.iter().sum(),
            level_contribution: self.per_level[level].re,
            level_patterns: self.level_counts[level],
        }
    }

    /// Converts the completed levels into the [`ApproxResult`] a direct
    /// [`crate::approx::approximate_expectation`] run at the same level
    /// would return, except that `contractions` and `stats` count only
    /// the levels computed here, not those installed from a cache.
    pub fn into_result(self) -> ApproxResult {
        let per_level: Vec<f64> = self.per_level.iter().map(|t| t.re).collect();
        ApproxResult {
            value: per_level.iter().sum(),
            per_level,
            terms_evaluated: self.level_counts.iter().sum(),
            contractions: self.computed,
            stats: self.stats,
        }
    }

    /// The complex sums `T_0 … T_k` of the completed levels.
    #[cfg(test)]
    pub(crate) fn level_sums(&self) -> &[Complex64] {
        &self.per_level
    }

    /// The pattern counts of the completed levels.
    #[cfg(test)]
    pub(crate) fn level_counts(&self) -> &[usize] {
        &self.level_counts
    }

    /// The matrix element through the completed levels, with its
    /// pattern count and contraction statistics.
    pub(crate) fn into_element(self) -> (Complex64, usize, ContractionStats) {
        (
            self.per_level.iter().copied().sum(),
            self.level_counts.iter().sum(),
            self.stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approximate_expectation;
    use qns_circuit::generators::ghz;
    use qns_noise::channels;

    fn fixture() -> (NoisyCircuit, ProductState, ProductState) {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(5e-3), 4, 13);
        (
            noisy,
            ProductState::all_zeros(3),
            ProductState::basis(3, 0b111),
        )
    }

    #[test]
    fn streamed_levels_are_bitwise_identical_to_direct_runs() {
        let (noisy, psi, v) = fixture();
        let opts = ApproxOptions::default().with_level(4);
        let mut eval = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
        for l in 0..=4usize {
            let p = eval.advance().unwrap();
            let direct = approximate_expectation(&noisy, &psi, &v, &opts.with_level(l));
            assert_eq!(p.value.to_bits(), direct.value.to_bits(), "level {l}");
            assert_eq!(p.patterns_done, direct.terms_evaluated, "level {l}");
            assert_eq!(p.level, l);
        }
        assert!(eval.is_complete());
        assert!(eval.advance().is_err());
    }

    #[test]
    fn bounds_tighten_monotonically_and_vanish_at_full_level() {
        let (noisy, psi, v) = fixture();
        let opts = ApproxOptions::default().with_level(4);
        let mut eval = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
        let mut prev = f64::INFINITY;
        for _ in 0..=4 {
            let p = eval.advance().unwrap();
            assert!(p.theorem1_bound <= prev, "bound grew at level {}", p.level);
            prev = p.theorem1_bound;
        }
        assert_eq!(prev, 0.0, "full level must certify exactness");
    }

    #[test]
    fn install_level_resumes_without_changing_bits() {
        let (noisy, psi, v) = fixture();
        let opts = ApproxOptions::default().with_level(3);
        // First pass: compute levels 0..=2 and remember them.
        let mut first = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
        let mut cached = Vec::new();
        for _ in 0..=2 {
            let p = first.advance().unwrap();
            cached.push((p.level_contribution, p.level_patterns));
        }
        let full = first.advance().unwrap();
        // Resume: install the cached prefix, compute only level 3.
        let mut resumed = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
        for &(t, c) in &cached {
            resumed.install_level(t, c).unwrap();
        }
        let p = resumed.advance().unwrap();
        assert_eq!(p.value.to_bits(), full.value.to_bits());
        assert_eq!(p.patterns_done, full.patterns_done);
    }

    #[test]
    fn install_level_rejects_mismatched_pattern_counts() {
        let (noisy, psi, v) = fixture();
        let opts = ApproxOptions::default();
        let mut eval = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
        let err = eval.install_level(0.5, 7).unwrap_err();
        assert!(matches!(err, QnsError::InvalidJob { .. }));
        // The rejected install must not have consumed the level.
        assert_eq!(eval.next_level(), 0);
    }

    #[test]
    fn advance_past_validated_level_respects_budget_guard() {
        let (noisy, psi, v) = fixture();
        // Level 0 fits (1 pattern), level 1 (1 + 12) does not.
        let opts = ApproxOptions::default().with_level(0).with_max_terms(5);
        let mut eval = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
        eval.advance().unwrap();
        let err = eval.advance().unwrap_err();
        assert!(matches!(err, QnsError::TermBudgetExceeded { level: 1, .. }));
    }

    #[test]
    fn a_level_runs_at_most_one_worker_per_chunk() {
        // Level 1 of 12 thermal sites sweeps one parent, the
        // all-dominant pattern: one chunk, so it runs on the calling
        // thread, with no fork. Level 2 sweeps 22 parents in 6 chunks,
        // forks the second worker, and its sum is bitwise a fresh
        // two-thread run's.
        let thermal = channels::thermal_relaxation(30.0, 40.0, 25.0);
        let noisy = NoisyCircuit::inject_random(ghz(4), &thermal, 12, 29);
        let (psi, v) = (ProductState::all_zeros(4), ProductState::basis(4, 0b1111));
        let opts = ApproxOptions::default().with_level(2).with_threads(2);
        let mut eval = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
        eval.advance().unwrap();
        let level_1 = eval.advance().unwrap();
        assert_eq!(level_1.level_patterns, 24);
        assert_eq!(crate::patterns::parent_count(&eval.shared.ranks, 0), 1);
        assert_eq!(eval.workers.len(), 1, "a one-chunk level forked a worker");
        assert!(crate::patterns::parent_count(&eval.shared.ranks, 1) > PARENT_CHUNK as u128);
        let level_2 = eval.advance().unwrap();
        assert_eq!(eval.workers.len(), 2);
        let fresh = approximate_expectation(&noisy, &psi, &v, &opts);
        assert_eq!(level_2.value.to_bits(), fresh.value.to_bits());
        assert_eq!(
            level_2.level_contribution.to_bits(),
            fresh.per_level[2].to_bits()
        );
    }

    #[test]
    fn parallel_streaming_matches_parallel_direct_runs() {
        let (noisy, psi, v) = fixture();
        let opts = ApproxOptions::default().with_level(2).with_threads(4);
        let mut eval = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
        for l in 0..=2usize {
            let p = eval.advance().unwrap();
            let direct = approximate_expectation(&noisy, &psi, &v, &opts.with_level(l));
            assert_eq!(p.value.to_bits(), direct.value.to_bits(), "level {l}");
        }
    }
}
