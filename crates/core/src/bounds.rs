//! Theorem 1 analytics: error bounds, contraction counts, and the
//! sample-count comparison against quantum trajectories (Fig. 5).

/// Binomial coefficient `C(n, k)` as `f64` (exact for the small `n`
/// used here; avoids overflow for larger sweeps).
pub fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// Theorem 1 error bound for the `level`-approximation of a circuit
/// with `n_noises` noises, each of noise rate `< p`:
///
/// ```text
/// |F − A(l)| < (1+8p)^N − Σ_{i=0..l} C(N,i)·(4p)^i·(1+4p)^{N−i}
///            = Σ_{i=l+1..N} C(N,i)·(4p)^i·(1+4p)^{N−i}
/// ```
///
/// Computed as the tail sum on the second line (binomial theorem):
/// every term is positive, so there is no cancellation. The difference
/// on the first line loses all digits when the tail is far below
/// `(1+8p)^N`, down to a bound of exactly 0 for a truncated level.
/// Each term is evaluated in log space, so a huge `C(N,i)` times a
/// tiny `(4p)^i` neither overflows nor underflows on the way; the
/// result is accurate to ~1e-13 relative for `N` in the hundreds. The
/// bound is strictly positive whenever `level < N` and `p > 0` (a tail
/// below the smallest positive `f64` rounds up to it, never down to 0).
///
/// # Panics
///
/// Panics if `p < 0`.
pub fn error_bound(n_noises: usize, p: f64, level: usize) -> f64 {
    assert!(p >= 0.0, "noise rate must be non-negative");
    let n = n_noises;
    if level >= n || p == 0.0 {
        return 0.0;
    }
    let (ln_x, ln_y) = ((4.0 * p).ln(), (4.0 * p).ln_1p());
    let mut ln_binomial = 0.0; // ln C(n, i)
    let mut tail = 0.0;
    for i in 0..=n {
        if i > level {
            tail += (ln_binomial + i as f64 * ln_x + (n - i) as f64 * ln_y).exp();
        }
        ln_binomial += ((n - i) as f64 / (i + 1) as f64).ln();
    }
    f64::max(tail, f64::from_bits(1))
}

/// The closed-form estimate `32·√e·N²·p²` for the level-1 error when
/// `p ≤ 1/(8N)` (paper, Section IV).
pub fn one_level_error_estimate(n_noises: usize, p: f64) -> f64 {
    32.0 * std::f64::consts::E.sqrt() * (n_noises as f64).powi(2) * p * p
}

/// The substitution-pattern count contributed by exactly `u` active
/// sites out of `n_noises`: `C(N,u)·3^u`, the inner term of Theorem 1's
/// sum. This is the paper's count and the one every price and guard
/// uses (`max_terms`, routing cost, admission, deadlines). It is an
/// upper bound on what a run contracts: the evaluators skip the
/// patterns that use an exactly-zero term and run
/// [`level_patterns_for_ranks`]. **Saturating**: past roughly
/// `N = 81` at high `u` the exact value exceeds `u128`, and the only
/// consumers are feasibility guards and cost models, for which
/// `u128::MAX` ("infeasibly many") is the correct answer — never a
/// panic (debug) or a silent tiny wrap (release). Returns 0 when
/// `u > n_noises`.
pub fn level_patterns(n_noises: usize, u: usize) -> u128 {
    if u > n_noises {
        return 0;
    }
    // Binomial in u128 — exact while it fits: multiply before dividing
    // (the running product after the division is C(n, j+1), an
    // integer). Checked so saturation is sticky rather than wrapping.
    let mut c: u128 = 1;
    for j in 0..u {
        match c.checked_mul((n_noises - j) as u128) {
            Some(v) => c = v / (j + 1) as u128,
            None => return u128::MAX,
        }
    }
    (0..u)
        .try_fold(c, |acc, _| acc.checked_mul(3))
        .unwrap_or(u128::MAX)
}

/// The Theorem-1 substitution-pattern count of a level-`l` run over
/// `n_noises` noises: `Σ_{i=0..l} C(N,i)·3^i` — half of
/// [`contraction_count`], since every pattern contracts two
/// single-size networks. This is the quantity the engine's `max_terms`
/// budget guard and the routing cost model are both built on; keeping
/// it in one place keeps them in agreement. A run contracts at most
/// this many ([`planned_patterns_for_ranks`]). Saturating, like
/// [`level_patterns`].
pub fn planned_patterns(n_noises: usize, level: usize) -> u128 {
    (0..=level.min(n_noises)).fold(0u128, |acc, i| {
        acc.saturating_add(level_patterns(n_noises, i))
    })
}

/// Elementary symmetric sums `e_0 … e_top` of the per-site weights
/// `r_s − 1` (the sub-dominant terms with a nonzero eigenvalue), by
/// the `O(N·top)` recurrence `e_k += e_{k−1}·w` over the sites.
/// Saturating: each entry holds `min(e_k, u128::MAX)`.
fn elementary_symmetric(ranks: &[usize], top: usize) -> Vec<u128> {
    let mut e = vec![0u128; top + 1];
    e[0] = 1;
    for &r in ranks {
        let w = crate::patterns::correction_terms(r) as u128;
        for k in (1..=top).rev() {
            e[k] = e[k].saturating_add(e[k - 1].saturating_mul(w));
        }
    }
    e
}

/// The level-`u` pattern count a run actually contracts, for sites
/// with Kraus ranks `ranks` ([`crate::NoiseSvd::rank`], in
/// [`crate::site_ranks`] order): the patterns whose `u` active sites
/// all take a term with a nonzero eigenvalue,
/// `e_u(r_1 − 1, …, r_N − 1)`. With every rank 4 this is
/// [`level_patterns`]; thermal relaxation (rank 3) gives `C(N,u)·2^u`.
/// Saturating, like [`level_patterns`].
pub fn level_patterns_for_ranks(ranks: &[usize], u: usize) -> u128 {
    if u > ranks.len() {
        return 0;
    }
    elementary_symmetric(ranks, u)[u]
}

/// The pattern count a level-`l` run over sites with Kraus ranks
/// `ranks` contracts: `Σ_{u≤l}` [`level_patterns_for_ranks`]. With
/// every rank 4 this is [`planned_patterns`], which stays the pricing
/// count. Saturating, like [`level_patterns`].
pub fn planned_patterns_for_ranks(ranks: &[usize], level: usize) -> u128 {
    elementary_symmetric(ranks, level.min(ranks.len()))
        .into_iter()
        .fold(0u128, u128::saturating_add)
}

/// The plan uses — replays plus environment sweeps — that one network
/// of a level-`l` run over sites with Kraus ranks `ranks` performs, on
/// a fresh evaluator: level 0 replays the all-dominant pattern, level
/// 1 sweeps it as it stands, and every deeper level `u` installs each
/// of its parents (the level-`(u − 1)` patterns with a correction site
/// above their highest active one) with one replay and sweeps it. A
/// matrix element with distinct caps runs two networks. This is what
/// [`crate::approx::ApproxResult::stats`] counts as `plan_reuses`,
/// whatever the thread count, and it is below the pattern count at
/// every level above 0 where a site has a correction. Saturating, like
/// [`level_patterns`].
pub fn plan_uses_for_ranks(ranks: &[usize], level: usize) -> u128 {
    let parents = |u| crate::patterns::parent_count(ranks, u);
    (0..=level.min(ranks.len())).fold(0u128, |total, u| {
        total.saturating_add(match u {
            0 => 1,
            1 => parents(0),
            _ => parents(u - 1).saturating_mul(2),
        })
    })
}

/// The paper's contraction count for the level-`l` approximation,
/// two single-size networks per pattern: `2·Σ_{i=0..l} C(N,i)·3^i`
/// (Theorem 1) — the unit of `table4` and Fig. 5. An expectation run
/// here contracts one network per pattern (the lower half is the
/// conjugate of the upper, see [`crate::approx`]), so
/// [`crate::approx::ApproxResult::contractions`] is half of this.
/// Saturating, like [`level_patterns`].
pub fn contraction_count(n_noises: usize, level: usize) -> u128 {
    planned_patterns(n_noises, level).saturating_mul(2)
}

/// The smallest level whose Theorem-1 bound meets `target_error`, or
/// `None` if even the exact level `N` misses it (only possible for
/// `target_error ≤ 0`).
pub fn level_recommendation(n_noises: usize, p: f64, target_error: f64) -> Option<usize> {
    (0..=n_noises).find(|&l| error_bound(n_noises, p, l) <= target_error)
}

/// Samples the quantum trajectories method needs to reach the same
/// error as our level-1 approximation at 99% confidence (Hoeffding
/// planner) — the Fig. 5 comparison.
pub fn trajectories_samples_matching_level1(n_noises: usize, p: f64) -> usize {
    let eps = error_bound(n_noises, p, 1).max(f64::MIN_POSITIVE);
    qns_sim::trajectory::required_samples(eps, 0.99)
}

/// Our level-`l` "sample" count — the paper's two-half count of
/// single-size network contractions ([`contraction_count`], a unit
/// comparable to one trajectory) — as `f64` for Fig. 5 plotting.
pub fn our_samples(n_noises: usize, level: usize) -> f64 {
    contraction_count(n_noises, level) as f64
}

/// The calibration constant of the paper's trajectory cost model (see
/// [`trajectories_samples_scaling_model`]), chosen so the p = 0.001
/// crossover lands at N ≈ 26 as in Fig. 5.
pub const FIG5_TRAJECTORY_CONSTANT: f64 = 0.074;

/// The paper's Fig. 5 cost model for quantum trajectories:
/// achieving error `ε = |F − A(1)|`-bound accuracy needs
/// `r = (C/ε)²` samples (i.e. `N²p² = C/√r` ⇒ `r = C²/(N⁴p⁴)` up to
/// the bound's constants). `C` is a variance-dependent calibration
/// constant; [`FIG5_TRAJECTORY_CONSTANT`] reproduces the paper's
/// crossover. The Hoeffding planner
/// ([`trajectories_samples_matching_level1`]) is the conservative
/// worst-case alternative.
pub fn trajectories_samples_scaling_model(n_noises: usize, p: f64, c: f64) -> f64 {
    let eps = error_bound(n_noises, p, 1).max(f64::MIN_POSITIVE);
    (c / eps).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(3, 7), 0.0);
    }

    #[test]
    fn full_level_bound_is_zero() {
        // Binomial theorem: Σ_{i=0..N} C(N,i)(4p)^i(1+4p)^{N−i} = (1+8p)^N.
        for n in [1usize, 3, 10, 25] {
            for p in [1e-4, 1e-3, 1e-2] {
                let b = error_bound(n, p, n);
                assert!(b.abs() < 1e-9, "bound {b} at n={n}, p={p}");
            }
        }
    }

    /// `Σ_{i>l} C(N,i)(4p)^i(1+4p)^{N−i}` in exact rational
    /// arithmetic at the dyadic rate `p = 2^-e` (`e ≥ 2`). With
    /// `x = 4p = 2^-s`, `s = e − 2`, term `i` is
    /// `C(N,i)·(2^s + 1)^{N−i} / 2^{sN}`, so the tail is one big
    /// integer over `2^{sN}`; only the final division rounds.
    fn exact_tail(n: usize, e: u32, level: usize) -> f64 {
        // Little-endian base-2^32 digits.
        fn mul_small(a: &mut Vec<u64>, m: u64) {
            let mut carry = 0u64;
            for d in a.iter_mut() {
                let v = *d * m + carry;
                *d = v & 0xFFFF_FFFF;
                carry = v >> 32;
            }
            while carry > 0 {
                a.push(carry & 0xFFFF_FFFF);
                carry >>= 32;
            }
        }
        fn add(a: &mut Vec<u64>, b: &[u64]) {
            let mut carry = 0u64;
            for i in 0..a.len().max(b.len()) {
                if i == a.len() {
                    a.push(0);
                }
                let v = a[i] + b.get(i).copied().unwrap_or(0) + carry;
                a[i] = v & 0xFFFF_FFFF;
                carry = v >> 32;
            }
            if carry > 0 {
                a.push(carry);
            }
        }
        let s = e - 2;
        let mut num = vec![0u64];
        for i in level + 1..=n {
            let c = level_patterns(n, i) / 3u128.pow(i as u32); // C(N,i), exact
            let mut term = vec![(c & 0xFFFF_FFFF) as u64, (c >> 32) as u64];
            for _ in 0..n - i {
                mul_small(&mut term, (1u64 << s) + 1);
            }
            add(&mut num, &term);
        }
        let value: f64 = num
            .iter()
            .enumerate()
            .rev()
            .map(|(k, &d)| d as f64 * 2f64.powi(32 * k as i32))
            .sum();
        value * 2f64.powi(-((s as usize * n) as i32))
    }

    #[test]
    fn bound_matches_exact_rational_tail() {
        // Regression: the old `(1+8p)^N − covered` form returned 0.0
        // for (4, 2^-20, 3) — a truncated level claimed to be exact —
        // and was off in the 9th digit for (12, 2^-10, 3).
        for &(n, e, level) in &[
            (4usize, 20u32, 3usize),
            (12, 10, 3),
            (12, 10, 0),
            (12, 20, 11),
            (16, 6, 2),
            (16, 12, 5),
            (8, 3, 1),
            (1, 20, 0),
        ] {
            let p = 2f64.powi(-(e as i32));
            let got = error_bound(n, p, level);
            let want = exact_tail(n, e, level);
            assert!(want > 0.0);
            assert!(got > 0.0, "bound 0 at ({n}, 2^-{e}, {level})");
            let rel = (got - want).abs() / want;
            assert!(
                rel <= 1e-12,
                "({n}, 2^-{e}, {level}): {got:e} vs {want:e}, rel {rel:e}"
            );
        }
    }

    #[test]
    fn truncated_bound_is_strictly_positive() {
        for n in [1usize, 4, 12, 40, 200, 2000] {
            for p in [1e-300, 2f64.powi(-40), 1e-6, 1e-3, 0.1] {
                for level in 0..n.min(6) {
                    assert!(error_bound(n, p, level) > 0.0, "({n}, {p:e}, {level})");
                }
            }
            assert_eq!(error_bound(n, 0.0, 0), 0.0);
            assert_eq!(error_bound(n, 1e-3, n), 0.0);
        }
    }

    #[test]
    fn large_n_bound_neither_overflows_nor_underflows() {
        // Where the tail is a sizeable share of (1+8p)^N the old
        // difference form has no real cancellation: agree with it.
        for (n, p, level) in [
            (2000usize, 1e-3f64, 1usize),
            (500, 1e-2, 10),
            (300, 0.05, 3),
        ] {
            let total = (1.0 + 8.0 * p).powi(n as i32);
            let covered: f64 = (0..=level)
                .map(|i| {
                    binomial(n, i) * (4.0 * p).powi(i as i32) * (1.0 + 4.0 * p).powi((n - i) as i32)
                })
                .sum();
            let old = total - covered;
            assert!(
                old > 1e-3 * total,
                "({n}, {p}, {level}) is not cancellation-free"
            );
            let got = error_bound(n, p, level);
            assert!(
                ((got - old) / old).abs() < 1e-10,
                "({n}, {p}, {level}): {got:e} vs {old:e}"
            );
        }
        // C(1000,111) ≈ 1e150 times (0.004)^111 ≈ 1e-266: the tail is
        // ≈ 1e-115, though the factors alone overflow/underflow a naive
        // product of powers.
        let b = error_bound(1000, 1e-3, 110);
        assert!(b > 1e-120 && b < 1e-110, "{b:e}");
    }

    #[test]
    fn bound_decreases_with_level() {
        let n = 20;
        let p = 1e-3;
        let mut prev = f64::INFINITY;
        for l in 0..=5 {
            let b = error_bound(n, p, l);
            assert!(b <= prev + 1e-15, "bound not monotone at l={l}");
            prev = b;
        }
    }

    #[test]
    fn bound_grows_with_noise_count_and_rate() {
        assert!(error_bound(40, 1e-3, 1) > error_bound(10, 1e-3, 1));
        assert!(error_bound(20, 1e-2, 1) > error_bound(20, 1e-3, 1));
    }

    #[test]
    fn one_level_estimate_dominates_exact_bound_in_regime() {
        // For p ≤ 1/(8N) the closed form upper-bounds the exact bound.
        for n in [10usize, 20, 40] {
            let p = 1.0 / (10.0 * 8.0 * n as f64); // comfortably in regime
            let exact = error_bound(n, p, 1);
            let estimate = one_level_error_estimate(n, p);
            assert!(
                exact <= estimate * 1.05,
                "estimate {estimate} < exact {exact} at n={n}"
            );
        }
    }

    #[test]
    fn contraction_count_small_cases() {
        // l=0: 2 contractions; l=1: 2(1+3N).
        assert_eq!(contraction_count(10, 0), 2);
        assert_eq!(contraction_count(10, 1), 2 * (1 + 3 * 10));
        // l=2 with N=4: 2(1 + 12 + C(4,2)·9) = 2(1+12+54) = 134.
        assert_eq!(contraction_count(4, 2), 134);
    }

    #[test]
    fn planned_patterns_is_half_the_contraction_count() {
        for (n, l) in [(10, 0), (10, 1), (4, 2), (3, 99)] {
            assert_eq!(planned_patterns(n, l), contraction_count(n, l) / 2);
        }
        assert_eq!(planned_patterns(10, 1), 1 + 3 * 10);
    }

    #[test]
    fn level_patterns_matches_formula() {
        assert_eq!(level_patterns(10, 0), 1);
        assert_eq!(level_patterns(10, 1), 30);
        assert_eq!(level_patterns(4, 2), 54); // C(4,2)·9
        assert_eq!(level_patterns(3, 7), 0);
        for n in [3usize, 6, 10] {
            for u in 0..=n {
                assert_eq!(
                    level_patterns(n, u) as f64,
                    binomial(n, u) * 3f64.powi(u as i32)
                );
            }
        }
    }

    #[test]
    fn huge_runs_saturate_instead_of_overflowing() {
        // Regression: N=200 at level=200 used to overflow u128 — a
        // panic in debug, a silent wrap to a *small* count in release,
        // which made the budget guard and the router mis-admit
        // infeasible jobs. Now it saturates to "infeasibly many".
        assert_eq!(planned_patterns(200, 200), u128::MAX);
        assert_eq!(contraction_count(200, 200), u128::MAX);
        assert_eq!(level_patterns(200, 150), u128::MAX);
        // Monotonicity across the saturation boundary: a bigger run
        // never reports fewer patterns.
        let mut prev = 0u128;
        for l in 0..=200 {
            let p = planned_patterns(200, l);
            assert!(p >= prev, "non-monotone at level {l}");
            prev = p;
        }
        // Still exact where u128 suffices.
        assert_eq!(planned_patterns(81, 0), 1);
        assert!(planned_patterns(100, 1) < u128::MAX);
    }

    #[test]
    fn ranked_counts_with_full_rank_are_the_theorem_1_counts() {
        for n in 0usize..=12 {
            let ranks = vec![4; n];
            for u in 0..=n + 1 {
                assert_eq!(
                    level_patterns_for_ranks(&ranks, u),
                    level_patterns(n, u),
                    "n={n} u={u}"
                );
                assert_eq!(
                    planned_patterns_for_ranks(&ranks, u),
                    planned_patterns(n, u),
                    "n={n} level={u}"
                );
            }
        }
        // Both saturate where the Theorem-1 counts do.
        let ranks = vec![4; 200];
        assert_eq!(level_patterns_for_ranks(&ranks, 150), u128::MAX);
        assert_eq!(planned_patterns_for_ranks(&ranks, 200), u128::MAX);
        for l in [0usize, 1, 5, 30, 81, 199, 200] {
            assert_eq!(
                planned_patterns_for_ranks(&ranks, l),
                planned_patterns(200, l),
                "level {l}"
            );
        }
    }

    #[test]
    fn ranked_counts_are_elementary_symmetric_sums_of_the_weights() {
        // Thermal relaxation (rank 3): C(N,u)·2^u.
        for u in 0..=12 {
            assert_eq!(
                level_patterns_for_ranks(&[3; 12], u),
                level_patterns(12, u) / 3u128.pow(u as u32) * 2u128.pow(u as u32),
                "u={u}"
            );
        }
        // The deep_sum table of counts: N = 12 and 32 at level 3.
        assert_eq!(planned_patterns_for_ranks(&[3; 12], 3), 2049);
        assert_eq!(planned_patterns_for_ranks(&[3; 32], 3), 41729);
        // Mixed ranks: weights 3, 1, 2, 0 (rank 1 never activates).
        let ranks = [4, 2, 3, 1];
        assert_eq!(level_patterns_for_ranks(&ranks, 1), 6);
        assert_eq!(level_patterns_for_ranks(&ranks, 2), 3 + 6 + 2);
        assert_eq!(level_patterns_for_ranks(&ranks, 3), 6);
        assert_eq!(level_patterns_for_ranks(&ranks, 4), 0);
        assert_eq!(level_patterns_for_ranks(&ranks, 5), 0);
        assert_eq!(planned_patterns_for_ranks(&ranks, 9), 1 + 6 + 11 + 6);
    }

    #[test]
    fn contraction_count_level_capped_at_n() {
        // level > N behaves like level = N (4^N configurations, ×2).
        assert_eq!(contraction_count(3, 99), contraction_count(3, 3));
        assert_eq!(contraction_count(3, 3), 2 * 4u128.pow(3));
    }

    #[test]
    fn recommendation_finds_minimal_level() {
        let n = 20;
        let p = 1e-3;
        let target = error_bound(n, p, 2) * 1.001;
        let l = level_recommendation(n, p, target).unwrap();
        assert_eq!(l, 2);
    }

    #[test]
    fn trajectories_need_more_samples_at_small_p() {
        // At p = 1e-4, N ≤ 40: our O(N) contractions beat the O(1/ε²)
        // trajectory count — the crossover claim of Fig. 5.
        for n in [10usize, 20, 40] {
            let traj = trajectories_samples_matching_level1(n, 1e-4);
            let ours = our_samples(n, 1);
            assert!(
                (traj as f64) > ours,
                "trajectories {traj} ≤ ours {ours} at n={n}"
            );
        }
    }

    #[test]
    fn crossover_exists_at_p_1e3_under_paper_model() {
        // Fig. 5: at p = 1e-3 ours wins up to N ≈ 26, trajectories win
        // beyond; at p = 1e-4 ours wins for all N ≤ 40.
        let c = FIG5_TRAJECTORY_CONSTANT;
        assert!(
            trajectories_samples_scaling_model(10, 1e-3, c) > our_samples(10, 1),
            "ours should win at N=10, p=1e-3"
        );
        assert!(
            trajectories_samples_scaling_model(40, 1e-3, c) < our_samples(40, 1),
            "trajectories should win at N=40, p=1e-3"
        );
        for n in [10usize, 20, 30, 40] {
            assert!(
                trajectories_samples_scaling_model(n, 1e-4, c) > our_samples(n, 1),
                "ours should win at N={n}, p=1e-4"
            );
        }
    }

    #[test]
    fn crossover_near_paper_value() {
        // Find the crossover N at p = 1e-3 under the calibrated model;
        // the paper reports n ≈ 26.
        let c = FIG5_TRAJECTORY_CONSTANT;
        let crossover = (2..=60)
            .find(|&n| trajectories_samples_scaling_model(n, 1e-3, c) < our_samples(n, 1))
            .unwrap();
        assert!(
            (20..=32).contains(&crossover),
            "crossover {crossover} far from paper's ≈26"
        );
    }
}
