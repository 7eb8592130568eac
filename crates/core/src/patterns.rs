//! Streaming enumerators of the level-`u` substitution patterns.
//!
//! A *pattern* assigns one SVD term to every noise site: `0` is the
//! dominant term, `1..=3` the sub-dominant ones. The level-`u` patterns
//! are exactly those with `u` sub-dominant sites — the paper counts
//! `C(n,u)·3^u` of them ([`crate::bounds::level_patterns`]).
//!
//! Many channels have fewer than four nonzero terms: a site of Kraus
//! rank `r` ([`crate::NoiseSvd::rank`]) has `U_i = 0` for `i ≥ r`, and
//! every pattern that uses such a term adds exactly `+0.0`. The
//! evaluators therefore stream [`GrayPatternStream::with_ranks`], which
//! emits only the `e_u(r_1 − 1, …, r_n − 1)` patterns with nonzero
//! terms ([`crate::bounds::level_patterns_for_ranks`]): `C(n,u)·2^u`
//! for thermal relaxation, `C(n,u)` for amplitude damping or a flip.
//!
//! Two orders are provided, both `O(u)` state (nothing is
//! materialized):
//!
//! * [`PatternStream`] — the canonical order (site subsets
//!   lexicographic, term digits counting in base 3, lowest site
//!   fastest). Simple, and the historical order of record.
//! * [`GrayPatternStream`] — a **minimal-change** order visiting the
//!   same pattern set (or, built with ranks, its nonzero-term subset in
//!   the same relative order): consecutive patterns differ in at most two
//!   sites (one site for the `3^u − 1` digit steps inside a subset,
//!   two for a subset change). Site subsets advance by Knuth's
//!   revolving-door enumeration (TAOCP 7.2.1.3, Algorithm R: one
//!   element swapped per transition) and term digits by a reflected
//!   base-3 Gray code with per-position direction flags, which
//!   naturally retraces backward after each subset change so the digit
//!   state carries over. The stream reports *which* sites changed
//!   ([`GrayPatternStream::changed_sites`]), which is what makes
//!   payload swaps and delta contraction
//!   ([`qns_tnet::exec::ExecutablePlan::execute_network_delta_into`])
//!   `O(changes)` instead of `O(n)` per pattern.
//!
//! The ranked stream keeps the radix-3 walk and steps over the patterns
//! it must skip, rather than running a mixed-radix Gray code. Its
//! output is then the full stream's with the zero terms left out, so a
//! sequential level sum is bitwise the full enumeration's. Stepping
//! over a skipped pattern costs nanoseconds against microseconds per
//! contraction. After skipped steps two emitted patterns can differ in
//! more than two sites; [`GrayPatternStream::changed_sites`] still
//! reports the exact diff.

/// Streaming enumerator of the level-`u` substitution patterns over
/// `n` sites, in the canonical order (site subsets lexicographic,
/// sub-dominant term digits counting fastest at the lowest site).
///
/// It enumerates the paper's full `C(n,u)·3^u` set, zero terms
/// included, and serves as the order of record in tests; the
/// evaluators stream [`GrayPatternStream::with_ranks`] instead.
/// Holds `O(u)` state.
pub struct PatternStream {
    n: usize,
    u: usize,
    subset: Vec<usize>,
    digits: Vec<usize>,
    exhausted: bool,
}

impl PatternStream {
    /// A stream over all `C(n,u)·3^u` patterns with exactly `u`
    /// sub-dominant sites (immediately exhausted when `u > n`).
    pub fn new(n: usize, u: usize) -> Self {
        PatternStream {
            n,
            u,
            subset: (0..u).collect(),
            digits: vec![0; u],
            exhausted: u > n,
        }
    }

    /// Writes the next pattern (term index per site) into `out`.
    /// Returns `false` once the stream is exhausted.
    pub fn next_into(&mut self, out: &mut [usize]) -> bool {
        debug_assert_eq!(out.len(), self.n, "one term slot per site");
        if self.exhausted {
            return false;
        }
        out.fill(0);
        for (&d, &s) in self.digits.iter().zip(&self.subset) {
            out[s] = d + 1;
        }
        self.advance();
        true
    }

    fn advance(&mut self) {
        // Count the sub-dominant digits in base 3, position 0 fastest.
        let u = self.u;
        let mut pos = 0;
        while pos < u {
            self.digits[pos] += 1;
            if self.digits[pos] < 3 {
                return;
            }
            self.digits[pos] = 0;
            pos += 1;
        }
        // Digits rolled over: advance the site subset lexicographically.
        let mut i = u;
        loop {
            if i == 0 {
                self.exhausted = true;
                return;
            }
            i -= 1;
            if self.subset[i] != i + self.n - u {
                break;
            }
            if i == 0 {
                self.exhausted = true;
                return;
            }
        }
        self.subset[i] += 1;
        for j in i + 1..u {
            self.subset[j] = self.subset[j - 1] + 1;
        }
    }
}

/// The sub-dominant terms a site of Kraus rank `rank` can take: terms
/// `1..rank` have nonzero eigenvalues. Every site keeps its dominant
/// term, so a rank below 1 counts as 1.
pub(crate) fn correction_terms(rank: usize) -> usize {
    rank.clamp(1, 4) - 1
}

/// Sentinel "no term installed" marker for diffing against a
/// [`GrayPatternStream`]'s patterns (all real terms are `0..=3`).
pub const TERM_UNSET: usize = usize::MAX;

/// Minimal-change enumerator of the level-`u` substitution patterns:
/// [`GrayPatternStream::new`] visits exactly the same pattern set as
/// [`PatternStream`], but consecutive patterns differ in at most
/// **two** sites, and the stream reports which
/// ([`GrayPatternStream::changed_sites`]).
/// [`GrayPatternStream::with_ranks`] walks the same sequence and emits
/// only the patterns whose terms all have a nonzero eigenvalue.
///
/// Structure: for each site subset, all `3^u` term assignments are
/// visited by a reflected base-3 Gray code (one site changes per
/// step); subsets themselves advance by revolving-door enumeration
/// (one site swapped out for another, so a subset step changes two
/// sites). The digit state survives subset changes — after a Gray
/// pass exhausts, its direction flags are left flipped, so the next
/// pass retraces the sequence backward from where it stands.
pub struct GrayPatternStream {
    n: usize,
    u: usize,
    /// Current subset, ascending, with sentinel `c[u] = n`
    /// (Algorithm R's `c_{t+1}`).
    c: Vec<usize>,
    /// `digits[p]`: sub-dominant term (0-based, so term `digits[p]+1`)
    /// of the site at subset position `p`.
    digits: Vec<usize>,
    /// Per-position Gray direction (`±1`).
    dirs: Vec<i8>,
    /// The full current pattern (term per site) — kept internally so
    /// callers' output buffers need not carry state between calls.
    current: Vec<usize>,
    /// Sites changed by the last emitted pattern.
    changed: Vec<usize>,
    started: bool,
    exhausted: bool,
    /// `caps[s]`: how many sub-dominant terms site `s` has with a
    /// nonzero eigenvalue (its Kraus rank minus one, at most 3). A
    /// pattern is emitted only when every active digit is below its
    /// site's cap; the walk steps over the others.
    caps: Vec<usize>,
    /// The last emitted pattern: the diff base for `changed` once
    /// skipped steps sit between two emitted patterns.
    emitted: Vec<usize>,
    /// The active sites of the last emitted pattern. Only these and
    /// the current active sites can differ from it.
    emitted_active: Vec<usize>,
}

impl GrayPatternStream {
    /// A stream over all `C(n,u)·3^u` patterns with exactly `u`
    /// sub-dominant sites (immediately exhausted when `u > n`).
    pub fn new(n: usize, u: usize) -> Self {
        Self::with_ranks(&vec![4; n], u)
    }

    /// A stream over the level-`u` patterns whose terms all have a
    /// nonzero eigenvalue, for sites with Kraus ranks `ranks`
    /// ([`crate::NoiseSvd::rank`]): site `s` takes only the terms
    /// `0..ranks[s]`. That is
    /// [`crate::bounds::level_patterns_for_ranks`] patterns, emitted in
    /// the same relative order as [`GrayPatternStream::new`] emits
    /// them: the walk is the same, it just steps over the patterns
    /// that use a zero term. Those add exactly `+0.0`, so a sequential
    /// sum over this stream is bitwise the sum over the full one.
    pub fn with_ranks(ranks: &[usize], u: usize) -> Self {
        let n = ranks.len();
        let mut c: Vec<usize> = (0..u).collect();
        c.push(n);
        let caps: Vec<usize> = ranks.iter().map(|&r| correction_terms(r)).collect();
        GrayPatternStream {
            n,
            u,
            c,
            digits: vec![0; u],
            dirs: vec![1; u],
            current: vec![0; n],
            changed: Vec::new(),
            started: false,
            exhausted: u > n,
            caps,
            emitted: vec![0; n],
            emitted_active: (0..u).collect(),
        }
    }

    /// Writes the next pattern (term index per site) into `out`.
    /// Returns `false` once the stream is exhausted.
    ///
    /// After a `true` return, [`GrayPatternStream::changed_sites`]
    /// lists the sites whose term differs from the *previously emitted*
    /// pattern (for the first pattern: from the all-dominant pattern).
    pub fn next_into(&mut self, out: &mut [usize]) -> bool {
        debug_assert_eq!(out.len(), self.n, "one term slot per site");
        // Walk on until every active digit is below its site's cap.
        loop {
            if !self.step() {
                self.changed.clear();
                return false;
            }
            if (0..self.u).all(|p| self.digits[p] < self.caps[self.c[p]]) {
                break;
            }
        }
        self.record_changes();
        out.copy_from_slice(&self.current);
        true
    }

    /// Sets `changed` to the exact diff between `current` and the last
    /// emitted pattern, then makes `current` the last emitted one.
    /// Every site outside the two patterns' active sets is dominant in
    /// both. A site active in both is checked twice but listed once:
    /// the first check syncs `emitted`.
    fn record_changes(&mut self) {
        self.changed.clear();
        for k in 0..2 * self.u {
            let s = match k.checked_sub(self.u) {
                None => self.emitted_active[k],
                Some(p) => self.c[p],
            };
            if self.current[s] != self.emitted[s] {
                self.emitted[s] = self.current[s];
                self.changed.push(s);
            }
        }
        self.emitted_active.copy_from_slice(&self.c[..self.u]);
    }

    /// The sites changed by the last pattern [`GrayPatternStream::next_into`]
    /// emitted: one site for a digit step, two for a subset step, the
    /// `u` active sites for the first pattern. A stream built
    /// [`with_ranks`](Self::with_ranks) reports the exact diff against
    /// the previously emitted pattern, which after skipped steps may be
    /// more sites. Empty before the first call and after exhaustion.
    pub fn changed_sites(&self) -> &[usize] {
        &self.changed
    }

    /// Advances `current` one step of the walk; `false` once the walk
    /// is exhausted.
    fn step(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if !self.started {
            self.started = true;
            for p in 0..self.u {
                self.current[self.c[p]] = self.digits[p] + 1;
            }
        } else if let Some(p) = self.advance_digits() {
            self.current[self.c[p]] = self.digits[p] + 1;
        } else if let Some((left, entered_pos)) = self.advance_subset() {
            // The swapped-out site reverts to the dominant term; the
            // swapped-in site takes over the digit left at its
            // position. Any site the subset shuffle merely *moved*
            // keeps its digit (the digit array is permuted alongside),
            // so exactly these two sites change.
            self.current[left] = 0;
            let entered = self.c[entered_pos];
            self.current[entered] = self.digits[entered_pos] + 1;
        } else {
            self.exhausted = true;
            return false;
        }
        true
    }

    /// One reflected-Gray step over the base-3 digits: bumps the first
    /// position whose digit can move in its current direction (that
    /// position's site is the single change), flipping the direction
    /// of every position that could not. Returns `None` when the pass
    /// is exhausted — all directions then stand flipped, so the next
    /// pass (after a subset step) retraces the sequence backward.
    fn advance_digits(&mut self) -> Option<usize> {
        for p in 0..self.u {
            let d = self.digits[p] as isize + self.dirs[p] as isize;
            if (0..3).contains(&d) {
                self.digits[p] = d as usize;
                return Some(p);
            }
            self.dirs[p] = -self.dirs[p];
        }
        None
    }

    /// One revolving-door step (Knuth TAOCP 7.2.1.3, Algorithm R):
    /// swaps exactly one site out of the subset for one site outside
    /// it, keeping `c` sorted. Returns `(departed site, subset
    /// position of the entering site)`, or `None` when all `C(n,u)`
    /// subsets have been visited. The digit/direction entries are
    /// permuted alongside the sites they belong to, so a moved (not
    /// swapped) site keeps its term.
    fn advance_subset(&mut self) -> Option<(usize, usize)> {
        let t = self.u;
        if t == 0 || t == self.n {
            return None; // a single subset exists; no transitions
        }
        if t % 2 == 1 {
            // R3, t odd: try to increase c_1.
            if self.c[0] + 1 < self.c[1] {
                let left = self.c[0];
                self.c[0] += 1;
                return Some((left, 0));
            }
            self.r4(2)
        } else {
            // R3, t even: try to decrease c_1.
            if self.c[0] > 0 {
                let left = self.c[0];
                self.c[0] -= 1;
                return Some((left, 0));
            }
            self.r5(2)
        }
    }

    /// Algorithm R step R4 (1-indexed `j`): try to decrease `c_j`.
    fn r4(&mut self, j: usize) -> Option<(usize, usize)> {
        if j > self.u {
            return None;
        }
        let (pj, pm) = (j - 1, j - 2);
        if self.c[pj] >= j {
            let left = self.c[pj];
            self.c[pj] = self.c[pm];
            self.c[pm] = j - 2;
            self.digits.swap(pj, pm);
            self.dirs.swap(pj, pm);
            Some((left, pm))
        } else {
            self.r5(j + 1)
        }
    }

    /// Algorithm R step R5 (1-indexed `j`): try to increase `c_j`.
    fn r5(&mut self, j: usize) -> Option<(usize, usize)> {
        if j > self.u {
            return None;
        }
        let (pj, pm) = (j - 1, j - 2);
        if self.c[pj] + 1 < self.c[pj + 1] {
            let left = self.c[pm];
            self.c[pm] = self.c[pj];
            self.c[pj] += 1;
            self.digits.swap(pj, pm);
            self.dirs.swap(pj, pm);
            Some((left, pj))
        } else {
            self.r4(j + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;

    fn collect<F: FnMut(&mut [usize]) -> bool>(n: usize, mut next: F) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut pat = vec![0usize; n];
        while next(&mut pat) {
            out.push(pat.clone());
        }
        out
    }

    fn canonical(n: usize, u: usize) -> Vec<Vec<usize>> {
        let mut s = PatternStream::new(n, u);
        collect(n, |p| s.next_into(p))
    }

    fn gray(n: usize, u: usize) -> Vec<Vec<usize>> {
        let mut s = GrayPatternStream::new(n, u);
        collect(n, |p| s.next_into(p))
    }

    #[test]
    fn streamed_counts_match_bounds_contributions() {
        // Per level u, both orders stream exactly the C(n,u)·3^u
        // patterns `bounds::level_patterns` plans for — and the
        // level-l total is `bounds::planned_patterns`.
        for n in [0usize, 1, 3, 5, 6] {
            let mut total = 0u128;
            for u in 0..=n {
                let expect = bounds::level_patterns(n, u);
                assert_eq!(
                    canonical(n, u).len() as u128,
                    expect,
                    "canonical n={n} u={u}"
                );
                assert_eq!(gray(n, u).len() as u128, expect, "gray n={n} u={u}");
                total += expect;
                assert_eq!(bounds::planned_patterns(n, u), total, "n={n} level={u}");
            }
        }
    }

    #[test]
    fn gray_order_is_a_permutation_of_canonical_order() {
        // The safety net the Gray rewrite lands behind: the minimal-
        // change order visits exactly the canonical pattern set.
        for (n, u) in [(5, 0), (5, 1), (5, 2), (6, 3), (4, 4), (7, 2), (3, 3)] {
            let mut a = canonical(n, u);
            let mut b = gray(n, u);
            assert_eq!(a.len(), b.len(), "n={n} u={u}");
            a.sort();
            b.sort();
            assert_eq!(a, b, "n={n} u={u}");
            a.dedup();
            assert_eq!(
                a.len() as u128,
                bounds::level_patterns(n, u),
                "duplicates at n={n} u={u}"
            );
        }
    }

    #[test]
    fn gray_steps_change_at_most_two_sites_and_report_them_exactly() {
        for (n, u) in [(5, 1), (5, 2), (6, 3), (4, 4), (7, 2)] {
            let mut s = GrayPatternStream::new(n, u);
            let mut pat = vec![0usize; n];
            let mut prev = vec![0usize; n]; // the all-dominant pattern
            let mut first = true;
            while s.next_into(&mut pat) {
                let diff: Vec<usize> = (0..n).filter(|&i| pat[i] != prev[i]).collect();
                let mut reported: Vec<usize> = s.changed_sites().to_vec();
                reported.sort_unstable();
                reported.dedup();
                let mut d = diff.clone();
                d.sort_unstable();
                assert_eq!(
                    reported, d,
                    "n={n} u={u}: changed_sites must be the exact diff"
                );
                if first {
                    assert_eq!(
                        diff.len(),
                        u,
                        "first pattern differs from all-dominant in u sites"
                    );
                    first = false;
                } else {
                    assert!(
                        (1..=2).contains(&diff.len()),
                        "n={n} u={u}: non-minimal step changed {} sites",
                        diff.len()
                    );
                }
                assert_eq!(pat.iter().filter(|&&x| x > 0).count(), u);
                assert!(pat.iter().all(|&x| x <= 3));
                prev.copy_from_slice(&pat);
            }
            assert!(s.changed_sites().is_empty(), "cleared after exhaustion");
        }
    }

    #[test]
    fn edge_levels_behave() {
        // u = 0: exactly the all-dominant pattern.
        assert_eq!(gray(4, 0), vec![vec![0, 0, 0, 0]]);
        // u = n: one subset, all 3^n digit assignments.
        assert_eq!(gray(3, 3).len(), 27);
        // u > n: empty.
        assert_eq!(gray(2, 3).len(), 0);
        let mut s = GrayPatternStream::new(2, 3);
        assert!(!s.next_into(&mut [0, 0]));
    }
}
