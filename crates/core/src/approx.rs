//! The l-level approximation algorithm (paper, Algorithm 1).
//!
//! Every noise event's superoperator is expanded as
//! `M_E = Σ_{i=0..3} U_i ⊗ V_i` ([`crate::NoiseSvd`]). A *substitution
//! pattern* assigns one term to every noise; because each substituted
//! noise is a Kronecker product, the double-size network of the paper
//! factorizes into an upper network (the circuit with the `U` matrices
//! spliced in) and a lower network (the conjugated circuit with the
//! `V` matrices), whose scalar contractions multiply.
//!
//! The level-`l` approximation sums all patterns in which at most `l`
//! noises take a sub-dominant term `i ∈ {1,2,3}`:
//!
//! ```text
//! A(l) = Σ_{u=0..l}  Σ_{|S|=u}  Σ_{i_S ∈ {1,2,3}^u}   amp_up · amp_lo
//! ```
//!
//! which the paper counts as `2·Σ_{u≤l} C(N,u)·3^u` single-size
//! contractions (Theorem 1).
//!
//! # Rank-aware pattern sums
//!
//! A site whose channel has Kraus rank `r_s < 4` ([`NoiseSvd::rank`])
//! has `U_i = 0` for every `i ≥ r_s`, so each pattern that uses such a
//! term contracts to exactly `0` and adds `+0.0`. The evaluators stream
//! [`GrayPatternStream::with_ranks`], which steps over those patterns
//! and contracts the other `e_u(r_1 − 1, …, r_N − 1)` per level
//! ([`crate::bounds::level_patterns_for_ranks`]): `C(N,u)·2^u` for
//! thermal relaxation instead of `C(N,u)·3^u`. The emitted patterns
//! keep their relative order and no partial sum ever holds `-0.0`, so
//! each skipped pattern, had it run, would have added `+0.0` to the
//! chunk it fell in: `per_level` is bitwise what the full enumeration
//! gives when every skipped pattern joins the chunk of the last
//! pattern that ran before it.
//! [`ApproxResult::terms_evaluated`] and the anytime pattern counts
//! report what ran. The `max_terms` guard, routing costs, admission and
//! deadlines keep the Theorem-1 count, an upper bound on it.
//!
//! # One network per expectation pattern (Kraus form)
//!
//! [`crate::NoiseSvd`] builds every `V_i` as exactly `conj(U_i)`, so
//! each term `U_i ⊗ conj(U_i)` is the superoperator of the single
//! Kraus operator `U_i`. For an expectation `⟨v|E(ρ)|v⟩` both halves
//! are capped with `v`, and the lower network — conjugated circuit,
//! conjugated caps, `V_i = conj(U_i)` payloads — is then the upper one
//! conjugated entry by entry. Contracting it in the same order performs
//! every complex multiply and add on conjugated operands, and IEEE
//! arithmetic commutes with negating an imaginary part, so
//! `amp_lo = conj(amp_up)` **bit for bit**. The evaluators therefore
//! contract only the upper network and take `amp·conj(amp)` — the
//! probability of one Kraus trajectory, so every pattern term is
//! non-negative — at one amplitude per pattern. A matrix element
//! `⟨x|E(ρ)|y⟩` with `x != y` still builds a second half: the plain
//! circuit capped with `y` and the same `U` payloads, whose scalar is
//! conjugated. [`ApproxResult::contractions`] counts what ran.
//!
//! # Plan-once/execute-many
//!
//! All patterns share exactly one network topology per split half —
//! only the 2×2 `U` payloads differ — so the evaluators here build
//! each half's [`AmplitudeSkeleton`] **once per run**, capture its
//! contraction order as a [`qns_tnet::plan::ContractionPlan`], and
//! then merely swap payloads and replay and sweep the plan per parent
//! pattern. The order search therefore runs `O(1)` times per run
//! instead of once per pattern (`O(N^l)` times); [`ApproxResult::stats`]
//! reports the search and plan-use counts so the amortization is
//! observable.
//!
//! The order is **delta-aware**
//! ([`qns_tnet::network::TensorNetwork::plan_for_replay`]): it minimises
//! the modelled cost of what a pattern sum replays — the steps on the
//! paths from the noise leaves to the root — given the rank-aware
//! level-1 pattern count, a number fixed by the job. The steps with no
//! noise leaf below them (*cold*) are contracted once per run into a
//! cache the workers share ([`ContractionPlan::compile_for_replay`]).
//!
//! Patterns themselves are *streamed*, so pattern-buffer memory is
//! `O(chunk)` rather than `O(N^l)`.
//!
//! # Top levels by environments
//!
//! Every level-`u` pattern with nonzero terms is a level-`(u − 1)`
//! *parent* `P` plus one correction `j ≥ 1` at a site `t > max(P)`, and
//! the amplitude is linear in site `t`'s payload: `amp(P ∪ {t:j}) =
//! ⟨E_t(P), U_j⟩`, with `E_t(P)` the environment of `t`'s leaf in the
//! network of `P`. So level 0 replays the all-dominant pattern, and a
//! level `u ≥ 1` streams its parents — the level-`(u − 1)` patterns
//! with a correction site above their highest active site — and per
//! parent runs one delta replay to install `P` and one environment
//! sweep ([`ExecutablePlan::sweep_network_envs`]) for the leaves
//! `t > max(P)`, adding `Σ_t Σ_j amp·conj(amp)` in site then term order.
//! At level 1 the parent is the all-dominant pattern level 0 left
//! installed, so level 1 is one sweep. A matrix element sweeps both of
//! its networks and adds `⟨E^x_t, U_j⟩·conj(⟨E^y_t, U_j⟩)`.
//! [`ApproxResult::contractions`] still counts the pattern amplitudes,
//! and `stats.plan_reuses` the replays and sweeps
//! ([`crate::bounds::plan_uses_for_ranks`]).
//!
//! # One level sum
//!
//! Every level is summed one way, whatever the thread count: parents
//! are pulled in fixed chunks of four, each chunk's terms are added in
//! stream order with Neumaier compensation, and the chunk sums are
//! added in chunk order, compensated too. A level's bits are therefore
//! a function of the job alone, and one thread gives the bits of any
//! other count.
//!
//! # Incremental (delta) replay
//!
//! Parents are enumerated in the minimal-change order of
//! [`crate::patterns::GrayPatternStream`]: consecutive patterns differ
//! in at most two noise sites. The evaluators track the previously
//! installed assignment, swap only the payloads that changed, and
//! replay only the contraction-tree paths those leaves feed
//! ([`ExecutablePlan::execute_network_delta_into`]); every other
//! intermediate is reused from the plan's persistent workspace arena.
//! Delta replay is bit-identical to full replay by construction — the
//! recomputed steps read the same operand values a full replay would —
//! and a sweep reads only those values, so no bit depends on a
//! worker's history; workers that start cold fall back to one full
//! replay of the hot steps automatically. A
//! [`crate::refine::LevelEvaluator`] keeps each worker's evaluator for
//! the whole run, so later levels start warm.

use crate::noise_svd::NoiseSvd;
use crate::patterns::{GrayPatternStream, TERM_UNSET};
use crate::sum::ComplexSum;
use qns_circuit::Circuit;
use qns_linalg::{Complex64, Matrix};
use qns_noise::{Kraus, NoisyCircuit, QnsError};
use qns_tensor::Tensor;
use qns_tnet::builder::{AmplitudeSkeleton, Insertion, ProductState};
use qns_tnet::exec::{ExecutablePlan, Workspace};
use qns_tnet::network::{ContractionStats, TensorNetwork};
use qns_tnet::plan::ContractionPlan;
use std::sync::Mutex;

/// Options for [`approximate_expectation`].
///
/// Marked `#[non_exhaustive]`: construct with
/// [`ApproxOptions::default`] and the `with_*` setters so future
/// fields are not breaking changes.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxOptions {
    /// Approximation level `l` (0 = dominant terms only; `≥ N` = exact).
    pub level: usize,
    /// Guard against accidental exponential blow-ups: the run fails
    /// (or panics, in the non-`try` wrappers) if the Theorem-1 pattern
    /// count [`crate::bounds::planned_patterns`] exceeds this. That
    /// count is an upper bound on what runs, since patterns that use
    /// an exactly-zero Kraus term are skipped; the guard keeps the
    /// paper's count so that it, routing and admission agree.
    pub max_terms: u128,
    /// Worker threads for pattern evaluation (patterns are independent,
    /// so the sum parallelizes embarrassingly — the paper's server runs
    /// exploited exactly this). `0` or `1` runs on the calling thread.
    /// Workers share one contraction plan and pull parent patterns
    /// from a streaming enumerator in fixed-size chunks; the count
    /// changes no bit of the result.
    pub threads: usize,
}

impl Default for ApproxOptions {
    fn default() -> Self {
        ApproxOptions {
            level: 1,
            max_terms: 20_000_000,
            threads: 1,
        }
    }
}

impl ApproxOptions {
    /// Returns a copy with the approximation level set to `level`.
    pub fn with_level(mut self, level: usize) -> Self {
        self.level = level;
        self
    }

    /// Returns a copy with the pattern-count guard set.
    pub fn with_max_terms(mut self, max_terms: u128) -> Self {
        self.max_terms = max_terms;
        self
    }

    /// Returns a copy with the worker-thread count set. `0` is clamped
    /// to `1` (the calling thread alone) so a computed count — e.g.
    /// `available_cores / jobs` rounding down — can never produce a
    /// degenerate configuration.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Result of an approximation run.
#[derive(Clone, Debug, PartialEq)]
pub struct ApproxResult {
    /// The approximation `A(l)` of `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩`.
    pub value: f64,
    /// Per-level contributions `T_0, …, T_l` (their sum is `value`).
    pub per_level: Vec<f64>,
    /// Number of substitution patterns evaluated: the patterns whose
    /// terms all have a nonzero eigenvalue
    /// ([`crate::bounds::planned_patterns_for_ranks`]), at most the
    /// Theorem-1 count [`crate::bounds::planned_patterns`].
    pub terms_evaluated: usize,
    /// Number of pattern amplitudes computed: one per pattern, by a
    /// replay at level 0 and by a sweep's environment above it (the
    /// paper's two-half count is [`crate::bounds::contraction_count`]);
    /// levels installed from a cache add none.
    pub contractions: usize,
    /// Aggregated contraction statistics across the whole pattern sum.
    /// With plan reuse, `stats.order_searches` stays `O(1)` per run —
    /// every search the delta-aware planner ran: 1 per half when it
    /// keeps the greedy plan, more when it tried its candidates, and
    /// two halves for a matrix element with distinct caps — while
    /// `stats.plan_reuses` counts the replays and environment sweeps
    /// ([`crate::bounds::plan_uses_for_ranks`] per half), and
    /// `contractions` and `flops_proxy` their forward and reverse
    /// steps.
    pub stats: ContractionStats,
}

/// One noise site prepared for substitution.
pub(crate) struct Site {
    /// `after_gate` index for [`Insertion`] (`usize::MAX` = initial).
    after_gate: usize,
    qubit: usize,
    /// The site's channel: an index into [`Sites::svds`].
    channel: usize,
}

/// Every noise site of a circuit, in the evaluators' site order
/// (initial events first, then the circuit's events), and the
/// decomposition of each distinct channel among them.
pub(crate) struct Sites<'a> {
    sites: Vec<Site>,
    /// The distinct channels, in order of first use.
    channels: Vec<&'a Kraus>,
    /// One [`NoiseSvd`] per distinct channel, in the same order.
    svds: Vec<NoiseSvd>,
}

impl Sites<'_> {
    /// The largest noise rate ([`Kraus::noise_rate`]) among the
    /// distinct channels: the `p` of the Theorem-1 bound, computed once
    /// per channel. Equal to [`NoisyCircuit::max_noise_rate`], which
    /// takes the maximum over the same channels.
    pub(crate) fn max_noise_rate(&self) -> f64 {
        self.channels
            .iter()
            .fold(0.0, |max, k| f64::max(max, k.noise_rate()))
    }

    /// Number of noise sites `N`.
    pub(crate) fn len(&self) -> usize {
        self.sites.len()
    }

    /// The decomposition of site `i`'s channel.
    fn svd(&self, i: usize) -> &NoiseSvd {
        &self.svds[self.sites[i].channel]
    }

    /// Every site's Kraus rank ([`NoiseSvd::rank`]).
    fn ranks(&self) -> Vec<usize> {
        (0..self.len()).map(|i| self.svd(i).rank()).collect()
    }
}

/// The Kraus rank ([`NoiseSvd::rank`]) of every noise site, in the
/// evaluators' site order: initial events first, then the circuit's
/// events. These are the ranks that
/// [`crate::bounds::planned_patterns_for_ranks`] takes to count the
/// patterns a run contracts.
pub fn site_ranks(noisy: &NoisyCircuit) -> Vec<usize> {
    collect_sites(noisy).ranks()
}

/// Collects the noise sites, decomposing each distinct channel once: a
/// site whose channel equals an earlier site's bit for bit
/// ([`Kraus::same_bits`]) shares that decomposition.
/// [`NoiseSvd::decompose`] is deterministic, so sharing changes no
/// rank, term or bit.
pub(crate) fn collect_sites(noisy: &NoisyCircuit) -> Sites<'_> {
    let initial = noisy.initial_events().iter().map(|e| (usize::MAX, e));
    let events = initial.chain(noisy.events().iter().map(|e| (e.after_gate, e)));
    let mut channels: Vec<&Kraus> = Vec::new();
    let mut svds = Vec::new();
    let mut sites = Vec::with_capacity(noisy.noise_count());
    for (after_gate, e) in events {
        let channel = match channels.iter().position(|k| k.same_bits(&e.kraus)) {
            Some(c) => c,
            None => {
                channels.push(&e.kraus);
                svds.push(NoiseSvd::decompose(&e.kraus));
                svds.len() - 1
            }
        };
        sites.push(Site {
            after_gate,
            qubit: e.qubit,
            channel,
        });
    }
    Sites {
        sites,
        channels,
        svds,
    }
}

/// The split-half skeletons of one run. Payload swaps mutate the
/// skeletons, so each worker's [`SplitDelta`] owns a clone; the
/// (read-only) plans and payload table are shared.
#[derive(Clone)]
pub(crate) struct SplitSkeletons {
    /// `⟨x|·|ψ⟩` with the pattern's `U` matrices spliced in.
    upper: AmplitudeSkeleton,
    /// `⟨y|·|ψ⟩` with the same `U` matrices — present only when the
    /// caps differ. With `y == x` it would be the upper network itself.
    lower: Option<AmplitudeSkeleton>,
}

/// The per-run shared state of the split evaluator: the **compiled**
/// contraction plans (searched and lowered once, their noise-free
/// part contracted into a cold cache all workers share) and every
/// site's four `U`-term payload tensors, pre-resolved so the hot loop
/// only memcpys 2×2 buffers into the skeleton slots and replays
/// kernels through a per-worker [`Workspace`]: zero heap allocations
/// per parent in steady state.
pub(crate) struct SplitShared {
    up: ExecutablePlan,
    /// The lower half's plan, present exactly when the skeletons'
    /// lower half is.
    lo: Option<ExecutablePlan>,
    /// `payloads[channel][term] = U_term` of every distinct channel,
    /// installed in both halves. The paper's lower factor `V_term` is
    /// `conj(U_term)` by construction ([`NoiseSvd`]), applied by
    /// conjugating the lower half's scalar.
    payloads: Vec<[Tensor; 4]>,
    /// Every site's channel: an index into `payloads`.
    channels: Vec<usize>,
    /// Every site's Kraus rank ([`NoiseSvd::rank`]): the pattern
    /// streams skip the terms at and past it, which are zero matrices.
    pub(crate) ranks: Vec<usize>,
    /// The sites with a correction term (rank at least 2), ascending:
    /// the sites a sweep adds to a parent pattern.
    corrections: Vec<usize>,
    /// The leaves each half's sweeps want.
    up_leaves: SweepLeaves,
    lo_leaves: Option<SweepLeaves>,
    /// The stats of the once-per-run setup: every order search run.
    pub(crate) planning: ContractionStats,
}

/// One half's network leaves of the correction sites.
struct SweepLeaves {
    /// The insertion slot of every correction site, in the order of
    /// [`SplitShared::corrections`].
    slots: Vec<usize>,
    /// The site of every network node, `usize::MAX` off the insertion
    /// slots.
    site_of: Vec<usize>,
}

impl SweepLeaves {
    fn new(skel: &AmplitudeSkeleton, corrections: &[usize]) -> Self {
        let mut site_of = vec![usize::MAX; skel.network().node_count()];
        for i in 0..skel.insertion_count() {
            site_of[skel.insertion_slot(i)] = i;
        }
        SweepLeaves {
            slots: corrections
                .iter()
                .map(|&t| skel.insertion_slot(t))
                .collect(),
            site_of,
        }
    }
}

/// The contraction plan of one split half of a pattern sum whose
/// noise sites have Kraus `ranks`, and the stats of finding it.
///
/// This is the delta-aware search
/// [`qns_tnet::network::TensorNetwork::plan_for_replay`] with the
/// insertion slots as the varying leaves and the rank-aware level-1
/// count `1 + Σ(r_s − 1)` as the replay count. The choice depends on
/// the job alone, never on the requested level, the thread count or a
/// deadline, so every run of a job contracts in the same order and
/// its per-level sums are bitwise the same whichever level it stops
/// at.
pub(crate) fn pattern_sum_plan(
    skel: &AmplitudeSkeleton,
    ranks: &[usize],
) -> (ContractionPlan, ContractionStats) {
    let replays = crate::bounds::planned_patterns_for_ranks(ranks, 1);
    skel.network()
        .plan_for_replay(&insertion_slots(skel), replays)
}

/// The network nodes of a skeleton's substitution slots: the leaves a
/// pattern sum varies.
fn insertion_slots(skel: &AmplitudeSkeleton) -> Vec<usize> {
    (0..skel.insertion_count())
        .map(|i| skel.insertion_slot(i))
        .collect()
}

/// Builds the insertion skeletons for `⟨x|·|ψ⟩` (upper) and, when
/// `y != x`, `⟨y|·|ψ⟩` (lower) with identity placeholders at every
/// noise site, plans each contraction ([`pattern_sum_plan`]),
/// **compiles** it with the insertion slots varying, so its noise-free
/// part is contracted here once, and resolves the payload tensors —
/// the once-per-run setup.
pub(crate) fn build_split(
    circuit: &Circuit,
    psi: &ProductState,
    x: &ProductState,
    y: &ProductState,
    sites: &Sites,
) -> (SplitSkeletons, SplitShared) {
    let placeholders: Vec<Insertion> = sites
        .sites
        .iter()
        .map(|s| Insertion {
            after_gate: s.after_gate,
            qubit: s.qubit,
            matrix: Matrix::identity(2),
        })
        .collect();
    let ranks = sites.ranks();
    let mut planning = ContractionStats::default();
    let mut half = |cap: &ProductState| {
        let skel = AmplitudeSkeleton::new(circuit, psi, cap, &placeholders, false);
        let (plan, searched) = pattern_sum_plan(&skel, &ranks);
        planning.absorb(&searched);
        let exec = plan.compile_for_replay(skel.network(), &insertion_slots(&skel));
        (skel, exec)
    };
    let (upper, up) = half(x);
    let (lower, lo) = if y == x {
        (None, None)
    } else {
        let (skel, plan) = half(y);
        (Some(skel), Some(plan))
    };
    let payloads = sites
        .svds
        .iter()
        .map(|svd| std::array::from_fn(|term| Tensor::from_matrix(svd.term(term).0)))
        .collect();
    let corrections: Vec<usize> = (0..ranks.len()).filter(|&t| ranks[t] >= 2).collect();
    let up_leaves = SweepLeaves::new(&upper, &corrections);
    let lo_leaves = lower.as_ref().map(|l| SweepLeaves::new(l, &corrections));
    (
        SplitSkeletons { upper, lower },
        SplitShared {
            up,
            lo,
            payloads,
            channels: sites.sites.iter().map(|s| s.channel).collect(),
            ranks,
            corrections,
            up_leaves,
            lo_leaves,
            planning,
        },
    )
}

/// One worker's evaluator for the split networks: its own skeletons,
/// the assignment installed in them, one warm [`Workspace`] per half
/// holding only the hot nodes (the cold ones are in the shared plans),
/// and the amplitudes of the installed pattern's children.
///
/// [`SplitDelta::install`] diffs a pattern against the installed one,
/// memcpys only the changed `U` payloads into the skeleton slots, and
/// delta-replays only the contraction-tree paths those leaves feed —
/// bit-identical to a full replay. A cold workspace (a worker's first
/// pattern) falls back to one full replay of the hot steps inside the
/// executor; no coordination is needed. [`SplitDelta::add_children`]
/// then prices every child of the installed pattern with one
/// environment sweep per half.
///
/// Aligned to 128 bytes: the evaluators of one run sit side by side in
/// a `Vec`, and each parent writes a worker's dirty lists and
/// workspace fields, so a cache line shared by two workers would bounce
/// between their cores on every parent.
#[repr(align(128))]
pub(crate) struct SplitDelta {
    skels: SplitSkeletons,
    /// Term installed at each site (`TERM_UNSET` before the first
    /// pattern, so every site reads as changed).
    current: Vec<usize>,
    dirty_up: Vec<usize>,
    dirty_lo: Vec<usize>,
    /// One workspace per half: cached intermediates belong to a single
    /// plan, and alternating two plans through one workspace would
    /// evict the warm arena on every pattern.
    ws_up: Workspace,
    ws_lo: Option<Workspace>,
    /// The installed pattern's amplitude per half (`amp_lo` only read
    /// with a lower half).
    amp_up: Complex64,
    amp_lo: Complex64,
    /// Per half, at `3·t + j − 1`: the amplitude of the installed
    /// pattern with term `j ≥ 1` at site `t`, as the last sweep left it.
    child_up: Vec<Complex64>,
    child_lo: Vec<Complex64>,
}

impl SplitDelta {
    pub(crate) fn new(skels: SplitSkeletons, shared: &SplitShared) -> Self {
        let n = shared.ranks.len();
        SplitDelta {
            current: vec![TERM_UNSET; n],
            skels,
            dirty_up: Vec::new(),
            dirty_lo: Vec::new(),
            ws_up: Workspace::for_sweeps(&shared.up),
            ws_lo: shared.lo.as_ref().map(Workspace::for_sweeps),
            amp_up: Complex64::ZERO,
            amp_lo: Complex64::ZERO,
            child_up: vec![Complex64::ZERO; 3 * n],
            child_lo: vec![Complex64::ZERO; if shared.lo.is_some() { 3 * n } else { 0 }],
        }
    }

    /// A new evaluator on a copy of this one's skeletons (its first
    /// pattern rewrites every slot, so the copy's payloads do not
    /// matter).
    pub(crate) fn fork(&self, shared: &SplitShared) -> Self {
        SplitDelta::new(self.skels.clone(), shared)
    }

    /// Installs one substitution pattern incrementally and returns its
    /// term `amp_up · conj(amp_lo)`, which is `amp_up · conj(amp_up)`
    /// when there is no lower half. A half whose workspace is warm and
    /// whose payloads did not change replays nothing. No network
    /// construction, no order search, and — once the workspaces are
    /// warm — no heap allocations and no work for unchanged subtrees.
    pub(crate) fn install(
        &mut self,
        shared: &SplitShared,
        assignment: &[usize],
        stats: &mut ContractionStats,
    ) -> Complex64 {
        let skels = &mut self.skels;
        self.dirty_up.clear();
        self.dirty_lo.clear();
        for (i, (&term, cur)) in assignment.iter().zip(&mut self.current).enumerate() {
            if term == *cur {
                continue;
            }
            let u = &shared.payloads[shared.channels[i]][term];
            skels.upper.set_insertion_payload(i, u);
            self.dirty_up.push(skels.upper.insertion_slot(i));
            if let Some(lower) = &mut skels.lower {
                lower.set_insertion_payload(i, u);
                self.dirty_lo.push(lower.insertion_slot(i));
            }
            *cur = term;
        }
        if !self.dirty_up.is_empty() || !self.ws_up.is_warm_for(&shared.up) {
            let (amp, st) = shared.up.execute_network_delta_scalar(
                skels.upper.network(),
                &self.dirty_up,
                &mut self.ws_up,
            );
            stats.absorb(&st);
            self.amp_up = amp;
        }
        match (&skels.lower, &shared.lo, &mut self.ws_lo) {
            (Some(lower), Some(lo), Some(ws)) => {
                if !self.dirty_lo.is_empty() || !ws.is_warm_for(lo) {
                    let (amp, st) =
                        lo.execute_network_delta_scalar(lower.network(), &self.dirty_lo, ws);
                    stats.absorb(&st);
                    self.amp_lo = amp;
                }
                self.amp_up * self.amp_lo.conj()
            }
            _ => self.amp_up * self.amp_up.conj(),
        }
    }

    /// Adds to `sum` the term of every child of the installed pattern:
    /// the pattern with one more correction `j ≥ 1` at a site `t` of
    /// `shared.corrections[from..]`, in site then term order. One
    /// environment sweep per half gives every child's amplitude
    /// `⟨E_t, U_j⟩` ([`ExecutablePlan::sweep_network_envs`]). Returns
    /// the number of children.
    fn add_children(
        &mut self,
        shared: &SplitShared,
        from: usize,
        sum: &mut ComplexSum,
        stats: &mut ContractionStats,
    ) -> usize {
        sweep_half(
            shared,
            &shared.up,
            self.skels.upper.network(),
            &shared.up_leaves,
            from,
            &mut self.ws_up,
            &mut self.child_up,
            stats,
        );
        let lower = match (
            &self.skels.lower,
            &shared.lo,
            &shared.lo_leaves,
            &mut self.ws_lo,
        ) {
            (Some(lower), Some(lo), Some(leaves), Some(ws)) => {
                sweep_half(
                    shared,
                    lo,
                    lower.network(),
                    leaves,
                    from,
                    ws,
                    &mut self.child_lo,
                    stats,
                );
                true
            }
            _ => false,
        };
        let mut children = 0;
        for &t in &shared.corrections[from..] {
            for at in 3 * t..3 * t + shared.ranks[t] - 1 {
                let up = self.child_up[at];
                let lo = if lower { self.child_lo[at] } else { up };
                sum.add(up * lo.conj());
                children += 1;
            }
        }
        children
    }
}

/// Sweeps one half for the correction sites `shared.corrections[from..]`
/// and writes, at `3·t + j − 1` of `children`, each child amplitude
/// `⟨E_t, U_j⟩ = Σ_x E_t[x]·U_j[x]` of site `t`'s correction terms.
#[allow(clippy::too_many_arguments)]
fn sweep_half(
    shared: &SplitShared,
    plan: &ExecutablePlan,
    net: &TensorNetwork,
    leaves: &SweepLeaves,
    from: usize,
    ws: &mut Workspace,
    children: &mut [Complex64],
    stats: &mut ContractionStats,
) {
    let swept = plan.sweep_network_envs(net, &leaves.slots[from..], ws, |leaf, env| {
        let t = leaves.site_of[leaf];
        let terms = &shared.payloads[shared.channels[t]];
        for j in 1..shared.ranks[t] {
            children[3 * t + j - 1] = env
                .iter()
                .zip(terms[j].as_slice())
                .fold(Complex64::ZERO, |acc, (&e, &u)| acc + e * u);
        }
    });
    stats.absorb(&swept);
}

/// Validates that a state's qubit count matches the circuit's.
pub(crate) fn check_state(
    what: &'static str,
    state: &ProductState,
    circuit: &Circuit,
) -> Result<(), QnsError> {
    if state.n_qubits() != circuit.n_qubits() {
        return Err(QnsError::SizeMismatch {
            what,
            expected: circuit.n_qubits(),
            actual: state.n_qubits(),
        });
    }
    Ok(())
}

/// Validates the Theorem-1 pattern budget against the `max_terms`
/// guard, returning the planned pattern count.
pub(crate) fn check_budget(
    n_sites: usize,
    level: usize,
    max_terms: u128,
) -> Result<u128, QnsError> {
    let planned: u128 = crate::bounds::planned_patterns(n_sites, level);
    if planned > max_terms {
        return Err(QnsError::TermBudgetExceeded {
            level,
            planned,
            max_terms,
        });
    }
    Ok(planned)
}

/// Parent patterns pulled from the shared stream per lock acquisition.
/// A parent costs a delta replay and a sweep per half, so a few make a
/// chunk whose lock is cold next to its work; few enough that a level
/// of a few dozen parents still splits between workers. The chunk
/// boundaries set the summation order, so this is part of every level
/// sum's bits.
pub(crate) const PARENT_CHUNK: usize = 4;

/// The level-`(u − 1)` patterns a level-`u` sum extends, in the
/// minimal-change order of [`GrayPatternStream::with_ranks`], without
/// those that have no correction site above their highest active site
/// (they have no child).
struct ParentStream<'s> {
    patterns: GrayPatternStream,
    corrections: &'s [usize],
}

impl<'s> ParentStream<'s> {
    fn new(shared: &'s SplitShared, u: usize) -> Self {
        ParentStream {
            patterns: GrayPatternStream::with_ranks(&shared.ranks, u - 1),
            corrections: &shared.corrections,
        }
    }

    /// Writes the next parent into `out` and returns the index in the
    /// correction sites of its first child site, or `None` once the
    /// stream is exhausted.
    fn next_into(&mut self, out: &mut [usize]) -> Option<usize> {
        while self.patterns.next_into(out) {
            let from = match out.iter().rposition(|&t| t != 0) {
                None => 0,
                Some(top) => self.corrections.partition_point(|&t| t <= top),
            };
            if from < self.corrections.len() {
                return Some(from);
            }
        }
        None
    }
}

/// Sums the level-`u` patterns through the shared plans and returns
/// `(Σ amp_up·conj(amp_lo), patterns evaluated, stats)`. Only the
/// patterns whose terms all have a nonzero eigenvalue run.
///
/// Level 0 is one replay of the all-dominant pattern on worker 0. A
/// level `u ≥ 1` streams its parents: every level-`(u − 1)` pattern
/// `P` with a correction site above `max(P)`, in minimal-change order.
/// Each level-`u` pattern is exactly one parent plus one correction at
/// a site `t > max(P)`, so a worker installs each parent with one delta
/// replay and prices all its children with one environment sweep per
/// half ([`SplitDelta::add_children`]).
///
/// The stream is fanned across scoped worker threads, one per
/// evaluator in `workers`. Each worker keeps its own skeletons and warm
/// workspaces across levels, shares the run's plans, and pulls
/// [`PARENT_CHUNK`]-parent chunks from the stream. A single worker
/// runs the same chunked loop on the calling thread, with no spawn.
///
/// Every chunk's terms are added in stream order with Neumaier
/// compensation, and every chunk carries a sequence number: the chunk
/// sums are reduced in sequence order after the join, compensated
/// too. A worker's history only decides which intermediates it reuses,
/// and delta replay is bitwise a full replay, so the sum depends on
/// neither, nor on how many workers ran.
pub(crate) fn evaluate_level(
    workers: &mut [SplitDelta],
    shared: &SplitShared,
    u: usize,
) -> (Complex64, usize, ContractionStats) {
    let mut stats = ContractionStats::default();
    let mut sum = ComplexSum::default();
    if u == 0 {
        let all_dominant = vec![0; shared.ranks.len()];
        sum.add(workers[0].install(shared, &all_dominant, &mut stats));
        return (sum.value(), 1, stats);
    }
    // Shared state: the parent stream plus the next chunk's sequence
    // number, handed out under the same lock as the chunk itself.
    let stream = Mutex::new((ParentStream::new(shared, u), 0usize));
    let results: Vec<ChunkSums> = match workers {
        [delta] => vec![evaluate_chunks(delta, shared, &stream)],
        _ => std::thread::scope(|scope| {
            let stream = &stream;
            let handles: Vec<_> = workers
                .iter_mut()
                .map(|delta| scope.spawn(move || evaluate_chunks(delta, shared, stream)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    #[expect(
                        clippy::expect_used,
                        reason = "a worker panic is re-raised on the caller"
                    )]
                    h.join().expect("worker thread panicked")
                })
                .collect()
        }),
    };
    let mut all_chunks: Vec<(usize, Complex64)> = Vec::new();
    let mut count = 0usize;
    for (chunks, c, s) in results {
        all_chunks.extend(chunks);
        count += c;
        stats.absorb(&s);
    }
    all_chunks.sort_unstable_by_key(|&(seq, _)| seq);
    for (_, chunk) in all_chunks {
        sum.add(chunk);
    }
    (sum.value(), count, stats)
}

/// One worker's share of a level: its `(sequence number, partial sum)`
/// per chunk, its pattern count and its stats.
type ChunkSums = (Vec<(usize, Complex64)>, usize, ContractionStats);

/// Pulls [`PARENT_CHUNK`]-parent chunks from the shared `stream` until
/// it runs dry, summing each chunk's children through `delta`.
fn evaluate_chunks(
    delta: &mut SplitDelta,
    shared: &SplitShared,
    stream: &Mutex<(ParentStream<'_>, usize)>,
) -> ChunkSums {
    let n = shared.ranks.len();
    let mut chunk_sums: Vec<(usize, Complex64)> = Vec::new();
    let mut count = 0usize;
    let mut stats = ContractionStats::default();
    // Flat chunk buffer: PARENT_CHUNK parents of n sites each and the
    // first child site of each, refilled under one lock.
    let mut buf = vec![0usize; PARENT_CHUNK * n];
    let mut from = [0usize; PARENT_CHUNK];
    loop {
        let (seq, filled) = {
            #[expect(
                clippy::expect_used,
                reason = "poisoned only if a sibling worker panicked, which join re-raises"
            )]
            let mut guard = stream.lock().expect("parent stream lock");
            let (s, next_seq) = &mut *guard;
            let mut f = 0;
            while f < PARENT_CHUNK {
                match s.next_into(&mut buf[f * n..(f + 1) * n]) {
                    Some(first) => from[f] = first,
                    None => break,
                }
                f += 1;
            }
            let seq = *next_seq;
            if f > 0 {
                *next_seq += 1;
            }
            (seq, f)
        };
        if filled == 0 {
            break;
        }
        let mut chunk = ComplexSum::default();
        for (k, &first) in from[..filled].iter().enumerate() {
            delta.install(shared, &buf[k * n..(k + 1) * n], &mut stats);
            count += delta.add_children(shared, first, &mut chunk, &mut stats);
        }
        chunk_sums.push((seq, chunk.value()));
    }
    (chunk_sums, count, stats)
}

/// Patterns per chunk of [`per_pattern_level`].
#[cfg(test)]
pub(crate) const PATTERN_CHUNK: usize = 32;

/// The schedule the parent sweeps replaced, kept as a test oracle:
/// every level-`u` pattern of the minimal-change stream installed by
/// its own delta replay ([`SplitDelta::install`]), its terms summed in
/// [`PATTERN_CHUNK`]-pattern chunks, chunks and sums compensated.
/// Returns the level sum, the sum of the terms' moduli (the scale its
/// rounding error is relative to) and the pattern count.
#[cfg(test)]
pub(crate) fn per_pattern_level(
    delta: &mut SplitDelta,
    shared: &SplitShared,
    u: usize,
) -> (Complex64, f64, usize) {
    let mut stream = GrayPatternStream::with_ranks(&shared.ranks, u);
    let mut pattern = vec![0usize; shared.ranks.len()];
    let mut stats = ContractionStats::default();
    let (mut total, mut chunk, mut scale) = (ComplexSum::default(), ComplexSum::default(), 0.0);
    let mut count = 0usize;
    while stream.next_into(&mut pattern) {
        let term = delta.install(shared, &pattern, &mut stats);
        chunk.add(term);
        scale += term.abs();
        count += 1;
        if count.is_multiple_of(PATTERN_CHUNK) {
            total.add(chunk.value());
            chunk = ComplexSum::default();
        }
    }
    if !count.is_multiple_of(PATTERN_CHUNK) {
        total.add(chunk.value());
    }
    (total.value(), scale, count)
}

/// The l-level approximation of `⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`
/// (paper, Algorithm 1).
///
/// `level ≥ N` reproduces the exact value (all `4^N` patterns).
///
/// # Panics
///
/// Panics if state sizes mismatch the circuit, or the configured
/// [`ApproxOptions::max_terms`] guard would be exceeded.
#[expect(
    clippy::panic,
    reason = "documented panicking wrapper of the `try_` variant"
)]
pub fn approximate_expectation(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    opts: &ApproxOptions,
) -> ApproxResult {
    try_approximate_expectation(noisy, psi, v, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking variant of [`approximate_expectation`].
///
/// # Errors
///
/// [`QnsError::SizeMismatch`] if a state's qubit count disagrees with
/// the circuit, [`QnsError::TermBudgetExceeded`] if the run would
/// exceed [`ApproxOptions::max_terms`].
pub fn try_approximate_expectation(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    opts: &ApproxOptions,
) -> Result<ApproxResult, QnsError> {
    // Built on the level-streaming evaluator so that a direct run and a
    // streamed [`crate::refine::LevelEvaluator`] run are the *same*
    // code path — their per-level contributions (and therefore the
    // final sum) are bitwise identical by construction, not by test.
    let mut eval = crate::refine::LevelEvaluator::new(noisy, psi, v, opts)?;
    eval.advance_to(opts.level)?;
    Ok(eval.into_result())
}

/// The l-level approximation of a general output-density-matrix
/// element `⟨x| E_N(|ψ⟩⟨ψ|) |y⟩` (paper, Section III: "every element
/// of `E_N(ρ₀)` can be independently estimated").
///
/// With `x == y` this reduces to [`approximate_expectation`] (one
/// network per pattern); otherwise the implementation caps the two
/// split networks with different product states, which the
/// superoperator form supports directly. Both run on
/// [`crate::refine::LevelEvaluator`], so an element shares the
/// expectation's level sums, whose bits no thread count changes, and
/// its per-level budget check.
///
/// # Errors
///
/// As [`try_approximate_expectation`].
pub fn try_approximate_matrix_element(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    x: &ProductState,
    y: &ProductState,
    opts: &ApproxOptions,
) -> Result<Complex64, QnsError> {
    matrix_element_run(noisy, psi, x, y, opts).map(|(value, _, _)| value)
}

/// [`try_approximate_matrix_element`] with its pattern count and
/// contraction statistics.
pub(crate) fn matrix_element_run(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    x: &ProductState,
    y: &ProductState,
    opts: &ApproxOptions,
) -> Result<(Complex64, usize, ContractionStats), QnsError> {
    let circuit = noisy.circuit();
    check_state("input state", psi, circuit)?;
    check_state("bra state", x, circuit)?;
    check_state("ket state", y, circuit)?;
    // The expectation's evaluator with asymmetric caps: the upper
    // network capped with `x`, the lower with `y` — producing the
    // terms of `⟨x|E(ρ)|y⟩ = (⟨x| ⊗ ⟨y*|)·M·(|ψ⟩ ⊗ |ψ*⟩)`.
    let mut eval = crate::refine::LevelEvaluator::with_caps(noisy, psi, x, y, opts)?;
    eval.advance_to(opts.level)?;
    Ok(eval.into_element())
}

/// Reconstructs the full output density matrix of a noisy circuit by
/// estimating every element with [`try_approximate_matrix_element`]
/// (paper, Section III). Intended for small `n` — `4^n` element
/// estimates.
///
/// # Errors
///
/// [`QnsError::TooLarge`] when `n > 6` (the reconstruction estimates
/// `4^n` elements), plus the underlying run's error conditions.
pub fn try_reconstruct_density(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    opts: &ApproxOptions,
) -> Result<qns_linalg::Matrix, QnsError> {
    let n = noisy.n_qubits();
    if n > 6 {
        return Err(QnsError::TooLarge {
            what: "density reconstruction",
            n,
            limit: 6,
        });
    }
    let dim = 1usize << n;
    let mut rho = qns_linalg::Matrix::zeros(dim, dim);
    for r in 0..dim {
        let x = ProductState::basis(n, r);
        // Diagonal element plus upper triangle; fill lower by symmetry.
        for c in r..dim {
            let y = ProductState::basis(n, c);
            let val = try_approximate_matrix_element(noisy, psi, &x, &y, opts)?;
            rho[(r, c)] = val;
            if c != r {
                rho[(c, r)] = val.conj();
            }
        }
    }
    Ok(rho)
}

/// Rewrites Problem 1 with a non-product reference `|v⟩ = U_ideal|0…0⟩`
/// into product form: appends the ideal circuit's inverse so that
/// `⟨v|E(ρ)|v⟩ = ⟨0…0| (U† ∘ E)(ρ) |0…0⟩` — the construction used for
/// the paper's Table IV, where `|v⟩` is the noiseless output state.
pub fn append_ideal_inverse(noisy: &NoisyCircuit) -> NoisyCircuit {
    let mut extended = noisy.circuit().clone();
    let dag = noisy.circuit().dagger();
    extended.extend(&dag);
    // positions are unchanged: noise stays inside the original prefix.
    let mut rebuilt = NoisyCircuit::new(extended, noisy.events().to_vec());
    for e in noisy.initial_events() {
        rebuilt.push_initial(e.qubit, e.kraus.clone());
    }
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::generators::{ghz, inst_grid, qaoa_ring, QaoaRound};
    use qns_noise::{channels, NoiseEvent};
    use qns_sim::density;
    use qns_sim::statevector;

    fn exact(noisy: &NoisyCircuit, psi: &ProductState, v: &ProductState) -> f64 {
        density::expectation(noisy, &psi.to_statevector(), &v.to_statevector())
    }

    fn opts(level: usize) -> ApproxOptions {
        ApproxOptions {
            level,
            ..Default::default()
        }
    }

    /// Materializes the pattern stream (test-only; production code
    /// streams).
    fn enumerate_patterns(n: usize, u: usize) -> Vec<Vec<usize>> {
        let mut stream = crate::patterns::PatternStream::new(n, u);
        let mut out = Vec::new();
        let mut pat = vec![0usize; n];
        while stream.next_into(&mut pat) {
            out.push(pat.clone());
        }
        out
    }

    #[test]
    fn noiseless_value_is_exact_probability() {
        let noisy = NoisyCircuit::noiseless(ghz(3));
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let res = approximate_expectation(&noisy, &psi, &v, &opts(0));
        assert!((res.value - 0.5).abs() < 1e-10);
        assert_eq!(res.terms_evaluated, 1);
    }

    #[test]
    fn full_level_reproduces_exact_value() {
        // The central exactness property: level = N sums all 4^N
        // patterns and must equal dense density-matrix simulation.
        // Patterns with an exactly-zero term are skipped, so the run
        // contracts Π r_s of them: 4^3, 2^3 and 3^3 here.
        for (name, ch, runs) in [
            ("depolarizing", channels::depolarizing(0.05), 64),
            ("amplitude_damping", channels::amplitude_damping(0.1), 8),
            (
                "thermal",
                channels::thermal_relaxation(30.0, 40.0, 200.0),
                27,
            ),
        ] {
            let noisy = NoisyCircuit::inject_random(ghz(3), &ch, 3, 11);
            let psi = ProductState::all_zeros(3);
            let v = ProductState::basis(3, 0b111);
            let res = approximate_expectation(&noisy, &psi, &v, &opts(3));
            let mm = exact(&noisy, &psi, &v);
            assert!(
                (res.value - mm).abs() < 1e-9,
                "{name}: {} vs {}",
                res.value,
                mm
            );
            assert_eq!(res.terms_evaluated, runs, "{name}");
            let ranks = site_ranks(&noisy);
            assert_eq!(
                crate::bounds::planned_patterns_for_ranks(&ranks, 3),
                runs as u128,
                "{name}"
            );
        }
    }

    #[test]
    fn error_decreases_with_level() {
        let noisy = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(5e-3), 4, 3);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1111);
        let mm = exact(&noisy, &psi, &v);
        let mut prev = f64::INFINITY;
        for l in 0..=4 {
            let res = approximate_expectation(&noisy, &psi, &v, &opts(l));
            let err = (res.value - mm).abs();
            assert!(
                err <= prev * 1.5 + 1e-12,
                "error grew at level {l}: {err} > {prev}"
            );
            prev = err.max(1e-15);
        }
        // level 4 (= N) is exact
        let res = approximate_expectation(&noisy, &psi, &v, &opts(4));
        assert!((res.value - mm).abs() < 1e-9);
    }

    #[test]
    fn level_one_beats_level_zero_on_qaoa() {
        let rounds = [QaoaRound {
            gamma: 0.4,
            beta: 0.3,
        }];
        let c = qaoa_ring(4, &rounds);
        let noisy = NoisyCircuit::inject_random(c, &channels::depolarizing(1e-2), 4, 17);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::all_zeros(4);
        let mm = exact(&noisy, &psi, &v);
        let e0 = (approximate_expectation(&noisy, &psi, &v, &opts(0)).value - mm).abs();
        let e1 = (approximate_expectation(&noisy, &psi, &v, &opts(1)).value - mm).abs();
        assert!(e1 < e0, "level-1 error {e1} not below level-0 error {e0}");
    }

    #[test]
    fn theorem_1_bound_holds_empirically() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(2e-3), 3, 5);
        let p = noisy.max_noise_rate();
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let mm = exact(&noisy, &psi, &v);
        for l in 0..=2 {
            let res = approximate_expectation(&noisy, &psi, &v, &opts(l));
            let bound = crate::bounds::error_bound(3, p, l);
            assert!(
                (res.value - mm).abs() <= bound + 1e-12,
                "level {l}: error {} exceeds bound {bound}",
                (res.value - mm).abs()
            );
        }
    }

    #[test]
    fn contraction_count_matches_formula() {
        // One contraction runs per pattern; the paper's two-half count
        // (`bounds::contraction_count`) is twice that.
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 4, 2);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0);
        for l in 0..=2 {
            let res = approximate_expectation(&noisy, &psi, &v, &opts(l));
            assert_eq!(
                res.contractions as u128,
                crate::bounds::planned_patterns(4, l),
                "level {l}"
            );
            assert_eq!(
                2 * res.contractions as u128,
                crate::bounds::contraction_count(4, l),
                "level {l}"
            );
        }
    }

    /// The plan uses (replays plus sweeps) of one half's schedule
    /// through `level`.
    fn schedule_plan_uses(ranks: &[usize], level: usize) -> usize {
        crate::bounds::plan_uses_for_ranks(ranks, level) as usize
    }

    #[test]
    fn plan_reuse_amortizes_order_searches() {
        // The acceptance criterion of the plan subsystem: per-run
        // order searches are O(1) — one for an expectation, two for a
        // matrix element with distinct caps — while every parent
        // pattern replays and sweeps a plan, fewer uses than patterns.
        let noisy = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-2), 5, 37);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1111);
        let ranks = site_ranks(&noisy);
        // 1 + 1 + 2·12 uses for 1 + 15 + 90 patterns.
        assert_eq!(schedule_plan_uses(&ranks, 2), 26);
        for threads in [1usize, 4] {
            let o = ApproxOptions {
                level: 2,
                threads,
                ..Default::default()
            };
            let res = approximate_expectation(&noisy, &psi, &v, &o);
            assert!(res.terms_evaluated > 50, "nontrivial pattern count");
            assert_eq!(res.stats.order_searches, 1, "threads={threads}");
            assert_eq!(
                res.stats.plan_reuses,
                schedule_plan_uses(&ranks, 2),
                "threads={threads}: one replay and one sweep per parent"
            );
            assert!(res.stats.plan_reuses < res.terms_evaluated);
            assert_eq!(res.contractions, res.terms_evaluated);
        }

        let x = ProductState::basis(4, 0b0110);
        let (_, terms, stats) = matrix_element_run(&noisy, &psi, &x, &v, &opts(2)).unwrap();
        assert!(terms > 50, "nontrivial pattern count");
        assert_eq!(stats.order_searches, 2, "one search per half");
        assert_eq!(
            stats.plan_reuses,
            2 * schedule_plan_uses(&ranks, 2),
            "every parent replays and sweeps both half-plans"
        );
    }

    #[test]
    fn per_level_contributions_sum_to_value() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::amplitude_damping(0.05), 3, 8);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let res = approximate_expectation(&noisy, &psi, &v, &opts(2));
        let sum: f64 = res.per_level.iter().sum();
        assert!((sum - res.value).abs() < 1e-12);
        // T_0 dominates for weak noise.
        assert!(res.per_level[0].abs() > res.per_level[1].abs());
    }

    #[test]
    fn works_on_supremacy_circuit() {
        let c = inst_grid(2, 2, 6, 4);
        let noisy =
            NoisyCircuit::inject_random(c, &channels::thermal_relaxation(30.0, 40.0, 25.0), 3, 6);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1010);
        let mm = exact(&noisy, &psi, &v);
        let res = approximate_expectation(&noisy, &psi, &v, &opts(1));
        assert!(
            (res.value - mm).abs() < 1e-5,
            "approx {} vs exact {}",
            res.value,
            mm
        );
    }

    #[test]
    fn ideal_inverse_trick_matches_direct_fidelity() {
        // ⟨v|E(ρ)|v⟩ with v = U|0⟩ computed two ways.
        let rounds = [QaoaRound {
            gamma: 0.3,
            beta: 0.2,
        }];
        let c = qaoa_ring(3, &rounds);
        let noisy = NoisyCircuit::inject_random(c.clone(), &channels::depolarizing(5e-3), 2, 9);

        // Direct: dense simulation with the non-product v.
        let ideal = statevector::run(&c, &statevector::zero_state(3));
        let direct = density::expectation(&noisy, &statevector::zero_state(3), &ideal);

        // Trick: append U† and use v = |0…0⟩, exactly (level = N).
        let extended = append_ideal_inverse(&noisy);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::all_zeros(3);
        let res = approximate_expectation(&extended, &psi, &v, &opts(2));
        assert!(
            (res.value - direct).abs() < 1e-9,
            "trick {} vs direct {}",
            res.value,
            direct
        );
    }

    #[test]
    fn matrix_element_matches_density_sim() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::amplitude_damping(0.08), 3, 53);
        let psi = ProductState::all_zeros(3);
        let rho = density::run(&noisy, &psi.to_statevector());
        for (xb, yb) in [(0usize, 0usize), (0, 7), (7, 0), (2, 5), (7, 7)] {
            let x = ProductState::basis(3, xb);
            let y = ProductState::basis(3, yb);
            // Full level = exact.
            let val = try_approximate_matrix_element(&noisy, &psi, &x, &y, &opts(3)).unwrap();
            let expect = rho.matrix_element(&x.to_statevector(), &y.to_statevector());
            assert!(
                val.approx_eq(expect, 1e-9),
                "({xb},{yb}): {val} vs {expect}"
            );
        }
    }

    #[test]
    fn matrix_element_diagonal_equals_expectation() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(5e-3), 2, 59);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        for threads in [1usize, 2] {
            let o = opts(1).with_threads(threads);
            let elem = try_approximate_matrix_element(&noisy, &psi, &v, &v, &o).unwrap();
            let expect = approximate_expectation(&noisy, &psi, &v, &o).value;
            assert_eq!(elem.re.to_bits(), expect.to_bits(), "threads {threads}");
            assert!(elem.im.abs() < 1e-10);
        }
    }

    #[test]
    fn off_diagonal_elements_keep_their_bits_across_thread_counts() {
        // 9 thermal (rank-3) sites: level 2 runs 144 patterns, more
        // than one chunk, so two workers split it.
        let noisy = NoisyCircuit::inject_random(
            ghz(4),
            &channels::thermal_relaxation(30.0, 40.0, 100.0),
            9,
            31,
        );
        let ranks = site_ranks(&noisy);
        assert!(crate::bounds::level_patterns_for_ranks(&ranks, 2) > PATTERN_CHUNK as u128);
        let psi = ProductState::all_zeros(4);
        let (x, y) = (ProductState::basis(4, 0b1111), ProductState::all_zeros(4));
        let run =
            |threads| matrix_element_run(&noisy, &psi, &x, &y, &opts(2).with_threads(threads));
        let (one, terms, _) = run(1).unwrap();
        let (two, terms_two, _) = run(2).unwrap();
        assert_ne!(one, Complex64::ZERO);
        assert_eq!(
            (one.re.to_bits(), one.im.to_bits()),
            (two.re.to_bits(), two.im.to_bits())
        );
        assert_eq!(terms, terms_two);
    }

    #[test]
    fn reconstructed_density_matches_exact() {
        let noisy = NoisyCircuit::inject_random(
            ghz(3),
            &channels::thermal_relaxation(30.0, 40.0, 150.0),
            2,
            61,
        );
        let psi = ProductState::all_zeros(3);
        let approx_rho = try_reconstruct_density(&noisy, &psi, &opts(2)).unwrap(); // 2 noises ⇒ exact
        let exact_rho = density::run(&noisy, &psi.to_statevector()).to_matrix();
        assert!(
            approx_rho.approx_eq(&exact_rho, 1e-9),
            "reconstructed density deviates"
        );
        // Physicality of the reconstruction.
        assert!((approx_rho.trace().re - 1.0).abs() < 1e-9);
        assert!(approx_rho.is_hermitian(1e-9));
    }

    #[test]
    fn coherent_noise_handled_by_approximation() {
        // Unitary (coherent) noise channels also decompose and
        // approximate; full level is exact.
        let noisy =
            NoisyCircuit::inject_random(ghz(3), &channels::coherent_overrotation('x', 0.05), 2, 47);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let res = approximate_expectation(&noisy, &psi, &v, &opts(2));
        let mm = exact(&noisy, &psi, &v);
        assert!((res.value - mm).abs() < 1e-9, "{} vs {mm}", res.value);
        // And level-0 is already excellent: a unitary superoperator is
        // exactly rank-1 under the tensor permutation.
        let l0 = approximate_expectation(&noisy, &psi, &v, &opts(0));
        assert!((l0.value - mm).abs() < 1e-9, "level-0 {} vs {mm}", l0.value);
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let noisy = NoisyCircuit::inject_random(
            ghz(4),
            &channels::thermal_relaxation(30.0, 40.0, 100.0),
            5,
            29,
        );
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1111);
        for level in 0..=2 {
            let seq = approximate_expectation(&noisy, &psi, &v, &opts(level));
            let par = approximate_expectation(
                &noisy,
                &psi,
                &v,
                &ApproxOptions {
                    level,
                    threads: 4,
                    ..Default::default()
                },
            );
            assert_eq!(
                seq.value.to_bits(),
                par.value.to_bits(),
                "level {level}: seq {} vs par {}",
                seq.value,
                par.value
            );
            assert_eq!(seq.terms_evaluated, par.terms_evaluated);
        }
    }

    #[test]
    fn parallel_evaluation_streams_multiple_chunks() {
        // 9 thermal (rank-3) sites at level 2 sweep the 16 level-1
        // parents with a site above them, 4 chunks of PARENT_CHUNK —
        // more than the 2 workers, so they must go back to the shared
        // stream for further chunks and still reproduce the 1-thread
        // sum and term count bit for bit.
        let noisy = NoisyCircuit::inject_random(
            ghz(4),
            &channels::thermal_relaxation(30.0, 40.0, 100.0),
            9,
            31,
        );
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1111);
        let ranks = site_ranks(&noisy);
        assert_eq!(ranks, vec![3; 9]);
        let chunks = crate::patterns::parent_count(&ranks, 1).div_ceil(PARENT_CHUNK as u128);
        assert_eq!(chunks, 4, "test must exercise multiple chunks in flight");
        let seq = approximate_expectation(&noisy, &psi, &v, &opts(2));
        let par = approximate_expectation(
            &noisy,
            &psi,
            &v,
            &ApproxOptions {
                level: 2,
                threads: 2,
                ..Default::default()
            },
        );
        assert_eq!(
            seq.value.to_bits(),
            par.value.to_bits(),
            "seq {} vs par {}",
            seq.value,
            par.value
        );
        assert_eq!(seq.terms_evaluated, par.terms_evaluated);
        assert_eq!(par.terms_evaluated, 1 + 2 * 9 + 36 * 4);
        assert_eq!(par.stats.plan_reuses, schedule_plan_uses(&ranks, 2));

        // Run-to-run determinism: chunk assignment depends on OS
        // scheduling, but the sequence-ordered reduction must make the
        // float sum bit-identical across repeats.
        for _ in 0..3 {
            let again = approximate_expectation(
                &noisy,
                &psi,
                &v,
                &ApproxOptions {
                    level: 2,
                    threads: 2,
                    ..Default::default()
                },
            );
            assert_eq!(
                again.value.to_bits(),
                par.value.to_bits(),
                "parallel sum must be bit-stable across runs"
            );
        }
    }

    /// The benchmark registry's smoke circuits, one per paper family
    /// (`qns_bench::registry::smoke_set`, rebuilt from the same
    /// generators and seeds).
    fn registry_circuits() -> Vec<(&'static str, Circuit)> {
        use qns_circuit::generators::{hf_vqe, qaoa_grid_random};
        vec![
            ("qaoa_9", qaoa_grid_random(3, 3, 2, 20)),
            ("inst_2x3_8", inst_grid(2, 3, 8, 30)),
            ("hf_6", hf_vqe(6, 3, 10)),
        ]
    }

    /// The two-network evaluator the Kraus form replaced, kept as an
    /// oracle, on the parent-plus-sweep schedule: per parent, the upper
    /// network and a `conjugate = true` lower network carrying the `V`
    /// payloads, each fully replayed and then swept, and every child
    /// term `⟨E^up_t, U_j⟩·⟨E^lo_t, V_j⟩`. It streams every
    /// `C(N,u−1)·3^(u−1)` parent in Gray order and runs all three
    /// correction terms of every site above it, zero terms included,
    /// in the evaluators' [`PARENT_CHUNK`]-parent chunks of the parents
    /// that run: a parent the evaluators skip joins the chunk of the
    /// last one that ran before it.
    fn two_half_per_level(
        noisy: &NoisyCircuit,
        psi: &ProductState,
        v: &ProductState,
        level: usize,
    ) -> Vec<f64> {
        let circuit = noisy.circuit();
        let sites = collect_sites(noisy);
        let n = sites.len();
        let placeholders: Vec<Insertion> = sites
            .sites
            .iter()
            .map(|s| Insertion {
                after_gate: s.after_gate,
                qubit: s.qubit,
                matrix: Matrix::identity(2),
            })
            .collect();
        let mut upper = AmplitudeSkeleton::new(circuit, psi, v, &placeholders, false);
        let mut lower = AmplitudeSkeleton::new(circuit, psi, v, &placeholders, true);
        // The plan the evaluators run, found by the same search, but
        // compiled with every leaf hot and replayed in full.
        let ranks = site_ranks(noisy);
        let last = ranks.iter().rposition(|&r| r >= 2);
        let up = pattern_sum_plan(&upper, &ranks).0.compile();
        let lo = pattern_sum_plan(&lower, &ranks).0.compile();
        let (mut ws_up, mut ws_lo) = (Workspace::for_plan(&up), Workspace::for_plan(&lo));
        let terms = |i: usize, t: usize| {
            let (a, b) = sites.svd(i).term(t);
            (Tensor::from_matrix(a), Tensor::from_matrix(b))
        };
        let dot = |env: &[Complex64], t: &Tensor| {
            env.iter()
                .zip(t.as_slice())
                .fold(Complex64::ZERO, |acc, (&e, &u)| acc + e * u)
        };
        let install = |upper: &mut AmplitudeSkeleton,
                       lower: &mut AmplitudeSkeleton,
                       ws_up: &mut Workspace,
                       ws_lo: &mut Workspace,
                       parent: &[usize]| {
            for (i, &t) in parent.iter().enumerate() {
                let (a, b) = terms(i, t);
                upper.set_insertion_payload(i, &a);
                lower.set_insertion_payload(i, &b);
            }
            let amp_up = up.execute_network_scalar(upper.network(), ws_up);
            let amp_lo = lo.execute_network_scalar(lower.network(), ws_lo);
            amp_up * amp_lo
        };
        let mut parent = vec![0usize; n];
        (0..=level)
            .map(|u| {
                if u == 0 {
                    let mut sum = ComplexSum::default();
                    sum.add(install(
                        &mut upper,
                        &mut lower,
                        &mut ws_up,
                        &mut ws_lo,
                        &vec![0; n],
                    ));
                    return sum.value().re;
                }
                let mut chunks: Vec<ComplexSum> = Vec::new();
                let mut ran = 0usize;
                let mut stream = GrayPatternStream::new(n, u - 1);
                while stream.next_into(&mut parent) {
                    let top = parent.iter().rposition(|&t| t != 0);
                    let nonzero = parent.iter().zip(&ranks).all(|(&t, &r)| t < r);
                    if nonzero && last.is_some_and(|l| top.is_none_or(|t| t < l)) {
                        ran += 1;
                    }
                    let chunk = ran.saturating_sub(1) / PARENT_CHUNK;
                    if chunk == chunks.len() {
                        chunks.push(ComplexSum::default());
                    }
                    let _ = install(&mut upper, &mut lower, &mut ws_up, &mut ws_lo, &parent);
                    let first = top.map_or(0, |t| t + 1);
                    let (mut env_up, mut env_lo) = (vec![Vec::new(); n], vec![Vec::new(); n]);
                    let leaves: Vec<usize> = (first..n).map(|t| upper.insertion_slot(t)).collect();
                    let site = |skel: &AmplitudeSkeleton, leaf| {
                        (0..n).position(|t| skel.insertion_slot(t) == leaf).unwrap()
                    };
                    up.sweep_network_envs(upper.network(), &leaves, &mut ws_up, |leaf, env| {
                        env_up[site(&upper, leaf)] = env.to_vec();
                    });
                    let leaves: Vec<usize> = (first..n).map(|t| lower.insertion_slot(t)).collect();
                    lo.sweep_network_envs(lower.network(), &leaves, &mut ws_lo, |leaf, env| {
                        env_lo[site(&lower, leaf)] = env.to_vec();
                    });
                    for t in first..n {
                        for j in 1..4 {
                            let (a, b) = terms(t, j);
                            chunks[chunk].add(dot(&env_up[t], &a) * dot(&env_lo[t], &b));
                        }
                    }
                }
                let mut sum = ComplexSum::default();
                for chunk in chunks {
                    sum.add(chunk.value());
                }
                sum.value().re
            })
            .collect()
    }

    #[test]
    fn one_network_expectation_is_bitwise_the_two_network_product() {
        let channel = channels::thermal_relaxation(30.0, 40.0, 100.0);
        for (name, c) in registry_circuits() {
            let n = c.n_qubits();
            let noisy = NoisyCircuit::inject_random(c, &channel, 6, 71);
            let psi = ProductState::all_zeros(n);
            let v = ProductState::basis(n, 0b101);
            let oracle = two_half_per_level(&noisy, &psi, &v, 3);
            for threads in [1usize, 2] {
                for level in 0..=3 {
                    let o = opts(level).with_threads(threads);
                    let res = approximate_expectation(&noisy, &psi, &v, &o);
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&res.per_level),
                        bits(&oracle[..=level]),
                        "{name}, level {level}, threads {threads}"
                    );
                    let sum: f64 = oracle[..=level].iter().sum();
                    assert_eq!(res.value.to_bits(), sum.to_bits(), "{name}, level {level}");
                }
            }
        }
    }

    #[test]
    fn environment_sums_agree_with_per_pattern_sums_and_the_dense_engine() {
        // Per level, the parent-plus-sweep sums against the retired
        // one-replay-per-pattern schedule, for expectations and
        // off-diagonal matrix elements on every catalogue channel plus
        // thermal relaxation; 4 sites, so level 4 is exact.
        let mut chans = channels::catalogue(0.02);
        chans.push(("thermal", channels::thermal_relaxation(30.0, 40.0, 100.0)));
        let sites = 4;
        for (cname, channel) in &chans {
            for (name, c) in registry_circuits() {
                let n = c.n_qubits();
                let noisy = NoisyCircuit::inject_random(c, channel, sites, 83);
                let psi = ProductState::all_zeros(n);
                let rho = density::run(&noisy, &psi.to_statevector());
                let (a, b) = (ProductState::basis(n, 0b101), ProductState::basis(n, 0b011));
                for (x, y) in [(&a, &a), (&a, &b)] {
                    let (skels, shared) =
                        build_split(noisy.circuit(), &psi, x, y, &collect_sites(&noisy));
                    let mut delta = SplitDelta::new(skels, &shared);
                    let oracle: Vec<(Complex64, f64, usize)> = (0..=sites)
                        .map(|u| per_pattern_level(&mut delta, &shared, u))
                        .collect();
                    let exact = rho.matrix_element(&x.to_statevector(), &y.to_statevector());
                    let at = |what: &str| format!("{cname} on {name}, {what}, x == y: {}", x == y);
                    for threads in [1usize, 2] {
                        let o = opts(sites).with_threads(threads);
                        let mut eval =
                            crate::refine::LevelEvaluator::with_caps(&noisy, &psi, x, y, &o)
                                .unwrap();
                        eval.advance_to(sites).unwrap();
                        for (u, (&got, &(want, scale, count))) in
                            eval.level_sums().iter().zip(&oracle).enumerate()
                        {
                            let at = at(&format!("level {u}, threads {threads}"));
                            assert!((got - want).abs() <= 1e-12 * scale, "{at}: {got} vs {want}");
                            assert_eq!(eval.level_counts()[u], count, "{at}");
                        }
                        let (value, _, _) = eval.into_element();
                        let per_pattern = oracle.iter().map(|&(t, _, _)| t).sum::<Complex64>();
                        assert!((value - exact).abs() <= 1e-12, "{}", at("approx vs dense"));
                        assert!(
                            (per_pattern - exact).abs() <= 1e-12,
                            "{}",
                            at("oracle vs dense")
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rank_aware_sums_are_bitwise_the_full_enumeration() {
        // Skipping the patterns that use an exactly-zero term changes
        // no bit, at any thread count: each skipped term adds `+0.0` to
        // its chunk. The oracle enumerates all C(N,u)·3^u patterns.
        let chans = [
            ("thermal", channels::thermal_relaxation(30.0, 40.0, 25.0)),
            ("amplitude_damping", channels::amplitude_damping(0.05)),
            ("bit_flip", channels::bit_flip(0.02)),
            ("depolarizing", channels::depolarizing(0.02)),
        ];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (cname, channel) in &chans {
            for (name, c) in registry_circuits() {
                let n = c.n_qubits();
                let noisy = NoisyCircuit::inject_random(c, channel, 6, 79);
                let psi = ProductState::all_zeros(n);
                let v = ProductState::basis(n, 0b011);
                let ranks = site_ranks(&noisy);
                let oracle = two_half_per_level(&noisy, &psi, &v, 3);
                for threads in [1usize, 2] {
                    let res =
                        approximate_expectation(&noisy, &psi, &v, &opts(3).with_threads(threads));
                    assert_eq!(
                        bits(&res.per_level),
                        bits(&oracle),
                        "{cname} on {name}, threads {threads}"
                    );
                    assert_eq!(
                        res.terms_evaluated as u128,
                        crate::bounds::planned_patterns_for_ranks(&ranks, 3),
                        "{cname} on {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn level_sums_are_monotone_lower_bounds_of_the_exact_value() {
        // Every pattern term is a Kraus-trajectory probability |amp|²,
        // so T_u ≥ 0 and A(l) climbs toward the exact value from below.
        let chans = [
            channels::depolarizing(0.02),
            channels::amplitude_damping(0.05),
            channels::thermal_relaxation(30.0, 40.0, 200.0),
        ];
        for ((name, c), channel) in registry_circuits().into_iter().zip(&chans) {
            let n = c.n_qubits();
            let noisy = NoisyCircuit::inject_random(c, channel, 6, 73);
            let psi = ProductState::all_zeros(n);
            let v = ProductState::basis(n, 0b110);
            let mm = exact(&noisy, &psi, &v);
            let res = approximate_expectation(&noisy, &psi, &v, &opts(3));
            let mut partial = 0.0f64;
            for (u, &tu) in res.per_level.iter().enumerate() {
                assert!(tu >= 0.0, "{name}: T_{u} = {tu} < 0");
                let next = partial + tu;
                assert!(next >= partial, "{name}: A({u}) fell");
                assert!(next <= mm + 1e-12, "{name}: A({u}) = {next} > exact {mm}");
                partial = next;
            }
            assert!(
                mm - partial < 1e-3 * mm,
                "{name}: A(3) = {partial} vs exact {mm}"
            );
        }
    }

    #[test]
    fn pattern_enumeration_counts() {
        assert_eq!(enumerate_patterns(5, 0).len(), 1);
        assert_eq!(enumerate_patterns(5, 1).len(), 15); // C(5,1)·3
        assert_eq!(enumerate_patterns(5, 2).len(), 90); // C(5,2)·9

        // Every pattern has exactly u nonzero entries with values 1..=3.
        for pat in enumerate_patterns(4, 2) {
            assert_eq!(pat.iter().filter(|&&x| x > 0).count(), 2);
            assert!(pat.iter().all(|&x| x <= 3));
        }

        // The stream agrees with the closed-form count — now served by
        // `bounds` (the former private duplicate of this formula here
        // disagreed with `bounds` on overflow behavior) — and never
        // repeats a pattern.
        let mut pats = enumerate_patterns(6, 3);
        assert_eq!(pats.len() as u128, crate::bounds::level_patterns(6, 3));
        pats.sort();
        pats.dedup();
        assert_eq!(pats.len() as u128, crate::bounds::level_patterns(6, 3));
    }

    #[test]
    fn equal_channels_share_one_decomposition_with_per_site_results() {
        // Two different channels over five sites, one of them initial:
        // each distinct channel is decomposed once, and every site sees
        // the ranks and `U` payloads of its own decomposition.
        let (thermal, damping) = (
            channels::thermal_relaxation(30.0, 40.0, 25.0),
            channels::amplitude_damping(0.05),
        );
        let event = |after_gate, qubit, kraus: &Kraus| NoiseEvent {
            after_gate,
            qubit,
            kraus: kraus.clone(),
        };
        let mut noisy = NoisyCircuit::new(
            ghz(3),
            vec![
                event(0, 0, &thermal),
                event(1, 1, &damping),
                event(1, 2, &thermal),
                event(2, 2, &damping),
            ],
        );
        noisy.push_initial(1, thermal.clone());
        let per_site: Vec<NoiseSvd> = [&thermal, &thermal, &damping, &thermal, &damping]
            .into_iter()
            .map(NoiseSvd::decompose)
            .collect();

        let sites = collect_sites(&noisy);
        assert_eq!(
            sites.svds.len(),
            2,
            "one decomposition per distinct channel"
        );
        let ranks: Vec<usize> = per_site.iter().map(NoiseSvd::rank).collect();
        assert_eq!(site_ranks(&noisy), ranks);

        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let (_, shared) = build_split(noisy.circuit(), &psi, &v, &v, &sites);
        let bits = |t: &Tensor| -> Vec<(u64, u64)> {
            t.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        for (i, svd) in per_site.iter().enumerate() {
            for term in 0..4 {
                let expected = Tensor::from_matrix(svd.term(term).0);
                let installed = &shared.payloads[shared.channels[i]][term];
                assert_eq!(bits(installed), bits(&expected), "site {i}, term {term}");
            }
        }
    }

    #[test]
    fn site_ranks_put_initial_events_first_and_count_what_runs() {
        // Mixed ranks: an initial amplitude-damping site (rank 2)
        // ahead of depolarizing (4) and thermal (3) events.
        let event = |after_gate, qubit, kraus| NoiseEvent {
            after_gate,
            qubit,
            kraus,
        };
        let mut noisy = NoisyCircuit::new(
            ghz(3),
            vec![
                event(0, 0, channels::depolarizing(1e-2)),
                event(1, 2, channels::thermal_relaxation(30.0, 40.0, 100.0)),
            ],
        );
        noisy.push_initial(1, channels::amplitude_damping(0.05));
        let ranks = site_ranks(&noisy);
        let expected = vec![2, 4, 3];
        assert_eq!(ranks, expected);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let mm = exact(&noisy, &psi, &v);
        for l in 0..=3 {
            let res = approximate_expectation(&noisy, &psi, &v, &opts(l));
            assert_eq!(
                res.terms_evaluated as u128,
                crate::bounds::planned_patterns_for_ranks(&ranks, l),
                "level {l}"
            );
        }
        // 1 + (1+3+2) + (3+2+6) + 6 = 24 = 2·4·3 patterns at full level.
        let full = approximate_expectation(&noisy, &psi, &v, &opts(3));
        assert_eq!(full.terms_evaluated, 24);
        assert!((full.value - mm).abs() < 1e-10, "{} vs {mm}", full.value);
    }

    #[test]
    fn try_variants_report_structured_errors() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 4, 1);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0);

        // Wrong-size state.
        let wrong = ProductState::all_zeros(5);
        let err = try_approximate_expectation(&noisy, &wrong, &v, &opts(1)).unwrap_err();
        assert_eq!(
            err,
            QnsError::SizeMismatch {
                what: "input state",
                expected: 3,
                actual: 5
            }
        );

        // Budget guard.
        let tight = ApproxOptions::default().with_level(3).with_max_terms(2);
        let err = try_approximate_expectation(&noisy, &psi, &v, &tight).unwrap_err();
        assert!(matches!(
            err,
            QnsError::TermBudgetExceeded {
                level: 3,
                max_terms: 2,
                ..
            }
        ));

        // Matrix elements share the same validation.
        let err = try_approximate_matrix_element(&noisy, &psi, &wrong, &v, &opts(1)).unwrap_err();
        assert!(matches!(
            err,
            QnsError::SizeMismatch {
                what: "bra state",
                ..
            }
        ));

        // Reconstruction refuses large systems without panicking.
        let big = NoisyCircuit::noiseless(ghz(7));
        let err = try_reconstruct_density(&big, &ProductState::all_zeros(7), &opts(0)).unwrap_err();
        assert!(matches!(err, QnsError::TooLarge { n: 7, limit: 6, .. }));

        // And the happy path still matches the panicking wrapper.
        let a = try_approximate_expectation(&noisy, &psi, &v, &opts(1)).unwrap();
        let b = approximate_expectation(&noisy, &psi, &v, &opts(1));
        assert_eq!(a, b);
    }

    #[test]
    fn options_builder_setters_compose() {
        let o = ApproxOptions::default()
            .with_level(3)
            .with_max_terms(99)
            .with_threads(4);
        assert_eq!(o.level, 3);
        assert_eq!(o.max_terms, 99);
        assert_eq!(o.threads, 4);
    }

    #[test]
    #[should_panic(expected = "max_terms")]
    fn guard_trips_on_huge_level() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 30, 1);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0);
        let tight = ApproxOptions {
            level: 10,
            max_terms: 100,
            ..Default::default()
        };
        let _ = approximate_expectation(&noisy, &psi, &v, &tight);
    }
}
