//! Compiled, zero-allocation plan execution.
//!
//! A [`crate::plan::ContractionPlan`] records *what* to contract; an
//! [`ExecutablePlan`] records *how*, down to the last byte: at compile
//! time (shapes are fixed per skeleton) every pair contraction is
//! lowered to an exec step carrying
//!
//! * the matmul dimensions `m × k × n`,
//! * the operand permutations, with **identity elision** (when the
//!   contracted axes already sit trailing on the lhs / leading on the
//!   rhs, no data movement happens at all) and, for the lhs, a fused
//!   gather: instead of materializing the permuted copy, the micro
//!   kernel reads `a[row_off[i] + col_off[k]]` through tables
//!   precomputed here (a contraction permutation always splits the
//!   axes into a free group and a contracted group, so the permuted
//!   flat index factorizes); see *Operand layouts* below for where the
//!   other permutations run,
//! * an exact slot-buffer layout inside a shared arena: every hot tree
//!   node (intermediate) owns a **persistent, non-overlapping region**
//!   for the plan's lifetime, so cached intermediates survive across
//!   executions and delta replay can reuse them.
//!
//! # Hot and cold steps
//!
//! [`ContractionPlan::compile_for_replay`] takes the input slots that
//! vary between executions. A step with no varying leaf below it is
//! *cold*: it runs once, at compile time, and the cold nodes the other
//! (*hot*) steps read are kept, pre-permuted for their reader, in a
//! read-only cold cache that clones of the plan share through an
//! [`Arc`]. Executions run only the hot steps, and a [`Workspace`]
//! holds only hot nodes. A hot node whose sibling is cold reruns
//! exactly when its parent does, so it only lives until its parent
//! has read it, in a pool it shares with other such nodes.
//! [`ContractionPlan::compile`] is the case where every leaf varies:
//! every step is hot and the cold cache is empty.
//!
//! # Operand layouts
//!
//! A node read through a permutation is stored in its reader's layout,
//! so no replay permutes an operand that did not change. Cold nodes
//! get this at compile time, whichever side their hot reader reads
//! them on. A hot node read through an **rhs** permutation gets it from
//! its own step: that step stages its product in the workspace scratch
//! and copies it, permuted, into its arena region, so the copy runs
//! only when the node itself reruns — never when its parent reruns for
//! its other child. Two readers keep their permutation: an input leaf
//! (a 2×2 payload) is copied into the scratch by its reader, and a hot
//! lhs is gathered by the fused matmul. Every element is moved, never
//! recomputed, so the bits are those of the reference path.
//!
//! Execution then threads a [`Workspace`] — one per worker thread,
//! sized once from the plan — through the whole pattern sum: after the
//! first execution has grown the workspace buffers, replaying the plan
//! performs **zero heap allocations per pattern**. The
//! [`Workspace::allocation_events`] counter makes that invariant
//! observable (and is asserted in CI by `contract_bench --smoke`).
//!
//! # Delta execution
//!
//! Because every arena slot is persistent and every tree node is a
//! deterministic function of its children, a replay whose payloads
//! differ from the previous one in only a few leaves need not rerun the
//! whole tree: [`ExecutablePlan::execute_network_delta_into`] recomputes
//! exactly the union of the dirty leaves' leaf-to-root paths (plus the
//! final output gather) and leaves every other cached intermediate
//! untouched — **bit-identical to a full replay by construction**, at
//! `O(dirty leaves × tree depth)` steps instead of `O(network)`. Only
//! varying leaves may be dirty. The
//! workspace tracks which plan's intermediates it holds
//! ([`Workspace::is_warm_for`]); a delta request against a cold or
//! foreign workspace silently falls back to a full replay, which is
//! what makes per-worker chunked pattern streams correct without any
//! coordination.
//!
//! Results are bit-identical to the allocating reference path
//! ([`crate::plan::ContractionPlan::execute_reference`]): the micro
//! kernels in [`qns_linalg::kernels`] keep the reference accumulation
//! order, and elided/fused permutations move the same values.

use crate::network::{ContractionStats, TensorNetwork};
use crate::plan::ContractionPlan;
use qns_linalg::kernels::{matmul_gather_lhs_into, matmul_into};
use qns_linalg::Complex64;
use qns_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic id source distinguishing lowered plans, so a [`Workspace`]
/// can tell whose intermediates its arena currently caches. Clones of
/// an [`ExecutablePlan`] share the id — their layouts are identical, so
/// their cached intermediates are interchangeable.
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

/// Where a slot's buffer lives during execution.
#[derive(Clone, Copy, Debug)]
enum SlotLoc {
    /// The `i`-th input tensor, borrowed from the caller.
    Input(usize),
    /// A region of the workspace arena (a hot node).
    Arena { offset: usize, len: usize },
    /// A region of the plan's shared cold cache (a cold node read by a
    /// hot step, or the root of a plan with no hot step).
    Cold { offset: usize, len: usize },
}

/// Precomputed gather tables: `element(r, c) = src[row[r] + col[c]]`.
#[derive(Clone, Debug)]
struct Gather {
    row: Vec<usize>,
    col: Vec<usize>,
}

impl Gather {
    /// `dst[r·cols + c] = src[row[r] + col[c]]`: the permuted copy, as
    /// a two-level offset walk.
    fn copy(&self, src: &[Complex64], dst: &mut [Complex64]) {
        let cols = self.col.len();
        for (r, &ro) in self.row.iter().enumerate() {
            let drow = &mut dst[r * cols..(r + 1) * cols];
            for (d, &co) in drow.iter_mut().zip(&self.col) {
                *d = src[ro + co];
            }
        }
    }
}

/// The arithmetic of one lowered pair contraction, independent of
/// where its operands live.
#[derive(Clone, Debug)]
struct Kernel {
    m: usize,
    k: usize,
    n: usize,
    /// `Some` when the lhs needs permuting: the gather is fused into
    /// the matmul (no materialized copy). `None` = contracted axes
    /// already trailing, buffer used as-is.
    lhs_gather: Option<Gather>,
    /// `Some` when the rhs needs permuting: materialized into the
    /// workspace scratch with a two-level offset copy (no div/mod).
    /// `None` = contracted axes already leading, or the rhs is a node
    /// stored in this step's layout.
    rhs_gather: Option<Gather>,
    /// `Some` when this step's node is stored in its reader's layout:
    /// the product is staged in the scratch and copied through the
    /// reader's operand gather into the destination.
    out_gather: Option<Gather>,
}

impl Kernel {
    /// `dst = a · b` with the operand permutations applied, `dst` in
    /// the reader's layout when [`Kernel::out_gather`] is set.
    /// `scratch` (at least [`Kernel::scratch_len`] long) holds the
    /// permuted rhs, then the staged product.
    fn run(
        &self,
        a: &[Complex64],
        b: &[Complex64],
        dst: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        let (rhs_scratch, stage) = scratch.split_at_mut(self.rhs_scratch_len());
        // Materialize the permuted rhs when it isn't already in
        // k-leading order.
        let b = match &self.rhs_gather {
            None => b,
            Some(g) => {
                g.copy(b, rhs_scratch);
                &*rhs_scratch
            }
        };
        match &self.out_gather {
            None => self.matmul(a, b, dst),
            Some(g) => {
                let staged = &mut stage[..self.m * self.n];
                self.matmul(a, b, staged);
                g.copy(staged, dst);
            }
        }
    }

    fn matmul(&self, a: &[Complex64], b: &[Complex64], dst: &mut [Complex64]) {
        match &self.lhs_gather {
            None => matmul_into(a, b, dst, self.m, self.k, self.n),
            Some(g) => matmul_gather_lhs_into(a, &g.row, &g.col, b, dst, self.n),
        }
    }

    fn rhs_scratch_len(&self) -> usize {
        self.rhs_gather.as_ref().map_or(0, |_| self.k * self.n)
    }

    /// Scratch elements [`Kernel::run`] uses: the permuted rhs, then
    /// the staged product.
    fn scratch_len(&self) -> usize {
        self.rhs_scratch_len() + self.out_gather.as_ref().map_or(0, |_| self.m * self.n)
    }

    fn flops(&self) -> u128 {
        (self.m as u128)
            .saturating_mul(self.k.max(1) as u128)
            .saturating_mul(self.n as u128)
    }
}

/// One lowered hot pair contraction.
#[derive(Clone, Debug)]
struct ExecStep {
    lhs: SlotLoc,
    rhs: SlotLoc,
    /// Arena offset of the `m × n` result.
    dst_offset: usize,
    kernel: Kernel,
}

/// A [`ContractionPlan`] lowered to executable kernels; created by
/// [`ContractionPlan::compile`] or [`ContractionPlan::compile_for_replay`].
/// Immutable and shareable across worker threads — all mutable state
/// lives in the per-thread [`Workspace`].
///
/// The plan's steps split into **cold** ones, with no varying leaf
/// below them, and **hot** ones. Cold steps ran once, at compile time:
/// the cold nodes that hot steps read sit in a read-only cold cache
/// that clones of the plan (and so every worker) share through an
/// [`Arc`]. Only the hot steps run per execution, and only hot nodes
/// take workspace memory. [`ContractionPlan::compile`] treats every
/// leaf as varying, so every step is hot and the cold cache is empty.
#[derive(Clone, Debug)]
pub struct ExecutablePlan {
    /// Identity for workspace warm-tracking (shared by clones).
    id: u64,
    n_inputs: usize,
    input_lens: Vec<usize>,
    /// Whether each input slot may change between executions.
    varying: Vec<bool>,
    /// The hot steps, in execution order.
    steps: Vec<ExecStep>,
    /// Per input slot: the hot-step indices on its leaf-to-root path,
    /// in ascending (execution) order — precomputed so delta replay is
    /// a merge of sorted lists, no tree walk. Empty for a cold leaf.
    leaf_paths: Vec<Vec<u32>>,
    /// The cold nodes hot steps read (and a cold root), packed.
    cold: Arc<Vec<Complex64>>,
    /// Location of the final tensor before the output permutation.
    result: SlotLoc,
    result_len: usize,
    /// Shape of the executed result (after the output permutation).
    output_shape: Vec<usize>,
    /// `out[i] = result[out_gather[i]]`; `None` = already in order.
    out_gather: Option<Vec<usize>>,
    arena_len: usize,
    scratch_len: usize,
    replay_stats: ContractionStats,
}

/// Per-thread scratch memory for [`ExecutablePlan`] execution: the
/// hot-node arena (the contraction tree's cache of the nodes that
/// change), the scratch (a step's permuted input-leaf rhs, then its
/// staged product when its node is stored in its reader's layout) and
/// the output buffer. Grown
/// on first use (or by [`Workspace::for_plan`]) and reused verbatim
/// afterwards; buffers are never shrunk, so one workspace can serve
/// several plans at the maximum of their footprints — though only the
/// most recently executed plan's intermediates stay cached for delta
/// replay. Cold nodes never live here: the plan shares them.
#[derive(Debug, Default)]
pub struct Workspace {
    arena: Vec<Complex64>,
    scratch: Vec<Complex64>,
    out: Vec<Complex64>,
    allocation_events: u64,
    /// Id of the plan whose intermediates the arena currently holds
    /// (set by any full execution; delta replay requires a match).
    warm_for: Option<u64>,
    /// Reused buffer for the merged dirty-step set of a delta replay.
    dirty_steps: Vec<u32>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first execution.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace pre-sized for `plan` (the first execution then
    /// performs no allocations at all).
    pub fn for_plan(plan: &ExecutablePlan) -> Self {
        let mut ws = Workspace::new();
        ws.ensure(plan);
        ws
    }

    /// Number of buffer-growth events since construction. Steady-state
    /// replay allocates nothing: after the first execution of the
    /// largest plan this counter stops moving — the zero-allocation
    /// invariant benchmarks and CI assert.
    pub fn allocation_events(&self) -> u64 {
        self.allocation_events
    }

    /// Total elements currently held across all buffers.
    pub fn capacity(&self) -> usize {
        self.arena.len() + self.scratch.len() + self.out.len()
    }

    /// Whether this workspace's arena holds `plan`'s cached
    /// intermediates — i.e. whether a delta execution against `plan`
    /// would take the incremental path rather than fall back to a full
    /// replay. Set by any full execution of `plan`; cleared by
    /// executing a different plan through the same workspace.
    pub fn is_warm_for(&self, plan: &ExecutablePlan) -> bool {
        self.warm_for == Some(plan.id)
    }

    /// Grows any undersized buffer to `plan`'s footprint.
    fn ensure(&mut self, plan: &ExecutablePlan) {
        for (buf, need) in [
            (&mut self.arena, plan.arena_len),
            (&mut self.scratch, plan.scratch_len),
            (&mut self.out, plan.result_len.max(1)),
        ] {
            if buf.len() < need {
                buf.resize(need, Complex64::ZERO);
                self.allocation_events += 1;
            }
        }
    }
}

/// Row-major strides of a shape.
fn strides_of(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Flat source offsets of every row-major index combination over
/// `axes` of a tensor with the given `strides` — one half of a
/// factorized permutation.
fn offset_table(shape: &[usize], strides: &[usize], axes: &[usize]) -> Vec<usize> {
    let dims: Vec<usize> = axes.iter().map(|&a| shape[a]).collect();
    let total: usize = dims.iter().product();
    let mut table = Vec::with_capacity(total);
    let mut coords = vec![0usize; axes.len()];
    for _ in 0..total {
        table.push(coords.iter().zip(axes).map(|(&c, &a)| c * strides[a]).sum());
        for t in (0..axes.len()).rev() {
            coords[t] += 1;
            if coords[t] < dims[t] {
                break;
            }
            coords[t] = 0;
        }
    }
    table
}

fn is_identity(perm: impl Iterator<Item = usize>) -> bool {
    perm.enumerate().all(|(i, p)| i == p)
}

/// Lowers every step of `plan` to its [`Kernel`], returning the kernels
/// and the shape of every slot (inputs, then one per step).
fn lower_kernels(plan: &ContractionPlan) -> (Vec<Kernel>, Vec<Vec<usize>>) {
    let mut slot_shapes: Vec<Vec<usize>> = plan.input_shapes().to_vec();
    let mut kernels = Vec::with_capacity(plan.steps().len());
    for step in plan.steps() {
        let sa = &slot_shapes[step.lhs];
        let sb = &slot_shapes[step.rhs];
        let free_a: Vec<usize> = (0..sa.len())
            .filter(|i| !step.axes_lhs.contains(i))
            .collect();
        let free_b: Vec<usize> = (0..sb.len())
            .filter(|i| !step.axes_rhs.contains(i))
            .collect();
        // Permutations bringing contracted axes trailing (lhs) /
        // leading (rhs), elided when already in place.
        let lhs_gather =
            (!is_identity(free_a.iter().chain(step.axes_lhs.iter()).copied())).then(|| {
                let strides = strides_of(sa);
                Gather {
                    row: offset_table(sa, &strides, &free_a),
                    col: offset_table(sa, &strides, &step.axes_lhs),
                }
            });
        let rhs_gather =
            (!is_identity(step.axes_rhs.iter().chain(free_b.iter()).copied())).then(|| {
                let strides = strides_of(sb);
                Gather {
                    row: offset_table(sb, &strides, &step.axes_rhs),
                    col: offset_table(sb, &strides, &free_b),
                }
            });
        let mut shape: Vec<usize> = free_a.iter().map(|&i| sa[i]).collect();
        shape.extend(free_b.iter().map(|&i| sb[i]));
        kernels.push(Kernel {
            m: free_a.iter().map(|&i| sa[i]).product(),
            k: step.axes_lhs.iter().map(|&i| sa[i]).product(),
            n: free_b.iter().map(|&i| sb[i]).product(),
            lhs_gather,
            rhs_gather,
            out_gather: None,
        });
        slot_shapes.push(shape);
    }
    (kernels, slot_shapes)
}

/// What [`ExecutablePlan::lower`] needs to run a plan's cold part: the
/// varying input slots and a reader of every input's payload.
type ColdInputs<'a, 'i> = (&'a [usize], &'a dyn Fn(usize) -> &'i [Complex64]);

/// First-fit allocator of the transient hot nodes' arena regions,
/// above the persistent ones.
struct TransientPool {
    /// Live `(offset, len)` blocks, sorted by offset.
    live: Vec<(usize, usize)>,
    base: usize,
    /// One past the highest element any block has used.
    end: usize,
}

impl TransientPool {
    fn new(base: usize) -> Self {
        TransientPool {
            live: Vec::new(),
            base,
            end: base,
        }
    }

    /// The offset of a new `len`-element block: the first gap that
    /// fits, else the end of the highest live block.
    fn alloc(&mut self, len: usize) -> usize {
        let mut at = self.base;
        let mut index = self.live.len();
        for (i, &(offset, used)) in self.live.iter().enumerate() {
            if offset - at >= len {
                index = i;
                break;
            }
            at = offset + used;
        }
        self.live.insert(index, (at, len));
        self.end = self.end.max(at + len);
        at
    }

    /// Releases the `len`-element block at `offset`.
    fn free(&mut self, offset: usize, len: usize) {
        if let Some(i) = self.live.iter().position(|&b| b == (offset, len)) {
            self.live.remove(i);
        }
    }
}

impl ExecutablePlan {
    /// Lowers `plan` — see [`ContractionPlan::compile`] (`cold` is
    /// `None`: every leaf varies) and
    /// [`ContractionPlan::compile_for_replay`] (`cold` names the
    /// varying leaves and reads the payloads of the others).
    pub(crate) fn lower<'i>(
        plan: &ContractionPlan,
        cold: Option<ColdInputs<'_, 'i>>,
    ) -> ExecutablePlan {
        let n_inputs = plan.n_inputs();
        let n_steps = plan.steps().len();
        let input_lens: Vec<usize> = plan
            .input_shapes()
            .iter()
            .map(|s| s.iter().product())
            .collect();
        let below = match cold {
            Some((varying, _)) => plan.varying_below(varying),
            None => plan.varying_below(&(0..n_inputs).collect::<Vec<_>>()),
        };
        let hot = |slot: usize| below[slot] > 0;
        let (mut kernels, slot_shapes) = lower_kernels(plan);
        let slot_len = |slot: usize| -> usize { slot_shapes[slot].iter().product() };
        let root = match n_steps {
            0 => 0,
            _ => n_inputs + n_steps - 1,
        };

        // The cold nodes the hot part reads — children of hot steps,
        // and the root when no step is hot — packed in slot order.
        let mut frontier: Vec<Option<usize>> = vec![None; n_inputs + n_steps];
        let mut cold_len = 0usize;
        let mut mark = |slot: usize, frontier: &mut Vec<Option<usize>>| {
            if slot >= n_inputs && !hot(slot) && frontier[slot].is_none() {
                frontier[slot] = Some(cold_len);
                cold_len += slot_len(slot);
            }
        };
        for (i, step) in plan.steps().iter().enumerate() {
            if hot(n_inputs + i) {
                mark(step.lhs, &mut frontier);
                mark(step.rhs, &mut frontier);
            }
        }
        if n_steps > 0 {
            mark(root, &mut frontier);
        }

        // Store every node a hot step reads through a permutation in
        // that step's layout (module docs, *Operand layouts*): move the
        // gather from the reader's kernel to the node's own, for a cold
        // node on either side and a hot node read as the rhs.
        for (p, step) in plan.steps().iter().enumerate() {
            if !hot(n_inputs + p) {
                continue;
            }
            if step.lhs >= n_inputs && !hot(step.lhs) {
                let gather = kernels[p].lhs_gather.take();
                kernels[step.lhs - n_inputs].out_gather = gather;
            }
            if step.rhs >= n_inputs {
                let gather = kernels[p].rhs_gather.take();
                kernels[step.rhs - n_inputs].out_gather = gather;
            }
        }

        // Run the cold steps once. Each cold node is dropped as soon
        // as its parent has consumed it, unless the hot part reads it.
        let mut cold_cache = vec![Complex64::ZERO; cold_len];
        if let Some((_, input)) = cold {
            let cold_steps: Vec<usize> = (0..n_steps).filter(|&i| !hot(n_inputs + i)).collect();
            let scratch_need = cold_steps
                .iter()
                .map(|&i| kernels[i].scratch_len())
                .max()
                .unwrap_or(0);
            let mut scratch = vec![Complex64::ZERO; scratch_need];
            let mut temp: Vec<Vec<Complex64>> = vec![Vec::new(); n_steps];
            for i in cold_steps {
                let step = &plan.steps()[i];
                let slot = n_inputs + i;
                // A cold child is either an input leaf or a cold node
                // only this step reads, so its buffer can be taken.
                let mut take = |s: usize| {
                    if s < n_inputs {
                        Vec::new()
                    } else {
                        std::mem::take(&mut temp[s - n_inputs])
                    }
                };
                let (ta, tb) = (take(step.lhs), take(step.rhs));
                let leaf = |s: usize| {
                    let data = input(s);
                    assert_eq!(data.len(), input_lens[s], "input tensor {s} length");
                    data
                };
                let a: &[Complex64] = if step.lhs < n_inputs {
                    leaf(step.lhs)
                } else {
                    &ta
                };
                let b: &[Complex64] = if step.rhs < n_inputs {
                    leaf(step.rhs)
                } else {
                    &tb
                };
                let dst: &mut [Complex64] = match frontier[slot] {
                    Some(off) => &mut cold_cache[off..off + slot_len(slot)],
                    None => {
                        temp[i] = vec![Complex64::ZERO; slot_len(slot)];
                        &mut temp[i]
                    }
                };
                kernels[i].run(a, b, dst, &mut scratch);
            }
        }

        // Lay out the hot steps. A hot node whose sibling is cold is
        // *transient*: its parent reruns exactly when it does, so it
        // only has to live until its parent has read it, and transient
        // nodes share a first-fit pool after the persistent regions.
        // Every other hot node owns a persistent, non-overlapping
        // region, so cached intermediates survive across executions —
        // the invariant delta replay needs. With every leaf varying no
        // node is transient.
        let transient = |slot: usize| -> bool {
            plan.slot_parent(slot).is_some_and(|p| {
                let (l, r) = plan.steps()[p].children();
                !hot(if l == slot { r } else { l })
            })
        };
        let persistent_len: usize = (n_inputs..n_inputs + n_steps)
            .filter(|&slot| hot(slot) && !transient(slot))
            .map(slot_len)
            .sum();
        let mut pool = TransientPool::new(persistent_len);
        let mut locs: Vec<SlotLoc> = (0..n_inputs).map(SlotLoc::Input).collect();
        let mut hot_index = vec![u32::MAX; n_steps];
        let mut steps = Vec::new();
        let mut next_persistent = 0usize;
        let mut scratch_len = 0usize;
        let mut replay_stats = ContractionStats {
            max_intermediate: plan.replay_stats().max_intermediate,
            plan_reuses: 1,
            ..Default::default()
        };
        for (i, (step, kernel)) in plan.steps().iter().zip(kernels).enumerate() {
            let slot = n_inputs + i;
            let len = slot_len(slot);
            if !hot(slot) {
                locs.push(match frontier[slot] {
                    Some(offset) => SlotLoc::Cold { offset, len },
                    // Read by no hot step: never resolved.
                    None => SlotLoc::Cold { offset: 0, len: 0 },
                });
                continue;
            }
            scratch_len = scratch_len.max(kernel.scratch_len());
            let offset = if transient(slot) {
                pool.alloc(len)
            } else {
                next_persistent += len;
                next_persistent - len
            };
            // The children have been read once this step has run.
            for child in [step.lhs, step.rhs] {
                if child >= n_inputs && hot(child) && transient(child) {
                    if let SlotLoc::Arena { offset, len } = locs[child] {
                        pool.free(offset, len);
                    }
                }
            }
            replay_stats.contractions += 1;
            replay_stats.flops_proxy += kernel.flops();
            hot_index[i] = steps.len() as u32;
            steps.push(ExecStep {
                lhs: locs[step.lhs],
                rhs: locs[step.rhs],
                dst_offset: offset,
                kernel,
            });
            locs.push(SlotLoc::Arena { offset, len });
        }
        let arena_len = pool.end;

        let (result, result_shape) = if n_inputs == 0 {
            // Empty plan: the scalar 1 is synthesized at run time.
            (SlotLoc::Arena { offset: 0, len: 0 }, Vec::new())
        } else {
            (locs[root], slot_shapes[root].clone())
        };
        let result_len: usize = result_shape.iter().product();

        let (output_shape, out_gather) = match plan.output_perm() {
            Some(perm) => {
                let out_shape: Vec<usize> = perm.iter().map(|&p| result_shape[p]).collect();
                // Row-major walk over the output axes, offsets through
                // the un-permuted result's strides — the same
                // factorized-permutation table as the operand gathers.
                let table = offset_table(&result_shape, &strides_of(&result_shape), perm);
                (out_shape, Some(table))
            }
            None => (result_shape, None),
        };

        let varying: Vec<bool> = (0..n_inputs).map(hot).collect();
        let leaf_paths = (0..n_inputs)
            .map(|l| {
                if !varying[l] {
                    return Vec::new();
                }
                plan.leaf_path(l)
                    .into_iter()
                    .map(|s| hot_index[s])
                    .collect()
            })
            .collect();
        ExecutablePlan {
            id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
            n_inputs,
            input_lens,
            varying,
            steps,
            leaf_paths,
            cold: Arc::new(cold_cache),
            result,
            result_len,
            output_shape,
            out_gather,
            arena_len,
            scratch_len,
            replay_stats,
        }
    }

    /// Number of input tensors the plan expects.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Shape of the executed result (axes in ascending open-leg
    /// order, like the planning network's [`TensorNetwork`] output).
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    /// The hot nodes stored in their reader's layout: each is its hot
    /// parent's rhs through a permutation, so its own step writes it
    /// permuted and the parent's kernel reads it as it lies (module
    /// docs, *Operand layouts*).
    pub fn pre_permuted_hot_nodes(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.kernel.out_gather.is_some())
            .count()
    }

    /// Whether input slot `leaf` may change between executions — the
    /// leaves a delta execution may name as dirty.
    ///
    /// # Panics
    ///
    /// Panics if `leaf >= n_inputs()`.
    pub fn is_varying(&self, leaf: usize) -> bool {
        self.varying[leaf]
    }

    /// The statistics of one full replay: the hot steps it runs and
    /// their `m·k·n`, the plan's largest intermediate, `plan_reuses = 1`
    /// and `order_searches = 0`. Absorb into a run's aggregate per
    /// execution.
    pub fn replay_stats(&self) -> ContractionStats {
        self.replay_stats
    }

    /// Executes against borrowed input tensors (one per original node,
    /// in node order, with the planned shapes), returning the result's
    /// row-major buffer inside `ws`. Zero heap allocations once `ws`
    /// has warmed up. Only the hot steps run: cold leaves are read as
    /// they were at compile time.
    ///
    /// # Panics
    ///
    /// Panics if the input count or a buffer length disagrees with the
    /// plan.
    pub fn execute_into<'w>(&self, inputs: &[&Tensor], ws: &'w mut Workspace) -> &'w [Complex64] {
        assert_eq!(
            inputs.len(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            inputs.len()
        );
        self.run(|i| inputs[i].as_slice(), ws)
    }

    /// Executes against the tensors currently held by `net` (same node
    /// count and shapes as the planning network) — the
    /// swap-payloads-and-replay entry point of the pattern sum.
    ///
    /// # Panics
    ///
    /// As [`ExecutablePlan::execute_into`].
    pub fn execute_network_into<'w>(
        &self,
        net: &TensorNetwork,
        ws: &'w mut Workspace,
    ) -> &'w [Complex64] {
        assert_eq!(
            net.node_count(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            net.node_count()
        );
        self.run(|i| net.node_tensor(i).as_slice(), ws)
    }

    /// [`ExecutablePlan::execute_network_into`] for fully contracted
    /// (rank-0) plans, returning the scalar directly.
    ///
    /// # Panics
    ///
    /// Panics if the plan's output is not rank 0.
    pub fn execute_network_scalar(&self, net: &TensorNetwork, ws: &mut Workspace) -> Complex64 {
        assert!(
            self.output_shape.is_empty(),
            "execute_network_scalar requires a rank-0 output"
        );
        self.execute_network_into(net, ws)[0]
    }

    /// Delta execution against the tensors currently held by `net`:
    /// recomputes only the contraction-tree paths from the
    /// `dirty_leaves` (node indices whose payloads changed since the
    /// previous execution through `ws`) to the root, reusing every
    /// other intermediate cached in the workspace arena — bit-identical
    /// to
    /// [`ExecutablePlan::execute_network_into`] by construction. This
    /// is the pattern sum's incremental entry point: swap only the
    /// payloads that changed, then replay only their tree paths.
    ///
    /// Falls back to a full replay when `ws` was not warmed by this
    /// plan (first execution, or the workspace last ran a different
    /// plan), so callers never need to track warmth themselves. The
    /// returned [`ContractionStats`] count the pair contractions
    /// actually executed, which is how the saving shows up in
    /// aggregate run statistics.
    ///
    /// # Panics
    ///
    /// Panics if the input count or a buffer length disagrees with the
    /// plan, or if a dirty leaf is out of range or not varying
    /// ([`ExecutablePlan::is_varying`]: a cold leaf's payload was
    /// folded into the cold cache at compile time, so changing it
    /// needs a new compile). Leaves *not* listed in `dirty_leaves` must
    /// hold the same payloads as the previous execution through `ws`;
    /// this is the caller's contract and is not checked (checking would
    /// cost the full replay the delta path avoids).
    pub fn execute_network_delta_into<'w>(
        &self,
        net: &TensorNetwork,
        dirty_leaves: &[usize],
        ws: &'w mut Workspace,
    ) -> (&'w [Complex64], ContractionStats) {
        assert_eq!(
            net.node_count(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            net.node_count()
        );
        self.run_delta(|i| net.node_tensor(i).as_slice(), dirty_leaves, ws)
    }

    /// [`ExecutablePlan::execute_network_delta_into`] for fully
    /// contracted (rank-0) plans, returning the scalar directly.
    ///
    /// # Panics
    ///
    /// Panics if the plan's output is not rank 0, and as
    /// [`ExecutablePlan::execute_network_delta_into`].
    pub fn execute_network_delta_scalar(
        &self,
        net: &TensorNetwork,
        dirty_leaves: &[usize],
        ws: &mut Workspace,
    ) -> (Complex64, ContractionStats) {
        assert!(
            self.output_shape.is_empty(),
            "execute_network_delta_scalar requires a rank-0 output"
        );
        let (out, stats) = self.execute_network_delta_into(net, dirty_leaves, ws);
        (out[0], stats)
    }

    fn run<'w, 'i>(
        &self,
        input: impl Fn(usize) -> &'i [Complex64],
        ws: &'w mut Workspace,
    ) -> &'w [Complex64] {
        // Profiling hook: a no-op atomic load unless a profiler is
        // installed (the clock read lives in `profile`, off the
        // determinism path this file sits on).
        let timer = crate::profile::start_replay();
        ws.ensure(self);
        if self.n_inputs == 0 {
            ws.out[0] = Complex64::ONE;
            ws.warm_for = Some(self.id);
            crate::profile::record_full(timer, 0);
            return &ws.out[..1];
        }
        {
            let Workspace {
                arena,
                scratch,
                out,
                ..
            } = &mut *ws;
            for step in &self.steps {
                self.exec_step(step, &input, arena, scratch);
            }
            self.finalize(&input, arena, out);
        }
        // The arena now caches every hot intermediate of this plan —
        // the workspace is warm for delta replay.
        ws.warm_for = Some(self.id);
        crate::profile::record_full(timer, self.steps.len() as u64);
        &ws.out[..self.result_len]
    }

    /// Incremental replay: reruns only the steps on the dirty leaves'
    /// leaf-to-root paths (plus the final output stage), reusing every
    /// other intermediate cached in the arena. Falls back to a full
    /// [`ExecutablePlan::run`] when `ws` is not warm for this plan.
    /// The returned stats count the steps actually executed.
    fn run_delta<'w, 'i>(
        &self,
        input: impl Fn(usize) -> &'i [Complex64],
        dirty_leaves: &[usize],
        ws: &'w mut Workspace,
    ) -> (&'w [Complex64], ContractionStats) {
        for &leaf in dirty_leaves {
            assert!(leaf < self.n_inputs, "dirty leaf {leaf} out of range");
            assert!(
                self.varying[leaf],
                "dirty leaf {leaf} is not a varying leaf of this plan"
            );
        }
        if ws.warm_for != Some(self.id) || self.n_inputs == 0 {
            // The fallback records itself as a full replay inside
            // `run`, so the timer starts after this check.
            let out = self.run(input, ws);
            return (out, self.replay_stats);
        }
        let timer = crate::profile::start_replay();
        // Union of the dirty leaves' (individually sorted) paths, as
        // one ascending step sequence. Reuses the workspace's merge
        // buffer: no allocation once it has grown.
        let mut dirty_steps = std::mem::take(&mut ws.dirty_steps);
        dirty_steps.clear();
        for &leaf in dirty_leaves {
            if dirty_steps.len() + self.leaf_paths[leaf].len() > dirty_steps.capacity() {
                ws.allocation_events += 1;
            }
            dirty_steps.extend_from_slice(&self.leaf_paths[leaf]);
        }
        dirty_steps.sort_unstable();
        dirty_steps.dedup();
        let mut stats = ContractionStats {
            plan_reuses: 1,
            max_intermediate: self.replay_stats.max_intermediate,
            ..Default::default()
        };
        {
            let Workspace {
                arena,
                scratch,
                out,
                ..
            } = &mut *ws;
            for &si in &dirty_steps {
                let step = &self.steps[si as usize];
                self.exec_step(step, &input, arena, scratch);
                stats.contractions += 1;
                stats.flops_proxy += step.kernel.flops();
            }
            self.finalize(&input, arena, out);
        }
        ws.dirty_steps = dirty_steps;
        crate::profile::record_delta(timer, stats.contractions as u64);
        (&ws.out[..self.result_len], stats)
    }

    /// Runs one lowered hot step against the arena/scratch buffers. The
    /// destination region is disjoint from every other slot region by
    /// construction (persistent bump layout), so a step only ever
    /// overwrites its own node's cache.
    fn exec_step<'i>(
        &self,
        step: &ExecStep,
        input: &impl Fn(usize) -> &'i [Complex64],
        arena: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        // Split the arena into the disjoint shared/mutable regions
        // this step touches, then run the micro kernel.
        let region = |loc: SlotLoc| match loc {
            SlotLoc::Arena { offset, len } => Some((offset, len)),
            SlotLoc::Input(_) | SlotLoc::Cold { .. } => None,
        };
        let k = &step.kernel;
        let (lhs_arena, rhs_arena, dst) = split3(
            arena,
            region(step.lhs),
            region(step.rhs),
            (step.dst_offset, k.m * k.n),
        );
        let a = self.operand(step.lhs, input, lhs_arena);
        let b = self.operand(step.rhs, input, rhs_arena);
        k.run(a, b, dst, scratch);
    }

    /// The buffer of an operand: a checked input, a cold-cache region,
    /// or the arena region `split3` carved out for it.
    fn operand<'a, 'i: 'a>(
        &'a self,
        loc: SlotLoc,
        input: &impl Fn(usize) -> &'i [Complex64],
        arena_region: Option<&'a [Complex64]>,
    ) -> &'a [Complex64] {
        match loc {
            SlotLoc::Input(i) => {
                let s = input(i);
                assert_eq!(s.len(), self.input_lens[i], "input tensor {i} length");
                s
            }
            SlotLoc::Cold { offset, len } => &self.cold[offset..offset + len],
            // `split3` carved this region out for the step; an empty
            // slice would fail the kernel's length checks.
            SlotLoc::Arena { .. } => arena_region.unwrap_or_default(),
        }
    }

    /// Final stage: copy/gather the root slot into the output buffer
    /// (applying the open-leg output permutation when present). Always
    /// rerun — even by delta replay, whose dirty set may be empty.
    fn finalize<'i>(
        &self,
        input: &impl Fn(usize) -> &'i [Complex64],
        arena: &[Complex64],
        out: &mut [Complex64],
    ) {
        let res: &[Complex64] = match self.result {
            SlotLoc::Arena { offset, len } => &arena[offset..offset + len],
            loc => self.operand(loc, input, None),
        };
        let out = &mut out[..self.result_len];
        match &self.out_gather {
            Some(table) => {
                for (o, &src_idx) in out.iter_mut().zip(table) {
                    *o = res[src_idx];
                }
            }
            None => out.copy_from_slice(res),
        }
    }
}

/// Borrows up to two shared regions and one mutable region out of one
/// buffer. Regions must be pairwise disjoint (the compile-time
/// allocator guarantees this: the destination is carved out while both
/// operands are still live).
#[allow(clippy::type_complexity)]
#[expect(
    clippy::expect_used,
    reason = "the write region `w` is always one of the three"
)]
fn split3<'a>(
    buf: &'a mut [Complex64],
    r1: Option<(usize, usize)>,
    r2: Option<(usize, usize)>,
    w: (usize, usize),
) -> (
    Option<&'a [Complex64]>,
    Option<&'a [Complex64]>,
    &'a mut [Complex64],
) {
    // Tagged regions, sorted by offset, carved off front to back.
    let mut regions: [Option<(usize, usize, u8)>; 3] = [
        r1.map(|(o, l)| (o, l, 0u8)),
        r2.map(|(o, l)| (o, l, 1u8)),
        Some((w.0, w.1, 2u8)),
    ];
    regions.sort_unstable_by_key(|r| r.map(|(o, _, _)| o).unwrap_or(usize::MAX));
    let mut rest: &mut [Complex64] = buf;
    let mut base = 0usize;
    let mut got: [Option<&'a mut [Complex64]>; 3] = [None, None, None];
    for r in regions.iter().flatten() {
        let &(off, len, tag) = r;
        assert!(off >= base, "exec plan regions overlap");
        let tail = std::mem::take(&mut rest);
        let (_, tail) = tail.split_at_mut(off - base);
        let (this, tail) = tail.split_at_mut(len);
        rest = tail;
        base = off + len;
        got[tag as usize] = Some(this);
    }
    let [g0, g1, g2] = got;
    (
        g0.map(|s| &*s),
        g1.map(|s| &*s),
        g2.expect("write region always present"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::OrderStrategy;
    use qns_linalg::cr;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_tensor(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        Tensor::from_vec(data, shape)
    }

    /// A 4-node chain where payload swaps and delta replays can be
    /// compared against full executions.
    fn chain4(rng: &mut StdRng) -> (TensorNetwork, Vec<Vec<usize>>) {
        let shapes = vec![vec![2, 3], vec![3, 4], vec![4, 3], vec![3, 2]];
        let mut net = TensorNetwork::new();
        let legs: Vec<usize> = (0..5).map(|_| net.fresh_leg()).collect();
        for (i, s) in shapes.iter().enumerate() {
            net.add(rand_tensor(rng, s.clone()), vec![legs[i], legs[i + 1]]);
        }
        (net, shapes)
    }

    #[test]
    fn delta_on_cold_workspace_falls_back_to_full_replay() {
        let mut rng = StdRng::seed_from_u64(21);
        let (net, _) = chain4(&mut rng);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        assert!(!ws.is_warm_for(&exec));
        // No leaf is dirty, but the cold workspace forces a full run.
        let (out, stats) = exec.execute_network_delta_into(&net, &[], &mut ws);
        assert_eq!(stats.contractions, 3);
        let out = out.to_vec();
        assert!(ws.is_warm_for(&exec));
        let (reference, _) = net
            .plan(OrderStrategy::Greedy)
            .execute_network_reference(&net);
        assert_eq!(out, reference.as_slice());
    }

    #[test]
    fn delta_recomputes_only_dirty_paths_bit_identically() {
        let mut rng = StdRng::seed_from_u64(22);
        let (mut net, shapes) = chain4(&mut rng);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::for_plan(&exec);
        let _ = exec.execute_network_into(&net, &mut ws);
        let warm = ws.allocation_events();

        for dirty in 0..shapes.len() {
            net.set_tensor(
                net.node_id(dirty),
                rand_tensor(&mut rng, shapes[dirty].clone()),
            );
            let (out, stats) = exec.execute_network_delta_into(&net, &[dirty], &mut ws);
            // A delta replay runs strictly fewer pair contractions than
            // the full chain (3 steps) unless the leaf sits at maximum
            // depth.
            assert!(stats.contractions <= 3, "leaf {dirty}");
            assert!(stats.contractions >= 1, "leaf {dirty}");
            assert_eq!(stats.plan_reuses, 1);
            let out = out.to_vec();
            let (reference, _) = net
                .plan(OrderStrategy::Greedy)
                .execute_network_reference(&net);
            assert_eq!(out, reference.as_slice(), "leaf {dirty}");
        }
        // The first delta may grow the dirty-step merge buffer; after
        // that the delta path allocates nothing.
        let after_first = ws.allocation_events();
        for dirty in 0..shapes.len() {
            net.set_tensor(
                net.node_id(dirty),
                rand_tensor(&mut rng, shapes[dirty].clone()),
            );
            let _ = exec.execute_network_delta_into(&net, &[dirty], &mut ws);
        }
        assert_eq!(ws.allocation_events(), after_first);
        assert!(after_first <= warm + 1);
    }

    #[test]
    fn foreign_plan_cools_the_workspace() {
        let mut rng = StdRng::seed_from_u64(23);
        let (net_a, _) = chain4(&mut rng);
        let (mut net_b, shapes_b) = chain4(&mut rng);
        let exec_a = net_a.plan(OrderStrategy::Greedy).compile();
        let exec_b = net_b.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        let _ = exec_b.execute_network_into(&net_b, &mut ws);
        // Running plan A invalidates B's cached intermediates …
        let _ = exec_a.execute_network_into(&net_a, &mut ws);
        assert!(!ws.is_warm_for(&exec_b));
        // … so B's next delta must fall back to a full replay and
        // still match the reference.
        net_b.set_tensor(net_b.node_id(0), rand_tensor(&mut rng, shapes_b[0].clone()));
        let (out, stats) = exec_b.execute_network_delta_into(&net_b, &[0], &mut ws);
        assert_eq!(stats.contractions, 3, "full-replay fallback");
        let out = out.to_vec();
        let (reference, _) = net_b
            .plan(OrderStrategy::Greedy)
            .execute_network_reference(&net_b);
        assert_eq!(out, reference.as_slice());
    }

    #[test]
    fn clones_share_warmth() {
        let mut rng = StdRng::seed_from_u64(24);
        let (net, _) = chain4(&mut rng);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let clone = exec.clone();
        let mut ws = Workspace::new();
        let _ = exec.execute_network_into(&net, &mut ws);
        // Identical layout ⇒ the clone may reuse the cache.
        assert!(ws.is_warm_for(&clone));
        let (_, stats) = clone.execute_network_delta_into(&net, &[], &mut ws);
        assert_eq!(stats.contractions, 0);
    }

    #[test]
    fn hot_rhs_node_is_stored_in_its_readers_layout() {
        // ((n0·n1)·(n2·n3)): the right pair's result has axes [o1, b],
        // and the root contracts b, so it reads that node through a
        // non-identity rhs permutation.
        let mut rng = StdRng::seed_from_u64(25);
        let mut net = TensorNetwork::new();
        let [o0, o1, a, b, c] = std::array::from_fn(|_| net.fresh_leg());
        let shapes = [vec![2, 3], vec![3, 2], vec![2, 3], vec![3, 2]];
        for (shape, legs) in shapes.iter().zip([[o0, a], [a, b], [o1, c], [c, b]]) {
            net.add(rand_tensor(&mut rng, shape.clone()), legs.to_vec());
        }
        let plan = net.plan_order(&[(0, 1), (2, 3), (4, 5)]);
        let (kernels, _) = lower_kernels(&plan);
        assert!(
            kernels[2].rhs_gather.is_some(),
            "the root's rhs is permuted"
        );

        for exec in [plan.compile(), plan.compile_for_replay(&net, &[0, 3])] {
            assert_eq!(exec.pre_permuted_hot_nodes(), 1);
            assert!(exec.steps[1].kernel.out_gather.is_some());
            let root = &exec.steps[2].kernel;
            assert!(root.rhs_gather.is_none(), "the root copies no rhs");
            let mut ws = Workspace::new();
            let _ = exec.execute_network_into(&net, &mut ws);
            for dirty in [0, 3, 0] {
                net.set_tensor(
                    net.node_id(dirty),
                    rand_tensor(&mut rng, shapes[dirty].clone()),
                );
                // Leaf 0 reruns the root with its rhs node cached.
                let delta = exec
                    .execute_network_delta_into(&net, &[dirty], &mut ws)
                    .0
                    .to_vec();
                let full = exec
                    .execute_network_into(&net, &mut Workspace::new())
                    .to_vec();
                let (reference, _) = plan.execute_network_reference(&net);
                assert_eq!(delta, full, "leaf {dirty}");
                assert_eq!(full, reference.as_slice(), "leaf {dirty}");
            }
        }
    }

    #[test]
    fn chain_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = rand_tensor(&mut rng, vec![2, 3]);
        let b = rand_tensor(&mut rng, vec![3, 4]);
        let c = rand_tensor(&mut rng, vec![4, 2]);
        let mut net = TensorNetwork::new();
        let (l0, l1, l2, l3) = (
            net.fresh_leg(),
            net.fresh_leg(),
            net.fresh_leg(),
            net.fresh_leg(),
        );
        net.add(a, vec![l0, l1]);
        net.add(b, vec![l1, l2]);
        net.add(c, vec![l2, l3]);
        for strategy in [OrderStrategy::Greedy, OrderStrategy::Sequential] {
            let plan = net.plan(strategy);
            let exec = plan.compile();
            let mut ws = Workspace::new();
            let out = exec.execute_network_into(&net, &mut ws);
            let (reference, _) = plan.execute_network_reference(&net);
            assert_eq!(out, reference.as_slice(), "{strategy:?}");
            assert_eq!(exec.output_shape(), reference.shape());
        }
    }

    #[test]
    fn workspace_stops_allocating_after_first_execution() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = TensorNetwork::new();
        let (l0, l1, l2) = (net.fresh_leg(), net.fresh_leg(), net.fresh_leg());
        net.add(rand_tensor(&mut rng, vec![2, 3]), vec![l0, l1]);
        net.add(rand_tensor(&mut rng, vec![3, 2]), vec![l1, l2]);
        net.add(rand_tensor(&mut rng, vec![2, 2]), vec![l2, l0]);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        let _ = exec.execute_network_into(&net, &mut ws);
        let warm = ws.allocation_events();
        assert!(warm > 0, "first execution must size the buffers");
        for _ in 0..10 {
            let _ = exec.execute_network_into(&net, &mut ws);
        }
        assert_eq!(ws.allocation_events(), warm, "steady state allocates");
    }

    #[test]
    fn for_plan_presizing_makes_first_run_allocation_free() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = TensorNetwork::new();
        let (l0, l1) = (net.fresh_leg(), net.fresh_leg());
        net.add(rand_tensor(&mut rng, vec![2, 3]), vec![l0, l1]);
        net.add(rand_tensor(&mut rng, vec![3, 2]), vec![l1, l0]);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::for_plan(&exec);
        let presize = ws.allocation_events();
        let _ = exec.execute_network_into(&net, &mut ws);
        assert_eq!(ws.allocation_events(), presize);
    }

    #[test]
    fn empty_plan_executes_to_scalar_one() {
        let net = TensorNetwork::new();
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        assert_eq!(exec.execute_network_scalar(&net, &mut ws), Complex64::ONE);
    }

    #[test]
    fn single_node_output_permutation() {
        let mut net = TensorNetwork::new();
        let l_hi = net.fresh_leg();
        let l_lo = net.fresh_leg();
        let t = Tensor::from_vec(vec![cr(1.0), cr(2.0), cr(3.0), cr(4.0)], vec![2, 2]);
        net.add(t.clone(), vec![l_lo, l_hi]);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        let out = exec.execute_network_into(&net, &mut ws);
        assert_eq!(out, t.permute(&[1, 0]).as_slice());
    }

    #[test]
    #[should_panic(expected = "plan expects 2 input tensors")]
    fn arity_mismatch_panics() {
        let mut net = TensorNetwork::new();
        let l = net.fresh_leg();
        net.add(Tensor::zeros(vec![2]), vec![l]);
        net.add(Tensor::zeros(vec![2]), vec![l]);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        let _ = exec.execute_into(&[&Tensor::zeros(vec![2])], &mut ws);
    }
}
