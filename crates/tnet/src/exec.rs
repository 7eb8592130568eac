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
//! # Storage
//!
//! A lowered plan is a fixed set of flat buffers, whatever its size:
//! one `Step` record per hot step and two `Adjoint` records per hot
//! step (its reverse steps), the gathers they read through, one table
//! buffer holding every gather table (a gather holds ranges into it),
//! and the varying leaves' paths as one offset/step pair. Lowering
//! reads the slot shapes from the plan's shape pool, builds every
//! step's tables in one scratch buffer, runs the cold steps with their
//! temporaries in one first-fit pool, and keeps only the hot tables.
//!
//! A record is everything a step needs, decided once: where its
//! operands lie (an input slot, or an offset into the cold cache or the
//! arena), where its node goes, its shape, and its gathers. Lowering
//! checks the length of every buffer but the inputs once; an execution
//! checks each input where a step reads it. A replay splits the
//! arena around a step's node (the regions a step reads lie wholly
//! below or above it) and walks the records; a sweep walks the reverse
//! records, whose kernel class (dot products, running sums, a product,
//! or a small product taken entry by entry) and environment source are
//! fixed too. A reverse step that takes its entries one at a time
//! stores each straight into its operand's own layout, through the
//! gather its environment would otherwise be scattered by.
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
//! A gather's copies take a walk chosen when the gather is made. A copy
//! with a column run of eight or more moves each run as one slice. A
//! large one without runs is a blocked permutation
//! ([`qns_linalg::kernels::gather_blocked`]): its columns are the
//! innermost axes of the gathered layout, so each row is written in one
//! piece, and its rows walk the other axes in source order, so a few
//! consecutive rows share their source cache lines. A small copy walks
//! element by element; a one-column gather walks as one row. Replays
//! (an input leaf's rhs copy, the permuted copy of a node stored in its
//! reader's layout), the cold run and a sweep's scatters all share
//! these copies.
//!
//! Execution then threads a [`Workspace`] — one per worker thread,
//! sized once from the plan — through the whole pattern sum: after the
//! first execution has grown the workspace buffers, replaying the plan
//! performs **zero heap allocations per pattern**. The
//! [`Workspace::allocation_events`] counter makes that invariant
//! observable; the `zero_alloc.rs` tests assert it with a counting
//! allocator on warmed full, delta and sweep replays.
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
//! Results are bit-identical to the allocating reference replay
//! ([`crate::plan::ContractionPlan::execute_network_reference`], which
//! chains [`qns_tensor::Tensor::contract`] per step), the oracle of the
//! `exec_properties.rs` tests: the micro kernels in
//! [`qns_linalg::kernels`] keep the reference accumulation order, and
//! elided/fused permutations move the same values.
//!
//! # Environment sweeps
//!
//! A rank-0 result is linear in every leaf, so replacing one leaf's
//! payload by `U` gives `Σ_x E[x]·U[x]`, where `E` is the leaf's
//! *environment*: the contraction of everything else.
//! [`ExecutablePlan::sweep_network_envs`] computes the environments of
//! any set of varying leaves in one reverse pass over the hot steps
//! (reverse-mode differentiation of the contraction tree: Liao, Liu,
//! Wang and Xiang, "Differentiable Programming Tensor Networks", PRX 9,
//! 031041, 2019). For a hot step `dst = lhs·rhs`, `env(lhs) =
//! env(dst)·rhsᵀ` and `env(rhs) = lhsᵀ·env(dst)`, each a kernel of the
//! same `m·k·n` as the forward step, reading the forward gathers;
//! narrow ones are taken as dot products ([`qns_linalg::kernels::dot`]
//! where both factors are row-major).
//! Every environment is written in
//! its operand's own layout, scattered back through the gather the
//! forward step reads the operand with, so a hot node's environment
//! lies in its product's natural `m × n` layout, where its own reverse
//! steps read it: a node stored in its reader's layout has its
//! environment permuted once per sweep, by its parent's reverse step,
//! however many of its children the sweep wants. The forward operands
//! come from the warm workspace: a hot node's sibling is either cold,
//! in the cold cache, or a persistent hot node, because only hot nodes
//! with a cold sibling are transient. So a sweep reads no transient
//! node, and its environments live on a depth-first stack in the
//! arena's transient region, dead between executions: a parent's
//! environment stays on it only while its rhs waits, and its last child
//! takes its place. Every position on the stack is fixed at lowering,
//! so a sweep is one scan of the reverse-step records that jumps over
//! the subtrees it does not want. The stack, the reverse steps' scratch
//! and the marks of the wanted operands are sized at lowering; a
//! workspace made by [`Workspace::for_sweeps`], or one that has swept
//! once, allocates nothing more.

use crate::network::{ContractionStats, TensorNetwork};
use crate::plan::ContractionPlan;
use qns_linalg::kernels::{
    dot, gather_blocked, matmul_gather_lhs_into, matmul_into, matmul_transposed_lhs_into,
    scatter_blocked,
};
use qns_linalg::Complex64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic id source distinguishing lowered plans, so a [`Workspace`]
/// can tell whose intermediates its arena currently caches. Clones of
/// an [`ExecutablePlan`] share the id — their layouts are identical, so
/// their cached intermediates are interchangeable.
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

/// Where a slot's buffer lives during lowering.
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

impl SlotLoc {
    /// Where a lowered step reads this slot.
    fn src(self) -> Src {
        match self {
            SlotLoc::Input(i) => Src::Input(pos32(i)),
            SlotLoc::Arena { offset, .. } => Src::Arena(pos32(offset)),
            SlotLoc::Cold { offset, .. } => Src::Cold(pos32(offset)),
        }
    }
}

/// Where a lowered step reads an operand: an input slot, or an offset
/// into the cold cache or the workspace arena. The operand's length
/// follows from the step's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Src {
    Input(u32),
    Cold(u32),
    Arena(u32),
}

/// A position, length or index as a lowered plan stores it.
///
/// # Panics
///
/// Panics past `u32::MAX`: a buffer or table that long would not fit in
/// memory.
fn pos32(at: usize) -> u32 {
    assert!(at <= u32::MAX as usize, "plan buffers beyond 2^32 entries");
    at as u32
}

/// Precomputed gather tables, `element(r, c) = src[row[r] + col[c]]`,
/// held as two ranges of a table buffer shared by a whole plan: `row`
/// is `tables[row..row + rows]`, `col` is `tables[col..col + cols]`.
/// The walk its copies take is chosen once, when it is made, and a
/// blocked walk's tables follow in the same buffer. The positions are
/// `u32`s ([`pos32`]), which keeps every lowered step small: lowering
/// slows sharply as its per-step structures grow, by 40 % on one
/// registry plan for kernels a third larger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Gather {
    row: u32,
    rows: u32,
    col: u32,
    cols: u32,
    walk: Walk,
}

impl Gather {
    /// A placeholder, never read.
    const NONE: Gather = Gather {
        row: 0,
        rows: 0,
        col: 0,
        cols: 0,
        walk: Walk::Elements,
    };

    /// Appends the gather that reads a row-major tensor of `shape`
    /// with the `row_axes` as rows and the `col_axes` as columns: the
    /// two halves of a factorized permutation.
    fn push(
        tables: &mut Vec<usize>,
        shape: &[usize],
        row_axes: impl Iterator<Item = usize>,
        col_axes: impl Iterator<Item = usize>,
        scratch: &mut Vec<Axis>,
    ) -> Gather {
        let row = tables.len();
        let rows = push_offsets(tables, shape, row_axes);
        let col = tables.len();
        let cols = push_offsets(tables, shape, col_axes);
        Gather::new(tables, row, rows, col, cols, scratch)
    }

    /// The gather whose row table is `tables[row..row + rows]` and
    /// column table `tables[col..col + cols]`, each the offsets of a
    /// row-major walk over some axes of the tensor it reads, with the
    /// walk its copies take: runs of at least [`MIN_RUN`] elements, a
    /// blocked permutation (appended to `tables`) for a larger gather
    /// without them, else element by element. A one-column gather is
    /// walked as one row. `scratch` is scratch.
    fn new(
        tables: &mut Vec<usize>,
        row: usize,
        rows: usize,
        col: usize,
        cols: usize,
        scratch: &mut Vec<Axis>,
    ) -> Gather {
        let mut g = Gather {
            row: pos32(row),
            rows: pos32(rows),
            col: pos32(col),
            cols: pos32(cols),
            walk: Walk::Elements,
        };
        let walked = g.one_row();
        let run = match walked.col(tables) {
            col if col.len() < MIN_RUN => 1,
            col => contiguous_run(col),
        };
        g.walk = if run >= MIN_RUN {
            Walk::Runs(pos32(run))
        } else if rows * cols >= BLOCKED {
            Walk::Blocked(push_blocked(tables, walked, scratch))
        } else {
            Walk::Elements
        };
        g
    }

    fn rows(&self) -> usize {
        self.rows as usize
    }

    fn cols(&self) -> usize {
        self.cols as usize
    }

    fn row<'t>(&self, tables: &'t [usize]) -> &'t [usize] {
        &tables[self.row as usize..][..self.rows()]
    }

    fn col<'t>(&self, tables: &'t [usize]) -> &'t [usize] {
        &tables[self.col as usize..][..self.cols()]
    }

    /// The gathered matrix as a kernel's left factor.
    fn lhs<'a>(&self, tables: &'a [usize], data: &'a [Complex64]) -> Lhs<'a> {
        Lhs::Gathered {
            data,
            row: self.row(tables),
            col: self.col(tables),
        }
    }

    /// The blocked walk's tables at `at`: the source offsets of its
    /// columns, and the source and gathered offsets of its rows.
    fn blocked<'t>(&self, tables: &'t [usize], at: u32) -> [&'t [usize]; 3] {
        let (cols, rest) = tables[at as usize..].split_at(1);
        let (col, rest) = rest.split_at(cols[0]);
        let rows = self.rows() * self.cols() / cols[0];
        let (src_row, rest) = rest.split_at(rows);
        [col, src_row, &rest[..rows]]
    }

    /// Table entries the gather holds, its blocked walk's included.
    fn len(&self, tables: &[usize]) -> usize {
        let blocked = match self.walk {
            Walk::Blocked(at) => {
                1 + self
                    .blocked(tables, at)
                    .iter()
                    .map(|t| t.len())
                    .sum::<usize>()
            }
            _ => 0,
        };
        self.rows() + self.cols() + blocked
    }

    /// The same gather, its tables copied from `from` to the end of `to`.
    fn moved(&self, from: &[usize], to: &mut Vec<usize>) -> Gather {
        let row = pos32(to.len());
        to.extend_from_slice(self.row(from));
        let col = pos32(to.len());
        to.extend_from_slice(self.col(from));
        let walk = match self.walk {
            Walk::Blocked(at) => {
                let moved = pos32(to.len());
                to.push(from[at as usize]);
                for table in self.blocked(from, at) {
                    to.extend_from_slice(table);
                }
                Walk::Blocked(moved)
            }
            walk => walk,
        };
        Gather {
            row,
            col,
            walk,
            ..*self
        }
    }

    /// `dst[r·cols + c] = src[row[r] + col[c]]`: the permuted copy.
    fn copy(&self, tables: &[usize], src: &[Complex64], dst: &mut [Complex64]) {
        let g = self.one_row();
        let (row, col) = (g.row(tables), g.col(tables));
        match self.walk {
            Walk::Elements => {
                let cols = col.len();
                for (r, &ro) in row.iter().enumerate() {
                    let drow = &mut dst[r * cols..(r + 1) * cols];
                    for (d, &co) in drow.iter_mut().zip(col) {
                        *d = src[ro + co];
                    }
                }
            }
            Walk::Runs(run) => runs(row, col, run as usize, |d, s, len| {
                dst[d..d + len].copy_from_slice(&src[s..s + len])
            }),
            Walk::Blocked(at) => {
                let [col, src_row, dst_row] = self.blocked(tables, at);
                gather_blocked(src, src_row, col, dst, dst_row);
            }
        }
    }

    /// `dst[row[r] + col[c]] = src[r·cols + c]`: the inverse of
    /// [`Gather::copy`], which moves an environment from the gathered
    /// layout back to the layout the gather reads.
    fn scatter(&self, tables: &[usize], src: &[Complex64], dst: &mut [Complex64]) {
        let g = self.one_row();
        let (row, col) = (g.row(tables), g.col(tables));
        match self.walk {
            Walk::Elements => {
                let cols = col.len();
                for (r, &ro) in row.iter().enumerate() {
                    let srow = &src[r * cols..(r + 1) * cols];
                    for (&x, &co) in srow.iter().zip(col) {
                        dst[ro + co] = x;
                    }
                }
            }
            Walk::Runs(run) => runs(row, col, run as usize, |d, s, len| {
                dst[s..s + len].copy_from_slice(&src[d..d + len])
            }),
            Walk::Blocked(at) => {
                let [col, src_row, dst_row] = self.blocked(tables, at);
                scatter_blocked(src, dst_row, dst, src_row, col);
            }
        }
    }

    /// The gather that undoes this one, appended to `tables`: this
    /// gather reads a row-major `m × n` matrix `p` into the layout
    /// `d` (`d[r·cols + c] = p[row[r] + col[c]]`), and the inverse
    /// reads `p` back out of `d`. Both index an axis permutation, so
    /// the inverse factorizes too: its offsets are those of `p`'s first
    /// column and first row in `d`. It is only read by kernels, never
    /// copied. `inverse` is scratch.
    fn inverse(
        &self,
        m: usize,
        n: usize,
        tables: &mut Vec<usize>,
        inverse: &mut Vec<usize>,
    ) -> Gather {
        inverse.clear();
        inverse.resize(m * n, 0);
        let (row, col) = (self.row(tables), self.col(tables));
        for (r, &ro) in row.iter().enumerate() {
            for (c, &co) in col.iter().enumerate() {
                inverse[ro + co] = r * col.len() + c;
            }
        }
        let start = tables.len();
        tables.extend((0..m).map(|i| inverse[i * n]));
        tables.extend_from_slice(&inverse[..n]);
        Gather {
            row: pos32(start),
            rows: pos32(m),
            col: pos32(start + m),
            cols: pos32(n),
            walk: Walk::Elements,
        }
    }

    /// The gather of the transposed matrix, for copies: the same tables
    /// with rows and columns swapped, and the walk of that orientation
    /// (a blocked one appended to `tables`).
    fn transposed_copy(&self, tables: &mut Vec<usize>, scratch: &mut Vec<Axis>) -> Gather {
        let (row, col) = (self.row as usize, self.col as usize);
        Gather::new(tables, col, self.cols(), row, self.rows(), scratch)
    }

    /// A one-column gather as the one-row gather of the same elements
    /// in the same order, so its copies walk one long row.
    fn one_row(&self) -> Gather {
        if self.cols == 1 {
            self.transposed()
        } else {
            *self
        }
    }

    /// The same tables with rows and columns swapped: the gather of
    /// the transposed matrix, for kernels to read. It keeps this
    /// gather's walk, so only [`Gather::one_row`] copies through it;
    /// [`Gather::transposed_copy`] is the one to copy through.
    fn transposed(&self) -> Gather {
        Gather {
            row: self.col,
            rows: self.cols,
            col: self.row,
            cols: self.rows,
            walk: self.walk,
        }
    }
}

/// The length of `table`'s first contiguous stretch (entries that count
/// up by one), if every piece of that length (the last may be shorter)
/// is contiguous too, else 1: the elements a gather reading through
/// `table` moves per entry. For an offset table over row-major axes it
/// is the product of the trailing axes laid out contiguously. Found
/// once, at lowering.
fn contiguous_run(table: &[usize]) -> usize {
    let contiguous = |piece: &[usize]| piece.windows(2).all(|w| w[1] == w[0] + 1);
    let run = 1 + table.windows(2).take_while(|w| w[1] == w[0] + 1).count();
    if run == 1 || table.chunks(run).skip(1).all(contiguous) {
        run
    } else {
        1
    }
}

/// The order in which a gather's copies move its elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Walk {
    /// A column run of this many elements, at least [`MIN_RUN`]: row by
    /// row, one contiguous piece per run.
    Runs(u32),
    /// No such run on a gather of at least [`BLOCKED`] elements: the
    /// blocked permutation ([`push_blocked`]) whose tables start at this
    /// position.
    Blocked(u32),
    /// Anything smaller: element by element, row by row.
    Elements,
}

/// Calls `mv(d, s, len)` for the pieces of a [`Walk::Runs`] walk of the
/// gather with tables `row` and `col` and column run `run`: gathered
/// elements `d..d + len` (row-major) are the read elements `s..s +
/// len`. A run that does not divide the row leaves a shorter last
/// piece.
fn runs(row: &[usize], col: &[usize], run: usize, mut mv: impl FnMut(usize, usize, usize)) {
    let n = col.len();
    for (r, &ro) in row.iter().enumerate() {
        for (d, piece) in (r * n..).step_by(run).zip(col.chunks(run)) {
            mv(d, ro + piece[0], piece.len());
        }
    }
}

/// The shortest column run a gather copies as contiguous pieces row by
/// row (a `memcpy` each): below it, a piece's bookkeeping and call cost
/// more than its moves.
const MIN_RUN: usize = 8;

/// The fewest elements a gather without runs copies by the blocked
/// permutation: 32 KiB a side, so its source and destination no longer
/// share a core's L1 cache. Smaller ones stay in cache whatever the
/// order.
const BLOCKED: usize = 2048;

/// The fewest elements a row of a blocked permutation moves: 16
/// complex elements are four cache lines.
const BLOCK: usize = 16;

/// One axis of a permutation: its dimension, its stride in the tensor a
/// gather reads, and its stride in the gathered layout.
#[derive(Clone, Copy, Debug)]
struct Axis {
    dim: usize,
    src: usize,
    dst: usize,
}

/// Appends the tables of the blocked permutation of the copy
/// `dst[r·cols + c] = src[row[r] + col[c]]` through gather `g`, and
/// returns their position: the column count `f`, then the source
/// offsets of the columns, then the source and the gathered offsets of
/// the rows ([`gather_blocked`]). The columns are the innermost axes of
/// the gathered layout, at least [`BLOCK`] elements of them (or all):
/// the destination-contiguous group. The rows walk every other axis in
/// source order, the source-contiguous ones fastest. Each table of `g`
/// is an offset table over whole axes, as [`push_offsets`] makes them,
/// so its axes are read back from it ([`push_table_axes`]). `axes` is
/// scratch.
fn push_blocked(tables: &mut Vec<usize>, g: Gather, axes: &mut Vec<Axis>) -> u32 {
    axes.clear();
    push_table_axes(g.col(tables), 1, axes);
    push_table_axes(g.row(tables), g.cols(), axes);
    let (mut f, mut inner) = (1, 0);
    while f < BLOCK && inner < axes.len() {
        f *= axes[inner].dim;
        inner += 1;
    }
    let (cols, rows) = axes.split_at_mut(inner);
    rows.sort_unstable_by_key(|a| std::cmp::Reverse(a.src));
    let at = pos32(tables.len());
    tables.push(f);
    push_odometer(tables, cols.iter().rev().map(|a| (a.dim, a.src)));
    push_odometer(tables, rows.iter().map(|a| (a.dim, a.src)));
    push_odometer(tables, rows.iter().map(|a| (a.dim, a.dst)));
    at
}

/// Appends to `axes`, innermost first, the axes of an offset `table`
/// over whole axes: each axis's dimension and source stride, read off
/// the table's first stretch of equal steps (axes laid out
/// contiguously come out merged), and its gathered stride, counting up
/// from `dst`.
fn push_table_axes(table: &[usize], mut dst: usize, axes: &mut Vec<Axis>) {
    let (mut len, mut step) = (table.len(), 1);
    while len > 1 {
        let src = table[step] - table[0];
        let dim = 2
            + (2..len)
                .take_while(|&i| table[i * step] == table[0] + i * src)
                .count();
        axes.push(Axis { dim, src, dst });
        step *= dim;
        len /= dim;
        dst *= dim;
    }
}

/// Appends the offsets of a row-major walk over axes of the given
/// `(dimension, stride)`s, outermost first, and returns how many it
/// appended: each axis in turn becomes the fastest, every offset so far
/// expanded in place into its digits (back to front, so no entry is
/// overwritten before it is read).
fn push_odometer(out: &mut Vec<usize>, axes: impl Iterator<Item = (usize, usize)>) -> usize {
    let start = out.len();
    out.push(0);
    for (dim, stride) in axes {
        if dim == 0 {
            out.truncate(start);
            break;
        }
        let len = out.len() - start;
        out.resize(start + len * dim, 0);
        for i in (0..len).rev() {
            let base = out[start + i];
            for (d, o) in out[start + i * dim..][..dim].iter_mut().enumerate().rev() {
                *o = base + d * stride;
            }
        }
    }
    out.len() - start
}

/// Appends to `out` the flat offsets of every row-major index
/// combination over `axes` of a row-major tensor of `shape` — one half
/// of a factorized permutation — and returns how many it appended.
fn push_offsets(out: &mut Vec<usize>, shape: &[usize], axes: impl Iterator<Item = usize>) -> usize {
    push_odometer(
        out,
        axes.map(|a| (shape[a], shape[a + 1..].iter().product())),
    )
}

/// Output columns up to which an lhs reverse step takes dot products
/// ([`Kernel::env_by_dots`]).
const DOT_COLUMNS: usize = 4;

/// `out[at(r, c)] = Σ_t x(r, t)·y(c, t)`, `t` ascending: a product
/// with a transposed right factor, one running sum per output entry,
/// each stored where `at` says ([`Out`]).
#[inline(always)]
fn dot_products(
    rows: usize,
    cols: usize,
    inner: usize,
    x: impl Fn(usize, usize) -> Complex64,
    y: impl Fn(usize, usize) -> Complex64,
    at: impl Fn(usize, usize) -> usize,
    out: &mut [Complex64],
) {
    for r in 0..rows {
        for c in 0..cols {
            out[at(r, c)] = (0..inner).fold(Complex64::ZERO, |acc, t| acc + x(r, t) * y(c, t));
        }
    }
}

/// `out[at(r, c)] = Σ_t x(r, t)·y(t, c)`, `t` ascending, zero `x(r, t)`
/// skipped, from zero: a product one output entry at a time, in the
/// product kernels' order and with their zero-skip, so bit for bit
/// their result.
#[inline(always)]
fn product_entries(
    rows: usize,
    cols: usize,
    inner: usize,
    x: impl Fn(usize, usize) -> Complex64,
    y: impl Fn(usize, usize) -> Complex64,
    at: impl Fn(usize, usize) -> usize,
    out: &mut [Complex64],
) {
    for r in 0..rows {
        for c in 0..cols {
            let mut acc = Complex64::ZERO;
            for t in 0..inner {
                let a = x(r, t);
                if a != Complex64::ZERO {
                    acc += a * y(t, c);
                }
            }
            out[at(r, c)] = acc;
        }
    }
}

/// The largest `m·k·n` of a small step: an rhs reverse product this
/// small, whose environment is scattered, is taken entry by entry
/// ([`Reverse::RhsEntries`]).
const SMALL_STEP: usize = 64;

/// Where a reverse step that takes its entries one at a time (dot
/// products or running sums) stores entry `(r, c)`: row-major in the
/// layout the step reads the operand in, or straight through the
/// operand's scatter gather into its own layout, so no staged copy is
/// scattered afterwards.
#[derive(Clone, Copy)]
enum Out<'t> {
    RowMajor,
    Scattered { row: &'t [usize], col: &'t [usize] },
}

/// `dst = srcᵀ` for a row-major `rows × cols` matrix `src`.
fn transpose_into(src: &[Complex64], rows: usize, cols: usize, dst: &mut [Complex64]) {
    for (c, drow) in dst.chunks_exact_mut(rows).take(cols).enumerate() {
        for (r, d) in drow.iter_mut().enumerate() {
            *d = src[r * cols + c];
        }
    }
}

/// How a product reads its left factor `A` (`m × k`).
#[derive(Clone, Copy, Debug)]
enum Lhs<'a> {
    /// A row-major `m × k` matrix: `A[i][kk] = data[i·k + kk]`.
    RowMajor(&'a [Complex64]),
    /// A row-major `k × m` matrix read transposed: `A[i][kk] =
    /// data[kk·m + i]`.
    Transposed(&'a [Complex64]),
    /// Through gather tables: `A[i][kk] = data[row[i] + col[kk]]`.
    Gathered {
        data: &'a [Complex64],
        row: &'a [usize],
        col: &'a [usize],
    },
}

impl Lhs<'_> {
    /// `out = A · b` for row-major `b` (`k × n`) and `out` (`m × n`),
    /// on the kernel of this read.
    fn times(self, b: &[Complex64], out: &mut [Complex64], m: usize, k: usize, n: usize) {
        match self {
            Lhs::RowMajor(a) => matmul_into(a, b, out, m, k, n),
            Lhs::Transposed(a) => matmul_transposed_lhs_into(a, b, out, m, k, n),
            Lhs::Gathered { data, row, col } => matmul_gather_lhs_into(data, row, col, b, out, n),
        }
    }
}

/// The arithmetic of one pair contraction as lowering first lays it
/// out, independent of where its operands live: its shape and the
/// gathers (ranges of the lowering's table buffer) it reads and writes
/// its operands through. The lowered [`Step`]s are made from it.
#[derive(Clone, Copy, Debug)]
struct Kernel {
    m: usize,
    k: usize,
    n: usize,
    /// `Some` when the lhs needs permuting: the gather is fused into
    /// the matmul (no materialized copy). `None` = contracted axes
    /// already trailing, buffer used as-is.
    lhs_gather: Option<Gather>,
    /// `Some` when the rhs needs permuting: materialized into the
    /// workspace scratch by [`Gather::copy`] (no div/mod).
    /// `None` = contracted axes already leading, or the rhs is a node
    /// stored in this step's layout.
    rhs_gather: Option<Gather>,
    /// `Some` when this step's node is stored in its reader's layout:
    /// the product is staged in the scratch and copied through the
    /// reader's operand gather into the destination.
    out_gather: Option<Gather>,
}

impl Kernel {
    fn rhs_scratch_len(&self) -> usize {
        self.rhs_gather.as_ref().map_or(0, |_| self.k * self.n)
    }

    /// Scratch elements [`forward`] uses: the permuted rhs, then the
    /// staged product.
    fn scratch_len(&self) -> usize {
        self.rhs_scratch_len() + self.out_gather.as_ref().map_or(0, |_| self.m * self.n)
    }

    /// Whether the step is a dot product of two operands read as they
    /// lie: a `1 × k` lhs and a `k × 1` rhs, neither gathered.
    fn is_dot(&self) -> bool {
        self.m == 1 && self.n == 1 && self.lhs_gather.is_none() && self.rhs_gather.is_none()
    }

    /// Elements of the environment of operand `side` (its buffer's
    /// length): `m·k` for the lhs, `k·n` for the rhs.
    fn env_len(&self, side: usize) -> usize {
        match side {
            LHS => self.m * self.k,
            _ => self.k * self.n,
        }
    }

    /// Whether the reverse step of operand `side` takes its output
    /// entries as dot products ([`dot_products`]) rather than as a
    /// matmul: for an lhs of one row or at most [`DOT_COLUMNS`]
    /// columns, whose matmul would need the rhs transposed and run a
    /// few elements per row update, and for a one-column rhs, whose
    /// matmul's row update would run one element per call.
    fn env_by_dots(&self, side: usize) -> bool {
        match side {
            LHS => self.m == 1 || self.k <= DOT_COLUMNS,
            _ => self.n == 1,
        }
    }

    /// Whether the inverse of the step's `out_gather` is worth keeping
    /// ([`EnvIn::Inverse`]): its `m + n` table entries, which the plan
    /// holds once, cost at most an eighth of the `m·n` staged elements
    /// they spare every worker's scratch, and the lhs reverse step
    /// reads a matrix of several rows. Such a step's lhs reverse step
    /// adds each dot product in one running sum ([`dot_products`], the
    /// order of a gathered read) wherever its environment lies, so no
    /// level sum depends on where it is read from.
    fn inverts_out_gather(&self) -> bool {
        self.out_gather.is_some() && self.m > 1 && 8 * (self.m + self.n) <= self.m * self.n
    }

    /// The reverse step of operand `side`, by the rules above.
    fn reverse(&self, side: usize) -> Reverse {
        match (side, self.env_by_dots(side)) {
            (LHS, true) if self.rhs_gather.is_none() && !self.inverts_out_gather() => {
                Reverse::LhsDots
            }
            (LHS, true) => Reverse::LhsSums,
            (LHS, false) => Reverse::LhsProduct,
            (_, true) => Reverse::RhsSums,
            (_, false) => Reverse::RhsProduct,
        }
    }

    /// Scratch elements a reverse step uses for the environment of
    /// operand `side`: the transposed rhs of an lhs matmul, and the
    /// operand's environment when it is `staged` there (to be scattered,
    /// [`Adjoint::scatter`], or to replace its parent's on the env
    /// stack).
    fn env_scratch_len(&self, side: usize, staged: bool) -> usize {
        let staged = if staged { self.env_len(side) } else { 0 };
        match side {
            LHS if !self.env_by_dots(LHS) => self.n * self.k + staged,
            _ => staged,
        }
    }

    fn flops(&self) -> u128 {
        flops(self.m, self.k, self.n)
    }
}

/// The `m·k·n` of a step, `k` at least 1.
fn flops(m: usize, k: usize, n: usize) -> u128 {
    (m as u128)
        .saturating_mul(k.max(1) as u128)
        .saturating_mul(n as u128)
}

/// Operand sides of a step, as indices into its environment targets
/// and its [`Adjoint`]s.
const LHS: usize = 0;
const RHS: usize = 1;

/// Where the environment of one operand of a hot step goes in an
/// environment sweep ([`ExecutablePlan::sweep_network_envs`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EnvTarget {
    /// A cold operand: nothing varies below it, so no environment.
    Cold,
    /// A varying input leaf.
    Leaf(u32),
    /// A hot node: the hot step with this index.
    Step(u32),
}

impl EnvTarget {
    /// Whether the operand is hot: a varying leaf or a hot node.
    fn is_hot(self) -> bool {
        !matches!(self, EnvTarget::Cold)
    }
}

/// One hot pair contraction as lowering lays it out, before its
/// [`Step`] and [`Adjoint`]s are made.
#[derive(Clone, Debug)]
struct HotStep {
    lhs: SlotLoc,
    rhs: SlotLoc,
    /// Arena offset of the `m × n` result.
    dst_offset: usize,
    kernel: Kernel,
    /// The transposed copy of a gathered rhs, read by the lhs reverse
    /// step when it is a product.
    rhs_t: Option<Gather>,
    /// Indices, in the plan's gathers, of the inverse of the out copy,
    /// the transposed copy of the rhs and the transposed tables of the
    /// lhs, as the reverse steps read them.
    ids: [Option<u32>; 3],
    /// Where the environments of the lhs and the rhs go.
    env: [EnvTarget; 2],
}

/// The gather that takes the environment of operand `side` of `step`
/// from the layout the step reads the operand in back to the operand's
/// own: the step's lhs or rhs gather, or, for a hot rhs node stored in
/// the step's layout, that node's `out_gather`. So a hot node's
/// environment always lies in its product's natural layout, where its
/// own reverse steps read it, and is permuted once per sweep.
fn env_scatter(steps: &[HotStep], step: &HotStep, side: usize) -> Option<Gather> {
    match (side, step.env[side]) {
        (LHS, _) => step.kernel.lhs_gather,
        // A hot rhs node read through a permutation carries it.
        (_, EnvTarget::Step(c)) => steps[c as usize].kernel.out_gather,
        _ => step.kernel.rhs_gather,
    }
}

/// Appends to `out`, depth first from hot step `si`, the reverse steps
/// of its hot operands (as `make` makes them), each followed by its
/// operand's subtree, and sets each one's `skip` past that subtree.
fn push_walk(
    si: usize,
    steps: &[HotStep],
    make: &dyn Fn(usize, usize) -> Adjoint,
    out: &mut Vec<Adjoint>,
) {
    for (side, target) in steps[si].env.into_iter().enumerate() {
        if !target.is_hot() {
            continue;
        }
        let at = out.len();
        out.push(make(si, side));
        if let EnvTarget::Step(c) = target {
            push_walk(c as usize, steps, make, out);
        }
        out[at].skip = pos32(out.len());
    }
}

/// One hot pair contraction as replays run it, fixed at lowering: where
/// its operands and its node lie, its shape (checked against every
/// buffer but the inputs once, there), and the gathers it reads and
/// writes through (indices into the plan's gathers). A replay only
/// walks these records; the kernel picks its loop nest by the shape.
#[derive(Clone, Copy, Debug)]
struct Step {
    lhs: Src,
    rhs: Src,
    /// Arena offset of the node's `m × n` region.
    dst: u32,
    m: u32,
    k: u32,
    n: u32,
    /// The lhs is read through this gather, fused into the product.
    lhs_gather: Option<u32>,
    /// The rhs is copied through this gather into the scratch first.
    rhs_copy: Option<u32>,
    /// The node is stored in its reader's layout: the product is staged
    /// in the scratch and copied through this gather into the node.
    out_copy: Option<u32>,
}

impl Step {
    fn dims(&self) -> (usize, usize, usize) {
        (self.m as usize, self.k as usize, self.n as usize)
    }

    /// The step's `m·k·n`, `k` at least 1: three `u32`s, so no
    /// product overflows.
    fn flops(&self) -> u128 {
        u128::from(self.m) * u128::from(self.k.max(1)) * u128::from(self.n)
    }
}

/// `dst = a · b` for step `s`, with its operand permutations applied
/// and `dst` in the reader's layout when the step has an out copy.
/// `scratch` (at least [`Kernel::scratch_len`] long) holds the copied
/// rhs, then the staged product. Cold steps at lowering and hot steps
/// in every replay run through here.
fn forward(
    tables: &[usize],
    gathers: &[Gather],
    s: &Step,
    a: &[Complex64],
    b: &[Complex64],
    dst: &mut [Complex64],
    scratch: &mut [Complex64],
) {
    let (m, k, n) = s.dims();
    let (b_copy, stage) = scratch.split_at_mut(if s.rhs_copy.is_some() { k * n } else { 0 });
    let b = match s.rhs_copy {
        None => b,
        Some(g) => {
            gathers[g as usize].copy(tables, b, b_copy);
            &*b_copy
        }
    };
    let lhs = match s.lhs_gather {
        None => Lhs::RowMajor(a),
        Some(g) => gathers[g as usize].lhs(tables, a),
    };
    match s.out_copy {
        None => lhs.times(b, dst, m, k, n),
        Some(g) => {
            let staged = &mut stage[..m * n];
            lhs.times(b, staged, m, k, n);
            gathers[g as usize].copy(tables, staged, dst);
        }
    }
}

/// A buffer split around one step's destination region: what lies
/// below it and what lies above it. The regions a step reads lie
/// wholly below or wholly above its own (the allocators lay nodes out
/// so), so no step sorts its regions.
struct Around<'a> {
    below: &'a [Complex64],
    /// Where `above` starts in the buffer.
    end: usize,
    above: &'a [Complex64],
}

impl<'a> Around<'a> {
    /// Splits `buf` around `buf[at..at + len]`, which it returns.
    fn split(buf: &'a mut [Complex64], at: usize, len: usize) -> (Around<'a>, &'a mut [Complex64]) {
        let (below, rest) = buf.split_at_mut(at);
        let (dst, above) = rest.split_at_mut(len);
        let end = at + len;
        (Around { below, end, above }, dst)
    }

    /// The whole of `buf`, for reads only.
    fn whole(buf: &'a [Complex64]) -> Around<'a> {
        Around {
            below: buf,
            end: buf.len(),
            above: &[],
        }
    }

    fn read(&self, at: usize, len: usize) -> &'a [Complex64] {
        if at < self.below.len() {
            &self.below[at..][..len]
        } else {
            &self.above[at - self.end..][..len]
        }
    }
}

/// The `len` elements an operand at `src` holds: an input (its length
/// checked here, the one buffer lowering cannot check), a cold-cache
/// region, or an arena region.
fn read<'a, 'i: 'a>(
    src: Src,
    len: usize,
    input: &impl Fn(usize) -> &'i [Complex64],
    cold: &'a [Complex64],
    arena: &Around<'a>,
) -> &'a [Complex64] {
    match src {
        Src::Input(i) => {
            let data = input(i as usize);
            assert_eq!(data.len(), len, "input tensor {i} length");
            data
        }
        Src::Cold(at) => &cold[at as usize..][..len],
        Src::Arena(at) => arena.read(at as usize, len),
    }
}

/// How a reverse step multiplies: the order its output entries are
/// summed in is part of every level sum's bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reverse {
    /// `env(lhs) = env(P)·rhsᵀ` with both factors row-major: each entry
    /// a [`dot`] of two contiguous rows.
    LhsDots,
    /// `env(lhs)`, each entry one running sum ([`dot_products`]).
    LhsSums,
    /// `env(lhs)` as a product, the rhs first transposed into the
    /// scratch.
    LhsProduct,
    /// `env(rhs) = lhsᵀ·env(P)` for a one-column rhs, each entry one
    /// running sum.
    RhsSums,
    /// `env(rhs)` as a product with a transposed (or gathered) lhs.
    RhsProduct,
    /// `env(rhs)` as a product taken entry by entry
    /// ([`product_entries`]), bit for bit the product, for a small step
    /// whose environment is scattered: its entries are stored straight
    /// into the operand's own layout.
    RhsEntries,
}

/// Where a reverse step reads the environment of its step's node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EnvIn {
    /// An operand of a dot-product root: its environment is the other
    /// operand's forward value, as it lies, and takes no step.
    Root(Src),
    /// On the env stack, in the product's natural `m × n` layout.
    Stack,
    /// A child of a dot-product root: the sibling's forward value, as
    /// it lies.
    Sibling(Src),
    /// A child of a dot-product root stored in its reader's layout: the
    /// sibling's forward value, read through the inverse of the node's
    /// out copy (this gather).
    Inverse(Src, u32),
    /// As [`EnvIn::Inverse`], but scattered through the node's out copy
    /// (this gather) into the scratch first.
    Scattered(Src, u32),
}

/// One reverse step, fixed at lowering: how the environment of one
/// operand of a hot step is made and where it goes. A plan keeps them in
/// the order of a depth-first walk from the root, each operand's
/// subtree right after its own step, with every position on the env
/// stack fixed: a sweep is one scan of the list that jumps over the
/// subtree of every operand it does not want.
#[derive(Clone, Copy, Debug)]
struct Adjoint {
    target: EnvTarget,
    /// The hot step, and the side of its operand.
    step: u32,
    side: u8,
    /// The environment goes straight onto the env stack, above its
    /// step's node's: the lhs of a step whose rhs is hot, or a leaf.
    /// Otherwise it is the step's last child, computed in the scratch,
    /// and takes its parent's place.
    above: bool,
    /// Where the step's node's environment starts on the env stack (a
    /// child of a dot-product root: where its children's start).
    base: u32,
    /// The index of the first reverse step after this operand's subtree.
    skip: u32,
    reverse: Reverse,
    env_in: EnvIn,
    /// The step's other operand, whose forward value it multiplies by.
    factor: Src,
    /// The gather it reads the factor through: the forward step's, or
    /// for an lhs product the transposed copy of its rhs, or for an rhs
    /// product the transposed tables of its lhs.
    factor_gather: Option<u32>,
    /// The gather that scatters the environment from the layout the
    /// step reads the operand in back to the operand's own
    /// ([`env_scatter`]).
    scatter: Option<u32>,
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
///
/// Its storage is a fixed set of flat buffers, whatever the plan's
/// size: one record per hot step and two per reverse step, the gathers
/// they read through, one table buffer holding every gather table
/// (each gather keeps ranges into it), and the leaf paths as one
/// offset/step pair.
#[derive(Clone, Debug)]
pub struct ExecutablePlan {
    /// Identity for workspace warm-tracking (shared by clones).
    id: u64,
    n_inputs: usize,
    /// Whether each input slot may change between executions.
    varying: Vec<bool>,
    /// The hot steps, in execution order.
    steps: Vec<Step>,
    /// The reverse steps of the hot operands, depth first from the
    /// root ([`Adjoint`]).
    adjoints: Vec<Adjoint>,
    /// Whether the root hot step is a dot product of two operands read
    /// as they lie ([`Kernel::is_dot`]): a sweep takes each operand's
    /// environment as the other's forward value.
    dot_root: bool,
    /// Every gather the records read through.
    gathers: Vec<Gather>,
    /// Every gather table the hot steps and the output stage read.
    tables: Vec<usize>,
    /// Per input slot: the hot-step indices on its leaf-to-root path,
    /// in ascending (execution) order — precomputed so delta replay is
    /// a merge of sorted lists, no tree walk. Leaf `l`'s path is
    /// `path_steps[path_start[l]..path_start[l + 1]]`, empty for a
    /// cold leaf.
    path_start: Vec<usize>,
    path_steps: Vec<u32>,
    /// The cold nodes hot steps read (and a cold root), packed.
    cold: Arc<Vec<Complex64>>,
    /// Location of the final tensor before the output permutation.
    result: SlotLoc,
    result_len: usize,
    /// Shape of the executed result (after the output permutation).
    output_shape: Vec<usize>,
    /// Start of the output table in `tables`:
    /// `out[i] = result[tables[start + i]]`; `None` = already in order.
    out_gather: Option<usize>,
    arena_len: usize,
    scratch_len: usize,
    replay_stats: ContractionStats,
    /// Arena offset of the environment stack: the end of the
    /// persistent hot nodes, where the transient ones (dead between
    /// executions) start.
    env_base: usize,
    /// Elements of the environment stack: its height when a sweep
    /// visits every hot node, the most any sweep needs.
    env_len: usize,
    /// Scratch elements of the largest reverse step.
    env_scratch_len: usize,
}

/// Per-thread scratch memory for [`ExecutablePlan`] execution: the
/// hot-node arena (the contraction tree's cache of the nodes that
/// change, then the environment stack of a sweep), the scratch (a
/// step's permuted input-leaf rhs, then its staged product when its
/// node is stored in its reader's layout; a reverse step's staged
/// operands) and the output buffer. Grown
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
    /// Per input slot, then per hot step: whether an environment sweep
    /// wants it (a wanted leaf, or a step above one).
    env_wanted: Vec<bool>,
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

    /// A workspace pre-sized for executions and environment sweeps of
    /// `plan` ([`ExecutablePlan::sweep_network_envs`]): neither the
    /// first execution nor the first sweep allocates.
    pub fn for_sweeps(plan: &ExecutablePlan) -> Self {
        let mut ws = Workspace::new();
        ws.ensure_sweep(plan);
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
            grow(buf, need, &mut self.allocation_events);
        }
    }

    /// Grows any undersized buffer to what an environment sweep of
    /// `plan` needs on top of its executions: the env stack above the
    /// persistent hot nodes, the reverse steps' scratch and the marks of
    /// the wanted operands. Executions alone never pay for it.
    fn ensure_sweep(&mut self, plan: &ExecutablePlan) {
        for (buf, need) in [
            (&mut self.arena, plan.env_base + plan.env_len),
            (&mut self.scratch, plan.env_scratch_len),
        ] {
            grow(buf, need, &mut self.allocation_events);
        }
        let wanted = plan.n_inputs + plan.steps.len();
        if self.env_wanted.len() < wanted {
            self.env_wanted.resize(wanted, false);
            self.allocation_events += 1;
        }
    }
}

/// Grows `buf` to exactly `need` elements if it is shorter, counting
/// the allocation. Exact, not amortized: a buffer grown for a sweep
/// after its executions must not double.
fn grow(buf: &mut Vec<Complex64>, need: usize, events: &mut u64) {
    if buf.len() < need {
        buf.reserve_exact(need - buf.len());
        buf.resize(need, Complex64::ZERO);
        *events += 1;
    }
}

fn is_identity(perm: impl Iterator<Item = usize>) -> bool {
    perm.enumerate().all(|(i, p)| i == p)
}

/// Lowers every step of `plan` to its [`Kernel`], appending every
/// gather table to `tables`.
fn lower_kernels(plan: &ContractionPlan, tables: &mut Vec<usize>) -> Vec<Kernel> {
    let mut scratch = Vec::new();
    let mut kernels = Vec::with_capacity(plan.steps().len());
    for (i, step) in plan.steps().iter().enumerate() {
        let (axes_lhs, axes_rhs) = plan.step_axes(i);
        let sa = plan.slot_shape(step.lhs);
        let sb = plan.slot_shape(step.rhs);
        let free_a = || (0..sa.len()).filter(move |i| !axes_lhs.contains(i));
        let free_b = || (0..sb.len()).filter(move |i| !axes_rhs.contains(i));
        // Permutations bringing contracted axes trailing (lhs) /
        // leading (rhs), elided when already in place.
        let lhs_gather = (!is_identity(free_a().chain(axes_lhs.iter().copied())))
            .then(|| Gather::push(tables, sa, free_a(), axes_lhs.iter().copied(), &mut scratch));
        let rhs_gather = (!is_identity(axes_rhs.iter().copied().chain(free_b())))
            .then(|| Gather::push(tables, sb, axes_rhs.iter().copied(), free_b(), &mut scratch));
        kernels.push(Kernel {
            m: free_a().map(|i| sa[i]).product(),
            k: axes_lhs.iter().map(|&i| sa[i]).product(),
            n: free_b().map(|i| sb[i]).product(),
            lhs_gather,
            rhs_gather,
            out_gather: None,
        });
    }
    kernels
}

/// The [`Step`] of `kernel`, reading its operands at `lhs` and `rhs`
/// and writing its node at `dst`, with each of its gathers (their
/// tables where they lie) stored by `push`, which returns its index.
fn step_of(
    kernel: &Kernel,
    lhs: Src,
    rhs: Src,
    dst: usize,
    mut store: impl FnMut(Gather) -> u32,
) -> Step {
    let mut push = |g: Option<Gather>| g.map(&mut store);
    Step {
        lhs,
        rhs,
        dst: pos32(dst),
        m: pos32(kernel.m),
        k: pos32(kernel.k),
        n: pos32(kernel.n),
        lhs_gather: push(kernel.lhs_gather),
        rhs_copy: push(kernel.rhs_gather),
        out_copy: push(kernel.out_gather),
    }
}
/// What [`ExecutablePlan::lower`] needs to run a plan's cold part: the
/// varying input slots and a reader of every input's payload.
type ColdInputs<'a, 'i> = (&'a [usize], &'a dyn Fn(usize) -> &'i [Complex64]);

/// First-fit allocator of short-lived regions of one buffer, above a
/// base offset: the transient hot nodes' arena regions, and the cold
/// run's temporaries.
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
        let slot_len = |slot: usize| -> usize { plan.slot_shape(slot).iter().product() };
        let below = match cold {
            Some((varying, _)) => plan.varying_below(varying),
            None => plan.varying_below(&(0..n_inputs).collect::<Vec<_>>()),
        };
        let hot = |slot: usize| below[slot] > 0;
        let mut tables = Vec::new();
        let mut kernels = lower_kernels(plan, &mut tables);
        let root = match n_steps {
            0 => 0,
            _ => n_inputs + n_steps - 1,
        };

        // Where each step's node lives outside the hot arena: the cold
        // nodes the hot part reads — children of hot steps, and the
        // root when no step is hot — packed in slot order in the cold
        // cache; every other cold node in the cold run's temporaries.
        const NOWHERE: usize = usize::MAX;
        let mut cold_at = vec![NOWHERE; n_steps];
        let mut cold_len = 0usize;
        let mut mark = |slot: usize, cold_at: &mut Vec<usize>| {
            if slot >= n_inputs && !hot(slot) && cold_at[slot - n_inputs] == NOWHERE {
                cold_at[slot - n_inputs] = cold_len;
                cold_len += slot_len(slot);
            }
        };
        for (i, step) in plan.steps().iter().enumerate() {
            if hot(n_inputs + i) {
                mark(step.lhs, &mut cold_at);
                mark(step.rhs, &mut cold_at);
            }
        }
        if n_steps > 0 {
            mark(root, &mut cold_at);
        }
        let cached = |slot: usize| cold_at[slot - n_inputs] != NOWHERE;

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

        // Run the cold steps once, through the same records and step
        // function as a replay. A cold node the hot part does not read
        // is a temporary: it lives from its step until its (cold)
        // parent has read it, in a first-fit pool laid out before the
        // run, so all temporaries share one buffer.
        let mut cold_cache = vec![Complex64::ZERO; cold_len];
        if let Some((_, input)) = cold {
            let cold_step = |i: usize| !hot(n_inputs + i);
            let mut temp_at = vec![NOWHERE; n_steps];
            let mut pool = TransientPool::new(0);
            let mut scratch_need = 0;
            for (i, step) in plan.steps().iter().enumerate() {
                if !cold_step(i) {
                    continue;
                }
                scratch_need = scratch_need.max(kernels[i].scratch_len());
                if !cached(n_inputs + i) {
                    temp_at[i] = pool.alloc(slot_len(n_inputs + i));
                }
                for child in [step.lhs, step.rhs] {
                    if child >= n_inputs {
                        pool.free(temp_at[child - n_inputs], slot_len(child));
                    }
                }
            }
            let mut temps = vec![Complex64::ZERO; pool.end];
            let mut scratch = vec![Complex64::ZERO; scratch_need];
            // A cold child is either an input leaf or a temporary only
            // this step reads.
            let at = |s: usize| match s.checked_sub(n_inputs) {
                None => Src::Input(pos32(s)),
                Some(i) => Src::Arena(pos32(temp_at[i])),
            };
            let mut gathers = [Gather::NONE; 3];
            for (i, step) in plan.steps().iter().enumerate() {
                if !cold_step(i) {
                    continue;
                }
                let mut used = 0;
                let s = step_of(&kernels[i], at(step.lhs), at(step.rhs), 0, |g| {
                    gathers[used] = g;
                    used += 1;
                    pos32(used - 1)
                });
                let (m, k, n) = s.dims();
                let (around, dst) = if cached(n_inputs + i) {
                    (
                        Around::whole(&temps),
                        &mut cold_cache[cold_at[i]..][..m * n],
                    )
                } else {
                    Around::split(&mut temps, temp_at[i], m * n)
                };
                let a = read(s.lhs, m * k, &input, &[], &around);
                let b = read(s.rhs, k * n, &input, &[], &around);
                forward(&tables, &gathers, &s, a, b, dst, &mut scratch);
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
        let mut axes = Vec::new();
        let mut locs: Vec<SlotLoc> = Vec::with_capacity(n_inputs + n_steps);
        locs.extend((0..n_inputs).map(SlotLoc::Input));
        let mut hot_index = vec![u32::MAX; n_steps];
        let n_hot = (0..n_steps).filter(|&i| hot(n_inputs + i)).count();
        let mut steps = Vec::with_capacity(n_hot);
        let mut next_persistent = 0usize;
        let mut scratch_len = 0usize;
        let mut replay_stats = ContractionStats {
            max_intermediate: plan.replay_stats().max_intermediate,
            plan_reuses: 1,
            ..Default::default()
        };
        for (i, (step, kernel)) in plan.steps().iter().zip(&kernels).enumerate() {
            let slot = n_inputs + i;
            let len = slot_len(slot);
            if !hot(slot) {
                locs.push(match cold_at[i] {
                    NOWHERE => SlotLoc::Cold { offset: 0, len: 0 },
                    offset => SlotLoc::Cold { offset, len },
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
            hot_index[i] = pos32(steps.len());
            let env_target = |child: usize| match (hot(child), child < n_inputs) {
                (false, _) => EnvTarget::Cold,
                (true, true) => EnvTarget::Leaf(pos32(child)),
                (true, false) => EnvTarget::Step(hot_index[child - n_inputs]),
            };
            let env = [env_target(step.lhs), env_target(step.rhs)];
            // An lhs reverse product reads its rhs transposed: a
            // gathered rhs gets the transposed copy, with its own walk.
            let rhs_t = match (kernel.reverse(LHS), kernel.rhs_gather) {
                (Reverse::LhsProduct, Some(g)) if env[LHS].is_hot() => {
                    Some(g.transposed_copy(&mut tables, &mut axes))
                }
                _ => None,
            };
            steps.push(HotStep {
                lhs: locs[step.lhs],
                rhs: locs[step.rhs],
                dst_offset: offset,
                kernel: *kernel,
                rhs_t,
                ids: [None; 3],
                env,
            });
            locs.push(SlotLoc::Arena { offset, len });
        }

        // Lay out the environment stack of a sweep. It walks the hot
        // tree depth first from the root: an lhs child whose sibling is
        // hot has its environment computed right above its parent's,
        // which stays for the rhs; a parent's last child is computed in
        // the scratch and takes the parent's place. The stack holds one
        // root-to-leaf path of pending parents at a time, and every
        // position is fixed here, whichever operands a sweep wants: per
        // hot step, its stack base and whether its environment is its
        // sibling's forward value (the children of a dot-product root).
        // It lives
        // where the transient nodes do, which no execution reads across
        // executions and no sweep reads at all: a transient node's
        // sibling is cold. A child of a dot-product root stored in its
        // reader's layout has its sibling's forward value, in that
        // layout, for environment: its reverse steps stage it in the
        // product's, or read it through the inverse gather.
        let dot_root = steps.last().is_some_and(|s: &HotStep| s.kernel.is_dot());
        let mut env_at = vec![(0usize, false); steps.len()];
        let (mut env_len, mut env_scratch_len) = (0usize, 0usize);
        for si in (0..steps.len()).rev() {
            let (base, alias) = env_at[si];
            let step = &steps[si];
            let k = &step.kernel;
            if si + 1 == steps.len() && dot_root {
                for target in step.env {
                    if let EnvTarget::Step(c) = target {
                        env_at[c as usize] = (0, true);
                    }
                }
                continue;
            }
            let above = base + if alias { 0 } else { k.m * k.n };
            env_len = env_len.max(above);
            let pending = step.env[RHS].is_hot();
            for side in [LHS, RHS] {
                let scattered = env_scatter(&steps, step, side).is_some();
                let len = k.env_len(side);
                let (stack_top, scratch) = match step.env[side] {
                    EnvTarget::Cold => continue,
                    EnvTarget::Leaf(_) => (above + len, k.env_scratch_len(side, scattered)),
                    EnvTarget::Step(c) if side == LHS && pending => {
                        env_at[c as usize] = (above, false);
                        (above + len, k.env_scratch_len(side, scattered))
                    }
                    EnvTarget::Step(c) => {
                        env_at[c as usize] = (base, false);
                        (base + len, k.env_scratch_len(side, true))
                    }
                };
                // A dot-product root's child stored in its reader's
                // layout stages its environment unless it reads it
                // through the inverse gather.
                let staged =
                    alias && k.out_gather.is_some() && (side == RHS || !k.inverts_out_gather());
                let staged = if staged { k.m * k.n } else { 0 };
                env_len = env_len.max(stack_top);
                env_scratch_len = env_scratch_len.max(staged + scratch);
            }
        }
        let arena_len = pool.end;

        let (result, result_shape) = if n_inputs == 0 {
            // Empty plan: the scalar 1 is synthesized at run time.
            (SlotLoc::Arena { offset: 0, len: 0 }, &[][..])
        } else {
            (locs[root], plan.slot_shape(root))
        };
        let result_len: usize = result_shape.iter().product();

        // Make the records, with their gathers, and keep only the
        // tables they and the output stage read, in exactly sized
        // buffers. The dot-product root's children (alias steps) keep
        // the inverse of their reader's gather where it is cheap.
        let perm = plan.output_perm();
        let inverted = |k: &Kernel, &(_, alias): &(usize, bool)| alias && k.inverts_out_gather();
        let mut hot_tables_len = perm.map_or(0, |_| result_len);
        let mut gathers_len = 0;
        for (s, at) in steps.iter().zip(&env_at) {
            let k = &s.kernel;
            for g in [k.lhs_gather, k.rhs_gather, k.out_gather, s.rhs_t]
                .iter()
                .flatten()
            {
                hot_tables_len += g.len(&tables);
                gathers_len += 1;
            }
            if inverted(k, at) {
                hot_tables_len += k.m + k.n;
                gathers_len += 1;
            }
            gathers_len += usize::from(k.lhs_gather.is_some());
        }
        let mut hot_tables = Vec::with_capacity(hot_tables_len);
        let mut gathers = Vec::with_capacity(gathers_len);
        let mut records: Vec<Step> = Vec::with_capacity(steps.len());
        let mut inverse = Vec::new();
        for (step, at) in steps.iter_mut().zip(&env_at) {
            let mut moved = |g: Option<Gather>| g.map(|g| g.moved(&tables, &mut hot_tables));
            let kernel = Kernel {
                lhs_gather: moved(step.kernel.lhs_gather),
                rhs_gather: moved(step.kernel.rhs_gather),
                out_gather: moved(step.kernel.out_gather),
                ..step.kernel
            };
            let rhs_t = moved(step.rhs_t);
            let mut push = |g: Gather| {
                gathers.push(g);
                pos32(gathers.len() - 1)
            };
            let record = step_of(
                &kernel,
                step.lhs.src(),
                step.rhs.src(),
                step.dst_offset,
                &mut push,
            );
            step.ids = [
                match kernel.out_gather {
                    Some(out) if inverted(&kernel, at) => Some(push(out.inverse(
                        kernel.m,
                        kernel.n,
                        &mut hot_tables,
                        &mut inverse,
                    ))),
                    _ => None,
                },
                rhs_t.map(&mut push),
                match (kernel.reverse(RHS), kernel.lhs_gather) {
                    (Reverse::RhsProduct, Some(g)) if step.env[RHS].is_hot() => {
                        Some(push(g.transposed()))
                    }
                    _ => None,
                },
            ];
            records.push(record);
        }
        // The reverse steps, depth first from the root.
        let mut adjoints = Vec::with_capacity(2 * steps.len());
        if let Some(root) = steps.len().checked_sub(1) {
            let make = |si: usize, side: usize| {
                let (step, record) = (&steps[si], &records[si]);
                let kernel = &step.kernel;
                let [inverse, rhs_t, lhs_t] = step.ids;
                let scatter = match (side, step.env[side]) {
                    (LHS, _) => record.lhs_gather,
                    // A hot rhs node read through a permutation carries it.
                    (_, EnvTarget::Step(c)) => records[c as usize].out_copy,
                    _ => record.rhs_copy,
                };
                let reverse = match kernel.reverse(side) {
                    Reverse::RhsProduct
                        if scatter.is_some() && kernel.flops() <= SMALL_STEP as u128 =>
                    {
                        Reverse::RhsEntries
                    }
                    reverse => reverse,
                };
                let other = if side == LHS { record.rhs } else { record.lhs };
                // The sibling whose forward value is the environment of
                // a dot-product root's child.
                let sibling = || match steps[root].env[LHS] == EnvTarget::Step(pos32(si)) {
                    true => records[root].rhs,
                    false => records[root].lhs,
                };
                let (base, alias) = env_at[si];
                let env_in = match (si == root && dot_root, alias, record.out_copy, inverse) {
                    (true, ..) => EnvIn::Root(other),
                    (false, false, _, _) => EnvIn::Stack,
                    (false, true, None, _) => EnvIn::Sibling(sibling()),
                    (false, true, Some(_), Some(inv)) if side == LHS => {
                        EnvIn::Inverse(sibling(), inv)
                    }
                    (false, true, Some(out), _) => EnvIn::Scattered(sibling(), out),
                };
                let factor_gather = match reverse {
                    Reverse::LhsDots => None,
                    Reverse::LhsSums => record.rhs_copy,
                    Reverse::LhsProduct => rhs_t,
                    Reverse::RhsSums | Reverse::RhsEntries => record.lhs_gather,
                    Reverse::RhsProduct => lhs_t,
                };
                let target = step.env[side];
                Adjoint {
                    target,
                    step: pos32(si),
                    side: side as u8,
                    above: matches!(target, EnvTarget::Leaf(_))
                        || (side == LHS && step.env[RHS].is_hot()),
                    base: pos32(base),
                    skip: 0,
                    reverse,
                    env_in,
                    factor: other,
                    factor_gather,
                    scatter,
                }
            };
            push_walk(root, &steps, &make, &mut adjoints);
        }
        let (output_shape, out_gather) = match perm {
            Some(perm) => {
                let out_shape: Vec<usize> = perm.iter().map(|&p| result_shape[p]).collect();
                // Row-major walk over the output axes, offsets through
                // the un-permuted result's strides — the same
                // factorized-permutation table as the operand gathers.
                let start = hot_tables.len();
                push_offsets(&mut hot_tables, result_shape, perm.iter().copied());
                (out_shape, Some(start))
            }
            None => (result_shape.to_vec(), None),
        };
        let varying: Vec<bool> = (0..n_inputs).map(hot).collect();
        // Every step on a varying leaf's path is hot.
        let path_len = |leaf: usize| {
            let mut len = 0;
            let mut slot = leaf;
            while let Some(step) = plan.slot_parent(slot) {
                len += 1;
                slot = n_inputs + step;
            }
            len
        };
        let total: usize = (0..n_inputs).filter(|&l| varying[l]).map(path_len).sum();
        let mut path_start = Vec::with_capacity(n_inputs + 1);
        let mut path_steps = Vec::with_capacity(total);
        path_start.push(0);
        for (leaf, &is_varying) in varying.iter().enumerate() {
            if is_varying {
                let mut slot = leaf;
                while let Some(step) = plan.slot_parent(slot) {
                    path_steps.push(hot_index[step]);
                    slot = n_inputs + step;
                }
            }
            path_start.push(path_steps.len());
        }
        ExecutablePlan {
            id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
            n_inputs,
            varying,
            steps: records,
            adjoints,
            dot_root,
            gathers,
            tables: hot_tables,
            path_start,
            path_steps,
            cold: Arc::new(cold_cache),
            result,
            result_len,
            output_shape,
            out_gather,
            arena_len,
            scratch_len,
            replay_stats,
            env_base: persistent_len,
            env_len,
            env_scratch_len,
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
        self.steps.iter().filter(|s| s.out_copy.is_some()).count()
    }

    /// Workspace elements an environment sweep needs on top of what
    /// executions need: the part of the env stack above the transient
    /// nodes' region, and the reverse steps' extra scratch.
    pub fn sweep_footprint(&self) -> usize {
        (self.env_base + self.env_len).saturating_sub(self.arena_len)
            + self.env_scratch_len.saturating_sub(self.scratch_len)
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

    /// Executes against the tensors currently held by `net` (same node
    /// count and shapes as the planning network), returning the
    /// result's row-major buffer inside `ws` — the
    /// swap-payloads-and-replay entry point of the pattern sum. Zero
    /// heap allocations once `ws` has warmed up. Only the hot steps
    /// run: cold leaves are read as they were at compile time.
    ///
    /// # Panics
    ///
    /// Panics if the node count or a buffer length disagrees with the
    /// plan.
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

    /// Environment sweep against the tensors currently held by `net`:
    /// one reverse pass over the hot steps that computes, for each of
    /// the varying `leaves`, its **environment** `E` — the derivative
    /// of the scalar result with respect to the leaf's payload, in the
    /// payload's own layout — and hands it to `visit(leaf, E)`. The
    /// result is linear in every leaf, so replacing leaf `l`'s payload
    /// with `U` (and nothing else) gives the scalar `Σ_x E[x]·U[x]`:
    /// one sweep prices every single-leaf substitution at once.
    ///
    /// The sweep walks the hot tree depth first from the root and
    /// visits only the steps above a wanted leaf. A hot step
    /// `dst = lhs·rhs` gives `env(lhs) = env(dst)·rhsᵀ` and
    /// `env(rhs) = lhsᵀ·env(dst)`, read through the forward kernel's
    /// own gathers, with the forward operands taken from the
    /// workspace's cached intermediates (or the cold cache, or the
    /// inputs). Environments live on a stack above the persistent hot
    /// nodes, so the sweep leaves every cached intermediate as it was
    /// and the workspace stays warm for delta replay; once the
    /// workspace has swept this plan it allocates nothing. Environments
    /// arrive in walk order, not leaf order, and are deterministic
    /// functions of the payloads: no bit depends on the workspace's
    /// history.
    ///
    /// The workspace must hold the intermediates of `net`'s current
    /// payloads, as any execution of them leaves it; a workspace that
    /// is not warm for this plan is warmed by a full replay first, and
    /// the returned stats count it. Otherwise they count one plan use
    /// and the reverse steps run.
    ///
    /// # Panics
    ///
    /// Panics if the plan's output is not rank 0, if `net` does not
    /// have the plan's input count or an input the sweep reads does not
    /// have its planned length, or if a leaf is out of range or not
    /// varying.
    pub fn sweep_network_envs(
        &self,
        net: &TensorNetwork,
        leaves: &[usize],
        ws: &mut Workspace,
        mut visit: impl FnMut(usize, &[Complex64]),
    ) -> ContractionStats {
        assert!(
            self.output_shape.is_empty(),
            "sweep_network_envs requires a rank-0 output"
        );
        assert_eq!(
            net.node_count(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            net.node_count()
        );
        for &leaf in leaves {
            assert!(leaf < self.n_inputs, "leaf {leaf} out of range");
            assert!(
                self.varying[leaf],
                "leaf {leaf} is not a varying leaf of this plan"
            );
        }
        let input = |i: usize| net.node_tensor(i).as_slice();
        let mut stats = ContractionStats::default();
        if ws.warm_for != Some(self.id) {
            let _ = self.run(input, ws);
            stats.absorb(&self.replay_stats);
        }
        stats.absorb(&self.run_sweep(input, leaves, ws, &mut visit));
        stats
    }

    fn run_sweep<'i>(
        &self,
        input: impl Fn(usize) -> &'i [Complex64],
        leaves: &[usize],
        ws: &mut Workspace,
        visit: &mut impl FnMut(usize, &[Complex64]),
    ) -> ContractionStats {
        let timer = crate::profile::start_replay();
        let mut stats = ContractionStats {
            plan_reuses: 1,
            max_intermediate: self.replay_stats.max_intermediate,
            ..Default::default()
        };
        if self.steps.is_empty() {
            // No hot step: a varying leaf is the whole network.
            for &leaf in leaves {
                visit(leaf, &[Complex64::ONE]);
            }
            crate::profile::record_sweep(timer, 0);
            return stats;
        }
        ws.ensure_sweep(self);
        let Workspace {
            arena,
            scratch,
            env_wanted,
            ..
        } = ws;
        // Mark the wanted leaves and every hot step above one. A path
        // runs leaf to root, so it stops at the first marked step.
        let n_inputs = self.n_inputs;
        env_wanted.fill(false);
        for &leaf in leaves {
            env_wanted[leaf] = true;
            for &si in &self.path_steps[self.path_start[leaf]..self.path_start[leaf + 1]] {
                let mark = &mut env_wanted[n_inputs + si as usize];
                if *mark {
                    break;
                }
                *mark = true;
            }
        }
        let (persistent, envs) = arena.split_at_mut(self.env_base);
        let persistent = Around::whole(persistent);
        let value = |src: Src, len: usize| read(src, len, &input, &self.cold, &persistent);
        let wanted = |target: EnvTarget| match target {
            EnvTarget::Cold => false,
            EnvTarget::Leaf(leaf) => env_wanted[leaf as usize],
            EnvTarget::Step(c) => env_wanted[n_inputs + c as usize],
        };
        if !self.dot_root {
            envs[0] = Complex64::ONE;
        }
        let tables = &self.tables[..];
        // One scan of the reverse steps, depth first, jumping over the
        // subtree of every operand no wanted leaf lies under.
        let mut at = 0;
        while let Some(adj) = self.adjoints.get(at) {
            if !wanted(adj.target) {
                at = adj.skip as usize;
                continue;
            }
            at += 1;
            let s = &self.steps[adj.step as usize];
            let (m, k, n) = s.dims();
            let (side, base) = (adj.side as usize, adj.base as usize);
            let above = base + if adj.env_in == EnvIn::Stack { m * n } else { 0 };
            let len = if side == LHS { m * k } else { k * n };
            let (below, rest) = envs.split_at_mut(above);
            // A dot-product root's child stored in its reader's layout:
            // its environment is its sibling's forward value in that
            // layout, read through the inverse gather or staged in the
            // product's layout for each reverse step, so it takes no
            // stack.
            let sibling_len = match adj.env_in {
                EnvIn::Scattered(..) => m * n,
                _ => 0,
            };
            let (sibling, scratch) = scratch.split_at_mut(sibling_len);
            let env_p = match adj.env_in {
                // The root's environment is 1 and the root is a dot
                // product of two operands in the same order: each
                // operand's environment is the other's forward value as
                // it lies, and a hot node's children read it there.
                EnvIn::Root(other) => {
                    if let EnvTarget::Leaf(leaf) = adj.target {
                        visit(leaf as usize, value(other, k));
                    }
                    continue;
                }
                EnvIn::Stack => Lhs::RowMajor(&below[base..base + m * n]),
                EnvIn::Sibling(src) => Lhs::RowMajor(value(src, m * n)),
                EnvIn::Inverse(src, g) => self.gathers[g as usize].lhs(tables, value(src, m * n)),
                EnvIn::Scattered(src, g) => {
                    self.gathers[g as usize].scatter(tables, value(src, m * n), sibling);
                    #[cfg(test)]
                    tests::count_node_env_permutation();
                    Lhs::RowMajor(sibling)
                }
            };
            let factor = value(adj.factor, if side == LHS { k * n } else { m * k });
            stats.contractions += 1;
            stats.flops_proxy += s.flops();
            if adj.above {
                // A leaf, or an lhs whose sibling is hot: its
                // environment goes right above its parent's, which stays
                // for the rhs.
                let env = &mut rest[..len];
                self.reverse_step(adj, s, side, env_p, factor, env, scratch);
                if let EnvTarget::Leaf(leaf) = adj.target {
                    visit(leaf as usize, env);
                }
            } else {
                // The parent's last child: computed in the scratch, it
                // then takes the parent's place on the stack.
                let (staged, work) = scratch.split_at_mut(len);
                let out = self.scattered_out(adj);
                self.adjoint(
                    adj,
                    s,
                    env_p,
                    factor,
                    staged,
                    out.unwrap_or(Out::RowMajor),
                    work,
                );
                let env = &mut envs[base..base + len];
                if out.is_some() {
                    env.copy_from_slice(staged);
                    Self::count_scatter(adj, side);
                } else {
                    self.settle_env(adj, side, staged, env);
                }
            }
        }
        crate::profile::record_sweep(timer, stats.contractions as u64);
        stats
    }

    /// One reverse step into `env`, the environment of operand `side`
    /// of step `s` in the operand's own layout: [`ExecutablePlan::adjoint`],
    /// scattered as it is stored, or staged in the scratch and settled,
    /// when the operand's layout is not the one the step reads it in.
    #[allow(clippy::too_many_arguments)]
    fn reverse_step(
        &self,
        adj: &Adjoint,
        s: &Step,
        side: usize,
        env_p: Lhs<'_>,
        factor: &[Complex64],
        env: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        match (adj.scatter, self.scattered_out(adj)) {
            (Some(_), Some(out)) => {
                self.adjoint(adj, s, env_p, factor, env, out, scratch);
                Self::count_scatter(adj, side);
            }
            (Some(_), None) => {
                let (staged, work) = scratch.split_at_mut(env.len());
                self.adjoint(adj, s, env_p, factor, staged, Out::RowMajor, work);
                self.settle_env(adj, side, staged, env);
            }
            (None, _) => self.adjoint(adj, s, env_p, factor, env, Out::RowMajor, scratch),
        }
    }

    /// The [`Out`] that stores a reverse step's entries straight into
    /// its operand's own layout, for a step that takes them one at a
    /// time and has a scatter gather.
    fn scattered_out(&self, adj: &Adjoint) -> Option<Out<'_>> {
        let g = &self.gathers[adj.scatter? as usize];
        let entries = matches!(
            adj.reverse,
            Reverse::LhsDots | Reverse::LhsSums | Reverse::RhsSums | Reverse::RhsEntries
        );
        entries.then(|| Out::Scattered {
            row: g.row(&self.tables),
            col: g.col(&self.tables),
        })
    }

    /// Moves the environment of operand `side` from the layout the step
    /// reads the operand in (`staged`, as [`ExecutablePlan::adjoint`]
    /// leaves it) into the operand's own (`env`): scattered through the
    /// reverse step's gather, or copied.
    fn settle_env(&self, adj: &Adjoint, side: usize, staged: &[Complex64], env: &mut [Complex64]) {
        match adj.scatter {
            Some(g) => {
                self.gathers[g as usize].scatter(&self.tables, staged, env);
                Self::count_scatter(adj, side);
            }
            None => env.copy_from_slice(staged),
        }
    }

    /// Counts, in tests, the permutations of a hot node's environment
    /// into its product's layout.
    #[cfg_attr(not(test), allow(unused_variables))]
    fn count_scatter(adj: &Adjoint, side: usize) {
        #[cfg(test)]
        if matches!((side, adj.target), (RHS, EnvTarget::Step(_))) {
            tests::count_node_env_permutation();
        }
    }

    /// One reverse step's arithmetic: the environment `dst` of the
    /// operand `adj` is for, from the environment `env_p` of the step's
    /// node, read as the product's natural `m × n` matrix, and the
    /// forward value of the other operand, `factor`, read through the
    /// forward step's gathers. A product writes `dst` in the layout
    /// step `s` reads the operand in; a step that takes its entries one
    /// at a time stores them as `out` says.
    #[allow(clippy::too_many_arguments)]
    fn adjoint(
        &self,
        adj: &Adjoint,
        s: &Step,
        env_p: Lhs<'_>,
        factor: &[Complex64],
        dst: &mut [Complex64],
        out: Out<'_>,
        scratch: &mut [Complex64],
    ) {
        let (m, k, n) = s.dims();
        let tables = &self.tables[..];
        let gather = adj.factor_gather.map(|g| &self.gathers[g as usize]);
        match (adj.reverse, out) {
            // env(lhs) = env(P) · rhsᵀ: (m × n)·(n × k), the rhs read
            // transposed.
            (Reverse::LhsProduct, _) => {
                let b_t = &mut scratch[..n * k];
                match gather {
                    Some(g) => g.copy(tables, factor, b_t),
                    None => transpose_into(factor, k, n, b_t),
                }
                env_p.times(b_t, dst, m, n, k);
            }
            // env(rhs) = lhsᵀ · env(P): (k × m)·(m × n).
            (Reverse::RhsProduct, _) => {
                let lhs = match gather {
                    None => Lhs::Transposed(factor),
                    Some(g) => g.lhs(tables, factor),
                };
                let Lhs::RowMajor(e) = env_p else {
                    unreachable!("an rhs reverse step reads a row-major environment")
                };
                lhs.times(&e[..m * n], dst, k, m, n);
            }
            (_, Out::RowMajor) => {
                let cols = if matches!(adj.reverse, Reverse::RhsSums | Reverse::RhsEntries) {
                    n
                } else {
                    k
                };
                self.entries(adj, s, env_p, factor, gather, |r, c| r * cols + c, dst);
            }
            (_, Out::Scattered { row, col }) => {
                self.entries(adj, s, env_p, factor, gather, |r, c| row[r] + col[c], dst);
            }
        }
    }

    /// The reverse steps that take their entries one at a time, each
    /// stored at `dst[at(r, c)]`. Each arm fixes how both factors are
    /// read, so every running sum compiles to its own loop.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn entries(
        &self,
        adj: &Adjoint,
        s: &Step,
        env_p: Lhs<'_>,
        factor: &[Complex64],
        gather: Option<&Gather>,
        at: impl Fn(usize, usize) -> usize,
        dst: &mut [Complex64],
    ) {
        let (m, k, n) = s.dims();
        let tables = &self.tables[..];
        let rows = |g: &Gather| (g.row(tables), g.col(tables));
        match (adj.reverse, env_p, gather) {
            // env(lhs) = env(P) · rhsᵀ: (m × n)·(n × k).
            (Reverse::LhsDots, Lhs::RowMajor(e), _) => {
                let b_rows = factor[..k * n].chunks_exact(n);
                for (i, e_row) in e.chunks_exact(n).take(m).enumerate() {
                    for (c, b_row) in b_rows.clone().enumerate() {
                        dst[at(i, c)] = dot(e_row, b_row);
                    }
                }
            }
            (Reverse::LhsSums, Lhs::RowMajor(e), None) => {
                let (x, y) = (|i, j| e[i * n + j], |c, j| factor[c * n + j]);
                dot_products(m, k, n, x, y, at, dst)
            }
            (Reverse::LhsSums, Lhs::RowMajor(e), Some(g)) => {
                let (row, col) = rows(g);
                let (x, y) = (|i, j| e[i * n + j], |c, j| factor[row[c] + col[j]]);
                dot_products(m, k, n, x, y, at, dst)
            }
            (Reverse::LhsSums, Lhs::Gathered { data, row, col }, None) => {
                let (x, y) = (|i, j| data[row[i] + col[j]], |c, j| factor[c * n + j]);
                dot_products(m, k, n, x, y, at, dst)
            }
            (Reverse::LhsSums, Lhs::Gathered { data, row, col }, Some(g)) => {
                let (b_row, b_col) = rows(g);
                let x = |i, j| data[row[i] + col[j]];
                dot_products(m, k, n, x, |c, j| factor[b_row[c] + b_col[j]], at, dst)
            }
            // env(rhs) = lhsᵀ · env(P): (k × m)·(m × n), one column.
            (Reverse::RhsSums, Lhs::RowMajor(e), None) => {
                let (x, y) = (|c, i| factor[i * k + c], |j, i| e[i * n + j]);
                dot_products(k, n, m, x, y, at, dst)
            }
            (Reverse::RhsSums, Lhs::RowMajor(e), Some(g)) => {
                let (row, col) = rows(g);
                let (x, y) = (|c, i| factor[row[i] + col[c]], |j, i| e[i * n + j]);
                dot_products(k, n, m, x, y, at, dst)
            }
            (Reverse::RhsEntries, Lhs::RowMajor(e), None) => {
                let (x, y) = (|c, i| factor[i * k + c], |i, j| e[i * n + j]);
                product_entries(k, n, m, x, y, at, dst)
            }
            (Reverse::RhsEntries, Lhs::RowMajor(e), Some(g)) => {
                let (row, col) = rows(g);
                let (x, y) = (|c, i| factor[row[i] + col[c]], |i, j| e[i * n + j]);
                product_entries(k, n, m, x, y, at, dst)
            }
            _ => unreachable!("a reverse step reads its environment as lowering laid it out"),
        }
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
            let path = &self.path_steps[self.path_start[leaf]..self.path_start[leaf + 1]];
            if dirty_steps.len() + path.len() > dirty_steps.capacity() {
                ws.allocation_events += 1;
            }
            dirty_steps.extend_from_slice(path);
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
                stats.flops_proxy += step.flops();
            }
            self.finalize(&input, arena, out);
        }
        ws.dirty_steps = dirty_steps;
        crate::profile::record_delta(timer, stats.contractions as u64);
        (&ws.out[..self.result_len], stats)
    }

    /// Runs one hot step against the arena and scratch: the arena splits
    /// around the step's node, whose region lies apart from every
    /// region the step reads (persistent bump layout), so a step only
    /// ever overwrites its own node's cache.
    fn exec_step<'i>(
        &self,
        s: &Step,
        input: &impl Fn(usize) -> &'i [Complex64],
        arena: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        let (m, k, n) = s.dims();
        let (around, dst) = Around::split(arena, s.dst as usize, m * n);
        let a = read(s.lhs, m * k, input, &self.cold, &around);
        let b = read(s.rhs, k * n, input, &self.cold, &around);
        forward(&self.tables, &self.gathers, s, a, b, dst, scratch);
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
            SlotLoc::Cold { offset, len } => &self.cold[offset..offset + len],
            SlotLoc::Input(i) => input(i),
        };
        assert_eq!(res.len(), self.result_len, "result length");
        let out = &mut out[..self.result_len];
        match self.out_gather {
            Some(start) => {
                let table = &self.tables[start..start + self.result_len];
                for (o, &src_idx) in out.iter_mut().zip(table) {
                    *o = res[src_idx];
                }
            }
            None => out.copy_from_slice(res),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::OrderStrategy;
    use qns_linalg::cr;
    use qns_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    thread_local! {
        /// Permutations of a hot node's environment into its product's
        /// layout made by sweeps on this thread.
        static NODE_ENV_PERMUTATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn count_node_env_permutation() {
        NODE_ENV_PERMUTATIONS.with(|n| n.set(n.get() + 1));
    }

    fn node_env_permutations() -> usize {
        NODE_ENV_PERMUTATIONS.with(std::cell::Cell::get)
    }

    /// The element walk every gather copy must equal:
    /// `dst[r·cols + c] = src[row[r] + col[c]]`, one element at a time.
    fn walked_copy(row: &[usize], col: &[usize], src: &[Complex64]) -> Vec<Complex64> {
        row.iter()
            .flat_map(|&ro| col.iter().map(move |&co| src[ro + co]))
            .collect()
    }

    /// Checks both copies of `g` against the element walk, on `src`
    /// (the read layout, `len` elements).
    fn check_gather(g: Gather, tables: &[usize], len: usize, rng: &mut StdRng, what: &str) {
        let src: Vec<Complex64> = rand_tensor(rng, vec![len]).as_slice().to_vec();
        let want = walked_copy(g.row(tables), g.col(tables), &src);
        let mut copied = vec![Complex64::ZERO; want.len()];
        g.copy(tables, &src, &mut copied);
        assert_eq!(copied, want, "copy, {what}");
        // Scattering the gathered copy back restores every element it
        // read; the others stay as they were.
        let mut back = vec![cr(7.0); len];
        g.scatter(tables, &want, &mut back);
        let mut expect = vec![cr(7.0); len];
        for (&ro, row) in g.row(tables).iter().zip(want.chunks(g.cols())) {
            for (&co, &x) in g.col(tables).iter().zip(row) {
                expect[ro + co] = x;
            }
        }
        assert_eq!(back, expect, "scatter, {what}");
    }

    #[test]
    fn gather_copies_match_the_element_walk() {
        let mut rng = StdRng::seed_from_u64(27);
        let mut walks = [0usize; 3];
        for case in 0..300 {
            // Up to 8 axes of 1–5 elements (up to 2^12 in all), or 12
            // binary ones, in a random order split into rows and
            // columns.
            let shape: Vec<usize> = match case % 3 {
                0 => vec![2; 12],
                _ => {
                    let rank = rng.random_range(1..9usize);
                    let mut shape: Vec<usize> =
                        (0..rank).map(|_| rng.random_range(1..6usize)).collect();
                    while shape.iter().product::<usize>() > 1 << 12 {
                        shape.pop();
                    }
                    shape
                }
            };
            let rank = shape.len();
            let mut perm: Vec<usize> = (0..rank).collect();
            for t in (1..rank).rev() {
                perm.swap(t, rng.random_range(0..t + 1));
            }
            // Keep the identity's trailing axes now and then, so long
            // column runs occur.
            if case % 4 == 0 {
                perm.sort_unstable();
            }
            let split = rng.random_range(0..rank + 1);
            let mut tables = Vec::new();
            let g = Gather::push(
                &mut tables,
                &shape,
                perm[..split].iter().copied(),
                perm[split..].iter().copied(),
                &mut Vec::new(),
            );
            walks[walk_kind(g.walk)] += 1;
            let what = format!("shape {shape:?}, perm {perm:?}, split {split}");
            check_gather(g, &tables, shape.iter().product(), &mut rng, &what);
            let t = g.transposed_copy(&mut tables, &mut Vec::new());
            check_gather(t, &tables, shape.iter().product(), &mut rng, &what);
        }
        assert!(walks.iter().all(|&n| n > 0), "every walk runs: {walks:?}");

        // Hand-made tables: column runs of 9 over 11 and 10 columns
        // (each row ends in a shorter piece), short runs of 2 and 3 on
        // small and on blocked matrices, and a runless blocked one over
        // rows and columns that are no multiple of the block.
        let pieces = |run: usize, gap: usize, count: usize| -> Vec<usize> {
            (0..count)
                .flat_map(|p| (0..run).map(move |t| p * gap + t))
                .collect()
        };
        for (rows, col, walk) in [
            (3, (0..9).chain([20, 21]).collect(), Walk::Runs(9)),
            (3, (0..9).chain([20]).collect(), Walk::Runs(9)),
            (3, pieces(4, 8, 3), Walk::Elements),
            (3, pieces(2, 4, 2), Walk::Elements),
            (3, pieces(3, 6, 2), Walk::Elements),
            (17, pieces(2, 4, 17), Walk::Elements),
            (64, pieces(2, 4, 17), Walk::Blocked(0)),
            (64, pieces(3, 5, 16), Walk::Blocked(0)),
            (65, pieces(1, 2, 40), Walk::Blocked(0)),
        ] {
            let row: Vec<usize> = (0..rows).map(|r| r * 128).collect();
            let mut tables = row.clone();
            tables.extend_from_slice(&col);
            let g = Gather::new(&mut tables, 0, rows, rows, col.len(), &mut Vec::new());
            assert_eq!(walk_kind(g.walk), walk_kind(walk), "col {col:?}");
            if let Walk::Runs(run) = walk {
                assert_eq!(g.walk, Walk::Runs(run), "col {col:?}");
            }
            check_gather(g, &tables, rows * 128, &mut rng, &format!("col {col:?}"));
        }
        assert_eq!(contiguous_run(&[0, 1, 2, 3, 4, 10]), 5);
        assert_eq!(contiguous_run(&[0, 1, 4, 5, 8]), 2);
        assert_eq!(contiguous_run(&[0, 1, 2, 4, 6, 7]), 1);
        assert_eq!(contiguous_run(&[3]), 1);
    }

    /// The kind of a walk, as an index: runs, blocked, elements.
    fn walk_kind(walk: Walk) -> usize {
        match walk {
            Walk::Runs(_) => 0,
            Walk::Blocked(_) => 1,
            Walk::Elements => 2,
        }
    }

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
        let kernels = lower_kernels(&plan, &mut Vec::new());
        assert!(
            kernels[2].rhs_gather.is_some(),
            "the root's rhs is permuted"
        );

        for exec in [plan.compile(), plan.compile_for_replay(&net, &[0, 3])] {
            assert_eq!(exec.pre_permuted_hot_nodes(), 1);
            assert!(exec.steps[1].out_copy.is_some());
            assert!(exec.steps[2].rhs_copy.is_none(), "the root copies no rhs");
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
    fn leaf_environments_price_single_leaf_substitutions() {
        // ((n0·n1)·(n2·n3)) against the cold pair (n4·n5), contracted
        // to a scalar. The right pair's node is read as an rhs through
        // a permutation (stored in its reader's layout), leaf 0 as a
        // gathered lhs, and the node (n0·n1)·(n2·n3) has a cold
        // sibling, so it is transient when only some leaves vary.
        let mut rng = StdRng::seed_from_u64(26);
        let mut net = TensorNetwork::new();
        let [x, y, a, b, c, z] = std::array::from_fn(|_| net.fresh_leg());
        let nodes = [
            (vec![2, 2], [a, x]),
            (vec![2, 4], [a, b]),
            (vec![3, 2], [y, c]),
            (vec![2, 4], [c, b]),
            (vec![2, 3], [x, z]),
            (vec![3, 3], [y, z]),
        ];
        for (shape, legs) in &nodes {
            net.add(rand_tensor(&mut rng, shape.clone()), legs.to_vec());
        }
        let plan = net.plan_order(&[(0, 1), (2, 3), (4, 5), (6, 7), (9, 8)]);
        let varying = [0, 1, 3];
        for (exec, leaves) in [
            (plan.compile(), (0..6).collect::<Vec<_>>()),
            (plan.compile_for_replay(&net, &varying), varying.to_vec()),
        ] {
            assert_eq!(exec.pre_permuted_hot_nodes(), 1);
            let mut ws = Workspace::new();
            let scalar = exec.execute_network_scalar(&net, &mut ws);
            let mut envs = Vec::new();
            let stats = exec.sweep_network_envs(&net, &leaves, &mut ws, |leaf, env| {
                envs.push((leaf, env.to_vec()));
            });
            assert_eq!(stats.plan_reuses, 1);
            assert_eq!(envs.len(), leaves.len());
            let close = |got: Complex64, want: Complex64| {
                assert!((got - want).abs() <= 1e-14 * want.abs(), "{got} vs {want}");
            };
            for (leaf, env) in &envs {
                // The result is linear in the leaf: its environment
                // dotted with its own payload is the full scalar, and
                // with another payload the scalar of that payload.
                let dot = |t: &Tensor| {
                    env.iter()
                        .zip(t.as_slice())
                        .fold(Complex64::ZERO, |acc, (&e, &u)| acc + e * u)
                };
                close(dot(net.node_tensor(*leaf)), scalar);
                let saved = net.node_tensor(*leaf).clone();
                let other = rand_tensor(&mut rng, saved.shape().to_vec());
                net.set_tensor(net.node_id(*leaf), other.clone());
                let replayed = exec.execute_network_scalar(&net, &mut Workspace::new());
                close(dot(&other), replayed);
                net.set_tensor(net.node_id(*leaf), saved);
            }
            // The sweep left the cached intermediates alone: a delta
            // replay after it is bitwise a full replay.
            let leaf = leaves[0];
            net.set_tensor(
                net.node_id(leaf),
                rand_tensor(&mut rng, nodes[leaf].0.clone()),
            );
            let (delta, _) = exec.execute_network_delta_scalar(&net, &[leaf], &mut ws);
            let full = exec.execute_network_scalar(&net, &mut Workspace::new());
            assert_eq!(delta, full);
            // A warmed sweep allocates nothing.
            let warm = ws.allocation_events();
            let _ = exec.sweep_network_envs(&net, &leaves, &mut ws, |_, _| {});
            assert_eq!(ws.allocation_events(), warm);
        }
    }

    #[test]
    fn reader_layout_environment_is_permuted_once() {
        // The network of the test above: the node n2·n3 is its parent's
        // rhs through a permutation, so it is stored in its reader's
        // layout, and both its children are varying leaves.
        let mut rng = StdRng::seed_from_u64(28);
        let mut net = TensorNetwork::new();
        let [x, y, a, b, c, z] = std::array::from_fn(|_| net.fresh_leg());
        for (shape, legs) in [
            (vec![2, 2], [a, x]),
            (vec![2, 4], [a, b]),
            (vec![3, 2], [y, c]),
            (vec![2, 4], [c, b]),
            (vec![2, 3], [x, z]),
            (vec![3, 3], [y, z]),
        ] {
            net.add(rand_tensor(&mut rng, shape), legs.to_vec());
        }
        let plan = net.plan_order(&[(0, 1), (2, 3), (4, 5), (6, 7), (9, 8)]);
        let close = |got: Complex64, want: Complex64| {
            assert!((got - want).abs() <= 1e-14 * want.abs(), "{got} vs {want}");
        };
        for exec in [plan.compile(), plan.compile_for_replay(&net, &[0, 1, 2, 3])] {
            assert_eq!(exec.pre_permuted_hot_nodes(), 1);
            let mut ws = Workspace::new();
            let scalar = exec.execute_network_scalar(&net, &mut ws);
            // Both children wanted, one child, or neither: the node's
            // environment is permuted once when either is wanted.
            for (leaves, permutations) in [(vec![0, 1, 2, 3], 1), (vec![3], 1), (vec![0, 1], 0)] {
                let before = node_env_permutations();
                let mut seen = 0;
                let _ = exec.sweep_network_envs(&net, &leaves, &mut ws, |leaf, env| {
                    let dot = env
                        .iter()
                        .zip(net.node_tensor(leaf).as_slice())
                        .fold(Complex64::ZERO, |acc, (&e, &u)| acc + e * u);
                    close(dot, scalar);
                    seen += 1;
                });
                assert_eq!(seen, leaves.len());
                assert_eq!(
                    node_env_permutations() - before,
                    permutations,
                    "leaves {leaves:?}"
                );
            }
        }
    }

    #[test]
    fn dot_root_child_in_its_readers_layout_prices_its_leaves() {
        // (n0·n1)[p, q] · (n2·n3)[q, p]: a dot-product root whose rhs
        // child is read through a permutation, so it is stored in the
        // root's layout and its environment is the lhs child's forward
        // value in that layout. With 16-wide legs its lhs reverse step
        // reads that through the inverse gather; with 2-wide legs it
        // stages it, like its rhs reverse step.
        let mut rng = StdRng::seed_from_u64(29);
        for wide in [16, 2] {
            let mut net = TensorNetwork::new();
            let [p, q, r, s] = std::array::from_fn(|_| net.fresh_leg());
            let nodes = [
                (vec![wide, 2], [p, s]),
                (vec![2, wide], [s, q]),
                (vec![wide, 2], [q, r]),
                (vec![2, wide], [r, p]),
            ];
            for (shape, legs) in &nodes {
                net.add(rand_tensor(&mut rng, shape.clone()), legs.to_vec());
            }
            let exec = net.plan_order(&[(0, 1), (2, 3), (4, 5)]).compile();
            assert!(exec.dot_root, "wide {wide}");
            assert_eq!(exec.pre_permuted_hot_nodes(), 1);
            let lhs_of_1 = exec
                .adjoints
                .iter()
                .find(|a| (a.step, a.side) == (1, LHS as u8));
            let inverse = lhs_of_1.is_some_and(|a| matches!(a.env_in, EnvIn::Inverse(..)));
            assert_eq!(inverse, wide == 16);
            let mut ws = Workspace::new();
            let scalar = exec.execute_network_scalar(&net, &mut ws);
            let mut envs = Vec::new();
            let _ = exec.sweep_network_envs(&net, &[0, 1, 2, 3], &mut ws, |leaf, env| {
                envs.push((leaf, env.to_vec()));
            });
            assert_eq!(envs.len(), 4);
            let close = |got: Complex64, want: Complex64| {
                assert!((got - want).abs() <= 1e-14 * want.abs(), "{got} vs {want}");
            };
            for (leaf, env) in &envs {
                let dot = |t: &Tensor| {
                    env.iter()
                        .zip(t.as_slice())
                        .fold(Complex64::ZERO, |acc, (&e, &u)| acc + e * u)
                };
                close(dot(net.node_tensor(*leaf)), scalar);
                let saved = net.node_tensor(*leaf).clone();
                let other = rand_tensor(&mut rng, saved.shape().to_vec());
                net.set_tensor(net.node_id(*leaf), other.clone());
                close(
                    dot(&other),
                    exec.execute_network_scalar(&net, &mut Workspace::new()),
                );
                net.set_tensor(net.node_id(*leaf), saved);
            }
        }
    }

    #[test]
    fn tiny_networks_lower_every_record_class() {
        // Closed networks of bond dimension 1 or 2 with shuffled leg
        // orders and a few extra bonds, lowered with every leaf varying
        // and with some: between them they make every reverse step
        // kind, every way of reading a node's environment but the
        // inverse one, products of one and two columns (the kernels'
        // one-column path and a fixed-width loop) and fused scatters.
        let mut rng = StdRng::seed_from_u64(31);
        let mut reverse = std::collections::BTreeSet::new();
        let mut env_in = std::collections::BTreeSet::new();
        let (mut columns, mut fused) = (std::collections::BTreeSet::new(), 0);
        for case in 0..400 {
            let k = 2 + case % 7;
            let mut net = TensorNetwork::new();
            let mut legs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); k];
            let mut edges: Vec<(usize, usize)> =
                (1..k).map(|i| (i, rng.random_range(0..i))).collect();
            for _ in 0..case % 6 {
                edges.push((rng.random_range(0..k), rng.random_range(0..k)));
            }
            for (i, j) in edges.into_iter().filter(|(i, j)| i != j) {
                let (leg, dim) = (net.fresh_leg(), 1 + rng.random_range(0..2usize));
                legs[i].push((leg, dim));
                legs[j].push((leg, dim));
            }
            for node in &mut legs {
                for t in (1..node.len()).rev() {
                    node.swap(t, rng.random_range(0..t + 1));
                }
                let shape = node.iter().map(|&(_, d)| d).collect();
                net.add(
                    rand_tensor(&mut rng, shape),
                    node.iter().map(|&(l, _)| l).collect(),
                );
            }
            let varying: Vec<usize> = (0..k).filter(|_| rng.random_range(0..2u32) == 0).collect();
            let plan = net.plan(OrderStrategy::Greedy);
            for exec in [plan.compile(), plan.compile_for_replay(&net, &varying)] {
                for s in &exec.steps {
                    columns.insert(s.n);
                }
                for adj in &exec.adjoints {
                    let kind = format!("{:?}", adj.reverse);
                    reverse.insert(kind.split('(').next().map(str::to_string));
                    let read = format!("{:?}", adj.env_in);
                    env_in.insert(read.split('(').next().map(str::to_string));
                    fused += usize::from(exec.scattered_out(adj).is_some());
                }
            }
        }
        assert_eq!(reverse.len(), 6, "reverse steps: {reverse:?}");
        // The inverse read needs legs of 16 and more; the dot-product
        // root test below takes it.
        for read in ["Root", "Stack", "Sibling", "Scattered"] {
            assert!(
                env_in.contains(&Some(read.to_string())),
                "{read}: {env_in:?}"
            );
        }
        assert!(columns.contains(&1) && columns.contains(&2), "{columns:?}");
        assert!(fused > 0);
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
        // Greedy's order `A·(B·C)`, and `(A·B)·C`.
        for plan in [
            net.plan(OrderStrategy::Greedy),
            net.plan_order(&[(0, 1), (3, 2)]),
        ] {
            let exec = plan.compile();
            let mut ws = Workspace::new();
            let out = exec.execute_network_into(&net, &mut ws);
            let (reference, _) = plan.execute_network_reference(&net);
            assert_eq!(out, reference.as_slice(), "{:?}", plan.steps());
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
        let mut other = TensorNetwork::new();
        let l = other.fresh_leg();
        other.add(Tensor::zeros(vec![2]), vec![l]);
        let _ = exec.execute_network_into(&other, &mut Workspace::new());
    }
}
