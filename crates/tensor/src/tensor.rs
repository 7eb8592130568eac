//! The dense [`Tensor`] type and its operations.

use qns_linalg::{Complex64, Matrix};
use std::borrow::Cow;
use std::fmt;

/// A dense complex tensor of arbitrary rank, stored row-major
/// (last axis varies fastest).
///
/// Rank-0 tensors hold a single scalar; use [`Tensor::scalar_value`] to
/// extract it after a full contraction.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<Complex64>,
}

/// Computes row-major strides for a shape.
fn strides_of(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape,
            data: vec![Complex64::ZERO; len],
        }
    }

    /// Creates a rank-0 tensor holding one scalar.
    pub fn scalar(value: Complex64) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<Complex64>, shape: Vec<usize>) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(data.len(), expect, "tensor buffer length mismatch");
        Tensor { shape, data }
    }

    /// Converts a matrix into a rank-2 tensor `[rows, cols]`.
    pub fn from_matrix(m: &Matrix) -> Self {
        Tensor {
            shape: vec![m.rows(), m.cols()],
            data: m.as_slice().to_vec(),
        }
    }

    /// Interprets a rank-2 tensor as a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn to_matrix(&self) -> Matrix {
        assert_eq!(self.rank(), 2, "to_matrix requires a rank-2 tensor");
        Matrix::from_vec(self.shape[0], self.shape[1], self.data.clone())
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements (some axis has size 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Element access by multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong length or is out of bounds.
    pub fn get(&self, idx: &[usize]) -> Complex64 {
        self.data[self.flat_index(idx)]
    }

    /// Sets an element by multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong length or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: Complex64) {
        let f = self.flat_index(idx);
        self.data[f] = value;
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        // Fold from the fastest-varying (last) axis outward, carrying
        // the stride as a scalar: no `strides_of` vector per call.
        let mut flat = 0usize;
        let mut stride = 1usize;
        for (&i, &s) in idx.iter().zip(&self.shape).rev() {
            assert!(i < s, "index {i} out of bounds for axis of size {s}");
            flat += i * stride;
            stride *= s;
        }
        flat
    }

    /// Extracts the scalar from a rank-0 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 0.
    pub fn scalar_value(&self) -> Complex64 {
        assert!(self.rank() == 0, "scalar_value requires a rank-0 tensor");
        self.data[0]
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: Complex64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "tensor add shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }

    /// Reinterprets the buffer with a new shape of equal total size.
    ///
    /// Clones the buffer; on an owned tensor prefer
    /// [`Tensor::into_reshaped`], which moves it.
    ///
    /// # Panics
    ///
    /// Panics if the element counts disagree.
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        let expect: usize = shape.iter().product();
        assert_eq!(self.data.len(), expect, "reshape element count mismatch");
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Consuming [`Tensor::reshape`]: reinterprets the buffer with a
    /// new shape of equal total size, moving the buffer instead of
    /// cloning it.
    ///
    /// # Panics
    ///
    /// Panics if the element counts disagree.
    pub fn into_reshaped(self, shape: Vec<usize>) -> Tensor {
        let expect: usize = shape.iter().product();
        assert_eq!(self.data.len(), expect, "reshape element count mismatch");
        Tensor {
            shape,
            data: self.data,
        }
    }

    /// Overwrites this tensor's buffer with `src`'s, without
    /// reallocating — the zero-allocation payload swap used by the
    /// pattern sum's hot loop.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, src: &Tensor) {
        assert_eq!(self.shape, src.shape, "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Permutes the axes: `out[idx[perm[0]], idx[perm[1]], …] = in[idx]`,
    /// i.e. axis `perm[k]` of the input becomes axis `k` of the output
    /// (NumPy `transpose` semantics).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let mut data = vec![Complex64::ZERO; self.data.len()];
        let out_shape = self.permute_into(perm, &mut data);
        Tensor {
            shape: out_shape,
            data,
        }
    }

    /// As [`Tensor::permute`], but writes the permuted buffer into
    /// `out` (fully overwritten) instead of allocating one, and returns
    /// the permuted shape. `out` must have exactly [`Tensor::len`]
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank` or `out` has
    /// the wrong length.
    pub fn permute_into(&self, perm: &[usize], out: &mut [Complex64]) -> Vec<usize> {
        let r = self.rank();
        assert_eq!(perm.len(), r, "permutation length mismatch");
        let mut seen = vec![false; r];
        for &p in perm {
            assert!(p < r && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        assert_eq!(out.len(), self.data.len(), "permute output length mismatch");
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let in_strides = strides_of(&self.shape);
        let out_strides = strides_of(&out_shape);
        // For each output linear index, decompose into output coords and
        // gather from the input. Output axis k corresponds to input axis
        // perm[k], so the input flat index accumulates
        // coord_k * in_strides[perm[k]].
        let gather_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        for (out_flat, slot) in out.iter_mut().enumerate() {
            let mut rem = out_flat;
            let mut in_flat = 0usize;
            for k in 0..r {
                let coord = rem / out_strides[k];
                rem %= out_strides[k];
                in_flat += coord * gather_strides[k];
            }
            *slot = self.data[in_flat];
        }
        out_shape
    }

    /// Outer (tensor) product: shapes concatenate.
    pub fn outer(&self, other: &Tensor) -> Tensor {
        let mut shape = self.shape.clone();
        shape.extend_from_slice(&other.shape);
        let mut data = Vec::with_capacity(self.data.len() * other.data.len());
        for &a in &self.data {
            for &b in &other.data {
                data.push(a * b);
            }
        }
        Tensor { shape, data }
    }

    /// Contracts `axes_a` of `self` with `axes_b` of `other`
    /// (einsum-style pairwise contraction).
    ///
    /// The result's axes are the remaining axes of `self` followed by
    /// the remaining axes of `other`, each in their original order.
    ///
    /// # Panics
    ///
    /// Panics if the axis lists have different lengths, reference
    /// out-of-range axes, repeat an axis, or pair axes of unequal size.
    pub fn contract(&self, other: &Tensor, axes_a: &[usize], axes_b: &[usize]) -> Tensor {
        let out_len = self.contract_len(other, axes_a, axes_b);
        let mut data = vec![Complex64::ZERO; out_len];
        let shape = self.contract_into(other, axes_a, axes_b, &mut data);
        Tensor { shape, data }
    }

    /// Number of elements in the result of
    /// `self.contract(other, axes_a, axes_b)` — the length
    /// [`Tensor::contract_into`]'s output slice must have.
    ///
    /// # Panics
    ///
    /// As [`Tensor::contract`].
    pub fn contract_len(&self, other: &Tensor, axes_a: &[usize], axes_b: &[usize]) -> usize {
        assert_eq!(
            axes_a.len(),
            axes_b.len(),
            "contraction axis count mismatch"
        );
        for (&a, &b) in axes_a.iter().zip(axes_b) {
            assert!(a < self.rank(), "axis {a} out of range for lhs");
            assert!(b < other.rank(), "axis {b} out of range for rhs");
            assert_eq!(
                self.shape[a], other.shape[b],
                "contracted axes have unequal sizes"
            );
        }
        let k: usize = axes_a.iter().map(|&i| self.shape[i]).product();
        self.len() / k.max(1) * (other.len() / k.max(1))
    }

    /// As [`Tensor::contract`], but writes the result's row-major
    /// buffer into `out` (fully overwritten) and returns its shape.
    ///
    /// When an operand's contracted axes already sit where the matmul
    /// needs them (trailing on the lhs, leading on the rhs, in order)
    /// the permuted copy is elided entirely and the operand's buffer is
    /// used as-is; otherwise a permuted scratch copy is still allocated
    /// internally. The fully allocation-free path is a compiled
    /// `qns-tnet` plan, which precomputes gather tables per step.
    ///
    /// Bit-identical to [`Tensor::contract`] by construction.
    ///
    /// # Panics
    ///
    /// As [`Tensor::contract`], or if `out.len()` differs from
    /// [`Tensor::contract_len`].
    pub fn contract_into(
        &self,
        other: &Tensor,
        axes_a: &[usize],
        axes_b: &[usize],
        out: &mut [Complex64],
    ) -> Vec<usize> {
        let expect = self.contract_len(other, axes_a, axes_b);
        assert_eq!(out.len(), expect, "contract output length mismatch");

        // Free axes, preserving order.
        let free_a: Vec<usize> = (0..self.rank()).filter(|i| !axes_a.contains(i)).collect();
        let free_b: Vec<usize> = (0..other.rank()).filter(|i| !axes_b.contains(i)).collect();

        // Permute so contracted axes are trailing on lhs, leading on
        // rhs — skipping the copy when a permutation is the identity.
        let mut perm_a = free_a.clone();
        perm_a.extend_from_slice(axes_a);
        let mut perm_b = axes_b.to_vec();
        perm_b.extend_from_slice(&free_b);

        let identity = |perm: &[usize]| perm.iter().enumerate().all(|(i, &p)| i == p);
        let pa: Cow<'_, [Complex64]> = if identity(&perm_a) {
            Cow::Borrowed(&self.data)
        } else {
            let mut buf = vec![Complex64::ZERO; self.data.len()];
            self.permute_into(&perm_a, &mut buf);
            Cow::Owned(buf)
        };
        let pb: Cow<'_, [Complex64]> = if identity(&perm_b) {
            Cow::Borrowed(&other.data)
        } else {
            let mut buf = vec![Complex64::ZERO; other.data.len()];
            other.permute_into(&perm_b, &mut buf);
            Cow::Owned(buf)
        };

        let m: usize = free_a.iter().map(|&i| self.shape[i]).product();
        let k: usize = axes_a.iter().map(|&i| self.shape[i]).product();
        let n: usize = free_b.iter().map(|&i| other.shape[i]).product();
        qns_linalg::kernels::matmul_into(&pa, &pb, out, m.max(1), k.max(1), n.max(1));

        let mut out_shape: Vec<usize> = free_a.iter().map(|&i| self.shape[i]).collect();
        out_shape.extend(free_b.iter().map(|&i| other.shape[i]));
        out_shape
    }

    /// Frobenius norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Entry-wise approximate equality with absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f64) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor(shape={:?}, {} elements, norm={:.3e})",
            self.shape,
            self.data.len(),
            self.norm()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_linalg::{c64, cr};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_tensor(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(vec![2, 3, 4]);
        t.set(&[1, 2, 3], cr(7.0));
        assert_eq!(t.get(&[1, 2, 3]), cr(7.0));
        assert_eq!(t.get(&[0, 0, 0]), Complex64::ZERO);
    }

    #[test]
    fn row_major_layout() {
        // shape [2,2]: data index = i*2 + j.
        let t = Tensor::from_vec(vec![cr(0.0), cr(1.0), cr(2.0), cr(3.0)], vec![2, 2]);
        assert_eq!(t.get(&[0, 1]), cr(1.0));
        assert_eq!(t.get(&[1, 0]), cr(2.0));
    }

    #[test]
    fn permute_transpose_matches_matrix() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = random_tensor(&mut rng, vec![3, 5]);
        let tt = t.permute(&[1, 0]);
        let m = t.to_matrix().transpose();
        assert!(tt.to_matrix().approx_eq(&m, 1e-14));
    }

    #[test]
    fn permute_composition_is_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = random_tensor(&mut rng, vec![2, 3, 4]);
        // perm [2,0,1] then its inverse [1,2,0] restores the original.
        let p = t.permute(&[2, 0, 1]);
        let back = p.permute(&[1, 2, 0]);
        assert!(back.approx_eq(&t, 0.0));
    }

    #[test]
    fn permute_moves_values_correctly() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], cr(9.0));
        let p = t.permute(&[1, 0]); // shape [3,2]
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.get(&[2, 1]), cr(9.0));
    }

    #[test]
    fn contract_matrix_vector() {
        let x = Matrix::from_rows(&[vec![cr(0.0), cr(1.0)], vec![cr(1.0), cr(0.0)]]);
        let t = Tensor::from_matrix(&x);
        let v = Tensor::from_vec(vec![cr(1.0), cr(0.0)], vec![2]);
        let out = t.contract(&v, &[1], &[0]);
        assert_eq!(out.shape(), &[2]);
        assert_eq!(out.as_slice()[1], cr(1.0));
    }

    #[test]
    fn contract_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_tensor(&mut rng, vec![3, 4]);
        let b = random_tensor(&mut rng, vec![4, 5]);
        let c = a.contract(&b, &[1], &[0]);
        let m = a.to_matrix().matmul(&b.to_matrix());
        assert!(c.to_matrix().approx_eq(&m, 1e-12));
    }

    #[test]
    fn contract_double_axis_full_trace() {
        // Tr(A·B) by contracting both axes crosswise.
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_tensor(&mut rng, vec![4, 4]);
        let b = random_tensor(&mut rng, vec![4, 4]);
        let s = a.contract(&b, &[0, 1], &[1, 0]);
        assert_eq!(s.rank(), 0);
        let expect = a.to_matrix().matmul(&b.to_matrix()).trace();
        assert!(s.scalar_value().approx_eq(expect, 1e-12));
    }

    #[test]
    fn contract_rank4_gate_application() {
        // A rank-4 tensor [o1,o2,i1,i2] applied to a rank-2 state [q1,q2].
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_tensor(&mut rng, vec![2, 2, 2, 2]);
        let s = random_tensor(&mut rng, vec![2, 2]);
        let out = g.contract(&s, &[2, 3], &[0, 1]);
        assert_eq!(out.shape(), &[2, 2]);
        // Compare against flat matrix–vector product.
        let gm = g.reshape(vec![4, 4]).to_matrix();
        let sv = s.reshape(vec![4]);
        let expect = gm.matvec(sv.as_slice());
        for (k, e) in expect.iter().enumerate() {
            assert!(out.as_slice()[k].approx_eq(*e, 1e-12));
        }
    }

    #[test]
    fn outer_product_shapes_and_values() {
        let a = Tensor::from_vec(vec![cr(2.0), cr(3.0)], vec![2]);
        let b = Tensor::from_vec(vec![cr(5.0), cr(7.0)], vec![2]);
        let o = a.outer(&b);
        assert_eq!(o.shape(), &[2, 2]);
        assert_eq!(o.get(&[1, 1]), cr(21.0));
    }

    #[test]
    fn outer_with_scalar_is_scale() {
        let a = Tensor::from_vec(vec![cr(2.0), cr(3.0)], vec![2]);
        let s = Tensor::scalar(cr(10.0));
        let o = s.outer(&a);
        assert_eq!(o.shape(), &[2]);
        assert_eq!(o.as_slice()[0], cr(20.0));
    }

    #[test]
    fn reshape_preserves_data() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = random_tensor(&mut rng, vec![2, 6]);
        let r = t.reshape(vec![3, 4]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn conj_is_involution() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = random_tensor(&mut rng, vec![2, 2]);
        assert!(t.conj().conj().approx_eq(&t, 0.0));
    }

    #[test]
    fn contraction_is_bilinear_in_scale() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random_tensor(&mut rng, vec![3, 3]);
        let b = random_tensor(&mut rng, vec![3, 3]);
        let s = cr(2.5);
        let lhs = a.scale(s).contract(&b, &[1], &[0]);
        let rhs = a.contract(&b, &[1], &[0]).scale(s);
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    #[should_panic(expected = "contracted axes have unequal sizes")]
    fn contract_size_mismatch_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        let _ = a.contract(&b, &[1], &[0]);
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn bad_permutation_panics() {
        let t = Tensor::zeros(vec![2, 2]);
        let _ = t.permute(&[0, 0]);
    }

    #[test]
    fn into_reshaped_matches_reshape() {
        let mut rng = StdRng::seed_from_u64(21);
        let t = random_tensor(&mut rng, vec![2, 6]);
        let by_ref = t.reshape(vec![4, 3]);
        let by_move = t.clone().into_reshaped(vec![4, 3]);
        assert_eq!(by_ref, by_move);
    }

    #[test]
    #[should_panic(expected = "reshape element count mismatch")]
    fn into_reshaped_rejects_wrong_size() {
        let t = Tensor::zeros(vec![2, 3]);
        let _ = t.into_reshaped(vec![7]);
    }

    #[test]
    fn copy_from_overwrites_without_shape_change() {
        let mut rng = StdRng::seed_from_u64(22);
        let src = random_tensor(&mut rng, vec![2, 2]);
        let mut dst = Tensor::zeros(vec![2, 2]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "copy_from shape mismatch")]
    fn copy_from_rejects_shape_mismatch() {
        let mut dst = Tensor::zeros(vec![2, 2]);
        dst.copy_from(&Tensor::zeros(vec![4]));
    }

    #[test]
    fn permute_into_bit_identical_to_permute() {
        let mut rng = StdRng::seed_from_u64(23);
        let t = random_tensor(&mut rng, vec![2, 3, 4]);
        for perm in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]] {
            let reference = t.permute(&perm);
            let mut out = vec![cr(5.0); t.len()]; // dirty output
            let shape = t.permute_into(&perm, &mut out);
            assert_eq!(shape, reference.shape());
            assert_eq!(out.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn contract_into_bit_identical_to_contract() {
        let mut rng = StdRng::seed_from_u64(24);
        // Cases covering identity-elided lhs/rhs permutations and
        // genuinely permuted ones: (shape_a, shape_b, axes_a, axes_b).
        type Case = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>);
        let cases: Vec<Case> = vec![
            (vec![3, 4], vec![4, 5], vec![1], vec![0]), // both elided
            (vec![4, 3], vec![4, 5], vec![0], vec![0]), // lhs permuted
            (vec![3, 4], vec![5, 4], vec![1], vec![1]), // rhs permuted
            (vec![2, 3, 2], vec![2, 2, 3], vec![0, 1], vec![1, 2]), // both
            (vec![2, 2], vec![3], vec![], vec![]),      // outer product
        ];
        for (sa, sb, axes_a, axes_b) in cases {
            let a = random_tensor(&mut rng, sa);
            let b = random_tensor(&mut rng, sb);
            let reference = a.contract(&b, &axes_a, &axes_b);
            let mut out = vec![cr(7.0); a.contract_len(&b, &axes_a, &axes_b)];
            let shape = a.contract_into(&b, &axes_a, &axes_b, &mut out);
            assert_eq!(shape, reference.shape());
            assert_eq!(out.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn contract_to_scalar_inner_product() {
        // ⟨a|b⟩ with explicit conjugation.
        let a = Tensor::from_vec(vec![c64(0.0, 1.0), cr(1.0)], vec![2]);
        let b = Tensor::from_vec(vec![c64(0.0, 1.0), cr(1.0)], vec![2]);
        let s = a.conj().contract(&b, &[0], &[0]);
        assert!(s.scalar_value().approx_eq(cr(2.0), 1e-14));
    }
}
