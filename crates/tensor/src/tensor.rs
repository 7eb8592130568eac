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

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
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

    /// Reinterprets the buffer with a new shape of equal total size,
    /// moving the buffer instead of cloning it.
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
        let r = self.rank();
        assert_eq!(perm.len(), r, "permutation length mismatch");
        let mut seen = vec![false; r];
        for &p in perm {
            assert!(p < r && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let in_strides = strides_of(&self.shape);
        let out_strides = strides_of(&out_shape);
        // For each output linear index, decompose into output coords and
        // gather from the input. Output axis k corresponds to input axis
        // perm[k], so the input flat index accumulates
        // coord_k * in_strides[perm[k]].
        let gather_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let data = (0..self.data.len())
            .map(|out_flat| {
                let mut rem = out_flat;
                let mut in_flat = 0usize;
                for k in 0..r {
                    let coord = rem / out_strides[k];
                    rem %= out_strides[k];
                    in_flat += coord * gather_strides[k];
                }
                self.data[in_flat]
            })
            .collect();
        Tensor {
            shape: out_shape,
            data,
        }
    }

    /// Contracts `axes_a` of `self` with `axes_b` of `other`
    /// (einsum-style pairwise contraction).
    ///
    /// The result's axes are the remaining axes of `self` followed by
    /// the remaining axes of `other`, each in their original order.
    /// An operand whose contracted axes already sit where the matmul
    /// needs them (trailing on the lhs, leading on the rhs, in order)
    /// is read in place; the other is permuted into a copy first.
    ///
    /// # Panics
    ///
    /// Panics if the axis lists have different lengths, reference
    /// out-of-range axes, repeat an axis, or pair axes of unequal size.
    pub fn contract(&self, other: &Tensor, axes_a: &[usize], axes_b: &[usize]) -> Tensor {
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
        let pa: Cow<'_, Tensor> = if identity(&perm_a) {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.permute(&perm_a))
        };
        let pb: Cow<'_, Tensor> = if identity(&perm_b) {
            Cow::Borrowed(other)
        } else {
            Cow::Owned(other.permute(&perm_b))
        };

        let m: usize = free_a.iter().map(|&i| self.shape[i]).product();
        let k: usize = axes_a.iter().map(|&i| self.shape[i]).product();
        let n: usize = free_b.iter().map(|&i| other.shape[i]).product();
        let mut data = vec![Complex64::ZERO; m * n];
        qns_linalg::kernels::matmul_into(
            &pa.data,
            &pb.data,
            &mut data,
            m.max(1),
            k.max(1),
            n.max(1),
        );

        let mut shape: Vec<usize> = free_a.iter().map(|&i| self.shape[i]).collect();
        shape.extend(free_b.iter().map(|&i| other.shape[i]));
        Tensor { shape, data }
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
            self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
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
    fn row_major_layout() {
        // shape [2,2]: data index = i*2 + j.
        let m = Matrix::from_rows(&[vec![cr(0.0), cr(1.0)], vec![cr(2.0), cr(3.0)]]);
        let t = Tensor::from_matrix(&m);
        assert_eq!(t.as_slice()[1], m[(0, 1)]);
        assert_eq!(t.as_slice()[2], m[(1, 0)]);
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
        // t[i][j] = 3i + j; its transpose holds t[j][i] at p[i][j].
        let t = Tensor::from_vec((0..6).map(|x| cr(x as f64)).collect(), vec![2, 3]);
        let p = t.permute(&[1, 0]); // shape [3,2]
        assert_eq!(p.shape(), &[3, 2]);
        let expect: Vec<Complex64> = [0.0, 3.0, 1.0, 4.0, 2.0, 5.0].map(cr).to_vec();
        assert_eq!(p.as_slice(), expect.as_slice());
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
        let gm = g.into_reshaped(vec![4, 4]).to_matrix();
        let expect = gm.matvec(s.as_slice());
        for (k, e) in expect.iter().enumerate() {
            assert!(out.as_slice()[k].approx_eq(*e, 1e-12));
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = random_tensor(&mut rng, vec![2, 6]);
        let r = t.clone().into_reshaped(vec![3, 4]);
        assert_eq!(r.shape(), &[3, 4]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn contraction_is_bilinear_in_scale() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random_tensor(&mut rng, vec![3, 3]);
        let b = random_tensor(&mut rng, vec![3, 3]);
        let scale = |t: &Tensor| {
            let data = t.as_slice().iter().map(|&z| z * cr(2.5)).collect();
            Tensor::from_vec(data, t.shape().to_vec())
        };
        let lhs = scale(&a).contract(&b, &[1], &[0]);
        let rhs = scale(&a.contract(&b, &[1], &[0]));
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
        // The buffer moves: the reshaped tensor reads the same memory.
        let mut rng = StdRng::seed_from_u64(21);
        let t = random_tensor(&mut rng, vec![2, 6]);
        let at = t.as_slice().as_ptr();
        let by_move = t.into_reshaped(vec![4, 3]);
        assert_eq!(by_move.as_slice().as_ptr(), at);
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
    fn contract_to_scalar_inner_product() {
        // ⟨a|b⟩ with explicit conjugation.
        let a_conj = Tensor::from_vec(vec![c64(0.0, -1.0), cr(1.0)], vec![2]);
        let b = Tensor::from_vec(vec![c64(0.0, 1.0), cr(1.0)], vec![2]);
        let s = a_conj.contract(&b, &[0], &[0]);
        assert!(s.scalar_value().approx_eq(cr(2.0), 1e-14));
    }
}
