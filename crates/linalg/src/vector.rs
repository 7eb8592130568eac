//! Free functions on complex vectors (`&[Complex64]`).
//!
//! State vectors in the simulator crates are plain `Vec<Complex64>`;
//! these helpers provide the small amount of vector algebra they need
//! without wrapping the type.

use crate::Complex64;

/// Hermitian inner product `⟨a|b⟩ = Σ conj(a_i)·b_i`.
///
/// # Panics
///
/// Panics if the lengths differ.
///
/// ```
/// use qns_linalg::{inner_product, c64};
/// let a = [c64(0.0, 1.0)];
/// let b = [c64(0.0, 1.0)];
/// assert_eq!(inner_product(&a, &b), c64(1.0, 0.0));
/// ```
pub fn inner_product(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "inner product length mismatch");
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

/// Euclidean norm `‖v‖₂`.
pub fn vec_norm(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// Returns `v / ‖v‖₂`.
///
/// # Panics
///
/// Panics if `v` has zero norm.
pub fn normalize(v: &[Complex64]) -> Vec<Complex64> {
    let n = vec_norm(v);
    assert!(n > 0.0, "cannot normalize the zero vector");
    v.iter().map(|&z| z / n).collect()
}

/// Kronecker product of two vectors: `(a ⊗ b)[i·len(b)+j] = a_i·b_j`.
///
/// ```
/// use qns_linalg::{kron_vec, cr};
/// let zero = [cr(1.0), cr(0.0)];
/// let one = [cr(0.0), cr(1.0)];
/// let v = kron_vec(&zero, &one); // |01⟩
/// assert_eq!(v[1], cr(1.0));
/// ```
pub fn kron_vec(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &x in a {
        for &y in b {
            out.push(x * y);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, cr};

    #[test]
    fn inner_product_conjugates_left() {
        let a = [Complex64::I];
        let b = [Complex64::ONE];
        assert_eq!(inner_product(&a, &b), c64(0.0, -1.0));
    }

    #[test]
    fn norm_of_bell_coefficients() {
        let inv = std::f64::consts::FRAC_1_SQRT_2;
        let v = [cr(inv), cr(0.0), cr(0.0), cr(inv)];
        assert!((vec_norm(&v) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let v = [c64(3.0, 0.0), c64(0.0, 4.0)];
        let n = normalize(&v);
        assert!((vec_norm(&n) - 1.0).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "cannot normalize the zero vector")]
    fn normalize_zero_panics() {
        normalize(&[Complex64::ZERO]);
    }

    #[test]
    fn kron_of_basis_states() {
        let zero = [cr(1.0), cr(0.0)];
        let one = [cr(0.0), cr(1.0)];
        let v = kron_vec(&one, &zero); // |10⟩ -> index 2
        assert_eq!(v[2], cr(1.0));
        assert_eq!(v.iter().filter(|z| **z != Complex64::ZERO).count(), 1);
    }
}
