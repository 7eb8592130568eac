#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(unsafe_code)]
//! Dense complex linear algebra substrate for the `qns` workspace.
//!
//! This crate is deliberately self-contained (no external numeric
//! dependencies) and provides exactly what noisy-circuit simulation
//! needs:
//!
//! * [`Complex64`] — a `f64`-based complex number with full arithmetic.
//! * [`Matrix`] — a dense, row-major complex matrix with the usual
//!   algebra (product, Kronecker product, adjoint, trace, norms).
//! * [`svd()`] — a one-sided Jacobi singular value decomposition, the
//!   numerical core of the paper's noise-tensor approximation.
//! * [`kernels`] — allocation-free matmul micro-kernels writing into
//!   borrowed output slices (the contraction engine's hot path).
//! * [`eig`] — a Jacobi eigensolver for Hermitian matrices, used to
//!   validate density matrices and channels.
//!
//! # Example
//!
//! ```
//! use qns_linalg::{Matrix, Complex64};
//!
//! let h = Matrix::from_rows(&[
//!     vec![Complex64::new(1.0, 0.0), Complex64::new(1.0, 0.0)],
//!     vec![Complex64::new(1.0, 0.0), Complex64::new(-1.0, 0.0)],
//! ]).scale(Complex64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0));
//! assert!(h.is_unitary(1e-12));
//! let svd = qns_linalg::svd(&h);
//! assert!((svd.singular_values[0] - 1.0).abs() < 1e-12);
//! ```

pub mod complex;
pub mod eig;
pub mod kernels;
pub mod matrix;
pub mod svd;
pub mod vector;

pub use complex::Complex64;
pub use eig::{eigh, HermitianEig};
pub use matrix::Matrix;
pub use svd::{svd, Svd};
pub use vector::{inner_product, kron_vec, normalize, vec_norm};

/// Convenience shorthand for a real complex number.
///
/// ```
/// use qns_linalg::{cr, Complex64};
/// assert_eq!(cr(2.0), Complex64::new(2.0, 0.0));
/// ```
#[inline]
pub fn cr(re: f64) -> Complex64 {
    Complex64::new(re, 0.0)
}

/// Convenience shorthand for a general complex number.
///
/// ```
/// use qns_linalg::{c64, Complex64};
/// assert_eq!(c64(1.0, -2.0), Complex64::new(1.0, -2.0));
/// ```
#[inline]
pub fn c64(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}
