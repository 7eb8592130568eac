#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
//! Dense complex tensors for the `qns` tensor-network machinery.
//!
//! A [`Tensor`] is a multi-dimensional array of [`qns_linalg::Complex64`]
//! stored in row-major order (last axis fastest). The API is
//! intentionally small: construction, reshape, axis permutation and
//! pairwise contraction. The compiled `qns-tnet` replay lowers its own
//! kernels; [`Tensor::contract`] and [`Tensor::permute`] are the
//! allocating reference it is tested against bit for bit.
//!
//! # Example
//!
//! ```
//! use qns_tensor::Tensor;
//! use qns_linalg::{Matrix, cr};
//!
//! let x = Matrix::from_rows(&[vec![cr(0.0), cr(1.0)], vec![cr(1.0), cr(0.0)]]);
//! let t = Tensor::from_matrix(&x); // rank-2: [out, in]
//! let v = Tensor::from_vec(vec![cr(1.0), cr(0.0)], vec![2]); // |0⟩
//! let out = t.contract(&v, &[1], &[0]); // X|0⟩ = |1⟩
//! assert_eq!(out.as_slice()[1], cr(1.0));
//! ```

pub mod tensor;

pub use tensor::Tensor;
