//! Linear-algebra kernels for `tpdbt` profile normalization.
//!
//! The paper's offline analysis tool "uses the solver for system of
//! linear equations in the Intel's Math Kernel Library to propagate
//! block frequencies for the duplicated blocks in NAVEP". MKL is
//! proprietary, so this crate provides the substitute: a dense LU solver
//! with partial pivoting for small systems and exact tests, and a sparse
//! Gauss–Seidel solver for the large, diagonally-dominant Markov flow
//! systems produced by whole-program normalization.
//!
//! [`markov`] builds the `(I - Pᵀ) x = b` frequency-propagation system
//! from a probabilistic flow graph, which is the only shape the profile
//! analyzer needs.
//!
//! # Example
//!
//! ```
//! use tpdbt_linalg::DenseMatrix;
//!
//! # fn main() -> Result<(), tpdbt_linalg::LinalgError> {
//! // Solve { x + y = 3, x - y = 1 }.
//! let a = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]])?;
//! let x = a.solve(&[3.0, 1.0])?;
//! assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod error;
pub mod markov;
mod sparse;

pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use markov::{FlowGraph, NodeId};
pub use sparse::{CsrMatrix, SparseBuilder};
