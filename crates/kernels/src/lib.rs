//! Micro-kernel framework for small-scale GEMM.
//!
//! Three views of the same micro-kernel concept:
//!
//! * [`native`] — host-executed register-tile kernels (real
//!   arithmetic): a runtime-dispatched AVX2+FMA kernel with a portable
//!   fused fallback that rounds identically, validated against a
//!   reference triple loop;
//! * [`trace_gen`] — ARMv8-like instruction streams for the
//!   `smm-simarch` Phytium 2000+ model, parameterized by the scheduling
//!   policies the paper contrasts (Fig. 7);
//! * [`registry`] — the per-library kernel configurations of Table I
//!   and the edge-case decomposition machinery of §III-B.
//!
//! The element type abstraction lives in [`scalar`]; kernel shape
//! metadata in [`descriptor`].

#![deny(missing_docs)]

pub mod descriptor;
pub mod native;
pub mod registry;
pub mod scalar;
pub mod trace_gen;

pub use descriptor::{BLoadStyle, MicroKernelDesc, SchedulePolicy};
pub use native::{BLayout, Kernel, KernelRef, KernelRegistry};
pub use registry::{EdgeStrategy, LibraryProfile, TileSpan};
pub use scalar::Scalar;
pub use smm_model::VectorIsa;
pub use trace_gen::{emit_kernel, kernel_trace, KernelTraceParams};
