//! Support primitives for the fgfft workspace.
//!
//! The workspace is built and tested in hermetic environments with no access
//! to crates.io, so the external crates the workspace would otherwise use are
//! replaced by small, dependency-free equivalents: parking_lot's locks
//! (`sync`), crossbeam's spin `Backoff` (`backoff`), rand (`rng`),
//! serde_json (`json`) and criterion (`bench`). Each module documents which
//! upstream API it mirrors; the mirrored subset is exactly what the
//! workspace uses, no more.

pub mod backoff;
pub mod bench;
pub mod json;
pub mod rng;
pub mod shm;
pub mod sync;
