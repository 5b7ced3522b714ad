//! The benchmark's name for [`crate::real_exec::multiply`]: there is one
//! executor, and it lives in [`crate::real_exec`].

pub use crate::real_exec::multiply as multiply_pipelined;
