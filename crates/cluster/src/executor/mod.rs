//! Stage executors.
//!
//! A distributed job is a sequence of *stages* (Spark's unit of scheduling
//! between shuffles). Both executors consume the same stage structure:
//!
//! * [`real`] — threads + serialized blocks; validates correctness and
//!   measures real communication at laptop scale;
//! * [`sim`] — virtual time + resource models; reproduces the paper-scale
//!   experiments, including failure modes.

pub mod real;
pub mod sim;
