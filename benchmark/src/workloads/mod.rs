//! The four workloads. Each `run` is one repeat: fresh device, set-up,
//! timed window, oracle and recovery check.

pub mod point_uniform;
pub mod scale_zipf;
pub mod service_open;
pub mod write_churn;
