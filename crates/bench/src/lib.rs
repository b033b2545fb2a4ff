//! Shared helpers for the SeGShare benchmark harness (see the `bin`
//! targets and `benches/`).
pub mod harness;
pub mod history;
pub mod json;
pub mod tcb;
