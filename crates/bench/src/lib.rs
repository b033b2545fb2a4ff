//! The SeGShare benchmark harness: one program (`perf_gate`) that runs
//! the [`sections`] table and writes the gate's verdict,
//! `BENCH_perf.json`, the `BENCH_history.jsonl` row and every file under
//! `results/`.
pub mod harness;
pub mod history;
pub mod json;
pub mod sections;
pub mod tcb;
