//! segbench: four closed-loop workloads over the real TCP path, with
//! per-layer attribution measured from outside. See `README.md`.

mod gen;
mod metrics;
mod probe;
mod proc;
mod rig;
mod run;
mod stats;
mod trace;
mod traced;

use std::io::Write;
use std::process::ExitCode;

use gen::{Spec, SPECS};

const USAGE: &str = "usage: segbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                [--setups N] [--tsv FILE] [--glossary] [--emit-benchmark-json]
                [--flip-expected]

  no --workload     run all four workloads
  --seed N          generator seed (default 1); drives paths, op order, bodies
  --seconds S       measured window, cut into twelve slices (default 30)
  --trace 1         the traced run: fixed op count in passes 0-3, per-layer metrics
  --setups N        set up N times and report the median (default 3; 1 for share_cold, durable_16k)
  --tsv FILE        also append `workload metric value unit better bound` lines to FILE
  --glossary        print every metric: name, unit, direction, bound, how it is taken
  --flip-expected   test only: flip one byte of one expected body; must exit non-zero";

struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
    tsv: Option<String>,
    flip: bool,
    setups: Option<usize>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: SPECS.iter().collect(),
        seed: 1,
        seconds: 30,
        trace: false,
        tsv: None,
        flip: false,
        setups: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let spec = Spec::by_name(&name).ok_or(format!("unknown workload {name}"))?;
                args.workloads = vec![spec];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tsv" => args.tsv = Some(value("a file")?),
            "--setups" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--setups: {e}"))?;
                args.setups = Some(n.max(1));
            }
            "--flip-expected" => args.flip = true,
            "--emit-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            "--glossary" => {
                print!("{}", metrics::glossary());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("segbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "segbench: closed loop, one generator process, loopback TCP (not a real link), {cores} cores available, reactor at its default worker count"
    );
    let (mut attempted, mut failed, mut all_metrics) = (0, 0, Vec::new());
    for spec in &args.workloads {
        println!(
            "\n== {} ({}) seed {} gen.sequence_hash {:016x}",
            spec.name,
            if args.trace { "traced" } else { "untraced" },
            args.seed,
            spec.sequence_hash(args.seed)
        );
        let run = || {
            // One connection keeps one thread busy at a time: give it one CPU.
            match (spec.lanes == 1).then(proc::pin_to_one_cpu).flatten() {
                Some(cpu) => println!("  placement: every thread pinned to CPU {cpu}"),
                None => println!("  placement: unpinned, {} generator threads", spec.lanes),
            }
            if args.trace {
                traced::run_traced(spec, args.seed)
            } else {
                run::run_untraced(
                    spec,
                    args.seed,
                    args.seconds,
                    args.setups.unwrap_or(spec.setups),
                    args.flip,
                )
            }
        };
        // A thread per workload, so that pinning one does not pin the next.
        let result = std::thread::scope(|s| s.spawn(run).join())
            .unwrap_or_else(|_| Err("the workload's thread panicked".to_string()));
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                eprintln!("segbench: {}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        for (name, value) in &outcome.metrics {
            println!("{name:<34} {value:>16.6} {}", metrics::unit(name));
        }
        for note in &outcome.notes {
            println!("  {note}");
        }
        println!(
            "attempted {} failed {} fail_share {:.6} noisy {}",
            outcome.attempted,
            outcome.failed,
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.noisy
        );
        if let Some(path) = &args.tsv {
            if let Err(e) = append_tsv(path, spec.name, &outcome, args.trace) {
                eprintln!("segbench: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        all_metrics = outcome.metrics;
    }
    // The driver's line: one workload per invocation, so the metrics of
    // the last workload run are the metrics of the invocation.
    println!(
        "{}",
        metrics::result_json(failed == 0, attempted.max(1), failed, &all_metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Appends `workload metric value unit better bound` lines; the bound
/// column reads `exact` for counts that must repeat and `-` for metrics
/// that are reported only (`repeat.sh` reads these).
fn append_tsv(
    path: &str,
    workload: &str,
    outcome: &run::Outcome,
    trace: bool,
) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for (name, value) in &outcome.metrics {
        let (unit, better, bound, _) = metrics::describe(name);
        writeln!(f, "{workload}\t{name}\t{value}\t{unit}\t{better}\t{bound}")?;
    }
    let prefix = if trace { "trace." } else { "" };
    writeln!(
        f,
        "{workload}\t{prefix}failed\t{}\tcount\tlower\t-",
        outcome.failed
    )?;
    writeln!(
        f,
        "{workload}\t{prefix}noisy\t{}\tcount\tlower\t-",
        u8::from(outcome.noisy)
    )
}
