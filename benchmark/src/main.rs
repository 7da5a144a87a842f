//! `xqjg-benchmark run|repeat` — see `benchmark/README.md`.

use std::process::{Command, ExitCode};

use xqjg_benchmark::repeat::repeat;
use xqjg_benchmark::run::{run, Machine, Options, Report, Stop};
use xqjg_benchmark::spec::{workload, Workload, SMOKE_CYCLES, WORKLOADS};

const USAGE: &str =
    "usage: xqjg-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       xqjg-benchmark repeat [--sets K] [--seed N] [--seconds S] [--smoke]
workloads: adhoc_small prepared_large uncached_mid serve_mix (default: all, untraced then traced)";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    command: String,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    let mut args = Args {
        command: it.next().ok_or(USAGE)?,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        sets: 5,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workload(&name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--sets" => args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--smoke" => args.smoke = true,
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                args.trace = Some(match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                })
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The commit measured, when the checkout is a git repository.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every metric by name with its unit, then the result line.
fn print_report(opts: &Options, report: &Report, revision: &str) {
    let machine = Machine::detect();
    println!(
        "# workload={} trace={} seed={} stop={:?} cores={} threads={} clients={} doc_rows={} rev={revision}",
        opts.workload.name,
        u8::from(opts.trace),
        opts.seed,
        opts.stop,
        machine.cores,
        machine.threads,
        report.clients,
        report.doc_rows,
    );
    for m in &report.metrics {
        match m.samples {
            Some(n) => println!("metric {} {} {} n={n}", m.name, m.value, m.unit),
            None => println!("metric {} {} {}", m.name, m.value, m.unit),
        }
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    // Knobs are pinned in code; the environment must not move them.
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("XQJG_") {
            std::env::remove_var(var);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "run" => run_command(&args),
        "repeat" => {
            let mut pass = vec!["--seconds".to_string(), args.seconds.to_string()];
            if args.smoke {
                pass.push("--smoke".to_string());
            }
            repeat(args.sets, args.seed, &pass).map(|()| true)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("xqjg-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Run the chosen workload and mode, or all of them.  `Ok(false)` when a
/// run finished but must not pass.
fn run_command(args: &Args) -> Result<bool, String> {
    let revision = git_revision();
    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let modes = match args.trace {
        Some(trace) => vec![trace],
        None => vec![false, true],
    };
    let mut clean = true;
    for workload in workloads {
        for &trace in &modes {
            let opts = Options {
                workload,
                seed: args.seed,
                stop: if args.smoke {
                    Stop::Cycles(SMOKE_CYCLES)
                } else {
                    Stop::Seconds(args.seconds)
                },
                trace,
                smoke: args.smoke,
            };
            let report = run(&opts).map_err(|e| format!("{}: {e}", workload.name))?;
            print_report(&opts, &report, &revision);
            for problem in &report.problems {
                eprintln!("xqjg-benchmark: {}: {problem}", workload.name);
                clean = false;
            }
        }
    }
    Ok(clean)
}
