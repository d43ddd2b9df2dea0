//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <kv-read|kv-write|engine-pq> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload beside idle-priority spinners (see
//! [`perfbench::with_idle_spinners`]). Prints a header line
//! (`{"perfbench": {...}}`: revision, build profile, `nproc`, spinners,
//! seed, run counts, sample count, per-second slices, check failures) and
//! then, as the last line, the result object. Exits 0 only for a correct
//! run.

use std::process::ExitCode;

use perfbench::{json, RunOpts, Workload, END_TO_END, LOAD_THREADS, PER_LAYER};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Revision of the tree the benchmark runs in, if it is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn header(a: &Args, spinners: usize, report: &perfbench::Report) -> String {
    let mut h = String::from("{\"perfbench\": {\"schema\": 1, \"workload\": ");
    json::write_str(&mut h, a.workload.name());
    h.push_str(", \"git_rev\": ");
    json::write_str(&mut h, &git_rev());
    h.push_str(&format!(
        ", \"profile\": \"{}\", \"nproc\": {}, \"load_threads\": {LOAD_THREADS}, \"idle_spinners\": {spinners}, \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"setup_runs\": {}, \"timed_runs\": 1, \
         \"latency_samples\": {}, \"slices\": {:?}, \"errors\": [",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        a.seed,
        a.seconds,
        a.trace,
        report.setup_runs,
        report.samples,
        report.slices,
    ));
    for (i, e) in report.errors.iter().enumerate() {
        if i > 0 {
            h.push_str(", ");
        }
        json::write_str(&mut h, e);
    }
    h.push_str("]}}");
    h
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts::for_seconds(args.seed, args.seconds, args.trace);
    let (report, spinners) = perfbench::with_idle_spinners(|| args.workload.run(&opts));
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", header(&args, spinners, &report));
    println!(
        "{}",
        report.result_line(if args.trace { PER_LAYER } else { END_TO_END })
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
