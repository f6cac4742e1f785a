//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <wire-small|wire-batch|tenant-day> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one measured phase runs and the last stdout line is the
//! JSON result with every end-to-end metric. With `--trace 1` a shorter
//! untraced phase runs first, then a traced phase of the full length that
//! records spans around the calls into each layer; the result carries
//! every per-layer metric and `trace.overhead`, the traced phase's extra
//! wall time per unit of work over the untraced one. Every phase runs the
//! correctness, leak and accounting gates; any failure exits non-zero
//! without printing a result. `RATIONALE.md` explains the workloads and
//! metrics; `run.py` builds this package and runs it.

mod day;
mod gen;
mod host;
mod report;
mod spans;
mod stats;
mod wire;

use std::process::ExitCode;

use report::{Metric, Outcome};

/// Where spans and result records are written, relative to the working
/// directory (the repository root when started by `run.py`).
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WireSmall,
    WireBatch,
    TenantDay,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "wire-small" => Workload::WireSmall,
            "wire-batch" => Workload::WireBatch,
            "tenant-day" => Workload::TenantDay,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire-small",
            Workload::WireBatch => "wire-batch",
            Workload::TenantDay => "tenant-day",
        }
    }

    fn run(self, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
        match self {
            Workload::WireSmall => {
                wire::run(gen::Shape::Small, seed, seconds, traced).map_err(|e| e.to_string())
            }
            Workload::WireBatch => {
                wire::run(gen::Shape::Batch, seed, seconds, traced).map_err(|e| e.to_string())
            }
            Workload::TenantDay => day::run(seed, seconds, traced),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 30, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Writes a traced phase's spans to `.bench_out/spans-<workload>.csv`.
pub fn write_spans(workload: &str, all: &[spans::Span]) {
    let dir = std::path::Path::new(OUT_DIR);
    let path = dir.join(format!("spans-{workload}.csv"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| spans::write_csv(&path, all)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn provenance(args: &Args, workers: usize) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let fields = [
        ("workload", report::json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", host::nproc().to_string()),
        ("target", report::json_str(env!("PERFBENCH_TARGET"))),
        ("profile", report::json_str("release")),
        ("server_workers", workers.to_string()),
        ("server_addr", report::json_str("127.0.0.1 (loopback)")),
        ("git_commit", report::json_str(&env("PERFBENCH_GIT_COMMIT"))),
        (
            "source_digest",
            report::json_str(&env("PERFBENCH_SOURCE_DIGEST")),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", report::json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "#   {:<30} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn fail(workload: Workload, phase: &str, failures: &[String]) -> ExitCode {
    eprintln!(
        "perfbench: {} {phase} phase failed {} check(s):",
        workload.name(),
        failures.len()
    );
    for f in failures {
        eprintln!("  - {f}");
    }
    ExitCode::from(1)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // With tracing on, the untraced phase is only the reference for
    // `trace.overhead` and `host.cpu_util`; both are per unit of work, so a
    // quarter of the run suffices.
    let plain_seconds = if args.trace {
        (args.seconds / 4).max(1)
    } else {
        args.seconds
    };
    let plain = match args.workload.run(args.seed, plain_seconds, false) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    if !plain.failures.is_empty() {
        return fail(args.workload, "untraced", &plain.failures);
    }
    println!("# provenance {}", provenance(&args, plain.server_workers));
    print_metrics("end-to-end (untraced)", &plain.end_to_end);
    println!(
        "#   {:<30} {:>16.6} {:<6} ({} of {} requests)",
        "error_rate",
        plain.error_rate(),
        "ratio",
        plain.failed,
        plain.attempted
    );
    if !args.trace {
        println!(
            "{}",
            report::result_line(plain.attempted, plain.failed, &plain.end_to_end)
        );
        return ExitCode::SUCCESS;
    }

    let traced = match args.workload.run(args.seed, args.seconds, true) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {} traced set-up failed: {e}",
                args.workload.name()
            );
            return ExitCode::from(1);
        }
    };
    if !traced.failures.is_empty() {
        return fail(args.workload, "traced", &traced.failures);
    }
    let mut per_layer = traced.per_layer.clone();
    per_layer.push(Metric::new("host.cpu_util", plain.cpu_util, "ratio", 1));
    per_layer.push(Metric::new(
        "trace.overhead",
        traced.seconds_per_unit / plain.seconds_per_unit - 1.0,
        "ratio",
        1,
    ));
    print_metrics("end-to-end (traced)", &traced.end_to_end);
    print_metrics("per-layer (traced)", &per_layer);
    println!("# shares");
    for (what, share) in &traced.shares {
        println!("#   {what:<40} {share:>8.4}");
    }
    println!(
        "{}",
        report::result_line(
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            &per_layer
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload tenant-day --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::TenantDay);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload wire-small --trace 2").is_err());
    }
}
