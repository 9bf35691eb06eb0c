//! The workspace benchmark: one command, four workloads, every answer
//! checked.
//!
//! ```text
//! perfbench --workload <serve_cold|serve_hot|trace_check|memsim_sweep>
//!           --seed N --seconds S --trace <0|1> --daemon PATH
//!           [--smoke] [--expected-dir DIR] [--work-dir DIR]
//! perfbench gen-expected [--expected-dir DIR]
//! ```
//!
//! `--trace 0` drives the real system (a `wo_serve` daemon over TCP, the
//! trace checker on a file, the memsim sweep engine) and prints the
//! end-to-end metrics. `--trace 1` additionally replays the same
//! generated inputs in-process through each layer's public functions,
//! timing every call from here, and prints the per-layer metrics. The
//! last stdout line is the result object; the line before it carries the
//! environment, per-metric spreads and self times.
//!
//! Exit status: 0 when every output check passed, 1 on a wrong answer or
//! a failed run, 2 on bad arguments. `perfbench/run.py` builds this
//! binary and the daemon from source and passes `--daemon`.

mod expected;
mod measure;
mod memsim_wl;
mod serve_wl;
mod trace_wl;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use measure::{jstr, num, Tracer};

/// End-to-end metrics: name, unit. Printed on every workload with
/// `--trace 0`; `perfbench/README.md` documents what each means per
/// workload. Times are CPU time of the serving or checking process, which
/// outside load on a shared machine does not stretch; wall-clock figures
/// go to the detail line.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cpu_ms_per_query", "ms"),
    ("query_cpu_p50_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("correct_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Layer calls timed by the traced run. Each reports `.calls`,
/// `.total_s`, `.p50_us` and `.p99_us`. The memsim layers are reported
/// in the detail line of `memsim_sweep`, which `BENCHMARK.json` leaves
/// out (see `perfbench/README.md`).
pub const TIMED_CALLS: [&str; 16] = [
    "serve.protocol.decode",
    "litmus.parse",
    "serve.canon.canonicalize",
    "serve.cache.lookup",
    "serve.compute_answer",
    "axiom.decide_drf0",
    "axiom.analyze",
    "explore.dpor",
    "explore.converged",
    "serve.journal.append",
    "serve.translate_races",
    "serve.protocol.encode",
    "memsim.trace.decode",
    "trace.ingest",
    "trace.end_segment",
    "trace.finish",
];

/// Counts and ratios of the traced run, with their units.
pub const LAYER_COUNTS: [(&str, &str); 14] = [
    ("axiom.work", "count"),
    ("axiom.accept_ratio", "ratio"),
    ("explore.dpor.steps", "count"),
    ("explore.converged.steps", "count"),
    ("serve.cache_hits", "count"),
    ("serve.explored", "count"),
    ("serve.coalesced", "count"),
    ("serve.coalesced_in_batch", "count"),
    ("serve.unattributed_us", "us"),
    ("trace.shard_speedup", "ratio"),
    ("trace.events", "count"),
    ("trace.sync_events", "count"),
    ("trace.races", "count"),
    ("trace.state_high_water_bytes", "bytes"),
];

pub const WORKLOADS: [&str; 4] = ["serve_cold", "serve_hot", "trace_check", "memsim_sweep"];

/// Command-line settings shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub daemon: Option<PathBuf>,
    pub expected_dir: PathBuf,
    pub work_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Default)]
pub struct RunOutput {
    /// Operations attempted (queries, checks, cells).
    pub attempted: u64,
    /// Errors, refusals, wrong answers and aborted cells.
    pub failed: u64,
    /// Human-readable description of each wrong answer (first few).
    pub wrong: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Samples behind the end-to-end metrics, for the spread report.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Extra JSON fields for the detail line.
    pub notes: Vec<(String, String)>,
}

impl RunOutput {
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> --daemon PATH \
         [--smoke] [--expected-dir DIR] [--work-dir DIR]\n       perfbench gen-expected [--expected-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(raw: Vec<String>) -> Args {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        daemon: None,
        expected_dir: PathBuf::from("perfbench/expected"),
        work_dir: target.join("perfbench-work"),
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload"),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                args.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => args.smoke = true,
            "--daemon" => args.daemon = Some(PathBuf::from(value("--daemon"))),
            "--expected-dir" => args.expected_dir = PathBuf::from(value("--expected-dir")),
            "--work-dir" => args.work_dir = PathBuf::from(value("--work-dir")),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

/// Output of a command, trimmed, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("gen-expected") {
        let args = parse_args(raw[1..].to_vec());
        return match expected::generate_all(&args.expected_dir, &args.work_dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: gen-expected: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = parse_args(raw);
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload is required");
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }

    let mut tracer = if args.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let result = match args.workload.as_str() {
        "serve_cold" | "serve_hot" => serve_wl::run(&args, &mut tracer),
        "trace_check" => trace_wl::run(&args, &mut tracer),
        _ => memsim_wl::run(&args, &mut tracer),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for w in &out.wrong {
        eprintln!("perfbench: wrong answer: {w}");
    }
    let correct = out.wrong.is_empty() && out.attempted > 0;

    // Detail line: environment, spreads, notes, and (traced) self times.
    let mut detail = vec![
        ("workload".to_string(), jstr(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), num(args.seconds)),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("smoke".to_string(), args.smoke.to_string()),
        ("nproc".to_string(), nproc().to_string()),
        (
            "git_rev".to_string(),
            jstr(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".to_string(),
            jstr(&command_line("rustc", &["--version"])),
        ),
    ];
    let spreads: Vec<String> = out
        .samples
        .iter()
        .map(|(name, s)| format!("{}: {}", jstr(name), measure::spread_json(s)))
        .collect();
    detail.push(("spread".to_string(), format!("{{{}}}", spreads.join(", "))));
    detail.extend(out.notes.iter().cloned());

    let mut metrics = Vec::new();
    if args.trace {
        let spans_path = args
            .work_dir
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match tracer.write_spans(&spans_path) {
            Ok(()) => detail.push((
                "spans_file".to_string(),
                jstr(&spans_path.display().to_string()),
            )),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
        detail.push(("spans_kept".to_string(), tracer.kept_spans().to_string()));
        detail.push((
            "spans_dropped".to_string(),
            tracer.dropped_spans().to_string(),
        ));
        let self_times: Vec<String> = tracer
            .self_times()
            .iter()
            .map(|(n, s)| format!("{}: {}", jstr(n), num(*s)))
            .collect();
        detail.push((
            "self_time_s".to_string(),
            format!("{{{}}}", self_times.join(", ")),
        ));
        for name in TIMED_CALLS {
            let (calls, total, p50, p99) = tracer.summary(name);
            metrics.push((format!("{name}.calls"), calls, "count"));
            metrics.push((format!("{name}.total_s"), total, "s"));
            metrics.push((format!("{name}.p50_us"), p50, "us"));
            metrics.push((format!("{name}.p99_us"), p99, "us"));
        }
        for (name, unit) in LAYER_COUNTS {
            metrics.push((name.to_string(), tracer.get(name), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let Some(&v) = out.e2e.get(name) else {
                eprintln!("perfbench: internal error: metric {name} not measured");
                return ExitCode::FAILURE;
            };
            metrics.push((name.to_string(), v, unit));
        }
    }

    let fields: Vec<String> = detail
        .iter()
        .map(|(k, v)| format!("{}: {v}", jstr(k)))
        .collect();
    println!("{{\"detail\": {{{}}}}}", fields.join(", "));
    let metric_fields: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(n),
                num(*v),
                jstr(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metric_fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
