//! wo-trace streaming-checker benchmark: events/sec through the
//! incremental DRF0 engine, written to `BENCH_trace.json`.
//!
//! Three phases over a deterministic synthetic stream
//! ([`wo_trace::synth::SynthStream`]) plus a simulate→file→verdict
//! pipeline:
//!
//! * **memory** — `check_ops` over the materialized stream: the raw
//!   per-event cost of the vector-clock engine (probe / join / epoch
//!   check / tick / publish);
//! * **file** — the same stream written as a trace file and checked with
//!   `check_trace_file`: decoding plus checking, the `wo_trace check`
//!   path. Its canonical report must be **byte-identical** to the
//!   in-memory report (the bench exits nonzero on any divergence);
//! * **pipeline** — `memsim::sweep::sweep_traced` writes a multi-segment
//!   trace file, `check_trace_file` streams it back: end-to-end
//!   simulate → serialize → deserialize → verdict throughput.
//!
//! Usage:
//!
//! ```text
//! trace_bench [--smoke] [--events N] [--out PATH]
//!   --smoke     CI variant: smaller stream, fewer pipeline seeds
//!   --events N  synthetic events in the memory/file phases
//!   --out PATH  where to write the JSON (default BENCH_trace.json)
//! ```

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use litmus::corpus;
use memsim::{presets, sweep, TraceWriter};
use wo_bench::table;
use wo_trace::synth::{SynthConfig, SynthStream};
use wo_trace::{check_ops, check_trace_file, write_synth, CheckerConfig, Verdict};

struct Args {
    smoke: bool,
    events: u64,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false, events: 4_000_000, out: PathBuf::from("BENCH_trace.json") };
    let mut events_set = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--events" => {
                args.events = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--events needs a number"));
                events_set = true;
            }
            "--out" => {
                args.out = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--out needs a path"));
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if args.smoke && !events_set {
        args.events = 400_000;
    }
    args
}

fn usage(err: &str) -> ! {
    eprintln!("trace_bench: {err}");
    eprintln!("usage: trace_bench [--smoke] [--events N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let synth = SynthConfig {
        events: args.events,
        procs: 8,
        locations: 1 << 14,
        sync_locations: 128,
        sync_percent: 10,
        racy_percent: 0,
        seed: 0xBE7C,
    };
    // Materialize the stream once so the phases time checking, not
    // generation.
    let ops: Vec<_> = SynthStream::new(synth).collect();

    // ---- memory: the materialized stream through `check_ops`.
    let mem_t0 = Instant::now();
    let memory = check_ops(&ops, synth.procs, CheckerConfig::default()).expect("in-memory check");
    let mem_secs = mem_t0.elapsed().as_secs_f64();
    let mem_eps = ops.len() as f64 / mem_secs.max(1e-9);
    assert_eq!(memory.verdict, Verdict::Drf0, "the locked synth stream must be clean");

    // ---- file: the same stream as a trace file, decoded and checked.
    let synth_path =
        std::env::temp_dir().join(format!("wo-trace-bench-synth-{}.wot", std::process::id()));
    let file = std::fs::File::create(&synth_path).expect("create synth trace file");
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file)).expect("trace writer");
    write_synth(synth, "synth", &mut writer).expect("write synth trace");
    writer.finish().expect("finish trace").flush().expect("flush trace");
    let file_t0 = Instant::now();
    let from_file =
        check_trace_file(&synth_path, CheckerConfig::default()).expect("file check");
    let file_secs = file_t0.elapsed().as_secs_f64();
    let file_eps = from_file.events as f64 / file_secs.max(1e-9);
    let _ = std::fs::remove_file(&synth_path);

    // The file path must report exactly what the in-memory path does.
    if from_file.canonical_text() != memory.canonical_text() {
        eprintln!("FATAL: the trace-file report diverged from the in-memory report");
        eprintln!("--- memory ---\n{}", memory.canonical_text());
        eprintln!("--- file ---\n{}", from_file.canonical_text());
        std::process::exit(1);
    }

    // ---- pipeline: simulate → trace file → streamed verdict.
    let seeds: u64 = if args.smoke { 4 } else { 16 };
    let program = corpus::fig3_handoff(1);
    let cells: Vec<sweep::Cell> = (0..seeds)
        .map(|seed| sweep::Cell {
            program: &program,
            config: presets::network_cached(2, presets::wo_def2(), seed),
        })
        .collect();
    let trace_path = std::env::temp_dir().join(format!("wo-trace-bench-{}.wot", std::process::id()));
    let pipe_t0 = Instant::now();
    let file = std::fs::File::create(&trace_path).expect("create trace file");
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file)).expect("trace writer");
    sweep::sweep_traced(&cells, 0, &mut writer).expect("traced sweep");
    writer.finish().expect("finish trace").flush().expect("flush trace");
    let sim_secs = pipe_t0.elapsed().as_secs_f64();
    let check_t0 = Instant::now();
    let pipeline =
        check_trace_file(&trace_path, CheckerConfig::default()).expect("pipeline check");
    let check_secs = check_t0.elapsed().as_secs_f64();
    let trace_bytes = std::fs::metadata(&trace_path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&trace_path);
    assert_eq!(pipeline.verdict, Verdict::Drf0, "fig3 hand-off under wo-def2 must be clean");
    assert_eq!(pipeline.segments, seeds, "one trace segment per sweep cell");
    let pipe_eps = pipeline.events as f64 / check_secs.max(1e-9);

    // ---- report.
    let rows = vec![
        vec![
            "memory (check_ops)".into(),
            format!("{}", ops.len()),
            format!("{mem_secs:.3}"),
            format!("{:.2}M", mem_eps / 1e6),
        ],
        vec![
            "file (read+check)".into(),
            format!("{}", from_file.events),
            format!("{file_secs:.3}"),
            format!("{:.2}M", file_eps / 1e6),
        ],
        vec![
            "pipeline (read+check)".into(),
            format!("{}", pipeline.events),
            format!("{check_secs:.3}"),
            format!("{:.2}M", pipe_eps / 1e6),
        ],
    ];
    println!("{}", table(&["phase", "events", "seconds", "events/sec"], &rows));
    println!(
        "state high-water: {} tracked locations, {} sync locations, ~{} KiB",
        memory.tracked_locations_high_water,
        memory.sync_locations_high_water,
        memory.approx_state_bytes_high_water / 1024
    );
    println!(
        "pipeline: {seeds} simulated runs traced to {trace_bytes} bytes in {sim_secs:.3}s, verdict {}",
        pipeline.verdict
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"workload\": \"trace-synth-locked\",");
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"events\": {},", ops.len());
    let _ = writeln!(json, "  \"procs\": {},", synth.procs);
    let _ = writeln!(json, "  \"locations\": {},", synth.locations);
    let _ = writeln!(json, "  \"sync_percent\": {},", synth.sync_percent);
    let _ = writeln!(json, "  \"memory\": {{");
    let _ = writeln!(json, "    \"seconds\": {mem_secs:.6},");
    let _ = writeln!(json, "    \"events_per_sec\": {mem_eps:.0},");
    let _ = writeln!(json, "    \"verdict\": \"{}\",", memory.verdict);
    let _ = writeln!(
        json,
        "    \"approx_state_bytes_high_water\": {}",
        memory.approx_state_bytes_high_water
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"file\": {{");
    let _ = writeln!(json, "    \"seconds\": {file_secs:.6},");
    let _ = writeln!(json, "    \"events_per_sec\": {file_eps:.0},");
    let _ = writeln!(json, "    \"report_identical_to_memory\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"pipeline\": {{");
    let _ = writeln!(json, "    \"segments\": {},", pipeline.segments);
    let _ = writeln!(json, "    \"events\": {},", pipeline.events);
    let _ = writeln!(json, "    \"trace_bytes\": {trace_bytes},");
    let _ = writeln!(json, "    \"simulate_seconds\": {sim_secs:.6},");
    let _ = writeln!(json, "    \"check_seconds\": {check_secs:.6},");
    let _ = writeln!(json, "    \"events_per_sec\": {pipe_eps:.0},");
    let _ = writeln!(json, "    \"verdict\": \"{}\"", pipeline.verdict);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(&args.out, &json).expect("write BENCH_trace.json");
    println!("wrote {}", args.out.display());
}
