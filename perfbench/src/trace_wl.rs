//! `trace_check`: `wo_trace check` with the default `CheckerConfig` on a
//! trace file written in set-up.
//!
//! The file holds [`SEGMENTS`] synthetic executions over [`PROCS`]
//! processors. All but one follow a locking discipline and are DRF0 by
//! construction; one racy segment has its locations shifted by
//! [`RACY_LOC_OFFSET`], so every reported race must lie in that segment's
//! range. The workload seed picks one of [`POOL`] recorded traces.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

use memory_model::{Loc, Operation};
use memsim::{TraceItem, TraceReader, TraceWriter};
use wo_trace::{
    check_trace_file, CheckerConfig, StreamChecker, SynthConfig, SynthStream, TraceReport, Verdict,
};

use crate::expected;
use crate::measure::{cpu_seconds, fnv1a64, median, mix, peak_rss_mb, Tracer};
use crate::{Args, RunOutput};

/// Recorded traces the workload seed chooses from.
pub const POOL: u64 = 64;
const SEGMENTS: u64 = 8;
const PROCS: u16 = 8;
const EVENTS_PER_SEGMENT: u64 = 1 << 16;
const EVENTS_PER_SEGMENT_SMOKE: u64 = 1 << 13;
/// Location shift of the racy segment.
const RACY_LOC_OFFSET: u32 = 1 << 20;
const SETUP_REPS: usize = 9;
/// Alternating timings per side of `trace.shard_speedup`.
const SPEEDUP_REPS: usize = 3;

fn events_per_segment(smoke: bool) -> u64 {
    if smoke {
        EVENTS_PER_SEGMENT_SMOKE
    } else {
        EVENTS_PER_SEGMENT
    }
}

/// Index of the racy segment of trace `k`.
fn racy_segment(k: u64) -> u64 {
    mix(k, 99) % SEGMENTS
}

/// Writes trace `k` of the pool to `path`; returns the event count.
pub fn write_trace(path: &Path, smoke: bool, k: u64) -> std::io::Result<u64> {
    let mut w = TraceWriter::new(BufWriter::new(File::create(path)?))?;
    let mut events = 0;
    for i in 0..SEGMENTS {
        let racy = i == racy_segment(k);
        let cfg = SynthConfig {
            procs: PROCS,
            locations: 1 << 12,
            sync_locations: 64,
            events: events_per_segment(smoke),
            sync_percent: 10,
            racy_percent: if racy { 1 } else { 0 },
            seed: mix(mix(k, i), 7),
        };
        w.begin_segment(PROCS, false, &format!("segment{i}"))?;
        for op in SynthStream::new(cfg) {
            let op = if racy {
                Operation {
                    loc: Loc(op.loc.0 + RACY_LOC_OFFSET),
                    ..op
                }
            } else {
                op
            };
            w.write_op(&op)?;
            events += 1;
        }
        w.end_segment()?;
    }
    w.finish()?.flush()?;
    Ok(events)
}

/// The recorded hash of trace `k`: one shard, one thread.
pub fn reference_hash(path: &Path, smoke: bool, k: u64) -> Result<u64, String> {
    write_trace(path, smoke, k).map_err(|e| e.to_string())?;
    let cfg = CheckerConfig {
        shards: 1,
        threads: 1,
        ..CheckerConfig::default()
    };
    let report = check_trace_file(path, cfg).map_err(|e| e.to_string())?;
    Ok(fnv1a64(report.canonical_text().as_bytes()))
}

/// Checks a report against the trace's construction and recorded hash.
fn verify(report: &TraceReport, events: u64, hash: u64) -> Result<(), String> {
    if report.verdict != Verdict::Racy {
        return Err(format!(
            "verdict {}, but one segment is racy by construction",
            report.verdict
        ));
    }
    if report.segments != SEGMENTS || report.events != events || report.dropped_events != 0 {
        return Err(format!(
            "checked {} segments / {} events (dropped {}), wrote {SEGMENTS} / {events}",
            report.segments, report.events, report.dropped_events
        ));
    }
    if let Some((loc, _)) = report
        .racy_locations
        .iter()
        .find(|(l, _)| l.0 < RACY_LOC_OFFSET)
    {
        return Err(format!(
            "race on {loc:?} in a segment that is DRF0 by construction"
        ));
    }
    let got = fnv1a64(report.canonical_text().as_bytes());
    if got != hash {
        return Err(format!("report hash {got:016x}, recorded {hash:016x}"));
    }
    Ok(())
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<RunOutput, String> {
    let k = args.seed % POOL;
    let hash = *expected::load_trace(&args.expected_dir)?
        .get(&(args.smoke, k))
        .ok_or_else(|| format!("no recorded hash for trace {k}"))?;
    let path = args
        .work_dir
        .join(format!("trace-{}.wot", std::process::id()));
    let mut out = RunOutput::default();

    let mut setup_times = Vec::new();
    let mut events = 0;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        events = write_trace(&path, args.smoke, k).map_err(|e| format!("write trace: {e}"))?;
        setup_times.push(t.elapsed().as_secs_f64());
    }

    let result = if args.trace {
        traced(tracer, &path, events, hash, &mut out)
    } else {
        measured(args, &path, events, hash, &mut out)
    };
    let _ = std::fs::remove_file(&path);
    result?;
    out.e2e.insert("setup_s", median(&setup_times));
    out.samples.insert("setup_s", setup_times);
    Ok(out)
}

fn measured(
    args: &Args,
    path: &Path,
    events: u64,
    hash: u64,
    out: &mut RunOutput,
) -> Result<(), String> {
    let (mut times, mut cpu) = (Vec::new(), Vec::new());
    let mut decided = 0u64;
    // The high-water mark once the file has been checked once, as in one
    // `wo_trace check` process. Later checks in this process raise it by
    // an amount that differs from run to run, even on the same trace.
    let mut peak_rss = None;
    let t0 = Instant::now();
    while times.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let (t, c) = (Instant::now(), cpu_seconds(None)?);
        let report = check_trace_file(path, CheckerConfig::default());
        cpu.push((cpu_seconds(None)? - c) * 1e3);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if peak_rss.is_none() {
            peak_rss = peak_rss_mb("self");
        }
        out.attempted += 1;
        match report {
            Ok(report) => {
                decided += u64::from(matches!(report.verdict, Verdict::Drf0 | Verdict::Racy));
                if let Err(e) = verify(&report, events, hash) {
                    out.wrong(e);
                }
            }
            Err(e) => out.wrong(format!("check failed: {e}")),
        }
    }
    // CPU time of the checking process (all its threads) per check: the
    // wall time of a check swings with outside load on a shared machine,
    // the CPU it takes does not. Wall times go to the detail line.
    let checks = times.len() as f64;
    out.e2e
        .insert("cpu_ms_per_query", cpu.iter().sum::<f64>() / checks);
    out.e2e.insert("query_cpu_p50_ms", median(&cpu));
    out.e2e.insert("decided_ratio", decided as f64 / checks);
    out.e2e
        .insert("correct_ratio", 1.0 - out.failed as f64 / checks);
    out.e2e.insert("peak_rss_mb", peak_rss.unwrap_or(0.0));
    out.samples.insert("check_cpu_ms", cpu);
    out.notes.push((
        "wall".into(),
        format!(
            "{{\"checks_per_s\": {}, \"events_per_s\": {}}}",
            1e3 / median(&times),
            events as f64 * 1e3 / median(&times)
        ),
    ));
    out.samples.insert("check_ms", times);
    out.notes.push(("trace".into(), format!(
        "{{\"pool_index\": {}, \"segments\": {SEGMENTS}, \"procs\": {PROCS}, \"events\": {events}, \"racy_segment\": {}}}",
        args.seed % POOL,
        racy_segment(args.seed % POOL)
    )));
    Ok(())
}

/// Replays the file through the reader and the checker, timing each
/// call, then times one shard on one thread against the default.
fn traced(
    tracer: &mut Tracer,
    path: &Path,
    events: u64,
    hash: u64,
    out: &mut RunOutput,
) -> Result<(), String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    let mut reader = TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut checker = StreamChecker::new(CheckerConfig::default());
    let mut segment = 0u32;
    loop {
        tracer.query = segment;
        let item = tracer
            .time("memsim.trace.decode", || reader.next_item())
            .map_err(|e| e.to_string())?;
        match item {
            None => break,
            Some(TraceItem::SegmentStart { procs, .. }) => checker.begin_segment(procs),
            Some(TraceItem::Record(rec)) => {
                tracer
                    .time("trace.ingest", || checker.ingest(&rec.op))
                    .map_err(|e| e.to_string())?;
            }
            Some(TraceItem::SegmentEnd { .. }) => {
                tracer.time("trace.end_segment", || checker.end_segment());
                segment += 1;
            }
        }
    }
    let report = tracer.time("trace.finish", || checker.finish());
    out.attempted += 1;
    if let Err(e) = verify(&report, events, hash) {
        out.wrong(format!("replayed check: {e}"));
    }
    tracer.set("trace.events", report.events as f64);
    tracer.set("trace.sync_events", report.sync_events as f64);
    tracer.set("trace.races", report.total_races as f64);
    tracer.set(
        "trace.state_high_water_bytes",
        report.approx_state_bytes_high_water as f64,
    );

    let serial = CheckerConfig {
        shards: 1,
        threads: 1,
        ..CheckerConfig::default()
    };
    let (mut t_serial, mut t_default) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_REPS {
        for (cfg, times) in [
            (serial, &mut t_serial),
            (CheckerConfig::default(), &mut t_default),
        ] {
            let t = Instant::now();
            let report = check_trace_file(path, cfg).map_err(|e| e.to_string())?;
            times.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            if let Err(e) = verify(&report, events, hash) {
                out.wrong(format!("check with {cfg:?}: {e}"));
            }
        }
    }
    tracer.set(
        "trace.shard_speedup",
        median(&t_serial) / median(&t_default),
    );
    Ok(())
}
