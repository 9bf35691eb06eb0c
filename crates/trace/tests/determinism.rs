//! Determinism tests: the checker's canonical report must equal the
//! report implied by a per-segment fold of the sequential
//! [`RaceDetector`] — including when the location cap degrades the
//! verdict.

use std::collections::{BTreeMap, HashSet};

use memory_model::drf0::Race;
use memory_model::race::RaceDetector;
use memory_model::{Operation, SyncMode};
use wo_trace::checker::{location_charge, sync_entry_charge};
use wo_trace::synth::{SynthConfig, SynthStream};
use wo_trace::{CheckerConfig, StreamChecker, TraceReport, UnknownReason, Verdict};

/// Splits a stream into this many segments, so the per-segment reset is
/// exercised too.
const SEGMENTS: usize = 3;

fn segments(ops: &[Operation]) -> Vec<&[Operation]> {
    ops.chunks(ops.len().div_ceil(SEGMENTS)).collect()
}

fn check_segments(segments: &[&[Operation]], procs: u16, cfg: CheckerConfig) -> TraceReport {
    let mut checker = StreamChecker::new(cfg);
    for ops in segments {
        checker.begin_segment(procs);
        for op in *ops {
            checker.ingest(op).unwrap();
        }
        checker.end_segment();
    }
    checker.finish()
}

/// The report one fresh [`RaceDetector`] per segment implies: its races
/// on the locations the cap admits (the first `max_tracked_locations`
/// to appear), folded into a stream report. The sync-location cap is not
/// modelled; the streams here never reach it.
fn detector_fold(segments: &[&[Operation]], procs: u16, cfg: CheckerConfig) -> TraceReport {
    let procs = usize::from(procs);
    let mut report = TraceReport {
        verdict: Verdict::Drf0,
        mode: cfg.mode,
        segments: 0,
        events: 0,
        sync_events: 0,
        total_races: 0,
        races: Vec::new(),
        races_truncated: false,
        racy_locations: Vec::new(),
        dropped_events: 0,
        dropped_locations: 0,
        tracked_locations_high_water: 0,
        sync_locations_high_water: 0,
        sync_overflow: false,
        approx_state_bytes_high_water: 0,
    };
    let mut racy_locations = BTreeMap::new();
    for ops in segments {
        let mut det = RaceDetector::with_mode(procs, cfg.mode);
        let (mut seen, mut admitted, mut published) =
            (HashSet::new(), HashSet::new(), HashSet::new());
        for op in *ops {
            det.observe(op);
            if seen.insert(op.loc) {
                if admitted.len() < cfg.max_tracked_locations {
                    admitted.insert(op.loc);
                } else {
                    report.dropped_locations += 1;
                }
            }
            if !admitted.contains(&op.loc) {
                report.dropped_events += 1;
            }
            if op.kind.is_sync() {
                report.sync_events += 1;
                if cfg.mode == SyncMode::Drf0 || op.kind.is_write() {
                    published.insert(op.loc);
                }
            }
        }
        assert!(published.len() <= cfg.max_sync_locations, "the fold does not model the sync cap");
        let mut races: Vec<Race> =
            det.races().iter().filter(|r| admitted.contains(&r.loc)).copied().collect();
        races.sort_unstable_by_key(|r| (r.first, r.second, r.loc));
        for race in &races {
            *racy_locations.entry(race.loc).or_insert(0u64) += 1;
        }
        report.total_races += races.len() as u64;
        let room = cfg.max_kept_races.saturating_sub(report.races.len());
        report.races_truncated |= races.len() > room;
        report.races.extend(races.into_iter().take(room));

        let (tracked, synced) = (admitted.len() as u64, published.len() as u64);
        let state_bytes = tracked * location_charge(procs) + synced * sync_entry_charge(procs);
        report.tracked_locations_high_water = report.tracked_locations_high_water.max(tracked);
        report.sync_locations_high_water = report.sync_locations_high_water.max(synced);
        report.approx_state_bytes_high_water = report.approx_state_bytes_high_water.max(state_bytes);
        report.segments += 1;
        report.events += ops.len() as u64;
    }
    report.racy_locations = racy_locations.into_iter().collect();
    report.verdict = if report.total_races > 0 {
        Verdict::Racy
    } else if report.dropped_events > 0 {
        Verdict::Unknown(UnknownReason::LocationCapExceeded)
    } else {
        Verdict::Drf0
    };
    report
}

/// Checks `synth` split into segments and asserts the report equals the
/// detector fold byte for byte.
fn check_against_fold(synth: SynthConfig, cfg: CheckerConfig) -> TraceReport {
    let ops: Vec<_> = SynthStream::new(synth).collect();
    let segments = segments(&ops);
    let report = check_segments(&segments, synth.procs, cfg);
    let text = report.canonical_text();
    assert_eq!(text, detector_fold(&segments, synth.procs, cfg).canonical_text());
    report
}

#[test]
fn locked_stream_report_equals_the_detector_fold() {
    let synth = SynthConfig {
        events: 200_000,
        procs: 6,
        locations: 1 << 10,
        sync_locations: 32,
        sync_percent: 12,
        racy_percent: 0,
        seed: 11,
    };
    let report = check_against_fold(synth, CheckerConfig::default());
    let text = report.canonical_text();
    assert!(text.starts_with("verdict: DRF0\n"), "{text}");
    assert!(text.contains("events: 200000"), "{text}");
}

#[test]
fn racy_stream_report_equals_the_detector_fold() {
    let synth = SynthConfig {
        events: 150_000,
        procs: 4,
        locations: 256,
        sync_locations: 16,
        sync_percent: 10,
        racy_percent: 25,
        seed: 77,
    };
    let report = check_against_fold(synth, CheckerConfig::default());
    assert_eq!(report.verdict, Verdict::Racy);
    assert!(report.races_truncated, "the retention cap should have bitten");
}

#[test]
fn degraded_report_equals_the_detector_fold() {
    // The location cap drops most locations: which ones are dropped
    // depends only on first-appearance order.
    let synth = SynthConfig {
        events: 60_000,
        procs: 4,
        locations: 2_000,
        sync_locations: 16,
        sync_percent: 8,
        racy_percent: 0,
        seed: 5,
    };
    let capped = CheckerConfig { max_tracked_locations: 100, ..CheckerConfig::default() };
    let report = check_against_fold(synth, capped);
    assert!(report.dropped_locations > 0, "the cap should have bitten");
    assert_eq!(report.tracked_locations_high_water, 100);
    match report.verdict {
        Verdict::Racy | Verdict::Unknown(UnknownReason::LocationCapExceeded) => {}
        other => panic!("cap must leave Racy or degrade to Unknown, got {other:?}"),
    }
}

#[test]
fn racy_verdict_survives_the_location_cap_when_tracked_locations_race() {
    // All races on one hot location, admitted first: capping the tail
    // locations must not lose the Racy verdict (dropped locations only
    // hide their own races).
    let synth = SynthConfig {
        events: 50_000,
        procs: 4,
        locations: 64,
        sync_locations: 8,
        sync_percent: 10,
        racy_percent: 40,
        seed: 13,
    };
    // Keep every race: the subset check below needs untruncated lists.
    let uncapped_races = CheckerConfig { max_kept_races: usize::MAX, ..CheckerConfig::default() };
    let full = check_against_fold(synth, uncapped_races);
    assert_eq!(full.verdict, Verdict::Racy);
    assert!(!full.races_truncated);

    // Cap to the first 32 first-seen locations; this deterministic stream
    // still races inside the tracked set.
    let capped_cfg = CheckerConfig { max_tracked_locations: 32, ..uncapped_races };
    let capped = check_against_fold(synth, capped_cfg);
    assert_eq!(capped.verdict, Verdict::Racy);
    assert!(capped.dropped_events > 0);
    assert!(
        capped.total_races <= full.total_races,
        "dropping locations can only lose races, never invent them"
    );
    // Every race the capped run reports is one the full run found too.
    let full_set: HashSet<_> = full.races.iter().copied().collect();
    for race in &capped.races {
        assert!(full_set.contains(race), "capped run invented {race:?}");
    }
}
