//! Differential test: the streamed race checker against the exploring
//! detector, over fuzz-generated programs.
//!
//! For every kept execution of every generated program, the race set the
//! [`wo_trace::StreamChecker`] computes from the execution's event stream
//! must **exactly equal** the set the sequential
//! [`memory_model::race::RaceDetector`] computes (via `races_of`). The
//! explorer's aggregate race set must equal the union over executions
//! whenever the exploration completed. Trace-format robustness rides
//! along: a generated trace torn at any byte or with a flipped byte must
//! fail *structurally*, never panic.
//!
//! Seeds default to 500; override with `WO_TRACE_DIFF_SEEDS` (CI smoke
//! uses a smaller corpus).

use std::collections::HashSet;

use litmus::explore::{explore_dpor, ExploreConfig};
use memory_model::drf0::Race;
use memory_model::race::races_of;
use memory_model::SyncMode;
use memsim::{read_trace, TraceError, TraceWriter};
use wo_fuzz::{generate, GenConfig};
use wo_trace::{check_ops, CheckerConfig, Verdict};

fn seeds() -> u64 {
    std::env::var("WO_TRACE_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(500)
}

fn explore_cfg() -> ExploreConfig {
    ExploreConfig {
        max_ops_per_execution: 48,
        max_executions: 64,
        keep_executions: true,
        sync_mode: SyncMode::Drf0,
        ..ExploreConfig::default()
    }
}

fn canonical(mut races: Vec<Race>) -> Vec<Race> {
    races.sort_unstable_by_key(|r| (r.first, r.second, r.loc));
    races
}

#[test]
fn streamed_race_sets_match_the_explorer_exactly() {
    let gen_cfg = GenConfig::default();
    let mut checked_execs = 0u64;
    let mut racy_execs = 0u64;
    for seed in 0..seeds() {
        let program = generate(seed, &gen_cfg);
        let report = explore_dpor(&program.program, &explore_cfg());
        let procs = u16::try_from(program.program.num_threads()).unwrap();

        let mut union: HashSet<Race> = HashSet::new();
        for exec in &report.executions {
            let expected = canonical(races_of(exec, SyncMode::Drf0));
            union.extend(expected.iter().copied());
            let streamed = check_ops(exec.ops(), procs, CheckerConfig::default()).unwrap();
            assert_eq!(
                streamed.races, expected,
                "seed {seed}: streamed race set diverged\nprogram:\n{}",
                program.program
            );
            let expected_verdict = if expected.is_empty() { Verdict::Drf0 } else { Verdict::Racy };
            assert_eq!(streamed.verdict, expected_verdict, "seed {seed}");
            checked_execs += 1;
            if !expected.is_empty() {
                racy_execs += 1;
            }
        }

        // The explorer's aggregate race set is the union over executions
        // whenever every path completed (nothing truncated or capped).
        if report.complete {
            assert_eq!(
                union, report.races,
                "seed {seed}: union of per-execution race sets diverged from the explorer"
            );
        }
    }
    assert!(checked_execs > 0, "the corpus generated no executions");
    assert!(racy_execs > 0, "the corpus never raced — differential power is zero");
}

/// Robustness rider: torn and corrupted generated traces fail
/// structurally.
#[test]
fn generated_trace_survives_tearing_and_corruption_structurally() {
    let program = generate(3, &GenConfig::default());
    let report = explore_dpor(&program.program, &explore_cfg());
    let exec = report.executions.first().expect("at least one execution");
    let ops = exec.ops().to_vec();
    let procs = u16::try_from(program.program.num_threads()).unwrap();

    let mut writer = TraceWriter::new(Vec::new()).unwrap();
    writer.write_execution(&format!("seed{}", program.seed), procs, &ops).unwrap();
    let bytes = writer.finish().unwrap();

    // Torn at every byte past the header: Truncated, never a panic.
    for cut in 13..bytes.len() {
        match read_trace(&bytes[..cut]) {
            Err(TraceError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }

    // Every single-byte corruption: a structured error, never a panic and
    // never silent acceptance of altered bytes.
    for i in 12..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x10;
        match read_trace(&bad[..]) {
            Err(TraceError::Corrupt { .. } | TraceError::Truncated { .. }) => {}
            other => panic!("flip at {i}: expected structured error, got {other:?}"),
        }
    }
}
