//! The explorer-first routing with its axiomatic fallback, through the
//! daemon end to end:
//!
//! * **Byte equality under batching** — `drf0` queries the explorer
//!   answers, plus a fan-out program only the relational fallback
//!   decides under this file's budget, must produce a batched verdict
//!   stream byte-for-byte identical to the sequential v1 stream, at every
//!   batch size in {1, 7, 256} and pool width in {1, 4}. Which engine
//!   answered must be invisible in the bytes.
//! * **Provenance** — every definitive miss carries the step count of
//!   the engine that decided it on the canonical form: DPOR's `steps`
//!   whenever DPOR is definitive, and otherwise the relational engine's
//!   `work` on a certified `Drf0`.
//! * **Journal replay** — axiom-derived verdicts are journaled like any
//!   other definitive answer: after a restart they replay into the cache
//!   and serve byte-identical hits without re-deciding anything.

use std::path::PathBuf;
use std::time::Duration;

use litmus::explore::{explore_dpor, ExploreConfig};
use litmus::{corpus, Program};
use wo_axiom::{decide_drf0, AxiomConfig, AxiomVerdict};
use wo_serve::canon;
use wo_serve::client::{BatchClient, ClientConfig, ServeClient};
use wo_serve::protocol::{CacheStatus, QueryKind, Request, Response, Verdict};
use wo_serve::server::{Server, ServerConfig, ServerHandle};

/// The explore budget every server in this file runs — mirrored on the
/// test side so the provenance checks rerun exactly the daemon's
/// engines under exactly its budgets.
fn explore_cfg() -> ExploreConfig {
    ExploreConfig {
        max_ops_per_execution: 48,
        max_executions: 64,
        ..ExploreConfig::default()
    }
}

fn server_with(pool_threads: usize, journal: Option<PathBuf>) -> ServerHandle {
    let cfg = ServerConfig {
        explore: explore_cfg(),
        pool_threads,
        journal_dir: journal,
        ..ServerConfig::default()
    };
    Server::spawn(cfg).expect("spawn server")
}

fn client_cfg(handle: &ServerHandle) -> ClientConfig {
    let mut cfg = ClientConfig::new(handle.addr().to_string());
    cfg.io_timeout = Duration::from_secs(60);
    cfg.hedge_after = None;
    cfg
}

fn drf0_request(program: &Program) -> Request {
    let mut request = Request::new(QueryKind::Drf0, program.to_string());
    request.deadline_ms = Some(0);
    request
}

/// Corpus `drf0` and racy programs, which the explorer decides, plus
/// `mp_fan(4)`, which only the relational fallback decides (DPOR runs out
/// of `max_executions: 64`), plus duplicates so batches coalesce. `deadline_ms = 0` opts out of
/// wall-clock deadlines; byte equality needs determinism.
fn workload() -> Vec<Request> {
    let mut requests: Vec<Request> = corpus::drf0_suite()
        .into_iter()
        .chain(corpus::racy_suite())
        .map(|(_, program)| drf0_request(&program))
        .collect();
    requests.push(drf0_request(&corpus::mp_fan(4)));
    let dups: Vec<Request> = requests.iter().step_by(3).cloned().collect();
    requests.extend(dups);
    requests
}

/// Which engine a definitive miss must have come from.
#[derive(Debug, PartialEq)]
enum Provenance {
    Explorer,
    Fallback,
}

/// Checks that a definitive miss's `steps` is the deciding engine's
/// count on the canonical form: DPOR's steps when DPOR is definitive,
/// the relational engine's work on a certified `Drf0` otherwise.
fn provenance(program_text: &str, verdict: &Verdict, steps: u64) -> Provenance {
    let program =
        canon::canonicalize(&litmus::parse::parse_program(program_text).unwrap()).program;
    let dpor = explore_dpor(&program, &explore_cfg());
    if !dpor.races.is_empty() || dpor.complete {
        assert_eq!(steps, dpor.steps as u64, "{verdict:?} answer did not come from DPOR");
        return Provenance::Explorer;
    }
    let report = decide_drf0(&program, &AxiomConfig::from_explore(&explore_cfg()));
    assert_eq!(report.verdict, AxiomVerdict::Drf0, "only a certified Drf0 may fall back");
    assert_eq!(*verdict, Verdict::Drf0);
    assert_eq!(steps, report.work, "drf0 answer did not come from the axiomatic engine");
    Provenance::Fallback
}

#[test]
fn axiom_answered_drf0_batches_are_byte_equal_to_v1() {
    let requests = workload();

    // Reference stream: sequential per-request v1 queries on a fresh
    // server, checked for provenance as they stream.
    let (mut explorer_misses, mut fallback_misses) = (0usize, 0usize);
    let reference: Vec<Vec<u8>> = {
        let handle = server_with(1, None);
        let mut client = ServeClient::new(client_cfg(&handle));
        let bytes: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| match client.query(r) {
                Ok(response) => {
                    if let Response::Verdict {
                        verdict: verdict @ (Verdict::Drf0 | Verdict::Racy),
                        steps,
                        cache: CacheStatus::Miss,
                        ..
                    } = &response
                    {
                        match provenance(&r.program, verdict, *steps) {
                            Provenance::Explorer => explorer_misses += 1,
                            Provenance::Fallback => fallback_misses += 1,
                        }
                    }
                    response.encode()
                }
                Err(e) => panic!("v1 reference query failed: {e}"),
            })
            .collect();
        handle.shutdown();
        bytes
    };
    assert!(explorer_misses >= 4, "workload must contain explorer-decided programs");
    assert!(fallback_misses >= 1, "workload must contain a program only the fallback decides");

    for pool_threads in [1usize, 4] {
        for batch_size in [1usize, 7, 256] {
            let handle = server_with(pool_threads, None);
            let mut client = BatchClient::new(client_cfg(&handle));
            client.max_batch_items = batch_size;
            let responses = client.query_batch(&requests).expect("batched query");
            assert_eq!(responses.len(), reference.len());
            for (i, (response, expected)) in responses.iter().zip(&reference).enumerate() {
                assert_eq!(
                    &response.encode(),
                    expected,
                    "request {i} diverged at batch_size={batch_size} pool_threads={pool_threads}"
                );
            }
            handle.shutdown();
        }
    }
}

#[test]
fn axiom_verdicts_replay_from_the_journal_byte_identically() {
    let dir = std::env::temp_dir()
        .join(format!("wo-serve-axiom-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Warm a journaled server with the DRF0 corpus plus `mp_fan(4)`, whose
    // verdict only the relational fallback decides, and keep the
    // cache-hit bytes as the reference.
    let mut programs: Vec<String> = Vec::new();
    let mut hits: Vec<Vec<u8>> = Vec::new();
    let mut fallback_misses = 0usize;
    let first = server_with(1, Some(dir.clone()));
    let mut client = ServeClient::new(client_cfg(&first));
    let warm = corpus::drf0_suite().into_iter().chain([("mp_fan_4", corpus::mp_fan(4))]);
    for (name, program) in warm {
        let request = drf0_request(&program);
        match client.query(&request).expect("warm query") {
            Response::Verdict {
                verdict: verdict @ Verdict::Drf0,
                steps,
                cache: CacheStatus::Miss,
                ..
            } => {
                if provenance(&request.program, &verdict, steps) == Provenance::Fallback {
                    fallback_misses += 1;
                }
            }
            other => panic!("{name}: unexpected {other:?}"),
        }
        match client.query(&request).expect("warm hit") {
            response @ Response::Verdict {
                verdict: Verdict::Drf0,
                cache: CacheStatus::Hit,
                ..
            } => hits.push(response.encode()),
            other => panic!("{name}: unexpected {other:?}"),
        }
        programs.push(request.program.clone());
    }
    assert!(fallback_misses >= 1, "no warmed verdict came from the axiomatic fallback");
    assert_eq!(first.replayed(), 0);
    first.shutdown();

    // Restart on the same journal: every verdict, axiom-derived ones
    // included, replays into the cache and serves the exact same bytes
    // as a hit, with no recomputation (steps stays the replayed
    // answer's, not a fresh decider's — byte equality covers it).
    let second = server_with(1, Some(dir.clone()));
    assert_eq!(
        second.replayed() as usize,
        programs.len(),
        "every definitive verdict replays"
    );
    let mut client = ServeClient::new(client_cfg(&second));
    for (program, expected) in programs.iter().zip(&hits) {
        let mut request = Request::new(QueryKind::Drf0, program.clone());
        request.deadline_ms = Some(0);
        let response = client.query(&request).expect("replayed query");
        match &response {
            Response::Verdict { cache: CacheStatus::Hit, .. } => {}
            other => panic!("journal did not warm the cache: {other:?}"),
        }
        assert_eq!(&response.encode(), expected, "replayed bytes diverged");
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
