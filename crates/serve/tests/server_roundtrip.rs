//! In-process daemon round trips: a real [`Server`] on an ephemeral port,
//! queried through the retrying [`ServeClient`], covering the cache
//! ladder (miss → hit), journal persistence across a restart, structured
//! parse failures, and ping/stats.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use wo_serve::client::{ClientConfig, ClientError, ServeClient};
use wo_serve::protocol::{
    read_frame, CacheStatus, ErrorCode, QueryKind, Request, Response, ServerStats, Verdict,
};
use wo_serve::server::{Server, ServerConfig, ServerHandle};

const RACY_MP: &str = "P0:\n  W(m5) := 1\n  Set(m6) := 1\nP1:\n  r0 := Test(m6)\n  r1 := R(m5)\n";
const DRF_HANDOFF: &str =
    "P0:\n  W(m0) := 7\n  Set(m1) := 1\nP1:\n  r0 := Test(m1)\n  if r0 != 1 goto 3\n  r1 := R(m0)\n";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wo-serve-it-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(journal: Option<PathBuf>) -> ServerHandle {
    let cfg = ServerConfig { journal_dir: journal, ..ServerConfig::default() };
    Server::spawn(cfg).expect("server spawn")
}

fn client_for(handle: &ServerHandle) -> ServeClient {
    let mut cfg = ClientConfig::new(handle.addr().to_string());
    cfg.io_timeout = Duration::from_secs(60);
    cfg.hedge_after = None;
    ServeClient::new(cfg)
}

#[test]
fn miss_then_hit_with_race_coords_in_submitter_space() {
    let handle = spawn(None);
    let mut client = client_for(&handle);

    match client.drf0(RACY_MP).expect("first query") {
        Response::Verdict { verdict: Verdict::Racy, races, cache, .. } => {
            assert_eq!(cache, CacheStatus::Miss);
            assert!(races.iter().all(|r| r.loc == 5), "races in submitted coords");
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.drf0(RACY_MP).expect("second query") {
        Response::Verdict { verdict: Verdict::Racy, cache, .. } => {
            assert_eq!(cache, CacheStatus::Hit);
        }
        other => panic!("unexpected {other:?}"),
    }
    // A renamed-but-equivalent program is also a hit: the cache is keyed
    // on canonical form, not raw text.
    let renamed =
        "P0:\n  W(m77) := 1\n  Set(m3) := 1\nP1:\n  r0 := Test(m3)\n  r1 := R(m77)\n";
    match client.drf0(renamed).expect("renamed query") {
        Response::Verdict { verdict: Verdict::Racy, races, cache, .. } => {
            assert_eq!(cache, CacheStatus::Hit);
            assert!(races.iter().all(|r| r.loc == 77), "renamed submitter coords");
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn journal_survives_restart_and_warms_the_cache() {
    let dir = tmpdir("restart");
    let first = spawn(Some(dir.clone()));
    let mut client = client_for(&first);
    for body in [RACY_MP, DRF_HANDOFF] {
        match client.drf0(body).expect("warm query") {
            Response::Verdict { cache: CacheStatus::Miss, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(first.replayed(), 0);
    first.shutdown();

    let second = spawn(Some(dir.clone()));
    assert_eq!(second.replayed(), 2, "both definitive verdicts replayed");
    let mut client = client_for(&second);
    match client.drf0(DRF_HANDOFF).expect("replayed query") {
        Response::Verdict { verdict: Verdict::Drf0, cache, .. } => {
            assert_eq!(cache, CacheStatus::Hit, "journal warmed the cache");
        }
        other => panic!("unexpected {other:?}"),
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sc_ping_stats_and_parse_errors_round_trip() {
    let handle = spawn(None);
    let mut client = client_for(&handle);

    match client.query(&Request::new(QueryKind::Sc, RACY_MP)).expect("sc") {
        Response::Sc { outcomes, complete: true, .. } => assert!(outcomes >= 2),
        other => panic!("unexpected {other:?}"),
    }
    match client.query(&Request::new(QueryKind::Ping, "")).expect("ping") {
        Response::Pong => {}
        other => panic!("unexpected {other:?}"),
    }
    // Parse failures come back as structured errors; the client refuses
    // to retry them.
    match client.drf0("P0:\n  W(m0").expect_err("parse error is permanent") {
        wo_serve::client::ClientError::Permanent { code, message } => {
            assert_eq!(code, wo_serve::protocol::ErrorCode::Parse);
            assert!(message.contains("line"));
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.query(&Request::new(QueryKind::Stats, "")).expect("stats") {
        Response::Stats(stats) => {
            assert!(stats.served >= 3, "sc/ping/parse all served: {stats:?}");
            assert!(stats.explored >= 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn per_request_budget_degrades_to_unknown_without_poisoning_cache() {
    let handle = spawn(None);
    let mut client = client_for(&handle);

    let mut starved = Request::new(QueryKind::Drf0, DRF_HANDOFF);
    starved.max_total_steps = Some(3);
    match client.query(&starved).expect("starved query") {
        Response::Verdict { verdict: Verdict::Unknown { reason }, cache, .. } => {
            assert_eq!(reason, "max_total_steps");
            assert_eq!(cache, CacheStatus::Miss);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The degraded answer must not have been cached: a full-budget retry
    // recomputes and lands the definitive verdict.
    match client.drf0(DRF_HANDOFF).expect("full-budget retry") {
        Response::Verdict { verdict: Verdict::Drf0, cache, .. } => {
            assert_eq!(cache, CacheStatus::Miss, "degraded answers are not cached");
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.drf0(DRF_HANDOFF).expect("now cached") {
        Response::Verdict { verdict: Verdict::Drf0, cache, .. } => {
            assert_eq!(cache, CacheStatus::Hit);
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn concurrent_identical_misses_coalesce_to_one_exploration() {
    let handle = spawn(None);
    let addr = handle.addr().to_string();

    let mut joins = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
            let mut cfg = ClientConfig::new(addr);
            cfg.hedge_after = None;
            cfg.io_timeout = Duration::from_secs(60);
            let mut client = ServeClient::new(cfg);
            match client.drf0(RACY_MP).expect("concurrent query") {
                Response::Verdict { verdict: Verdict::Racy, cache, .. } => cache,
                other => panic!("unexpected {other:?}"),
            }
        }));
    }
    let statuses: Vec<CacheStatus> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let misses = statuses.iter().filter(|s| **s == CacheStatus::Miss).count();
    assert_eq!(misses, 1, "exactly one leader explored: {statuses:?}");

    let mut client = client_for(&handle);
    match client.query(&Request::new(QueryKind::Stats, "")).expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.explored, 1, "one exploration for eight clients");
            assert_eq!(stats.coalesced + stats.cache_hits, 7);
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

fn stats_of(client: &mut ServeClient) -> ServerStats {
    match client.query(&Request::new(QueryKind::Stats, "")).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn v1_traffic_moves_each_counter_by_exactly_its_share() {
    let handle = spawn(None);
    let mut client = client_for(&handle);

    // `(served, explored, cache_hits, degraded)` gained since `before`.
    // A stats snapshot is taken before its own response is written, so
    // every delta includes the previous stats response in `served`.
    let step = |client: &mut ServeClient, before: &ServerStats| -> (ServerStats, [u64; 4]) {
        let after = stats_of(client);
        assert_eq!(after.shed_items, 0, "v1 traffic sheds no batch items");
        assert_eq!(after.coalesced_in_batch, 0, "v1 traffic coalesces nothing in a batch");
        assert!(after.batch_depth.iter().all(|&n| n == 0), "no batch: {after:?}");
        assert_eq!(after.coalesced, 0);
        assert_eq!(after.overloaded, 0);
        let delta = [
            after.served - before.served,
            after.explored - before.explored,
            after.cache_hits - before.cache_hits,
            after.degraded - before.degraded,
        ];
        (after, delta)
    };

    let s0 = stats_of(&mut client);
    assert_eq!(s0.served, 0, "fresh server");

    match client.drf0(RACY_MP).expect("miss") {
        Response::Verdict { cache: CacheStatus::Miss, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let (s1, delta) = step(&mut client, &s0);
    assert_eq!(delta, [2, 1, 0, 0], "miss: served, explored, cache_hits, degraded");

    match client.drf0(RACY_MP).expect("hit") {
        Response::Verdict { cache: CacheStatus::Hit, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let (s2, delta) = step(&mut client, &s1);
    assert_eq!(delta, [2, 0, 1, 0], "hit");

    let mut starved = Request::new(QueryKind::Drf0, DRF_HANDOFF);
    starved.max_total_steps = Some(3);
    match client.query(&starved).expect("budget-degraded") {
        Response::Verdict { verdict: Verdict::Unknown { .. }, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let (s3, delta) = step(&mut client, &s2);
    assert_eq!(delta, [2, 1, 0, 1], "budget-degraded answer");

    match client.drf0("P0:\n  W(m0").expect_err("parse error") {
        ClientError::Permanent { code: ErrorCode::Parse, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let (s4, delta) = step(&mut client, &s3);
    assert_eq!(delta, [2, 0, 0, 0], "parse error");

    // A length prefix over every cap, on its own connection: answered
    // with one TooLarge frame, then the connection is dropped.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let payload = read_frame(&mut raw, 1 << 20).unwrap().expect("error frame");
    match Response::decode(&payload).unwrap() {
        Response::Error { code: ErrorCode::TooLarge, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(raw.read(&mut [0u8; 1]).unwrap_or(0), 0, "connection dropped");
    let (_, delta) = step(&mut client, &s4);
    assert_eq!(delta, [2, 0, 0, 0], "oversized frame counts once in served");
    handle.shutdown();
}
