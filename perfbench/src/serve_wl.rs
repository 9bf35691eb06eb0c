//! `serve_cold` and `serve_hot`: a real `wo_serve` daemon driven over TCP
//! by one closed-loop client connection.
//!
//! The client repeats a fixed cycle: one `wo-serve/2` batch frame of
//! [`BATCH_ITEMS`] queries, a ping, then [`V1_PER_CYCLE`] v1 queries,
//! each sent only after the previous answer arrived. A query's latency
//! runs from the moment its frame is written until its own result frame
//! is read: the round trip for a v1 query, the item's streamed result for
//! a batch item. The bounded figures are the daemon's CPU time, read
//! through its process CPU clock: per query over each measured stretch,
//! and per v1 query over its round trip.
//!
//! The cycle is a synthetic shape. It stands for the campaign's batched
//! `drf0` stream (`fuzz_campaign --server`, frames of up to 1024 items)
//! and for per-request v1 clients; smaller frames keep the figures steady.
//!
//! * `serve_cold` sends the fuzz generator's programs, renamed by the
//!   workload seed, once through a fresh daemon: almost every query
//!   misses, so the engines, the journal and in-batch coalescing carry
//!   the time.
//! * `serve_hot` warms a daemon on hand-written programs, restarts it on
//!   the journal, and sends renamed variants: every query is a cache hit
//!   and the engines do no work.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use litmus::explore::{explore_dpor, explore_results, ExploreConfig};
use litmus::Program;
use wo_axiom::{analyze, decide_drf0, AxiomConfig, AxiomVerdict};
use wo_serve::cache::{CachedAnswer, KindGroup, Lookup, VerdictCache};
use wo_serve::canon::{canonicalize, random_renaming, CanonicalForm};
use wo_serve::journal::{Journal, JournalRecord};
use wo_serve::protocol::{
    batch_frame_tag, decode_batch_race_block, decode_batch_result, decode_batch_result_ref,
    encode_batch_frame, read_frame, split_batch_frame, write_frame, BatchItem, CacheStatus,
    QueryKind, RaceCoord, Request, Response, ServerStats, Verdict, DEFAULT_MAX_BATCH_FRAME_BYTES,
    RACE_BLOCK_MIN_RACES,
};
use wo_serve::{compute_answer, kind_group, translate_races};

use crate::expected::{self, campaign_budget, Reference};
use crate::measure::{cpu_seconds, jstr, median, mix, nearest_rank, peak_rss_mb, Rng, Tracer};
use crate::{Args, RunOutput};

/// Queries per batch frame. Small enough that a batch item's latency is
/// mostly its own key's work rather than a queue behind other keys,
/// which on a shared 2-vCPU machine swings with outside load.
const BATCH_ITEMS: usize = 16;
/// v1 queries after each batch frame.
const V1_PER_CYCLE: usize = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Fuzz seeds in the cold corpus: three queries each, so a run sends at
/// least 1000 queries and p99 rests on at least ten samples.
const COLD_SEEDS: u64 = 334;
const COLD_SEEDS_SMOKE: u64 = 40;
/// Renamed variants of each hot base program.
const HOT_VARIANTS: usize = 16;
const HOT_VARIANTS_SMOKE: usize = 2;
/// Cold passes per run, each on a fresh daemon over the same cycles; the
/// run reports each cycle's and each query's median over them.
const COLD_PASSES: usize = 3;
/// Length of a hot measurement window; medians over windows are reported.
const HOT_WINDOW_S: f64 = 1.0;
/// Hot cycles replayed in-process by the traced run at most.
const HOT_REPLAY_CYCLES: usize = 300;
/// Client-side socket timeout: far above any single answer.
const IO_TIMEOUT: Duration = Duration::from_secs(150);

/// The cold corpus: fuzz seeds, default `GenConfig`.
pub fn cold_pool(smoke: bool) -> std::ops::Range<u64> {
    0..if smoke { COLD_SEEDS_SMOKE } else { COLD_SEEDS }
}

/// The hot base set: `litmus::corpus` suites, then `litmus-tests/` and
/// `litmus-tests/gen/` files in name order, deduplicated by canonical
/// form.
pub fn hot_bases(root: &Path) -> Result<Vec<(String, Program)>, String> {
    let mut all: Vec<(String, Program)> = litmus::corpus::drf0_suite()
        .into_iter()
        .chain(litmus::corpus::racy_suite())
        .map(|(n, p)| (n.to_string(), p))
        .collect();
    for dir in ["litmus-tests", "litmus-tests/gen"] {
        let dir = root.join(dir);
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
            .collect();
        files.sort();
        for f in files {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            let program =
                litmus::parse::parse_program(&text).map_err(|e| format!("{}: {e}", f.display()))?;
            let name = f
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            all.push((name, program));
        }
    }
    let mut seen = HashSet::new();
    Ok(all
        .into_iter()
        .filter(|(_, p)| seen.insert(canonicalize(p).text))
        .collect())
}

const KINDS: [QueryKind; 3] = [QueryKind::Drf0, QueryKind::Races, QueryKind::Sc];

/// A query as the campaign sends it: step budgets, no wall-clock
/// deadline, so every answer is deterministic.
fn request(kind: QueryKind, program: String) -> Request {
    let budget = campaign_budget();
    let mut r = Request::new(kind, program);
    r.deadline_ms = Some(0);
    r.max_total_steps = Some(budget.max_total_steps);
    r.max_ops_per_execution = Some(budget.max_ops_per_execution);
    r
}

/// How a query's answer is checked.
enum Check {
    /// Against the generator label and the unreduced-explorer reference
    /// of this fuzz seed, with served races mapped back to the
    /// generator's spelling of the program.
    Cold {
        seed: u64,
        racy_label: bool,
        to_generated: Arc<Relabel>,
    },
    /// Byte-for-byte against the base program's answer, renamed.
    Hot {
        response: Response,
        payload: Vec<u8>,
    },
}

struct Query {
    kind: QueryKind,
    request: Request,
    group: KindGroup,
    /// Canonical cache key text.
    key: Arc<str>,
    check: Check,
}

/// One client cycle, pre-encoded.
struct Cycle {
    batch: Vec<usize>,
    frame: Vec<u8>,
    v1: Vec<(usize, Vec<u8>)>,
}

fn build_cycle(queries: &[Query], batch: Vec<usize>, v1: Vec<usize>) -> Cycle {
    let items: Vec<Vec<u8>> = batch
        .iter()
        .enumerate()
        .map(|(pos, &qi)| {
            BatchItem::Query {
                id: pos as u64,
                request: queries[qi].request.clone(),
            }
            .encode()
        })
        .collect();
    Cycle {
        frame: encode_batch_frame(&items),
        v1: v1
            .into_iter()
            .map(|qi| (qi, queries[qi].request.encode()))
            .collect(),
        batch,
    }
}

// ---------------------------------------------------------------------
// The daemon process
// ---------------------------------------------------------------------

/// A running `wo_serve` child, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(bin: &Path, journal: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("wo-serve listening on ")
            .map(str::to_string);
        match (ready, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address (got {line:?})"))
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// The daemon's counters, read through the public `stats` query.
    fn stats(&self) -> Result<ServerStats, String> {
        let s = self.connect()?;
        write_frame(&mut &s, &Request::new(QueryKind::Stats, "").encode())
            .map_err(|e| format!("stats: {e}"))?;
        let payload = read_frame(&mut &s, 1 << 20)
            .map_err(|e| format!("stats: {e}"))?
            .ok_or("stats: connection closed")?;
        match Response::decode(&payload) {
            Ok(Response::Stats(stats)) => Ok(stats),
            other => Err(format!("stats: unexpected {other:?}")),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------

/// What the client saw for one query.
enum Seen<'a> {
    /// An encoded v1 response payload.
    Payload(&'a [u8]),
    /// A response reconstructed from a race block reference.
    Response(Response),
}

/// Classification of one answer.
enum Judgement {
    Ok {
        definitive: bool,
    },
    /// A structured error or refusal: not a wrong answer, but a failure
    /// all the same.
    Failed(String),
    Wrong(String),
}

/// One connection driving cycles; calls `judge` for every answer with
/// its latency in seconds and, for a v1 query, the daemon CPU seconds it
/// took.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    daemon_pid: u32,
}

/// The callback a cycle reports each answer to: query index, answer,
/// latency, and daemon CPU time (v1 queries only).
type Judge<'j> = dyn FnMut(usize, Seen<'_>, f64, Option<f64>) + 'j;

impl Client {
    fn new(daemon: &Daemon) -> Result<Client, String> {
        let stream = daemon.connect()?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            stream,
            reader,
            daemon_pid: daemon.child.id(),
        })
    }

    fn read(&mut self) -> Result<Vec<u8>, String> {
        read_frame(&mut self.reader, DEFAULT_MAX_BATCH_FRAME_BYTES)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "daemon closed the connection".to_string())
    }

    /// A ping round trip: the daemon answers it once it has finished
    /// everything sent before it on this connection.
    fn ping(&mut self) -> Result<(), String> {
        write_frame(
            &mut &self.stream,
            &Request::new(QueryKind::Ping, "").encode(),
        )
        .map_err(|e| format!("send: {e}"))?;
        match Response::decode(&self.read()?) {
            Ok(Response::Pong) => Ok(()),
            other => Err(format!("ping: unexpected {other:?}")),
        }
    }

    fn cycle(&mut self, cycle: &Cycle, judge: &mut Judge<'_>) -> Result<(), String> {
        let t0 = Instant::now();
        write_frame(&mut &self.stream, &cycle.frame).map_err(|e| format!("send: {e}"))?;
        let mut outstanding = cycle.batch.len();
        let mut blocks: HashMap<u64, Vec<RaceCoord>> = HashMap::new();
        while outstanding > 0 {
            let payload = self.read()?;
            let at = t0.elapsed().as_secs_f64();
            let item = |id: u64| -> Result<usize, String> {
                cycle
                    .batch
                    .get(id as usize)
                    .copied()
                    .ok_or(format!("unexpected result id {id}"))
            };
            match batch_frame_tag(&payload) {
                Some("races") => {
                    let (block, races) = decode_batch_race_block(&payload)?;
                    blocks.insert(block, races);
                    continue;
                }
                Some("resultref") => {
                    let r = decode_batch_result_ref(&payload)?;
                    let block = blocks
                        .get(&r.block_id)
                        .ok_or("resultref names an unknown block")?;
                    let response = Response::Verdict {
                        verdict: r.verdict,
                        races: translate_races(block, &r.thread_unmap, &r.loc_unmap),
                        steps: r.steps,
                        cache: r.cache,
                    };
                    judge(item(r.id)?, Seen::Response(response), at, None);
                }
                Some("result") => {
                    let (id, body) = decode_batch_result(&payload)?;
                    judge(item(id)?, Seen::Payload(body), at, None);
                }
                _ => {
                    return Err(format!(
                        "unexpected frame {:?}",
                        String::from_utf8_lossy(&payload)
                    ))
                }
            }
            outstanding -= 1;
        }
        // The daemon journals a batch after streaming its results. A ping
        // answered on the same connection marks the end of that work, so
        // each v1 query is then the only work in the daemon while it is
        // in flight and the daemon's CPU time over its round trip is its
        // own.
        if !cycle.v1.is_empty() {
            self.ping()?;
        }
        for (qi, payload) in &cycle.v1 {
            let (t, cpu) = (Instant::now(), cpu_seconds(Some(self.daemon_pid))?);
            write_frame(&mut &self.stream, payload).map_err(|e| format!("send: {e}"))?;
            let answer = self.read()?;
            let latency = t.elapsed().as_secs_f64();
            let cpu = cpu_seconds(Some(self.daemon_pid))? - cpu;
            judge(*qi, Seen::Payload(&answer), latency, Some(cpu));
        }
        Ok(())
    }
}

/// Tally of one driven pass.
#[derive(Default)]
struct Tally {
    queries: u64,
    decided: u64,
    latencies: Vec<f64>,
    /// Daemon CPU seconds of each v1 query, in order.
    v1_cpu: Vec<f64>,
    /// Per query (by index): the last latency.
    latency_of: HashMap<usize, f64>,
    /// Per v1 query (by index): the last daemon CPU seconds.
    cpu_of: HashMap<usize, f64>,
    /// Per query (by index): the last answer was definitive.
    definitive: HashMap<usize, bool>,
}

fn record(
    tally: &mut Tally,
    out: &mut RunOutput,
    qi: usize,
    q: &Query,
    verdict: Judgement,
    latency: f64,
    cpu: Option<f64>,
) {
    tally.queries += 1;
    tally.latencies.push(latency);
    tally.latency_of.insert(qi, latency);
    if let Some(cpu) = cpu {
        tally.v1_cpu.push(cpu);
        tally.cpu_of.insert(qi, cpu);
    }
    match verdict {
        Judgement::Ok { definitive } => {
            tally.decided += u64::from(definitive);
            tally.definitive.insert(qi, definitive);
        }
        // An error or refusal fails the run like a wrong answer: the
        // workload admits no failed operation.
        Judgement::Failed(why) => {
            tally.definitive.insert(qi, false);
            out.wrong(format!("query {qi} ({:?}) failed: {why}", q.kind));
        }
        Judgement::Wrong(why) => {
            tally.definitive.insert(qi, false);
            out.wrong(format!("query {qi} ({:?}): {why}", q.kind));
        }
    }
}

// ---------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------

fn decode(seen: Seen<'_>) -> Result<Response, String> {
    match seen {
        Seen::Payload(p) => Response::decode(p),
        Seen::Response(r) => Ok(r),
    }
}

/// Checks a served race set against a reference: equal when the
/// reference is complete, a superset of it otherwise.
fn races_agree(served: &[RaceCoord], reference: &expected::RefRaces) -> bool {
    let mut s = served.to_vec();
    s.sort_unstable();
    if reference.complete {
        s == reference.races
    } else {
        let set: HashSet<&RaceCoord> = s.iter().collect();
        reference.races.iter().all(|r| set.contains(r))
    }
}

/// Checks one answer against a reference and, for verdict kinds, the
/// expected racy/DRF0 classification.
fn judge_against(
    kind: QueryKind,
    response: &Response,
    racy: Option<bool>,
    r: &Reference,
) -> Judgement {
    match (kind, response) {
        (_, Response::Error { code, message }) => {
            Judgement::Failed(format!("{}: {message}", code.as_str()))
        }
        (QueryKind::Drf0 | QueryKind::Races, Response::Verdict { verdict, races, .. }) => {
            match verdict {
                Verdict::Unknown { .. } => Judgement::Ok { definitive: false },
                v => {
                    let served_racy = *v == Verdict::Racy;
                    if racy.is_some_and(|expected| expected != served_racy) {
                        return Judgement::Wrong(format!("verdict {v:?}, expected racy={racy:?}"));
                    }
                    if served_racy == races.is_empty() {
                        return Judgement::Wrong("verdict and race list disagree".into());
                    }
                    if !races_agree(races, &r.races) {
                        return Judgement::Wrong(format!(
                            "race set of {} differs from the reference of {}",
                            races.len(),
                            r.races.races.len()
                        ));
                    }
                    Judgement::Ok { definitive: true }
                }
            }
        }
        (
            QueryKind::Sc,
            Response::Sc {
                outcomes, complete, ..
            },
        ) => {
            if !*complete {
                return Judgement::Ok { definitive: false };
            }
            match r.sc {
                Some(expected) if expected != *outcomes => {
                    Judgement::Wrong(format!("{outcomes} SC outcomes, reference {expected}"))
                }
                _ => Judgement::Ok { definitive: true },
            }
        }
        (_, other) => Judgement::Wrong(format!("response shape {other:?}")),
    }
}

fn judge_cold(refs: &HashMap<u64, (bool, Reference)>, q: &Query, seen: Seen<'_>) -> Judgement {
    let Check::Cold {
        seed,
        racy_label,
        to_generated,
    } = &q.check
    else {
        unreachable!("cold query")
    };
    let response = match decode(seen) {
        Ok(Response::Verdict {
            verdict,
            races,
            steps,
            cache,
        }) => Response::Verdict {
            verdict,
            races: to_generated.races(&races),
            steps,
            cache,
        },
        Ok(r) => r,
        Err(e) => return Judgement::Wrong(format!("undecodable response: {e}")),
    };
    let Some((file_label, reference)) = refs.get(seed) else {
        return Judgement::Wrong(format!("no reference for fuzz seed {seed}"));
    };
    if file_label != racy_label {
        return Judgement::Wrong(format!(
            "recorded label of seed {seed} disagrees with the generator"
        ));
    }
    judge_against(q.kind, &response, Some(*racy_label), reference)
}

fn judge_hot(q: &Query, seen: Seen<'_>) -> Judgement {
    let Check::Hot { response, payload } = &q.check else {
        unreachable!("hot query")
    };
    let same = match &seen {
        Seen::Payload(p) => *p == payload.as_slice(),
        Seen::Response(r) => r == response,
    };
    if same {
        let definitive = match response {
            Response::Verdict { verdict, .. } => !matches!(verdict, Verdict::Unknown { .. }),
            Response::Sc { complete, .. } => *complete,
            _ => false,
        };
        return Judgement::Ok { definitive };
    }
    match decode(seen) {
        Ok(Response::Error { code, message }) => {
            Judgement::Failed(format!("{}: {message}", code.as_str()))
        }
        Ok(other) => Judgement::Wrong(format!("got {other:?}, expected {response:?}")),
        Err(e) => Judgement::Wrong(format!("undecodable response: {e}")),
    }
}

// ---------------------------------------------------------------------
// Workload set-up
// ---------------------------------------------------------------------

struct Workload {
    queries: Vec<Query>,
    cycles: Vec<Cycle>,
    daemon: Daemon,
    journal: PathBuf,
    /// Warm-up requests of the hot set-up (for the traced replay).
    warm: Vec<Request>,
}

impl Drop for Workload {
    fn drop(&mut self) {
        // The daemon field drops after this body; stop it first so its
        // journal can go.
        self.daemon.stop();
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

fn fresh_dir(args: &Args, name: &str) -> Result<PathBuf, String> {
    let dir = args.work_dir.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn daemon_bin(args: &Args) -> Result<&Path, String> {
    args.daemon
        .as_deref()
        .ok_or_else(|| "--daemon PATH is required for serve workloads".into())
}

fn setup_cold(args: &Args, rep: usize) -> Result<Workload, String> {
    let cfg = wo_fuzz::gen::GenConfig::default();
    let mut queries = Vec::new();
    for seed in cold_pool(args.smoke) {
        // The generator's program under a renaming drawn from the workload
        // seed: a new spelling of the same canonical program, so the
        // engines' work is the same for every workload seed.
        let gp = wo_fuzz::gen::generate(seed, &cfg);
        let variant = random_renaming(&gp.program, mix(args.seed, seed));
        let (gen_form, var_form) = (canonicalize(&gp.program), canonicalize(&variant));
        if var_form.text != gen_form.text {
            return Err(format!(
                "renaming fuzz seed {seed} changed its canonical form"
            ));
        }
        let to_generated = Arc::new(Relabel::new(&var_form, &gen_form));
        let text = variant.to_string();
        let key: Arc<str> = Arc::from(var_form.text);
        for kind in KINDS {
            queries.push(Query {
                kind,
                request: request(kind, text.clone()),
                group: kind_group(kind).expect("verdict kind"),
                key: Arc::clone(&key),
                check: Check::Cold {
                    seed,
                    racy_label: gp.label == wo_fuzz::gen::Label::Racy,
                    to_generated: Arc::clone(&to_generated),
                },
            });
        }
    }
    let mut cycles = Vec::new();
    let mut next = 0;
    while next < queries.len() {
        let b_end = (next + BATCH_ITEMS).min(queries.len());
        let v_end = (b_end + V1_PER_CYCLE).min(queries.len());
        cycles.push(build_cycle(
            &queries,
            (next..b_end).collect(),
            (b_end..v_end).collect(),
        ));
        next = v_end;
    }
    // The generator's order, cut into cycles, whatever the workload seed:
    // which query of a repeated program misses and which hits, and so each
    // v1 query's cost, stays the same.
    let journal = fresh_dir(args, &format!("cold-journal-{rep}"))?;
    let daemon = Daemon::spawn(daemon_bin(args)?, &journal)?;
    Ok(Workload {
        queries,
        cycles,
        daemon,
        journal,
        warm: Vec::new(),
    })
}

/// Sends `requests` through one connection in batches and returns the
/// decoded answers in order, followed by a ping so the daemon has
/// journaled the last batch before this returns.
fn ask_all(daemon: &Daemon, requests: &[Request]) -> Result<Vec<Response>, String> {
    let mut client = Client::new(daemon)?;
    let mut answers: Vec<Option<Response>> = vec![None; requests.len()];
    for (chunk_no, chunk) in requests.chunks(BATCH_ITEMS).enumerate() {
        let items: Vec<Vec<u8>> = chunk
            .iter()
            .enumerate()
            .map(|(i, r)| {
                BatchItem::Query {
                    id: i as u64,
                    request: r.clone(),
                }
                .encode()
            })
            .collect();
        let cycle = Cycle {
            batch: (0..chunk.len()).collect(),
            frame: encode_batch_frame(&items),
            v1: Vec::new(),
        };
        let mut err = None;
        client.cycle(&cycle, &mut |i, seen, _, _| match decode(seen) {
            Ok(r) => answers[chunk_no * BATCH_ITEMS + i] = Some(r),
            Err(e) => err = Some(e),
        })?;
        if let Some(e) = err {
            return Err(format!("warm-up answer undecodable: {e}"));
        }
    }
    client.ping()?;
    answers
        .into_iter()
        .map(|a| a.ok_or_else(|| "warm-up answer missing".to_string()))
        .collect()
}

/// Maps race coordinates from one spelling of a program to another with
/// the same canonical form, through the canonical coordinates.
struct Relabel {
    thread: HashMap<u32, u32>,
    loc: HashMap<u32, u32>,
}

impl Relabel {
    fn new(from: &CanonicalForm, to: &CanonicalForm) -> Relabel {
        Relabel {
            thread: from
                .thread_unmap
                .iter()
                .zip(&to.thread_unmap)
                .map(|(&f, &t)| (f as u32, t as u32))
                .collect(),
            loc: from
                .loc_unmap
                .iter()
                .copied()
                .zip(to.loc_unmap.iter().copied())
                .collect(),
        }
    }

    /// `races` in the target spelling, sorted.
    fn races(&self, races: &[RaceCoord]) -> Vec<RaceCoord> {
        let loc = |l: u32| self.loc.get(&l).copied().unwrap_or(l);
        let mut out: Vec<RaceCoord> = races
            .iter()
            .map(|r| RaceCoord {
                first_thread: self.thread[&r.first_thread],
                first_seq: r.first_seq,
                second_thread: self.thread[&r.second_thread],
                second_seq: r.second_seq,
                loc: loc(r.loc),
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// The base answer renamed into a variant's coordinates, as a hit.
fn renamed_answer(base_answer: &Response, to_variant: &Relabel) -> Response {
    match base_answer {
        Response::Verdict {
            verdict,
            races,
            steps,
            ..
        } => Response::Verdict {
            verdict: verdict.clone(),
            races: to_variant.races(races),
            steps: *steps,
            cache: CacheStatus::Hit,
        },
        Response::Sc {
            outcomes,
            complete,
            reason,
            steps,
            ..
        } => Response::Sc {
            outcomes: *outcomes,
            complete: *complete,
            reason: reason.clone(),
            steps: *steps,
            cache: CacheStatus::Hit,
        },
        other => other.clone(),
    }
}

fn setup_hot(args: &Args, rep: usize, out: &mut RunOutput) -> Result<Workload, String> {
    let refs = expected::load_hot(&args.expected_dir)?;
    let bases = hot_bases(Path::new("."))?;
    let all: Vec<(usize, QueryKind)> = (0..bases.len())
        .flat_map(|bi| KINDS.into_iter().map(move |k| (bi, k)))
        .collect();
    let warm: Vec<Request> = all
        .iter()
        .map(|&(bi, k)| request(k, bases[bi].1.to_string()))
        .collect();

    // Warm a fresh daemon, then restart it on the journal it wrote.
    let journal = fresh_dir(args, &format!("hot-journal-{rep}"))?;
    let warm_answers = {
        let warm_daemon = Daemon::spawn(daemon_bin(args)?, &journal)?;
        ask_all(&warm_daemon, &warm)?
    };
    let daemon = Daemon::spawn(daemon_bin(args)?, &journal)?;

    // Base answers must match the unreduced explorer. Only definitive
    // answers are cached, so a base query without one within the budget
    // could never be a hit: it is not asked again.
    let mut asked = Vec::new();
    let mut base_answers = Vec::new();
    for (&(bi, kind), answer) in all.iter().zip(warm_answers) {
        let name = &bases[bi].0;
        let Some(reference) = refs.get(name) else {
            return Err(format!("no recorded reference for hot base {name}"));
        };
        match judge_against(kind, &answer, reference.racy, reference) {
            Judgement::Ok { definitive: true } => {
                asked.push((bi, kind));
                base_answers.push(answer);
            }
            Judgement::Ok { definitive: false } => {}
            Judgement::Failed(why) => return Err(format!("hot base {name}: {why}")),
            Judgement::Wrong(why) => out.wrong(format!("hot base {name} {kind:?}: {why}")),
        }
    }

    let variants = if args.smoke {
        HOT_VARIANTS_SMOKE
    } else {
        HOT_VARIANTS
    };
    let mut queries = Vec::new();
    // One slot per (base, kind group): the query indices of its variants.
    let mut slots: Vec<Vec<usize>> = Vec::new();
    for (bi, (name, base)) in bases.iter().enumerate() {
        let base_form = canonicalize(base);
        let mut by_group: HashMap<KindGroup, Vec<usize>> = HashMap::new();
        for v in 0..variants {
            let variant = random_renaming(base, mix(mix(args.seed, bi as u64), v as u64));
            let var_form = canonicalize(&variant);
            if var_form.text != base_form.text {
                return Err(format!("renaming {v} of {name} changed its canonical form"));
            }
            let to_variant = Relabel::new(&base_form, &var_form);
            let text = variant.to_string();
            for (&(_, kind), answer) in asked
                .iter()
                .zip(&base_answers)
                .filter(|((b, _), _)| *b == bi)
            {
                let response = renamed_answer(answer, &to_variant);
                let payload = response.encode();
                let group = kind_group(kind).expect("verdict kind");
                by_group.entry(group).or_default().push(queries.len());
                queries.push(Query {
                    kind,
                    request: request(kind, text.clone()),
                    group,
                    key: Arc::from(var_form.text.as_str()),
                    check: Check::Hot { response, payload },
                });
            }
        }
        let mut groups: Vec<_> = by_group.into_iter().collect();
        groups.sort_by_key(|(g, _)| *g == KindGroup::Sc);
        slots.extend(groups.into_iter().map(|(_, q)| q));
    }

    // One cycle per slot. Cycle c's batch takes the BATCH_ITEMS slots
    // after position c * BATCH_ITEMS of a seeded slot order, wrapping
    // around, and its v1 queries do the same in a second order. Over the
    // cycle set every slot then appears equally often, so each window of
    // the run sees the same mix of cheap and race-heavy answers whatever
    // the seed. No batch repeats a (base, kind group) slot, so every item
    // is its own cache lookup and hits equal the queries sent.
    assert!(BATCH_ITEMS <= slots.len(), "a batch must not repeat a slot");
    let mut rng = Rng::new(mix(args.seed, 2));
    let mut batch_order: Vec<usize> = (0..slots.len()).collect();
    rng.shuffle(&mut batch_order);
    let mut v1_order = batch_order.clone();
    rng.shuffle(&mut v1_order);
    let mut pick = |order: &[usize], at: usize| {
        let slot = &slots[order[at % order.len()]];
        slot[rng.below(slot.len())]
    };
    let cycles = (0..slots.len())
        .map(|c| {
            let batch = (0..BATCH_ITEMS)
                .map(|j| pick(&batch_order, c * BATCH_ITEMS + j))
                .collect();
            let v1 = (0..V1_PER_CYCLE)
                .map(|j| pick(&v1_order, c * V1_PER_CYCLE + j))
                .collect();
            build_cycle(&queries, batch, v1)
        })
        .collect();
    Ok(Workload {
        queries,
        cycles,
        daemon,
        journal,
        warm,
    })
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// One measured stretch, a whole cold pass or a hot window, reduced to
/// the figures the run reports. The bounded figures are
/// daemon CPU time, which outside load on a shared machine does not
/// stretch; the wall-clock ones go to the detail line.
struct Unit {
    cpu_ms_per_query: f64,
    /// Median daemon CPU time of the v1 queries.
    cpu_p50_ms: f64,
    wall_queries_per_s: f64,
    wall_p50_ms: f64,
    wall_p99_ms: f64,
}

fn sorted_ms(seconds: &[f64]) -> Vec<f64> {
    let mut ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

impl Unit {
    /// `queries` answered in `secs` of wall time and `cpu_s` of daemon
    /// CPU time, with their latencies and the v1 queries' daemon CPU
    /// times, all in seconds.
    fn new(queries: u64, secs: f64, cpu_s: f64, latencies: &[f64], v1_cpu: &[f64]) -> Unit {
        let (wall, cpu) = (sorted_ms(latencies), sorted_ms(v1_cpu));
        Unit {
            cpu_ms_per_query: cpu_s * 1e3 / queries.max(1) as f64,
            cpu_p50_ms: nearest_rank(&cpu, 0.50),
            wall_queries_per_s: queries as f64 / secs,
            wall_p50_ms: nearest_rank(&wall, 0.50),
            wall_p99_ms: nearest_rank(&wall, 0.99),
        }
    }
}

/// What one cold pass leaves for [`cold_unit`].
struct ColdPass {
    /// Wall time of each cycle, in order.
    cycle_secs: Vec<f64>,
    /// Daemon CPU time of each cycle, in order.
    cycle_cpu: Vec<f64>,
    latency_of: HashMap<usize, f64>,
    cpu_of: HashMap<usize, f64>,
}

/// The least of each position's values over the passes.
fn least(passes: &[&[f64]]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The least of each query's values over the passes, for the queries of
/// the first pass.
fn least_per_query(passes: &[&HashMap<usize, f64>]) -> Vec<f64> {
    passes.first().map_or_else(Vec::new, |first| {
        first
            .keys()
            .map(|qi| passes.iter().map(|p| p[qi]).fold(f64::INFINITY, f64::min))
            .collect()
    })
}

/// Cold figures over passes that sent the same `queries` in the same
/// cycles. Every pass repeats the same deterministic work on a fresh
/// daemon, and interference from outside the process only ever adds
/// time, so a cycle's time and CPU time, and a query's latency and CPU
/// time, are each their least over the passes.
fn cold_unit(passes: &[ColdPass], queries: u64) -> Unit {
    let secs = least(&passes.iter().map(|p| &p.cycle_secs[..]).collect::<Vec<_>>());
    let cpu = least(&passes.iter().map(|p| &p.cycle_cpu[..]).collect::<Vec<_>>());
    let latencies = least_per_query(&passes.iter().map(|p| &p.latency_of).collect::<Vec<_>>());
    let v1_cpu = least_per_query(&passes.iter().map(|p| &p.cpu_of).collect::<Vec<_>>());
    Unit::new(
        queries,
        secs.iter().sum(),
        cpu.iter().sum(),
        &latencies,
        &v1_cpu,
    )
}

/// One driven pass over a daemon.
struct Pass {
    tally: Tally,
    units: Vec<Unit>,
    cycles_done: usize,
    /// Wall time of each cycle, in order.
    cycle_secs: Vec<f64>,
    /// Daemon CPU time of each cycle, in order.
    cycle_cpu: Vec<f64>,
    elapsed: f64,
}

/// Where the current measurement unit began.
struct Mark {
    at: Instant,
    cpu_s: f64,
    queries: u64,
    latencies: usize,
    v1: usize,
}

impl Mark {
    fn now(pid: u32, tally: &Tally) -> Result<Mark, String> {
        Ok(Mark {
            at: Instant::now(),
            cpu_s: cpu_seconds(Some(pid))?,
            queries: tally.queries,
            latencies: tally.latencies.len(),
            v1: tally.v1_cpu.len(),
        })
    }
}

/// Drives `wl`'s cycles over one connection, checking every answer:
/// cold sends its corpus once, hot loops its cycles for the run length,
/// cut into windows of about [`HOT_WINDOW_S`].
fn drive(
    args: &Args,
    wl: &Workload,
    cold_refs: &HashMap<u64, (bool, Reference)>,
    out: &mut RunOutput,
) -> Result<Pass, String> {
    let cold = args.workload == "serve_cold";
    let pid = wl.daemon.child.id();
    let mut tally = Tally::default();
    let mut units = Vec::new();
    let mut client = Client::new(&wl.daemon)?;
    let mut cycles_done = 0usize;
    let (mut cycle_secs, mut cycle_cpu) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut unit = Mark::now(pid, &tally)?;
    loop {
        let cycle = &wl.cycles[cycles_done % wl.cycles.len()];
        let (tc, cpu) = (Instant::now(), cpu_seconds(Some(pid))?);
        client.cycle(cycle, &mut |qi, seen, latency, cpu| {
            let q = &wl.queries[qi];
            let v = if cold {
                judge_cold(cold_refs, q, seen)
            } else {
                judge_hot(q, seen)
            };
            record(&mut tally, out, qi, q, v, latency, cpu);
        })?;
        cycle_secs.push(tc.elapsed().as_secs_f64());
        cycle_cpu.push(cpu_seconds(Some(pid))? - cpu);
        cycles_done += 1;
        let done = if cold {
            cycles_done == wl.cycles.len()
        } else {
            t0.elapsed().as_secs_f64() >= args.seconds
        };
        let unit_secs = unit.at.elapsed().as_secs_f64();
        if done || (!cold && unit_secs >= HOT_WINDOW_S) {
            let next = Mark::now(pid, &tally)?;
            units.push(Unit::new(
                tally.queries - unit.queries,
                unit_secs,
                next.cpu_s - unit.cpu_s,
                &tally.latencies[unit.latencies..],
                &tally.v1_cpu[unit.v1..],
            ));
            unit = next;
        }
        if done {
            break;
        }
    }
    Ok(Pass {
        tally,
        units,
        cycles_done,
        cycle_secs,
        cycle_cpu,
        elapsed: t0.elapsed().as_secs_f64(),
    })
}

/// Checks the daemon's own counters against the path the pass must have
/// taken, so the benchmark cannot silently measure the wrong path.
fn check_path(wl: &Workload, pass: &Pass, stats: &ServerStats, out: &mut RunOutput) {
    if wl.warm.is_empty() {
        let expected = expected_explorations(wl, pass.cycles_done, &pass.tally);
        if stats.explored != expected {
            out.wrong(format!(
                "daemon explored {} keys, expected {expected} unique canonical misses",
                stats.explored
            ));
        }
    } else {
        if stats.explored != 0 {
            out.wrong(format!(
                "hot daemon explored {} keys, expected 0",
                stats.explored
            ));
        }
        if stats.cache_hits != pass.tally.queries {
            out.wrong(format!(
                "hot daemon counted {} hits for {} queries",
                stats.cache_hits, pass.tally.queries
            ));
        }
    }
}

fn stats_json(stats: &ServerStats) -> String {
    format!(
        "{{\"cache_hits\": {}, \"explored\": {}, \"coalesced\": {}, \"coalesced_in_batch\": {}, \"overloaded\": {}, \"degraded\": {}, \"journal_replayed\": {}}}",
        stats.cache_hits, stats.explored, stats.coalesced, stats.coalesced_in_batch,
        stats.overloaded, stats.degraded, stats.journal_replayed
    )
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<RunOutput, String> {
    let cold = args.workload == "serve_cold";
    let mut out = RunOutput::default();
    let cold_refs = if cold {
        expected::load_cold(&args.expected_dir)?
    } else {
        HashMap::new()
    };

    // Every pass sets up SETUP_REPS times and drives the last set-up.
    // Cold: a fresh daemon, then the corpus sent once. Hot: warm-up and a
    // restart on the journal, then one pass for the run length.
    let passes = if cold && !args.trace { COLD_PASSES } else { 1 };
    let mut setup_times = Vec::new();
    let mut units = Vec::new();
    let mut rss = Vec::new();
    let mut last = None;
    let mut stats_notes = Vec::new();
    let mut decided = 0u64;
    let mut cold_passes = Vec::new();
    for pass_no in 0..passes {
        let mut wl = None;
        for rep in 0..SETUP_REPS {
            drop(wl.take()); // stop the previous repetition's daemon first
            let t = Instant::now();
            let w = if cold {
                setup_cold(args, pass_no * SETUP_REPS + rep)?
            } else {
                setup_hot(args, rep, &mut out)?
            };
            setup_times.push(t.elapsed().as_secs_f64());
            wl = Some(w);
        }
        let wl = wl.expect("at least one set-up");
        if !cold {
            let stats = wl.daemon.stats()?;
            let keys: HashSet<(KindGroup, &str)> =
                wl.queries.iter().map(|q| (q.group, &*q.key)).collect();
            if stats.journal_replayed < keys.len() as u64 {
                out.wrong(format!(
                    "restarted daemon replayed {} journal entries for {} cached keys",
                    stats.journal_replayed,
                    keys.len()
                ));
            }
        }
        let pass = drive(args, &wl, &cold_refs, &mut out)?;
        let stats = wl.daemon.stats()?;
        check_path(&wl, &pass, &stats, &mut out);
        rss.push(wl.daemon.peak_rss_mb());
        stats_notes.push(stats_json(&stats));
        out.attempted += pass.tally.queries;
        decided += pass.tally.decided;
        let mut pass = pass;
        units.append(&mut pass.units);
        if cold {
            cold_passes.push(ColdPass {
                cycle_secs: std::mem::take(&mut pass.cycle_secs),
                cycle_cpu: std::mem::take(&mut pass.cycle_cpu),
                latency_of: std::mem::take(&mut pass.tally.latency_of),
                cpu_of: std::mem::take(&mut pass.tally.cpu_of),
            });
        }
        last = Some((wl, pass, stats));
    }
    let (wl, pass, stats) = last.expect("at least one pass");

    let sent = out.attempted;
    let per_unit = |f: fn(&Unit) -> f64| -> Vec<f64> { units.iter().map(f).collect() };
    // Hot takes medians over its windows, so a burst of outside load moves
    // one window rather than the result; cold takes the least over its
    // passes (see `cold_unit`).
    let reported = if cold {
        cold_unit(&cold_passes, pass.tally.queries)
    } else {
        Unit {
            cpu_ms_per_query: median(&per_unit(|u| u.cpu_ms_per_query)),
            cpu_p50_ms: median(&per_unit(|u| u.cpu_p50_ms)),
            wall_queries_per_s: median(&per_unit(|u| u.wall_queries_per_s)),
            wall_p50_ms: median(&per_unit(|u| u.wall_p50_ms)),
            wall_p99_ms: median(&per_unit(|u| u.wall_p99_ms)),
        }
    };
    out.e2e.insert("setup_s", median(&setup_times));
    out.e2e
        .insert("cpu_ms_per_query", reported.cpu_ms_per_query);
    out.e2e.insert("query_cpu_p50_ms", reported.cpu_p50_ms);
    out.e2e
        .insert("decided_ratio", decided as f64 / sent.max(1) as f64);
    out.e2e.insert(
        "correct_ratio",
        1.0 - out.failed as f64 / sent.max(1) as f64,
    );
    out.e2e.insert("peak_rss_mb", median(&rss));
    out.samples.insert("setup_s", setup_times);
    out.samples.insert("peak_rss_mb", rss);
    out.samples
        .insert("unit_cpu_ms_per_query", per_unit(|u| u.cpu_ms_per_query));
    out.samples.insert(
        "unit_wall_queries_per_s",
        per_unit(|u| u.wall_queries_per_s),
    );
    out.samples
        .insert("unit_wall_p50_ms", per_unit(|u| u.wall_p50_ms));
    out.samples
        .insert("unit_wall_p99_ms", per_unit(|u| u.wall_p99_ms));
    out.notes.push((
        "wall".into(),
        format!(
            "{{\"queries_per_s\": {}, \"latency_p50_ms\": {}, \"latency_p99_ms\": {}}}",
            reported.wall_queries_per_s, reported.wall_p50_ms, reported.wall_p99_ms
        ),
    ));
    out.notes.push((
        "daemon_stats".into(),
        format!("[{}]", stats_notes.join(", ")),
    ));
    out.notes.push((
        "units".into(),
        jstr(&format!(
            "{} {}",
            units.len(),
            if cold {
                "passes over the corpus, each on a fresh daemon; least over passes"
            } else {
                "windows of about 1 s, medians reported"
            }
        )),
    ));
    out.notes.push(("client".into(), jstr(&format!(
        "1 connection, closed loop: {BATCH_ITEMS}-item batch frame then {V1_PER_CYCLE} v1 queries per cycle"
    ))));

    if args.trace {
        tracer.set("serve.cache_hits", stats.cache_hits as f64);
        tracer.set("serve.explored", stats.explored as f64);
        tracer.set("serve.coalesced", stats.coalesced as f64);
        tracer.set("serve.coalesced_in_batch", stats.coalesced_in_batch as f64);
        let mut wl = wl;
        wl.daemon.stop();
        let replay_cycles = if cold {
            pass.cycles_done
        } else {
            pass.cycles_done.min(HOT_REPLAY_CYCLES)
        };
        let replayed = replay(
            args,
            tracer,
            &wl.queries,
            &wl.cycles,
            &wl.warm,
            replay_cycles,
            &cold_refs,
            &mut out,
        )?;
        let layer_s: f64 = [
            "serve.protocol.decode",
            "litmus.parse",
            "serve.canon.canonicalize",
            "serve.cache.lookup",
            "serve.compute_answer",
            "serve.journal.append",
            "serve.translate_races",
            "serve.protocol.encode",
        ]
        .iter()
        .map(|n| tracer.total_s(n))
        .sum();
        let e2e_us = pass.elapsed / pass.tally.queries.max(1) as f64 * 1e6;
        tracer.set(
            "serve.unattributed_us",
            e2e_us - layer_s / replayed.max(1) as f64 * 1e6,
        );
    }
    Ok(out)
}

/// Explorations the daemon must have run: one per unique canonical key
/// of a batch not yet answered definitively, and one per v1 query whose
/// key was not yet answered definitively.
fn expected_explorations(wl: &Workload, cycles_done: usize, tally: &Tally) -> u64 {
    let mut known: HashSet<(KindGroup, &str)> = HashSet::new();
    let mut explored = 0u64;
    for cycle in &wl.cycles[..cycles_done] {
        let mut in_batch = HashSet::new();
        for &qi in &cycle.batch {
            let q = &wl.queries[qi];
            let key = (q.group, &*q.key);
            if !known.contains(&key) && in_batch.insert(key) {
                explored += 1;
            }
        }
        for &qi in &cycle.batch {
            if tally.definitive.get(&qi) == Some(&true) {
                known.insert((wl.queries[qi].group, &*wl.queries[qi].key));
            }
        }
        for (qi, _) in &cycle.v1 {
            let q = &wl.queries[*qi];
            let key = (q.group, &*q.key);
            if !known.contains(&key) {
                explored += 1;
            }
            if tally.definitive.get(qi) == Some(&true) {
                known.insert(key);
            }
        }
    }
    explored
}

// ---------------------------------------------------------------------
// The traced in-process replay
// ---------------------------------------------------------------------

/// The daemon's per-query path, replayed in its order through each
/// layer's public functions: decode, parse, canonicalize, cache lookup,
/// (on a miss) the engines and the journal append, race translation,
/// encode. The engines are also called one by one on every miss, so the
/// axiomatic first look and the explorers are timed on the same inputs
/// whichever of them `compute_answer` ended up using.
struct Replayer {
    cache: VerdictCache,
    journal: Journal,
    ecfg: ExploreConfig,
}

impl Replayer {
    fn open(dir: &Path) -> Result<Replayer, String> {
        let (journal, records, _) = Journal::open(
            dir,
            wo_serve::server::ServerConfig::default().snapshot_every,
        )
        .map_err(|e| format!("journal: {e}"))?;
        let cache = VerdictCache::new();
        for rec in records {
            cache.insert_replayed(rec.group, rec.key, rec.answer);
        }
        let mut ecfg = campaign_budget();
        ecfg.deadline = None;
        Ok(Replayer {
            cache,
            journal,
            ecfg,
        })
    }

    fn query(&mut self, tracer: &mut Tracer, item: &[u8], batch: bool) -> Result<Response, String> {
        let request = tracer.time("serve.protocol.decode", || {
            if batch {
                match BatchItem::decode(item) {
                    Ok(BatchItem::Query { request, .. }) => Ok(request),
                    Ok(_) => Err("not a query item".to_string()),
                    Err(e) => Err(e),
                }
            } else {
                Request::decode(item)
            }
        })?;
        let program = tracer
            .time("litmus.parse", || {
                litmus::parse::parse_program(&request.program)
            })
            .map_err(|e| e.to_string())?;
        let form = tracer.time("serve.canon.canonicalize", || canonicalize(&program));
        let group = kind_group(request.kind).ok_or("query kind without a body")?;
        let (answer, status) = match tracer.time("serve.cache.lookup", || {
            self.cache.lookup(group, &form.text)
        }) {
            Lookup::Hit(answer) => (answer, CacheStatus::Hit),
            Lookup::Join(_) => return Err("single-threaded replay joined a flight".into()),
            Lookup::Lead(guard) => {
                let ecfg = self.ecfg;
                let answer = tracer.time("serve.compute_answer", || {
                    compute_answer(group, &form.program, &ecfg)
                });
                probe_engines(tracer, group, &form.program, &ecfg, &answer);
                let shared = guard.complete(answer);
                if shared.is_definitive() {
                    let record = JournalRecord {
                        group,
                        key: form.text.clone(),
                        answer: (*shared).clone(),
                    };
                    let (journal, cache) = (&mut self.journal, &self.cache);
                    tracer.time("serve.journal.append", || -> Result<(), String> {
                        if journal.append(&record).map_err(|e| e.to_string())? {
                            let live: Vec<JournalRecord> = cache
                                .definitive_entries()
                                .into_iter()
                                .map(|(group, key, a)| JournalRecord {
                                    group,
                                    key,
                                    answer: (*a).clone(),
                                })
                                .collect();
                            journal.compact(live.iter()).map_err(|e| e.to_string())?;
                        }
                        Ok(())
                    })?;
                }
                (shared, CacheStatus::Miss)
            }
        };
        let response = match (request.kind, &*answer) {
            (
                QueryKind::Drf0 | QueryKind::Races,
                CachedAnswer::Explore {
                    racy,
                    races,
                    steps,
                    definitive,
                    reason,
                },
            ) => {
                let races = tracer.time("serve.translate_races", || {
                    translate_races(races, &form.thread_unmap, &form.loc_unmap)
                });
                Response::Verdict {
                    verdict: wo_serve::explore_verdict(*racy, *definitive, reason.as_deref()),
                    races,
                    steps: *steps,
                    cache: status,
                }
            }
            (
                QueryKind::Sc,
                CachedAnswer::Sc {
                    outcomes,
                    complete,
                    reason,
                    steps,
                },
            ) => Response::Sc {
                outcomes: *outcomes,
                complete: *complete,
                reason: reason.clone(),
                steps: *steps,
                cache: status,
            },
            _ => return Err("answer shape does not match the query kind".into()),
        };
        // Large race sets go out once per batch as a race block.
        let inline = !batch
            || !matches!(&response, Response::Verdict { races, .. } if races.len() >= RACE_BLOCK_MIN_RACES);
        if inline {
            std::hint::black_box(tracer.time("serve.protocol.encode", || response.encode()));
        }
        Ok(response)
    }
}

/// Times each engine on a miss and counts whether `compute_answer` took
/// the axiomatic first look's answer (its `steps` then carry the
/// axiomatic work).
fn probe_engines(
    tracer: &mut Tracer,
    group: KindGroup,
    program: &Program,
    ecfg: &ExploreConfig,
    answer: &CachedAnswer,
) {
    let acfg = AxiomConfig::from_explore(ecfg);
    let accepted = match group {
        KindGroup::Explore => {
            let r = tracer.time("axiom.decide_drf0", || decide_drf0(program, &acfg));
            tracer.count("axiom.work", r.work as f64);
            let d = tracer.time("explore.dpor", || explore_dpor(program, ecfg));
            tracer.count("explore.dpor.steps", d.steps as f64);
            r.verdict == AxiomVerdict::Drf0
                && matches!(answer, CachedAnswer::Explore { steps, .. } if *steps == r.work)
        }
        KindGroup::Sc => {
            let r = tracer.time("axiom.analyze", || analyze(program, &acfg));
            tracer.count("axiom.work", r.work as f64);
            let d = tracer.time("explore.converged", || explore_results(program, ecfg));
            tracer.count("explore.converged.steps", d.steps as f64);
            r.complete && matches!(answer, CachedAnswer::Sc { steps, .. } if *steps == r.work)
        }
    };
    tracer.count("axiom.first_looks", 1.0);
    tracer.count("axiom.accepted", f64::from(u8::from(accepted)));
}

#[allow(clippy::too_many_arguments)]
fn replay(
    args: &Args,
    tracer: &mut Tracer,
    queries: &[Query],
    cycles: &[Cycle],
    warm: &[Request],
    cycles_to_replay: usize,
    cold_refs: &HashMap<u64, (bool, Reference)>,
    out: &mut RunOutput,
) -> Result<u64, String> {
    let dir = fresh_dir(args, "replay-journal")?;
    if !warm.is_empty() {
        // Hot: warm untraced, then "restart" on the journal.
        let mut warm_tracer = Tracer::disabled();
        let mut r = Replayer::open(&dir)?;
        for req in warm {
            r.query(&mut warm_tracer, &req.encode(), false)?;
        }
    }
    let mut r = Replayer::open(&dir)?;
    let mut replayed = 0u64;
    for cycle in cycles.iter().cycle().take(cycles_to_replay) {
        let items = split_batch_frame(&cycle.frame, usize::MAX)?;
        let batch = items
            .iter()
            .zip(&cycle.batch)
            .map(|(item, &qi)| (qi, *item, true));
        let v1 = cycle
            .v1
            .iter()
            .map(|(qi, payload)| (*qi, payload.as_slice(), false));
        for (qi, bytes, is_batch) in batch.chain(v1) {
            tracer.query = qi as u32;
            let response = tracer.parent("serve.query", |t| r.query(t, bytes, is_batch))?;
            let q = &queries[qi];
            let verdict = match &q.check {
                Check::Cold { .. } => judge_cold(cold_refs, q, Seen::Response(response)),
                Check::Hot { .. } => judge_hot(q, Seen::Response(response)),
            };
            match verdict {
                Judgement::Wrong(why) => out.wrong(format!("replayed query {qi}: {why}")),
                Judgement::Failed(why) => out.wrong(format!("replayed query {qi} failed: {why}")),
                Judgement::Ok { .. } => {}
            }
            replayed += 1;
        }
    }
    let looks = tracer.get("axiom.first_looks");
    tracer.set(
        "axiom.accept_ratio",
        if looks > 0.0 {
            tracer.get("axiom.accepted") / looks
        } else {
            0.0
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(replayed)
}
