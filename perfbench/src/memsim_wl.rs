//! `memsim_sweep`: the PERF grid (`wo_bench::perf_grid`) through
//! `memsim::sweep` at `nproc` threads, one pass after another, each pass
//! on fresh machine seeds derived from the workload seed.
//!
//! Every cell runs a DRF0 kernel, so by Definition 2 every completed run
//! must appear sequentially consistent. The check replays the run's
//! `po ∪ sync-order` linearization (`memsim::checkable_order`) on an
//! atomic memory: if every read returns the latest write and the final
//! memory matches, that order is an SC witness. When it is not, a read
//! that misses its own processor's earlier write (and whose value no
//! other processor wrote) proves the run is not SC; otherwise the general
//! `check_sc` search runs, under a small state budget.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use litmus::Program;
use memory_model::sc::{check_sc, ScCheckConfig, ScVerdict};
use memory_model::{Loc, Value};
use memsim::sweep::{sweep, Cell, CellOutcome};
use memsim::{checkable_order, Machine, MachineConfig, RunResult};
use wo_bench::perf_grid::PerfGrid;

use crate::measure::{cpu_seconds, median, mix, num, peak_rss_mb, Tracer};
use crate::{Args, RunOutput};

const SETUP_REPS: usize = 3;
/// State budget of the fallback SC search.
const SC_SEARCH_STATES: usize = 2_000;

fn grid(smoke: bool) -> PerfGrid {
    if smoke {
        PerfGrid::smoke()
    } else {
        PerfGrid::full()
    }
}

/// The grid's cells with machine seeds for pass `pass`.
fn pass_cells<'g>(base: &[Cell<'g>], seed: u64, pass: u64) -> Vec<Cell<'g>> {
    let pass_seed = mix(seed, pass);
    base.iter()
        .enumerate()
        .map(|(i, c)| Cell {
            program: c.program,
            config: MachineConfig {
                seed: mix(pass_seed, i as u64),
                ..c.config
            },
        })
        .collect()
}

/// Whether a completed run appears SC: `Some(true)` with a witness,
/// `Some(false)` when provably not, `None` when the search gave up.
fn appears_sc(run: &RunResult, program: &Program) -> Option<bool> {
    let mut memory = program.initial_memory();
    let mut next_seq: HashMap<u16, u32> = HashMap::new();
    let mut witness = true;
    for rec in checkable_order(&run.records) {
        let op = rec.op;
        let seq = next_seq.entry(op.proc.0).or_insert(0);
        if op.id.seq_part() < *seq {
            witness = false; // not a program-order linearization
            break;
        }
        *seq = op.id.seq_part() + 1;
        if op.kind.is_read() && op.read_value != Some(memory.read(op.loc)) {
            witness = false;
            break;
        }
        if let (true, Some(v)) = (op.kind.is_write(), op.write_value) {
            memory.write(op.loc, v);
        }
    }
    if witness
        && run
            .outcome
            .final_memory
            .iter()
            .all(|&(loc, v)| memory.read(loc) == v)
    {
        return Some(true);
    }
    if reads_stale_own_write(run) {
        return Some(false);
    }
    match check_sc(
        &run.observation(),
        &program.initial_memory(),
        &ScCheckConfig {
            max_states: SC_SEARCH_STATES,
        },
    ) {
        ScVerdict::Consistent(_) => Some(true),
        ScVerdict::Inconsistent => Some(false),
        ScVerdict::BudgetExhausted => None,
    }
}

/// Whether some read returns a value other than its processor's latest
/// program-order-earlier write to that location, and no other processor
/// ever writes the value it returned. No SC order can explain such a
/// read, so this proves the run is not SC without a search.
fn reads_stale_own_write(run: &RunResult) -> bool {
    let mut writers: HashMap<(Loc, Value), HashSet<u16>> = HashMap::new();
    for rec in &run.records {
        if let Some(v) = rec.op.write_value {
            writers
                .entry((rec.op.loc, v))
                .or_default()
                .insert(rec.op.proc.0);
        }
    }
    run.observation().threads().iter().any(|thread| {
        let p = thread.proc.0;
        let mut last_write: HashMap<Loc, Value> = HashMap::new();
        thread.ops.iter().any(|op| {
            let stale = op.kind.is_read()
                && last_write.get(&op.loc).is_some_and(|&own| {
                    op.read_value.is_some_and(|got| {
                        got != own
                            && writers
                                .get(&(op.loc, got))
                                .is_none_or(|w| w.iter().all(|&q| q == p))
                    })
                });
            if let Some(v) = op.write_value {
                last_write.insert(op.loc, v);
            }
            stale
        })
    })
}

/// Judges one cell: returns whether it was decided.
fn judge(outcome: &CellOutcome, cell: &Cell<'_>, index: usize, out: &mut RunOutput) -> bool {
    match outcome {
        CellOutcome::Ok(run) if run.completed => match appears_sc(run, cell.program) {
            Some(true) => true,
            Some(false) => {
                out.wrong(format!("cell {index}: a DRF0 run does not appear SC"));
                true
            }
            None => false,
        },
        CellOutcome::Ok(_) => {
            out.wrong(format!("cell {index}: watchdog stopped the run"));
            false
        }
        CellOutcome::Err(e) => {
            out.wrong(format!("cell {index}: run error {e}"));
            false
        }
        CellOutcome::Panicked(msg) => {
            out.wrong(format!("cell {index}: panicked: {msg}"));
            false
        }
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<RunOutput, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = RunOutput::default();

    // Set-up: build the grid and run one warm-up pass.
    let mut setup_times = Vec::new();
    let mut the_grid = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let g = grid(args.smoke);
        let warm = pass_cells(&g.cells(), args.seed, u64::MAX - rep as u64);
        std::hint::black_box(sweep(&warm, threads));
        drop(warm);
        setup_times.push(t.elapsed().as_secs_f64());
        the_grid = Some(g);
    }
    let g = the_grid.expect("at least one set-up");
    let base = g.cells();
    out.e2e.insert("setup_s", median(&setup_times));
    out.samples.insert("setup_s", setup_times);

    if args.trace {
        traced(args, tracer, &base, threads, &mut out);
        return Ok(out);
    }

    let (mut busy, mut cells, mut decided) = (0.0f64, 0u64, 0u64);
    let (mut pass_ms, mut pass_cpu_ms) = (Vec::new(), Vec::new());
    let mut pass = 0u64;
    // A wrong answer fails the run; stop after its pass rather than pay
    // the fallback SC search on every later pass.
    while pass == 0 || (busy < args.seconds && out.wrong.is_empty()) {
        let cells_p = pass_cells(&base, args.seed, pass);
        let (t, c) = (Instant::now(), cpu_seconds(None)?);
        let outcomes = sweep(&cells_p, threads);
        pass_cpu_ms.push((cpu_seconds(None)? - c) * 1e3);
        let dt = t.elapsed().as_secs_f64();
        busy += dt;
        pass_ms.push(dt * 1e3);
        for (i, (o, c)) in outcomes.iter().zip(&cells_p).enumerate() {
            decided += u64::from(judge(o, c, i, &mut out));
        }
        cells += cells_p.len() as u64;
        pass += 1;
    }
    out.attempted = cells;
    // CPU time of the sweep (all its threads) per pass, which outside
    // load on a shared machine does not stretch the way it does wall time.
    out.e2e.insert(
        "cpu_ms_per_query",
        pass_cpu_ms.iter().sum::<f64>() / pass_cpu_ms.len() as f64,
    );
    out.e2e.insert("query_cpu_p50_ms", median(&pass_cpu_ms));
    out.e2e
        .insert("decided_ratio", decided as f64 / cells as f64);
    out.e2e
        .insert("correct_ratio", 1.0 - out.failed as f64 / cells as f64);
    out.e2e
        .insert("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
    out.notes.push((
        "wall_cells_per_s".into(),
        num(base.len() as f64 * 1e3 / median(&pass_ms)),
    ));
    out.samples.insert("pass_cpu_ms", pass_cpu_ms);
    out.samples.insert("pass_ms", pass_ms);
    out.notes.push((
        "sweep".into(),
        format!(
            "{{\"passes\": {pass}, \"cells_per_pass\": {}, \"threads\": {threads}}}",
            base.len()
        ),
    ));
    Ok(out)
}

/// Serial replay of each pass on one recycled machine, timing `reset`
/// and `run_once` per cell, against the parallel sweep of the same cells.
fn traced(
    args: &Args,
    tracer: &mut Tracer,
    base: &[Cell<'_>],
    threads: usize,
    out: &mut RunOutput,
) {
    let (mut serial_s, mut parallel_s) = (0.0f64, 0.0f64);
    let (mut popped, mut messages, mut peak_queue) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || (t0.elapsed().as_secs_f64() < args.seconds && out.wrong.is_empty()) {
        let cells = pass_cells(base, args.seed, pass);
        let mut machine: Option<Machine<'_>> = None;
        let mut serial = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            tracer.query = i as u32;
            let result = match machine.as_mut() {
                Some(m) => {
                    let (start, reset) = (
                        Instant::now(),
                        tracer.time("memsim.reset", || m.reset(cell.program, &cell.config)),
                    );
                    let run = reset.and_then(|()| tracer.time("memsim.run_once", || m.run_once()));
                    serial_s += start.elapsed().as_secs_f64();
                    run
                }
                None => Machine::new(cell.program, &cell.config).and_then(|mut m| {
                    let start = Instant::now();
                    let run = tracer.time("memsim.run_once", || m.run_once());
                    serial_s += start.elapsed().as_secs_f64();
                    machine = Some(m);
                    run
                }),
            };
            let outcome = match result {
                Ok(run) => {
                    popped += run.stats.events_popped;
                    messages += run.stats.messages;
                    peak_queue = peak_queue.max(run.stats.peak_queue_len);
                    CellOutcome::Ok(run)
                }
                Err(e) => CellOutcome::Err(e),
            };
            judge(&outcome, cell, i, out);
            serial.push(outcome);
        }
        let t = Instant::now();
        let parallel = sweep(&cells, threads);
        parallel_s += t.elapsed().as_secs_f64();
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            let same = match (s, p) {
                (CellOutcome::Ok(a), CellOutcome::Ok(b)) => {
                    a.cycles == b.cycles && a.records == b.records
                }
                _ => false,
            };
            if !same {
                out.wrong(format!(
                    "pass {pass} cell {i}: recycled serial run differs from the sweep"
                ));
            }
        }
        out.attempted += cells.len() as u64;
        pass += 1;
    }
    let mut layers: Vec<String> = ["memsim.run_once", "memsim.reset"]
        .iter()
        .map(|name| {
            let (calls, total, p50, p99) = tracer.summary(name);
            format!(
                "\"{name}\": {{\"calls\": {calls}, \"total_s\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
                num(total),
                num(p50),
                num(p99)
            )
        })
        .collect();
    layers.push(format!(
        "\"memsim.sweep.parallel_efficiency\": {}",
        num(serial_s / (threads as f64 * parallel_s))
    ));
    layers.push(format!("\"simx.events_popped\": {popped}"));
    layers.push(format!("\"coherence.messages\": {messages}"));
    layers.push(format!("\"memsim.peak_queue_len\": {peak_queue}"));
    out.notes
        .push(("memsim_layers".into(), format!("{{{}}}", layers.join(", "))));
}
