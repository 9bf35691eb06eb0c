//! Recorded reference answers under `perfbench/expected/`.
//!
//! None of these come from the engines the benchmark measures: SC
//! outcome counts and race sets come from the *unreduced*
//! `litmus::explore` enumeration, DRF0 labels from the fuzz generator's
//! static classification, and trace-report hashes from a single-shard,
//! single-thread check of each constructed trace.
//!
//! Files are plain text, one record per line, `#` comments:
//!
//! * `serve_cold.txt`: `<fuzz seed> <drf0|racy> <sc count|-> <c|p> <races>`
//! * `serve_hot.txt`:  `<base name> <drf0|racy|-> <sc count|-> <c|p> <races>`
//! * `trace_check.txt`: `<full|smoke> <pool index> <fnv1a64 hex>`
//!
//! `c` marks a complete enumeration (the race set is exact), `p` a
//! budget-truncated one (the race set is a subset of the true set and the
//! SC count is unknown). `<races>` is `none` or comma-separated
//! `t.s/t.s/loc` triples in submitter coordinates.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use litmus::explore::{explore, ExploreConfig};
use litmus::Program;
use memsim::pool::run_with_worker;
use wo_serve::protocol::RaceCoord;

/// The exploration budget of every query and reference: the fuzz
/// campaign's own (`OracleConfig::default().explore`).
pub fn campaign_budget() -> ExploreConfig {
    wo_fuzz::oracle::OracleConfig::default().explore
}

/// A reference race set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefRaces {
    /// Whether the enumeration finished (the set is exact).
    pub complete: bool,
    /// Sorted races in submitter coordinates.
    pub races: Vec<RaceCoord>,
}

/// Reference answer for one program.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `Some(true)` racy, `Some(false)` DRF0, `None` unknown (truncated
    /// enumeration without a race).
    pub racy: Option<bool>,
    /// SC outcome count when the enumeration was complete.
    pub sc: Option<u64>,
    pub races: RefRaces,
}

/// Runs the unreduced explorer under the campaign budget.
pub fn reference(program: &Program) -> Reference {
    let report = explore(program, &campaign_budget());
    let mut races: Vec<RaceCoord> = report
        .races
        .iter()
        .map(|r| RaceCoord {
            first_thread: u32::from(r.first.proc_part().0),
            first_seq: r.first.seq_part(),
            second_thread: u32::from(r.second.proc_part().0),
            second_seq: r.second.seq_part(),
            loc: r.loc.0,
        })
        .collect();
    races.sort_unstable();
    let racy = if !races.is_empty() {
        Some(true)
    } else if report.complete {
        Some(false)
    } else {
        None
    };
    Reference {
        racy,
        sc: report.complete.then_some(report.results.len() as u64),
        races: RefRaces {
            complete: report.complete,
            races,
        },
    }
}

fn races_text(r: &RefRaces) -> String {
    if r.races.is_empty() {
        return "none".into();
    }
    let parts: Vec<String> = r
        .races
        .iter()
        .map(|c| {
            format!(
                "{}.{}/{}.{}/{}",
                c.first_thread, c.first_seq, c.second_thread, c.second_seq, c.loc
            )
        })
        .collect();
    parts.join(",")
}

fn parse_races(complete: &str, text: &str) -> Result<RefRaces, String> {
    let complete = match complete {
        "c" => true,
        "p" => false,
        other => return Err(format!("bad completeness flag {other:?}")),
    };
    let mut races = Vec::new();
    if text != "none" {
        for triple in text.split(',') {
            let nums: Vec<u32> = triple
                .split(['.', '/'])
                .map(|n| n.parse().map_err(|_| format!("bad race {triple:?}")))
                .collect::<Result<_, _>>()?;
            let [ft, fs, st, ss, loc] = nums[..] else {
                return Err(format!("bad race {triple:?}"));
            };
            races.push(RaceCoord {
                first_thread: ft,
                first_seq: fs,
                second_thread: st,
                second_seq: ss,
                loc,
            });
        }
    }
    Ok(RefRaces { complete, races })
}

fn lines(path: &Path) -> Result<Vec<Vec<String>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect())
}

fn parse_count(s: &str) -> Result<Option<u64>, String> {
    if s == "-" {
        Ok(None)
    } else {
        s.parse().map(Some).map_err(|_| format!("bad count {s:?}"))
    }
}

/// Cold references by fuzz seed: `(static label is racy, reference)`.
pub fn load_cold(dir: &Path) -> Result<HashMap<u64, (bool, Reference)>, String> {
    let mut out = HashMap::new();
    for f in lines(&dir.join("serve_cold.txt"))? {
        let [seed, label, sc, complete, races] = &f[..] else {
            return Err(format!("bad serve_cold line {f:?}"));
        };
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
        let racy_label = match label.as_str() {
            "racy" => true,
            "drf0" => false,
            other => return Err(format!("bad label {other:?}")),
        };
        let races = parse_races(complete, races)?;
        let racy = if !races.races.is_empty() {
            Some(true)
        } else if races.complete {
            Some(false)
        } else {
            None
        };
        out.insert(
            seed,
            (
                racy_label,
                Reference {
                    racy,
                    sc: parse_count(sc)?,
                    races,
                },
            ),
        );
    }
    Ok(out)
}

/// Hot references by base-program name.
pub fn load_hot(dir: &Path) -> Result<HashMap<String, Reference>, String> {
    let mut out = HashMap::new();
    for f in lines(&dir.join("serve_hot.txt"))? {
        let [name, verdict, sc, complete, races] = &f[..] else {
            return Err(format!("bad serve_hot line {f:?}"));
        };
        let racy = match verdict.as_str() {
            "racy" => Some(true),
            "drf0" => Some(false),
            "-" => None,
            other => return Err(format!("bad verdict {other:?}")),
        };
        out.insert(
            name.clone(),
            Reference {
                racy,
                sc: parse_count(sc)?,
                races: parse_races(complete, races)?,
            },
        );
    }
    Ok(out)
}

/// Trace report hashes by `(smoke, pool index)`.
pub fn load_trace(dir: &Path) -> Result<HashMap<(bool, u64), u64>, String> {
    let mut out = HashMap::new();
    for f in lines(&dir.join("trace_check.txt"))? {
        let [size, k, hash] = &f[..] else {
            return Err(format!("bad trace_check line {f:?}"));
        };
        let smoke = match size.as_str() {
            "smoke" => true,
            "full" => false,
            other => return Err(format!("bad size {other:?}")),
        };
        let k: u64 = k.parse().map_err(|_| format!("bad index {k:?}"))?;
        let hash = u64::from_str_radix(hash, 16).map_err(|_| format!("bad hash {hash:?}"))?;
        out.insert((smoke, k), hash);
    }
    Ok(out)
}

fn verdict_text(racy: Option<bool>) -> &'static str {
    match racy {
        Some(true) => "racy",
        Some(false) => "drf0",
        None => "-",
    }
}

fn count_text(c: Option<u64>) -> String {
    c.map_or_else(|| "-".to_string(), |c| c.to_string())
}

/// One `serve_cold.txt` line.
fn cold_row(seed: u64) -> String {
    let gp = wo_fuzz::gen::generate(seed, &wo_fuzz::gen::GenConfig::default());
    let r = reference(&gp.program);
    let label = if gp.label == wo_fuzz::gen::Label::Racy {
        "racy"
    } else {
        "drf0"
    };
    let flag = if r.races.complete { "c" } else { "p" };
    format!(
        "{seed} {label} {} {flag} {}\n",
        count_text(r.sc),
        races_text(&r.races)
    )
}

/// One `serve_hot.txt` line.
fn hot_row((name, program): &(String, Program)) -> String {
    let r = reference(program);
    let flag = if r.races.complete { "c" } else { "p" };
    format!(
        "{name} {} {} {flag} {}\n",
        verdict_text(r.racy),
        count_text(r.sc),
        races_text(&r.races)
    )
}

/// Regenerates every expected file. Takes a few minutes; run it only
/// when a workload's inputs change, never to make a failing check pass.
pub fn generate_all(dir: &Path, work_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let write = |name: &str, body: String| {
        std::fs::write(dir.join(name), body).map_err(|e| format!("{name}: {e}"))
    };

    let seeds: Vec<u64> = crate::serve_wl::cold_pool(false).collect();
    let rows = run_with_worker(seeds.len(), 0, || (), |(), i| cold_row(seeds[i]));
    let mut body = String::from(
        "# serve_cold references: fuzz seed, generator label, SC outcome count and race set\n\
         # from the unreduced litmus::explore under the campaign budget (c = complete).\n",
    );
    body.extend(rows);
    write("serve_cold.txt", body)?;

    let bases = crate::serve_wl::hot_bases(Path::new("."))?;
    let rows = run_with_worker(bases.len(), 0, || (), |(), i| hot_row(&bases[i]));
    let mut body = String::from(
        "# serve_hot base-program references from the unreduced litmus::explore under the\n\
         # campaign budget (c = complete; p = truncated, races are a subset).\n",
    );
    body.extend(rows);
    write("serve_hot.txt", body)?;

    let mut jobs = Vec::new();
    for smoke in [false, true] {
        for k in 0..crate::trace_wl::POOL {
            jobs.push((smoke, k));
        }
    }
    let scratch = work_dir.join(format!("gen-expected-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let trace_row = |(smoke, k): (bool, u64)| {
        let path = scratch.join(format!("t-{smoke}-{k}.wot"));
        let hash = crate::trace_wl::reference_hash(&path, smoke, k);
        let _ = std::fs::remove_file(&path);
        hash.map(|h| format!("{} {k} {h:016x}\n", if smoke { "smoke" } else { "full" }))
    };
    let rows = run_with_worker(jobs.len(), 0, || (), |(), i| trace_row(jobs[i]));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut body = String::from(
        "# trace_check report hashes: fnv1a64 of the canonical report of each constructed\n\
         # trace, checked with one shard on one thread.\n",
    );
    for row in rows {
        let _ = write!(body, "{}", row?);
    }
    write("trace_check.txt", body)
}
