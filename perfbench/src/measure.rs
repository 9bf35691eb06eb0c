//! Measurement plumbing: sample summaries, per-layer call timings, and the
//! in-memory span recorder of the traced run.
//!
//! Everything here times calls *from the benchmark's side*: a span opens
//! before a call into a layer's public function and closes after it
//! returns. Nothing is instrumented inside the program.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The `q`-quantile of sorted samples by nearest rank (`q` in `0..=1`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples (midpoint of the two middle values for
/// an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Min, quartiles, median and max of a sample set, as a JSON object.
pub fn spread_json(samples: &[f64]) -> String {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    format!(
        "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
        s.len(),
        num(nearest_rank(&s, 0.0)),
        num(nearest_rank(&s, 0.25)),
        num(median(&s)),
        num(nearest_rank(&s, 0.75)),
        num(s.last().copied().unwrap_or(0.0)),
    )
}

/// A finite JSON number (non-finite values become 0, which JSON cannot
/// otherwise carry).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One closed span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    query: u32,
}

/// Sentinel parent of a root span.
const NO_PARENT: u32 = u32::MAX;

/// Spans kept in memory per run; later spans still feed the per-layer
/// timings but are not stored (the count of dropped spans is reported).
const MAX_KEPT_SPANS: usize = 300_000;

/// Per-layer call timings plus the span log of one traced run.
pub struct Tracer {
    origin: Instant,
    calls: BTreeMap<&'static str, Vec<u64>>,
    counts: BTreeMap<&'static str, f64>,
    spans: Vec<Span>,
    dropped_spans: u64,
    /// Span id of the currently open parent span, if any.
    current_parent: u32,
    /// Query id attached to new spans.
    pub query: u32,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            calls: BTreeMap::new(),
            counts: BTreeMap::new(),
            spans: Vec::new(),
            dropped_spans: 0,
            current_parent: NO_PARENT,
            query: 0,
            enabled: true,
        }
    }

    /// A tracer that records nothing (warm-up replays).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(&mut self, name: &'static str, start: Instant, end: Instant, parent: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        self.calls.entry(name).or_default().push(e - s);
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(Span {
                name,
                start_ns: s,
                end_ns: e,
                parent,
                query: self.query,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped_spans += 1;
            NO_PARENT
        }
    }

    /// Times one call into a layer as a child of the open parent span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let parent = self.current_parent;
        self.record(name, start, end, parent);
        out
    }

    /// Runs `f` inside a parent span named `name`: calls timed within it
    /// become its children. The span's record is written first so the
    /// children can name it, then its end is filled in.
    pub fn parent<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let (start, outer) = (Instant::now(), self.current_parent);
        let placeholder = self.record(name, start, start, outer);
        self.current_parent = placeholder;
        let out = f(self);
        let end = Instant::now();
        self.current_parent = outer;
        if !self.enabled {
            return out;
        }
        let dur = self.ns(end) - self.ns(start);
        if let Some(v) = self.calls.get_mut(name) {
            if let Some(last) = v.last_mut() {
                *last = dur;
            }
        }
        if placeholder != NO_PARENT {
            self.spans[placeholder as usize].end_ns = self.ns(end);
        }
        out
    }

    /// Adds to a named count.
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
    }

    /// Sets a named count (for values measured once).
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.insert(name, value);
        }
    }

    /// Reads a named count (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds spent in calls named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.calls
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e9)
    }

    /// `(calls, total_s, p50_us, p99_us)` of a timed call.
    pub fn summary(&self, name: &str) -> (f64, f64, f64, f64) {
        let Some(v) = self.calls.get(name) else {
            return (0.0, 0.0, 0.0, 0.0);
        };
        let mut us: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        (
            us.len() as f64,
            self.total_s(name),
            nearest_rank(&us, 0.50),
            nearest_rank(&us, 0.99),
        )
    }

    /// Self time per span name (duration minus the part of the interval
    /// its kept child spans cover), in seconds, over the kept spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Writes the kept spans as tab-separated lines:
    /// `id parent query name start_ns end_ns` (parent `-` for roots).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tquery\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    pub fn kept_spans(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }
}

/// 64-bit FNV-1a, kept local so the recorded report hashes do not depend
/// on any hashing code of the program under test.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step, used to derive every input seed from the workload
/// seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for shuffles and picks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0x5EED)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time, in seconds, that a whole process has used so far: every
/// thread, live or exited. `None` means this process.
///
/// Unlike wall time, this does not grow while the process waits for a
/// processor, whether behind other processes or while the hypervisor runs
/// other guests (steal time, which the kernel leaves out of task run
/// time), so it varies far less from run to run on a shared machine.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    // Linux encodes a process's CPU clock as `(!pid << 3) | 2`
    // (CPUCLOCK_SCHED); CLOCK_PROCESS_CPUTIME_ID (2) is the caller's.
    let clock = pid.map_or(2, |p| (!(p as i32) << 3) | 2);
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and clock_gettime writes nothing else.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!(
            "cannot read the CPU clock of process {pid:?}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Peak resident set (VmHWM) of a process, in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
