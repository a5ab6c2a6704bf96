//! Measurement plumbing shared by the workloads: op timing statistics,
//! per-layer spans, the set-up timer, peak memory, and the result line.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What every workload is run with.
pub struct RunConfig {
    pub seed: u64,
    /// Host CPU seconds of timed operations to collect.
    pub budget: Duration,
    pub trace: bool,
    /// The machine's cores: the worker count of the traced run's
    /// multi-worker probe. Everything else runs on one worker.
    pub threads: usize,
    /// When the process started.
    pub started: Instant,
}

impl RunConfig {
    /// Whether a measuring loop that has timed `spent` host CPU seconds
    /// over `ops` operations should run another one. At least
    /// `min_ops` always run, so the values read off the first ops exist
    /// on every run, however slow the host. A host so busy that the
    /// budget's CPU seconds take three times as long in wall time ends
    /// the loop early, so the run still ends in time.
    pub fn more(&self, ops: usize, min_ops: usize, spent: Duration) -> bool {
        ops < min_ops || (spent < self.budget && self.started.elapsed() < 3 * self.budget)
    }
}

/// One named value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's outcome: correctness counts, metrics, and human notes.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// A description of every failed check, for stderr.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation; `problems` lists what was wrong
    /// with its output (empty when it passed).
    pub fn check(&mut self, op: usize, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.failures.push(format!("op {op}: {p}"));
            }
        }
    }

    /// A check outside the op loop (set-up or a traced probe): counted
    /// against no op, but still fails the run.
    pub fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// The four host metrics every workload reports, from its op times.
    ///
    /// The op metrics read the 10th percentile of the run's op times. On
    /// a shared host a busy neighbour only ever adds time to an op, and
    /// it does so in phases of seconds to minutes: the median and the
    /// tail of a run follow those phases, while the fast ops of a run
    /// keep to the program's own cost. The median and the tail are
    /// printed beside it.
    pub fn host_metrics(&mut self, setup: &[f64], ops: &[f64], images_per_op: usize) {
        let mut sorted = ops.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p10 = quantile(&sorted, 0.1);
        let tail = Tail::of(ops);
        self.metric("setup_s", median(setup), "s");
        self.metric("host_img_per_s", images_per_op as f64 / p10, "img/s");
        self.metric("host_op_p10_s", p10, "s");
        self.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        self.note(format!(
            "set-up: median of {} builds; ops: {} timed, {} images each",
            setup.len(),
            ops.len(),
            images_per_op
        ));
        self.note(format!(
            "host op seconds: p10 {p10:.4}, median {:.4}, tail {:.4} ({})",
            median(ops),
            tail.value,
            tail.describe()
        ));
    }

    /// Whether every check passed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.failures.is_empty()
            && self.attempted >= 1
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Print the human-readable lines, then the one-line JSON result
    /// as the last line of standard output.
    pub fn print(&self, workload: &str, cfg: &RunConfig) {
        println!(
            "workload {workload} · seed {} · trace {} · tensor::par threads 1 \
             ({} in the multi-worker probe) · host times are thread CPU seconds",
            cfg.seed,
            u8::from(cfg.trace),
            cfg.threads
        );
        for n in &self.notes {
            println!("  {n}");
        }
        for m in &self.metrics {
            println!("  {:<38} {:>16.6e} {}", m.name, m.value, m.unit);
        }
        for f in &self.failures {
            eprintln!("check failed: {f}");
        }
        for m in self.metrics.iter().filter(|m| !m.value.is_finite()) {
            eprintln!("check failed: {} is not a finite number", m.name);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite value in Rust's shortest round-trip form (all its digits);
/// a non-finite one as `null`, which `correct` has already failed.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Median of a sample (the mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The library's percentile convention: element `⌊q·(len − 1)⌋` of an
/// ascending sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = (q * (sorted.len() - 1) as f64) as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The highest percentile of a sample that still has ten samples
/// beyond it: the 11th-largest value, at percentile `100·(n − 10)/n`.
/// With ten or fewer samples no percentile has ten beyond it, and the
/// tail is the maximum.
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

impl Tail {
    pub fn of(xs: &[f64]) -> Tail {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n >= 11 {
            Tail {
                value: v[n - 11],
                percentile: 100.0 * (n - 10) as f64 / n as f64,
                samples: n,
            }
        } else {
            Tail {
                value: v.last().copied().unwrap_or(f64::NAN),
                percentile: 100.0,
                samples: n,
            }
        }
    }

    pub fn describe(&self) -> String {
        if self.percentile < 100.0 {
            format!(
                "p{:.1} of {} op samples (ten samples beyond it)",
                self.percentile, self.samples
            )
        } else {
            format!(
                "the maximum of {} op samples (too few for a percentile with ten beyond it)",
                self.samples
            )
        }
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run. Unlike wall time, this leaves
/// out the time the thread waits while other processes hold its core,
/// so a busy neighbour on a shared host moves it far less.
pub fn thread_cpu_seconds() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec and the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Host CPU seconds of one call made on this thread. Every timed call
/// runs on the calling thread (`tensor::par` is pinned to one worker
/// while timing), so this is the call's whole CPU cost.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = thread_cpu_seconds();
    let out = black_box(f());
    (out, thread_cpu_seconds() - t0)
}

/// Wall seconds of one call, for calls that fan out over worker
/// threads, whose CPU time the calling thread's clock does not see.
pub fn timed_wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Per-layer spans opened from the benchmark's own code around each
/// call into a layer. Spans sum per layer within one op (or one probe
/// repetition); a layer's metric is the median of those sums.
#[derive(Default)]
pub struct Spans {
    current: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Spans {
    /// Time `f` as a span of `layer` in the current op.
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        *self.current.entry(layer.to_string()).or_default() += secs;
        out
    }

    /// Fold spans recorded elsewhere (a worker thread) into this op.
    pub fn absorb(&mut self, other: Spans) {
        for (k, v) in other.current {
            *self.current.entry(k).or_default() += v;
        }
    }

    /// Total span seconds recorded in the current op.
    pub fn current_total(&self) -> f64 {
        self.current.values().sum()
    }

    /// Span seconds of `layer` in the current op.
    pub fn current(&self, layer: &str) -> f64 {
        self.current.get(layer).copied().unwrap_or(0.0)
    }

    /// Close the current op: each layer's sum becomes one sample.
    pub fn end_op(&mut self) {
        for (k, v) in std::mem::take(&mut self.current) {
            self.samples.entry(k).or_default().push(v);
        }
    }

    /// Add one sample of `layer` timed elsewhere (a probe repetition).
    pub fn sample(&mut self, layer: &str, secs: f64) {
        self.samples
            .entry(layer.to_string())
            .or_default()
            .push(secs);
    }

    /// Time `f` once per repetition — at least `min` times and for at
    /// least `min_secs` — each repetition one sample of `layer`.
    pub fn probe<T>(&mut self, layer: &str, min: usize, min_secs: f64, mut f: impl FnMut() -> T) {
        let t0 = Instant::now();
        let mut reps = 0;
        while reps < min || t0.elapsed().as_secs_f64() < min_secs {
            let (_, secs) = timed(&mut f);
            self.sample(layer, secs);
            reps += 1;
        }
    }

    /// Median sample of `layer`. A layer this workload never calls
    /// gets its span all the same, around no call at all, so that every
    /// traced run reports every layer: the value is the span's own
    /// cost, about zero and still measured.
    pub fn median(&mut self, layer: &str) -> f64 {
        if !self.samples.contains_key(layer) {
            let (_, secs) = timed(|| ());
            self.sample(layer, secs);
        }
        median(&self.samples[layer])
    }

    /// Whether `layer` has any sample from a real call.
    pub fn recorded(&self, layer: &str) -> bool {
        self.samples.contains_key(layer)
    }
}

/// Peak resident set size of this process in MiB: the kernel's
/// `VmHWM` for the process's own address space. (`getrusage`'s
/// `ru_maxrss` would not do: Linux carries it across `exec`, so it
/// reports the launching `cargo`'s footprint instead.) NaN, which fails
/// the run, where the kernel offers no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}
