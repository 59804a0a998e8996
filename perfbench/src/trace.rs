//! In-memory span recorder and the benchmark's host clock.
//!
//! Every timed call into the library is a span: name, program label, the
//! operation it belongs to, start, end, parent and the host seconds it
//! took. Spans stay in memory and are written out once, when the
//! benchmark ends. Top-level spans (one compile, one check, one FHE
//! block) are always recorded; layer spans only when tracing is on, so
//! the untraced run times the public entry points and nothing inside
//! them.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One finished span.
pub struct Span {
    pub name: &'static str,
    pub program: &'static str,
    /// Operation (one compile plus its check, or one FHE block) the span
    /// belongs to; spans of one operation share it.
    pub op: u64,
    /// Measurement pass the span ran in.
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Host seconds, as [`Stamp::elapsed_s`] gives them.
    pub host_s: f64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

/// CPU time of this process (user + system, all threads, finished ones
/// included) in seconds, at nanosecond resolution.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds the hypervisor has stolen from this machine's CPUs, summed
/// over CPUs (the `steal` column of `/proc/stat`); 0 where it is not
/// reported.
fn steal_s() -> f64 {
    static TICKS_PER_S: OnceLock<f64> = OnceLock::new();
    // SAFETY: sysconf takes no pointers.
    let hz = *TICKS_PER_S.get_or_init(|| unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64);
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // "cpu  user nice system idle iowait irq softirq steal ..."
    let steal = stat.lines().next().and_then(|l| l.split_whitespace().nth(8));
    steal.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0) as f64 / hz
}

fn cpus() -> f64 {
    static CPUS: OnceLock<f64> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)
}

/// A reading of the host clock: wall-clock time, this process's CPU time
/// and the machine's stolen time.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_s: f64,
    steal_s: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Self { steal_s: steal_s(), cpu_s: process_cpu_s(), wall: Instant::now() }
    }

    /// Host seconds since `self`: wall-clock time, less the time the
    /// hypervisor stole from the threads doing the work. Stolen time is
    /// reported for the whole machine, so it is shared over the threads
    /// that were busy on average, `(cpu + steal) / wall`, at least 1 and
    /// at most the core count: one busy thread loses all of it, two
    /// busy threads on two cores lose half each. Without steal this is
    /// plain wall-clock time, so work spread over more threads shows.
    /// Steal is counted in whole ticks, so a short interval can see more
    /// of it than it lost; the result never drops below `cpu / threads`,
    /// the time the threads spent running.
    pub fn elapsed_s(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        let steal = steal_s() - self.steal_s;
        if steal <= 0.0 || wall <= 0.0 {
            return wall;
        }
        let cpu = process_cpu_s() - self.cpu_s;
        let threads = ((cpu + steal) / wall).clamp(1.0, cpus());
        (wall - steal / threads).max(cpu / threads)
    }
}

pub struct Tracer {
    epoch: Instant,
    detail: bool,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
    op: u64,
    pass: u32,
    program: &'static str,
}

impl Tracer {
    pub fn new(detail: bool) -> Self {
        Self {
            epoch: Instant::now(),
            detail,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            pass: 0,
            program: "",
        }
    }

    pub fn detail(&self) -> bool {
        self.detail
    }

    /// Starts a new operation on `program` within measurement pass `pass`.
    pub fn begin_op(&mut self, program: &'static str, pass: u32) {
        self.op += 1;
        self.program = program;
        self.pass = pass;
    }

    /// Times `f` as a span, always recorded. Returns its result and the
    /// host seconds it took.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start = Stamp::now();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            program: self.program,
            op: self.op,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            host_s: 0.0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let host_s = start.elapsed_s();
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].host_s = host_s;
        (out, host_s)
    }

    /// [`Self::span`] for a layer inside an entry point: recorded only
    /// when tracing is on.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.detail {
            self.span(name, f).0
        } else {
            f(self)
        }
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes the spans a panic left open, down to `depth`, ending them
    /// now (their host seconds stay 0).
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let idx = self.open.pop().expect("loop guard keeps the stack non-empty");
            self.spans[idx].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \"pass\": {}, \"name\": \"{}\", \
                 \"program\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"host_s\": {}}}",
                s.op, s.pass, s.name, s.program, s.start_ns, s.end_ns, s.host_s
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
