//! The repository benchmark: F1's compiler, schedule checker and
//! software FHE stack, measured end to end and layer by layer.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (closed loop, one caller, the library's default threading):
//!
//! * `paper-suite` — the seven Table 3 programs at full size, each
//!   compiled with `compile_fhe` and checked with `check_schedule`.
//! * `fhe-ops` — software BGV, CKKS and GSW operations at N = 2^14 on
//!   seeded inputs, decrypted against plaintext references, plus the same
//!   block compiled and checked for F1.
//!
//! A run sets its workload up nine times (setup time is the median),
//! then repeats passes over the workload while the next pass is expected
//! to end within `--seconds` (at least one pass). Timings are host
//! seconds: wall-clock time less the time a shared VM's hypervisor stole
//! from the busy threads (see `trace::Stamp` and `perfbench/NOTES.md`).
//! `--trace 0` prints the end-to-end metrics;
//! `--trace 1` compiles every program a second time stage by stage,
//! checks that copy stage by stage, and prints the per-layer metrics.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` (an operation is one compile plus its check, or
//! one FHE block) and `metrics`. Spans are written to
//! `target/perfbench/`.
//!
//! Schedule identity: every program's stream fingerprint and makespan
//! are printed as `schedule <label> <fingerprint> <makespan>` lines;
//! `--fingerprints-ref PATH` reads such lines (a run's saved standard
//! output will do; other lines are ignored) and fails every operation
//! whose schedule differs (`perfbench/fingerprints.txt` holds the
//! current ones).

mod calls;
mod compile;
mod fhe_ops;
mod metrics;
mod trace;

use compile::{CompileRun, Job};
use metrics::Metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{Stamp, Tracer};

const USAGE: &str = "usage: f1-perfbench --workload <paper-suite|fhe-ops> \
                     --seed <n> --seconds <n> --trace <0|1> [--fingerprints-ref PATH]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprints_ref: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied().ok_or_else(|| format!("missing {name}"));
    let num = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let args = Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace,
        fingerprints_ref: flags.get("--fingerprints-ref").map(|s| s.to_string()),
    };
    let known = ["--workload", "--seed", "--seconds", "--trace", "--fingerprints-ref"];
    if let Some(flag) = flags.keys().find(|f| !known.contains(f)) {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(args)
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("FAILED {what}: {e}");
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Setups timed per run. The first two run on a cold heap and take up
/// to twice as long as the rest, so the median of nine is a warm one.
const SETUPS: usize = 9;

/// Runs `setup` [`SETUPS`] times, dropping each result before the next
/// call so only one copy is ever alive. Returns the last result and the
/// median host seconds of a call.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut kept = None;
    let mut samples = Vec::new();
    for _ in 0..SETUPS {
        drop(kept.take());
        let start = Stamp::now();
        kept = Some(setup());
        samples.push(start.elapsed_s());
    }
    (kept.expect("setup ran"), metrics::median(&samples))
}

/// Schedule identity: the first compile of each program fixes its
/// makespan and fingerprint; every later compile must match it, and the
/// reference file when one is given.
struct Identity {
    reference: Option<BTreeMap<String, (u64, u64)>>,
    seen: BTreeMap<&'static str, (u64, u64)>,
}

/// Prefix of the schedule lines a run prints and a reference file holds.
const SCHEDULE: &str = "schedule ";

impl Identity {
    fn new(reference: Option<&str>) -> Result<Self, String> {
        let reference = reference.map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut map = BTreeMap::new();
            for line in text.lines().filter_map(|l| l.strip_prefix(SCHEDULE)) {
                let f: Vec<&str> = line.split_whitespace().collect();
                let parsed = match f.as_slice() {
                    [label, fp, makespan] => u64::from_str_radix(fp, 16)
                        .ok()
                        .zip(makespan.parse().ok())
                        .map(|(fp, ms)| (label.to_string(), (fp, ms))),
                    _ => None,
                };
                let (label, v) = parsed.ok_or_else(|| format!("{path}: bad line {line:?}"))?;
                map.insert(label, v);
            }
            if map.is_empty() {
                return Err(format!("{path}: no {SCHEDULE:?} lines"));
            }
            Ok(map)
        });
        Ok(Self { reference: reference.transpose()?, seen: BTreeMap::new() })
    }

    fn check(&mut self, run: &CompileRun) -> Result<(), String> {
        let got = (run.fingerprint, run.makespan);
        let first = *self.seen.entry(run.label).or_insert(got);
        if got != first {
            return Err(format!("schedule {got:x?} differs from this run's first {first:x?}"));
        }
        if let Some(reference) = &self.reference {
            match reference.get(run.label) {
                Some(&want) if want == got => {}
                Some(want) => {
                    return Err(format!("schedule {got:x?} differs from reference {want:x?}"))
                }
                None => return Err("no reference fingerprint".to_string()),
            }
        }
        Ok(())
    }

    fn print(&self) {
        for (label, (fp, makespan)) in &self.seen {
            println!("{SCHEDULE}{label} {fp:016x} {makespan}");
        }
    }
}

/// Runs measurement passes `0, 1, ...` while the next one is expected,
/// from the longest so far, to end within `seconds`; always at least
/// one. A workload whose pass outlasts half the window therefore runs
/// exactly one pass. Returns the number of passes and the peak resident
/// memory (MB) at the end of the first pass: later passes reuse a heap
/// the earlier ones fragmented, by an amount that varies from run to
/// run.
fn measure(seconds: f64, mut pass: impl FnMut(u32)) -> (u32, f64) {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut n = 0;
    let mut peak_rss_mb = 0.0;
    loop {
        let t0 = Instant::now();
        pass(n);
        if n == 0 {
            peak_rss_mb = metrics::peak_rss_mb();
        }
        n += 1;
        longest = longest.max(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + longest > seconds {
            return (n, peak_rss_mb);
        }
    }
}

/// Compiles and checks every job once as one measurement pass.
fn compile_pass(
    t: &mut Tracer,
    jobs: &[Job],
    arch: &f1_arch::ArchConfig,
    pass: u32,
    identity: &mut Identity,
    outcome: &mut Outcome,
    runs: &mut Vec<CompileRun>,
) {
    for job in jobs {
        let r = compile::compile_and_check(t, job, arch, pass)
            .and_then(|run| identity.check(&run).map(|()| run));
        if let Some(run) = outcome.record(job.label, r) {
            runs.push(run);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut identity = match Identity::new(args.fingerprints_ref.as_deref()) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let arch = f1_arch::ArchConfig::f1_default();
    let mut t = Tracer::new(args.trace);
    let mut outcome = Outcome::default();
    let mut runs: Vec<CompileRun> = Vec::new();
    let mut block_s: Vec<f64> = Vec::new();
    let mut kernels = None;
    let setup_s;
    let passes;
    let peak_rss_mb;
    match args.workload.as_str() {
        "paper-suite" => {
            let (jobs, s) = timed_setup(compile::paper_suite);
            setup_s = s;
            (passes, peak_rss_mb) = measure(args.seconds, |pass| {
                compile_pass(&mut t, &jobs, &arch, pass, &mut identity, &mut outcome, &mut runs);
            });
        }
        "fhe-ops" => {
            let seed = args.seed;
            let ((keys, jobs), s) =
                timed_setup(|| (fhe_ops::Keys::generate(seed), fhe_ops::mirror_jobs()));
            setup_s = s;
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5eed_b10c));
            (passes, peak_rss_mb) = measure(args.seconds, |pass| {
                t.begin_op("fhe_block", pass);
                let depth = t.depth();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    t.span("fhe.block", |t| fhe_ops::block(t, &keys, &mut rng)).0
                }));
                t.close_to(depth);
                let r = r.unwrap_or_else(|_| Err("panic".to_string()));
                if let Some(s) = outcome.record("fhe_block", r) {
                    block_s.push(s);
                }
                compile_pass(&mut t, &jobs, &arch, pass, &mut identity, &mut outcome, &mut runs);
            });
            if args.trace {
                kernels = Some(fhe_ops::kernels(seed));
            }
        }
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }

    identity.print();
    let spans_path = format!(
        "target/perfbench/spans-{}-seed{}-trace{}.jsonl",
        args.workload, args.seed, args.trace as u8
    );
    if let Err(e) = t.write(std::path::Path::new(&spans_path)) {
        eprintln!("cannot write spans to {spans_path}: {e}");
    }

    let mut m = Metrics::default();
    if args.trace {
        metrics::per_layer(&mut m, &t, &runs, kernels);
    } else {
        metrics::end_to_end(&mut m, setup_s, peak_rss_mb, &runs, &block_s);
    }
    eprintln!(
        "{} pass(es), {} operation(s), {} failed, {} span(s) in {spans_path}",
        passes,
        outcome.attempted,
        outcome.failures.len(),
        t.spans().len()
    );
    let correct = outcome.failures.is_empty() && outcome.attempted > 0 && m.all_finite();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failures.len(),
        m.to_json()
    );
}
