//! Software polynomial-stack microbenchmarks with a tracked JSON trajectory.
//!
//! Times the hot kernels of the CPU baseline — forward/inverse NTT (lazy
//! and retained-reference), negacyclic multiplication, GHS key-switching
//! (`GhsHint::apply_with_scratch` over a BGV `KeySet`'s relinearization
//! hint, with its `K = L` special primes: the key-switch every BGV and
//! CKKS mul and rotate runs), and a full BGV homomorphic multiply — at
//! paper sizes, and writes `BENCH_poly.json`
//! so every PR has a recorded perf trajectory.
//!
//! ```text
//! cargo run -p f1-bench --release --bin bench_poly            # full suite
//! F1_BENCH_QUICK=1 cargo run ... --bin bench_poly             # CI smoke
//! cargo run ... --bin bench_poly -- --check BENCH_poly.json   # regression gate
//! ```
//!
//! `--check <file>` compares the fresh run against a previously committed
//! JSON: it fails (exit 1) if any matching kernel regressed by more than
//! 1.5x, and always enforces the lazy-vs-reference speedup floor (the NTTs
//! must be ≥ 2x faster than the reference kernels).

use f1_fhe::bgv::{KeySet, Plaintext};
use f1_fhe::keyswitch::KsScratch;
use f1_fhe::params::BgvParams;
use f1_modarith::{primes, Modulus};
use f1_poly::ntt::NttTables;
use f1_poly::rns::RnsPoly;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Minimum wall time per timed sample, so fast kernels batch iterations.
const SAMPLE_TARGET_S: f64 = 0.01;

/// One measured kernel data point.
struct Record {
    kernel: &'static str,
    n: usize,
    level: usize,
    ns_per_op: f64,
}

impl Record {
    fn throughput(&self) -> f64 {
        1e9 / self.ns_per_op
    }
    fn key(&self) -> (String, usize, usize) {
        (self.kernel.to_string(), self.n, self.level)
    }
}

/// Times `f`, returning the median per-iteration nanoseconds across
/// `samples` samples (each sample batches iterations to ~10 ms).
fn time_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    // Warm-up and per-iteration estimate.
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((SAMPLE_TARGET_S / once) as u64).clamp(1, 1 << 20);
    let mut per_iter = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    per_iter[per_iter.len() / 2]
}

fn bench_ntt(records: &mut Vec<Record>, samples: usize, sizes: &[usize]) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1);
    for &n in sizes {
        let q = primes::ntt_friendly_primes(n, 30, 1)[0];
        let m = Modulus::new(q);
        let tables = NttTables::new(n, m);
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let b: Vec<u32> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut buf = a.clone();
        records.push(Record {
            kernel: "ntt_forward",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                buf.copy_from_slice(&a);
                tables.forward(&mut buf);
            }),
        });
        records.push(Record {
            kernel: "ntt_forward_ref",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                buf.copy_from_slice(&a);
                tables.forward_reference(&mut buf);
            }),
        });
        let mut a_hat = a.clone();
        tables.forward(&mut a_hat);
        records.push(Record {
            kernel: "ntt_inverse",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                buf.copy_from_slice(&a_hat);
                tables.inverse(&mut buf);
            }),
        });
        records.push(Record {
            kernel: "ntt_inverse_ref",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                buf.copy_from_slice(&a_hat);
                tables.inverse_reference(&mut buf);
            }),
        });
        records.push(Record {
            kernel: "negacyclic_mul",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                let _ = tables.negacyclic_mul(&a, &b);
            }),
        });
    }
}

fn bench_keyswitch(records: &mut Vec<Record>, samples: usize, points: &[(usize, usize)]) {
    for &(n, l) in points {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4B5);
        let keys = KeySet::generate(&BgvParams::test_small(n, l), &mut rng);
        let x = RnsPoly::random_at_level(keys.params().context(), l, &mut rng).to_ntt();
        let mut scratch = KsScratch::default();
        records.push(Record {
            kernel: "keyswitch_ghs",
            n,
            level: l,
            ns_per_op: time_ns(samples, || {
                let _ = keys.relin_hint().apply_with_scratch(&x, &mut scratch);
            }),
        });
    }
}

fn bench_bgv_mul(records: &mut Vec<Record>, samples: usize, points: &[(usize, usize)]) {
    for &(n, l) in points {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB6);
        let params = BgvParams::test_small(n, l);
        let keys = KeySet::generate(&params, &mut rng);
        let m1 = Plaintext::from_coeffs(&params, &[3, 1, 4]);
        let m2 = Plaintext::from_coeffs(&params, &[1, 5]);
        let ct1 = keys.encrypt(&m1, &mut rng);
        let ct2 = keys.encrypt(&m2, &mut rng);
        let mut scratch = KsScratch::default();
        records.push(Record {
            kernel: "bgv_mul",
            n,
            level: l,
            ns_per_op: time_ns(samples, || {
                let _ = ct1.mul_with_scratch(&ct2, keys.relin_hint(), &mut scratch);
            }),
        });
    }
}

fn write_json(path: &str, records: &[Record], quick: bool) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"f1-bench-poly-v1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"host_threads\": {},\n", rayon::current_num_threads()));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"level\": {}, \"ns_per_op\": {:.1}, \"throughput_ops_per_s\": {:.1}}}{comma}\n",
            r.kernel, r.n, r.level, r.ns_per_op, r.throughput()
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Parses records out of a previously emitted `BENCH_poly.json` (one
/// record object per line, the exact format [`write_json`] produces).
fn parse_json(text: &str) -> Vec<(String, usize, usize, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"kernel\":") {
            continue;
        }
        let field = |key: &str| -> Option<&str> {
            let pat = format!("\"{key}\": ");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"'))
        };
        if let (Some(k), Some(n), Some(l), Some(ns)) =
            (field("kernel"), field("n"), field("level"), field("ns_per_op"))
        {
            if let (Ok(n), Ok(l), Ok(ns)) = (n.parse(), l.parse(), ns.parse()) {
                out.push((k.to_string(), n, l, ns));
            }
        }
    }
    out
}

/// Enforces the lazy-vs-reference speedup floor on a fresh run: the
/// rewritten kernels must hold ≥ `min_ratio`x over the retained reference
/// kernels. Returns failure descriptions.
fn check_speedup_floor(records: &[Record], min_ratio: f64) -> Vec<String> {
    let pairs = [("ntt_forward", "ntt_forward_ref"), ("ntt_inverse", "ntt_inverse_ref")];
    let mut failures = Vec::new();
    for (new, old) in pairs {
        for r_new in records.iter().filter(|r| r.kernel == new) {
            let Some(r_old) = records
                .iter()
                .find(|r| r.kernel == old && r.n == r_new.n && r.level == r_new.level)
            else {
                continue;
            };
            let ratio = r_old.ns_per_op / r_new.ns_per_op;
            if ratio < min_ratio {
                failures.push(format!(
                    "{new} n={} L={}: only {ratio:.2}x over {old} (need >= {min_ratio}x)",
                    r_new.n, r_new.level
                ));
            }
        }
    }
    failures
}

fn main() {
    let quick = std::env::var("F1_BENCH_QUICK").map(|v| v != "0").unwrap_or(false);
    let args: Vec<String> = std::env::args().collect();
    let check_path =
        args.iter().position(|a| a == "--check").and_then(|i| args.get(i + 1)).cloned();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_poly.json".to_string());

    let samples = if quick { 5 } else { 15 };
    let ntt_sizes: &[usize] = if quick { &[1 << 13] } else { &[1 << 13, 1 << 14] };
    let ks_points: &[(usize, usize)] =
        if quick { &[(1 << 13, 4)] } else { &[(1 << 13, 4), (1 << 13, 16), (1 << 14, 8)] };
    let mul_points: &[(usize, usize)] =
        if quick { &[(1 << 13, 4)] } else { &[(1 << 13, 4), (1 << 14, 8)] };

    // Read the committed reference BEFORE running (and before `--out`
    // overwrites it, which is the normal CI flow).
    let reference_text = check_path.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read reference {path}: {e}"))
    });

    let mut records = Vec::new();
    println!("Polynomial-stack microbenchmarks (quick={quick}, samples={samples})\n");
    bench_ntt(&mut records, samples, ntt_sizes);
    bench_keyswitch(&mut records, samples, ks_points);
    bench_bgv_mul(&mut records, samples, mul_points);

    println!("{:<20} {:>8} {:>6} {:>14} {:>16}", "kernel", "n", "L", "ns/op", "ops/s");
    for r in &records {
        println!(
            "{:<20} {:>8} {:>6} {:>14.1} {:>16.1}",
            r.kernel,
            r.n,
            r.level,
            r.ns_per_op,
            r.throughput()
        );
    }

    write_json(&out_path, &records, quick).expect("failed to write benchmark JSON");
    println!("\nwrote {out_path}");

    let mut failed = false;
    let floor_failures = check_speedup_floor(&records, 2.0);
    if floor_failures.is_empty() {
        println!("speedup floor: all rewritten kernels >= 2x over reference kernels");
    } else {
        for f in &floor_failures {
            println!("SPEEDUP FLOOR FAILED: {f}");
        }
        failed = true;
    }

    if let (Some(path), Some(text)) = (check_path, reference_text) {
        let reference = parse_json(&text);
        assert!(!reference.is_empty(), "reference {path} holds no parseable records");
        // Host-speed normalization: the reference kernels (`*_ref`) are
        // frozen code, so their current/reference
        // ratio measures how fast *this host* is relative to the machine
        // that recorded the JSON, not any code change. Scaling the 1.5x
        // gate by their median ratio keeps the check meaningful when CI
        // runs on different hardware than the committed reference.
        let mut probe_ratios: Vec<f64> = Vec::new();
        for (k, n, l, ref_ns) in &reference {
            if !k.ends_with("_ref") {
                continue;
            }
            if let Some(cur) = records.iter().find(|r| r.key() == (k.clone(), *n, *l)) {
                probe_ratios.push(cur.ns_per_op / ref_ns);
            }
        }
        probe_ratios.sort_by(|a, b| a.total_cmp(b));
        let host_scale =
            if probe_ratios.is_empty() { 1.0 } else { probe_ratios[probe_ratios.len() / 2] };
        println!("host-speed scale vs reference machine: {host_scale:.2}x (from frozen kernels)");
        let mut compared = 0usize;
        for (k, n, l, ref_ns) in reference {
            let Some(cur) = records.iter().find(|r| r.key() == (k.clone(), n, l)) else {
                continue;
            };
            compared += 1;
            let ratio = cur.ns_per_op / (ref_ns * host_scale);
            if ratio > 1.5 {
                println!(
                    "REGRESSION: {k} n={n} L={l}: {:.1} ns vs host-normalized reference {:.1} ns ({ratio:.2}x)",
                    cur.ns_per_op,
                    ref_ns * host_scale
                );
                failed = true;
            }
        }
        println!("regression check vs {path}: {compared} kernels compared");
    }

    if failed {
        std::process::exit(1);
    }
}
