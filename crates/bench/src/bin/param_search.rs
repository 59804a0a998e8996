//! `(N, L)` parameter-search driver over the benchmark suite.
//!
//! For every benchmark, finds the smallest `(N, L)` whose
//! rescale-managed program proves the default margin target (8 bits
//! worst-case) at ≥ 128-bit security — pure static analysis, no trial
//! decryptions — then validates one found point against real software
//! BGV: the managed program and the paper's hand-managed program must
//! decrypt bit-identically on the same inputs.
//!
//! ```text
//! cargo run -p f1-bench --release --bin param_search             # all + validate
//! cargo run ... --bin param_search -- --quick                    # validate db_lookup only
//! cargo run ... --bin param_search -- --no-validate --out P.json
//! ```
//!
//! The search runs over the full-size (scale 1) suite and is
//! deterministic, so CI regenerates `PARAM_SEARCH.json` and diffs it
//! against the committed file. The BGV validation runs on a
//! width-reduced instance (widths don't change the found `L`; depth is
//! preserved at every scale).

use f1_compiler::analysis::param_search::{search, SearchSpec};
use f1_compiler::ir::FheProgram;
use f1_fhe::bgv::Plaintext;
use f1_fhe::params::BgvParams;
use f1_sim::BgvExecutor;
use f1_workloads::{all_benchmarks, benchmarks};
use rand::SeedableRng;

/// Differential validation: the managed program must decrypt
/// bit-identically to the hand-managed original on real software BGV.
fn validate(name: &str, hand: &FheProgram, spec: &SearchSpec) -> bool {
    let r = match search(hand, spec) {
        Some(r) => r,
        None => {
            println!("  {name}: SEARCH FAILED, nothing to validate");
            return false;
        }
    };
    // One key set covers both variants: provision the chain at the
    // deeper of the two input levels.
    let hand_top = hand.nodes().iter().map(|n| n.ty.level).max().unwrap_or(1);
    let max_level = r.l.max(hand_top);
    let params = BgvParams::test_small(hand.n, max_level);
    let ct_data: Vec<Plaintext> = (0..16)
        .map(|i| Plaintext::from_coeffs(&params, &[(3 * i + 1) as u64, (i % 5) as u64]))
        .collect();
    let pt_data: Vec<Plaintext> =
        (0..16).map(|i| Plaintext::from_coeffs(&params, &[(2 * i + 1) as u64])).collect();
    // Inputs bind by build-time ordinal, so both variants read the same
    // data.
    let run = |fhe: &FheProgram| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1D1F);
        BgvExecutor::new(params.clone(), fhe, &mut rng).run(fhe, &ct_data, &pt_data, &mut rng)
    };
    let (out_hand, out_managed) = (run(hand).outputs, run(&r.managed).outputs);
    let mut ok = out_hand.len() == out_managed.len();
    if ok {
        'outer: for (h, m) in out_hand.iter().zip(&out_managed) {
            for j in 0..hand.n {
                if h.coeff(j) != m.coeff(j) {
                    ok = false;
                    break 'outer;
                }
            }
        }
    }
    println!(
        "  {name}: managed (L={}, N={}) vs hand-managed on software BGV: {}",
        r.l,
        r.n_secure,
        if ok { "bit-identical" } else { "MISMATCH" }
    );
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_validate = args.iter().any(|a| a == "--no-validate");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "PARAM_SEARCH.json".to_string());

    let spec = SearchSpec::default();
    let benchmarks_full = all_benchmarks(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"f1-param-search-v2\",\n");
    out.push_str("  \"scale\": 1,\n");
    out.push_str(&format!(
        "  \"spec\": {{\"target_margin_bits\": {:.1}, \"min_security_bits\": {:.1}, \"max_l\": {}}},\n",
        spec.target_margin_bits, spec.min_security_bits, spec.max_l
    ));
    out.push_str("  \"benchmarks\": [\n");

    println!(
        "{:<28} {:>6} {:>5} {:>5} {:>8} {:>8} {:>9} {:>8} {:>9}",
        "benchmark",
        "paperL",
        "L*",
        "lg N*",
        "sec-bits",
        "wc-marg",
        "inserted",
        "dropped",
        "wc-hand"
    );
    let mut failures = 0usize;
    for (bi, b) in benchmarks_full.iter().enumerate() {
        let found = search(&b.fhe, &spec);
        match &found {
            Some(r) => {
                println!(
                    "{:<28} {:>6} {:>5} {:>5} {:>8.1} {:>8.1} {:>9} {:>8} {:>9.1}",
                    b.name,
                    b.l,
                    r.l,
                    r.n_secure.ilog2(),
                    r.security_bits,
                    r.stats.min_margin_wc_after,
                    r.stats.inserted,
                    r.stats.dropped,
                    r.stats.min_margin_wc_before
                );
            }
            None => {
                println!(
                    "{:<28} {:>6} SEARCH FAILED (no L ≤ {} meets the margin target at a secure ring)",
                    b.name, b.l, spec.max_l
                );
                failures += 1;
            }
        }
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", b.name.replace('"', "\\\"")));
        out.push_str(&format!("      \"scheme\": \"{}\",\n", b.scheme.label()));
        out.push_str(&format!("      \"paper\": {{\"n\": {}, \"l\": {}}},\n", b.n, b.l));
        match &found {
            Some(r) => {
                out.push_str("      \"found\": {\n");
                out.push_str(&format!("        \"l\": {},\n", r.l));
                out.push_str(&format!("        \"n_secure\": {},\n", r.n_secure));
                out.push_str(&format!("        \"security_bits\": {:.1},\n", r.security_bits));
                out.push_str(&format!(
                    "        \"min_margin_wc_bits\": {:.1},\n",
                    r.stats.min_margin_wc_after
                ));
                out.push_str(&format!("        \"rescales_inserted\": {},\n", r.stats.inserted));
                out.push_str(&format!("        \"hand_switches_dropped\": {}\n", r.stats.dropped));
                out.push_str("      }\n");
            }
            None => out.push_str("      \"found\": null\n"),
        }
        out.push_str("    }");
        out.push_str(if bi + 1 < benchmarks_full.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(&out_path, out).expect("failed to write param-search JSON");
    println!("\nwrote {out_path}");

    if !no_validate {
        // Differential validation on real software BGV, width-reduced
        // for runtime (depth — and therefore the found L — is
        // scale-invariant).
        println!("\nvalidating against software BGV:");
        let db = benchmarks::db_lookup(64);
        if !validate(db.name, &db.fhe, &spec) {
            failures += 1;
        }
        if !quick {
            let boot = benchmarks::bgv_bootstrapping(64);
            if !validate(boot.name, &boot.fhe, &spec) {
                failures += 1;
            }
        }
    }

    if failures > 0 {
        println!("FAILED: {failures} benchmark(s) unsearchable or mismatched");
        std::process::exit(1);
    }
}
