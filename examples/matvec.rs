//! Listing 2's matrix-vector multiply on the typed `FheProgram`
//! frontend: functional verification on real BGV, then the F1
//! compilation pipeline — IR passes included — with its hint-reuse
//! schedule.
//!
//! Run with: `cargo run -p f1 --release --example matvec`

use f1::arch::ArchConfig;
use f1::compiler::ir::{FheProgram, IrId, Scheme};
use f1::fhe::encoding::SlotEncoder;
use f1::fhe::params::BgvParams;
use f1::sim::BgvExecutor;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    // Functional run at a small ring for speed.
    let n = 128usize;
    let rows = 4usize;
    let params = BgvParams::test_small(n, 4);
    let enc = SlotEncoder::new(&params);
    let mut p = FheProgram::new(n, Scheme::Bgv);
    let m_rows: Vec<IrId> = (0..rows).map(|_| p.input(4)).collect();
    let v = p.input(4);
    for &row in &m_rows {
        let prod = p.mul(row, v);
        let sum = p.inner_sum(prod, n / 2);
        p.output(sum);
    }
    let exec = BgvExecutor::new(params.clone(), &p, &mut rng);
    // Inputs bind by build-time ordinal: the rows are inputs 0..rows,
    // the vector input `rows`.
    let vec_data: Vec<u64> = (0..n / 2).map(|j| (j % 9) as u64).collect();
    let mut inputs = Vec::new();
    let mut expected = Vec::new();
    for r in 0..rows {
        let row: Vec<u64> = (0..n / 2).map(|j| ((3 * j + r) % 7) as u64).collect();
        expected.push(
            row.iter().zip(&vec_data).map(|(&a, &b)| a * b).sum::<u64>() % params.plaintext_modulus,
        );
        inputs.push(enc.encode(&[row.clone(), row], &params));
    }
    inputs.push(enc.encode(&[vec_data.clone(), vec_data], &params));
    let run = exec.run(&p, &inputs, &[], &mut rng);
    for (r, out) in run.outputs.iter().enumerate() {
        let got = enc.decode(out)[0][0];
        println!("row {r}: dot product = {got} (expected {})", expected[r]);
        assert_eq!(got, expected[r]);
    }
    println!("functional run: {} hom ops in {:?}\n", run.hom_ops, run.eval_time);

    // F1 compilation of the full-size version (Listing 2's 4 x 16K),
    // through the IR pass pipeline.
    let full = FheProgram::listing2_matvec(1 << 14, 16, 4);
    let arch = ArchConfig::f1_default();
    let (_, stats, ex, plan, cycles) = f1::compiler::compile_fhe(&full, &arch);
    let report = f1::sim::check_schedule(&ex, &plan, &cycles, &arch);
    println!("F1 schedule for 4x16K matvec at L=16:");
    println!(
        "  IR passes: {} hom ops -> {}, key-switches {} -> {} (innerSum's last",
        stats.nodes_before, stats.nodes_after, stats.keyswitch_before, stats.keyswitch_after
    );
    println!("   rotation wraps to the identity σ_1 — one dead key-switch per row)");
    println!(
        "  {} vector instructions, makespan {} cycles ({:.3} ms)",
        ex.dfg.instrs().len(),
        report.makespan,
        report.seconds * 1e3
    );
    println!(
        "  off-chip traffic {} MB, of which {:.1}% compulsory",
        report.traffic.total() / (1024 * 1024),
        report.traffic.compulsory() as f64 / report.traffic.total() as f64 * 100.0
    );
    println!("  (the §4.2 example: naive order would fetch 480 MB of hints; the");
    println!("   hint-reuse schedule fetches each hint once)");
}
