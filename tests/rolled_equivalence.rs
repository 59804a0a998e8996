//! Rolled-vs-unrolled equivalence: `compile_rolled` (which proves an
//! iteration window periodic and stamps the remaining trips when it
//! can) must be invisible in the output — against the flat pipeline's
//! compile of the same program, the makespan delta must be exactly 0
//! and the FNV fingerprints of the emitted `StaticSchedule` streams
//! must be byte-identical, whether the stamping fast path engaged or
//! the compile fell back flat.

use f1::arch::ArchConfig;
use f1::compiler::ir::{FheProgram, Scheme};
use f1::compiler::{compile_fhe, compile_rolled, CycleSchedule, RolledOutcome};
use proptest::prelude::*;

/// FNV-1a over the schedule's stream debug rendering — the repo's
/// fingerprint idiom.
fn fnv_fingerprint(cs: &CycleSchedule) -> u64 {
    let s = format!("{:?}", cs.schedule);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Random single-carry loop at a fixed level: each opcode byte appends
/// one level-preserving node reading earlier body values (so iterations
/// are structurally uniform — the shape the stamping engine targets),
/// and the last body node carries back to the loop input.
fn rolled_program(ops: &[u8], trips: u32) -> FheProgram {
    let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
    let acc = p.input(6);
    let t = p.begin_repeat();
    let mut vals = vec![acc];
    for &op in ops {
        let a = vals[(op as usize / 8) % vals.len()];
        let b = vals[(op as usize / 64) % vals.len()];
        let v = match op % 4 {
            0 => p.square(a),
            1 => p.aut(a, [3, 5, 9][(op as usize / 4) % 3]),
            2 => p.add(a, b),
            _ => p.mul(a, b),
        };
        vals.push(v);
    }
    let last = *vals.last().expect("body is non-empty");
    p.end_repeat(&t, trips, vec![(acc, last)], vec![]);
    p.output(last);
    p
}

fn assert_equivalent(p: &FheProgram, what: &str) {
    let arch = ArchConfig::f1_default();
    let rolled = compile_rolled(p, &arch);
    let (_, _, _, _, flat) = compile_fhe(p, &arch);
    let path = match &rolled.outcome {
        RolledOutcome::Stamped(_) => "stamped",
        RolledOutcome::Flat { .. } => "flat",
    };
    assert_eq!(
        rolled.schedule.makespan, flat.makespan,
        "{path} path, {what}: makespan delta must be exactly 0"
    );
    assert_eq!(
        fnv_fingerprint(&rolled.schedule),
        fnv_fingerprint(&flat),
        "{path} path, {what}: StaticSchedule stream fingerprints differ"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rolled_compile_matches_unrolled_compile(
        ops in proptest::collection::vec(0u8..=255, 1..6),
        // Low draws land in 4..12 trips (flat fallback), high draws in
        // 26..40 (stamping fast path); both must agree with the flat
        // pipeline.
        raw_trips in 0u32..22,
    ) {
        let trips = if raw_trips < 8 { 4 + raw_trips } else { 26 + (raw_trips - 8) };
        assert_equivalent(&rolled_program(&ops, trips), &format!("{trips} trips, ops {ops:?}"));
    }
}

#[test]
fn canonical_chain_takes_the_stamped_path_and_matches() {
    // A known-periodic body must actually engage the fast path (the
    // proptest above would silently pass if everything fell back flat).
    let arch = ArchConfig::f1_default();
    let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
    let acc = p.input(6);
    let t = p.begin_repeat();
    let m = p.square(acc);
    let r = p.aut(m, 9);
    let acc2 = p.add(r, m);
    p.end_repeat(&t, 30, vec![(acc, acc2)], vec![]);
    p.output(acc2);
    let rolled = compile_rolled(&p, &arch);
    assert!(
        matches!(rolled.outcome, RolledOutcome::Stamped(_)),
        "expected the stamped path: {:?}",
        match &rolled.outcome {
            RolledOutcome::Flat { reason } => reason.clone(),
            _ => String::new(),
        }
    );
    assert_equivalent(&p, "canonical square/rotate/add chain at 30 trips");
}
