//! Regression tests pinning the capacity-faithful scheduler's revived
//! ablations and the behaviors the 64 MB baseline must keep.

use f1::arch::ArchConfig;
use f1::compiler::movement::MoveEvent;
use f1::compiler::{compile_fhe, ExpandOptions, FheProgram, KeySwitchChoice, Scheme};
use f1::isa::dfg::ValueId;
use f1::isa::streams::MemDir;
use f1::workloads::benchmarks::{
    bgv_bootstrapping, ckks_bootstrapping, db_lookup, logistic_regression, lola_cifar_uw,
    lola_mnist_ew, lola_mnist_uw,
};
use std::collections::{HashMap, HashSet, VecDeque};

#[test]
fn csr_ablation_bites_at_4mb() {
    // The revived Table 5 CSR column: on a 4 MB scratchpad, Goodman-Hsu's
    // register-pressure order (which knows nothing of hint reuse) must
    // cost at least 5% over the hint-priority order once spills and
    // refetches are real scheduled events. (Measured ~4.6x here; the
    // deep benchmarks in table5_sensitivity read 3-7x.)
    let p = FheProgram::listing2_matvec(1 << 13, 8, 4).lower().program;
    let tiny = ArchConfig::f1_default().with_scratchpad_mb(4);
    let ex = f1::compiler::expand::expand(&p, &ExpandOptions::default());
    let base_plan = f1::compiler::movement::schedule(&ex, &tiny);
    let base = f1::compiler::cycle::schedule(&ex, &base_plan, &tiny).makespan;
    let order = f1::compiler::csr::csr_order(&ex.dfg).expect("matvec is CSR-tractable");
    let csr_plan = f1::compiler::movement::schedule_with_order(&ex, &tiny, Some(&order));
    let csr = f1::compiler::cycle::schedule(&ex, &csr_plan, &tiny).makespan;
    let ratio = csr as f64 / base as f64;
    assert!(ratio >= 1.05, "CSR@4MB ratio {ratio:.3} regressed below 1.05x");
}

#[test]
fn capacity_constrained_schedules_validate_at_4mb() {
    // LoLa-MNIST and listing2_matvec at a 4 MB scratchpad: consumers
    // gated on refetch completion, resident set <= capacity at every
    // cycle — check_schedule panics on any violation, and the replayed
    // execution must be bit-identical to direct evaluation.
    let tiny = ArchConfig::f1_default().with_scratchpad_mb(4);
    for (name, p) in [
        ("lola_mnist_uw", lola_mnist_uw(8).fhe),
        ("listing2_matvec", FheProgram::listing2_matvec(1 << 13, 8, 4)),
    ] {
        let (_, _, ex, plan, cs) = compile_fhe(&p, &tiny);
        assert!(plan.traffic.non_compulsory() > 0, "{name}: 4 MB must thrash");
        let report = f1::sim::check_schedule(&ex, &plan, &cs, &tiny);
        assert!(report.makespan > 0, "{name}");
        let inputs = f1::sim::mock_inputs(&ex.dfg);
        let direct = f1::sim::eval_dfg(&ex.dfg, &inputs);
        let replayed = f1::sim::replay_schedule(&ex.dfg, &cs, &tiny, &inputs);
        for &o in ex.dfg.outputs() {
            assert_eq!(replayed[&o], direct[&o], "{name}: output {o:?} differs");
        }
    }
}

#[test]
fn allocations_start_before_their_byte_donors_release() {
    // Pass 2 names, for each allocation on a full pad, the releases whose
    // bytes it reuses. Pass 3 keeps them as commit order only and starts
    // the allocation once its bytes fit, which can be before the newest
    // of those releases: some other release has freed the room by then.
    // The checker's capacity check stays the oracle.
    let arch = ArchConfig::f1_default().with_scratchpad_mb(2);
    let p = FheProgram::listing2_matvec(1 << 12, 8, 4);
    let (_, _, ex, plan, cs) = compile_fhe(&p, &arch);
    // Per value, its release and load cycles in order: each value's
    // residency intervals are disjoint, so its k-th release event in the
    // plan is its k-th evict entry, and likewise for loads.
    let mut evicts: HashMap<ValueId, VecDeque<u64>> = HashMap::new();
    for e in &cs.schedule.evict {
        evicts.entry(e.value).or_default().push_back(e.cycle);
    }
    let mut loads: HashMap<ValueId, VecDeque<u64>> = HashMap::new();
    for m in cs.schedule.mem.iter().filter(|m| m.dir == MemDir::Load) {
        loads.entry(m.value).or_default().push_back(m.cycle);
    }
    let mut issue = vec![0; ex.dfg.instrs().len()];
    for e in cs.schedule.compute.iter().flatten() {
        issue[e.instr.0 as usize] = e.cycle;
    }
    let mut released_at = vec![None; plan.events.len()];
    let (mut allocations, mut early) = (0, 0);
    for (ei, e) in plan.events.iter().enumerate() {
        let (start, space_from) = match e {
            MoveEvent::Load { value, space_from, .. } => {
                (loads.get_mut(value).and_then(VecDeque::pop_front).expect("load"), space_from)
            }
            MoveEvent::Issue { instr, space_from } => (issue[instr.0 as usize], space_from),
            e if e.frees_space() => {
                let v = e.value().expect("a release names its value");
                released_at[ei] = evicts.get_mut(&v).and_then(VecDeque::pop_front);
                continue;
            }
            _ => continue,
        };
        if let Some(&newest) = space_from.iter().max() {
            allocations += 1;
            let release = released_at[newest as usize].expect("donors release first");
            early += usize::from(start < release);
        }
    }
    assert!(allocations > 0, "a 2 MB pad must reuse released bytes");
    assert!(
        early > 0,
        "none of {allocations} allocations started before its newest donor's release"
    );
    let report = f1::sim::check_schedule(&ex, &plan, &cs, &arch);
    assert!(report.makespan > 0);
}

#[test]
fn tinypad_makespan_is_monotone_in_capacity() {
    // The tinypad_sweep property at test scale: growing the scratchpad
    // never slows the schedule down.
    let p = lola_mnist_uw(8).fhe;
    let mut prev = u64::MAX;
    for mb in [1u64, 2, 4, 8, 16, 32, 64] {
        let arch = ArchConfig::f1_default().with_scratchpad_mb(mb);
        let (.., cs) = compile_fhe(&p, &arch);
        assert!(
            cs.makespan <= prev,
            "makespan increased with capacity at {mb} MB: {} > {prev}",
            cs.makespan
        );
        prev = cs.makespan;
    }
}

/// Pass 3 schedules a plan that moves only compulsory traffic without
/// pass 2's byte lineage, and keeps that schedule only when its peak fits
/// the pad. The checker is then the only guard of the kept schedule.
/// LoLa-MNIST EW and the fhe-ops BGV block keep their lineage-free
/// schedules. LoLa-CIFAR's peaks at 83.4 MB, so it keeps its lineage
/// schedule of 181,499 cycles, as before lineage-free schedules existed.
#[test]
fn compulsory_only_schedules_fit_the_pad() {
    let mut bgv = FheProgram::new(1 << 14, Scheme::Bgv);
    let (x, y) = (bgv.input(16), bgv.input(16));
    let m = bgv.mul(x, y);
    let r = bgv.rotate(m, 1);
    let s = bgv.mod_switch(r);
    bgv.output(s);
    let arch = ArchConfig::f1_default();
    for (name, p, makespan) in [
        ("bgv_block", bgv, 25_429),
        ("lola_mnist_ew", lola_mnist_ew(8).fhe, 31_492),
        ("lola_cifar", lola_cifar_uw(8).fhe, 181_499),
    ] {
        let (_, _, ex, plan, cs) = compile_fhe(&p, &arch);
        assert_eq!(plan.traffic.non_compulsory(), 0, "{name}");
        f1::sim::check_schedule(&ex, &plan, &cs, &arch);
        assert_eq!(cs.makespan, makespan, "{name}");
    }
}

#[test]
fn utilization_unchanged_at_64mb() {
    // The pinned utilization floor must survive the capacity model: at
    // the paper's 64 MB scratchpad nothing spills, so waiting for
    // scratchpad room must not cost utilization. (Full-size LoLa-MNIST is
    // pinned by the ignored full-size smoke below; this uses the fast
    // matvec anchor.)
    let p = FheProgram::listing2_matvec(1 << 13, 8, 4);
    let arch = ArchConfig::f1_default();
    let (_, _, ex, plan, cs) = compile_fhe(&p, &arch);
    assert_eq!(plan.traffic.interm_store, 0, "64 MB must not spill matvec");
    let report = f1::sim::check_schedule(&ex, &plan, &cs, &arch);
    assert!(
        report.avg_fu_utilization >= 0.15,
        "64 MB utilization {:.3} regressed below the pinned 15%",
        report.avg_fu_utilization
    );
}

#[test]
fn pass_through_outputs_stay_physical() {
    // An input marked directly as an output owes no load and no store:
    // its authoritative bits never leave HBM. Under capacity pressure the
    // schedule must not invent a store of data the scratchpad never held
    // (the checker rejects exactly that), and replay must still produce
    // the input bits for the output.
    let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
    let x = p.input(4);
    let y = p.input(4);
    let m = p.mul(x, y);
    p.output(x); // pass-through: never computed on as an output
    p.output(m);
    let mut arch = ArchConfig::f1_default();
    arch.scratchpad_banks = 1;
    arch.bank_bytes = 64 * 1024; // 16 values of 4 KB: forces eviction churn
    let (_, _, ex, plan, cs) = compile_fhe(&p, &arch);
    let report = f1::sim::check_schedule(&ex, &plan, &cs, &arch);
    assert!(report.makespan > 0);
    let inputs = f1::sim::mock_inputs(&ex.dfg);
    let direct = f1::sim::eval_dfg(&ex.dfg, &inputs);
    let replayed = f1::sim::replay_schedule(&ex.dfg, &cs, &arch, &inputs);
    for &o in ex.dfg.outputs() {
        assert_eq!(replayed[&o], direct[&o], "output {o:?} differs");
    }
}

/// Pass 2 prefetches ahead of compute and evicts the value reused
/// furthest in the future. Once capacity forces live evictions, a
/// prefetch reused no sooner than every live resident is the next victim:
/// the load is wasted, released before any instruction reads it. Fewer
/// than 2% of loads may go that way at 64 MB. Before pass 2 followed the
/// do-no-harm prefetch rule, 418 of 2,184 loads (19%) did on BGV
/// bootstrapping and 334 of 1,934 (17%) on CKKS bootstrapping.
#[test]
fn prefetches_are_read_before_release() {
    let arch = ArchConfig::f1_default();
    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
    for b in [bgv_bootstrapping(8), ckks_bootstrapping(8)] {
        let ex = f1::compiler::expand::expand(&b.lowered().0, &opts);
        let plan = f1::compiler::movement::schedule(&ex, &arch);
        let mut unread = HashSet::new();
        let (mut loads, mut wasted) = (0usize, 0usize);
        for e in &plan.events {
            match e {
                MoveEvent::Load { value, .. } => {
                    loads += 1;
                    unread.insert(*value);
                }
                MoveEvent::Issue { instr, .. } => {
                    for v in &ex.dfg.instr(*instr).inputs {
                        unread.remove(v);
                    }
                }
                e if e.frees_space() => {
                    wasted += usize::from(unread.remove(&e.value().expect("a release")));
                }
                _ => {}
            }
        }
        assert!(loads > 0, "{}: nothing loaded", b.name);
        assert!(
            wasted * 50 < loads,
            "{}: {wasted} of {loads} loads released before any instruction read them",
            b.name
        );
    }
}

/// Pass 1 orders ops under a live-bytes budget of a quarter of the
/// target scratchpad. On a 4 MB pad, LoLa-CIFAR's order budgeted for that
/// pad must spill less than its order budgeted for the 64 MB default,
/// under which the hint-reuse order fans out every ready use of a
/// rotation hint (164 MB against 35 MB of spill stores when this was
/// written). The key-switch variant is pinned so that only the order
/// differs.
#[test]
fn live_budget_cuts_spills_on_a_small_pad() {
    let p = lola_cifar_uw(8).lowered().0;
    let tiny = ArchConfig::f1_default().with_scratchpad_mb(4);
    let spill = |machine: Option<ArchConfig>| {
        let opts = ExpandOptions { keyswitch: KeySwitchChoice::Ghs, machine, ..Default::default() };
        let ex = f1::compiler::expand::expand(&p, &opts);
        f1::compiler::movement::schedule(&ex, &tiny).traffic.interm_store
    };
    let (own, default_pad) = (spill(Some(tiny.clone())), spill(None));
    assert!(default_pad > 0, "the 64 MB order must spill on a 4 MB pad");
    assert!(own < default_pad, "budgeted order spills {own} B, the 64 MB order {default_pad} B");
}

/// Full-size (`F1_SCALE=1`) smoke: LoLa-MNIST compiles, validates under
/// the capacity-strict checker, and holds the ~26%-utilization result at
/// 64 MB. Run with `cargo test --release -- --ignored` (slow unoptimized;
/// sub-second in release).
#[test]
#[ignore = "full-size run; CI runs it on schedule/label (use --release)"]
fn full_size_lola_utilization_smoke() {
    let b = lola_mnist_uw(1);
    let arch = ArchConfig::f1_default();
    let (_, _, ex, plan, cs) = compile_fhe(&b.fhe, &arch);
    let report = f1::sim::check_schedule(&ex, &plan, &cs, &arch);
    assert!(
        report.avg_fu_utilization >= 0.15,
        "full-size LoLa utilization {:.3} below the pinned 15%",
        report.avg_fu_utilization
    );
}

/// Full-size capacity gate: LogReg and DB lookup at `F1_SCALE=1` on 32,
/// 64, 128 and 256 MB scratchpads. Every schedule passes the
/// capacity-strict checker, and makespan never increases with capacity.
/// Before pass 2 kept a reserve of free scratchpad, LogReg failed this:
/// 96.2 M cycles at 128 MB against 80.7 M at 64 MB. Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "full-size run; CI runs it on schedule/label (use --release)"]
fn full_size_makespan_is_monotone_in_capacity() {
    for b in [logistic_regression(1), db_lookup(1)] {
        let mut prev = u64::MAX;
        for mb in [32u64, 64, 128, 256] {
            let arch = ArchConfig::f1_default().with_scratchpad_mb(mb);
            let (_, _, ex, plan, cs) = compile_fhe(&b.fhe, &arch);
            let makespan = f1::sim::check_schedule(&ex, &plan, &cs, &arch).makespan;
            assert!(
                makespan <= prev,
                "{}: makespan increased with capacity at {mb} MB: {makespan} > {prev}",
                b.name
            );
            prev = makespan;
        }
    }
}

/// Full-size Table 4 smoke (the ROADMAP "time the F1_SCALE=1 table3/4
/// binaries" item): every microbenchmark op at every paper parameter set
/// must produce a positive reciprocal throughput, and F1 must beat the
/// measured CPU baseline. Timing recorded in the README.
#[test]
#[ignore = "full-size run; CI runs it on schedule/label"]
fn full_size_table4_smoke() {
    use f1::workloads::cpu_baseline::CpuBaseline;
    use f1::workloads::micro::{f1_reciprocal_s, heax_reciprocal_s, micro_program, MicroOp};
    let arch = ArchConfig::f1_default();
    for (n, _logq, l) in f1::fhe::params::table4_parameter_sets() {
        let mut mp = FheProgram::new(256, Scheme::Bgv);
        let x = mp.input(l);
        let y = mp.input(l);
        let m = mp.mul(x, y);
        let r = mp.aut(m, 3);
        let a = mp.add(r, m);
        let s = mp.mod_switch(a);
        mp.output(s);
        let base = CpuBaseline::measure(&mp.lower().program, 256);
        for op in MicroOp::ALL {
            let f1_s = f1_reciprocal_s(op, n, l, &arch);
            let cpu_s = base.estimate_seconds(&micro_program(op, n, l), n);
            let heax_s = heax_reciprocal_s(op, n, l);
            assert!(f1_s > 0.0 && heax_s > 0.0);
            assert!(
                cpu_s / f1_s > 1.0,
                "{op:?} at N={n}, L={l}: F1 ({f1_s:.3e} s) must beat the CPU ({cpu_s:.3e} s)"
            );
        }
    }
}
