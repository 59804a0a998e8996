//! The compile workload (`paper-suite`) and the compile runner every
//! workload uses: compile, check, fingerprint and, in the traced run, the
//! same compile again stage by stage.

use crate::calls::{self, Compiled};
use crate::trace::Tracer;
use f1_arch::ArchConfig;
use f1_compiler::ir::{FheOp, FheProgram};
use f1_isa::FuType;
use f1_sim::SimReport;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One program a workload compiles, under a short label used as the
/// metric suffix and in the fingerprint file.
pub struct Job {
    pub label: &'static str,
    pub program: FheProgram,
    /// Homomorphic operations of the unrolled frontend program (inputs
    /// and constants excluded): fixed per program, whatever the compiler
    /// later removes.
    pub ops: usize,
}

impl Job {
    /// Counts the program's operations by unrolling it once.
    pub fn new(label: &'static str, program: FheProgram) -> Self {
        let ops = program
            .unroll()
            .nodes()
            .iter()
            .filter(|n| {
                !matches!(
                    n.op,
                    FheOp::CtInput { .. } | FheOp::PtInput { .. } | FheOp::Constant { .. }
                )
            })
            .count();
        Self { label, program, ops }
    }
}

/// The seven Table 3 programs at full size, as typed frontend programs.
pub fn paper_suite() -> Vec<Job> {
    f1_workloads::all_benchmarks(1)
        .into_iter()
        .map(|b| Job::new(short_label(b.name), b.fhe))
        .collect()
}

fn short_label(name: &str) -> &'static str {
    match name {
        "LoLa-CIFAR Unencryp. Wghts." => "lola_cifar",
        "LoLa-MNIST Unencryp. Wghts." => "lola_mnist_uw",
        "LoLa-MNIST Encryp. Wghts." => "lola_mnist_ew",
        "Logistic Regression" => "logreg",
        "DB Lookup" => "db_lookup",
        "BGV Bootstrapping" => "bgv_boot",
        "CKKS Bootstrapping" => "ckks_boot",
        other => panic!("unknown benchmark {other:?}: extend the label table"),
    }
}

/// Labels of the paper suite, in `all_benchmarks` order.
pub const PAPER_LABELS: [&str; 7] = [
    "lola_cifar",
    "lola_mnist_uw",
    "lola_mnist_ew",
    "logreg",
    "db_lookup",
    "bgv_boot",
    "ckks_boot",
];

/// Counts and machine statistics of one traced compile and check.
pub struct Layers {
    pub nodes_removed: f64,
    pub instrs: f64,
    pub events: f64,
    pub spill_bytes: f64,
    pub refetch_bytes: f64,
    pub makespan: f64,
    pub fu_util: f64,
    pub fu_busy: [f64; 4],
    pub hbm_util: f64,
    pub power_w: f64,
}

impl Layers {
    fn new(c: &Compiled, report: &SimReport, arch: &ArchConfig) -> Self {
        let traffic = &c.plan.traffic;
        let makespan = report.makespan.max(1) as f64;
        let window = report.timeline.window as f64;
        let busy = |i: usize| {
            let units = (arch.fus_per_cluster(FuType::ALL[i]) * arch.clusters) as f64;
            report.timeline.fu_active[i].iter().sum::<f64>() * window / (makespan * units)
        };
        Self {
            nodes_removed: c.stats.removed() as f64,
            instrs: c.expanded.dfg.instrs().len() as f64,
            events: c.plan.events.len() as f64,
            spill_bytes: (traffic.interm_store + traffic.interm_load) as f64,
            refetch_bytes: (traffic.ksh_non_compulsory + traffic.input_non_compulsory) as f64,
            makespan: report.makespan as f64,
            fu_util: report.avg_fu_utilization,
            fu_busy: [busy(0), busy(1), busy(2), busy(3)],
            hbm_util: report.timeline.hbm_util.iter().sum::<f64>() * window / (makespan * 100.0),
            power_w: report.power.total_w(),
        }
    }
}

/// One compile plus its check.
pub struct CompileRun {
    pub label: &'static str,
    pub pass: u32,
    /// Host seconds inside `compile_fhe` and `check_schedule` (`check_s`
    /// is 0 in the traced run, which checks stage by stage).
    pub compile_s: f64,
    pub check_s: f64,
    /// The job's frontend operation count.
    pub ops: usize,
    /// Homomorphic operations of the lowered program.
    pub hom_ops: usize,
    pub makespan: u64,
    pub fingerprint: u64,
    pub sim_s: f64,
    pub offchip_bytes: u64,
    /// Traced run only: the staged compile's counts.
    pub layers: Option<Layers>,
}

/// Compiles and checks `job` as one operation. With tracing on, the
/// `compile_fhe` result is only fingerprinted: the program is compiled
/// again stage by stage, and that schedule, which must be the same, is
/// checked stage by stage. A checker rejection, a panic or a
/// disagreement is an `Err`.
pub fn compile_and_check(
    t: &mut Tracer,
    job: &Job,
    arch: &ArchConfig,
    pass: u32,
) -> Result<CompileRun, String> {
    t.begin_op(job.label, pass);
    let depth = t.depth();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (c, compile_s) = t.span("compile", |_| calls::compile(&job.program, arch));
        let (hom_ops, fingerprint) = (c.hom_ops(), c.fingerprint());
        let (c, report, check_s, layers) = if t.detail() {
            drop(c);
            let staged =
                t.span("compile.staged", |t| calls::compile_staged(t, &job.program, arch)).0;
            let (report, streams_makespan) =
                t.span("check.staged", |t| calls::check_staged(t, &staged, arch)).0;
            if staged.fingerprint() != fingerprint || streams_makespan != report.makespan {
                return Err("staged compile or check disagrees with the entry points".to_string());
            }
            let layers = Layers::new(&staged, &report, arch);
            (staged, report, 0.0, Some(layers))
        } else {
            let (report, check_s) = t.span("check", |_| calls::check(&c, arch));
            (c, report, check_s, None)
        };
        if report.makespan != c.schedule.makespan {
            return Err(format!(
                "checker makespan {} != scheduled makespan {}",
                report.makespan, c.schedule.makespan
            ));
        }
        Ok(CompileRun {
            label: job.label,
            pass,
            compile_s,
            check_s,
            ops: job.ops,
            hom_ops,
            makespan: report.makespan,
            fingerprint,
            sim_s: report.seconds,
            offchip_bytes: report.traffic.total(),
            layers,
        })
    }));
    t.close_to(depth);
    match result {
        Ok(r) => r,
        Err(panic) => Err(format!("panic: {}", panic_message(&panic))),
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
