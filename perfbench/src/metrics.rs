//! Metrics: the end-to-end set of the untraced run and the per-layer set
//! of the traced run, derived from the recorded spans and runs.

use crate::compile::{CompileRun, Layers, PAPER_LABELS};
use crate::fhe_ops::OPS_PER_BLOCK;
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sum of `f` over `runs` per pass, averaged over the passes.
fn per_pass(runs: &[&CompileRun], f: impl Fn(&CompileRun) -> f64) -> f64 {
    let passes: std::collections::BTreeSet<u32> = runs.iter().map(|r| r.pass).collect();
    runs.iter().map(|r| f(r)).sum::<f64>() / passes.len().max(1) as f64
}

/// The first run of each program.
fn first_per_label(runs: &[CompileRun]) -> BTreeMap<&'static str, &CompileRun> {
    let mut out = BTreeMap::new();
    for r in runs {
        out.entry(r.label).or_insert(r);
    }
    out
}

pub fn end_to_end(
    m: &mut Metrics,
    setup_s: f64,
    peak_rss_mb: f64,
    runs: &[CompileRun],
    block_s: &[f64],
) {
    let all: Vec<&CompileRun> = runs.iter().collect();
    let firsts = first_per_label(runs);
    let sim_ms: Vec<f64> = firsts.values().map(|r| r.sim_s * 1e3).collect();
    let gmean = (sim_ms.iter().map(|x| x.ln()).sum::<f64>() / sim_ms.len().max(1) as f64).exp();
    let offchip: u64 = firsts.values().map(|r| r.offchip_bytes).sum();
    // Homomorphic ops per host second: executed in software on fhe-ops;
    // frontend ops compiled and checked on paper-suite.
    let ops_per_s = if block_s.is_empty() {
        per_pass(&all, |r| r.ops as f64) / per_pass(&all, |r| r.compile_s + r.check_s)
    } else {
        (block_s.len() * OPS_PER_BLOCK) as f64 / block_s.iter().sum::<f64>()
    };
    m.push("setup_s", setup_s, "s");
    m.push("compile_s", per_pass(&all, |r| r.compile_s), "s");
    m.push("check_s", per_pass(&all, |r| r.check_s), "s");
    m.push("peak_rss_mb", peak_rss_mb, "MB");
    m.push("sim_ms_gmean", gmean, "sim_ms");
    m.push("offchip_mb", offchip as f64 / 1e6, "MB");
    m.push("fhe_ops_per_s", ops_per_s, "1/s");
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Median over passes of the per-pass summed seconds of the spans named
/// `name`, restricted to `program` when given; 0 when there are none.
fn span_s(spans: &[Span], name: &str, program: Option<&str>) -> f64 {
    median(&pass_sums(spans, &[name], program).into_values().collect::<Vec<_>>())
}

fn pass_sums(spans: &[Span], names: &[&str], program: Option<&str>) -> BTreeMap<u32, f64> {
    let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if names.contains(&s.name) && program.is_none_or(|p| p == s.program) {
            *sums.entry(s.pass).or_default() += s.host_s;
        }
    }
    sums
}

/// Median over passes of `sum(plus) - sum(minus)`.
fn span_diff_s(spans: &[Span], plus: &[&str], minus: &[&str], program: Option<&str>) -> f64 {
    let p = pass_sums(spans, plus, program);
    let q = pass_sums(spans, minus, program);
    let diffs: Vec<f64> =
        p.iter().map(|(pass, a)| a - q.get(pass).copied().unwrap_or(0.0)).collect();
    median(&diffs)
}

/// Stages of the staged compile, i.e. everything `compile_fhe` does.
const COMPILE_STAGES: [&str; 6] =
    ["ir.unroll", "ir.optimize", "ir.lower", "expand", "movement", "cycle"];

const FHE_OPS: [(&str, &str); OPS_PER_BLOCK] = [
    ("fhe.bgv_mul", "fhe.bgv_mul_ms"),
    ("fhe.bgv_rotate", "fhe.bgv_rotate_ms"),
    ("fhe.bgv_mod_switch", "fhe.bgv_mod_switch_ms"),
    ("fhe.ckks_mul", "fhe.ckks_mul_ms"),
    ("fhe.ckks_rescale", "fhe.ckks_rescale_ms"),
    ("fhe.ckks_rotate", "fhe.ckks_rotate_ms"),
    ("fhe.gsw_ext_product", "fhe.gsw_ext_product_ms"),
];

const KERNELS: [&str; 4] =
    ["poly.ntt_forward_us", "poly.ntt_inverse_us", "poly.automorphism_us", "modarith.mul_slice_us"];

/// Makespan-weighted mean of a machine ratio over programs.
fn weighted(layers: &[&Layers], f: impl Fn(&Layers) -> f64) -> f64 {
    let total: f64 = layers.iter().map(|l| l.makespan).sum();
    layers.iter().map(|l| f(l) * l.makespan).sum::<f64>() / total.max(1.0)
}

pub fn per_layer(m: &mut Metrics, t: &Tracer, runs: &[CompileRun], kernels: Option<[f64; 4]>) {
    let spans = t.spans();
    let firsts = first_per_label(runs);
    let layers: Vec<&Layers> = firsts.values().filter_map(|r| r.layers.as_ref()).collect();
    let sum = |f: &dyn Fn(&Layers) -> f64| layers.iter().map(|l| f(l)).sum::<f64>();

    let secs = |name: &str| span_s(spans, name, None);
    m.push("ir.unroll_s", secs("ir.unroll"), "s");
    m.push("ir.optimize_s", secs("ir.optimize"), "s");
    m.push("ir.lower_s", secs("ir.lower"), "s");
    m.push("ir.nodes_removed", sum(&|l| l.nodes_removed), "count");
    m.push("expand.s", secs("expand"), "s");
    m.push("expand.order_s", secs("expand.order"), "s");
    m.push("expand.instrs", sum(&|l| l.instrs), "count");
    let hom_ops = firsts.values().filter(|r| r.layers.is_some()).map(|r| r.hom_ops).sum::<usize>();
    m.push("expand.hom_ops", hom_ops as f64, "count");
    m.push("movement.s", secs("movement"), "s");
    m.push("movement.events", sum(&|l| l.events), "count");
    m.push("movement.spill_mb", sum(&|l| l.spill_bytes) / 1e6, "MB");
    m.push("movement.refetch_mb", sum(&|l| l.refetch_bytes) / 1e6, "MB");
    m.push("cycle.s", secs("cycle"), "s");
    m.push("cycle.makespan", sum(&|l| l.makespan), "cycles");
    m.push("checker.streams_s", secs("checker.streams"), "s");
    m.push(
        "checker.stats_s",
        span_diff_s(spans, &["checker.schedule"], &["checker.streams"], None),
        "s",
    );
    m.push("machine.fu_util", weighted(&layers, |l| l.fu_util), "frac");
    for (i, fu) in ["ntt", "aut", "mul", "add"].iter().enumerate() {
        m.push(format!("machine.fu_busy.{fu}"), weighted(&layers, |l| l.fu_busy[i]), "frac");
    }
    m.push("machine.hbm_util", weighted(&layers, |l| l.hbm_util), "frac");
    m.push("machine.power_w", weighted(&layers, |l| l.power_w), "W");

    for (span, metric) in FHE_OPS {
        let ms: Vec<f64> =
            spans.iter().filter(|s| s.name == span).map(|s| s.host_s * 1e3).collect();
        m.push(metric, median(&ms), "ms");
    }
    let kernels = kernels.unwrap_or_default();
    for (metric, us) in KERNELS.iter().zip(kernels) {
        m.push(*metric, us, "us");
    }
    m.push("trace.overhead_s", span_diff_s(spans, &COMPILE_STAGES, &["compile"], None), "s");

    for label in PAPER_LABELS {
        let p = Some(label);
        let l = firsts.get(label).and_then(|r| r.layers.as_ref());
        m.push(format!("ir.optimize_s.{label}"), span_s(spans, "ir.optimize", p), "s");
        m.push(format!("expand.s.{label}"), span_s(spans, "expand", p), "s");
        m.push(format!("movement.s.{label}"), span_s(spans, "movement", p), "s");
        m.push(format!("cycle.s.{label}"), span_s(spans, "cycle", p), "s");
        m.push(format!("checker.streams_s.{label}"), span_s(spans, "checker.streams", p), "s");
        m.push(
            format!("checker.stats_s.{label}"),
            span_diff_s(spans, &["checker.schedule"], &["checker.streams"], p),
            "s",
        );
        m.push(format!("cycle.makespan.{label}"), l.map_or(0.0, |l| l.makespan), "cycles");
        m.push(format!("movement.spill_mb.{label}"), l.map_or(0.0, |l| l.spill_bytes / 1e6), "MB");
        m.push(format!("machine.fu_util.{label}"), l.map_or(0.0, |l| l.fu_util), "frac");
    }
}
