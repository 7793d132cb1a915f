//! Runs one workload: set-up, the measured passes, and the traced passes.
//!
//! Every batch runs through `ids_driver` with one worker thread (`jobs = 1`),
//! the default pool mode and the default solver profile: on a two-core
//! machine, two workers made the cold wall time spread by a third between
//! identical runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ids_core::ghost::check_ghost_legality;
use ids_core::pipeline::{MethodTask, PipelineConfig, VcVerdict};
use ids_driver::{verify_selections, verify_tasks, BatchReport, DriverConfig, Selection};
use ids_obs::{EventKind, Lane};
use ids_smt::{SolverStats, TermManager};
use ids_vcgen::{Encoding, VcGen, VerifyOutcome};

use crate::workloads::{Answer, Batch, Registry, Workload};

/// The `verify_selections` arguments of one batch.
pub fn selections<'a>(registry: &'a Registry, batch: &'a Batch) -> Vec<Selection<'a>> {
    batch
        .units
        .iter()
        .map(|u| Selection {
            name: &u.label,
            definition: registry.definition(u.structure),
            methods_src: &u.source,
            methods: u.methods.iter().map(|(m, _)| m.clone()).collect(),
        })
        .collect()
}

/// The driver configuration every batch of a workload runs under.
pub fn driver_config(encoding: Encoding, cache_path: Option<PathBuf>) -> DriverConfig {
    DriverConfig {
        jobs: 1,
        encoding,
        cache_path,
        ..DriverConfig::default()
    }
}

/// Verdict bookkeeping against the known answers.
#[derive(Debug, Default)]
pub struct Score {
    /// Methods attempted.
    pub attempted: usize,
    /// Methods whose verdict was wrong, Unknown, or that errored.
    pub failed: usize,
    /// One line per failed method (first few only).
    pub problems: Vec<String>,
}

impl Score {
    /// Scores one batch report against the batch's known answers.
    ///
    /// `verify_selections` reports methods in selection order. It leaves out
    /// a method whose file failed to load or which failed to prepare, and
    /// lists that failure in `errors` under the selection's name. So the
    /// expected answers and the reports are walked together, unit by unit:
    /// several units of one batch can hold the same method name (the
    /// mutants of one method), and each must be scored against its own
    /// report.
    pub fn add(&mut self, batch: &Batch, report: &BatchReport) {
        let mut reports = report.reports.iter().peekable();
        for unit in &batch.units {
            for (method, answer) in &unit.methods {
                self.attempted += 1;
                let error = report.errors.iter().find(|e| {
                    e.structure == unit.label && (e.method == "*" || &e.method == method)
                });
                let got = match error {
                    Some(e) => Err(e.message.clone()),
                    None => match reports.next_if(|r| &r.method == method) {
                        Some(r) => match r.outcome {
                            VerifyOutcome::Verified { .. } => Ok(Answer::Valid),
                            VerifyOutcome::Refuted { .. } => Ok(Answer::Refuted),
                            VerifyOutcome::Unknown { .. } => Err("Unknown".to_string()),
                        },
                        None => Err("no report".to_string()),
                    },
                };
                if got != Ok(*answer) {
                    self.fail(format!(
                        "{} :: {method}: expected {answer:?}, got {got:?}",
                        unit.label
                    ));
                }
            }
        }
        for stray in reports {
            self.fail(format!(
                "{}: report for {} matches no expected method",
                batch.label, stray.method
            ));
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// Figures of the untraced rounds. Each per-round figure comes from that
/// round's samples alone, so a run's medians do not depend on how many
/// rounds it made (with one round more or less, a tail taken over all
/// samples moved from p89 to p95 and doubled). Times are scaled by the
/// calibration factor of the phase they were taken in (see [`crate::calib`])
/// unless noted.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time of each cold pass: the sum of its batch times.
    pub pass_s: Vec<f64>,
    /// Unscaled wall time of each cold pass.
    pub pass_raw_s: Vec<f64>,
    /// Per round: [`tail`] of the cold pass's fresh SMT query solve times,
    /// unscaled (reported with the per-layer metrics).
    pub vc_tail_ms: Vec<f64>,
    /// Per round: median warm re-verification batch time.
    pub batch_p50_ms: Vec<f64>,
    /// Per round: [`tail`] of the warm re-verification batch times.
    pub batch_tail_ms: Vec<f64>,
    /// The exact counts of each pass, traced ones included.
    pub counts: Vec<PassCounts>,
}

/// Counts of one pass that depend only on its inputs, by metric name.
pub type PassCounts = BTreeMap<&'static str, u64>;

/// Adds the counts of one batch to `counts`.
fn add_batch_counts(counts: &mut PassCounts, report: &BatchReport) {
    let s = &report.stats;
    for (name, n) in [
        ("driver.smt_queries", s.smt_queries as u64),
        ("vcgen.vcs", s.vcs as u64),
        ("smt.decisions", s.solver.sat_decisions),
        ("smt.theory_rounds", s.solver.theory_rounds),
    ] {
        *counts.entry(name).or_default() += n;
    }
}

/// One untraced pass: every batch once through `verify_selections`. Adds
/// the solve times of its fresh SMT queries to `vc_ms` and returns its wall
/// time, each batch's wall time in ms, and its exact counts.
pub fn untraced_pass(
    registry: &Registry,
    workload: &Workload,
    config: &DriverConfig,
    vc_ms: &mut Vec<f64>,
    score: &mut Score,
) -> (f64, Vec<f64>, PassCounts) {
    let mut counts = PassCounts::default();
    let mut batch_ms = Vec::with_capacity(workload.batches.len());
    for batch in &workload.batches {
        let sels = selections(registry, batch);
        let start = Instant::now();
        let report = std::hint::black_box(verify_selections(&sels, config));
        batch_ms.push(start.elapsed().as_secs_f64() * 1e3);
        vc_ms.extend(
            report
                .reports
                .iter()
                .flat_map(|r| r.vc_reports.iter())
                .filter(|v| !v.cached)
                .map(|v| v.wall_time.as_secs_f64() * 1e3),
        );
        add_batch_counts(&mut counts, &report);
        score.add(batch, &report);
    }
    (batch_ms.iter().sum::<f64>() / 1e3, batch_ms, counts)
}

/// Per-layer figures of one traced pass, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Spans the benchmark opens whose self times are reported, with their
/// metric names.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("ivl.parse", "ivl.parse_s"),
    ("ivl.typecheck", "ivl.typecheck_s"),
    ("core.discipline", "core.discipline_s"),
    ("core.expand", "core.expand_s"),
    ("vcgen.generate", "vcgen.generate_s"),
];

/// Counts that must repeat exactly between two passes over the same inputs
/// under `encoding`.
///
/// Under the quantified encoding the solver's effort does not repeat, so
/// SAT decisions and theory rounds are left out: two passes of one seed over
/// the Table-2 methods without `insert_front` took 2,686,857 and 2,754,806
/// decisions, with the same verdicts, queries and VCs, and `append_node`
/// alone took 1,329,643 and 1,160,706.
pub fn exact_counts(encoding: Encoding) -> &'static [&'static str] {
    match encoding {
        Encoding::Decidable => &[
            "smt.decisions",
            "smt.theory_rounds",
            "vcgen.vcs",
            "vcgen.terms",
            "driver.smt_queries",
        ],
        Encoding::Quantified => &["vcgen.vcs", "vcgen.terms", "driver.smt_queries"],
    }
}

/// Runs `f` inside an `ids_obs` span named `name`.
fn timed<T>(name: &'static str, detail: &str, f: impl FnOnce() -> T) -> T {
    let _span = ids_obs::span_with(name, || detail.to_string());
    f()
}

/// Prepares the tasks of one batch the way `verify_selections` does: parse
/// and typecheck each method file as `load_methods` does, then discipline
/// checks, expansion and VC generation per method as `prepare_method_in`
/// does, with a span around each public call. `None` if any step fails.
///
/// `prepare_method_in` times expansion and VC generation as one; the layers
/// are reported apart, so the steps are called one by one here. The
/// self-test `traced_prepare_matches_prepare_method_in` checks that the
/// tasks come out the same as the driver's.
pub fn traced_prepare(
    registry: &Registry,
    batch: &Batch,
    config: PipelineConfig,
) -> Option<Vec<MethodTask>> {
    let mut tasks = Vec::new();
    for unit in &batch.units {
        let ids = registry.definition(unit.structure);
        let parsed = timed("ivl.parse", &unit.label, || {
            ids_ivl::parse_program(&unit.source)
        });
        let mut merged = ids.prelude();
        merged.extend(parsed.ok()?);
        timed("ivl.typecheck", &unit.label, || {
            ids_ivl::check_program(&merged)
        })
        .ok()?;
        for (method, _) in &unit.methods {
            let proc = merged.procedure(method)?.clone();
            let (wellbehaved_violations, ghost_violations) =
                timed("core.discipline", method, || {
                    let wb = ids_core::wellbehaved::check_procedure(&proc);
                    let ghost: Vec<_> = check_ghost_legality(&merged)
                        .into_iter()
                        .filter(|v| &v.procedure == method)
                        .collect();
                    (wb, ghost)
                });
            let start = Instant::now();
            let expanded = timed("core.expand", method, || {
                ids_core::fwyb::expand_program(ids, &merged)
            })
            .ok()?;
            let mut tm = TermManager::new();
            let generated = timed("vcgen.generate", method, || {
                VcGen::new(&expanded, config.encoding).method_vcs(&mut tm, method)
            })
            .ok()?;
            tasks.push(MethodTask {
                structure: ids.name.clone(),
                method: method.clone(),
                tm,
                slice_hints: vec![None; generated.vcs.len()],
                vcs: generated.vcs,
                hypotheses: generated.hypotheses,
                encoding: config.encoding,
                profile: config.profile,
                prepare_time: start.elapsed(),
                loc: ids_ivl::ast::executable_loc(&proc),
                spec: ids_ivl::ast::spec_lines(&proc),
                annotations: ids_ivl::ast::annotation_lines(&proc),
                lc_size: ids.lc_size(),
                wellbehaved_violations,
                ghost_violations,
            });
        }
    }
    Some(tasks)
}

/// Times of the spans of one thread's trace lane, in seconds, by span name.
#[derive(Debug, Default)]
pub struct SpanTimes {
    /// Time from start to end, children included.
    pub total: BTreeMap<&'static str, f64>,
    /// Time not covered by a child span.
    pub self_time: BTreeMap<&'static str, f64>,
    /// Time from the span's start to the start of its first child (the
    /// whole span if it has none).
    pub lead: BTreeMap<&'static str, f64>,
}

impl SpanTimes {
    /// Sums the spans of `lane`, pairing its `Begin` and `End` events.
    pub fn from_lane(lane: &Lane) -> Result<SpanTimes, String> {
        struct Open {
            name: &'static str,
            begin: u64,
            children: u64,
            first_child: Option<u64>,
        }
        let mut out = SpanTimes::default();
        let mut stack: Vec<Open> = Vec::new();
        for e in &lane.events {
            match e.kind {
                EventKind::Begin => {
                    if let Some(parent) = stack.last_mut() {
                        parent.first_child.get_or_insert(e.ts_us);
                    }
                    stack.push(Open {
                        name: e.name,
                        begin: e.ts_us,
                        children: 0,
                        first_child: None,
                    });
                }
                EventKind::End => {
                    let open = stack
                        .pop()
                        .filter(|o| o.name == e.name)
                        .ok_or_else(|| format!("unbalanced trace: end of {}", e.name))?;
                    let total = e.ts_us - open.begin;
                    if let Some(parent) = stack.last_mut() {
                        parent.children += total;
                    }
                    let s = |us: u64| us as f64 * 1e-6;
                    *out.total.entry(open.name).or_default() += s(total);
                    *out.self_time.entry(open.name).or_default() += s(total - open.children);
                    *out.lead.entry(open.name).or_default() +=
                        s(open.first_child.unwrap_or(e.ts_us) - open.begin);
                }
                EventKind::Instant => {}
            }
        }
        match stack.last() {
            Some(open) => Err(format!("unbalanced trace: {} never ends", open.name)),
            None => Ok(out),
        }
    }

    fn get(map: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
        map.get(name).copied().unwrap_or(0.0)
    }
}

/// One traced pass: the work of an untraced pass, split at public calls so
/// that each layer gets a span, with `ids_obs` tracing on. The program's
/// own spans (the driver's `resolve`, `solve` and `repair` stages, the
/// solver's phases) are recorded too. Returns its wall time, its exact
/// counts, its per-layer figures and the trace lane of the calling thread.
///
/// Traced passes must not run concurrently in one process: `ids_obs`
/// tracing is process-wide.
pub fn traced_pass(
    registry: &Registry,
    workload: &Workload,
    config: &DriverConfig,
    score: &mut Score,
) -> Result<(f64, PassCounts, Layers, Lane), String> {
    let pipeline = PipelineConfig {
        encoding: config.encoding,
        profile: config.solver_profile,
        ..PipelineConfig::default()
    };
    let mut solver = SolverStats::default();
    let (mut solve, mut valid_solve, mut refuted_solve) = (0.0, 0.0, 0.0);
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut pass_counts = PassCounts::default();
    // Worker threads, and other threads of a test binary, record lanes of
    // their own; this one is told apart by its label.
    let label = format!("perfbench-{:?}", std::thread::current().id());
    ids_obs::set_thread_label(label.clone());
    ids_obs::trace_start();
    let pass_start = Instant::now();
    for batch in &workload.batches {
        let Some(tasks) = traced_prepare(registry, batch, pipeline) else {
            score.add(batch, &BatchReport::default());
            continue;
        };
        for task in &tasks {
            *counts.entry("vcgen.vcs").or_default() += task.num_vcs() as f64;
            *counts.entry("vcgen.hypotheses").or_default() += task.hypotheses.len() as f64;
            *counts.entry("vcgen.terms").or_default() += task.tm.len() as f64;
        }
        let report = timed("driver.verify_tasks", &batch.label, || {
            verify_tasks(tasks, config)
        });
        for v in report.reports.iter().flat_map(|r| r.vc_reports.iter()) {
            if v.cached {
                continue;
            }
            let t = v.wall_time.as_secs_f64();
            solve += t;
            match v.verdict {
                VcVerdict::Valid => valid_solve += t,
                VcVerdict::Refuted => refuted_solve += t,
                VcVerdict::Unknown => {}
            }
            solver.merge(&v.solver);
        }
        add_batch_counts(&mut pass_counts, &report);
        let stats = &report.stats;
        for (name, n) in [
            ("driver.smt_queries", stats.smt_queries),
            ("driver.cache_hits", stats.cache_hits),
            ("driver.cancellations", stats.cancellations),
            ("driver.skipped_vcs", stats.skipped_vcs),
        ] {
            *counts.entry(name).or_default() += n as f64;
        }
        score.add(batch, &report);
    }
    let wall = pass_start.elapsed().as_secs_f64();
    let lane = ids_obs::trace_stop()
        .into_iter()
        .find(|l| l.label == label)
        .ok_or("the traced pass recorded no spans")?;
    let spans = SpanTimes::from_lane(&lane)?;

    let mut layers: Layers = counts;
    for &(span, metric) in LAYER_SPANS {
        layers.insert(metric, SpanTimes::get(&spans.self_time, span));
    }
    // `verify_tasks` loads the cache file, then opens its `resolve` stage,
    // which hashes every VC and looks each key up in the cache.
    let verify_tasks_s = SpanTimes::get(&spans.total, "driver.verify_tasks");
    let cache_load = SpanTimes::get(&spans.lead, "driver.verify_tasks");
    let hash = SpanTimes::get(&spans.total, "resolve");
    layers.insert("driver.cache_load_s", cache_load);
    layers.insert("driver.hash_s", hash);
    layers.insert(
        "driver.overhead_s",
        verify_tasks_s - cache_load - hash - solve,
    );
    let attributed: f64 = spans.self_time.values().sum();
    layers.insert("bench.unattributed_s", wall - attributed);

    let secs = |d: Duration| d.as_secs_f64();
    let phases = secs(solver.lower_time)
        + secs(solver.sat_time)
        + secs(solver.euf_time)
        + secs(solver.simplex_time);
    layers.insert("smt.lower_s", secs(solver.lower_time));
    layers.insert("smt.sat_s", secs(solver.sat_time));
    layers.insert("smt.euf_s", secs(solver.euf_time));
    layers.insert("smt.simplex_s", secs(solver.simplex_time));
    layers.insert("smt.unattributed_s", solve - phases);
    layers.insert("smt.valid_solve_s", valid_solve);
    layers.insert("smt.refuted_solve_s", refuted_solve);
    layers.insert("smt.decisions", solver.sat_decisions as f64);
    layers.insert("smt.conflicts", solver.sat_conflicts as f64);
    layers.insert("smt.propagations", solver.sat_propagations as f64);
    layers.insert("smt.theory_rounds", solver.theory_rounds as f64);
    layers.insert("smt.pivots", solver.pivots as f64);
    layers.insert(
        "smt.decisions_per_round",
        ratio(solver.sat_decisions, solver.theory_rounds),
    );
    layers.insert(
        "smt.prelude_reuse_ratio",
        ratio(
            solver.prelude_reused,
            solver.prelude_reused + solver.prelude_lowered,
        ),
    );
    Ok((wall, pass_counts, layers, lane))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of `values`: the highest-ranked sample with at least ten
/// samples above it, capped at p95 and never below the upper median. Above
/// p95, thousands of millisecond batches on a shared VM measure scheduler
/// hiccups rather than the program: the p99.9 of 7,000 warm batches spread
/// 27% across five seeds. Returns the value, its percentile (share
/// of samples at or below it) and the sample count.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let p95 = (n * 95).div_ceil(100) - 1;
    let rank = n.saturating_sub(11).min(p95).max(n / 2);
    (v[rank], 100.0 * (rank + 1) as f64 / n as f64, n)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A scratch directory for this process under `root`, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `root/<pid>`.
    pub fn create(root: &Path) -> std::io::Result<WorkDir> {
        let dir = root.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
