//! Command-line entry point of the benchmark; see the library docs.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ids_perfbench::calib::Sampler;
use ids_perfbench::run::{
    driver_config, exact_counts, median, peak_rss_mb, tail, traced_pass, untraced_pass, Layers,
    Samples, Score, WorkDir,
};
use ids_perfbench::workloads::{build, Registry, WORKLOADS};

/// Building the registry and the workload takes milliseconds, so it is
/// repeated for at least this long, and at least [`SETUP_MIN_REPEATS`]
/// times, and the median reported. Over a window this long the calibration
/// sampler takes a dozen timings.
const SETUP_MIN_S: f64 = 3.0;

/// The fewest set-ups a run times.
const SETUP_MIN_REPEATS: usize = 21;

/// A run skips its remaining planned rounds once another round would end
/// past this many times `--seconds` (a much slower build or machine than
/// the nominal pass times assume).
const MAX_OVERRUN: f64 = 1.5;

/// Warm re-verification passes after each cold pass: they give
/// `batch_p50_ms` and `batch_tail_ms` hundreds of samples at a few per cent
/// of the cold pass's time.
const REVERIFY_PASSES: usize = 20;

/// Where the VC cache and the span dump go, relative to the working
/// directory.
const WORK_ROOT: &str = ".bench_work";

const FLAGS: &[&str] = &["--workload", "--seed", "--seconds", "--trace"];

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if FLAGS.contains(&flag.as_str()) => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown or incomplete argument {pair:?}")),
        }
    }
    let get = |flag: &str| {
        flags
            .get(flag)
            .copied()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = match get("--seconds")?.parse() {
        Ok(s @ 1..=600) => s,
        _ => return Err("--seconds must be a whole number from 1 to 600".into()),
    };
    let trace = match flags.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `{"value": v, "unit": u}` entries, in the given order.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_ratio") || name.ends_with("_per_round") {
        "ratio"
    } else {
        "count"
    }
}

/// Pins the calling thread to the CPU it is running on; threads it spawns
/// afterwards inherit the pin. Returns that CPU, or `None` if it could not.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: a bit mask over 1024 CPUs.
    let mut mask = [0u8; 128];
    *mask.get_mut(cpu / 8)? |= 1 << (cpu % 8);
    // SAFETY: `mask` is an initialized `cpu_set_t` of the length passed, and
    // it outlives the call; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

fn bench(opts: &Options) -> Result<String, String> {
    // The sampler must share the measured thread's CPU: the speed of the two
    // CPUs drifts independently.
    match pin_to_current_cpu() {
        Some(cpu) => println!("# pinned to cpu {cpu}, with the calibration sampler"),
        None => println!("# not pinned: calibration samples another cpu's speed"),
    }
    let sampler = Sampler::start();
    let run_start = Instant::now();

    // ------------------------------------------------------------- set-up
    let mut setup_s = Vec::new();
    let setup_start = Instant::now();
    let (registry, workload) = loop {
        let start = Instant::now();
        let registry = Registry::load();
        let workload = build(&opts.workload, opts.seed, &registry)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if setup_s.len() >= SETUP_MIN_REPEATS && setup_start.elapsed().as_secs_f64() >= SETUP_MIN_S
        {
            break (registry, workload);
        }
    };
    let setup_factor = sampler.factor(setup_start, Instant::now());
    let setup = median(&setup_s) * setup_factor;
    println!(
        "# set-up: median of {} builds {:.4} ms unscaled (min {:.4}), scale factor {setup_factor:.4}",
        setup_s.len(),
        median(&setup_s) * 1e3,
        setup_s.iter().copied().fold(f64::INFINITY, f64::min) * 1e3
    );
    let work = WorkDir::create(Path::new(WORK_ROOT))
        .map_err(|e| format!("cannot create {WORK_ROOT}: {e}"))?;
    let cache = work.0.join("vc.cache");
    let config = driver_config(workload.encoding, Some(cache.clone()));
    let exact = exact_counts(workload.encoding);
    // A cold pass starts without a cache file and leaves one behind.
    let clear_cache = || match std::fs::remove_file(&cache) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", cache.display()))
        }
        _ => Ok(()),
    };

    // ---------------------------------------------------------- measure
    let mut score = Score::default();
    let mut samples = Samples::default();
    let mut trace_overhead_pct = Vec::new();
    let mut layer_runs: Vec<Layers> = Vec::new();
    let mut last_trace = None;
    // A traced round is an untraced pass plus a traced one.
    let per_round = workload.nominal_round_s * if opts.trace { 2.0 } else { 1.0 };
    let planned = (opts.seconds as f64 / per_round).round().max(1.0) as usize;
    let start = Instant::now();
    let mut tail_notes = Vec::new();
    for round in 1..=planned {
        clear_cache()?;
        let mut vc_ms = Vec::new();
        let cold_start = Instant::now();
        let (wall, _, counts) =
            untraced_pass(&registry, &workload, &config, &mut vc_ms, &mut score);
        samples
            .pass_s
            .push(wall * sampler.factor(cold_start, Instant::now()));
        samples.pass_raw_s.push(wall);
        samples.counts.push(counts);
        let (vc_tail, vc_pct, vc_n) = tail(&vc_ms);
        samples.vc_tail_ms.push(vc_tail);
        tail_notes = vec![format!(
            "smt.vc_tail_ms is p{vc_pct:.1} of {vc_n} fresh SMT queries"
        )];
        if opts.trace {
            clear_cache()?;
            let (traced, counts, layers, lane) =
                traced_pass(&registry, &workload, &config, &mut score)?;
            trace_overhead_pct.push(100.0 * (traced / wall - 1.0));
            samples.counts.push(counts);
            layer_runs.push(layers);
            last_trace = Some(lane);
        } else {
            // Warm re-verification: every VC is answered from the cache the
            // cold pass just wrote, so no fresh query is made.
            let mut batch_ms = Vec::new();
            let warm_start = Instant::now();
            for _ in 0..REVERIFY_PASSES {
                let (_, ms, _) =
                    untraced_pass(&registry, &workload, &config, &mut Vec::new(), &mut score);
                batch_ms.extend(ms);
            }
            let f = sampler.factor(warm_start, Instant::now());
            let (batch_tail, batch_pct, batch_n) = tail(&batch_ms);
            samples.batch_p50_ms.push(median(&batch_ms) * f);
            samples.batch_tail_ms.push(batch_tail * f);
            tail_notes.push(format!(
                "batch_tail_ms is p{batch_pct:.1} of {batch_n} warm batches"
            ));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed * (round + 1) as f64 / round as f64;
        if round < planned && next_end > MAX_OVERRUN * opts.seconds as f64 {
            println!("# stopped after {round} of {planned} planned rounds: over time");
            break;
        }
    }

    let ratio = score.failed as f64 / score.attempted as f64;
    println!(
        "# {} seed={} passes={} batches/pass={} verdict_error_ratio={} ({}/{})",
        workload.name,
        opts.seed,
        samples.pass_s.len(),
        workload.batches.len(),
        ratio,
        score.failed,
        score.attempted
    );
    let secs = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# cold pass wall (s), scaled: {}", secs(&samples.pass_s));
    println!(
        "# cold pass wall (s), unscaled: {}",
        secs(&samples.pass_raw_s)
    );
    let run_factor = sampler.factor(run_start, Instant::now());
    println!(
        "# run scale factor {run_factor:.4} from {} kernel timings",
        sampler.timings()
    );
    for p in &score.problems {
        println!("# wrong verdict: {p}");
    }
    let mut correct = score.failed == 0;
    for name in samples.counts[0].keys().filter(|n| exact.contains(n)) {
        let values: Vec<u64> = samples.counts.iter().map(|c| c[name]).collect();
        if values.iter().any(|&v| v != values[0]) {
            println!("# {name} differs between passes: {values:?}");
            correct = false;
        }
    }
    println!(
        "# per round, {}; tails and the batch median are medians over rounds",
        tail_notes.join(", ")
    );
    let metrics = if opts.trace {
        let mut metrics = vec![("smt.vc_tail_ms", median(&samples.vc_tail_ms), "ms")];
        for &name in layer_runs[0].keys() {
            let values: Vec<f64> = layer_runs.iter().map(|l| l[name]).collect();
            if exact.contains(&name) && values.iter().any(|&v| v != values[0]) {
                println!("# {name} differs between traced passes: {values:?}");
                correct = false;
            }
            metrics.push((name, median(&values), layer_unit(name)));
        }
        metrics.push(("bench.trace_overhead_pct", median(&trace_overhead_pct), "%"));
        if let Some(lane) = last_trace {
            let path = Path::new(WORK_ROOT)
                .join(format!("trace-{}-seed{}.json", workload.name, opts.seed));
            std::fs::write(&path, ids_obs::chrome_trace_json(&[lane]))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!(
                "# spans of the last traced pass (Chrome trace): {}",
                path.display()
            );
        }
        metrics_json(&metrics)?
    } else {
        metrics_json(&[
            ("wall_s", median(&samples.pass_s), "s"),
            ("batch_p50_ms", median(&samples.batch_p50_ms), "ms"),
            ("batch_tail_ms", median(&samples.batch_tail_ms), "ms"),
            ("setup_s", setup, "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ])?
    };
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        score.attempted, score.failed
    ))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match bench(&opts) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
