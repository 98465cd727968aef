//! `psep-perfbench`: one workload, one seed, one run of the three
//! journeys a user of the location service sees — graph → sealed bundle,
//! bundle → first answer, request → response over `psep-rpc/v1`.
//!
//! `perfbench/run.py` builds this program and passes it a workload's
//! parameters from `perfbench/workloads.json`. Modes:
//!
//! * `--mode e2e` (obs-off build): end-to-end metrics;
//! * `--mode trace` (`--features obs` build): per-layer metrics, timed
//!   around calls into each crate's public functions;
//! * `--mode overhead`: closed-loop `QueryMany` throughput on a bundle
//!   file, run by both builds to price the tracing.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A verification failure exits
//! non-zero without printing it.

mod deploy;
mod layers;
mod load;
mod stats;
mod workload;

use std::collections::HashMap;
use std::time::Duration;

use path_separators::api::Request;

use deploy::{Deployment, Expected, Setup, BATCH, PATH_BATCH};
use load::{closed_loop, open_loop, ClosedLoop, OpenLoop};
use stats::quantile;
use workload::{Family, Spec};

/// Parsed command line.
pub struct Config {
    pub spec: Spec,
    pub seconds: f64,
    /// Size of the pair pool requests cycle through.
    pub pool: usize,
    /// Size of the witness-path pool (fixed per workload).
    pub path_pool: usize,
    pub setup_reps: usize,
    /// Bundle file: written by `trace`, read by `overhead`.
    pub bundle: Option<String>,
}

/// Open-loop rate of the latency metrics, requests/s: a light load on
/// every workload.
pub const REF_RATE: f64 = 20_000.0;
/// Fixed rates tried in order for `loadgen.max_rate_rps`, from the reference
/// rate up; every workload saturates between the first and the last.
pub const LADDER: [f64; 5] = [20e3, 40e3, 80e3, 160e3, 320e3];
/// Windowed-median 99th-percentile latency limit of `loadgen.max_rate_rps`.
pub const LIMIT: Duration = Duration::from_millis(5);
/// Seed of the graph and of the witness-path pool, the same on every
/// run of a workload; `--seed` draws the request pairs.
pub const GRAPH_SEED: u64 = 1;

fn main() {
    // every thread spawned later inherits the CPU
    deploy::pin_current_thread(deploy::CPU);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|(mode, cfg)| match mode.as_str() {
        "e2e" => run_e2e(&cfg),
        "trace" => layers::run_trace(&cfg),
        "overhead" => layers::run_overhead(&cfg),
        m => Err(format!("unknown --mode {m:?} (e2e, trace, overhead)")),
    });
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("psep-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut flags = HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    let cfg = Config {
        spec: Spec {
            family: Family::parse(get("family")?)?,
            nodes: num("nodes")? as usize,
            graph_seed: GRAPH_SEED,
            seed: get("seed")?
                .parse::<u64>()
                .map_err(|e| format!("--seed: {e}"))?,
        },
        seconds: num("seconds")?,
        pool: (num("pool")? as usize).div_ceil(BATCH).max(1) * BATCH,
        path_pool: (num("path-pool")? as usize).div_ceil(PATH_BATCH).max(1) * PATH_BATCH,
        setup_reps: (num("setup-reps")? as usize).max(1),
        bundle: flags.get("bundle").cloned(),
    };
    Ok((get("mode")?.clone(), cfg))
}

/// Metrics plus the request tally of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; report them as null so the
                // runner rejects the run
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs set-up `reps` times (each from graph generation to a verified
/// daemon) and keeps the last deployment.
pub fn set_up_repeatedly(cfg: &Config) -> Result<(Setup, Vec<f64>, Vec<f64>), String> {
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut last: Option<Setup> = None;
    for _ in 0..cfg.setup_reps {
        // stop the previous daemon before building the next one
        drop(last.take());
        let s = deploy::set_up(&cfg.spec, cfg.pool, cfg.path_pool)?;
        setups.push(s.setup_s);
        builds.push(s.build_s);
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), setups, builds))
}

fn run_e2e(cfg: &Config) -> Result<Report, String> {
    let (setup, mut setups, mut builds) = set_up_repeatedly(cfg)?;
    let dep = &setup.deployment;
    let exp = &setup.expected;
    let n = setup.graph.num_nodes();
    let mut r = Report::default();
    r.metric("setup_s", stats::median(&mut setups), "s");
    r.metric("build_s", stats::median(&mut builds), "s");
    r.metric(
        "bundle_bytes_per_node",
        dep.bundle().len() as f64 / n as f64,
        "B",
    );
    let cold = deploy::cold_start_ms(dep, exp, Duration::from_millis(300))?;
    r.metric("coldstart_ms", cold, "ms");

    // A shared host runs a VM's threads slower, and stalls them for
    // milliseconds, in spells of seconds. So every phase runs in ROUNDS
    // slices spread over the whole measurement, round-robin with the
    // other phases, and each metric is the median over its slices: a
    // slow spell sets a minority of them.
    // A closed-loop slice runs whole passes over its pool, so every
    // slice does the same mix of work.
    std::thread::sleep(SETTLE);
    let slice = |share: f64| Duration::from_secs_f64(cfg.seconds * share / ROUNDS as f64);
    let mut open: [Vec<OpenLoop>; 2] = Default::default();
    let mut closed: [Vec<ClosedLoop>; 4] = Default::default();
    for _ in 0..ROUNDS {
        for (slices, op) in open.iter_mut().zip(["query", "route"]) {
            // continue through the pool where the previous slice stopped
            let (make, next) = (
                stream(exp, op),
                slices.iter().map(|o| o.attempted).sum::<u64>(),
            );
            let o = open_loop(
                dep.addr,
                REF_RATE,
                slice(0.2),
                &|i| make(i + next as usize),
                exp,
            )?;
            slices.push(o);
        }
        for (slices, op) in closed.iter_mut().zip(CLOSED_OPS) {
            let c = closed_loop(
                dep.addr,
                slice(0.15),
                pass_len(exp, op),
                &stream(exp, op),
                exp,
            )?;
            slices.push(c);
        }
    }

    for (slices, (p50, p90)) in open.iter().zip([
        ("query_p50_us", "query_p90_us"),
        ("route_p50_us", "route_p90_us"),
    ]) {
        let mut per_slice: Vec<f64> = slices.iter().map(|o| o.rtt(0.5) as f64 / 1e3).collect();
        r.metric(p50, stats::median(&mut per_slice), "us");
        let mut per_window: Vec<u64> = slices
            .iter()
            .flat_map(|o| o.window_quantiles(0.9))
            .collect();
        r.metric(p90, quantile(&mut per_window, 0.5) as f64 / 1e3, "us");
        for o in slices {
            r.tally(o.attempted, o.failed);
        }
    }
    for ((slices, op), (name, unit)) in closed.iter().zip(CLOSED_OPS).zip([
        ("path_p50_us", "us"),
        ("query_many_pairs_per_s", "pairs/s"),
        ("route_many_pairs_per_s", "pairs/s"),
        ("paths_per_s", "paths/s"),
    ]) {
        let pass = pass_len(exp, op);
        let mut per_request = request_medians_ns(slices, pass);
        let value = if unit == "us" {
            stats::median(&mut per_request) / 1e3
        } else {
            // every slice ran whole passes of equal-size requests
            let c = &slices[0];
            let pairs_per_pass = (c.pairs * pass as u64 / c.attempted) as f64;
            pairs_per_pass / (per_request.iter().sum::<f64>() / 1e9)
        };
        r.metric(name, value, unit);
    }
    for c in closed.iter().flatten() {
        r.tally(c.attempted, c.failed);
    }

    r.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    r.metric(
        "answered_frac",
        1.0 - r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    Ok(r)
}

/// Slices each timed phase is split into.
const ROUNDS: usize = 10;
/// Climbs of the rate ladder per traced run; `loadgen.max_rate_rps` is
/// their median.
const CLIMBS: usize = 3;
/// Idle time between set-up and the first timed phase.
const SETTLE: Duration = Duration::from_secs(2);
/// The closed-loop phases, in round order.
const CLOSED_OPS: [&str; 4] = ["query_path", "query_many", "route_many", "query_path_many"];

/// Each request's median latency, ns, over all its repetitions in
/// closed-loop slices that each ran whole passes over a pool of `pass`
/// requests. A slow spell of the host sets a minority of each request's
/// repetitions. The closed-loop metrics are read off one pass at these
/// latencies: `path_p50_us` is their median (witness paths differ 100×
/// in cost, so the median of one slice would follow the spell), and a
/// throughput is a pass's pairs over their sum.
fn request_medians_ns(slices: &[ClosedLoop], pass: usize) -> Vec<f64> {
    (0..pass)
        .map(|j| {
            let mut ns: Vec<f64> = slices
                .iter()
                .flat_map(|c| c.latency_ns.iter().skip(j).step_by(pass))
                .map(|&v| v as f64)
                .collect();
            stats::median(&mut ns)
        })
        .collect()
}

/// Median latency of a closed-loop phase, µs.
pub fn p50_us(c: &ClosedLoop) -> f64 {
    let mut ns: Vec<f64> = c.latency_ns.iter().map(|&v| v as f64).collect();
    stats::median(&mut ns) / 1e3
}

/// Requests of kind `op` (see [`stream`]) in one pass over its pool.
pub fn pass_len(exp: &Expected, op: &str) -> usize {
    match op {
        "query_many" | "route_many" => exp.pairs.len() / BATCH,
        "query_path_many" => exp.paths.len() / PATH_BATCH,
        "query_path" => exp.paths.len(),
        _ => exp.pairs.len(),
    }
}

/// Requests of kind `op` over the expected pools — `query`, `route`,
/// `query_path`, the batches `query_many`, `route_many`,
/// `query_path_many`, or `mixed` (alternating `query` and `route`) —
/// with the pool offset each answer is checked at. Batches are
/// consecutive pool windows; each pool's size is a multiple of its batch
/// size.
pub fn stream<'a>(
    exp: &'a Expected,
    op: &'static str,
) -> impl Fn(usize) -> (Request, usize) + Sync + 'a {
    let (size, len) = match op {
        "query_many" | "route_many" => (BATCH, exp.pairs.len()),
        "query_path_many" => (PATH_BATCH, exp.paths.len()),
        "query_path" => (1, exp.paths.len()),
        _ => (1, exp.pairs.len()),
    };
    let pool = if op.starts_with("query_path") {
        &exp.path_pairs
    } else {
        &exp.pairs
    };
    move |i| {
        let at = (i * size) % len;
        let (u, v) = pool[at];
        let pairs = || pool[at..at + size].to_vec();
        let req = match op {
            "query" => Request::Query { u, v },
            "route" => Request::Route { u, t: v },
            "query_path" => Request::QueryPath { u, v },
            "query_many" => Request::QueryMany { pairs: pairs() },
            "route_many" => Request::RouteMany { pairs: pairs() },
            "query_path_many" => Request::QueryPathMany { pairs: pairs() },
            _ if i % 2 == 0 => Request::Query { u, v },
            _ => Request::Route { u, t: v },
        };
        (req, at)
    }
}

/// The highest rate at which the mixed `Query`/`Route` stream keeps its
/// windowed-median p99 within the limit without a growing backlog: the
/// median of [`CLIMBS`] climbs sharing `budget`, each up the fixed ladder
/// to the first rung that fails and then bisecting (in log space)
/// between it and the last rung that held.
pub fn max_rate_rps(
    dep: &Deployment,
    exp: &Expected,
    budget: Duration,
    r: &mut Report,
) -> Result<f64, String> {
    let mut rates = Vec::new();
    for _ in 0..CLIMBS {
        let (rate, attempted, failed) = climb(dep, exp, budget / CLIMBS as u32)?;
        r.tally(attempted, failed);
        rates.push(rate);
    }
    Ok(stats::median(&mut rates))
}

/// One climb of [`max_rate_rps`]: the rate and the attempted/failed
/// tally.
fn climb(dep: &Deployment, exp: &Expected, budget: Duration) -> Result<(f64, u64, u64), String> {
    const REFINE: usize = 4;
    // climb, refine, and the retries of failing probes
    let share = budget / (LADDER.len() + 2 * REFINE) as u32;
    let mixed = stream(exp, "mixed");
    let (mut attempted, mut failed) = (0, 0);
    // A rung holds if either of two probes holds: a spell of the host
    // can fail one probe's windowed median, while a rate past
    // saturation fails both.
    let mut probe = |rate: f64| -> Result<bool, String> {
        // long enough for the minimum count of tail windows at every rate
        let windows = (load::MIN_WINDOWS * load::window_len(0.99)) as f64;
        let len = share.max(Duration::from_secs_f64(windows / rate));
        for _ in 0..2 {
            let o = open_loop(dep.addr, rate, len, &mixed, exp)?;
            attempted += o.attempted;
            failed += o.failed;
            if o.sustained(rate, LIMIT) {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let mut held = 0.0;
    let mut broke = None;
    for rate in LADDER {
        if probe(rate)? {
            held = rate;
        } else {
            broke = Some(rate);
            break;
        }
    }
    if let Some(mut hi) = broke.filter(|_| held > 0.0) {
        for _ in 0..REFINE {
            let mid = (held * hi).sqrt();
            if probe(mid)? {
                held = mid;
            } else {
                hi = mid;
            }
        }
    }
    Ok((held, attempted, failed))
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
