//! The traced run: attributes build and request time to the workspace
//! layers by timing calls into each crate's public functions, and reads
//! the program's own obs counters (so it needs the `obs` build).

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use path_separators::api::{Request, Response};
use path_separators::rpc;
use path_separators::LocationService;
use psep_core::strategy::{AutoStrategy, SeparatorStrategy};
use psep_core::wire::AlignedBytes;
use psep_core::{DecompositionParams, DecompositionTree, PathSeparator};
use psep_graph::view::{NodeMask, SubgraphView};
use psep_graph::{Graph, NodeId};
use psep_oracle::{build_oracle, OracleParams};
use psep_routing::{Router, RoutingTables};
use psep_treedec::min_degree_decomposition;

use crate::deploy::{self, service_params, Deployment, Expected, BUILD_THREADS, EPSILON};
use crate::load::{closed_loop, open_loop};
use crate::stats::{median, ns_per_item, quantile};
use crate::{stream, Config, Report};

/// Witness paths timed per repetition of the path micro-benchmarks.
const PATHS_TIMED: usize = 16;
/// Time budget of each micro-benchmark.
const MICRO: Duration = Duration::from_millis(150);

fn counter(name: &str) -> u64 {
    psep_obs::counter(name).get()
}

/// How `AutoStrategy` handled one component, read from the
/// `core.strategy.auto.*` counter deltas around the call (exact only in
/// a one-thread build, where no other call runs in between).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    TreeCenter,
    CenterBag,
    Iterative,
}

struct Call {
    busy: Duration,
    outcome: Outcome,
    /// The component, kept when the treewidth probe ran on it so the
    /// probe can be replayed and timed on its own after the build.
    probed: Option<Vec<NodeId>>,
}

/// `AutoStrategy` with every `separate` call timed and classified.
struct Observed {
    inner: AutoStrategy,
    calls: Mutex<Vec<Call>>,
}

impl SeparatorStrategy for Observed {
    fn separate(&self, g: &Graph, component: &[NodeId]) -> PathSeparator {
        let (tree0, bag0) = (
            counter("core.strategy.auto.tree_center"),
            counter("core.strategy.auto.center_bag"),
        );
        let t = Instant::now();
        let sep = self.inner.separate(g, component);
        let busy = t.elapsed();
        let outcome = if counter("core.strategy.auto.center_bag") > bag0 {
            Outcome::CenterBag
        } else if counter("core.strategy.auto.tree_center") > tree0 {
            Outcome::TreeCenter
        } else {
            Outcome::Iterative
        };
        let probe_ran = outcome == Outcome::CenterBag
            || (outcome == Outcome::Iterative && component.len() <= self.inner.width_probe_limit);
        self.calls
            .lock()
            .expect("no separate call panics while holding the log")
            .push(Call {
                busy,
                outcome,
                probed: probe_ran.then(|| component.to_vec()),
            });
        sep
    }

    fn name(&self) -> &'static str {
        "auto-observed"
    }
}

/// Builds the service stage by stage, as `LocationService::build` does,
/// timing each stage, and seals it.
fn staged_build(g: &Graph, r: &mut Report) -> Result<(Vec<u8>, f64), String> {
    let dijkstras = counter("graph.dijkstra.invocations");
    let relaxed = counter("graph.dijkstra.edges_relaxed");
    let strategy = Observed {
        inner: AutoStrategy::default(),
        calls: Mutex::new(Vec::new()),
    };
    let params = DecompositionParams {
        threads: BUILD_THREADS,
    };

    let t = Instant::now();
    let tree = DecompositionTree::build_with(g, &strategy, &params);
    let decomp_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let oracle = build_oracle(
        g,
        &tree,
        OracleParams {
            epsilon: EPSILON,
            threads: BUILD_THREADS,
        },
    );
    let labels_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tables = RoutingTables::build_with(g, &tree, BUILD_THREADS);
    let tables_s = t.elapsed().as_secs_f64();

    r.metric(
        "graph.dijkstra.invocations",
        (counter("graph.dijkstra.invocations") - dijkstras) as f64,
        "count",
    );
    r.metric(
        "graph.dijkstra.edges_relaxed",
        (counter("graph.dijkstra.edges_relaxed") - relaxed) as f64,
        "count",
    );
    r.metric(
        "oracle.labels.portals",
        oracle.flat_labels().num_portals() as f64,
        "count",
    );
    r.metric(
        "oracle.labels.arena_bytes",
        oracle.flat_labels().heap_bytes() as f64,
        "B",
    );
    r.metric(
        "routing.tables.arena_bytes",
        tables.flat().heap_bytes() as f64,
        "B",
    );

    let router = Router::new(g, tables);
    let svc = LocationService::from_parts(g.clone(), tree, oracle, router)
        .map_err(|e| format!("assembling the staged build: {e}"))?;
    let t = Instant::now();
    let bytes = svc.to_bytes();
    let seal_s = t.elapsed().as_secs_f64();

    let calls = strategy
        .calls
        .into_inner()
        .expect("no separate call panicked");
    let probes: Vec<&[NodeId]> = calls.iter().filter_map(|c| c.probed.as_deref()).collect();
    let useful = calls
        .iter()
        .filter(|c| c.outcome == Outcome::CenterBag)
        .count();
    let mut probe_busy = Duration::ZERO;
    for component in &probes {
        let mask = NodeMask::from_nodes(g.num_nodes(), component.iter().copied());
        let view = SubgraphView::new(g, &mask);
        let t = Instant::now();
        black_box(min_degree_decomposition(&view));
        probe_busy += t.elapsed();
    }
    r.metric("treedec.probe.calls", probes.len() as f64, "count");
    r.metric("treedec.probe.busy_s", probe_busy.as_secs_f64(), "s");
    r.metric(
        "treedec.probe.useful_frac",
        useful as f64 / probes.len().max(1) as f64,
        "ratio",
    );
    r.metric("core.decomp.wall_s", decomp_s, "s");
    r.metric("core.separate.calls", calls.len() as f64, "count");
    r.metric(
        "core.separate.busy_s",
        calls.iter().map(|c| c.busy).sum::<Duration>().as_secs_f64(),
        "s",
    );
    r.metric("oracle.labels.wall_s", labels_s, "s");
    r.metric("routing.tables.wall_s", tables_s, "s");
    r.metric("service.seal_s", seal_s, "s");
    Ok((bytes, decomp_s + labels_s + tables_s + seal_s))
}

/// Bundle → service: zero-copy map, first answer, and the owned decode
/// for comparison.
fn cold_start_layers(buf: &AlignedBytes, exp: &Expected, r: &mut Report) -> Result<(), String> {
    fn map(b: &[u8]) -> Result<LocationService<'_>, String> {
        LocationService::map_bytes(b).map_err(|e| format!("map: {e}"))
    }
    r.metric(
        "service.map_ms",
        ns_per_item(1, MICRO, || {
            black_box(map(buf).is_ok());
        }) / 1e6,
        "ms",
    );
    let (u, v) = exp.pairs[0];
    let mut firsts = Vec::new();
    let start = Instant::now();
    while firsts.len() < 5 || start.elapsed() < MICRO {
        let svc = map(buf)?;
        let t = Instant::now();
        let d = svc.query(u, v);
        firsts.push(t.elapsed().as_nanos() as f64 / 1e3);
        if d != exp.dists[0] {
            return Err("first answer after map differs from the built service".into());
        }
    }
    r.metric("service.first_answer_us", median(&mut firsts), "us");
    r.metric(
        "service.load_ms",
        ns_per_item(1, MICRO, || {
            black_box(LocationService::from_bytes(buf).map(|_| ()).ok());
        }) / 1e6,
        "ms",
    );
    Ok(())
}

/// Join, route, path, `handle`, and codec costs on the served service.
fn request_layers(svc: &LocationService<'_>, exp: &Expected, r: &mut Report) -> f64 {
    let pairs = &exp.pairs;
    let oracle = svc.oracle();
    let (mut scanned, mut unpruned) = (0u64, 0u64);
    for &(u, v) in pairs {
        scanned += oracle.query_with_stats(u, v).1.scanned;
        unpruned += oracle.query_unpruned(u, v).1.scanned;
    }
    r.metric(
        "oracle.join.candidates_per_pair",
        scanned as f64 / pairs.len() as f64,
        "count",
    );
    r.metric(
        "oracle.join.pruned_frac",
        1.0 - scanned as f64 / unpruned.max(1) as f64,
        "ratio",
    );
    r.metric(
        "oracle.join.ns_per_pair",
        ns_per_item(pairs.len(), MICRO, || {
            for &(u, v) in pairs {
                black_box(oracle.query_with_stats(u, v));
            }
        }),
        "ns",
    );

    let router = svc.router();
    let hops: usize = exp.routes.iter().flatten().map(|o| o.hops).sum();
    r.metric(
        "routing.route.ns",
        ns_per_item(pairs.len(), MICRO, || {
            for &(u, t) in pairs {
                let label = router.tables().label(t);
                black_box(router.route(u, t, &label));
            }
        }),
        "ns",
    );
    r.metric(
        "routing.route.hops_per_route",
        hops as f64 / pairs.len() as f64,
        "count",
    );

    let paths = &exp.path_pairs[..PATHS_TIMED.min(exp.paths.len())];
    let (g, tree) = (svc.graph(), svc.tree());
    let dijkstras = counter("graph.dijkstra.invocations");
    let mut nodes = 0;
    for &(u, v) in paths {
        nodes += oracle
            .query_path(g, tree, u, v)
            .map_or(0, |p| p.nodes.len());
    }
    r.metric(
        "oracle.path.dijkstras_per_path",
        (counter("graph.dijkstra.invocations") - dijkstras) as f64 / paths.len() as f64,
        "count",
    );
    r.metric(
        "oracle.path.nodes_per_path",
        nodes as f64 / paths.len() as f64,
        "count",
    );
    r.metric(
        "oracle.path.ns",
        ns_per_item(paths.len(), MICRO, || {
            for &(u, v) in paths {
                black_box(oracle.query_path(g, tree, u, v));
            }
        }),
        "ns",
    );

    let handle = |reqs: &[Request]| {
        ns_per_item(reqs.len(), MICRO, || {
            for req in reqs {
                black_box(svc.handle(req));
            }
        })
    };
    let queries: Vec<Request> = pairs
        .iter()
        .map(|&(u, v)| Request::Query { u, v })
        .collect();
    let routes: Vec<Request> = pairs
        .iter()
        .map(|&(u, t)| Request::Route { u, t })
        .collect();
    let path_reqs: Vec<Request> = paths
        .iter()
        .map(|&(u, v)| Request::QueryPath { u, v })
        .collect();
    let handle_query_ns = handle(&queries);
    r.metric("api.handle.query_ns", handle_query_ns, "ns");
    r.metric("api.handle.route_ns", handle(&routes), "ns");
    r.metric("api.handle.path_ns", handle(&path_reqs), "ns");

    handle_query_ns + codec_layers(exp, &queries, r)
}

/// The `psep-rpc/v1` codec and framing for one `Query` round trip;
/// returns their summed cost in ns.
fn codec_layers(exp: &Expected, queries: &[Request], r: &mut Report) -> f64 {
    let responses: Vec<Response> = exp.dists.iter().map(|&d| Response::Distance(d)).collect();
    let req_payloads: Vec<Vec<u8>> = queries.iter().map(rpc::encode_request).collect();
    let resp_payloads: Vec<Vec<u8>> = responses.iter().map(rpc::encode_response).collect();
    let n = queries.len();
    let encode_request_ns = ns_per_item(n, MICRO, || {
        for q in queries {
            black_box(rpc::encode_request(q));
        }
    });
    let decode_request_ns = ns_per_item(n, MICRO, || {
        for p in &req_payloads {
            black_box(rpc::decode_request(p).ok());
        }
    });
    let encode_response_ns = ns_per_item(n, MICRO, || {
        for resp in &responses {
            black_box(rpc::encode_response(resp));
        }
    });
    let decode_response_ns = ns_per_item(n, MICRO, || {
        for p in &resp_payloads {
            black_box(rpc::decode_response(p).ok());
        }
    });
    let frame_ns = ns_per_item(n, MICRO, || {
        for p in req_payloads.iter().zip(&resp_payloads) {
            for payload in [p.0, p.1] {
                let framed = rpc::frame(payload);
                black_box(rpc::read_frame(&mut &framed[..], rpc::DEFAULT_MAX_FRAME).ok());
            }
        }
    });
    r.metric("rpc.encode_request_ns", encode_request_ns, "ns");
    r.metric("rpc.decode_request_ns", decode_request_ns, "ns");
    r.metric("rpc.encode_response_ns", encode_response_ns, "ns");
    r.metric("rpc.decode_response_ns", decode_response_ns, "ns");
    r.metric("rpc.frame_ns", frame_ns, "ns");
    let batch = crate::deploy::BATCH.min(exp.dists.len());
    let many = rpc::frame(&rpc::encode_response(&Response::Distances(
        exp.dists[..batch].to_vec(),
    )));
    r.metric(
        "rpc.response_bytes_per_pair",
        many.len() as f64 / batch as f64,
        "B",
    );
    encode_request_ns + decode_request_ns + encode_response_ns + decode_response_ns + frame_ns
}

/// `LocationService::build` plus `to_bytes`, as the untraced run times
/// it: the sealed bytes and the seconds taken.
fn timed_build(g: &Graph) -> (Vec<u8>, f64) {
    let t = Instant::now();
    let svc = LocationService::build(g, service_params());
    let bytes = svc.to_bytes();
    let build_s = t.elapsed().as_secs_f64();
    // dropped after timing, as in the untraced run
    drop(svc);
    (bytes, build_s)
}

pub fn run_trace(cfg: &Config) -> Result<Report, String> {
    if !cfg!(feature = "obs") {
        return Err("--mode trace needs the obs build (--features obs)".into());
    }
    psep_obs::set_enabled(true);
    let mut r = Report::default();
    let g = cfg.spec.graph();

    // The first build in a process also grows the heap, so an untimed
    // build goes first. The build journey as the untraced run times it
    // then runs before and after the staged build, and `build_s` is the
    // mean of the two, so a drift of the host's speed cancels.
    drop(LocationService::build(&g, service_params()));
    let (_, before_s) = timed_build(&g);
    let (bytes, attributed_s) = staged_build(&g, &mut r)?;
    let (reference, after_s) = timed_build(&g);
    let build_s = (before_s + after_s) / 2.0;
    if bytes != reference {
        return Err("the staged build seals different bytes than LocationService::build".into());
    }
    drop(reference);
    let unattributed = 1.0 - attributed_s / build_s;
    r.metric("build.unattributed_frac", unattributed, "ratio");
    if unattributed.abs() >= 0.10 {
        return Err(format!(
            "the build layers leave {:.1}% of build_s unattributed (limit 10%)",
            unattributed * 100.0
        ));
    }

    let dep = Deployment::start(&bytes)?;
    let exp = Expected::compute(dep.service(), &cfg.spec, cfg.pool, cfg.path_pool);
    deploy::check_paths(&g, dep.service(), &exp)?;
    deploy::verify_wire(dep.addr, &exp)?;
    eprintln!("verified: staged build == LocationService::build, paths and wire answers match");
    let buf = AlignedBytes::from_slice(&bytes);
    cold_start_layers(&buf, &exp, &mut r)?;
    drop(buf);
    let stages_ns = request_layers(dep.service(), &exp, &mut r);

    let phase = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
    let c = closed_loop(dep.addr, phase(0.15), 1, &stream(&exp, "query"), &exp)?;
    r.tally(c.attempted, c.failed);
    let rtt_us = crate::p50_us(&c);
    let transport_us = rtt_us - stages_ns / 1e3;
    if transport_us < 0.0 {
        return Err(format!(
            "request stages ({:.2} us) exceed the Query round trip ({rtt_us:.2} us)",
            stages_ns / 1e3
        ));
    }
    r.metric("serve.transport_us", transport_us, "us");

    let mut o = open_loop(
        dep.addr,
        crate::REF_RATE,
        phase(0.15),
        &stream(&exp, "query"),
        &exp,
    )?;
    r.tally(o.attempted, o.failed);
    r.metric(
        "loadgen.late_p99_us",
        quantile(&mut o.late_ns, 0.99) as f64 / 1e3,
        "us",
    );
    r.metric("loadgen.backlog_growth", o.backlog_growth, "count");
    r.metric("loadgen.query_p99_us", o.p99() as f64 / 1e3, "us");
    let rate = crate::max_rate_rps(&dep, &exp, phase(0.2), &mut r)?;
    r.metric("loadgen.max_rate_rps", rate, "req/s");

    // the traced half of obs.trace_overhead_frac; run.py runs the
    // untraced half with the obs-off build on the same bundle
    let pairs_per_s = query_many_pairs_per_s(&dep, &exp, phase(0.15), &mut r)?;
    r.metric("obs.traced_query_many_pairs_per_s", pairs_per_s, "pairs/s");
    if let Some(path) = &cfg.bundle {
        std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(r)
}

/// Closed-loop `QueryMany` throughput over the wire, pairs/s.
fn query_many_pairs_per_s(
    dep: &Deployment,
    exp: &Expected,
    duration: Duration,
    r: &mut Report,
) -> Result<f64, String> {
    let c = closed_loop(
        dep.addr,
        duration,
        crate::pass_len(exp, "query_many"),
        &stream(exp, "query_many"),
        exp,
    )?;
    r.tally(c.attempted, c.failed);
    Ok(c.pairs_per_s())
}

/// Serves the bundle file written by the traced run and measures the
/// same closed-loop `QueryMany` phase, after verifying the wire answers
/// against the mapped service in process.
pub fn run_overhead(cfg: &Config) -> Result<Report, String> {
    let path = cfg
        .bundle
        .as_deref()
        .ok_or("--mode overhead needs --bundle")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let dep = Deployment::start(&bytes)?;
    let exp = Expected::compute(dep.service(), &cfg.spec, cfg.pool, cfg.path_pool);
    deploy::verify_wire(dep.addr, &exp)?;
    eprintln!(
        "verified: {} pairs identical over the wire",
        exp.pairs.len()
    );
    let mut r = Report::default();
    let pairs_per_s = query_many_pairs_per_s(
        &dep,
        &exp,
        Duration::from_secs_f64(cfg.seconds * 0.15),
        &mut r,
    )?;
    r.metric(
        "obs.untraced_query_many_pairs_per_s",
        pairs_per_s,
        "pairs/s",
    );
    Ok(r)
}
