//! The first two journeys — graph → sealed bundle, bundle → first
//! answer — ending in a mapped bundle served by a loopback daemon whose
//! answers have been verified against the in-process service.

use std::net::SocketAddr;
use std::ptr::NonNull;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use path_separators::api::{Request, Response};
use path_separators::{LocationService, ServiceParams};
use psep_core::wire::AlignedBytes;
use psep_graph::{Graph, NodeId, Weight};
use psep_oracle::WitnessPath;
use psep_routing::RouteOutcome;
use psep_serve::{Client, ServeConfig, Server, ShutdownHandle};
use psep_testkit::PathChecker;

use crate::workload::Spec;

/// The oracle's approximation parameter for every workload.
pub const EPSILON: f64 = 0.25;
/// Build threads: one, so build times do not depend on the scheduler.
pub const BUILD_THREADS: usize = 1;
/// Pairs per `QueryMany`/`RouteMany` request.
pub const BATCH: usize = 256;
/// Pairs per `QueryPathMany` request.
pub const PATH_BATCH: usize = 16;

pub fn service_params() -> ServiceParams {
    ServiceParams {
        epsilon: EPSILON,
        threads: BUILD_THREADS,
    }
}

/// The pair pools and their in-process answers, which every wire answer
/// must equal bit for bit.
pub struct Expected {
    pub pairs: Vec<(NodeId, NodeId)>,
    pub dists: Vec<Option<Weight>>,
    pub routes: Vec<Option<RouteOutcome>>,
    pub path_pairs: Vec<(NodeId, NodeId)>,
    pub paths: Vec<Option<WitnessPath>>,
}

impl Expected {
    pub fn compute(svc: &LocationService<'_>, spec: &Spec, pool: usize, path_pool: usize) -> Self {
        let n = svc.num_nodes();
        let pairs = spec.pairs(n, pool);
        let path_pairs = spec.path_pairs(n, path_pool);
        Expected {
            dists: svc.query_many(&pairs),
            routes: svc.route_many(&pairs),
            paths: svc.query_path_many(&path_pairs),
            pairs,
            path_pairs,
        }
    }

    /// `true` when `resp` is the exact answer to `req`, a request built
    /// over this pool at pair offset `at`.
    pub fn matches(&self, req: &Request, at: usize, resp: &Response) -> bool {
        match (req, resp) {
            (Request::Query { .. }, Response::Distance(d)) => *d == self.dists[at],
            (Request::Route { .. }, Response::Route(r)) => *r == self.routes[at],
            (Request::QueryPath { .. }, Response::Path(p)) => *p == self.paths[at],
            (Request::QueryMany { pairs }, Response::Distances(ds)) => {
                ds[..] == self.dists[at..at + pairs.len()]
            }
            (Request::RouteMany { pairs }, Response::Routes(rs)) => {
                rs[..] == self.routes[at..at + pairs.len()]
            }
            (Request::QueryPathMany { pairs }, Response::Paths(ps)) => {
                ps[..] == self.paths[at..at + pairs.len()]
            }
            _ => false,
        }
    }
}

/// The one CPU every thread of the benchmark runs on, the daemon's
/// included. On a 2-vCPU virtual machine two busy vCPUs slow each other
/// (a spin loop runs 20-35% slower while the other vCPU is busy), and a
/// request that crosses CPUs waits for the host to wake the halted vCPU;
/// both vary with the host's load, so two-CPU placements made serve
/// figures differ by up to 2× between runs. The serve metrics therefore
/// include the client's share of each request: encoding, decoding and
/// checking, a few percent of a join-bound batch.
pub const CPU: usize = 0;

/// Restricts the calling thread (and threads it spawns later) to `cpu`;
/// a no-op where there is no such CPU.
pub fn pin_current_thread(cpu: usize) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mask: u64 = 1 << cpu;
        // SAFETY: pid 0 is the calling thread, and `mask` is a live
        // 8-byte CPU set for the duration of the call. Failure (no such
        // CPU, or one outside the process's cgroup) leaves the affinity
        // unchanged, which is harmless.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpu;
}

/// A mapped bundle served on an ephemeral loopback port. Dropping it
/// shuts the daemon down and frees the bundle buffer.
pub struct Deployment {
    pub addr: SocketAddr,
    server: Option<(ShutdownHandle, JoinHandle<std::io::Result<()>>)>,
    /// Borrows `*buf`; always dropped before `buf` is freed.
    svc: Option<Arc<LocationService<'static>>>,
    buf: NonNull<AlignedBytes>,
}

impl Deployment {
    /// Maps `bytes` zero-copy and starts a daemon on it.
    pub fn start(bytes: &[u8]) -> Result<Self, String> {
        let buf = NonNull::from(Box::leak(Box::new(AlignedBytes::from_slice(bytes))));
        // SAFETY: `buf` came from `Box::leak`, so it is valid and never
        // moves until `Drop` frees it, and `Drop` frees it only after
        // every `Arc` of the service borrowing it is gone (the server is
        // joined first, then `Arc::try_unwrap` proves ours is the last).
        let data: &'static [u8] = unsafe { buf.as_ref() }.as_slice();
        let mut dep = Deployment {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            server: None,
            svc: None,
            buf,
        };
        let svc = Arc::new(LocationService::map_bytes(data).map_err(|e| format!("map: {e}"))?);
        if !svc.is_borrowed() {
            return Err("the mapped bundle copied its arenas instead of borrowing".into());
        }
        let server = Server::bind(Arc::clone(&svc), "127.0.0.1:0", ServeConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        dep.svc = Some(svc);
        let (addr, handle, runner) = server.spawn();
        dep.addr = addr;
        dep.server = Some((handle, runner));
        Ok(dep)
    }

    /// The served service (mapped, borrowing the bundle buffer).
    pub fn service(&self) -> &LocationService<'static> {
        self.svc
            .as_deref()
            .expect("a started deployment holds its service")
    }

    /// The sealed bundle bytes being served.
    pub fn bundle(&self) -> &[u8] {
        // SAFETY: `buf` stays valid until `Drop`.
        unsafe { self.buf.as_ref() }.as_slice()
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Some((handle, runner)) = self.server.take() {
            handle.shutdown();
            let _ = runner.join();
        }
        let last = match self.svc.take() {
            Some(svc) => Arc::try_unwrap(svc).is_ok(),
            None => true,
        };
        if last {
            // SAFETY: nothing borrows the buffer any more (see `start`).
            drop(unsafe { Box::from_raw(self.buf.as_ptr()) });
        }
        // otherwise a borrower escaped: leak the buffer rather than free
        // memory it may still read
    }
}

/// One set-up: generate → build → seal → map → first answer → verify
/// in process → serve → verify over the wire.
pub struct Setup {
    pub deployment: Deployment,
    pub expected: Expected,
    pub graph: Graph,
    /// Wall time of the whole set-up.
    pub setup_s: f64,
    /// `LocationService::build` plus `to_bytes`.
    pub build_s: f64,
}

pub fn set_up(spec: &Spec, pool: usize, path_pool: usize) -> Result<Setup, String> {
    let t0 = Instant::now();
    let graph = spec.graph();

    let tb = Instant::now();
    let owned = LocationService::build(&graph, service_params());
    let bytes = owned.to_bytes();
    let build_s = tb.elapsed().as_secs_f64();

    let deployment = Deployment::start(&bytes)?;
    let mapped = deployment.service();
    let expected = Expected::compute(&owned, spec, pool, path_pool);
    let (u, v) = expected.pairs[0];
    if mapped.query(u, v) != expected.dists[0] {
        return Err("first answer of the mapped bundle differs from the built service".into());
    }
    check_paths(&graph, &owned, &expected)?;
    drop(owned);
    verify_mapped(mapped, &bytes, &expected)?;
    verify_wire(deployment.addr, &expected)?;
    eprintln!(
        "verified: mapped == owned service, {} paths pass PathChecker, {} pairs identical over the wire",
        expected.paths.len(),
        expected.pairs.len()
    );
    Ok(Setup {
        deployment,
        expected,
        graph,
        setup_s: t0.elapsed().as_secs_f64(),
        build_s,
    })
}

/// The mapped service answers exactly as the owned one and re-seals to
/// the same bytes.
fn verify_mapped(mapped: &LocationService<'_>, bytes: &[u8], exp: &Expected) -> Result<(), String> {
    if mapped.query_many(&exp.pairs) != exp.dists {
        return Err("mapped query_many differs from the owned service".into());
    }
    if mapped.route_many(&exp.pairs) != exp.routes {
        return Err("mapped route_many differs from the owned service".into());
    }
    if mapped.query_path_many(&exp.path_pairs) != exp.paths {
        return Err("mapped query_path_many differs from the owned service".into());
    }
    if mapped.to_bytes() != bytes {
        return Err("the mapped service re-seals to different bytes".into());
    }
    Ok(())
}

/// Every witness path in the pool is a real walk within the stretch
/// bound whose weight is the served distance.
pub fn check_paths(g: &Graph, svc: &LocationService<'_>, exp: &Expected) -> Result<(), String> {
    let checker = PathChecker::new(g, EPSILON);
    for (&(u, v), path) in exp.path_pairs.iter().zip(&exp.paths) {
        checker.check(u, v, path.as_ref())?;
        if path.as_ref().map(|p| p.weight) != svc.query(u, v) {
            return Err(format!(
                "path weight for {u:?}->{v:?} is not the served distance"
            ));
        }
    }
    Ok(())
}

/// Every pool answer over `psep-rpc/v1` equals the in-process answer,
/// batched and single.
pub fn verify_wire(addr: SocketAddr, exp: &Expected) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut call = |req: Request, at: usize| -> Result<(), String> {
        let resp = client
            .call(&req)
            .map_err(|e| format!("{}: {e}", req.op()))?;
        if exp.matches(&req, at, &resp) {
            Ok(())
        } else {
            Err(format!(
                "wire {} at pair {at} differs from in-process",
                req.op()
            ))
        }
    };
    for at in (0..exp.pairs.len()).step_by(BATCH) {
        let pairs = exp.pairs[at..(at + BATCH).min(exp.pairs.len())].to_vec();
        call(
            Request::QueryMany {
                pairs: pairs.clone(),
            },
            at,
        )?;
        call(Request::RouteMany { pairs }, at)?;
    }
    for at in (0..exp.paths.len()).step_by(PATH_BATCH) {
        let pairs = exp.path_pairs[at..(at + PATH_BATCH).min(exp.paths.len())].to_vec();
        call(Request::QueryPathMany { pairs }, at)?;
    }
    for at in 0..8.min(exp.paths.len()) {
        let (u, v) = exp.pairs[at];
        call(Request::Query { u, v }, at)?;
        call(Request::Route { u, t: v }, at)?;
        let (u, v) = exp.path_pairs[at];
        call(Request::QueryPath { u, v }, at)?;
    }
    Ok(())
}

/// Cold start: aligned bundle bytes → `map_bytes` → first verified
/// answer, median milliseconds over repetitions filling `budget`.
pub fn cold_start_ms(dep: &Deployment, exp: &Expected, budget: Duration) -> Result<f64, String> {
    let bytes = dep.bundle();
    let (u, v) = exp.pairs[0];
    let mut ok = true;
    let ns = crate::stats::ns_per_item(1, budget, || {
        let svc = LocationService::map_bytes(std::hint::black_box(bytes));
        ok &= matches!(svc.map(|s| s.query(u, v)), Ok(d) if d == exp.dists[0]);
    });
    if ok {
        Ok(ns / 1e6)
    } else {
        Err("cold-start answer differs from the built service".into())
    }
}
