//! The load generator: open-loop streams on a schedule and closed-loop
//! phases, each over one `psep-rpc/v1` connection (one writer and one
//! reader thread for the open loop, one thread for the closed loop).
//! The server answers a connection's frames in order, so the reader
//! matches the `i`-th response to the `i`-th request.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use path_separators::api::{Request, Response};
use path_separators::rpc::{self, DEFAULT_MAX_FRAME};
use psep_serve::Client;

use crate::deploy::Expected;
use crate::stats::{median, quantile};

/// How long the reader waits for a response before counting the rest
/// of the stream as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Builds the `i`-th request of a stream and reports the pool offset
/// its answer is checked against.
pub type MakeRequest<'a> = &'a (dyn Fn(usize) -> (Request, usize) + Sync);

/// One open-loop stream at a fixed rate.
pub struct OpenLoop {
    /// Round trip of each answered request, from its scheduled send.
    pub rtt_ns: Vec<u64>,
    /// How late the generator sent each request.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Median backlog (due minus answered requests) over the last fifth
    /// of the schedule, minus the median over its second fifth.
    pub backlog_growth: f64,
}

/// Samples beyond the quantile in each window of the windowed tails
/// (see [`OpenLoop::window_quantiles`]).
const BEYOND: f64 = 10.0;
/// Fewest windows a ladder probe's windowed p99 is taken over.
pub const MIN_WINDOWS: usize = 5;

/// Requests per window of the windowed `q`-quantile: ten beyond it, so
/// 100 for the p90 and 1,000 for the p99.
pub fn window_len(q: f64) -> usize {
    (BEYOND / (1.0 - q)).round() as usize
}

impl OpenLoop {
    /// A quantile of the round trips.
    pub fn rtt(&self, q: f64) -> u64 {
        quantile(&mut self.rtt_ns.clone(), q)
    }

    /// The `q`-quantile of the round trips in each window of
    /// [`window_len`]`(q)` consecutive requests.
    pub fn window_quantiles(&self, q: f64) -> Vec<u64> {
        let windows = (self.rtt_ns.len() / window_len(q)).max(1);
        let len = self.rtt_ns.len().div_ceil(windows).max(1);
        self.rtt_ns
            .chunks(len)
            .map(|w| quantile(&mut w.to_vec(), q))
            .collect()
    }

    /// The windowed-median 99th percentile: the median over windows of
    /// each window's p99. A shared host stalls a thread for 0.5-10 ms
    /// several times a second, in spells of a few seconds, and a stall
    /// sets the tail of the windows it lands in; the median follows the
    /// windows the host left alone, while a slowdown or overload of the
    /// program that reaches half the windows raises it.
    pub fn p99(&self) -> u64 {
        quantile(&mut self.window_quantiles(0.99), 0.5)
    }

    /// Met `limit` at the 99th percentile without a growing backlog:
    /// what is left over at the end drains within the limit.
    pub fn sustained(&self, rate: f64, limit: Duration) -> bool {
        self.failed == 0
            && self.p99() <= limit.as_nanos() as u64
            && self.backlog_growth <= (rate * limit.as_secs_f64()).max(1.0)
    }
}

/// Sends `rate` requests per second for `duration`, each due at its
/// scheduled time whatever the state of earlier ones.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    duration: Duration,
    make: MakeRequest<'_>,
    exp: &Expected,
) -> Result<OpenLoop, String> {
    let n = ((rate * duration.as_secs_f64()) as usize).max(1);
    let interval = 1e9 / rate;
    let due = |i: usize| Duration::from_nanos((i as f64 * interval) as u64);
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut write_half = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    // the daemon polls for new connections: start the clock only once
    // this one is accepted and answering
    rpc::write_request(&mut write_half, &Request::Ping).map_err(|e| e.to_string())?;
    match rpc::read_response(&mut reader, DEFAULT_MAX_FRAME) {
        Ok(Some(Response::Pong)) => {}
        other => return Err(format!("open-loop ping: {other:?}")),
    }
    let start = Instant::now() + Duration::from_millis(2);

    let mut recv_ns = Vec::with_capacity(n);
    let mut rtt_ns = Vec::with_capacity(n);
    let mut failed = 0u64;
    let late_ns = std::thread::scope(|s| {
        let writer = s.spawn(move || -> Result<Vec<u64>, String> {
            precise_sleeps();
            let mut w = BufWriter::with_capacity(1 << 16, write_half);
            let mut late = Vec::with_capacity(n);
            let mut unflushed = 0;
            for i in 0..n {
                let at = start + due(i);
                if Instant::now() < at {
                    w.flush().map_err(|e| e.to_string())?;
                    unflushed = 0;
                    sleep_until(at);
                }
                late.push(at.elapsed().as_nanos() as u64);
                let (req, _) = make(i);
                rpc::write_request(&mut w, &req).map_err(|e| e.to_string())?;
                unflushed += 1;
                if unflushed == 32 {
                    w.flush().map_err(|e| e.to_string())?;
                    unflushed = 0;
                }
            }
            w.flush().map_err(|e| e.to_string())?;
            Ok(late)
        });
        for i in 0..n {
            match rpc::read_response(&mut reader, DEFAULT_MAX_FRAME) {
                Ok(Some(resp)) => {
                    let now = start.elapsed();
                    recv_ns.push(now.as_nanos() as u64);
                    rtt_ns.push(now.saturating_sub(due(i)).as_nanos() as u64);
                    let (req, at) = make(i);
                    if !exp.matches(&req, at, &resp) {
                        failed += 1;
                    }
                }
                _ => {
                    failed += (n - i) as u64;
                    // unblock a writer stuck on a full socket
                    let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
        }
        writer.join().expect("the writer thread does not panic")
    });
    let late_ns = match late_ns {
        Ok(late) => late,
        // the reader already counted the lost requests
        Err(_) if failed > 0 => Vec::new(),
        Err(e) => return Err(format!("open-loop writer: {e}")),
    };
    let backlog_growth = backlog_growth(&recv_ns, n, interval);
    Ok(OpenLoop {
        rtt_ns,
        late_ns,
        attempted: n as u64,
        failed,
        backlog_growth,
    })
}

/// Backlog (requests due but not yet answered) sampled at 100 points of
/// the schedule; the median of the last 20 minus the median of points
/// 20..40. A backlog that grows raises every late point; a stall raises
/// only the points it covers.
fn backlog_growth(recv_ns: &[u64], n: usize, interval: f64) -> f64 {
    let span = n as f64 * interval;
    let backlog = |k: usize| {
        let t = span * k as f64 / 100.0;
        let due = ((t / interval) as usize + 1).min(n);
        let answered = recv_ns.partition_point(|&r| (r as f64) <= t);
        due as f64 - answered as f64
    };
    let middle = |ks: std::ops::Range<usize>| median(&mut ks.map(backlog).collect::<Vec<_>>());
    middle(80..100) - middle(20..40)
}

/// One closed-loop phase: the next request goes out when the previous
/// answer is in.
pub struct ClosedLoop {
    pub latency_ns: Vec<u64>,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Pairs carried by all requests sent.
    pub pairs: u64,
}

impl ClosedLoop {
    /// Pairs answered per second of the phase.
    pub fn pairs_per_s(&self) -> f64 {
        self.pairs as f64 / self.elapsed_s
    }
}

/// Sends requests back to back over one connection, each after the
/// previous answer, for `duration` and then up to a multiple of `pass`
/// requests.
pub fn closed_loop(
    addr: SocketAddr,
    duration: Duration,
    pass: usize,
    make: MakeRequest<'_>,
    exp: &Expected,
) -> Result<ClosedLoop, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    match client.call(&Request::Ping) {
        Ok(Response::Pong) => {}
        other => return Err(format!("closed-loop ping: {other:?}")),
    }
    let mut out = ClosedLoop {
        latency_ns: Vec::new(),
        elapsed_s: 0.0,
        attempted: 0,
        failed: 0,
        pairs: 0,
    };
    let start = Instant::now();
    let mut i = 0;
    while out.attempted == 0
        || start.elapsed() < duration
        || !out.attempted.is_multiple_of(pass.max(1) as u64)
    {
        let (req, at) = make(i);
        i += 1;
        let t = Instant::now();
        let resp = client.call(&req);
        out.latency_ns.push(t.elapsed().as_nanos() as u64);
        out.attempted += 1;
        out.pairs += req.pair_count() as u64;
        match resp {
            Ok(resp) if exp.matches(&req, at, &resp) => {}
            Ok(_) => out.failed += 1,
            Err(_) => {
                out.failed += 1;
                client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Sleeps until `at`: the kernel sleep for all but the last stretch,
/// then yields until due, so the CPU is awake to send on time and the
/// daemon and the reader run meanwhile.
fn sleep_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(20);
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > SPIN + SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Asks the kernel for 1 µs timer slack on this thread (the 50 µs
/// default would make every scheduled send late by that much).
#[cfg(target_os = "linux")]
fn precise_sleeps() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of this process; the result is advisory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
    }
}

#[cfg(not(target_os = "linux"))]
fn precise_sleeps() {}
