//! `serve_sql` and `serve_ask`: open-loop load on an in-process server.
//!
//! The server runs 2 workers behind a `UnixServer`. The load comes from
//! this process over one unix-socket connection: one sender thread (the
//! caller) keeps an absolute-rate schedule, one receiver thread timestamps
//! answers. Rates climb a fixed ladder; between rungs the benchmark waits
//! until every request is answered, so each rung starts with no backlog.

use crate::compose::{self, Cell, Counters};
use crate::schedule::{send_offsets_ns, slo_rung, windowed, RungOutcome, Slo};
use crate::trace::{Rollup, Tracer};
use crate::{digest, median_s, peak_rss_kb, Args, Layers, Outcome};
use snails_bench::Percentiles;
use snails_data::SnailsDatabase;
use snails_engine::{ExecLimits, ExecOptions};
use snails_llm::generate::mix_seed;
use snails_llm::{ModelKind, SchemaView, Workflow};
use snails_naturalness::category::SchemaVariant;
use snails_serve::protocol::{encode_request, encode_response, fnv1a};
use snails_serve::tenant::rows_response;
use snails_serve::{
    FrameReader, Message, Request, Response, ServeConfig, ServeError, Server, TenantSpec,
    UnixServer,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server worker threads (sized for a 2-core host).
const WORKERS: usize = 2;
/// Full set-ups per run; the set-up figure is their median.
const SETUPS: usize = 5;
/// Tenant namespaces; each owns its plan cache.
const TENANTS: [&str; 2] = ["t0", "t1"];
/// Admission queue depth: deep enough that the ladder never sheds, so
/// overload shows as backlog and latency, and every answer is comparable.
const QUEUE_DEPTH: usize = 1 << 20;
/// How long to wait for the answers still owed after a rung's last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Requests are due this long after a rung starts, so the first is on time.
const LEAD_NS: u64 = 2_000_000;

/// A serve workload's fixed ladder of absolute rates and its limits.
struct Ladder {
    /// (offered rate in requests per second, share of the run's seconds),
    /// ascending by rate.
    rungs: &'static [(u64, u64)],
    /// The rung whose latency is reported.
    nominal: usize,
    slo: Slo,
}

fn ladder(workload: &str) -> Ladder {
    match workload {
        "serve_sql" => Ladder {
            rungs: &[(500, 17), (1000, 2), (10000, 1)],
            nominal: 0,
            slo: Slo {
                p99_limit_ns: 500_000_000,
                lag_limit_ns: 50_000_000,
            },
        },
        _ => Ladder {
            rungs: &[(150, 1), (300, 8), (3000, 1)],
            nominal: 1,
            slo: Slo {
                p99_limit_ns: 500_000_000,
                lag_limit_ns: 100_000_000,
            },
        },
    }
}

fn is_sql(workload: &str) -> bool {
    workload == "serve_sql"
}

/// The request universe: every gold pair of every database.
struct Mix {
    dbs: Vec<Arc<SnailsDatabase>>,
    /// (database index, question index) for every gold pair.
    pairs: Vec<(usize, usize)>,
}

impl Mix {
    fn new(dbs: Vec<Arc<SnailsDatabase>>) -> Mix {
        let pairs = dbs
            .iter()
            .enumerate()
            .flat_map(|(di, db)| (0..db.questions.len()).map(move |qi| (di, qi)))
            .collect();
        Mix { dbs, pairs }
    }

    fn make(&self, sql: bool, tag: u64, tenant: &str, pair: usize, model: u8) -> Request {
        let (di, qi) = self.pairs[pair];
        let db = &self.dbs[di];
        let gold = &db.questions[qi];
        if sql {
            Request::Sql {
                tag,
                tenant: tenant.to_owned(),
                database: db.spec.name.to_owned(),
                sql: gold.sql.clone(),
            }
        } else {
            Request::Ask {
                tag,
                tenant: tenant.to_owned(),
                database: db.spec.name.to_owned(),
                question_id: gold.id as u32,
                model,
            }
        }
    }

    /// Every (tenant, gold pair, model) the workload can send, once. `Sql`
    /// requests ignore the model, so they have one combination per pair.
    fn combos(&self, workload: &str) -> Vec<(usize, usize, u8)> {
        let models = if is_sql(workload) {
            1
        } else {
            ModelKind::ALL.len() as u8
        };
        (0..TENANTS.len())
            .flat_map(|t| {
                (0..self.pairs.len()).flat_map(move |p| (0..models).map(move |m| (t, p, m)))
            })
            .collect()
    }

    /// Rung `rung`'s `n` requests: the workload's combinations dealt from
    /// decks shuffled by the seed, so every combination is sent equally
    /// often and only the order depends on the seed.
    fn rung(&self, workload: &str, seed: u64, rung: usize, n: usize) -> Vec<Request> {
        let combos = self.combos(workload);
        let mut out = Vec::with_capacity(n);
        for cycle in 0.. {
            let mut deck = combos.clone();
            let deck_seed = mix_seed(&["perfbench", workload], &[seed, rung as u64, cycle]);
            for i in (1..deck.len()).rev() {
                let j = mix_seed(&["deal"], &[deck_seed, i as u64]) % (i as u64 + 1);
                deck.swap(i, j as usize);
            }
            for (t, p, m) in deck.into_iter().take(n - out.len()) {
                out.push(self.make(
                    is_sql(workload),
                    rung_tag(rung, out.len()),
                    TENANTS[t],
                    p,
                    m,
                ));
            }
            if out.len() == n {
                break;
            }
        }
        out
    }

    /// One pass over the distinct statements or questions, per tenant.
    fn warmup(&self, workload: &str) -> Vec<Request> {
        let mut out = Vec::new();
        for tenant in TENANTS {
            for pair in 0..self.pairs.len() {
                let model = (pair % ModelKind::ALL.len()) as u8;
                out.push(self.make(is_sql(workload), out.len() as u64, tenant, pair, model));
            }
        }
        out
    }
}

/// Ladder request tags: rung in the high half (from 1), index in the low.
fn rung_tag(rung: usize, i: usize) -> u64 {
    ((rung as u64 + 1) << 32) | i as u64
}

/// One answer as the receiver saw it.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    tag: u64,
    at_ns: u64,
    hash: u64,
    failed: bool,
}

/// The response with its tag zeroed: equal requests have equal answers
/// apart from the echoed tag, so one replay per distinct request checks
/// every answer to it.
fn untagged_hash(resp: &Response) -> u64 {
    let mut r = resp.clone();
    match &mut r {
        Response::Pong { tag }
        | Response::Rows { tag, .. }
        | Response::Answer { tag, .. }
        | Response::Err { tag, .. } => *tag = 0,
        Response::StatsReport { .. } | Response::Goodbye { .. } => {}
    }
    fnv1a(&encode_response(&r))
}

/// Shed, `Internal`, `Transient` and protocol replies are failed operations;
/// typed engine errors are answers.
fn is_failure(resp: &Response) -> bool {
    matches!(
        resp,
        Response::Err {
            error: ServeError::Overloaded { .. }
                | ServeError::Draining
                | ServeError::Internal
                | ServeError::Transient(_)
                | ServeError::Protocol(_),
            ..
        }
    )
}

/// The load generator's connection: the caller sends, a thread receives.
struct Conn {
    stream: UnixStream,
    origin: Instant,
    sent: u64,
    received: Arc<AtomicU64>,
    arrivals: Arc<Mutex<Vec<Arrival>>>,
    stop: Arc<AtomicBool>,
    receiver: Option<JoinHandle<Result<(), String>>>,
}

/// What the sender saw while offering one phase of load.
struct Sends {
    due_ns: Vec<u64>,
    sent_ns: Vec<u64>,
    queue_len: Vec<u64>,
    backlog_start: u64,
    backlog_end: u64,
}

impl Conn {
    fn connect(path: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        let read = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        read.set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let origin = Instant::now();
        let received = Arc::new(AtomicU64::new(0));
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let receiver = {
            let (received, arrivals, stop) = (received.clone(), arrivals.clone(), stop.clone());
            std::thread::spawn(move || receive(read, origin, &received, &arrivals, &stop))
        };
        Ok(Conn {
            stream,
            origin,
            sent: 0,
            received,
            arrivals,
            stop,
            receiver: Some(receiver),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn outstanding(&self) -> u64 {
        self.sent - self.received.load(Ordering::SeqCst)
    }

    /// Send `frames[i]` at `offsets[i]` after the phase starts, on time or
    /// as soon after as the sender can. With `probe`, sample the server's
    /// queue length at each send.
    fn offer(
        &mut self,
        frames: &[Vec<u8>],
        offsets: &[u64],
        probe: Option<&Server>,
    ) -> Result<Sends, String> {
        let start = self.now_ns() + LEAD_NS;
        let n = frames.len();
        let mut s = Sends {
            due_ns: offsets.iter().map(|o| start + o).collect(),
            sent_ns: vec![0; n],
            queue_len: Vec::new(),
            backlog_start: self.outstanding(),
            backlog_end: 0,
        };
        let mut buf = Vec::new();
        let mut i = 0;
        while i < n {
            let now = self.now_ns();
            if s.due_ns[i] > now {
                std::thread::sleep(Duration::from_nanos(s.due_ns[i] - now));
            }
            let now = self.now_ns();
            let first = i;
            buf.clear();
            while i < n && s.due_ns[i] <= now {
                buf.extend_from_slice(&frames[i]);
                if let Some(server) = probe {
                    s.queue_len.push(server.queue_len() as u64);
                }
                i += 1;
            }
            self.stream
                .write_all(&buf)
                .map_err(|e| format!("send: {e}"))?;
            let at = self.now_ns();
            s.sent_ns[first..i].fill(at);
            self.sent += (i - first) as u64;
        }
        s.backlog_end = self.outstanding();
        Ok(s)
    }

    /// Wait until every sent request is answered; false on timeout.
    fn drain(&self) -> bool {
        let started = Instant::now();
        while self.outstanding() > 0 {
            if started.elapsed() > DRAIN_TIMEOUT {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    fn take_arrivals(&self) -> Vec<Arrival> {
        std::mem::take(&mut *self.arrivals.lock().expect("receiver panicked"))
    }

    fn close(mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        match self.receiver.take().map(JoinHandle::join) {
            Some(Ok(r)) => r,
            Some(Err(_)) => Err("receiver thread panicked".to_owned()),
            None => Ok(()),
        }
    }
}

fn receive(
    mut stream: UnixStream,
    origin: Instant,
    received: &AtomicU64,
    arrivals: &Mutex<Vec<Arrival>>,
    stop: &AtomicBool,
) -> Result<(), String> {
    let mut reader = FrameReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut batch = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => reader.extend(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                return if stop.load(Ordering::SeqCst) {
                    Ok(())
                } else {
                    Err(format!("receive: {e}"))
                }
            }
        }
        let at_ns = origin.elapsed().as_nanos() as u64;
        loop {
            match reader.next_message() {
                Ok(Some(Message::Response(resp))) => batch.push(Arrival {
                    tag: resp.tag(),
                    at_ns,
                    hash: untagged_hash(&resp),
                    failed: is_failure(&resp),
                }),
                Ok(Some(Message::Request(_))) => return Err("server sent a request".to_owned()),
                Ok(None) => break,
                Err(e) => return Err(format!("bad frame from server: {e}")),
            }
        }
        let n = batch.len() as u64;
        arrivals.lock().expect("sender panicked").append(&mut batch);
        received.fetch_add(n, Ordering::SeqCst);
    }
}

/// A started server, its socket front end, and the generator's connection.
struct Stack {
    mix: Mix,
    server: Arc<Server>,
    unix: UnixServer,
    conn: Conn,
}

impl Stack {
    fn close(self) -> Result<(), String> {
        let Stack {
            conn,
            mut unix,
            server,
            ..
        } = self;
        let r = conn.close();
        unix.stop();
        server.shutdown();
        r
    }
}

/// Set-up phases, ns.
struct SetupTimes {
    build_ns: u64,
    start_ns: u64,
    total_ns: u64,
}

fn socket_path(k: usize) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("serve-{}-{k}.sock", std::process::id()))
}

/// Build the databases, start the server, bind its socket, connect, and
/// warm up with one pass over the distinct statements or questions.
fn setup(args: &Args, k: usize, out: &mut Outcome) -> Result<(Stack, SetupTimes), String> {
    let t0 = Instant::now();
    let dbs: Vec<Arc<SnailsDatabase>> = snails_data::DATABASE_NAMES
        .iter()
        .map(|n| Arc::new(snails_data::build_database(n)))
        .collect();
    let build_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let cfg = ServeConfig {
        seed: args.seed,
        queue_depth: QUEUE_DEPTH,
        threads: WORKERS,
        ..ServeConfig::default()
    };
    let tenants = TENANTS
        .iter()
        .map(|t| TenantSpec::full(t, dbs.clone()))
        .collect();
    let server = Server::start(cfg, tenants);
    let start_ns = t1.elapsed().as_nanos() as u64;
    let path = socket_path(k);
    std::fs::create_dir_all(".bench_run").map_err(|e| format!("create .bench_run: {e}"))?;
    let unix = UnixServer::bind(&path, Arc::clone(&server)).map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::connect(&path)?;
    let mix = Mix::new(dbs);
    let warm: Vec<Vec<u8>> = mix
        .warmup(&args.workload)
        .iter()
        .map(encode_request)
        .collect();
    conn.offer(&warm, &vec![0; warm.len()], None)?;
    let answered = conn.drain();
    let arrivals = conn.take_arrivals();
    let failed =
        arrivals.iter().filter(|a| a.failed).count() as u64 + (warm.len() - arrivals.len()) as u64;
    let total_ns = t0.elapsed().as_nanos() as u64;
    println!(
        "phase setup{k} ops={} ops_failed={failed} setup_s={:.3}",
        warm.len(),
        total_ns as f64 / 1e9
    );
    out.attempted += warm.len() as u64;
    out.failed += failed;
    let stack = Stack {
        mix,
        server,
        unix,
        conn,
    };
    if !answered {
        stack.close()?;
        return Err("warm-up answers never arrived".to_owned());
    }
    Ok((
        stack,
        SetupTimes {
            build_ns,
            start_ns,
            total_ns,
        },
    ))
}

/// Set up `SETUPS` times, keeping the last stack.
fn setups(args: &Args, out: &mut Outcome) -> Result<(Stack, Vec<SetupTimes>), String> {
    let mut times = Vec::new();
    let mut last: Option<Stack> = None;
    for k in 0..SETUPS {
        if let Some(s) = last.take() {
            s.close()?;
        }
        let (s, t) = setup(args, k, out)?;
        times.push(t);
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// One rung's requests, answers and verdict.
struct Rung {
    requests: Vec<Request>,
    arrivals: Vec<Option<Arrival>>,
    outcome: RungOutcome,
    queue_len: Vec<u64>,
}

/// Offer every rung of the ladder in turn.
fn run_ladder(
    args: &Args,
    stack: &mut Stack,
    ld: &Ladder,
    probe: bool,
) -> Result<Vec<Rung>, String> {
    let shares: u64 = ld.rungs.iter().map(|(_, share)| share).sum();
    let mut rungs = Vec::new();
    for (r, &(rate, share)) in ld.rungs.iter().enumerate() {
        let offsets = send_offsets_ns(rate, args.seconds * 1000 * share / shares);
        let requests = stack.mix.rung(&args.workload, args.seed, r, offsets.len());
        let frames: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
        let sends = stack
            .conn
            .offer(&frames, &offsets, probe.then_some(&*stack.server))?;
        stack.conn.drain();
        let mut arrivals = vec![None; requests.len()];
        for a in stack.conn.take_arrivals() {
            let i = (a.tag & 0xffff_ffff) as usize;
            if a.tag >> 32 == r as u64 + 1 && i < arrivals.len() {
                arrivals[i] = Some(a);
            }
        }
        let deck = stack.mix.combos(&args.workload).len();
        let outcome = judge(rate, &sends, &arrivals, &ld.slo, deck);
        println!(
            "rung {r} rate={rate}/s sent={} ops_failed={} p50_ms={:.3} p99_ms={:.3} \
             lag_ms_p99={:.3} backlog={}->{} achieved_rps={:.1} valid={} pass={}",
            outcome.sent,
            outcome.failed,
            outcome.latency.p50 as f64 / 1e6,
            outcome.latency.p99 as f64 / 1e6,
            outcome.lag_p99_ns as f64 / 1e6,
            outcome.backlog_start,
            outcome.backlog_end,
            outcome.achieved_rps,
            outcome.valid(&ld.slo),
            outcome.passes(&ld.slo)
        );
        rungs.push(Rung {
            requests,
            arrivals,
            outcome,
            queue_len: sends.queue_len,
        });
    }
    Ok(rungs)
}

/// Latency from each request's scheduled send. A failed or unanswered
/// request counts as missing the limit. Latency windows hold one deck
/// each, so every window sees the same request mix in another order.
fn judge(
    rate: u64,
    s: &Sends,
    arrivals: &[Option<Arrival>],
    slo: &Slo,
    deck: usize,
) -> RungOutcome {
    let miss = slo.p99_limit_ns + 1;
    let mut latency = Vec::with_capacity(arrivals.len());
    let mut failed = 0;
    let mut last = 0;
    for (i, a) in arrivals.iter().enumerate() {
        match a {
            Some(a) if !a.failed => {
                latency.push(a.at_ns.saturating_sub(s.due_ns[i]));
                last = last.max(a.at_ns);
            }
            Some(a) => {
                failed += 1;
                latency.push(a.at_ns.saturating_sub(s.due_ns[i]).max(miss));
            }
            None => {
                failed += 1;
                latency.push(miss);
            }
        }
    }
    let mut lag: Vec<u64> = s
        .sent_ns
        .iter()
        .zip(&s.due_ns)
        .map(|(a, d)| a - d)
        .collect();
    let answered = (arrivals.len() as u64).saturating_sub(failed);
    let span_ns = last
        .saturating_sub(s.due_ns.first().copied().unwrap_or(0))
        .max(1);
    RungOutcome {
        rate,
        sent: arrivals.len() as u64,
        failed,
        windowed: windowed(&latency, deck),
        latency: Percentiles::of(&mut latency),
        lag_p99_ns: Percentiles::of(&mut lag).p99,
        backlog_start: s.backlog_start,
        backlog_end: s.backlog_end,
        achieved_rps: answered as f64 / (span_ns as f64 / 1e9),
    }
}

fn ladder_digest(rungs: &[Rung]) -> u64 {
    let answers = rungs
        .iter()
        .flat_map(|r| r.arrivals.iter().flatten().map(|a| (a.tag, a.hash)));
    digest::responses(answers.collect())
}

/// `req` with its tag zeroed, encoded: the key of a distinct request.
fn request_key(req: &Request) -> Vec<u8> {
    let mut r = req.clone();
    if let Request::Sql { tag, .. } | Request::Ask { tag, .. } = &mut r {
        *tag = 0;
    }
    encode_request(&r)
}

/// Replay each distinct ladder request through `Server::execute` (on
/// `WORKERS` threads) and compare every answer that came over the wire.
fn check_by_replay(server: &Server, rungs: &[Rung], out: &mut Outcome) {
    let mut distinct: BTreeMap<Vec<u8>, &Request> = BTreeMap::new();
    for r in rungs {
        for req in &r.requests {
            distinct.entry(request_key(req)).or_insert(req);
        }
    }
    let todo: Vec<(&Vec<u8>, &&Request)> = distinct.iter().collect();
    let chunk = todo.len().div_ceil(WORKERS).max(1);
    let expected: BTreeMap<&Vec<u8>, u64> = std::thread::scope(|s| {
        let handles: Vec<_> = todo
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(key, req)| (*key, untagged_hash(&server.execute(req))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut wrong = 0;
    for r in rungs {
        for (req, a) in r.requests.iter().zip(&r.arrivals) {
            if a.is_none_or(|a| expected[&request_key(req)] != a.hash) {
                wrong += 1;
            }
        }
    }
    println!("phase serial_replay ops={} ops_failed=0", todo.len());
    out.attempted += todo.len() as u64;
    if wrong > 0 {
        out.problem(format!(
            "{wrong} answers differ from a serial Server::execute replay"
        ));
    }
}

/// Check the ladder's answers against the carried digest, or by replay.
fn check(args: &Args, server: &Server, rungs: &[Rung], out: &mut Outcome) {
    match digest::reference(&args.workload, args.seed, args.seconds) {
        Some(expected) => {
            if let Err(e) = digest::check(&args.workload, ladder_digest(rungs), expected) {
                out.problem(e);
            }
        }
        None => check_by_replay(server, rungs, out),
    }
    println!("info digest={:016x}", ladder_digest(rungs));
}

fn count_ops(rungs: &[Rung], out: &mut Outcome) {
    for r in rungs {
        out.attempted += r.outcome.sent;
        out.failed += r.outcome.failed;
    }
}

/// The timed run.
pub fn timed(args: &Args, out: &mut Outcome) {
    let ld = ladder(&args.workload);
    let (mut stack, times) = match setups(args, out) {
        Ok(s) => s,
        Err(e) => return out.problem(e),
    };
    let rungs = match run_ladder(args, &mut stack, &ld, false) {
        Ok(r) => r,
        Err(e) => {
            let _ = stack.close();
            return out.problem(e);
        }
    };
    count_ops(&rungs, out);
    let rss_kb = peak_rss_kb();
    check(args, &stack.server, &rungs, out);
    if let Err(e) = stack.close() {
        out.problem(e);
    }

    let outcomes: Vec<RungOutcome> = rungs.into_iter().map(|r| r.outcome).collect();
    let nominal = &outcomes[ld.nominal];
    let slo = slo_rung(&outcomes, &ld.slo);
    let mut setup_ns: Vec<u64> = times.iter().map(|t| t.total_ns).collect();
    out.metric("setup_s", median_s(&mut setup_ns), "s");
    out.metric(
        "throughput_per_s",
        slo.map_or(0.0, |i| outcomes[i].achieved_rps),
        "1/s",
    );
    out.metric("p50_ms", nominal.windowed.p50_low as f64 / 1e6, "ms");
    out.metric("peak_rss_mb", rss_kb as f64 / 1024.0, "MB");
    println!(
        "info slo_rung={} slo_rate={}/s p99_limit_ms={} nominal_rate={}/s nominal_samples={} \
         p50_windows={} p99_windows={}",
        slo.map_or(-1, |i| i as i64),
        slo.map_or(0, |i| outcomes[i].rate),
        ld.slo.p99_limit_ns / 1_000_000,
        nominal.rate,
        nominal.latency.count,
        nominal.windowed.p50_windows,
        nominal.windowed.p99_windows
    );
    // The tail is printed, not recorded: on a shared host it moves with
    // the host more than the bound allows (see README.md).
    println!(
        "info nominal_p99_ms={:.3} nominal_window_p99_ms={:.3}",
        nominal.latency.p99 as f64 / 1e6,
        nominal.windowed.p99_median as f64 / 1e6
    );
}

/// The native-variant pipeline context `Tenant::new` builds, per database.
struct AskContext {
    view: SchemaView,
    denat: snails_sql::IdentifierMap,
}

/// Replay state shared by every request.
struct Replay<'a> {
    server: &'a Server,
    dbs: BTreeMap<String, (&'a SnailsDatabase, Option<AskContext>)>,
    seed: u64,
    counters: Counters,
    resp_bytes: u64,
}

impl<'a> Replay<'a> {
    fn new(t: &mut Tracer, server: &'a Server, mix: &'a Mix, seed: u64, asks: bool) -> Replay<'a> {
        let dbs = mix
            .dbs
            .iter()
            .enumerate()
            .map(|(i, db)| {
                let ctx = asks.then(|| {
                    let (view, denat) = compose::context(t, i as u64, db, SchemaVariant::Native);
                    AskContext { view, denat }
                });
                (db.spec.name.to_uppercase(), (&**db, ctx))
            })
            .collect();
        Replay {
            server,
            dbs,
            seed,
            counters: Counters::default(),
            resp_bytes: 0,
        }
    }

    fn opts() -> ExecOptions {
        ExecOptions {
            limits: ExecLimits::guarded(),
            ..ExecOptions::default()
        }
    }

    /// Rebuild a `Sql` answer: the tenant's plan cache, guarded execution.
    fn sql(
        &mut self,
        t: &mut Tracer,
        tag: u64,
        tenant: &str,
        database: &str,
        sql: &str,
    ) -> Response {
        let plans = &self.server.tenant(tenant).expect("tenant exists").plans;
        let (db, _) = &self.dbs[&database.to_uppercase()];
        let n = &mut self.counters;
        n.plan_calls += 1;
        let hits = plans.hits();
        let plan = t.time("engine.plan", tag, || plans.plan(&db.db, sql));
        n.plan_hits += plans.hits() - hits;
        let result = match plan {
            Ok(p) => t.time("engine.exec", tag, || p.execute(&db.db, Self::opts())),
            Err(e) => Err(e),
        };
        match result {
            Ok(rs) => t.time("serve.rows", tag, || rows_response(tag, &rs)),
            Err(e) => {
                n.exec_errors += 1;
                n.exec_exhausted += u64::from(e.is_resource_exhausted());
                Response::Err {
                    tag,
                    error: ServeError::Engine(e.to_string()),
                }
            }
        }
    }

    /// Rebuild an `Ask` answer from its component calls.
    fn ask(
        &mut self,
        t: &mut Tracer,
        tag: u64,
        tenant: &str,
        database: &str,
        question: u32,
        model: u8,
    ) -> Response {
        let plans = &self.server.tenant(tenant).expect("tenant exists").plans;
        let (db, ctx) = &self.dbs[&database.to_uppercase()];
        let ctx = ctx.as_ref().expect("Ask contexts are built for serve_ask");
        let pair = db
            .questions
            .iter()
            .find(|p| p.id == question as usize)
            .expect("question exists");
        let gold = compose::gold(t, tag, db, pair);
        let measures = compose::measures(t, tag, db, &ctx.view, &gold);
        let cell = Cell {
            db,
            view: &ctx.view,
            denat: &ctx.denat,
            pair,
            gold: &gold,
            measures: &measures,
            plans,
            opts: Self::opts(),
            seed: self.seed,
        };
        let workflow = Workflow::ZeroShot(ModelKind::ALL[usize::from(model)]);
        let (record, native_sql) = compose::evaluate(t, tag, workflow, &cell, &mut self.counters);
        Response::Answer {
            tag,
            sql: native_sql.unwrap_or_default(),
            parse_ok: record.parse_ok,
            set_matched: record.set_matched,
            exec_correct: record.exec_correct,
            recall_permille: record
                .linking
                .map_or(u16::MAX, |l| (l.recall * 1000.0).round() as u16),
        }
    }

    /// One request: wire in, rebuilt answer, `Server::execute`, wire out.
    /// Returns (rebuilt answer, the program's answer).
    fn request(&mut self, t: &mut Tracer, req: &Request) -> Result<(Response, Response), String> {
        let tag = req.tag();
        let span = t.open("request", tag);
        let decoded = t.time("serve.wire", tag, || {
            let mut reader = FrameReader::new();
            reader.extend(&encode_request(req));
            reader.next_message()
        });
        let Ok(Some(Message::Request(req))) = decoded else {
            return Err(format!("request {tag:x} did not survive the wire"));
        };
        let (rebuilt, name) = match &req {
            Request::Sql {
                tenant,
                database,
                sql,
                ..
            } => (self.sql(t, tag, tenant, database, sql), "serve.execute_sql"),
            Request::Ask {
                tenant,
                database,
                question_id,
                model,
                ..
            } => (
                self.ask(t, tag, tenant, database, *question_id, *model),
                "serve.execute_ask",
            ),
            _ => return Err("the ladder only sends Sql and Ask".to_owned()),
        };
        let resp = t.time(name, tag, || self.server.execute(&req));
        let (size, back) = t.time("serve.wire", tag, || {
            let bytes = encode_response(&resp);
            let mut reader = FrameReader::new();
            reader.extend(&bytes);
            (bytes.len(), reader.next_message())
        });
        t.close(span);
        let Ok(Some(Message::Response(resp))) = back else {
            return Err(format!("response {tag:x} did not survive the wire"));
        };
        self.resp_bytes += size as u64;
        Ok((rebuilt, resp))
    }
}

/// What a serial replay measured.
struct Replayed {
    /// Answers that differ from the wire or from their rebuild.
    wrong: usize,
    counters: Counters,
    resp_bytes: u64,
}

/// Replay every ladder request serially.
fn replay(t: &mut Tracer, stack: &Stack, rungs: &[Rung], seed: u64) -> Result<Replayed, String> {
    let asks = rungs
        .iter()
        .any(|r| r.requests.iter().any(|q| matches!(q, Request::Ask { .. })));
    let mut r = Replay::new(t, &stack.server, &stack.mix, seed, asks);
    let mut wrong = 0;
    for rung in rungs {
        for (req, arrival) in rung.requests.iter().zip(&rung.arrivals) {
            let (rebuilt, resp) = r.request(t, req)?;
            let h = untagged_hash(&resp);
            if encode_response(&rebuilt) != encode_response(&resp)
                || arrival.is_none_or(|a| a.hash != h)
            {
                wrong += 1;
            }
        }
    }
    Ok(Replayed {
        wrong,
        counters: r.counters,
        resp_bytes: r.resp_bytes,
    })
}

/// The traced run: the open-loop ladder with the queue sampled at every
/// send, then a serial traced replay of its requests.
pub fn traced(args: &Args, out: &mut Outcome) {
    let ld = ladder(&args.workload);
    let (mut stack, times) = match setups(args, out) {
        Ok(s) => s,
        Err(e) => return out.problem(e),
    };
    let rungs = match run_ladder(args, &mut stack, &ld, true) {
        Ok(r) => r,
        Err(e) => {
            let _ = stack.close();
            return out.problem(e);
        }
    };
    count_ops(&rungs, out);
    if let Some(expected) = digest::reference(&args.workload, args.seed, args.seconds) {
        if let Err(e) = digest::check(&args.workload, ladder_digest(&rungs), expected) {
            out.problem(e);
        }
    }
    let mut t = Tracer::new();
    let traced = replay(&mut t, &stack, &rungs, args.seed);
    if let Err(e) = stack.close() {
        out.problem(e);
    }
    let traced = match traced {
        Ok(r) => r,
        Err(e) => return out.problem(e),
    };
    let requests: u64 = rungs.iter().map(|r| r.requests.len() as u64).sum();
    println!("phase traced_replay ops={requests} ops_failed=0");
    out.attempted += requests;
    let wrong = traced.wrong;
    if wrong > 0 {
        out.problem(format!(
            "{wrong} replayed answers differ from the open-loop run or from their rebuild"
        ));
    }
    crate::write_trace(args, &t);

    let rollup = Rollup::of(t.spans());
    let mut queue = rungs[ld.nominal].queue_len.clone();
    let queue_mean = queue.iter().sum::<u64>() as f64 / queue.len().max(1) as f64;
    let queue_p99 = Percentiles::of(&mut queue).p99 as f64;
    let lag_ns = rungs
        .iter()
        .map(|r| r.outcome.lag_p99_ns)
        .max()
        .unwrap_or(0);
    let mut build: Vec<u64> = times.iter().map(|t| t.build_ns).collect();
    let mut start: Vec<u64> = times.iter().map(|t| t.start_ns).collect();
    let layers = Layers {
        build_s: median_s(&mut build),
        start_s: median_s(&mut start),
        rollup,
        counters: traced.counters,
        queue_len: (queue_mean, queue_p99),
        resp_bytes: traced.resp_bytes as f64 / requests.max(1) as f64,
        lag_ms_p99: lag_ns as f64 / 1e6,
    };
    layers.report(out);
}
