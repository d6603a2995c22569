//! `serve-mixed`: an in-process daemon (`serve::Server::spawn`, jobs 2,
//! disk cache, default hot tier) under two closed-loop client connections.
//! 99% of requests ask for the 28 Phoenix keys, made hot in set-up; 1%
//! are fresh generated binaries, each a unique key and so a cold miss that
//! writes the hot tier and the disk cache.
//!
//! The fresh share is 1%, not 5%: each cold miss stores to the disk cache,
//! which rescans and prunes the cache directory on every store (~80% of
//! cold latency on a 2-vCPU KVM guest), and that file-system time swings
//! far more between runs than CPU time does (cold p50 1.7–2.9 ms between
//! runs of the same length). At 5% it set run-to-run throughput spread at
//! 13–24%, and at 2% up to 20% in slow periods of the host; at 1% cold
//! misses still take about a quarter of client time.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lasagne::pipeline::module_key;
use lasagne::pipeline::pool::{Pool, PoolStats};
use lasagne::serve::client::Client;
use lasagne::serve::wire::{Response, Source};
use lasagne::serve::{Config, ServeStats, Server, ServerHandle};
use lasagne::{Pipeline, Version};
use lasagne_armgen::print::print_module;
use lasagne_phoenix::Benchmark;
use lasagne_trace::{MetricsSnapshot, TraceCtx};
use lasagne_x86::binary::Binary;

use crate::batch::InputStats;
use crate::inputs::{asm_hash, phoenix_requests, small_binary, Request, Rng};
use crate::quality::{self, Quality};
use crate::stats::{median, percentile};

/// Client connections: one per CPU of the 2-vCPU reference host; callers
/// block on replies.
pub const CLIENTS: usize = 2;
/// One request in `FRESH_EVERY` is a fresh generated binary.
const FRESH_EVERY: u64 = 100;
/// Requests drawn per client per second of run time: about three times
/// what one connection sustains on a 2-vCPU guest (~7k/s), so a faster program does
/// not run dry. Running dry is reported as a failure.
const DRAWN_PER_SEC: f64 = 20_000.0;

/// One request slot of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Index into the 28 Phoenix requests.
    Hot(usize),
    /// Index into this client's fresh binaries.
    Fresh(usize),
}

/// A client's pre-drawn request stream.
pub struct Stream {
    pub slots: Vec<Slot>,
    pub fresh: Vec<(Binary, Version)>,
}

/// The seeded request streams, one per client. Fresh binaries are unique
/// across all clients (by translation key).
pub fn streams(seed: u64, seconds: f64, hot_keys: &HashSet<u64>) -> Vec<Stream> {
    let mut seen = hot_keys.clone();
    let len = (seconds.max(1.0) * DRAWN_PER_SEC) as usize;
    (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::new(seed, 10 + c as u64);
            let mut fresh = Vec::new();
            let slots = (0..len)
                .map(|_| {
                    if !rng.next_u64().is_multiple_of(FRESH_EVERY) {
                        return Slot::Hot(rng.below(28));
                    }
                    loop {
                        let bin = small_binary(rng.next_u64());
                        let v = Version::ALL[rng.below(Version::ALL.len())];
                        if seen.insert(module_key(&bin, v)) {
                            fresh.push((bin, v));
                            return Slot::Fresh(fresh.len() - 1);
                        }
                    }
                })
                .collect();
            Stream { slots, fresh }
        })
        .collect()
}

/// Translation keys of the hot set.
pub fn hot_keys(benches: &[Benchmark]) -> HashSet<u64> {
    phoenix_requests(benches)
        .iter()
        .map(|r| module_key(&r.bin, r.version))
        .collect()
}

/// A running daemon with its hot set in place.
pub struct Setup {
    pub server: ServerHandle,
    pub hot: Vec<Request>,
    pub reference: Vec<String>,
    pub quality: Quality,
    /// Input statistics of the hot set.
    pub hot_inputs: InputStats,
    /// Time spent in the program during set-up (reference translations,
    /// `Server::spawn`, pre-touch), in seconds; the output checks are not
    /// counted.
    pub program_s: f64,
    pub problems: Vec<String>,
}

impl Setup {
    pub fn shutdown(self) {
        self.server.stop();
    }
}

/// Translates the Phoenix requests in-process (the reference), starts the
/// daemon on a socket in `dir`, and touches every hot key once so it is
/// resident.
pub fn setup(benches: &[Benchmark], dir: &Path) -> Result<Setup, String> {
    let hot = phoenix_requests(benches);
    let t0 = Instant::now();
    let mut outs = Vec::new();
    for r in &hot {
        let (t, _) = Pipeline::new(r.version)
            .run(&r.bin)
            .map_err(|e| format!("{}: {e}", r.label))?;
        outs.push(t);
    }
    let reference: Vec<String> = outs.iter().map(|t| print_module(&t.arm)).collect();
    let sock: PathBuf = dir.join("serve.sock");
    let server = Server::spawn(Config {
        addr: sock.to_string_lossy().into_owned(),
        jobs: 2,
        cache_dir: Some(dir.join("cache")),
        ..Config::default()
    })
    .map_err(|e| format!("spawn daemon: {e}"))?;
    let touched = pre_touch(&server, &hot, &reference);
    let program_s = t0.elapsed().as_secs_f64();
    if let Err(e) = touched {
        server.stop();
        return Err(e);
    }

    let (quality, problems) = quality::phoenix(benches, &hot, &outs);
    let hot_inputs = InputStats::of(&hot, &outs, Version::ALL.len());
    Ok(Setup {
        server,
        hot,
        reference,
        quality,
        hot_inputs,
        program_s,
        problems,
    })
}

/// Requests every hot key once, checking each reply.
fn pre_touch(server: &ServerHandle, hot: &[Request], reference: &[String]) -> Result<(), String> {
    let mut c = Client::connect_with_retry(server.addr(), Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    for (r, want) in hot.iter().zip(reference) {
        match c.translate(&r.bin, r.version, 0) {
            Ok(Response::Ok { asm, .. }) if asm == *want => {}
            other => {
                return Err(format!(
                    "{}: pre-touch answered {}",
                    r.label,
                    describe(&other)
                ))
            }
        }
    }
    Ok(())
}

fn describe(r: &Result<Response, lasagne::serve::client::ClientError>) -> String {
    match r {
        Ok(Response::Ok { source, .. }) => format!("Ok from {} with other bytes", source.name()),
        Ok(other) => format!("{other:?}"),
        Err(e) => format!("error {e}"),
    }
}

/// Per-request record of a client.
#[derive(Debug, Clone, Copy)]
struct Sample {
    slot: Slot,
    source: Option<Source>,
    client_ns: u64,
    server_ns: u64,
}

/// What one load phase saw, client and server side.
pub struct Load {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub lat_ms: Vec<f64>,
    pub hot_us: Vec<f64>,
    pub cold_ms: Vec<f64>,
    /// Client hot latency minus the server's reported service time.
    pub wire_us: Vec<f64>,
    pub client_hits: BTreeMap<&'static str, u64>,
    pub server: (ServeStats, ServeStats),
    pub metrics: (MetricsSnapshot, MetricsSnapshot),
    pub pool: PoolStats,
    /// Fresh requests answered, for the post-run check: (client, index,
    /// digest of the reply). Digests, not replies, so the benchmark's own
    /// memory does not grow with how many cold misses a run served.
    pub fresh_out: Vec<(usize, usize, u64)>,
    /// Stream slots each client consumed (where a following phase resumes).
    pub consumed: Vec<usize>,
    pub problems: Vec<String>,
}

/// Runs both clients on their `streams` for `seconds` from stream position
/// `from`, returning what they saw; spans per request go to `ctx`
/// (disabled when untraced).
pub fn run(
    setup: &Setup,
    streams: &[Stream],
    seconds: f64,
    from: &[usize],
    ctx: &TraceCtx,
) -> Load {
    let addr = setup.server.addr().to_string();
    let before = (setup.server.stats(), setup.server.metrics());
    let pool_before = Pool::shared().stats();
    let fresh_out = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Sample>, u64, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let addr = &addr;
                let fresh_out = &fresh_out;
                let from = from[c];
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut failed = 0u64;
                    let mut problems = Vec::new();
                    let mut client = match Client::connect_with_retry(addr, Duration::from_secs(10))
                    {
                        Ok(cl) => cl,
                        Err(e) => return (samples, 1, vec![format!("client {c}: {e}")]),
                    };
                    if from >= stream.slots.len() {
                        return (
                            samples,
                            1,
                            vec![format!("client {c}: request stream ran dry")],
                        );
                    }
                    for &slot in &stream.slots[from..] {
                        let (bin, v) = match slot {
                            Slot::Hot(i) => (&setup.hot[i].bin, setup.hot[i].version),
                            Slot::Fresh(i) => (&stream.fresh[i].0, stream.fresh[i].1),
                        };
                        let sp = ctx.span("serve", "request");
                        let t0 = Instant::now();
                        let resp = client.translate(bin, v, 0);
                        let client_ns = t0.elapsed().as_nanos() as u64;
                        drop(sp);
                        let mut sample = Sample {
                            slot,
                            source: None,
                            client_ns,
                            server_ns: 0,
                        };
                        match resp {
                            Ok(Response::Ok { source, nanos, asm }) => {
                                sample.source = Some(source);
                                sample.server_ns = nanos;
                                match slot {
                                    Slot::Hot(i) if asm != setup.reference[i] => {
                                        failed += 1;
                                        problems.push(format!(
                                            "{}: response differs from the in-process translation",
                                            setup.hot[i].label
                                        ));
                                    }
                                    Slot::Hot(_) => {}
                                    Slot::Fresh(i) => {
                                        fresh_out.lock().expect("no panics while held").push((
                                            c,
                                            i,
                                            asm_hash(&asm),
                                        ));
                                    }
                                }
                            }
                            other => {
                                failed += 1;
                                problems.push(format!("client {c}: {}", describe(&other)));
                            }
                        }
                        samples.push(sample);
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    if Instant::now() < deadline {
                        failed += 1;
                        problems.push(format!("client {c}: request stream ran dry"));
                    }
                    (samples, failed, problems)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = (setup.server.stats(), setup.server.metrics());
    let pool = Pool::shared().stats().since(&pool_before);

    let mut load = Load {
        attempted: 0,
        failed: 0,
        wall_s,
        lat_ms: Vec::new(),
        hot_us: Vec::new(),
        cold_ms: Vec::new(),
        wire_us: Vec::new(),
        client_hits: BTreeMap::new(),
        server: (before.0, after.0),
        metrics: (before.1, after.1),
        pool,
        fresh_out: fresh_out.into_inner().expect("no panics while held"),
        consumed: Vec::new(),
        problems: Vec::new(),
    };
    for (c, (samples, failed, mut problems)) in per_client.into_iter().enumerate() {
        load.consumed.push(from[c] + samples.len());
        load.failed += failed;
        load.problems.append(&mut problems);
        for s in samples {
            load.attempted += 1;
            load.lat_ms.push(s.client_ns as f64 / 1e6);
            match s.source {
                Some(Source::Hot) => {
                    load.hot_us.push(s.client_ns as f64 / 1e3);
                    load.wire_us
                        .push(s.client_ns.saturating_sub(s.server_ns) as f64 / 1e3);
                }
                Some(Source::Cold) => load.cold_ms.push(s.client_ns as f64 / 1e6),
                _ => {}
            }
            if let Some(src) = s.source {
                *load.client_hits.entry(src.name()).or_default() += 1;
            }
            if matches!((s.slot, s.source), (Slot::Fresh(_), Some(src)) if src != Source::Cold) {
                load.failed += 1;
                load.problems
                    .push(format!("fresh request answered from {:?}", s.source));
            }
        }
    }
    let (b, a) = &load.server;
    for (name, server) in [
        ("hot", a.hot - b.hot),
        ("coalesced", a.coalesced - b.coalesced),
        ("disk", a.disk - b.disk),
        ("cold", a.cold - b.cold),
    ] {
        let client = load.client_hits.get(name).copied().unwrap_or(0);
        if client != server {
            load.problems.push(format!(
                "rung {name}: client counted {client}, server {server}"
            ));
            load.failed += 1;
        }
    }
    load
}

impl Load {
    /// Appends the load of the slice that followed this one.
    pub fn absorb(&mut self, o: Load) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wall_s += o.wall_s;
        self.lat_ms.extend(o.lat_ms);
        self.hot_us.extend(o.hot_us);
        self.cold_ms.extend(o.cold_ms);
        self.wire_us.extend(o.wire_us);
        for (k, n) in o.client_hits {
            *self.client_hits.entry(k).or_default() += n;
        }
        self.server.1 = o.server.1;
        self.metrics.1 = o.metrics.1;
        self.pool.submitted += o.pool.submitted;
        self.pool.executed += o.pool.executed;
        self.pool.steals += o.pool.steals;
        self.pool.parks += o.pool.parks;
        self.fresh_out.extend(o.fresh_out);
        self.consumed = o.consumed;
        self.problems.extend(o.problems);
    }
}

/// Checks every fresh response after the run: its digest equal to that of
/// the in-process translation, and that translation's Arm result equal to
/// the x86 interpreter's. Returns the input statistics of the binaries
/// served.
pub fn verify_fresh(
    streams: &[Stream],
    fresh_out: &[(usize, usize, u64)],
) -> (InputStats, Vec<String>) {
    let chunks: Vec<&[(usize, usize, u64)]> = fresh_out
        .chunks(fresh_out.len().div_ceil(CLIENTS).max(1))
        .collect();
    let parts: Vec<(InputStats, Vec<String>)> = std::thread::scope(|s| {
        let hs: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                s.spawn(move || {
                    let mut st = InputStats::default();
                    let mut problems = Vec::new();
                    for (c, i, digest) in chunk.iter() {
                        let (bin, v) = &streams[*c].fresh[*i];
                        match Pipeline::new(*v).run(bin) {
                            Ok((t, _)) => {
                                if asm_hash(&print_module(&t.arm)) != *digest {
                                    problems.push(format!("fresh {c}/{i}: response differs"));
                                }
                                if let Err(e) = quality::check_generated(bin, &t) {
                                    problems.push(format!("fresh {c}/{i}: {e}"));
                                }
                                st.add(bin, &t);
                            }
                            Err(e) => problems.push(format!("fresh {c}/{i}: {e}")),
                        }
                    }
                    (st, problems)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("verify thread"))
            .collect()
    });
    let mut st = InputStats::default();
    let mut problems = Vec::new();
    for (s, mut p) in parts {
        st.merge(&s);
        problems.append(&mut p);
    }
    (st, problems)
}

/// Percentile summary helpers for the serve split.
pub fn split(load: &Load) -> (f64, f64, f64) {
    (
        median(&load.hot_us),
        percentile(&load.hot_us, 99.0),
        median(&load.cold_ms),
    )
}
