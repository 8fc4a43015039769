//! The request path over TCP: an in-process `ape-serve` daemon driven by
//! a closed-loop and an open-loop load generator.

use crate::checks::{check_reply, Verdict};
use crate::inputs::{design_fields, design_line, Design, Stream};
use crate::trace;
use crate::util::{nproc, Tally};
use ape_netlist::Technology;
use ape_serve::client::{decode_reply, Client};
use ape_serve::{Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop connections.
pub const CONNECTIONS: usize = 2;
/// Open-loop rate, requests per second.
pub const OPEN_RATE: f64 = 500.0;

/// The daemon configuration every workload uses: defaults, with one farm
/// worker per core.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: nproc(),
        ..ServerConfig::default()
    }
}

/// Binds and spawns the daemon on an ephemeral loopback port.
pub fn start_daemon(tech: Technology) -> std::io::Result<ServerHandle> {
    Server::bind("127.0.0.1:0", tech, server_config())?.spawn()
}

/// Opens the closed-loop connections.
pub fn connect(addr: SocketAddr) -> std::io::Result<Vec<Client>> {
    (0..CONNECTIONS)
        .map(|_| {
            let c = Client::connect(addr)?;
            c.set_read_timeout(Some(Duration::from_secs(10)))?;
            Ok(c)
        })
        .collect()
}

/// What a load phase saw.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-request latency, milliseconds (failed requests included).
    pub lat_ms: Vec<f64>,
    /// How late each open-loop request left the generator, milliseconds.
    pub late_ms: Vec<f64>,
    /// Requests answered correctly.
    pub completed: u64,
    pub tally: Tally,
    pub secs: f64,
}

fn record(out: &mut Outcome, v: Verdict, lat_ms: f64) {
    out.tally.attempted += 1;
    match v {
        Verdict::Ok => out.completed += 1,
        Verdict::Mismatch => out.tally.mismatches += 1,
        Verdict::Refused => out.tally.refused += 1,
        Verdict::Error => out.tally.errors += 1,
    }
    out.lat_ms.push(lat_ms);
}

static REQ_IDS: AtomicU64 = AtomicU64::new(1);

/// Fresh id for the spans of one request.
pub fn next_req() -> u64 {
    REQ_IDS.fetch_add(1, Ordering::Relaxed)
}

/// Closed loop: each client sends its next request only after reading
/// the previous reply, until `seconds` have passed. Each reply is checked
/// against `expected` (the direct render for the same design).
pub fn closed_loop(
    clients: Vec<Client>,
    designs: &Arc<Vec<Design>>,
    expected: &Arc<Vec<Option<String>>>,
    seed: u64,
    seconds: f64,
    parent: u64,
) -> Outcome {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(conn, mut client)| {
            let designs = designs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut out = Outcome::default();
                let mut stream = Stream::closed(seed, conn, designs.len());
                while Instant::now() < deadline {
                    let i = stream.next_index();
                    let _span = trace::span("wire.client_call", parent, next_req());
                    let t = Instant::now();
                    match client.call("design", design_fields(&designs[i])) {
                        Ok(reply) => {
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            record(&mut out, check_reply(&reply.outcome, &expected[i]), ms);
                        }
                        Err(_) => {
                            out.tally.attempted += 1;
                            out.tally.dropped += 1;
                            out.lat_ms.push(seconds * 1e3);
                            break;
                        }
                    }
                }
                out
            })
        })
        .collect();
    let mut all = Outcome::default();
    for w in workers {
        match w.join() {
            Ok(o) => {
                all.lat_ms.extend(o.lat_ms);
                all.completed += o.completed;
                all.tally.add(&o.tally);
            }
            Err(_) => {
                all.tally.attempted += 1;
                all.tally.dropped += 1;
            }
        }
    }
    all.secs = t0.elapsed().as_secs_f64();
    all
}

/// Open loop: one connection; requests leave on a seeded Poisson schedule
/// at [`OPEN_RATE`] whether or not earlier ones were answered. Latency is
/// timed from each request's due time, so a stall also charges the
/// requests queued behind it.
pub fn open_loop(
    addr: SocketAddr,
    designs: &Arc<Vec<Design>>,
    expected: &Arc<Vec<Option<String>>>,
    seed: u64,
    seconds: f64,
    parent: u64,
) -> std::io::Result<Outcome> {
    let schedule = crate::inputs::open_schedule(seed, OPEN_RATE, seconds);
    let mut stream = Stream::open(seed, designs.len());
    let picks: Vec<usize> = schedule.iter().map(|_| stream.next_index()).collect();
    let n = schedule.len();
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut writer = sock.try_clone()?;
    let reader_sock = sock;
    let start = Instant::now() + Duration::from_millis(20);
    let schedule = Arc::new(schedule);
    let due = {
        let schedule = schedule.clone();
        move |k: usize| start + Duration::from_secs_f64(schedule[k])
    };

    let w_designs = designs.clone();
    let w_picks = picks.clone();
    let sender = std::thread::spawn(move || {
        let mut late_ms = Vec::with_capacity(n);
        let mut sent = 0usize;
        for (k, offset) in schedule.iter().enumerate() {
            let at = start + Duration::from_secs_f64(*offset);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
            let mut line = design_line(k as u64 + 1, &w_designs[w_picks[k]]);
            line.push('\n');
            if writer.write_all(line.as_bytes()).is_err() {
                break;
            }
            sent += 1;
        }
        (late_ms, sent)
    });

    let mut out = Outcome::default();
    let mut reader = BufReader::new(reader_sock);
    let mut seen = vec![false; n];
    let mut received = 0usize;
    let give_up = start + Duration::from_secs_f64(seconds) + Duration::from_secs(5);
    let mut line = String::new();
    while received < n && Instant::now() < give_up {
        // A read that times out mid-line keeps its bytes in `line`.
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let now = Instant::now();
                let text = std::mem::take(&mut line);
                let Ok(reply) = decode_reply(text.trim_end()) else {
                    out.tally.attempted += 1;
                    out.tally.errors += 1;
                    continue;
                };
                let k = reply.id as usize;
                if k == 0 || k > n || seen[k - 1] {
                    out.tally.attempted += 1;
                    out.tally.errors += 1;
                    continue;
                }
                let k = k - 1;
                seen[k] = true;
                received += 1;
                let req = next_req();
                let _span = trace::span("wire.open_reply", parent, req);
                let ms = now.saturating_duration_since(due(k)).as_secs_f64() * 1e3;
                record(&mut out, check_reply(&reply.outcome, &expected[picks[k]]), ms);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    let (late_ms, sent) = sender.join().unwrap_or_default();
    out.late_ms = late_ms;
    // Requests never sent were dropped; sent but unanswered timed out.
    let missing = n - received;
    let unsent = n - sent.min(n);
    out.tally.attempted += missing as u64;
    out.tally.dropped += unsent as u64;
    out.tally.timeouts += (missing - unsent.min(missing)) as u64;
    out.lat_ms.extend(std::iter::repeat_n(seconds * 1e3, missing));
    out.secs = seconds;
    Ok(out)
}
