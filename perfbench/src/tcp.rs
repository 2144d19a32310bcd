//! `tcp-lookup-write`: two TCP connections, opened with
//! `TcpStream::connect` and no socket options (as a user connects), drive a
//! durable 4-shard server through the stock `WireClient`.  Each connection
//! cycles insert → exact lookup → approximate query → delete of its own
//! insert, so n stays constant.  The engine does under a millisecond per
//! exact op here (lookup focals are dominated, empty after the Section 3.1
//! preparation), so framing, the TCP front-end, the dispatcher, WAL fsync,
//! R-tree updates and approximate sampling carry the time.

use crate::calib::{repeat_setup, Adjust, Meter};
use crate::check::{approx_ok, delete_ok, lookup_ok, self_test, EPSILON};
use crate::layers::{replay, serve_layers, write_trace};
use crate::report::{mean, median, mix, Latencies, Report};
use crate::serving::{self, Fresh, Update};
use crate::{Run, D, DATA_SEED, K, N, SETUPS};
use kspr::Algorithm;
use kspr_bench::Workload;
use kspr_datagen::Distribution;
use kspr_serve::{NetServer, Server, TraceId};
use kspr_wire::{TierSpec, WireClient, WireRequest, WireResponse};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CONFIDENCE: f64 = 0.9;
const CONNECTIONS: usize = 2;
/// Lookup focals the queries pick from.
const LOOKUPS: usize = 64;

struct Setup {
    // Field order is drop order: connections close before the front-end
    // stops, and the front-end before the server.
    clients: Vec<WireClient<TcpStream>>,
    _net: NetServer,
    server: Server,
    raw: Vec<Vec<f64>>,
    lookups: Vec<Vec<f64>>,
    competitive: Vec<Vec<f64>>,
}

fn setup(dir: PathBuf) -> Setup {
    let raw = kspr_datagen::generate(Distribution::Independent, N, D, DATA_SEED);
    let workload = Workload::from_raw("IND", raw.clone(), K);
    let lookups = workload.lookup_focals(LOOKUPS);
    let competitive = workload.focals(LOOKUPS);
    let server = serving::start(&raw, &dir);
    let net = NetServer::bind(server.handle(), "127.0.0.1:0").expect("a loopback port");
    let clients = (0..CONNECTIONS)
        .map(|_| WireClient::new(TcpStream::connect(net.local_addr()).expect("loopback connect")))
        .collect();
    Setup {
        clients,
        _net: net,
        server,
        raw,
        lookups,
        competitive,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Query,
    Approx,
    Insert,
    Delete,
}

/// One completed request.
struct Done {
    class: Class,
    rtt: Duration,
    ok: bool,
    request: WireRequest,
    response: Option<WireResponse>,
    /// Server span-tree duration and engine span, when traced.
    server_ms: Option<f64>,
    engine_ms: Option<f64>,
}

/// What one connection did in one phase.
#[derive(Default)]
struct Log {
    done: Vec<Done>,
    updates: Vec<Update>,
    /// Records this connection inserted, in insert order.
    inserts: usize,
}

/// Runs one connection's closed loop until `deadline`.
fn drive(
    client: &mut WireClient<TcpStream>,
    conn: usize,
    s: (&[Vec<f64>], &[Vec<f64>]),
    seed: u64,
    deadline: Instant,
    traced: Option<&kspr_serve::ServeHandle>,
) -> Log {
    let (lookups, competitive) = s;
    let mut fresh = Fresh::new(mix(seed, 0x1000 + conn as u64));
    let mut log = Log::default();
    let mut last_insert: Option<u64> = None;
    let mut step = 0u64;
    let mut broken = false;
    while Instant::now() < deadline {
        let class =
            [Class::Insert, Class::Query, Class::Approx, Class::Delete][(step % 4) as usize];
        let pick = mix(seed, (conn as u64) << 40 | step) as usize;
        let request = match class {
            Class::Insert => WireRequest::Insert {
                values: fresh.next_record(),
            },
            Class::Query => WireRequest::Query {
                algorithm: Algorithm::LpCta,
                focal: lookups[pick % lookups.len()].clone(),
                k: K as u64,
            },
            Class::Approx => WireRequest::Tiered {
                algorithm: Algorithm::LpCta,
                focal: competitive[pick % competitive.len()].clone(),
                k: K as u64,
                tier: TierSpec::Approximate {
                    epsilon: EPSILON,
                    confidence: CONFIDENCE,
                },
            },
            Class::Delete => match last_insert.take() {
                Some(id) => WireRequest::Delete { id },
                // The insert of this cycle failed: nothing of ours to delete.
                None => {
                    step += 1;
                    continue;
                }
            },
        };
        step += 1;
        let trace_id = ((conn as u64 + 1) << 32) | step;
        let t = Instant::now();
        let reply = if broken {
            None
        } else if traced.is_some() {
            client
                .call_traced(&request, Some(trace_id))
                .ok()
                .map(|(r, _)| r)
        } else {
            client.call(&request).ok()
        };
        let rtt = t.elapsed();
        // A transport error leaves the stream unusable; every later request
        // of this connection counts as failed.
        broken |= reply.is_none();
        let ok = match (&class, &reply) {
            (Class::Query, Some(r)) => lookup_ok(r),
            (Class::Approx, Some(r)) => approx_ok(r, EPSILON),
            (Class::Insert, Some(WireResponse::Inserted { id })) => {
                last_insert = Some(*id);
                if let WireRequest::Insert { values } = &request {
                    log.updates.push(Update::Insert(values.clone()));
                }
                log.inserts += 1;
                true
            }
            (Class::Delete, Some(r)) => {
                if delete_ok(r) {
                    log.updates.push(Update::DeleteInsert(log.inserts - 1));
                }
                delete_ok(r)
            }
            _ => false,
        };
        let record = traced.and_then(|h| h.trace(TraceId(trace_id)));
        log.done.push(Done {
            class,
            rtt,
            ok,
            request,
            response: reply,
            server_ms: record.as_ref().map(|r| r.root().duration_ns() as f64 / 1e6),
            engine_ms: record
                .as_ref()
                .and_then(|r| r.find("engine"))
                .map(|span| span.duration_ns() as f64 / 1e6),
        });
        if broken {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    log
}

/// Runs both connections for `window` while this thread times reference
/// slices; returns their logs, the phase's wall time and its adjustment.
fn measure(
    s: &mut Setup,
    seed: u64,
    window: Duration,
    traced: bool,
) -> (Vec<Log>, Duration, Adjust) {
    let handle = s.server.handle();
    let trace_handle = traced.then_some(&handle);
    let (lookups, competitive) = (&s.lookups[..], &s.competitive[..]);
    let mut meter = Meter::start();
    let start = Instant::now();
    let deadline = start + window;
    let logs = std::thread::scope(|scope| {
        let workers: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    drive(
                        client,
                        conn,
                        (lookups, competitive),
                        seed,
                        deadline,
                        trace_handle,
                    )
                })
            })
            .collect();
        meter.tick_until(deadline);
        workers
            .into_iter()
            .map(|w| w.join().expect("a connection worker panicked"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed(), meter.finish(true))
}

fn latencies(logs: &[Log], classes: &[Class]) -> Latencies {
    let mut lat = Latencies::default();
    for done in logs.iter().flat_map(|l| &l.done) {
        if classes.contains(&done.class) {
            lat.push(done.rtt);
        }
    }
    lat
}

fn tally(logs: &[Log], report: &mut Report) {
    for done in logs.iter().flat_map(|l| &l.done) {
        report.attempted += 1;
        if !done.ok {
            report.failed += 1;
        }
    }
}

pub fn run(run: &Run, report: &mut Report) {
    report.trace = run.trace;
    let mut n = 0;
    let (mut s, setups) = repeat_setup(SETUPS, || {
        n += 1;
        setup(run.scratch.join(format!("tcp-{n}")))
    });
    // Outside the timed set-up: a first round trip's delayed-ACK timing
    // varies by tens of ms and is not what set-up measures.
    for client in &mut s.clients {
        let pong = client.call(&WireRequest::Ping);
        assert!(
            matches!(pong, Ok(WireResponse::Pong)),
            "server answers a ping"
        );
    }
    let (logs, elapsed, adjust) = measure(&mut s, run.seed, run.phase(), false);
    tally(&logs, report);
    for missed in self_test(None, None) {
        report.check(false, format!("self-test: {missed}"));
    }
    let ops: usize = logs.iter().map(|l| l.done.len()).sum();
    report.query_latency(&latencies(&logs, &[Class::Query]), &adjust);
    report.common(&setups, ops as u64, elapsed, &adjust);
    let update = latencies(&logs, &[Class::Insert, Class::Delete]);
    let approx = latencies(&logs, &[Class::Approx]);
    for (name, lat, q) in [
        ("update_p50_ms", &update, 0.5),
        ("update_p90_ms", &update, 0.9),
        ("approx_p50_ms", &approx, 0.5),
        ("approx_p90_ms", &approx, 0.9),
    ] {
        report.detail(name, adjust.time(lat.quantile_ms(q)), "ms", lat.len());
    }
    if !run.trace {
        return;
    }

    let (traced, _, traced_adjust) = measure(&mut s, run.seed, run.phase(), true);
    tally(&traced, report);
    let all: Vec<&Done> = traced.iter().flat_map(|l| &l.done).collect();
    wire_layers(&all, report);
    let rtt: Vec<f64> = all.iter().map(|d| d.rtt.as_secs_f64() * 1e3).collect();
    let unattributed: Vec<f64> = all
        .iter()
        .filter_map(|d| Some(d.rtt.as_secs_f64() * 1e3 - d.server_ms?))
        .collect();
    report.check(
        unattributed.len() == all.len(),
        format!(
            "{} of {} traced requests had no span tree",
            all.len() - unattributed.len(),
            all.len()
        ),
    );
    report.layer("net.rtt_ms_p50", median(&rtt), rtt.len());
    report.layer(
        "net.unattributed_ms_p50",
        median(&unattributed),
        unattributed.len(),
    );
    serve_layers(&s.server.handle(), report);
    for (name, lat, q) in [
        ("serve.update_p50_ms", &update, 0.5),
        ("serve.update_p90_ms", &update, 0.9),
        ("approx.p50_ms", &approx, 0.5),
        ("approx.p90_ms", &approx, 0.9),
    ] {
        report.layer(name, adjust.time(lat.quantile_ms(q)), lat.len());
    }
    let estimate: Vec<f64> = all
        .iter()
        .filter(|d| d.class == Class::Approx)
        .filter_map(|d| d.engine_ms)
        .collect();
    report.layer("approx.estimate_ms", median(&estimate), estimate.len());
    let samples: Vec<f64> = all
        .iter()
        .filter_map(|d| match &d.response {
            Some(WireResponse::Approx(a)) => Some(a.samples as f64),
            _ => None,
        })
        .collect();
    report.layer("approx.samples_per_query", mean(&samples), samples.len());
    // Both at nominal host speed: the phases ran at different times.
    let query = adjust.time(latencies(&logs, &[Class::Query]).quantile_ms(0.5));
    let traced_query = latencies(&traced, &[Class::Query]);
    let traced_p50 = traced_adjust.time(traced_query.quantile_ms(0.5));
    report.layer(
        "telemetry.trace_overhead_pct",
        (traced_p50 - query) / query * 100.0,
        traced_query.len(),
    );
    report.layer(
        "telemetry.traced_query_p50_ms",
        traced_p50,
        traced_query.len(),
    );

    // The spatial layer alone: both phases' update streams, interleaved by
    // connection as the server saw them, replayed on a bare engine.  Each
    // (phase, connection) numbers its inserts from 0.
    let mut updates = Vec::new();
    for (p, phase) in [&logs, &traced].into_iter().enumerate() {
        let longest = phase.iter().map(|l| l.updates.len()).max().unwrap_or(0);
        for i in 0..longest {
            for (conn, log) in phase.iter().enumerate() {
                if let Some(u) = log.updates.get(i) {
                    updates.push((p * CONNECTIONS + conn, u.clone()));
                }
            }
        }
    }
    replay(&s.raw, &renumber(&updates), &s.lookups, report);
    write_trace("tcp-lookup-write", &s.server.handle().traces());
    report.finish_layers();
}

/// Maps `DeleteInsert(n)` of stream `key` (that stream's `n`-th insert) to
/// the index of that insert in the merged stream.
fn renumber(updates: &[(usize, Update)]) -> Vec<Update> {
    let mut per_key: Vec<Vec<usize>> = Vec::new();
    let mut global = 0;
    let mut out = Vec::with_capacity(updates.len());
    for (key, u) in updates {
        if per_key.len() <= *key {
            per_key.resize(key + 1, Vec::new());
        }
        match u {
            Update::Insert(v) => {
                per_key[*key].push(global);
                global += 1;
                out.push(Update::Insert(v.clone()));
            }
            Update::DeleteInsert(n) => out.push(Update::DeleteInsert(per_key[*key][*n])),
            Update::DeleteOriginal(id) => out.push(Update::DeleteOriginal(*id)),
        }
    }
    out
}

/// Frame sizes and codec cost of the requests and responses of the traced
/// phase, re-encoded and re-decoded outside the loop.
fn wire_layers(all: &[&Done], report: &mut Report) {
    let mut req_bytes = Vec::new();
    let mut resp_bytes = Vec::new();
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    const REPS: u32 = 20;
    for done in all {
        let Some(response) = &done.response else {
            continue;
        };
        let t = Instant::now();
        let mut req = Vec::new();
        let mut resp = Vec::new();
        for _ in 0..REPS {
            req = std::hint::black_box(done.request.encode());
            resp = std::hint::black_box(response.encode());
        }
        encode_us.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(WireRequest::decode(std::hint::black_box(&req)));
            std::hint::black_box(WireResponse::decode(std::hint::black_box(&resp)));
        }
        decode_us.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
        // Four bytes of length prefix per frame.
        req_bytes.push((req.len() + 4) as f64);
        resp_bytes.push((resp.len() + 4) as f64);
    }
    report.layer("wire.request_bytes", mean(&req_bytes), req_bytes.len());
    report.layer("wire.response_bytes", mean(&resp_bytes), resp_bytes.len());
    report.layer("wire.encode_us", median(&encode_us), encode_us.len());
    report.layer("wire.decode_us", median(&decode_us), decode_us.len());
}
