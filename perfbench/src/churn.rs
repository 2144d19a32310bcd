//! `standing-churn`: one in-process `ServeHandle` caller against a durable
//! 4-shard server holding 8 standing LP-CTA queries.  Each step inserts a
//! fresh record, deletes a record (alternately a seeded original, which
//! may be a skyband member and force re-runs, and this caller's oldest
//! live insert, so n stays constant), and runs one exact lookup that waits
//! behind the maintenance pass in the shared dispatcher.  The same LP and
//! engine code as `adhoc-lpcta`, used incrementally through monitor
//! patching, re-runs and WAL replay; the wire is bypassed.  The measured
//! window is split into 10 episodes, each on a fresh server.
//!
//! At the end the data directory is copied while the server still runs
//! (a crash after the last acknowledgement) and `Server::recover` is timed
//! on the copy; the recovered server must hold the 8 standing queries and
//! answer every standing focal bit for bit as before.

use crate::calib::{repeat_setup, Adjust, Meter};
use crate::check::{candidates, exact_agrees, fingerprint, self_test, Sample};
use crate::layers::{engine_layers, replay, serve_layers, write_trace};
use crate::report::{mix, ratio, shuffle, Latencies, Report};
use crate::serving::{self, config, Fresh, Update};
use crate::{Run, D, DATA_SEED, K, N, SETUPS};
use kspr::{Algorithm, KsprResult, QueryStats};
use kspr_bench::Workload;
use kspr_datagen::Distribution;
use kspr_durable::{DurableStore, WalRecord};
use kspr_monitor::Monitor;
use kspr_serve::{ServeHandle, ServeOptions, Server, ShardedEngine, Subscription, TraceId};
use kspr_spatial::{dominates, k_skyband, Record};
use kspr_telemetry::RequestTrace;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const STANDING: usize = 8;
const LOOKUPS: usize = 64;

struct Setup {
    // Held only to keep the standing queries registered (dropping a
    // subscription unregisters it); dropped before the server.
    _subs: Vec<Subscription>,
    server: Server,
    dir: PathBuf,
    raw: Vec<Vec<f64>>,
    standing: Vec<Vec<f64>>,
    lookups: Vec<Vec<f64>>,
    /// Original record ids in the order the run deletes them.
    victims: Vec<u64>,
    /// The initial dataset, to tell competitive fresh records apart.
    probe: ShardedEngine,
    /// One in `every` deleted originals and inserted records is
    /// competitive: the k-skyband's share of the dataset.
    every: usize,
}

fn setup(seed: u64, dir: PathBuf) -> Setup {
    let raw = kspr_datagen::generate(Distribution::Independent, N, D, DATA_SEED);
    let workload = Workload::from_raw("IND", raw.clone(), K);
    // Standing focals come from the same band of the competitive pool as
    // `adhoc-lpcta`'s, for the same reason: a focal with 1-3 dominators
    // costs seconds per re-run and 8 of them would make every run differ.
    let probe = ShardedEngine::new(raw.clone(), config());
    let mut band: Vec<Vec<f64>> = workload
        .focal_pool
        .iter()
        .map(|&r| raw[r].clone())
        .filter(|f| probe.count_dominating(f, K) >= K / 2 - 1)
        .collect();
    shuffle(&mut band, mix(DATA_SEED, 0x57A4));
    band.truncate(STANDING);
    let lookups = workload.lookup_focals(LOOKUPS);
    let (victims, every) = victims(&raw, &band, seed);

    let server = serving::start(&raw, &dir);
    let handle = server.handle();
    let subs = band
        .iter()
        .map(|f| {
            handle
                .subscribe_with(Algorithm::LpCta, f.clone(), K)
                .wait()
                .expect("a standing query registers")
        })
        .collect();
    Setup {
        _subs: subs,
        server,
        dir,
        raw,
        standing: band,
        lookups,
        victims,
        probe,
        every,
    }
}

/// The original records the run deletes, in order, and the stratum period:
/// a seeded shuffle, stratified so k-skyband members come at the dataset's
/// own rate (deleting one forces re-runs of the standing queries it
/// competes in, about 15x the cost of another delete; left to chance,
/// their count per run would set its throughput).  A standing focal's
/// dominators are never deleted: that would move the focal into the 1-3
/// dominator band for the rest of the run and multiply its re-run cost.
fn victims(raw: &[Vec<f64>], standing: &[Vec<f64>], seed: u64) -> (Vec<u64>, usize) {
    let skyband: HashSet<usize> = k_skyband(&Record::from_raw(raw.to_vec()), K)
        .into_iter()
        .collect();
    let (mut band, mut rest): (Vec<u64>, Vec<u64>) = (0..raw.len())
        .filter(|&id| !standing.iter().any(|f| dominates(&raw[id], f)))
        .map(|id| id as u64)
        .partition(|&id| skyband.contains(&(id as usize)));
    shuffle(&mut band, mix(seed, 0xDE1));
    shuffle(&mut rest, mix(seed, 0xDE2));
    let every = (band.len() + rest.len()) / band.len().max(1);
    let mut band = band.into_iter();
    let mut rest = rest.into_iter();
    let mut out = Vec::with_capacity(raw.len());
    for i in 0.. {
        let next = if i % every == every - 1 {
            band.next().or_else(|| rest.next())
        } else {
            rest.next().or_else(|| band.next())
        };
        match next {
            Some(id) => out.push(id),
            None => break,
        }
    }
    (out, every)
}

/// Fresh records from the data distribution, reordered so one in `every`
/// is competitive (fewer than k dominators in the initial dataset), like
/// the deleted originals: inserting or later deleting a competitive record
/// forces re-runs, and left to chance their count per run would set its
/// throughput.
struct StratifiedFresh<'a> {
    fresh: Fresh,
    probe: &'a ShardedEngine,
    every: usize,
    n: usize,
    competitive: VecDeque<Vec<f64>>,
    rest: VecDeque<Vec<f64>>,
}

impl StratifiedFresh<'_> {
    fn next_record(&mut self) -> Vec<f64> {
        let want = self.n % self.every == self.every - 1;
        self.n += 1;
        loop {
            let queue = if want {
                &mut self.competitive
            } else {
                &mut self.rest
            };
            if let Some(values) = queue.pop_front() {
                return values;
            }
            let values = self.fresh.next_record();
            if self.probe.count_dominating(&values, K) < K {
                self.competitive.push_back(values);
            } else {
                self.rest.push_back(values);
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Insert,
    Delete,
    Query,
}

/// What one phase did.
#[derive(Default)]
struct Log {
    /// `(class, latency, ok)` per op.
    ops: Vec<(Class, Duration, bool)>,
    updates: Vec<Update>,
    /// Statistics of the exact lookups.
    stats: Vec<QueryStats>,
    /// Wall time of the operations.
    elapsed: Duration,
    adjust: Adjust,
}

fn measure(s: &Setup, seed: u64, window: Duration, traced: bool) -> Log {
    let handle = s.server.handle();
    let mut fresh = StratifiedFresh {
        fresh: Fresh::new(mix(seed, 0xF2E5)),
        probe: &s.probe,
        every: s.every,
        n: 0,
        competitive: VecDeque::new(),
        rest: VecDeque::new(),
    };
    let mut log = Log::default();
    let mut step = 0u64;
    let mut next_victim = s.victims.iter();
    // This caller's live inserts, oldest first: `(id, insert number)`.
    let mut live: VecDeque<(u64, usize)> = VecDeque::new();
    let mut inserts = 0;
    let mut meter = Meter::start();
    let trace = |id: u64| {
        if traced {
            RequestTrace::traced(TraceId(id), true)
        } else {
            RequestTrace::start()
        }
    };
    while meter.elapsed() < window {
        step += 1;
        let id = step << 2;

        let values = fresh.next_record();
        let t = Instant::now();
        let inserted = handle.insert_trace(values.clone(), trace(id)).wait();
        log.ops.push((Class::Insert, t.elapsed(), inserted.is_ok()));
        if let Ok(record) = inserted {
            live.push_back((record as u64, inserts));
            log.updates.push(Update::Insert(values));
            inserts += 1;
        }

        let original = if step.is_multiple_of(2) {
            next_victim.next()
        } else {
            None
        };
        let (victim, update) = match original {
            Some(&id) => (Some(id), Update::DeleteOriginal(id)),
            None => match live.pop_front() {
                Some((id, n)) => (Some(id), Update::DeleteInsert(n)),
                None => (None, Update::DeleteOriginal(0)),
            },
        };
        if let Some(victim) = victim {
            let t = Instant::now();
            let removed = handle
                .delete_trace(victim as kspr::RecordId, trace(id + 1))
                .wait();
            let ok = removed == Ok(true);
            log.ops.push((Class::Delete, t.elapsed(), ok));
            if ok {
                log.updates.push(update);
            }
        }

        let focal = s.lookups[(mix(seed, step) % s.lookups.len() as u64) as usize].clone();
        let t = Instant::now();
        let answer = handle
            .submit_with_trace(Algorithm::LpCta, focal, K, trace(id + 2))
            .wait();
        let latency = t.elapsed();
        let ok = matches!(&answer, Ok(r) if r.is_empty());
        log.ops.push((Class::Query, latency, ok));
        if let Ok(result) = answer {
            log.stats.push(result.stats);
        }
        meter.tick();
    }
    log.elapsed = meter.elapsed();
    log.adjust = meter.finish(false);
    log
}

fn latencies(log: &Log, classes: &[Class]) -> Latencies {
    let mut lat = Latencies::default();
    for &(class, d, _) in &log.ops {
        if classes.contains(&class) {
            lat.push(d);
        }
    }
    lat
}

fn tally(log: &Log, report: &mut Report) {
    report.attempted += log.ops.len() as u64;
    report.failed += log.ops.iter().filter(|(_, _, ok)| !ok).count() as u64;
}

/// The current exact answer of every standing focal.
fn standing_answers(handle: &ServeHandle, focals: &[Vec<f64>]) -> Vec<Option<KsprResult>> {
    focals
        .iter()
        .map(|f| {
            handle
                .submit_with(Algorithm::LpCta, f.clone(), K)
                .wait()
                .ok()
        })
        .collect()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Independent episodes per measured phase, each on a fresh server from
/// the same deployment.  A run's cost drifts with its own history (which
/// competitive records it has inserted and deleted so far), so one long
/// trajectory differs from seed to seed by more than several short ones.
const EPISODES: u32 = 10;

/// Runs one measured phase as [`EPISODES`] episodes, numbered from
/// `first`, the first on `fresh` if given; returns the last episode's
/// server (the one that "crashes") and the merged log, whose `updates` are
/// the last episode's.
fn phase(run: &Run, mut fresh: Option<Setup>, first: u32, traced: bool) -> (Setup, Log) {
    let mut all = Log::default();
    let mut last = None;
    for episode in first..first + EPISODES {
        let seed = mix(run.seed, u64::from(episode));
        drop(last.take());
        let s = fresh
            .take()
            .unwrap_or_else(|| setup(seed, run.scratch.join(format!("episode-{episode}"))));
        let log = measure(&s, seed, run.phase() / EPISODES, traced);
        all.ops.extend(log.ops);
        all.stats.extend(log.stats);
        all.elapsed += log.elapsed;
        all.adjust.add(&log.adjust);
        all.updates = log.updates;
        last = Some(s);
    }
    (last.expect("at least one episode"), all)
}

pub fn run(run: &Run, report: &mut Report) {
    report.trace = run.trace;
    let mut n = 0;
    let (s, setups) = repeat_setup(SETUPS, || {
        n += 1;
        setup(mix(run.seed, 0), run.scratch.join(format!("churn-{n}")))
    });
    let (s, untraced) = phase(run, Some(s), 0, false);
    tally(&untraced, report);
    let adjust = untraced.adjust;
    report.query_latency(&latencies(&untraced, &[Class::Query]), &adjust);
    report.common(
        &setups,
        untraced.ops.len() as u64,
        untraced.elapsed,
        &adjust,
    );
    let update = latencies(&untraced, &[Class::Insert, Class::Delete]);
    let update_p50 = adjust.time(update.quantile_ms(0.5));
    let update_p90 = adjust.time(update.quantile_ms(0.9));
    report.detail("update_p50_ms", update_p50, "ms", update.len());
    report.detail("update_p90_ms", update_p90, "ms", update.len());

    let (s, traced) = if run.trace {
        drop(s);
        let (s, traced) = phase(run, None, EPISODES, true);
        tally(&traced, report);
        (s, Some(traced))
    } else {
        (s, None)
    };
    // The history of the server that crashes.
    let history = traced.as_ref().unwrap_or(&untraced).updates.clone();

    // Crash: copy the directory while the server still runs, after every
    // acknowledged update is committed.
    let handle = s.server.handle();
    let before = standing_answers(&handle, &s.standing);
    let copies = [run.scratch.join("crash-1"), run.scratch.join("crash-2")];
    for copy in &copies {
        if let Err(err) = copy_dir(&s.dir, copy) {
            report.check(false, format!("copying the data directory failed: {err}"));
            return;
        }
    }
    let t = Instant::now();
    let recovered = Server::recover(&copies[0], config(), ServeOptions::default());
    let recover_s = t.elapsed().as_secs_f64();
    report.detail("recover_s", recover_s, "s", 1);
    match &recovered {
        Ok(server) => {
            let h = server.handle();
            let subs = h.subscriptions().wait();
            report.check(
                subs == Ok(STANDING),
                format!("recovered {subs:?} standing queries"),
            );
            let after = standing_answers(&h, &s.standing);
            for (i, (b, a)) in before.iter().zip(&after).enumerate() {
                let same = matches!((b, a), (Some(b), Some(a)) if fingerprint(b) == fingerprint(a));
                report.check(
                    same,
                    format!("standing focal {i} answers differently after recovery"),
                );
            }
            // The standing answers themselves are checked against the oracle
            // over the live record set.
            let live = candidates(&live_records(&s.raw, &history), K);
            for (i, (b, f)) in before.iter().zip(&s.standing).enumerate() {
                let ok = b
                    .as_ref()
                    .is_some_and(|b| exact_agrees(b, &live, f, K, mix(run.seed, i as u64)));
                report.check(ok, format!("standing focal {i} disagrees with the oracle"));
            }
            let answered = || {
                before
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| Some((i, r.as_ref()?.num_regions())))
            };
            let sample = |i: usize| Sample {
                result: before[i].as_ref().expect("an answered focal"),
                records: &live,
                focal: &s.standing[i],
            };
            let smallest = answered().min_by_key(|&(_, n)| n).map(|(i, _)| i);
            let largest = answered()
                .max_by_key(|&(_, n)| n)
                .filter(|&(_, n)| n > 0)
                .map(|(i, _)| i);
            for missed in self_test(smallest.map(sample), largest.map(sample)) {
                report.check(false, format!("self-test: {missed}"));
            }
        }
        Err(err) => report.check(false, format!("recovery failed: {err}")),
    }
    drop(recovered);
    if !run.trace {
        return;
    }
    let traced = traced.expect("traced runs measure a traced phase");

    serve_layers(&handle, report);
    report.layer("serve.update_p50_ms", update_p50, update.len());
    report.layer("serve.update_p90_ms", update_p90, update.len());
    engine_layers(&traced.stats, report);
    report.layer("durable.recover_s", recover_s, 1);
    recovery_parts(&copies[1], report);
    // Both at nominal host speed: the phases ran at different times.
    let query = adjust.time(latencies(&untraced, &[Class::Query]).quantile_ms(0.5));
    let traced_query = latencies(&traced, &[Class::Query]);
    let traced_p50 = traced.adjust.time(traced_query.quantile_ms(0.5));
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
    // The lookups' engine statistics are reported above; the replay only
    // times the spatial layer's inserts and deletes.
    replay(&s.raw, &history, &[], report);
    write_trace("standing-churn", &handle.traces());
    report.finish_layers();
}

/// The record set after `updates`, for the oracle.
fn live_records(raw: &[Vec<f64>], updates: &[Update]) -> Vec<Vec<f64>> {
    let mut slots: Vec<Option<Vec<f64>>> = raw.iter().cloned().map(Some).collect();
    let mut inserted = Vec::new();
    for u in updates {
        match u {
            Update::Insert(v) => {
                inserted.push(slots.len());
                slots.push(Some(v.clone()));
            }
            Update::DeleteInsert(n) => slots[inserted[*n]] = None,
            Update::DeleteOriginal(id) => slots[*id as usize] = None,
        }
    }
    slots.into_iter().flatten().collect()
}

/// Times the public calls recovery is made of, on a second copy of the
/// crashed directory: snapshot + WAL load, engine rebuild from the
/// snapshot's slots, WAL replay, and standing-query re-registration.
fn recovery_parts(dir: &Path, report: &mut Report) {
    let t = Instant::now();
    let loaded = DurableStore::open(dir)
        .map_err(|e| e.to_string())
        .and_then(|s| s.load().map_err(|e| e.to_string()));
    let load_s = t.elapsed().as_secs_f64();
    let recovered = match loaded {
        Ok(r) => r,
        Err(err) => return report.check(false, format!("loading the crash copy failed: {err}")),
    };
    let Some(snapshot) = recovered.snapshot else {
        return report.check(false, "the crash copy has no snapshot");
    };
    let t = Instant::now();
    let mut engine = ShardedEngine::from_slots(
        snapshot.dim,
        config(),
        snapshot.num_shards,
        snapshot.next_shard,
        &snapshot.shard_epochs,
        &snapshot.slots,
    );
    let rebuild_s = t.elapsed().as_secs_f64();
    let mut registrations: BTreeMap<u64, (Algorithm, Vec<f64>, usize)> = snapshot
        .registrations
        .into_iter()
        .map(|r| (r.id, (r.algorithm, r.focal, r.k)))
        .collect();
    let records = recovered.wal.len();
    let t = Instant::now();
    let mut diverged = 0;
    for record in recovered.wal {
        match record {
            WalRecord::Insert { id, values } => {
                diverged += usize::from(engine.insert(values) != id)
            }
            WalRecord::Delete { id } => diverged += usize::from(!engine.delete(id)),
            WalRecord::Subscribe {
                id,
                algorithm,
                focal,
                k,
            } => {
                registrations.insert(id, (algorithm, focal, k));
            }
            WalRecord::Unsubscribe { id } => {
                registrations.remove(&id);
            }
        }
    }
    let replay_s = t.elapsed().as_secs_f64();
    report.check(
        diverged == 0,
        format!("{diverged} WAL records replayed differently"),
    );
    let t = Instant::now();
    let mut monitor = Monitor::new();
    for (id, (algorithm, focal, k)) in registrations {
        let ok = monitor
            .register_at(&engine, id, algorithm, focal, k)
            .is_ok();
        report.check(ok, format!("standing query {id} did not re-register"));
    }
    let reregister_s = t.elapsed().as_secs_f64();
    report.layer("durable.load_s", load_s, 1);
    report.layer("durable.rebuild_s", rebuild_s, 1);
    report.layer("durable.replay_s", replay_s, 1);
    report.layer("durable.replay_records", records as f64, 1);
    report.layer(
        "durable.replay_us_per_record",
        ratio(replay_s * 1e6, records as f64),
        records,
    );
    report.layer("monitor.reregister_s", reregister_s, monitor.len());
}
