//! One counter listing, three read surfaces: after a mixed workload on a
//! durable server, every name of `ServeStats::fields` reads the same value
//! through `ServeHandle::stats_now`, through `ServeHandle::metrics` (as
//! `kspr_<name>`), and through the wire `Stats` reply of a `NetServer`.

use kspr::{ErrorBudget, KsprConfig};
use kspr_serve::{NetServer, ServeError, ServeOptions, Server, ShardedEngine};
use kspr_wire::{WireClient, WireRequest, WireResponse};
use std::net::TcpStream;

fn demo_engine() -> ShardedEngine {
    ShardedEngine::new(
        vec![
            vec![0.3, 0.8, 0.8],
            vec![0.9, 0.4, 0.4],
            vec![0.8, 0.3, 0.4],
            vec![0.4, 0.3, 0.6],
        ],
        KsprConfig::default().with_shards(2),
    )
}

#[test]
fn every_listed_counter_reads_the_same_on_every_surface() {
    let dir = std::env::temp_dir().join(format!("kspr-stats-surfaces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = ServeOptions::default();
    options.admission.client_quota = 1;
    let server = Server::start_durable(demo_engine(), options, &dir).expect("durable server");
    let handle = server.handle();
    let focal = vec![0.5, 0.5, 0.7];

    // Exact and approximate queries, an insert and a delete.
    handle.submit(focal.clone(), 2).wait().expect("exact query");
    handle
        .submit_approx(focal.clone(), 2, ErrorBudget::new(0.1, 0.9))
        .wait()
        .expect("approximate query");
    let id = handle.insert(vec![0.6, 0.6, 0.6]).wait().expect("insert");
    assert_eq!(handle.delete(id).wait(), Ok(true));

    // A `k = 0` reject.
    assert_eq!(
        handle.submit(focal.clone(), 0).wait().unwrap_err(),
        ServeError::InvalidK
    );

    // A quota reject: hold the dispatcher busy so both queries are stamped
    // while queued; the second exceeds the client's in-flight quota of 1.
    let blocker = handle.subscribe_approx(vec![0.95, 0.95, 0.95], 1, ErrorBudget::new(0.002, 0.99));
    let first = handle.submit(focal.clone(), 2);
    let second = handle.submit(focal.clone(), 2);
    assert!(first.wait().is_ok(), "within quota");
    assert_eq!(second.wait().unwrap_err(), ServeError::QuotaExceeded);
    drop(blocker.wait().expect("approximate subscribe"));

    // A subscribe, then an update it observes.
    let sub = handle.subscribe(focal, 2).wait().expect("subscribe");
    handle.insert(vec![0.7, 0.7, 0.7]).wait().expect("insert");
    // A serialized request is a barrier: the maintenance pass (and its
    // notification counters) finished before it is answered.
    assert_eq!(handle.subscriptions().wait(), Ok(1));

    let net = NetServer::bind(handle.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut client =
        WireClient::new(TcpStream::connect(net.local_addr()).expect("loopback connect"));
    let WireResponse::Stats { fields: wire } = client.call(&WireRequest::Stats).expect("stats")
    else {
        panic!("expected a stats reply");
    };
    let stats = handle.stats_now();
    let metrics = handle.metrics();

    let listing = stats.fields();
    assert_eq!(
        wire, listing,
        "the wire reply is the whole listing, in order"
    );
    for (name, value) in &listing {
        let series = format!("kspr_{name}");
        let exported = metrics.counter(&series).or_else(|| metrics.gauge(&series));
        assert_eq!(exported, Some(*value), "metrics() disagrees on {series}");
    }

    // The workload reached the counters it was built to exercise.
    assert_eq!(stats.rejected, stats.rejections.total());
    assert_eq!(stats.rejections.invalid_k, 1);
    assert_eq!(stats.rejections.quota_exceeded, 1);
    assert_eq!((stats.exact_queries, stats.approx_queries), (2, 1));
    assert_eq!(stats.updates, 3);
    assert_eq!(stats.subscriptions, 1);
    assert_eq!(stats.approx_subscriptions, 1);
    assert_eq!(
        stats.wal_commits, 4,
        "three one-update batches and the subscribe"
    );

    drop(client);
    drop(sub);
    net.stop();
    let (_, final_stats) = server.shutdown();
    assert_eq!(final_stats.queries, stats.queries);
    let _ = std::fs::remove_dir_all(&dir);
}
