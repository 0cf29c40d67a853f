//! End-to-end tests for the `lma-serve` server over real loopback TCP:
//! digest parity with the committed goldens, one run per coalesced group,
//! the coalescing door's rule, multi-group windows on one executor and on
//! the pool, typed admission failures, malformed-frame isolation, deadline
//! budgets, and drain semantics.

use lma_bench::scenarios::LockFile;
use lma_serve::proto::{code, write_frame, RequestBody, ResponseBody, RunSpec, StatsReport};
use lma_serve::replay::Client;
use lma_serve::server::{ServerConfig, TcpServer};
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

fn boot(config: ServerConfig) -> (TcpServer, Client) {
    let tcp = TcpServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let client = Client::connect(tcp.addr()).expect("connect");
    (tcp, client)
}

fn run_spec(workload: &str, family: &str, n: usize, seed: u64) -> RunSpec {
    RunSpec {
        workload: workload.to_string(),
        family: family.to_string(),
        n,
        seed,
        backing: "inline".to_string(),
        threads: 0,
        round_limit: None,
        deadline_ms: None,
    }
}

fn golden_digest(id: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SCENARIOS.lock");
    let lock =
        LockFile::parse(&std::fs::read_to_string(path).expect("lock file")).expect("lock parses");
    lock.get(id).expect("scenario in lock").digest.to_string()
}

fn stats(client: &mut Client) -> StatsReport {
    match client.call(RequestBody::Stats).expect("stats").body {
        ResponseBody::Stats(stats) => stats,
        other => panic!("expected Stats, got {other:?}"),
    }
}

fn shutdown(mut client: Client, tcp: TcpServer) -> u64 {
    client.send(RequestBody::Shutdown).expect("send shutdown");
    let completed = loop {
        match client.recv().expect("await Bye").body {
            ResponseBody::Bye(completed) => break completed,
            _ => continue,
        }
    };
    tcp.join();
    completed
}

#[test]
fn served_digests_match_the_committed_goldens() {
    let (tcp, mut client) = boot(ServerConfig::default());
    match client.call(RequestBody::Ping).expect("ping").body {
        ResponseBody::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }
    // Two runs of the same scenario: both must reproduce the golden, and
    // the second hits every cache.
    let golden = golden_digest("flood/ring/n48/s11");
    for _ in 0..2 {
        let response = client
            .call(RequestBody::Run(run_spec("flood", "ring", 48, 11)))
            .expect("run");
        match response.body {
            ResponseBody::Done(report) => {
                assert_eq!(report.digest, golden, "served digest must match the lock");
                assert_eq!(report.lanes, 1);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
    let stats = stats(&mut client);
    assert_eq!(stats.served, 2);
    assert_eq!(stats.graph_hits, 1, "second run must reuse the graph");
    assert_eq!(stats.oracle_hits, 1, "second run must reuse the oracle");
    assert_eq!(shutdown(client, tcp), 2);
}

#[test]
fn coalesced_batches_reproduce_the_solo_digest() {
    let depth = 4;
    let (tcp, mut client) = boot(ServerConfig {
        max_batch: depth,
        ..ServerConfig::default()
    });
    let golden = golden_digest("wave/ring/n48/s81");
    for _ in 0..depth {
        client
            .send(RequestBody::Run(run_spec("wave", "ring", 48, 81)))
            .expect("send");
    }
    let mut widths = Vec::new();
    for _ in 0..depth {
        match client.recv().expect("recv").body {
            ResponseBody::Done(report) => {
                assert_eq!(
                    report.digest, golden,
                    "coalesced digest must match the lock"
                );
                widths.push(report.lanes);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
    // The burst may be split across dispatch windows, but any request that
    // rode a wider group must still have folded the same bytes.
    assert!(
        widths.iter().all(|&w| w >= 1 && w as usize <= depth),
        "group widths out of range: {widths:?}"
    );
    shutdown(client, tcp);
}

/// Pipelines `width` identical requests into a server whose dispatcher
/// waits for the whole burst, and checks that one run answered them all:
/// every reply carries the golden digest and the group width, and the
/// group-width histogram records a single group.
fn one_run_answers_a_pipelined_group(id: &str, spec: RunSpec) {
    let width = 5;
    let (tcp, mut client) = boot(ServerConfig {
        max_batch: width,
        // The door stays open until the burst is whole, so the group
        // cannot split across dispatch windows.
        coalesce_window: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let golden = golden_digest(id);
    for _ in 0..width {
        client.send(RequestBody::Run(spec.clone())).expect("send");
    }
    for _ in 0..width {
        match client.recv().expect("recv").body {
            ResponseBody::Done(report) => {
                assert_eq!(
                    report.digest, golden,
                    "{id}: served digest must match the lock"
                );
                assert_eq!(report.lanes as usize, width, "{id}: group width");
            }
            other => panic!("{id}: expected Done, got {other:?}"),
        }
    }
    let stats = stats(&mut client);
    assert_eq!(stats.served, width as u64, "{id}");
    assert_eq!(stats.coalesced, width as u64, "{id}");
    assert_eq!(
        stats.batch_widths,
        vec![(width as u32, 1)],
        "{id}: one group, hence one run"
    );
    assert_eq!(shutdown(client, tcp), width as u64);
}

#[test]
fn one_run_answers_a_coalesced_ghs_group() {
    // GHS is a multi-stage pipeline, not a single fleet run.
    one_run_answers_a_pipelined_group(
        "ghs-boruvka/ring/n16/s31",
        run_spec("ghs-boruvka", "ring", 16, 31),
    );
}

#[test]
fn one_run_answers_a_coalesced_fleet_group() {
    one_run_answers_a_pipelined_group(
        "flood/preferential-attachment/n64/s12",
        run_spec("flood", "preferential-attachment", 64, 12),
    );
}

/// A client with one request in flight: a fresh server's first window waits
/// out `coalesce_window` for a burst that never comes, and every later
/// window closes as soon as the one request the last window predicts is
/// queued.
#[test]
fn a_lone_client_waits_out_only_the_first_window() {
    let window = Duration::from_millis(200);
    let (tcp, mut client) = boot(ServerConfig {
        coalesce_window: window,
        ..ServerConfig::default()
    });
    let golden = golden_digest("flood/ring/n48/s11");
    for request in 0..11 {
        let response = client
            .call(RequestBody::Run(run_spec("flood", "ring", 48, 11)))
            .expect("run");
        let ResponseBody::Done(report) = response.body else {
            panic!("request {request}: expected Done, got {:?}", response.body);
        };
        assert_eq!(report.digest, golden, "served digest must match the lock");
        assert_eq!(report.lanes, 1);
        assert!(
            report.prepare_ns <= report.queue_ns,
            "prepare is queue's tail"
        );
        let wait = Duration::from_nanos(report.queue_ns - report.prepare_ns);
        if request == 0 {
            assert!(wait >= window, "the first window waits for a burst");
        } else {
            assert!(
                Duration::from_nanos(report.queue_ns) < Duration::from_millis(100),
                "request {request} sat {wait:?} at the door"
            );
        }
    }
    let stats = stats(&mut client);
    assert_eq!(stats.door_window, 1, "only the first window times out");
    assert_eq!(stats.door_expected, 10);
    assert_eq!((stats.door_full, stats.door_drain), (0, 0));
    assert_eq!(shutdown(client, tcp), 11);
}

/// Two pipelined bursts of `max_batch`, one after the other: the second
/// window expects as many jobs as the first took, so it collects its burst
/// whole too.
#[test]
fn a_burst_after_a_same_width_burst_still_forms_one_group() {
    let width = 4;
    let (tcp, mut client) = boot(ServerConfig {
        max_batch: width,
        coalesce_window: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let golden = golden_digest("wave/ring/n48/s81");
    for _ in 0..2 {
        for _ in 0..width {
            client
                .send(RequestBody::Run(run_spec("wave", "ring", 48, 81)))
                .expect("send");
        }
        for _ in 0..width {
            match client.recv().expect("recv").body {
                ResponseBody::Done(report) => {
                    assert_eq!(report.digest, golden, "served digest must match the lock");
                    assert_eq!(report.lanes as usize, width, "group width");
                }
                other => panic!("expected Done, got {other:?}"),
            }
        }
    }
    let stats = stats(&mut client);
    assert_eq!(
        stats.batch_widths,
        vec![(width as u32, 2)],
        "one group per burst"
    );
    assert_eq!(stats.door_full, 2);
    assert_eq!(shutdown(client, tcp), 2 * width as u64);
}

/// Pipelines two copies each of four identities into a server whose
/// dispatcher waits for all eight, so one window holds four groups of
/// width 2.  With `workers` 1 the dispatcher runs them one after another;
/// with `workers` 2 it runs them together with a helper.  Either way every
/// reply carries its golden digest, the window costs four runs, and the
/// executor gauges read idle once every reply is in.
fn a_multi_group_window_answers_every_member(workers: usize) {
    let identities = [
        ("flood", "ring", 48, 11),
        ("ghs-boruvka", "ring", 16, 31),
        ("scheme-trivial", "ring", 32, 54),
        ("wave", "ring", 48, 81),
    ];
    let (tcp, mut client) = boot(ServerConfig {
        workers,
        max_batch: 8,
        // The door stays open until all eight requests are queued.
        coalesce_window: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let mut expected: HashMap<u64, (String, String)> = HashMap::new();
    for _ in 0..2 {
        for (workload, family, n, seed) in identities {
            let id = format!("{workload}/{family}/n{n}/s{seed}");
            let sent = client
                .send(RequestBody::Run(run_spec(workload, family, n, seed)))
                .expect("send");
            expected.insert(sent, (golden_digest(&id), id));
        }
    }
    while !expected.is_empty() {
        let response = client.recv().expect("recv");
        let (golden, id) = expected
            .remove(&response.id)
            .expect("one reply per request");
        match response.body {
            ResponseBody::Done(report) => {
                assert_eq!(
                    report.digest, golden,
                    "{id}: served digest must match the lock"
                );
                assert_eq!(report.lanes, 2, "{id}: group width");
            }
            other => panic!("{id}: expected Done, got {other:?}"),
        }
    }
    let stats = stats(&mut client);
    assert_eq!(stats.batch_widths, vec![(2, 4)], "four groups, four runs");
    assert_eq!(stats.executors, workers as u64);
    assert_eq!(stats.queue_depth, 0, "every request was answered");
    assert_eq!(stats.in_flight_groups, 0, "every group was answered");
    assert_eq!(shutdown(client, tcp), 8);
}

#[test]
fn a_multi_group_window_on_one_executor() {
    a_multi_group_window_answers_every_member(1);
}

#[test]
fn a_multi_group_window_on_the_executor_pool() {
    a_multi_group_window_answers_every_member(2);
}

#[test]
fn admission_failures_are_typed_and_isolated() {
    let (tcp, mut client) = boot(ServerConfig::default());
    let cases = [
        (
            run_spec("no-such-workload", "ring", 8, 1),
            code::UNKNOWN_WORKLOAD,
        ),
        (
            run_spec("flood", "no-such-family", 8, 1),
            code::UNKNOWN_FAMILY,
        ),
        (
            RunSpec {
                backing: "punchcards".to_string(),
                ..run_spec("flood", "ring", 8, 1)
            },
            code::UNKNOWN_BACKING,
        ),
        // The retired tagged-cell backing is refused like any unknown name.
        (
            RunSpec {
                backing: "hybrid".to_string(),
                ..run_spec("flood", "ring", 8, 1)
            },
            code::UNKNOWN_BACKING,
        ),
        (run_spec("flood", "ring", 0, 1), code::BAD_REQUEST),
        (
            RunSpec {
                threads: 4096,
                ..run_spec("flood", "ring", 8, 1)
            },
            code::BAD_REQUEST,
        ),
    ];
    for (spec, expected) in cases {
        match client.call(RequestBody::Run(spec)).expect("call").body {
            ResponseBody::Failed(report) => assert_eq!(report.code, expected),
            other => panic!("expected Failed({expected}), got {other:?}"),
        }
    }
    // The connection and the server survived every refusal.
    let golden = golden_digest("flood/ring/n48/s11");
    match client
        .call(RequestBody::Run(run_spec("flood", "ring", 48, 11)))
        .expect("call")
        .body
    {
        ResponseBody::Done(report) => assert_eq!(report.digest, golden),
        other => panic!("expected Done, got {other:?}"),
    }
    shutdown(client, tcp);
}

#[test]
fn malformed_frames_get_bad_request_and_the_stream_survives() {
    let (tcp, client) = boot(ServerConfig::default());
    // Talk raw bytes on a second connection: a frame whose payload is
    // garbage must be answered (id 0) without desyncing the stream.
    let mut raw = TcpStream::connect(tcp.addr()).expect("connect raw");
    raw.set_nodelay(true).expect("nodelay");
    write_frame(&mut raw, &[0xee, 0xff, 0x13, 0x37]).expect("send garbage");
    let mut rd = raw.try_clone().expect("clone");
    let payload = lma_serve::proto::read_frame(&mut rd)
        .expect("read")
        .expect("a reply frame");
    let response = lma_serve::proto::Response::decode_checked(&payload).expect("decodes");
    assert_eq!(response.id, 0, "no id could be recovered");
    match response.body {
        ResponseBody::Failed(report) => assert_eq!(report.code, code::BAD_REQUEST),
        other => panic!("expected Failed, got {other:?}"),
    }
    // Same connection, now a well-formed ping: the framing held.
    let ping = lma_serve::proto::Request {
        id: 9,
        body: RequestBody::Ping,
    };
    write_frame(&mut raw, &ping.to_bytes()).expect("send ping");
    let payload = lma_serve::proto::read_frame(&mut rd)
        .expect("read")
        .expect("pong frame");
    let response = lma_serve::proto::Response::decode_checked(&payload).expect("decodes");
    assert_eq!(response.id, 9);
    assert!(matches!(response.body, ResponseBody::Pong));
    drop(raw);
    shutdown(client, tcp);
}

#[test]
fn queue_deadlines_expire_as_typed_failures() {
    let (tcp, mut client) = boot(ServerConfig::default());
    // A chunky run occupies the dispatcher while the zero-budget request
    // waits in the queue past its deadline.
    client
        .send(RequestBody::Run(run_spec("wave", "ring", 2048, 7)))
        .expect("send blocker");
    let hopeless = RunSpec {
        deadline_ms: Some(0),
        ..run_spec("flood", "ring", 48, 11)
    };
    client
        .send(RequestBody::Run(hopeless))
        .expect("send doomed");
    let mut saw_deadline = false;
    for _ in 0..2 {
        match client.recv().expect("recv").body {
            ResponseBody::Done(_) => {}
            ResponseBody::Failed(report) => {
                assert_eq!(report.code, code::DEADLINE, "{}", report.message);
                saw_deadline = true;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(saw_deadline, "the zero-budget request must expire in queue");
    shutdown(client, tcp);
}

#[test]
fn draining_refuses_new_runs_and_answers_bye() {
    let (tcp, mut client) = boot(ServerConfig::default());
    client
        .send(RequestBody::Run(run_spec("flood", "ring", 48, 11)))
        .expect("send run");
    client.send(RequestBody::Shutdown).expect("send shutdown");
    client
        .send(RequestBody::Run(run_spec("flood", "ring", 48, 11)))
        .expect("send late run");
    let (mut done, mut refused, mut byes) = (0, 0, 0);
    for _ in 0..3 {
        match client.recv().expect("recv").body {
            ResponseBody::Done(_) => done += 1,
            ResponseBody::Failed(report) => {
                assert_eq!(report.code, code::DRAINING);
                refused += 1;
            }
            ResponseBody::Bye(_) => byes += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(
        (done, refused, byes),
        (1, 1, 1),
        "queued run completes, late run is refused, shutdown gets its Bye"
    );
    tcp.join();
}
