//! End-to-end exercises of the network front-end over real loopback
//! sockets: bit-identical results vs in-process execution, typed error
//! statuses, metrics scrapes mid-load, weighted-fair shedding, the
//! connection cap, and a graceful drain that loses zero accepted
//! requests.

use pic_net::{FairnessConfig, MatmulWire, NetClient, NetConfig, NetError, NetServer};
use pic_runtime::{
    AdmissionPolicyKind, Runtime, RuntimeConfig, TileExecutor, TileShape, TiledMatrix,
};
use pic_tensor::TensorCoreConfig;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn runtime() -> Runtime {
    Runtime::start(RuntimeConfig {
        core: TensorCoreConfig::small_demo(),
        devices: 2,
        queue_depth: 64,
        max_batch: 4,
        worker_queue_depth: 2,
        policy: AdmissionPolicyKind::ResidencyAware,
        max_delay: Duration::from_millis(100),
    })
}

fn matrix(out: usize, inp: usize, seed: usize) -> Arc<TiledMatrix> {
    let codes: Vec<Vec<u32>> = (0..out)
        .map(|r| (0..inp).map(|c| ((seed + r + 2 * c) % 8) as u32).collect())
        .collect();
    Arc::new(TiledMatrix::from_codes(&codes, 3, TileShape::new(4, 4)))
}

/// Two registered 8x8 models, shared with the solo replay executors.
fn models() -> Vec<Arc<TiledMatrix>> {
    vec![matrix(8, 8, 0), matrix(8, 8, 3)]
}

fn start(config: NetConfig) -> (NetServer, SocketAddr, Vec<Arc<TiledMatrix>>) {
    let models = models();
    let registry: HashMap<String, Arc<TiledMatrix>> = models
        .iter()
        .enumerate()
        .map(|(i, m)| (format!("model-{i}"), Arc::clone(m)))
        .collect();
    let server = NetServer::start(config, runtime(), registry).expect("binds loopback");
    let addr = server.local_addr();
    (server, addr, models)
}

/// Deterministic input row for (client, request) — values chosen to
/// stress the shortest-round-trip f64 printer.
fn inputs_for(c: usize, i: usize, dim: usize) -> Vec<Vec<f64>> {
    vec![(0..dim)
        .map(|j| ((c * 31 + i * 7 + j * 3) % 13) as f64 / 13.0)
        .collect()]
}

#[test]
fn eight_networked_clients_get_bit_identical_results() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 24;
    let (server, addr, models) = start(NetConfig::default());

    // (model index, inputs, reply) per request, per client.
    type Outcome = (usize, Vec<Vec<f64>>, pic_net::MatmulReply);
    let collected: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client =
                        NetClient::connect(addr, &format!("client-{c}")).expect("connects");
                    (0..PER_CLIENT)
                        .map(|i| {
                            let which = (c + i) % 2;
                            let inputs = inputs_for(c, i, 8);
                            let reply = client
                                .matmul(&MatmulWire {
                                    model: format!("model-{which}"),
                                    inputs: inputs.clone(),
                                    deadline_ms: None,
                                })
                                .expect("uncontended request succeeds");
                            (which, inputs, reply)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // Replay every request on a fresh solo executor: the wire result
    // must be bit-identical (exact f64 and code_sum equality).
    let mut solo = TileExecutor::new(TensorCoreConfig::small_demo(), 900);
    let mut checked = 0usize;
    for per_client in &collected {
        assert_eq!(per_client.len(), PER_CLIENT);
        for (which, inputs, reply) in per_client {
            let (want, _) = solo.execute(&models[*which], inputs).expect("replay");
            assert_eq!(reply.outputs, want, "wire output differs from in-process");
            assert!(reply.batched_with >= 1);
            assert!(reply.energy_j > 0.0);
            checked += 1;
        }
    }
    assert_eq!(checked, CLIENTS * PER_CLIENT);

    let rt = server.shutdown();
    let s = rt.metrics().snapshot();
    assert_eq!(
        s.completed,
        (CLIENTS * PER_CLIENT) as u64,
        "every networked request executed exactly once"
    );
}

#[test]
fn metrics_and_healthz_answer_mid_load() {
    let (server, addr, _models) = start(NetConfig::default());
    let stop = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Background load so the scrape happens while requests fly.
        for c in 0..4 {
            let stop = &stop;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr, &format!("load-{c}")).expect("connects");
                let mut i = 0usize;
                while stop.load(Ordering::Relaxed) == 0 {
                    let _ = client.matmul(&MatmulWire {
                        model: "model-0".to_owned(),
                        inputs: inputs_for(c, i, 8),
                        deadline_ms: None,
                    });
                    i += 1;
                }
            });
        }
        // Release the load threads even if an assertion below panics,
        // so the failure surfaces instead of hanging the scope join.
        struct StopGuard<'a>(&'a AtomicU64);
        impl Drop for StopGuard<'_> {
            fn drop(&mut self) {
                self.0.store(1, Ordering::Relaxed);
            }
        }
        let _release = StopGuard(&stop);

        let mut probe = NetClient::connect(addr, "probe").expect("connects");
        let health = probe.get("/healthz").expect("healthz answers");
        assert_eq!((health.status, health.text().as_str()), (200, "ok"));

        std::thread::sleep(Duration::from_millis(10));
        let scrape = probe.get("/metrics").expect("metrics answers");
        assert_eq!(scrape.status, 200);
        let text = scrape.text();
        // Every non-comment line is `series value` with a finite value —
        // i.e. the exposition parses as Prometheus text format. Series
        // are a metric name plus an optional `{le="..."}` label set on
        // histogram bucket lines.
        let mut seen = 0usize;
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (series, value) = line.rsplit_once(' ').expect("series value");
            let name = series.split('{').next().expect("metric name");
            assert!(
                !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name {series:?}"
            );
            let value: f64 = value.parse().expect("numeric sample");
            assert!(value.is_finite(), "{name} must be finite");
            seen += 1;
        }
        assert!(seen > 10, "scrape carries the runtime + net frame");
        for needle in [
            "pic_net_http_requests",
            "pic_net_conns_active",
            "pic_net_inflight",
            "pic_net_draining 0",
        ] {
            assert!(text.contains(needle), "scrape must carry {needle}\n{text}");
        }
        stop.store(1, Ordering::Relaxed);
    });
    let rt = server.shutdown();
    assert!(rt.metrics().snapshot().completed > 0, "load actually ran");
}

#[test]
fn typed_errors_cross_the_wire_with_contractual_statuses() {
    let (server, addr, _models) = start(NetConfig::default());
    let mut client = NetClient::connect(addr, "edge").expect("connects");

    // Pre-expired deadline: DOA at admission, 504 on the wire.
    let doa = client.matmul(&MatmulWire {
        model: "model-0".to_owned(),
        inputs: inputs_for(0, 0, 8),
        deadline_ms: Some(-5.0),
    });
    match doa {
        Err(NetError::Rejected { status, kind, .. }) => {
            assert_eq!((status, kind.as_str()), (504, "deadline_expired"));
        }
        other => panic!("expected a 504 rejection, got {other:?}"),
    }

    // Unknown model: 404 with a stable kind.
    let unknown = client.matmul(&MatmulWire {
        model: "no-such-model".to_owned(),
        inputs: inputs_for(0, 0, 8),
        deadline_ms: None,
    });
    match unknown {
        Err(NetError::Rejected { status, kind, .. }) => {
            assert_eq!((status, kind.as_str()), (404, "unknown_model"));
        }
        other => panic!("expected a 404 rejection, got {other:?}"),
    }

    // Malformed body, wrong method, unknown route — raw frames.
    use std::io::{BufReader, Write};
    for (raw, want_status) in [
        (
            "POST /v1/matmul HTTP/1.1\r\ncontent-length: 8\r\n\r\nnot json".to_owned(),
            400,
        ),
        ("GET /v1/matmul HTTP/1.1\r\n\r\n".to_owned(), 405),
        ("GET /no/such/route HTTP/1.1\r\n\r\n".to_owned(), 404),
    ] {
        let mut stream = std::net::TcpStream::connect(addr).expect("connects");
        stream.write_all(raw.as_bytes()).expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let response = pic_net::http::read_response(&mut reader).expect("typed reply");
        assert_eq!(response.status, want_status, "for frame {raw:?}");
    }

    // The keep-alive connection survived the typed errors.
    let ok = client.matmul(&MatmulWire {
        model: "model-1".to_owned(),
        inputs: inputs_for(1, 1, 8),
        deadline_ms: Some(10_000.0),
    });
    assert!(ok.is_ok(), "typed errors must not poison the connection");
    drop(server.shutdown());
}

#[test]
fn overload_sheds_with_retry_after() {
    let (server, addr, _models) = start(NetConfig {
        fairness: FairnessConfig {
            budget: 1,
            default_weight: 1,
            weights: Vec::new(),
        },
        ..NetConfig::default()
    });
    let oks = AtomicU64::new(0);
    let sheds = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let (oks, sheds) = (&oks, &sheds);
            scope.spawn(move || {
                // All six connections present the same client id, so a
                // 1-deep budget guarantees concurrent overlap sheds.
                let mut client = NetClient::connect(addr, "greedy").expect("connects");
                for i in 0..30 {
                    match client.matmul(&MatmulWire {
                        model: "model-0".to_owned(),
                        inputs: inputs_for(0, i, 8),
                        deadline_ms: None,
                    }) {
                        Ok(_) => {
                            oks.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(NetError::Rejected {
                            status,
                            kind,
                            retry_after_s,
                            ..
                        }) => {
                            assert_eq!(status, 429, "sheds are backpressure");
                            assert!(kind.starts_with("shed_"), "unexpected kind {kind}");
                            assert_eq!(retry_after_s, Some(1), "sheds advertise backoff");
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected failure: {other}"),
                    }
                }
            });
        }
    });
    assert_eq!(
        oks.load(Ordering::Relaxed) + sheds.load(Ordering::Relaxed),
        180
    );
    assert!(
        oks.load(Ordering::Relaxed) > 0,
        "some requests fit the budget"
    );
    assert!(
        sheds.load(Ordering::Relaxed) > 0,
        "overlap must shed at budget 1"
    );
    let standings = server.standings();
    assert_eq!(standings.len(), 1);
    assert_eq!(standings[0].client, "greedy");
    assert_eq!(
        standings[0].admitted + standings[0].shed,
        180,
        "fairness accounting covers every request"
    );
    let rt = server.shutdown();
    let s = rt.metrics().snapshot();
    assert_eq!(
        s.completed,
        oks.load(Ordering::Relaxed),
        "only admitted requests reach the runtime"
    );
}

#[test]
fn connection_cap_refuses_with_503_at_accept() {
    let (server, addr, _models) = start(NetConfig {
        max_connections: 1,
        ..NetConfig::default()
    });
    // Occupy the single slot with a live keep-alive connection.
    let mut first = NetClient::connect(addr, "holder").expect("connects");
    assert_eq!(first.get("/healthz").expect("served").status, 200);
    // The next connection is refused at accept with a typed 503.
    use std::io::BufReader;
    let second = std::net::TcpStream::connect(addr).expect("tcp connects");
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(second);
    let refusal = pic_net::http::read_response(&mut reader).expect("typed refusal");
    assert_eq!(refusal.status, 503);
    assert!(
        refusal.text().contains("connection_limit"),
        "refusal names its kind: {}",
        refusal.text()
    );
    // The held connection still works.
    assert_eq!(first.get("/healthz").expect("served").status, 200);
    drop(server.shutdown());
}

#[test]
fn reactor_multiplexes_many_connections_on_a_fixed_pool() {
    // More live connections than any thread-per-connection pool would
    // tolerate per reactor thread: all stay open while each serves, and
    // every reply must still be bit-identical.
    const CONNS: usize = 128;
    let (server, addr, models) = start(NetConfig {
        max_connections: 512,
        reactors: 2,
        ..NetConfig::default()
    });
    let mut clients: Vec<NetClient> = (0..CONNS)
        .map(|c| NetClient::connect(addr, &format!("conn-{c}")).expect("connects"))
        .collect();
    let mut solo = TileExecutor::new(TensorCoreConfig::small_demo(), 900);
    for round in 0..2 {
        for (c, client) in clients.iter_mut().enumerate() {
            let which = (c + round) % 2;
            let inputs = inputs_for(c, round, 8);
            let reply = client
                .matmul(&MatmulWire {
                    model: format!("model-{which}"),
                    inputs: inputs.clone(),
                    deadline_ms: None,
                })
                .expect("request on one of many live connections");
            let (want, _) = solo.execute(&models[which], &inputs).expect("replay");
            assert_eq!(reply.outputs, want, "multiplexing corrupted a reply");
        }
    }
    // The scrape sees every connection concurrently alive.
    let scrape = clients[0].get("/metrics").expect("metrics answers");
    let text = scrape.text();
    let peak = text
        .lines()
        .find_map(|l| l.strip_prefix("pic_net_conns_peak "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("scrape carries pic_net_conns_peak");
    assert!(
        peak >= CONNS as f64,
        "peak {peak} must count all {CONNS} concurrent connections"
    );
    drop(clients);
    let rt = server.shutdown();
    assert_eq!(
        rt.metrics().snapshot().completed,
        (2 * CONNS) as u64,
        "every multiplexed request executed exactly once"
    );
}

#[test]
fn graceful_drain_loses_zero_accepted_requests() {
    const CLIENTS: usize = 8;
    let (server, addr, models) = start(NetConfig::default());
    let oks = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let severed = AtomicU64::new(0);
    let drained_rt = std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (oks, rejected, severed) = (&oks, &rejected, &severed);
            let models = &models;
            scope.spawn(move || {
                let mut client =
                    NetClient::connect(addr, &format!("client-{c}")).expect("connects");
                let mut solo = TileExecutor::new(TensorCoreConfig::small_demo(), 900);
                for i in 0..400 {
                    let which = (c + i) % 2;
                    let inputs = inputs_for(c, i, 8);
                    match client.matmul(&MatmulWire {
                        model: format!("model-{which}"),
                        inputs: inputs.clone(),
                        deadline_ms: None,
                    }) {
                        Ok(reply) => {
                            // Accepted work is served *completely*, even
                            // mid-drain: the reply must still be exact.
                            let (want, _) = solo.execute(&models[which], &inputs).expect("replay");
                            assert_eq!(reply.outputs, want, "drain corrupted a reply");
                            oks.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(NetError::Rejected { status, .. }) => {
                            assert_eq!(
                                status, 429,
                                "drain must never surface 5xx on accepted work"
                            );
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(NetError::Transport(_)) => {
                            // The drain closed the connection before this
                            // request was read — never accepted, so not
                            // lost. Nothing further will be served.
                            severed.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Err(NetError::Protocol(why)) => panic!("protocol break: {why}"),
                    }
                }
            });
        }
        // Shut down mid-burst, from outside the client fleet.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown()
    });
    let (ok, _rej, cut) = (
        oks.load(Ordering::Relaxed),
        rejected.load(Ordering::Relaxed),
        severed.load(Ordering::Relaxed),
    );
    assert!(ok > 0, "some requests completed before the drain");
    assert!(cut > 0, "the drain actually interrupted the fleet");
    let s = drained_rt.metrics().snapshot();
    assert_eq!(
        s.completed, ok,
        "every request the runtime accepted came back as a 200 — zero lost"
    );
    assert_eq!(
        s.submitted, s.completed,
        "drain flushed everything accepted"
    );
}

#[test]
fn traces_and_history_expose_sampled_span_trees() {
    let (server, addr, _models) = start(NetConfig {
        trace_sample: 1,
        slow_request: Some(Duration::from_millis(200)),
        ..NetConfig::default()
    });
    let mut client = NetClient::connect(addr, "tracer").expect("connects");
    for i in 0..6 {
        client
            .matmul(&MatmulWire {
                model: "model-0".to_owned(),
                inputs: inputs_for(0, i, 8),
                deadline_ms: None,
            })
            .expect("traced request serves");
    }

    let list = client.get("/v1/traces").expect("trace list answers");
    assert_eq!(list.status, 200);
    let text = list.text();
    assert!(text.contains("\"traces\":["), "summary envelope: {text}");
    if !pic_obs::enabled() {
        // obs-off: the endpoints answer, but tracing compiled to
        // no-ops so the ring stays empty.
        assert!(
            text.contains("\"stored\":0"),
            "obs-off stores nothing: {text}"
        );
        let _ = server.shutdown();
        return;
    }

    // Every request was head-sampled (rate 1): fetch one full tree.
    let id = text
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("a stored trace id")
        .to_owned();
    let full = client.get(&format!("/v1/traces/{id}")).expect("answers");
    assert_eq!(full.status, 200);
    let body = full.text();
    for stage in [
        "\"stage\":\"request\"",
        "\"stage\":\"admit\"",
        "\"stage\":\"queue\"",
        "\"stage\":\"service\"",
    ] {
        assert!(body.contains(stage), "trace tree carries {stage}\n{body}");
    }
    assert!(body.contains("\"self_time_sum_ns\""), "{body}");

    // Unknown id -> typed 404; non-hex id -> 400.
    let missing = client.get("/v1/traces/0000000000000001").expect("answers");
    assert_eq!(missing.status, 404);
    let garbage = client.get("/v1/traces/zzzz").expect("answers");
    assert_eq!(garbage.status, 400);

    // The windowed series answers JSON (possibly zero points before
    // the first ~1 s tick elapses).
    let history = client.get("/metrics/history").expect("answers");
    assert_eq!(history.status, 200);
    assert!(
        history.text().starts_with("{\"points\":["),
        "history envelope: {}",
        history.text()
    );

    // The scrape carries trace counters and the new label-valued
    // per-model / per-client series.
    let scrape = client.get("/metrics").expect("answers");
    let text = scrape.text();
    for needle in [
        "pic_net_trace_requests",
        "pic_net_traces_stored",
        "pic_net_model_requests{model=\"model-0\"}",
        "pic_net_client_admitted{client=\"tracer\"}",
    ] {
        assert!(text.contains(needle), "scrape must carry {needle}\n{text}");
    }
    let _ = server.shutdown();
}
