//! The reactor multiplexes four-digit connection counts on a fixed
//! thread pool: 1024 keep-alive connections and a loaded client fleet
//! add no thread to the serving stack, every loaded reply is
//! bit-identical to a solo executor, and the server's own gauge saw
//! every connection at once.
//!
//! A test binary of its own: it counts this process's threads, so no
//! other test may run beside it.

use pic_net::{MatmulWire, NetClient, NetConfig, NetServer};
use pic_runtime::{OutputElement, Runtime, RuntimeConfig, TileExecutor, TileShape, TiledMatrix};
use std::collections::HashMap;
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections held open beside the load.
const CONNS: usize = 1024;
/// Loaded clients, each on its own keep-alive connection.
const LOADED: usize = 32;
/// Bit-checked requests per loaded client.
const PER_LOADED: usize = 16;
const REACTORS: usize = 4;

/// This process's thread count, from `/proc/self/status`.
fn count_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .expect("/proc/self/status carries a Threads: line")
}

/// The thread count once it holds still over three reads 20 ms apart
/// (threads that just finished may take a moment to leave the count).
fn settled_threads() -> usize {
    let mut last = count_threads();
    let mut stable = 0;
    let settle = Instant::now();
    while stable < 3 && settle.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(20));
        let now = count_threads();
        if now == last {
            stable += 1;
        } else {
            (stable, last) = (0, now);
        }
    }
    last
}

/// Four one-tile paper models, the hot ranks of the serving mix: three
/// 16×16 and a 16×12.
fn models(config: &RuntimeConfig) -> Vec<Arc<TiledMatrix>> {
    let max_code = (1u32 << config.core.weight_bits) - 1;
    [(16, 16), (16, 16), (16, 16), (16, 12)]
        .iter()
        .enumerate()
        .map(|(m, &(out, inp))| {
            let codes: Vec<Vec<u32>> = (0..out)
                .map(|r| {
                    (0..inp)
                        .map(|c| ((m * 5 + r * 3 + c) as u32) % (max_code + 1))
                        .collect()
                })
                .collect();
            Arc::new(TiledMatrix::from_codes(
                &codes,
                config.core.weight_bits,
                TileShape::new(config.core.rows, config.core.cols),
            ))
        })
        .collect()
}

/// Each output's code sum and value bits, for exact comparison.
fn bits(outputs: &[Vec<OutputElement>]) -> Vec<Vec<(u32, u64)>> {
    outputs
        .iter()
        .map(|row| {
            row.iter()
                .map(|e| (e.code_sum, e.value.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn a_thousand_keep_alive_connections_add_no_thread() {
    // Both halves of every socket live in this one process.
    pic_net::raise_nofile_limit((4 * CONNS + 512) as u64).expect("raise RLIMIT_NOFILE");
    let mut config = RuntimeConfig::paper();
    config.max_delay = Duration::from_millis(10);
    let models = models(&config);
    let registry: HashMap<String, Arc<TiledMatrix>> = models
        .iter()
        .enumerate()
        .map(|(m, matrix)| (format!("model-{m}"), Arc::clone(matrix)))
        .collect();

    let before = settled_threads();
    let server = NetServer::start(
        NetConfig {
            max_connections: CONNS + LOADED + 16,
            read_timeout: Duration::from_secs(2),
            reactors: REACTORS,
            ..NetConfig::default()
        },
        Runtime::start(config),
        registry,
    )
    .expect("binds loopback");
    let addr = server.local_addr();
    // Count after one round trip has proved the whole stack serves.
    let warm = NetClient::connect(addr, "warmup")
        .expect("warmup connects")
        .matmul(&MatmulWire {
            model: "model-0".to_owned(),
            inputs: vec![vec![0.5; models[0].in_dim()]],
            deadline_ms: None,
        })
        .expect("warmup serves");
    assert_eq!(warm.outputs.len(), 1, "warmup produced output");
    let serving = settled_threads();
    // Reactors + device workers + the metrics series ticker.
    let pool = REACTORS + config.devices + 1;
    assert_eq!(
        serving - before,
        pool,
        "the server runs on {REACTORS} reactors + {} workers + the series ticker",
        config.devices
    );

    let fleet: Vec<BufReader<TcpStream>> = (0..CONNS)
        .map(|c| {
            let mut sock = TcpStream::connect(addr).unwrap_or_else(|e| panic!("conn {c}: {e}"));
            sock.set_read_timeout(Some(Duration::from_secs(60)))
                .expect("timeout");
            write!(
                sock,
                "GET /healthz HTTP/1.1\r\nx-client: idle-{}\r\n\r\n",
                c % 16
            )
            .unwrap_or_else(|e| panic!("conn {c} write: {e}"));
            let mut reader = BufReader::new(sock);
            let reply = pic_net::http::read_response(&mut reader)
                .unwrap_or_else(|e| panic!("conn {c} reply: {e}"));
            assert_eq!(reply.status, 200, "conn {c} is served");
            reader
        })
        .collect();
    assert_eq!(
        count_threads(),
        serving,
        "{CONNS} open connections spawn no thread"
    );

    // Load through the held-open fleet; the client threads are this
    // test's own and join before the next count.
    std::thread::scope(|scope| {
        for c in 0..LOADED {
            let models = &models;
            scope.spawn(move || {
                let mut client =
                    NetClient::connect(addr, &format!("load-{c}")).expect("loaded connects");
                let mut solo = TileExecutor::new(config.core, 900);
                for k in 0..PER_LOADED {
                    let which = (c + k) % models.len();
                    let inputs: Vec<Vec<f64>> = vec![(0..models[which].in_dim())
                        .map(|j| ((c * 31 + k * 7 + j * 3) % 13) as f64 / 13.0)
                        .collect()];
                    let reply = client
                        .matmul(&MatmulWire {
                            model: format!("model-{which}"),
                            inputs: inputs.clone(),
                            deadline_ms: Some(600_000.0),
                        })
                        .unwrap_or_else(|e| panic!("client {c} request {k}: {e}"));
                    let (want, _) = solo.execute(&models[which], &inputs).expect("replay");
                    assert_eq!(
                        bits(&reply.outputs),
                        bits(&want),
                        "client {c} request {k} differs from the solo executor"
                    );
                }
            });
        }
    });
    assert_eq!(
        settled_threads(),
        serving,
        "serving {} requests beside {CONNS} connections grows no thread",
        LOADED * PER_LOADED
    );

    let scrape = NetClient::connect(addr, "peak-probe")
        .expect("probe connects")
        .get("/metrics")
        .expect("metrics answers")
        .text();
    let peak: f64 = scrape
        .lines()
        .find_map(|l| l.strip_prefix("pic_net_conns_peak "))
        .and_then(|v| v.trim().parse().ok())
        .expect("the scrape carries pic_net_conns_peak");
    assert!(
        peak >= CONNS as f64,
        "peak {peak} covers the {CONNS} held-open connections"
    );
    drop(fleet);
    drop(server.shutdown());
}
