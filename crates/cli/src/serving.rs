//! `evcap serve` and `evcap loadgen` — the daemon and its load generator.

use std::error::Error;
use std::io::Write;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use evcap_bench::perf;
use evcap_serve::{client::Conn, server::ServeConfig, signal, Server};
use evcap_sim::parallel::parallel_map_with;

use crate::args::{Args, ArgsError};

type CmdResult = Result<(), Box<dyn Error>>;

/// `evcap serve` — run the policy server until SIGINT/SIGTERM.
pub fn serve(args: &Args) -> CmdResult {
    args.expect_only(&[
        "addr",
        "threads",
        "cache-cap",
        "shards",
        "read-timeout-ms",
        "coalesce-timeout-ms",
        "max-slots",
        "access-log",
        "validate",
        "trace",
        "recent",
        "slow-ms",
        "store",
    ])?;
    let config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7070").to_owned(),
        threads: args.get_or("threads", 4usize, "a thread count")?.max(1),
        cache_cap: args.get_or("cache-cap", 1024usize, "an entry count")?,
        shards: args.get_or("shards", 8usize, "a shard count")?,
        read_timeout: Duration::from_millis(args.get_or(
            "read-timeout-ms",
            5_000u64,
            "milliseconds",
        )?),
        coalesce_timeout: Duration::from_millis(args.get_or(
            "coalesce-timeout-ms",
            30_000u64,
            "milliseconds",
        )?),
        max_slots: args.get_or("max-slots", 2_000_000u64, "a slot count")?,
        access_log: args.get("access-log").map(str::to_owned),
        validate_artifacts: args.get_or("validate", false, "true or false")?,
        trace: args.get_or("trace", true, "true or false")?,
        recent: args.get_or("recent", 64usize, "a request count")?,
        slow_ms: args.get_or("slow-ms", 0u64, "milliseconds (0 disables)")?,
        store: args.get("store").map(str::to_owned),
        ..ServeConfig::default()
    };
    signal::install();
    let threads = config.threads;
    let server = Server::start(config)?;
    // The smoke script and the e2e tests scrape this exact line for the
    // bound port, so `--addr 127.0.0.1:0` works with ephemeral ports. The
    // banner goes out in one write whose failure is ignored: a reader that
    // takes the first line and closes the pipe must not take the server
    // down with it.
    let banner = format!(
        "listening on http://{}\nthreads: {threads}  (stop with SIGINT/SIGTERM)\n",
        server.local_addr()
    );
    let mut stdout = std::io::stdout().lock();
    let _ = stdout.write_all(banner.as_bytes());
    let _ = stdout.flush();
    drop(stdout);
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("signal received, draining");
    let stats = server.artifact_cache_stats();
    let recent = server.recent_requests();
    server.shutdown();
    eprintln!(
        "artifact cache: {} hits, {} misses, {} coalesced, {} evictions",
        stats.hits, stats.misses, stats.coalesced, stats.evictions
    );
    // The flight recorder's tail: one line per retained request, oldest
    // first, so a drained server leaves a trail of what it just served.
    if !recent.is_empty() {
        eprintln!("last {} requests:", recent.len());
        for r in &recent {
            eprintln!("  {}", r.summary());
        }
    }
    Ok(())
}

/// `evcap loadgen` — hammer a running server over keep-alive connections
/// and report throughput and latency percentiles through the perf module.
pub fn loadgen(args: &Args) -> CmdResult {
    args.expect_only(&[
        "addr",
        "concurrency",
        "requests",
        "path",
        "body",
        "timeout-ms",
        "hist-out",
    ])?;
    let raw_addr = args.require("addr")?;
    let addr: SocketAddr = raw_addr.parse().map_err(|_| ArgsError::Invalid {
        flag: "addr".into(),
        value: raw_addr.into(),
        expected: "a socket address like 127.0.0.1:7070",
    })?;
    let concurrency: usize = args.get_or("concurrency", 2usize, "a worker count")?.max(1);
    let requests: u64 = args.get_or("requests", 10_000u64, "a request count")?;
    let timeout = Duration::from_millis(args.get_or("timeout-ms", 5_000u64, "milliseconds")?);
    let path = args.get("path").unwrap_or("/v1/solve").to_owned();
    let body = args
        .get("body")
        .unwrap_or(r#"{"dist":"weibull:40,3","e":0.2,"horizon":4096}"#)
        .as_bytes()
        .to_vec();
    let method = if path.starts_with("/v1/") {
        "POST"
    } else {
        "GET"
    };

    // Workers are I/O-bound connection loops, so oversubscribing cores is
    // the point: one thread per share, so each owns one connection.
    let shares: Vec<u64> = (0..concurrency as u64)
        .map(|w| requests / concurrency as u64 + u64::from(w < requests % concurrency as u64))
        .collect();
    let wall = Instant::now(); // deepcheck:allow(instant-now): loadgen measures request latency directly
    let per_worker = parallel_map_with(shares, Some(concurrency), |share| {
        let mut samples: Vec<u64> = Vec::with_capacity(share as usize);
        let mut errors = 0u64;
        let mut conn = match Conn::connect(addr, timeout) {
            Ok(c) => c,
            Err(_) => return (samples, share),
        };
        for _ in 0..share {
            let start = Instant::now(); // deepcheck:allow(instant-now): loadgen measures request latency directly
            match conn.request(method, &path, &body) {
                Ok(resp) if (200..300).contains(&resp.status) => {
                    samples.push(start.elapsed().as_nanos() as u64);
                }
                Ok(_) => errors += 1,
                Err(_) => {
                    errors += 1;
                    // The server (or an idle timeout) dropped us: reconnect
                    // once; if that also fails, the remaining share is lost.
                    match Conn::connect(addr, timeout) {
                        Ok(c) => conn = c,
                        Err(_) => {
                            errors += share - (samples.len() as u64 + errors);
                            break;
                        }
                    }
                }
            }
        }
        (samples, errors)
    });
    let wall_seconds = wall.elapsed().as_secs_f64();

    let mut samples: Vec<u64> = Vec::with_capacity(requests as usize);
    let mut errors = 0u64;
    for (s, e) in per_worker {
        samples.extend(s);
        errors += e;
    }
    // `--hist-out` dumps the full latency distribution in the same
    // `latency_histogram` JSONL schema the server's exposition uses, so
    // client-side and server-side histograms line up bucket for bucket.
    if let Some(hist_path) = args.get("hist-out") {
        let hist = evcap_obs::LatencyHistogram::new();
        for &ns in &samples {
            hist.observe_ns(ns);
        }
        let mut sink = evcap_obs::JsonlSink::create(hist_path)?;
        sink.write(hist.record_buckets(&format!("loadgen {path}")))?;
    }

    let summary = perf::LatencySummary::from_samples_ns(&mut samples, errors, wall_seconds);
    let label = format!("loadgen {path}");
    perf::report_loadgen(&label, &summary);
    println!(
        "requests     : {} ok, {} errors ({concurrency} connections)",
        summary.count, summary.errors
    );
    println!("throughput   : {:.0} req/s", summary.requests_per_second());
    println!(
        "latency      : mean {:.0} µs, p50 {:.0} µs, p90 {:.0} µs, p99 {:.0} µs, max {:.0} µs",
        summary.mean_us, summary.p50_us, summary.p90_us, summary.p99_us, summary.max_us
    );
    if summary.count == 0 {
        return Err(format!("no successful requests against {addr}").into());
    }
    Ok(())
}
