//! End-to-end tests of the `evcap` binary.

use std::process::Command;

fn evcap() -> Command {
    Command::new(env!("CARGO_BIN_EXE_evcap"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = evcap().args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("simulate"));
    // No args behaves like help.
    let (ok, stdout, _) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn hazards_prints_table() {
    let (ok, stdout, _) = run(&["hazards", "--dist", "weibull:8,3", "--max-state", "5"]);
    assert!(ok);
    assert!(stdout.contains("Weibull(8, 3)"));
    assert!(stdout.contains("beta_i"));
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count(),
        5
    );
}

#[test]
fn optimize_greedy_reports_qom() {
    let (ok, stdout, _) = run(&["optimize", "--dist", "weibull:8,3", "--e", "0.5"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("ideal QoM"));
    assert!(stdout.contains("greedy-FI"));
}

#[test]
fn audit_certifies_each_family() {
    for policy in ["greedy", "clustering", "aggressive", "periodic", "myopic"] {
        let (ok, stdout, stderr) = run(&[
            "audit",
            "--dist",
            "weibull:8,3",
            "--e",
            "0.3",
            "--policy",
            policy,
            "--horizon",
            "2048",
        ]);
        assert!(ok, "{policy}: {stdout}{stderr}");
        assert!(stdout.contains("verdict: CERTIFIED"), "{policy}: {stdout}");
        assert!(stdout.contains("coefficient-range"), "{policy}: {stdout}");
    }
}

#[test]
fn audit_json_is_flat_and_clean() {
    let (ok, stdout, _) = run(&[
        "audit",
        "--dist",
        "exp:0.1",
        "--e",
        "0.2",
        "--format",
        "json",
        "--horizon",
        "2048",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with("{\"type\":\"audit\""), "{stdout}");
    assert!(stdout.contains("\"clean\":true"), "{stdout}");
    assert!(stdout.contains("\"failed\":0"), "{stdout}");

    let (ok, _, stderr) = run(&[
        "audit", "--dist", "exp:0.1", "--e", "0.2", "--format", "xml",
    ]);
    assert!(!ok);
    assert!(stderr.contains("format"), "{stderr}");
}

#[test]
fn simulate_small_run_succeeds() {
    let (ok, stdout, _) = run(&[
        "simulate",
        "--dist",
        "weibull:8,3",
        "--policy",
        "greedy",
        "--e",
        "0.5",
        "--slots",
        "20000",
        "--seed",
        "1",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("QoM"));
    assert!(stdout.contains("captured"));
}

const SIM_ARGS: &[&str] = &[
    "simulate",
    "--dist",
    "weibull:8,3",
    "--policy",
    "greedy",
    "--e",
    "0.5",
    "--slots",
    "20000",
    "--seed",
    "1",
];

#[test]
fn simulate_replications_summarizes_and_keeps_single_run_output_stable() {
    use evcap_obs::{parse_line, JsonValue};

    // `--replications 1` is byte-identical to the flag being absent.
    let (ok, plain, _) = run(SIM_ARGS);
    assert!(ok);
    let mut one = SIM_ARGS.to_vec();
    one.extend(["--replications", "1"]);
    let (ok, with_one, _) = run(&one);
    assert!(ok);
    assert_eq!(plain, with_one, "--replications 1 must not change output");

    // A batched run prints the cross-seed summary plus one line per seed,
    // and seed 0 reproduces the single run's QoM.
    let single_qom = plain
        .lines()
        .find_map(|l| l.strip_prefix("QoM          : "))
        .expect("single run prints QoM")
        .trim()
        .to_owned();
    let mut batch = SIM_ARGS.to_vec();
    batch.extend(["--replications", "4"]);
    let (ok, stdout, _) = run(&batch);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("× 4 replications"), "{stdout}");
    assert!(stdout.contains("95% CI over 4 seeds"), "{stdout}");
    assert_eq!(stdout.matches("\n  rep ").count(), 4, "{stdout}");
    assert!(
        stdout.contains(&format!("qom {single_qom}")),
        "seed 0 line must carry the single-run QoM {single_qom}:\n{stdout}"
    );

    // JSON format parses and reports per-seed entries.
    let mut json_args = batch.clone();
    json_args.extend(["--format", "json"]);
    let (ok, stdout, _) = run(&json_args);
    assert!(ok, "{stdout}");
    let v = parse_line(stdout.trim()).expect("valid JSON");
    assert_eq!(v.get("replications").and_then(JsonValue::as_f64), Some(4.0));
    assert_eq!(
        v.get("reports")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(4)
    );

    // Zero replications is a usage error.
    let mut zero = SIM_ARGS.to_vec();
    zero.extend(["--replications", "0"]);
    let (ok, _, stderr) = run(&zero);
    assert!(!ok);
    assert!(stderr.contains("replications"), "{stderr}");
}

#[test]
fn bench_sim_writes_throughput_json() {
    let path = std::env::temp_dir().join("evcap_e2e_bench_sim.json");
    let path_str = path.to_str().unwrap();
    let (ok, stdout, _) = run(&[
        "bench-sim",
        "--slots",
        "5000",
        "--replications",
        "3",
        "--threads-list",
        "1,2",
        "--out",
        path_str,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("deterministic: yes"), "{stdout}");
    let doc = std::fs::read_to_string(&path).expect("bench file written");
    assert!(
        doc.contains("\"deterministic_across_threads\": true"),
        "{doc}"
    );
    assert!(doc.contains("\"threads_available\""), "{doc}");
    assert!(doc.contains("\"speedup_vs_sequential\""), "{doc}");
    // The summed per-thread engine time is reported as `cpu_seconds`
    // (throughput itself is wall-based; the old `sim_seconds` name is gone).
    assert!(doc.contains("\"cpu_seconds\""), "{doc}");
    assert!(!doc.contains("\"sim_seconds\""), "{doc}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_obs_out_writes_parseable_jsonl() {
    use evcap_obs::{parse_line, JsonValue};

    let path = std::env::temp_dir().join("evcap_e2e_obs.jsonl");
    let path_str = path.to_str().unwrap();
    let mut args = SIM_ARGS.to_vec();
    args.extend(["--obs-out", path_str, "--obs-window", "1000"]);
    let (ok, stdout, _) = run(&args);
    assert!(ok, "{stdout}");
    // The summary table follows the classic report.
    assert!(stdout.contains("observability summary"));
    assert!(stdout.contains("wrote "));

    let text = std::fs::read_to_string(&path).unwrap();
    let mut types = std::collections::BTreeSet::new();
    let mut qom_windows = 0;
    for line in text.lines() {
        let record = parse_line(line).expect("every line parses");
        let t = record
            .get("type")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_owned();
        if t == "qom_window" {
            qom_windows += 1;
            assert!(record.get("window_qom").is_some());
            assert!(record.get("cumulative_qom").is_some());
        }
        types.insert(t);
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(qom_windows, 20, "20000 slots / 1000-slot windows");
    for expected in [
        "run_counters",
        "qom_window",
        "battery_histogram",
        "gap_histogram",
        "forced_idle",
        "span",
        "counter",
    ] {
        assert!(types.contains(expected), "missing {expected}: {types:?}");
    }
}

#[test]
fn quiet_obs_run_keeps_classic_stdout() {
    let (ok, plain, _) = run(SIM_ARGS);
    assert!(ok);

    let path = std::env::temp_dir().join("evcap_e2e_obs_quiet.jsonl");
    let mut args = SIM_ARGS.to_vec();
    args.extend(["--obs-out", path.to_str().unwrap(), "--quiet"]);
    let (ok, quiet, _) = run(&args);
    std::fs::remove_file(&path).ok();
    assert!(ok);
    // --quiet drops the summary; what remains is byte-identical to a plain
    // run, so scripts scraping the classic output keep working.
    assert_eq!(plain, quiet);
}

#[test]
fn verbose_reports_timing_on_stderr_only() {
    let (ok, plain, _) = run(SIM_ARGS);
    assert!(ok);
    let mut args = SIM_ARGS.to_vec();
    args.push("--verbose");
    let (ok, stdout, stderr) = run(&args);
    assert!(ok);
    assert_eq!(plain, stdout, "verbose must not touch stdout");
    assert!(stderr.contains("span sim.run"), "{stderr}");
    assert!(stderr.contains("counter sim.slots"), "{stderr}");
}

#[test]
fn trace_summarizes_an_obs_file() {
    let path = std::env::temp_dir().join("evcap_e2e_trace.jsonl");
    let path_str = path.to_str().unwrap().to_owned();
    let mut args = SIM_ARGS.to_vec();
    args.extend(["--obs-out", &path_str, "--quiet"]);
    let (ok, _, _) = run(&args);
    assert!(ok);

    let (ok, stdout, _) = run(&["trace", &path_str]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("qom convergence"));
    assert!(stdout.contains("battery: mean fill"));
    assert!(stdout.contains("capture gaps:"));

    let (ok, stdout, _) = run(&["trace", &path_str, "--kind", "spans"]);
    assert!(ok);
    assert!(stdout.contains("span "));
    assert!(!stdout.contains("battery:"));

    let (ok, _, stderr) = run(&["trace", &path_str, "--kind", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown kind"));
    std::fs::remove_file(&path).ok();

    let (ok, _, stderr) = run(&["trace", "/nonexistent/evcap.jsonl"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
}

#[test]
fn trace_tree_renders_span_hierarchies() {
    // A hand-built access log: one traced request (root -> spec.solve ->
    // clustering.search, plus a cache mark) and one for another trace id.
    let path = std::env::temp_dir().join("evcap_e2e_trace_tree.jsonl");
    let path_str = path.to_str().unwrap().to_owned();
    let log = concat!(
        r#"{"type":"request","method":"POST","path":"/v1/solve","status":200,"micros":900.0,"trace_id":"req-a"}"#,
        "\n",
        r#"{"type":"trace_span","trace_id":"req-a","span_id":1,"parent_id":0,"name":"POST /v1/solve","start_us":0.0,"dur_us":900.0}"#,
        "\n",
        r#"{"type":"trace_span","trace_id":"req-a","span_id":2,"parent_id":1,"name":"spec.solve","start_us":10.0,"dur_us":800.0}"#,
        "\n",
        r#"{"type":"trace_span","trace_id":"req-a","span_id":3,"parent_id":2,"name":"clustering.search","start_us":20.0,"dur_us":700.0}"#,
        "\n",
        r#"{"type":"trace_span","trace_id":"req-a","span_id":4,"parent_id":1,"name":"cache.solve","label":"miss","start_us":850.0,"dur_us":0.0}"#,
        "\n",
        r#"{"type":"trace_span","trace_id":"req-b","span_id":1,"parent_id":0,"name":"GET /healthz","start_us":0.0,"dur_us":50.0}"#,
        "\n",
    );
    std::fs::write(&path, log).expect("fixture written");

    let (ok, stdout, _) = run(&["trace", &path_str, "--tree"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("trace req-a (4 spans)"), "{stdout}");
    assert!(stdout.contains("trace req-b (1 spans)"), "{stdout}");
    // Depth is encoded as indentation: root at 2 spaces, children nested.
    assert!(stdout.contains("\n  POST /v1/solve"), "{stdout}");
    assert!(stdout.contains("\n    spec.solve"), "{stdout}");
    assert!(stdout.contains("\n      clustering.search"), "{stdout}");
    assert!(stdout.contains("cache.solve [miss]"), "{stdout}");

    // --trace-id narrows to one request.
    let (ok, stdout, _) = run(&["trace", &path_str, "--tree", "--trace-id", "req-b"]);
    assert!(ok);
    assert!(stdout.contains("req-b"), "{stdout}");
    assert!(!stdout.contains("req-a"), "{stdout}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn unknown_flag_fails() {
    let (ok, _, stderr) = run(&["hazards", "--dist", "weibull:8,3", "--bogus", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
}

#[test]
fn invalid_spec_fails_with_context() {
    let (ok, _, stderr) = run(&["hazards", "--dist", "weibull:8"]);
    assert!(!ok);
    assert!(stderr.contains("weibull:8"));
}

#[test]
fn missing_required_flag_fails() {
    let (ok, _, stderr) = run(&["optimize", "--dist", "weibull:8,3"]);
    assert!(!ok);
    assert!(stderr.contains("--e"));
}

#[test]
fn serve_boots_answers_and_drains_on_sigterm() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = evcap()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    // The first stdout line announces the bound (ephemeral) address.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("server prints its address")
        .expect("readable stdout");
    let addr = first
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {first}"))
        .trim()
        .parse()
        .expect("valid socket address");

    let timeout = std::time::Duration::from_secs(10);
    let health = evcap_serve::client::get(addr, "/healthz", timeout).expect("GET /healthz");
    assert_eq!(health.status, 200);
    let solve = evcap_serve::client::post(
        addr,
        "/v1/solve",
        br#"{"dist":"exp:0.05","e":0.2,"horizon":2048}"#,
        timeout,
    )
    .expect("POST /v1/solve");
    assert_eq!(solve.status, 200, "{}", solve.text());
    assert_eq!(solve.cache.as_deref(), Some("miss"));

    // SIGTERM → graceful drain → exit code 0.
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: signaling our own child process.
    unsafe {
        kill(child.id() as i32, 15);
    }
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server must exit cleanly on SIGTERM");
}

#[test]
fn serve_survives_a_closed_stdout() {
    use std::net::{SocketAddr, TcpListener};
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    // A pre-picked port, because the banner that would announce an
    // ephemeral one goes nowhere.
    let addr: SocketAddr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port");
    // Stdout is a pipe whose read end is already closed, so every write to
    // it fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut child = evcap()
        .args(["serve", "--addr", &addr.to_string(), "--threads", "1"])
        .stdout(Stdio::from(writer))
        .stderr(Stdio::null())
        .spawn()
        .expect("server starts");

    let timeout = Duration::from_secs(2);
    let deadline = Instant::now() + Duration::from_secs(20);
    let health = loop {
        match evcap_serve::client::get(addr, "/healthz", timeout) {
            Ok(response) => break response,
            Err(err) => {
                let exited = child.try_wait().expect("child status");
                assert!(exited.is_none(), "server exited ({exited:?}): {err}");
                assert!(Instant::now() < deadline, "server never answered: {err}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert_eq!(health.status, 200);
    // The banner is written right after the socket is bound, so a first
    // answer can precede it: the server must still be up a moment later.
    std::thread::sleep(Duration::from_millis(200));
    let exited = child.try_wait().expect("child status");
    let again = evcap_serve::client::get(addr, "/healthz", timeout);
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        exited.is_none(),
        "server exited after answering: {exited:?}"
    );
    assert_eq!(again.expect("GET /healthz again").status, 200);
}

#[test]
fn loadgen_reports_throughput_against_a_live_server() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = evcap()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server starts");
    let stdout = child.stdout.take().expect("piped stdout");
    let first = BufReader::new(stdout)
        .lines()
        .next()
        .expect("banner")
        .expect("readable");
    let addr = first
        .strip_prefix("listening on http://")
        .expect("banner")
        .trim()
        .to_owned();

    let (ok, stdout, stderr) = run(&[
        "loadgen",
        "--addr",
        &addr,
        "--concurrency",
        "2",
        "--requests",
        "400",
    ]);
    let _ = child.kill();
    let _ = child.wait();
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("400 ok, 0 errors"), "{stdout}");
    assert!(stdout.contains("req/s"), "{stdout}");
    // The perf module reported the run on stderr.
    assert!(stderr.contains("# perf loadgen /v1/solve"), "{stderr}");
}
