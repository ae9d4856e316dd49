//! End-to-end graceful shutdown of the real `ampc-serve` binary: spawn
//! it, load it with jobs, deliver SIGTERM mid-queue, and assert the
//! contract — new submissions are shed with `503` + `Retry-After`, the
//! queue drains and the process exits `0`. A second quick leg checks
//! SIGINT on an idle server.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ampc_coloring_bench::http_client::{
    json_u64, request, request_with_headers, retry_after_seconds,
};
use ampc_coloring_repro::Workload;
use sparse_graph::write_edge_list;

/// Boots `ampc-serve` on an ephemeral port and returns the child plus
/// the bound address parsed from its stdout banner.
fn boot_serve(extra: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ampc-serve"))
        .arg("--addr=127.0.0.1:0")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn ampc-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("ampc-serve exited before its banner")
            .expect("read ampc-serve stdout");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest.trim().parse().expect("bound address parses");
        }
    };
    // Keep draining the banner so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    (child, addr)
}

fn send_signal(pid: u32, signal: &str) {
    let status = Command::new("kill")
        .args([signal, &pid.to_string()])
        .status()
        .expect("run kill(1)");
    assert!(status.success(), "kill {signal} {pid} failed");
}

/// Waits up to `timeout` for `child` to exit and returns its code.
fn wait_with_timeout(child: &mut Child, timeout: Duration) -> Option<i32> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.code();
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Whether job `id` currently has status `status`.
fn job_is(addr: SocketAddr, id: u64, status: &str) -> bool {
    let (code, body) = request(
        addr,
        "GET",
        &format!("/v1/jobs/{id}"),
        "",
        Some(Duration::from_secs(10)),
    )
    .expect("poll job");
    assert_eq!(code, 200, "{body}");
    body.contains(&format!("\"status\":\"{status}\""))
}

#[test]
fn sigterm_drains_sheds_and_finishes_queued_jobs() {
    let (mut child, addr) = boot_serve(&["--workers=2", "--queue=64", "--drain-timeout-s=120"]);
    let serve_pid = child.id();

    // Queue up eight sequential jobs (distinct seeds: no cache hits). Two
    // job workers chew through them while SIGTERM lands mid-queue.
    let mut jobs = Vec::new();
    for seed in 0..8u64 {
        let workload = Workload::ForestUnion { n: 20_000, k: 2 };
        let graph = workload.build(seed);
        let target = format!(
            "/v1/color?algorithm=two-alpha-plus-one&alpha={}&runtime=sequential&min_nodes={}",
            workload.alpha_bound(),
            graph.num_nodes()
        );
        let (status, body) = request(
            addr,
            "POST",
            &target,
            &write_edge_list(&graph),
            Some(Duration::from_secs(60)),
        )
        .expect("submit");
        assert_eq!(status, 202, "{body}");
        jobs.push(json_u64(&body, "job").expect("job id"));
    }

    // The signal has to land while jobs are in flight: one is running
    // and the last is still waiting in the queue.
    let started = Instant::now();
    while job_is(addr, jobs[0], "queued") {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "no job started running"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        job_is(addr, jobs[jobs.len() - 1], "queued"),
        "the queue emptied before SIGTERM"
    );

    send_signal(serve_pid, "-TERM");

    // Within the 100 ms signal-poll interval the server flips to drain
    // mode; from then on submissions are shed with 503 + Retry-After.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut shed = None;
    while shed.is_none() && Instant::now() < deadline {
        let tiny = Workload::ForestUnion { n: 40, k: 2 }.build(0);
        match request_with_headers(
            addr,
            "POST",
            "/v1/color?algorithm=two-alpha-plus-one&alpha=2&runtime=sequential",
            &write_edge_list(&tiny),
            Some(Duration::from_secs(10)),
        ) {
            Ok((503, headers, body)) => shed = Some((headers, body)),
            Ok((202, _, _)) => std::thread::sleep(Duration::from_millis(10)),
            Ok((status, _, body)) => panic!("unexpected {status} during drain: {body}"),
            // The server may finish draining and exit mid-probe.
            Err(_) => break,
        }
    }
    let (headers, body) = shed.expect("a submission was shed with 503 while draining");
    assert_eq!(
        retry_after_seconds(&headers),
        Some(1),
        "503 must carry Retry-After delay-seconds: {headers}"
    );
    assert!(body.contains("draining"), "{body}");

    // Best-effort (the drain may complete first): health reports drain
    // mode while job status stays readable.
    if let Ok((200, health)) = request(addr, "GET", "/healthz", "", Some(Duration::from_secs(5))) {
        assert!(health.contains("\"draining\":true"), "{health}");
    }

    let code = wait_with_timeout(&mut child, Duration::from_secs(180))
        .expect("ampc-serve exits after draining");
    assert_eq!(code, 0, "a clean drain exits 0");
}

#[test]
fn sigint_on_an_idle_server_exits_promptly_and_cleanly() {
    let (mut child, addr) = boot_serve(&["--drain-timeout-s=10"]);
    // Prove it serves, then interrupt it with nothing queued.
    let (status, _) = request(addr, "GET", "/healthz", "", Some(Duration::from_secs(10)))
        .expect("healthz before SIGINT");
    assert_eq!(status, 200);
    send_signal(child.id(), "-INT");
    let code = wait_with_timeout(&mut child, Duration::from_secs(30))
        .expect("ampc-serve exits after SIGINT");
    assert_eq!(code, 0, "an idle drain exits 0");
}
