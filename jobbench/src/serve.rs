//! The served workload: `ampc-serve` with its default flags in a child
//! process, driven by a closed loop of two keep-alive connections that
//! post pre-built edge lists to `POST /v1/color?wait=1` with no
//! parameters (Auto algorithm, α estimated by degeneracy, sequential
//! runtime).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ampc_coloring::graph::{read_edge_list_bounded, write_edge_list, CsrGraph};
use ampc_coloring::{RuntimeConfig, SparseColoring};
use ampc_coloring_bench::Workload;
use ampc_service::{JobManager, JobSpec, ServiceConfig};

use crate::http::{request_bytes, Connection};
use crate::job::{check_coloring, coloring_hash};
use crate::spans::Spans;
use crate::stats::{median, ms, peak_rss_mb, quantile, Outcome, Tail};
use crate::traced::{Served, Traced};
use crate::{graph_seed, Run, SETUP_REPS};

/// A served run measures at least this many jobs, so that the p96 tail
/// has ten samples beyond it.
pub const TAIL: Tail = Tail {
    q: 0.96,
    min_jobs: 250,
};
const CONNECTIONS: usize = 2;
const NODES: usize = 2000;
/// Request `k` of a connection with `k % REPEAT_EVERY == REPEAT_EVERY - 1`
/// re-sends the graph that connection sent at `k - 2`. That request has
/// been answered, so the repeat is a cache hit, never a coalesced wait.
const REPEAT_EVERY: usize = 4;
/// Connection 0 scrapes `/metrics` after every this many of its jobs.
const SCRAPE_EVERY: usize = 50;
/// Untimed requests per connection before the measurement starts.
const WARMUP: usize = 2;
/// The job rate the pre-built bodies are sized for; a faster server ends
/// its run early rather than repeat graphs the cache would serve.
const MAX_JOBS_PER_S: f64 = 60.0;
/// Graphs the traced run colors in-process; fixed, so that the per-layer
/// counts of a seed repeat exactly.
const IN_PROCESS_GRAPHS: usize = 100;
const COLOR_TARGET: &str = "/v1/color?wait=1";
const SCRAPE_TARGET: &str = "/metrics?format=prometheus";

/// The server child process; killed and reaped when dropped.
pub struct Server {
    child: Child,
    // Held open so the server's later log lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("--addr=127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let server = Server {
            child,
            _stdout: stdout,
            addr: line
                .split("http://")
                .nth(1)
                .unwrap_or_default()
                .trim()
                .to_string(),
        };
        if server.addr.is_empty() {
            return Err(format!("ampc-serve did not report its address: {line:?}"));
        }
        let health = Connection::new(&server.addr).send(&request_bytes("GET", "/healthz", b""))?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        Ok(server)
    }

    fn scrape(&self) -> Result<Prometheus, String> {
        let response =
            Connection::new(&self.addr).send(&request_bytes("GET", SCRAPE_TARGET, b""))?;
        Prometheus::parse(&String::from_utf8_lossy(&response.body))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The counters the run checks, from one Prometheus scrape.
struct Prometheus {
    hits: u64,
    misses: u64,
    coalesced: u64,
    keepalive_reused: u64,
}

impl Prometheus {
    fn parse(text: &str) -> Result<Prometheus, String> {
        let value = |name: &str| {
            text.lines()
                .find_map(|line| {
                    line.strip_prefix(name)?
                        .strip_prefix(' ')?
                        .trim()
                        .parse()
                        .ok()
                })
                .ok_or_else(|| format!("/metrics has no {name}"))
        };
        Ok(Prometheus {
            hits: value("ampc_cache_hits_total")?,
            misses: value("ampc_cache_misses_total")?,
            coalesced: value("ampc_cache_coalesced_total")?,
            keepalive_reused: value("ampc_http_keepalive_reused_total")?,
        })
    }
}

/// One connection's pre-built requests: one per distinct graph.
struct Plan {
    seeds: Vec<u64>,
    requests: Vec<Vec<u8>>,
    /// Where each request's body (the edge list) starts.
    body_at: Vec<usize>,
}

fn graph(seed: u64) -> CsrGraph {
    Workload::ForestUnion { n: NODES, k: 2 }.build(seed)
}

fn plan(seed: u64, conn: usize, distinct: usize) -> Plan {
    let seeds: Vec<u64> = (0..distinct)
        .map(|d| graph_seed(seed, 1 + conn as u64, d as u64))
        .collect();
    let mut body_at = Vec::new();
    let requests = seeds
        .iter()
        .map(|&seed| {
            let body = write_edge_list(&graph(seed));
            let request = request_bytes("POST", COLOR_TARGET, body.as_bytes());
            body_at.push(request.len() - body.len());
            request
        })
        .collect();
    Plan {
        seeds,
        requests,
        body_at,
    }
}

/// Builds every connection's plan, one thread per connection.
fn plans(seed: u64, seconds: Duration, min_jobs: usize) -> Vec<Plan> {
    let jobs = (MAX_JOBS_PER_S * seconds.as_secs_f64()).max(min_jobs as f64) / CONNECTIONS as f64;
    let distinct =
        WARMUP + (jobs * (REPEAT_EVERY - 1) as f64 / REPEAT_EVERY as f64).ceil() as usize + 1;
    std::thread::scope(|scope| {
        let builders: Vec<_> = (0..CONNECTIONS)
            .map(|conn| scope.spawn(move || plan(seed, conn, distinct)))
            .collect();
        builders
            .into_iter()
            .map(|builder| builder.join().expect("plan builder panicked"))
            .collect()
    })
}

/// The distinct graph request `k` sends, and whether it is a repeat.
fn scheduled(k: usize) -> (usize, bool) {
    let distinct = |k: usize| WARMUP + k - k / REPEAT_EVERY;
    if k % REPEAT_EVERY == REPEAT_EVERY - 1 {
        (distinct(k - 2), true)
    } else {
        (distinct(k), false)
    }
}

/// One answered `/v1/color` request.
struct Sample {
    conn: usize,
    distinct: usize,
    repeat: bool,
    ms: f64,
    cached: bool,
    alpha: usize,
    nodes: usize,
    /// Server-side wait before a computed job started (0 for hits).
    queue_wait_ms: f64,
    colors: Vec<usize>,
}

/// The text after `"key":` up to the next `,`, `}` or `]`.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[start..];
    Some(rest[..rest.find([',', '}', ']'])?].trim())
}

fn parse_job(
    conn: usize,
    distinct: usize,
    repeat: bool,
    elapsed: Duration,
    body: &[u8],
) -> Result<Sample, String> {
    let json = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let bad = || format!("unexpected job response: {}", &json[..json.len().min(300)]);
    if field(json, "status") != Some("\"done\"") {
        return Err(bad());
    }
    let result = &json[json.find("\"result\":").ok_or_else(bad)?..];
    let number = |text: &str, key: &str| -> Result<u64, String> {
        field(text, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(bad)
    };
    let list = &result[result.find("\"coloring\":[").ok_or_else(bad)? + 12..];
    let list = &list[..list.find(']').ok_or_else(bad)?];
    let colors = list
        .split(',')
        .map(|c| c.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| bad())?;
    let cached = field(json, "cached") == Some("true");
    let queue_wait_ns = if cached {
        0
    } else {
        number(json, "age_nanos")?.saturating_sub(number(result, "wall_clock_nanos")?)
    };
    Ok(Sample {
        conn,
        distinct,
        repeat,
        ms: ms(elapsed),
        cached,
        alpha: number(result, "alpha")? as usize,
        nodes: number(json, "nodes")? as usize,
        queue_wait_ms: queue_wait_ns as f64 / 1e6,
        colors,
    })
}

#[derive(Default)]
struct Log {
    samples: Vec<Sample>,
    scrapes: Vec<f64>,
    attempted: u64,
    repeats_sent: u64,
    distinct_sent: u64,
    /// The server's peak RSS once `min_jobs` jobs were done, read by the
    /// client that finished the last of them.
    peak_rss_mb: Option<f64>,
    /// Failed `/v1/color` requests.
    failures: Vec<String>,
    /// Failed warm-ups, scrapes and readings, which are not jobs but void
    /// the run.
    problems: Vec<String>,
}

/// What the client connections share.
struct Shared<'a> {
    server: &'a Server,
    start: Barrier,
    seconds: Duration,
    min_jobs: usize,
    /// `/v1/color` requests answered so far, over all connections.
    done: AtomicUsize,
}

/// One client connection's closed loop.
fn drive(conn: usize, plan: &Plan, shared: &Shared) -> Log {
    let mut log = Log::default();
    let mut connection = Connection::new(&shared.server.addr);
    for request in &plan.requests[..WARMUP] {
        log.distinct_sent += 1;
        match connection.send(request) {
            Ok(response) if response.status == 200 => {}
            Ok(response) => log
                .problems
                .push(format!("warm-up answered {}", response.status)),
            Err(error) => log.problems.push(format!("warm-up: {error}")),
        }
    }
    shared.start.wait();
    let deadline = Instant::now() + shared.seconds;
    for k in 0.. {
        let (distinct, repeat) = scheduled(k);
        if distinct >= plan.requests.len()
            || (Instant::now() >= deadline
                && shared.done.load(Ordering::Relaxed) >= shared.min_jobs)
        {
            break;
        }
        log.attempted += 1;
        if repeat {
            log.repeats_sent += 1;
        } else {
            log.distinct_sent += 1;
        }
        match connection.send(&plan.requests[distinct]) {
            Ok(response) if response.status == 200 => {
                match parse_job(conn, distinct, repeat, response.elapsed, &response.body) {
                    Ok(sample) => log.samples.push(sample),
                    Err(error) => log.failures.push(error),
                }
            }
            Ok(response) => log
                .failures
                .push(format!("/v1/color answered {}", response.status)),
            Err(error) => log.failures.push(error),
        }
        // The server keeps recent jobs and results, so its memory grows
        // with the jobs served; reading it after a fixed job count keeps
        // the figure independent of the server's speed.
        if shared.done.fetch_add(1, Ordering::Relaxed) + 1 == shared.min_jobs {
            match peak_rss_mb(&shared.server.child.id().to_string()) {
                Ok(mb) => log.peak_rss_mb = Some(mb),
                Err(error) => log.problems.push(error),
            }
        }
        if conn == 0 && (k + 1) % SCRAPE_EVERY == 0 {
            match connection.send(&request_bytes("GET", SCRAPE_TARGET, b"")) {
                Ok(response) if response.status == 200 => log.scrapes.push(ms(response.elapsed)),
                Ok(response) => log
                    .problems
                    .push(format!("scrape answered {}", response.status)),
                Err(error) => log.problems.push(format!("scrape: {error}")),
            }
        }
    }
    log
}

/// What one served loop measured, after every answer was checked.
struct ServedRun {
    samples: Vec<Sample>,
    colors_used_max: usize,
    peak_rss_mb: Option<f64>,
    elapsed: Duration,
    scrapes: Vec<f64>,
    counters: Prometheus,
}

/// Runs the closed loop against `server` and checks every answer, the
/// cache counters and the repeats. Failures land in `outcome`.
fn serve(
    server: &Server,
    plans: &[Plan],
    seconds: Duration,
    min_jobs: usize,
    outcome: &mut Outcome,
) -> Result<ServedRun, String> {
    let shared = Shared {
        server,
        start: Barrier::new(CONNECTIONS + 1),
        seconds,
        min_jobs,
        done: AtomicUsize::new(0),
    };
    let (logs, elapsed) = std::thread::scope(|scope| {
        let shared = &shared;
        let clients: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(conn, plan)| scope.spawn(move || drive(conn, plan, shared)))
            .collect();
        shared.start.wait();
        let started = Instant::now();
        let logs: Vec<Log> = clients
            .into_iter()
            .map(|client| client.join().expect("client thread panicked"))
            .collect();
        (logs, started.elapsed())
    });
    let counters = server.scrape()?;

    let mut samples = Vec::new();
    let mut scrapes = Vec::new();
    let mut peak_rss_mb = None;
    let (mut repeats, mut distinct) = (0, 0);
    for log in logs {
        outcome.attempted += log.attempted;
        log.failures
            .into_iter()
            .for_each(|error| outcome.fail(error));
        log.problems
            .into_iter()
            .for_each(|error| outcome.invalid(error));
        samples.extend(log.samples);
        scrapes.extend(log.scrapes);
        peak_rss_mb = peak_rss_mb.or(log.peak_rss_mb);
        repeats += log.repeats_sent;
        distinct += log.distinct_sent;
    }
    if counters.hits != repeats || counters.misses != distinct || counters.coalesced != 0 {
        outcome.invalid(format!(
            "cache counters hits={} misses={} coalesced={}; the run sent {repeats} repeats and {distinct} new graphs",
            counters.hits, counters.misses, counters.coalesced
        ));
    }
    let colors_used_max = check(plans, &samples, outcome);
    Ok(ServedRun {
        samples,
        colors_used_max,
        peak_rss_mb,
        elapsed,
        scrapes,
        counters,
    })
}

/// Checks every answer against its regenerated graph, and every repeat
/// against the first answer for its graph. Returns the most colors any
/// answer used.
fn check(plans: &[Plan], samples: &[Sample], outcome: &mut Outcome) -> usize {
    let mut colors_used_max = 0;
    let mut by_graph: BTreeMap<(usize, usize), Vec<&Sample>> = BTreeMap::new();
    for sample in samples {
        by_graph
            .entry((sample.conn, sample.distinct))
            .or_default()
            .push(sample);
    }
    for ((conn, distinct), answers) in by_graph {
        let graph = graph(plans[conn].seeds[distinct]);
        let first = coloring_hash(answers[0].colors.iter().copied());
        for sample in answers {
            let result = if sample.cached != sample.repeat {
                Err(format!(
                    "cached={} for a request with repeat={}",
                    sample.cached, sample.repeat
                ))
            } else if sample.nodes != NODES {
                Err(format!("the server parsed {} nodes", sample.nodes))
            } else if coloring_hash(sample.colors.iter().copied()) != first {
                Err("a repeat was answered with another coloring".to_string())
            } else {
                check_coloring(&graph, sample.colors.clone(), sample.alpha)
            };
            match result {
                Ok(used) => colors_used_max = colors_used_max.max(used),
                Err(error) => outcome.fail(format!("connection {conn} graph {distinct}: {error}")),
            }
        }
    }
    colors_used_max
}

fn set_up(
    run: &Run,
    bin: &Path,
    seconds: Duration,
    min_jobs: usize,
) -> Result<(Server, Vec<Plan>), String> {
    let server = Server::start(bin)?;
    Ok((server, plans(run.seed, seconds, min_jobs)))
}

/// The untraced run: the end-to-end metrics.
pub fn measure(run: &Run, bin: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's server is stopped before the next starts.
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(set_up(run, bin, run.seconds, TAIL.min_jobs)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let (server, plans) = prepared.expect("at least one set-up");
    let mut outcome = Outcome::new();
    let served = serve(&server, &plans, run.seconds, TAIL.min_jobs, &mut outcome)?;
    let times: Vec<f64> = served.samples.iter().map(|s| s.ms).collect();
    let m = &mut outcome.metrics;
    m.put("job_ms_p50", median(&times), "ms");
    m.put("job_ms_tail", quantile(&times, TAIL.q).unwrap_or(0.0), "ms");
    m.put(
        "jobs_per_s",
        times.len() as f64 / served.elapsed.as_secs_f64(),
        "1/s",
    );
    m.put("colors_used_max", served.colors_used_max as f64, "count");
    m.put("setup_s", median(&setups), "s");
    let peak_rss_mb = served
        .peak_rss_mb
        .ok_or("the server's memory was not read")?;
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    Ok(outcome)
}

/// The traced run: half the time serves as in [`measure`] for the
/// service figures; then a fixed number of the same bodies is parsed and
/// colored in-process with `color()`, the replica and a `JobManager`.
pub fn trace(run: &Run, bin: &Path, spans: &Spans) -> Result<Outcome, String> {
    let half = run.seconds / 2;
    let (server, plans) = set_up(run, bin, half, TAIL.min_jobs)?;
    let mut outcome = Outcome::new();
    let served = serve(&server, &plans, half, 0, &mut outcome)?;
    drop(server);
    let pick = |f: &dyn Fn(&Sample) -> Option<f64>| {
        median(&served.samples.iter().filter_map(f).collect::<Vec<_>>())
    };
    let counters = &served.counters;
    let figures = Served {
        miss_ms_p50: pick(&|s| (!s.cached).then_some(s.ms)),
        hit_ms_p50: pick(&|s| s.cached.then_some(s.ms)),
        cache_hit_ratio: counters.hits as f64 / (counters.hits + counters.misses).max(1) as f64,
        queue_wait_ms_p50: pick(&|s| (!s.cached).then_some(s.queue_wait_ms)),
        scrape_ms_p50: median(&served.scrapes),
        keepalive_reused: counters.keepalive_reused as f64,
    };

    let served_colors: BTreeMap<usize, u64> = served
        .samples
        .iter()
        .filter(|s| s.conn == 0)
        .map(|s| (s.distinct, coloring_hash(s.colors.iter().copied())))
        .collect();
    let plan = &plans[0];
    let builder = SparseColoring::new();
    let manager = JobManager::new(ServiceConfig::default());
    let mut traced = Traced::default();
    for distinct in WARMUP..WARMUP + IN_PROCESS_GRAPHS {
        let job = outcome.attempted;
        outcome.attempted += 1;
        let body = &plan.requests[distinct][plan.body_at[distinct]..];
        let (parsed, parse) = spans.time("graph.parse", job, None, || {
            read_edge_list_bounded(body, 0, usize::MAX)
        });
        traced.parse.push(ms(parse));
        let Ok(graph) = parsed else {
            outcome.fail(format!("body {distinct} does not parse"));
            continue;
        };
        if graph != self::graph(plan.seeds[distinct]) {
            outcome.fail(format!("graph {distinct} does not survive its edge list"));
            continue;
        }
        let result = traced
            .job(
                distinct,
                &graph,
                None,
                RuntimeConfig::Sequential,
                &builder,
                spans,
                job,
            )
            .and_then(|colors| {
                match served_colors.get(&distinct) {
                    Some(&hash) if hash != coloring_hash(colors.iter().copied()) => {
                        return Err(format!(
                            "graph {distinct}: served and in-process colorings differ"
                        ))
                    }
                    _ => {}
                }
                traced.submit_wait(&manager, &graph, &colors, JobSpec::default(), spans, job)
            });
        if let Err(error) = result {
            outcome.fail(error);
        }
    }
    traced.report(&mut outcome.metrics, Some(figures));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_request_in_four_repeats_an_answered_graph() {
        let schedule: Vec<(usize, bool)> = (0..8).map(scheduled).collect();
        let w = WARMUP;
        assert_eq!(
            schedule,
            [
                (w, false),
                (w + 1, false),
                (w + 2, false),
                (w + 1, true),
                (w + 3, false),
                (w + 4, false),
                (w + 5, false),
                (w + 4, true),
            ]
        );
    }

    #[test]
    fn job_responses_parse() {
        let body = br#"{"job":7,"status":"done","cached":false,"graph":{"nodes":3,"edges":2},"config":{"alpha":null},"age_nanos":5000000,"result":{"alpha":2,"colors_used":2,"wall_clock_nanos":4000000,"coloring":[0,1,0],"runtime_stats":[]}}"#;
        let sample = parse_job(1, 9, false, Duration::from_millis(6), body).unwrap();
        assert_eq!(
            (sample.conn, sample.distinct, sample.alpha, sample.nodes),
            (1, 9, 2, 3)
        );
        assert_eq!(sample.colors, [0, 1, 0]);
        assert!(!sample.cached);
        assert!((sample.queue_wait_ms - 1.0).abs() < 1e-9);
        assert!(parse_job(0, 0, false, Duration::ZERO, br#"{"status":"failed"}"#).is_err());
    }
}
