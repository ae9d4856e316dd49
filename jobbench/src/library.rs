//! The library workloads: `SparseColoring::color` called directly, one job
//! after another, on a few fixed graphs used in turn.

use std::time::Instant;

use ampc_coloring::graph::{
    arboricity_upper_bound, read_edge_list_bounded, write_edge_list, CsrGraph,
};
use ampc_coloring::{Algorithm, ColorRequest, RuntimeConfig, SparseColoring};
use ampc_coloring_bench::Workload;
use ampc_service::{JobManager, JobSpec, ServiceConfig};

use crate::job::{check_coloring, OutcomeCounts, EPSILON};
use crate::spans::Spans;
use crate::stats::{median, ms, peak_rss_mb, quantile, Outcome, Tail};
use crate::traced::Traced;
use crate::{graph_seed, Run, SETUP_REPS};

/// Distinct graphs per run, colored in turn.
const GRAPHS: usize = 8;
/// The arboricity bound both library workloads pass (both graph families
/// have arboricity at most 2).
const ALPHA: usize = 2;
/// A library run measures at least this many jobs, so that the p75 tail
/// has ten samples beyond it.
pub const TAIL: Tail = Tail {
    q: 0.75,
    min_jobs: 40,
};

pub struct Library {
    pub workload: Workload,
    pub runtime: RuntimeConfig,
}

struct Inputs {
    graphs: Vec<CsrGraph>,
    /// The graphs serialized as edge lists, parsed again in the traced run.
    bodies: Vec<String>,
}

fn set_up(library: &Library, seed: u64) -> Inputs {
    let graphs: Vec<CsrGraph> = (0..GRAPHS)
        .map(|i| library.workload.build(graph_seed(seed, 0, i as u64)))
        .collect();
    let bodies = graphs.iter().map(write_edge_list).collect();
    Inputs { graphs, bodies }
}

impl Library {
    fn builder(&self) -> SparseColoring {
        SparseColoring::new()
            .algorithm(Algorithm::TwoAlphaPlusOne)
            .alpha(ALPHA)
            .epsilon(EPSILON)
            .runtime(self.runtime)
    }

    /// The untraced run: the end-to-end metrics.
    pub fn measure(&self, run: &Run) -> Result<Outcome, String> {
        let mut setups = Vec::new();
        let mut inputs = None;
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            inputs = Some(set_up(self, run.seed));
            setups.push(started.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("at least one set-up");
        let builder = self.builder();
        // Untimed: lets the worker pool and lazy state come up first.
        builder
            .color(&inputs.graphs[0])
            .map_err(|e| format!("warm-up job: {e}"))?;

        let mut outcome = Outcome::new();
        let mut times = Vec::new();
        let mut colors_used_max = 0usize;
        let mut first: Vec<Option<OutcomeCounts>> = vec![None; GRAPHS];
        let started = Instant::now();
        while started.elapsed() < run.seconds || times.len() < TAIL.min_jobs {
            let index = outcome.attempted as usize % GRAPHS;
            let graph = &inputs.graphs[index];
            outcome.attempted += 1;
            let job_started = Instant::now();
            let result = builder.color(graph);
            let took = job_started.elapsed();
            let colored = result.map_err(|e| e.to_string()).and_then(|colored| {
                check_coloring(graph, colored.coloring.colors().to_vec(), colored.alpha)?;
                let counts = OutcomeCounts::of(&colored);
                match first[index] {
                    None => first[index] = Some(counts),
                    Some(seen) if seen != counts => {
                        return Err(format!(
                            "graph {index} repeated with other counts: {seen:?} then {counts:?}"
                        ))
                    }
                    Some(_) => {}
                }
                Ok(colored)
            });
            match colored {
                Ok(colored) => {
                    times.push(ms(took));
                    colors_used_max = colors_used_max.max(colored.colors_used);
                }
                Err(error) => outcome.fail(error),
            }
        }
        let elapsed = started.elapsed();

        let m = &mut outcome.metrics;
        m.put("job_ms_p50", median(&times), "ms");
        m.put("job_ms_tail", quantile(&times, TAIL.q).unwrap_or(0.0), "ms");
        m.put(
            "jobs_per_s",
            times.len() as f64 / elapsed.as_secs_f64(),
            "1/s",
        );
        m.put("colors_used_max", colors_used_max as f64, "count");
        m.put("setup_s", median(&setups), "s");
        m.put("peak_rss_mb", peak_rss_mb("self")?, "MiB");
        Ok(outcome)
    }

    /// The traced run: every job is colored by `color()` and again by the
    /// replica with the benchmark's spans, then each graph once more
    /// through an in-process `JobManager`.
    pub fn trace(&self, run: &Run, spans: &Spans) -> Result<Outcome, String> {
        let inputs = set_up(self, run.seed);
        let builder = self.builder();
        builder
            .color(&inputs.graphs[0])
            .map_err(|e| format!("warm-up job: {e}"))?;

        let mut outcome = Outcome::new();
        let mut traced = Traced::default();
        let mut colorings: Vec<Option<Vec<usize>>> = vec![None; GRAPHS];
        let started = Instant::now();
        while started.elapsed() < run.seconds || (outcome.attempted as usize) < GRAPHS {
            let job = outcome.attempted;
            let index = job as usize % GRAPHS;
            let graph = &inputs.graphs[index];
            outcome.attempted += 1;
            let (parsed, parse) = spans.time("graph.parse", job, None, || {
                read_edge_list_bounded(inputs.bodies[index].as_bytes(), 0, usize::MAX)
            });
            traced.parse.push(ms(parse));
            if parsed.as_ref().ok() != Some(graph) {
                outcome.fail(format!("graph {index} does not survive its edge list"));
                continue;
            }
            // Off the job's path (α is given), but measured on the same
            // graphs so the graph layer has a figure on every workload.
            let (_, degeneracy) = spans.time("graph.degeneracy", job, None, || {
                arboricity_upper_bound(graph)
            });
            traced.degeneracy.push(ms(degeneracy));
            match traced.job(
                index,
                graph,
                Some(ALPHA),
                self.runtime,
                &builder,
                spans,
                job,
            ) {
                Ok(colors) => colorings[index] = Some(colors),
                Err(error) => outcome.fail(error),
            }
        }
        let manager = JobManager::new(ServiceConfig::default());
        for (graph, colors) in inputs.graphs.iter().zip(&colorings) {
            let Some(colors) = colors else { continue };
            let job = outcome.attempted;
            outcome.attempted += 1;
            if let Err(error) = traced.submit_wait(&manager, graph, colors, self.spec(), spans, job)
            {
                outcome.fail(error);
            }
        }
        traced.report(&mut outcome.metrics, None);
        Ok(outcome)
    }

    fn spec(&self) -> JobSpec {
        JobSpec {
            request: ColorRequest {
                algorithm: Algorithm::TwoAlphaPlusOne,
                alpha: Some(ALPHA),
                epsilon: EPSILON,
                runtime: self.runtime,
                ..ColorRequest::default()
            },
            ..JobSpec::default()
        }
    }
}
