//! Raw per-job samples of a traced run and the per-layer metrics made
//! from them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ampc_coloring::graph::CsrGraph;
use ampc_coloring::{RuntimeConfig, SparseColoring};
use ampc_service::{JobManager, JobSpec};

use crate::job::{self, check_coloring, Counts, OutcomeCounts, RuntimeTotals};
use crate::spans::Spans;
use crate::stats::{median, ms, Metrics};

/// The figures only a served run has; zero for the library workloads,
/// which send nothing over HTTP.
#[derive(Default)]
pub struct Served {
    pub miss_ms_p50: f64,
    pub hit_ms_p50: f64,
    pub cache_hit_ratio: f64,
    pub queue_wait_ms_p50: f64,
    pub scrape_ms_p50: f64,
    pub keepalive_reused: f64,
}

/// The figures of one distinct graph that must repeat exactly.
struct GraphRecord {
    counts: Counts,
    partition_allocs: u64,
    coloring_allocs: u64,
}

#[derive(Default)]
pub struct Traced {
    pub parse: Vec<f64>,
    pub degeneracy: Vec<f64>,
    partition: Vec<f64>,
    ns_per_query: Vec<f64>,
    layers: Vec<f64>,
    recolor: Vec<f64>,
    residual: Vec<f64>,
    overhead: Vec<f64>,
    submit_wait: Vec<f64>,
    runtime: Vec<RuntimeTotals>,
    /// Keyed by the graph's index in its workload's inputs.
    graphs: BTreeMap<usize, GraphRecord>,
}

impl Traced {
    /// Colors graph number `key` with `color()` (untraced) and with the
    /// replica (traced), checks both, and returns the coloring. The first
    /// time a graph is seen, one more replica counts its allocations.
    #[allow(clippy::too_many_arguments)]
    pub fn job(
        &mut self,
        key: usize,
        graph: &CsrGraph,
        alpha: Option<usize>,
        runtime: RuntimeConfig,
        builder: &SparseColoring,
        spans: &Spans,
        job: u64,
    ) -> Result<Vec<usize>, String> {
        let (colored, took) = spans.time("core.color", job, None, || builder.color(graph));
        let colored = colored.map_err(|e| format!("color(): {e}"))?;
        check_coloring(graph, colored.coloring.colors().to_vec(), colored.alpha)?;
        let expected = OutcomeCounts::of(&colored);
        let replica = job::replicate(graph, alpha, runtime, spans, job, false)?;
        if replica.colors != colored.coloring.colors() || !expected.agrees_with(&replica.counts) {
            return Err(format!(
                "job {job}: the replica's coloring differs from color()'s"
            ));
        }
        match self.graphs.get(&key) {
            Some(seen) if seen.counts != replica.counts => {
                return Err(format!(
                    "graph {key} repeated with other counts: {:?} then {:?}",
                    seen.counts, replica.counts
                ));
            }
            Some(_) => {}
            None => {
                let counted = job::replicate(graph, alpha, runtime, &Spans::new(), job, true)?;
                if counted.counts != replica.counts {
                    return Err(format!("graph {key}: counting allocations changed the job"));
                }
                self.graphs.insert(
                    key,
                    GraphRecord {
                        counts: counted.counts,
                        partition_allocs: counted.partition_allocs,
                        coloring_allocs: counted.coloring_allocs,
                    },
                );
            }
        }
        let times = &replica.times;
        if let Some(degeneracy) = times.degeneracy {
            self.degeneracy.push(ms(degeneracy));
        }
        self.partition.push(ms(times.partition));
        self.ns_per_query
            .push(times.partition.as_nanos() as f64 / replica.counts.lca_queries.max(1) as f64);
        self.layers.push(ms(times.layers));
        self.recolor.push(ms(times.recolor));
        self.residual.push(ms(took) - ms(times.on_path()));
        self.overhead.push(ms(times.total) - ms(took));
        self.runtime.push(RuntimeTotals::of(&colored.metrics));
        Ok(replica.colors)
    }

    /// Submits `graph` to an in-process `JobManager` and waits for it: the
    /// service without HTTP. The result must equal `expected`.
    pub fn submit_wait(
        &mut self,
        manager: &JobManager,
        graph: &CsrGraph,
        expected: &[usize],
        spec: JobSpec,
        spans: &Spans,
        job: u64,
    ) -> Result<(), String> {
        let graph = Arc::new(graph.clone());
        let (view, took) = spans.time("service.submit_wait", job, None, || {
            let id = manager.submit(graph, spec).map_err(|e| e.to_string())?;
            manager
                .wait(id, Duration::from_secs(120))
                .ok_or_else(|| "in-process job record vanished".to_string())
        });
        match view?.result {
            Some(result) if result.coloring.colors() == expected => {
                self.submit_wait.push(ms(took));
                Ok(())
            }
            _ => Err(format!("in-process job {job} differs from color()")),
        }
    }

    /// The per-layer metrics. Counts are reported per job as their mean
    /// over the distinct graphs, so a seed always reports the same counts.
    pub fn report(&self, m: &mut Metrics, served: Option<Served>) {
        let per_graph = |f: &dyn Fn(&GraphRecord) -> u64| {
            self.graphs.values().map(|g| f(g) as f64).sum::<f64>() / self.graphs.len().max(1) as f64
        };
        let mean = |f: &dyn Fn(&Counts) -> usize| per_graph(&|g| f(&g.counts) as u64);
        let runtime = |f: &dyn Fn(&RuntimeTotals) -> f64| {
            median(&self.runtime.iter().map(f).collect::<Vec<_>>())
        };
        let parse = median(&self.parse);
        let submit_wait = median(&self.submit_wait);
        m.put("graph.parse_ms", parse, "ms");
        m.put("graph.degeneracy_ms", median(&self.degeneracy), "ms");
        m.put("partition.ms", median(&self.partition), "ms");
        m.put("partition.ns_per_query", median(&self.ns_per_query), "ns");
        m.put("partition.rounds", mean(&|c| c.partition_rounds), "count");
        m.put("partition.layers", mean(&|c| c.layers), "count");
        m.put("partition.lca_queries", mean(&|c| c.lca_queries), "count");
        m.put("partition.proof_writes", mean(&|c| c.proof_writes), "count");
        m.put(
            "partition.max_queries_per_node",
            mean(&|c| c.max_queries_per_node),
            "count",
        );
        m.put(
            "partition.conflict_merges",
            mean(&|c| c.conflict_merges),
            "count",
        );
        m.put(
            "partition.allocs",
            per_graph(&|g| g.partition_allocs),
            "count",
        );
        m.put("coloring.layer_ms", median(&self.layers), "ms");
        m.put("coloring.recolor_ms", median(&self.recolor), "ms");
        m.put(
            "coloring.linial_rounds",
            mean(&|c| c.linial_rounds),
            "count",
        );
        m.put("coloring.kw_rounds", mean(&|c| c.kw_rounds), "count");
        m.put("coloring.colors_used", mean(&|c| c.colors_used), "count");
        m.put(
            "coloring.allocs",
            per_graph(&|g| g.coloring_allocs),
            "count",
        );
        m.put(
            "runtime.intra_tasks",
            runtime(&|r| r.intra_tasks as f64),
            "count",
        );
        m.put(
            "runtime.pool_steals",
            runtime(&|r| r.pool_steals as f64),
            "count",
        );
        m.put("runtime.pool_idle_ms", runtime(&|r| ms(r.pool_idle)), "ms");
        m.put(
            "runtime.scratch_allocs",
            runtime(&|r| r.scratch_allocs as f64),
            "count",
        );
        m.put(
            "runtime.scratch_reuses",
            runtime(&|r| r.scratch_reuses as f64),
            "count",
        );
        m.put("service.submit_wait_ms", submit_wait, "ms");
        // The in-process jobs are all cache misses, so HTTP's share is
        // taken from the served misses.
        let http = served
            .as_ref()
            .map_or(0.0, |s| s.miss_ms_p50 - submit_wait - parse);
        let served = served.unwrap_or_default();
        m.put("service.http_ms", http, "ms");
        m.put("service.miss_ms_p50", served.miss_ms_p50, "ms");
        m.put("service.hit_ms_p50", served.hit_ms_p50, "ms");
        m.put("service.cache_hit_ratio", served.cache_hit_ratio, "ratio");
        m.put("service.queue_wait_ms_p50", served.queue_wait_ms_p50, "ms");
        m.put("service.scrape_ms_p50", served.scrape_ms_p50, "ms");
        m.put("service.keepalive_reused", served.keepalive_reused, "count");
        m.put("core.residual_ms", median(&self.residual), "ms");
        m.put("core.trace_overhead_ms", median(&self.overhead), "ms");
    }
}
