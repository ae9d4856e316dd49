//! What one coloring job is checked against, and the traced replica that
//! splits a job by crate.
//!
//! The replica runs the pipeline of `color_two_alpha_plus_one` from the
//! outside, calling each crate's public functions in the order and with
//! the parameters `SparseColoring::color` uses: the β-partition
//! (`beta-partition`), then Arb-Linial plus Kuhn–Wattenhofer on every
//! layer dispatched with `parallel_map_weighted` (`arbo-coloring` on
//! `ampc-runtime`), then the layered recoloring. Its coloring must be
//! byte-identical to `color()`'s, or its layer times would describe a
//! different program.

use std::time::Duration;

use ampc_coloring::coloring::{
    arb_linial_coloring_with_runtime, kw_color_reduction_with_runtime, recolor_layers_with_runtime,
    RecolorOrder,
};
use ampc_coloring::graph::{
    arboricity_upper_bound, Coloring, CsrGraph, InducedSubgraph, NodeId, Orientation,
};
use ampc_coloring::model::AmpcMetrics;
use ampc_coloring::partition::{BetaPartition, Layer};
use ampc_coloring::runtime::{parallel_map_weighted, RoundPrimitives};
use ampc_coloring::{Algorithm, ColoringOutcome, RuntimeConfig, SparseColoring};

use crate::alloc;
use crate::spans::Spans;

/// The ε every workload runs with (the library default).
pub const EPSILON: f64 = 0.5;
/// The δ every workload runs with (the library default).
const DELTA: f64 = 0.5;

/// FNV-1a over a coloring, to compare colorings without keeping them.
pub fn coloring_hash(colors: impl IntoIterator<Item = usize>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for color in colors {
        for byte in (color as u64).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Checks that `colors` properly colors `graph` within the Theorem 1.3
/// palette bound `⌈(2 + ε)α⌉ + 1` for the α the job used. Returns the
/// number of distinct colors.
pub fn check_coloring(graph: &CsrGraph, colors: Vec<usize>, alpha: usize) -> Result<usize, String> {
    if colors.len() != graph.num_nodes() {
        return Err(format!(
            "coloring covers {} of {} nodes",
            colors.len(),
            graph.num_nodes()
        ));
    }
    let coloring = Coloring::new(colors);
    if !coloring.is_proper(graph) {
        return Err(format!(
            "improper coloring: {} conflicting edges",
            coloring.num_conflicts(graph)
        ));
    }
    let used = coloring.num_colors();
    let bound = ((2.0 + EPSILON) * alpha as f64).ceil() as usize + 1;
    if used > bound {
        return Err(format!(
            "{used} colors exceed the bound {bound} for alpha {alpha}"
        ));
    }
    Ok(used)
}

/// The runtime layer's counters summed over a job's records: the
/// partition rounds' pool statistics and the coloring phase's
/// `RoundPrimitives` record.
#[derive(Default, Clone, Copy)]
pub struct RuntimeTotals {
    pub intra_tasks: u64,
    pub pool_steals: u64,
    pub pool_idle: Duration,
    pub scratch_allocs: u64,
    pub scratch_reuses: u64,
}

impl RuntimeTotals {
    pub fn of(metrics: &AmpcMetrics) -> Self {
        let mut totals = RuntimeTotals::default();
        for stats in metrics.runtime_stats() {
            totals.intra_tasks += stats.intra_tasks;
            totals.pool_steals += stats.pool_steals;
            totals.pool_idle += Duration::from_nanos(stats.pool_idle_nanos);
            totals.scratch_allocs += stats.scratch_allocs;
            totals.scratch_reuses += stats.scratch_reuses;
        }
        totals
    }
}

/// The counts of one job that do not depend on timing: they must repeat
/// exactly whenever the same graph is colored again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub coloring_hash: u64,
    pub colors_used: usize,
    pub partition_rounds: usize,
    pub layers: usize,
    pub lca_queries: usize,
    pub proof_writes: usize,
    pub max_queries_per_node: usize,
    pub conflict_merges: usize,
    pub linial_rounds: usize,
    pub kw_rounds: usize,
}

/// The exact figures a `color()` outcome carries; they must repeat
/// whenever the same graph is colored again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeCounts {
    pub coloring_hash: u64,
    pub colors_used: usize,
    pub partition_rounds: usize,
    pub layers: usize,
    pub coloring_rounds: usize,
    pub lca_queries: usize,
    pub proof_writes: usize,
}

impl OutcomeCounts {
    pub fn of(outcome: &ColoringOutcome) -> Self {
        let rounds = outcome.metrics.rounds();
        OutcomeCounts {
            coloring_hash: coloring_hash(outcome.coloring.colors().iter().copied()),
            colors_used: outcome.colors_used,
            partition_rounds: outcome.partition_rounds,
            layers: outcome.partition_size,
            coloring_rounds: outcome.coloring_rounds,
            lca_queries: rounds.iter().map(|r| r.total_reads).sum(),
            proof_writes: rounds.iter().map(|r| r.total_writes).sum(),
        }
    }

    /// Whether a replica computed the same partition and coloring.
    pub fn agrees_with(&self, replica: &Counts) -> bool {
        self.coloring_hash == replica.coloring_hash
            && self.colors_used == replica.colors_used
            && self.partition_rounds == replica.partition_rounds
            && self.layers == replica.layers
            && self.lca_queries == replica.lca_queries
            && self.proof_writes == replica.proof_writes
    }
}

/// Layer times of one replicated job.
pub struct Times {
    /// `arboricity_upper_bound`, when the job estimates α itself.
    pub degeneracy: Option<Duration>,
    pub partition: Duration,
    pub layers: Duration,
    pub recolor: Duration,
    /// The whole replica, spans and allocation counting included.
    pub total: Duration,
}

impl Times {
    /// The layer times on the job's path, summed.
    pub fn on_path(&self) -> Duration {
        self.degeneracy.unwrap_or_default() + self.partition + self.layers + self.recolor
    }
}

pub struct Replica {
    pub colors: Vec<usize>,
    pub counts: Counts,
    pub times: Times,
    pub partition_allocs: u64,
    pub coloring_allocs: u64,
}

/// The β `color_two_alpha_plus_one` uses.
fn beta(alpha: usize) -> usize {
    ((alpha.max(1) as f64) * (2.0 + EPSILON)).ceil() as usize
}

/// Replays `SparseColoring::color` for `TwoAlphaPlusOne` (given `alpha`)
/// or `Auto` (`alpha = None`, estimated by degeneracy), recording one span
/// per crate call under a root span for `job`. With `count_allocs` the
/// partition's and the coloring's heap allocations are counted too, which
/// slows both, so a counted replica's times are not reported.
pub fn replicate(
    graph: &CsrGraph,
    alpha: Option<usize>,
    runtime: RuntimeConfig,
    spans: &Spans,
    job: u64,
    count_allocs: bool,
) -> Result<Replica, String> {
    let root = spans.open("job", job, None);
    let (alpha, degeneracy) = match alpha {
        Some(alpha) => (alpha, None),
        None => {
            let (alpha, took) = spans.time("graph.degeneracy", job, Some(root), || {
                arboricity_upper_bound(graph).max(1)
            });
            // `Auto` picks the Theorem 1.3 (3) route below this threshold.
            let threshold = (graph.num_nodes().max(2) as f64).powf(DELTA / (1.0 + EPSILON));
            if alpha as f64 > threshold {
                return Err(format!(
                    "auto would choose the large-arboricity route (alpha {alpha})"
                ));
            }
            (alpha, Some(took))
        }
    };
    let beta = beta(alpha);

    let builder = SparseColoring::new()
        .algorithm(Algorithm::TwoAlphaPlusOne)
        .alpha(alpha)
        .epsilon(EPSILON)
        .delta(DELTA)
        .runtime(runtime);
    let ((partition, partition_allocs), partition_time) =
        spans.time("partition", job, Some(root), || {
            alloc::count_if(count_allocs, || builder.beta_partition(graph))
        });
    let partition = partition.map_err(|e| format!("partition: {e}"))?;

    struct LayerColors {
        colors: Vec<(NodeId, usize)>,
        linial_rounds: usize,
        kw_rounds: usize,
    }
    let primitives = RoundPrimitives::from_config(&runtime);
    let layers = layer_members(graph, &partition.partition);
    let layers_span = spans.open("coloring.layers", job, Some(root));
    let (outcomes, layer_allocs) = alloc::count_if(count_allocs, || {
        parallel_map_weighted(
            &layers,
            runtime.effective_threads(),
            |_, members| members.len() + members.iter().map(|&v| graph.degree(v)).sum::<usize>(),
            |_, members| {
                let (colored, _) = spans.time("coloring.layer", job, Some(layers_span), || {
                    let sub = InducedSubgraph::new(graph, members);
                    let local = sub.graph();
                    let orientation = Orientation::from_total_order(local, |v| v);
                    let linial =
                        arb_linial_coloring_with_runtime(local, &orientation, None, &primitives)
                            .map_err(|e| format!("arb-linial: {e}"))?;
                    let reduced =
                        kw_color_reduction_with_runtime(local, &linial.coloring, beta, &primitives)
                            .map_err(|e| format!("kuhn-wattenhofer: {e}"))?;
                    let colors = sub
                        .original_nodes()
                        .iter()
                        .enumerate()
                        .map(|(v, &original)| (original, reduced.coloring.color(v)))
                        .collect();
                    Ok::<_, String>(LayerColors {
                        colors,
                        linial_rounds: linial.rounds,
                        kw_rounds: reduced.rounds,
                    })
                });
                colored
            },
        )
    });
    let layers_time = spans.close(layers_span);
    let outcomes = outcomes?;
    let mut initial = vec![0usize; graph.num_nodes()];
    let (mut linial_rounds, mut kw_rounds) = (0, 0);
    for outcome in &outcomes {
        linial_rounds = linial_rounds.max(outcome.linial_rounds);
        kw_rounds = kw_rounds.max(outcome.kw_rounds);
        for &(v, color) in &outcome.colors {
            initial[v] = color;
        }
    }

    let ((recolored, recolor_allocs), recolor_time) =
        spans.time("coloring.recolor", job, Some(root), || {
            alloc::count_if(count_allocs, || {
                recolor_layers_with_runtime(
                    graph,
                    &partition.partition,
                    &Coloring::new(initial),
                    RecolorOrder::HighestAvailable,
                    &primitives,
                )
            })
        });
    let colors = recolored
        .map_err(|e| format!("recolor: {e}"))?
        .coloring
        .into_colors();
    let total = spans.close(root);

    let rounds = partition.metrics.rounds();
    let counts = Counts {
        coloring_hash: coloring_hash(colors.iter().copied()),
        colors_used: Coloring::new(colors.clone()).num_colors(),
        partition_rounds: partition.rounds,
        layers: partition.partition_size(),
        lca_queries: rounds.iter().map(|r| r.total_reads).sum(),
        proof_writes: rounds.iter().map(|r| r.total_writes).sum(),
        max_queries_per_node: partition.max_queries_per_node,
        conflict_merges: partition.metrics.total_conflict_merges(),
        linial_rounds,
        kw_rounds,
    };
    Ok(Replica {
        colors,
        counts,
        times: Times {
            degeneracy,
            partition: partition_time,
            layers: layers_time,
            recolor: recolor_time,
            total,
        },
        partition_allocs,
        coloring_allocs: layer_allocs + recolor_allocs,
    })
}

/// The member lists of all non-empty layers, in increasing layer order,
/// as `color_two_alpha_plus_one` builds them.
fn layer_members(graph: &CsrGraph, partition: &BetaPartition) -> Vec<Vec<NodeId>> {
    let Some(max_layer) = partition.max_finite_layer() else {
        return Vec::new();
    };
    let mut layers: Vec<Vec<NodeId>> = vec![Vec::new(); max_layer + 1];
    for v in graph.nodes() {
        if let Layer::Finite(layer) = partition.layer(v) {
            layers[layer].push(v);
        }
    }
    layers.retain(|members| !members.is_empty());
    layers
}
