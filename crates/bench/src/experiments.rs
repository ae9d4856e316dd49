//! The experiment suite: every table regenerates one theorem-level claim of
//! the paper.

use std::collections::BTreeSet;

use ampc_model::LcaOracle;
use arbo_coloring::ampc::{
    color_alpha_power, color_alpha_squared, color_large_arboricity, color_two_alpha_plus_one,
    AmpcColoringParams,
};
use arbo_coloring::baselines;
use arbo_coloring::{derandomized_coloring, DerandParams};
use beta_partition::{
    ampc_beta_partition, ampc_beta_partition_unknown_arboricity, induced_partition,
    natural_partition, partial_partition_lca, CoinGameConfig, Layer, PartitionParams,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sparse_graph::{CsrGraph, GraphBuilder, NodeId};

use crate::table::Table;
use crate::workloads::Workload;
use ampc_runtime::RuntimeConfig;

/// An experiment: an id, a description and a generator producing its table.
pub struct Experiment {
    /// Identifier (`"E1"` … `"E10"`).
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Runs the experiment on the given backend and produces its table.
    /// Tables are bit-identical across backends; only wall clock differs.
    pub run: fn(RuntimeConfig) -> Table,
}

/// All experiments in index order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            description: "LCA layering fraction and query cost (Lemma 4.7 / Remark 4.8)",
            run: e1_lca_fraction,
        },
        Experiment {
            id: "E2",
            description: "Theorem 1.2 with beta = O(alpha): partition size O(log n), few rounds",
            run: e2_partition_rounds,
        },
        Experiment {
            id: "E3",
            description: "Theorem 1.2 with beta = alpha^(1+eps): constant rounds",
            run: e3_partition_constant_rounds,
        },
        Experiment {
            id: "E4",
            description: "Theorem 1.3(1): O(alpha^(2+eps)) colors in O(1/eps) rounds",
            run: e4_coloring_alpha_power,
        },
        Experiment {
            id: "E5",
            description: "Theorem 1.3(2): O(alpha^2) colors in O(log alpha) rounds",
            run: e5_coloring_alpha_squared,
        },
        Experiment {
            id: "E6",
            description: "Theorem 1.3(3) / Corollary 1.4: ((2+eps)alpha+1) colors",
            run: e6_coloring_two_alpha,
        },
        Experiment {
            id: "E7",
            description: "Theorem 1.5: deterministic 2x∆ MPC coloring, n/x^i decay",
            run: e7_derand_mpc,
        },
        Experiment {
            id: "E8",
            description: "Color/round trade-off across all variants and baselines",
            run: e8_tradeoff_table,
        },
        Experiment {
            id: "E9",
            description: "Lemma 5.1: arboricity guessing overhead",
            run: e9_guessing_overhead,
        },
        Experiment {
            id: "E10",
            description: "Adaptive coin-game exploration vs BFS/DFS on deep instances",
            run: e10_skewed_exploration,
        },
    ]
}

/// Looks up an experiment by its id (case-insensitive).
pub fn experiment_by_id(id: &str) -> Option<Experiment> {
    all_experiments()
        .into_iter()
        .find(|e| e.id.eq_ignore_ascii_case(id))
}

/// Partition parameters shared by the experiments.
fn partition_params(beta: usize, runtime: RuntimeConfig) -> PartitionParams {
    PartitionParams::new(beta).with_x(4).with_runtime(runtime)
}

fn ceil_log2(n: usize) -> usize {
    (usize::BITS - n.max(2).leading_zeros()) as usize
}

/// E1 — fraction of nodes the sublinear LCA layers, and its query cost, as a
/// function of the coin budget `x`.
fn e1_lca_fraction(_runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E1",
        "Sublinear LCA for partial beta-partitions",
        "A 1 - 1/n^{O(delta)} fraction of nodes is layered with sublinear queries per node; \
         both the fraction and the per-node query cost grow with the budget x (Lemma 4.7).",
        &[
            "workload",
            "beta",
            "x",
            "layer cap",
            "sampled",
            "layered frac",
            "avg queries",
            "max queries",
            "n",
        ],
    );

    let workloads = [
        Workload::ForestUnion { n: 2_000, k: 2 },
        Workload::PowerLaw {
            n: 2_000,
            edges_per_node: 3,
        },
    ];
    for workload in workloads {
        let graph = workload.build(42);
        let beta = 2 * workload.alpha_bound() + 2;
        for x in [4usize, 8, 12] {
            let config = CoinGameConfig::new(x, beta);
            let oracle = LcaOracle::new(&graph);
            let sample: Vec<NodeId> = graph.nodes().step_by(7).collect();
            let mut layered = 0usize;
            let mut total_queries = 0usize;
            let mut max_queries = 0usize;
            for &v in &sample {
                let output = partial_partition_lca(&oracle, v, &config).expect("no budget set");
                if output.root_layer.is_finite() {
                    layered += 1;
                }
                total_queries += output.queries;
                max_queries = max_queries.max(output.queries);
            }
            table.push_row(vec![
                workload.label(),
                beta.to_string(),
                x.to_string(),
                config.effective_layer_cap().to_string(),
                sample.len().to_string(),
                format!("{:.3}", layered as f64 / sample.len() as f64),
                format!("{:.1}", total_queries as f64 / sample.len() as f64),
                max_queries.to_string(),
                graph.num_nodes().to_string(),
            ]);
        }
    }
    table
}

/// E2 — Theorem 1.2 with `beta = O(alpha)`.
fn e2_partition_rounds(runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E2",
        "AMPC beta-partition, beta = ceil(2.5 * alpha)",
        "The partition is complete and valid, its size is O(log n), the number of AMPC rounds \
         grows with alpha but not with n, and per-machine queries stay sublinear (Theorem 1.2).",
        &[
            "workload",
            "alpha<=",
            "beta",
            "rounds",
            "layers",
            "log2 n",
            "max queries",
            "peel rounds",
        ],
    );
    let mut configurations: Vec<(Workload, usize)> = Vec::new();
    for k in [1usize, 2, 4, 8] {
        for n in [500usize, 2_000] {
            configurations.push((Workload::ForestUnion { n, k }, k));
        }
    }
    // Deep trees: the natural partition has depth+1 = Θ(log n) layers, so the
    // LCA-based algorithm needs several rounds (cap layers per round) while
    // the size stays logarithmic.
    configurations.push((Workload::DeepTree { arity: 4, depth: 5 }, 1));
    configurations.push((Workload::DeepTree { arity: 4, depth: 6 }, 1));

    for (workload, k) in configurations {
        let graph = workload.build(7 + k as u64);
        let n = graph.num_nodes();
        let beta = ((2.5 * k as f64).ceil() as usize).max(3);
        let result = ampc_beta_partition(&graph, &partition_params(beta, runtime))
            .expect("beta >= 2.5 alpha always succeeds");
        assert!(result.partition.validate(&graph).is_ok());
        table.push_row(vec![
            workload.label(),
            k.to_string(),
            beta.to_string(),
            result.rounds.to_string(),
            result.partition.size().to_string(),
            ceil_log2(n).to_string(),
            result.max_queries_per_node.to_string(),
            result.peeling_rounds.to_string(),
        ]);
    }
    table
}

/// E3 — Theorem 1.2 with `beta = alpha^(1+eps)`.
fn e3_partition_constant_rounds(runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E3",
        "AMPC beta-partition, beta = alpha^(1+eps)",
        "With the looser beta the number of rounds becomes (nearly) independent of alpha and n \
         — the O(1/eps)-round regime of Theorem 1.2.",
        &[
            "n",
            "alpha<=",
            "eps",
            "beta",
            "rounds",
            "layers",
            "max queries",
        ],
    );
    for k in [2usize, 4, 8] {
        for eps in [0.5f64, 1.0] {
            let n = 2_000usize;
            let workload = Workload::ForestUnion { n, k };
            let graph = workload.build(11 + k as u64);
            let beta = ((k as f64).powf(1.0 + eps).ceil() as usize).max(2 * k + 1);
            let result = ampc_beta_partition(&graph, &partition_params(beta, runtime))
                .expect("loose beta always succeeds");
            table.push_row(vec![
                n.to_string(),
                k.to_string(),
                format!("{eps:.2}"),
                beta.to_string(),
                result.rounds.to_string(),
                result.partition.size().to_string(),
                result.max_queries_per_node.to_string(),
            ]);
        }
    }
    table
}

fn coloring_params(runtime: RuntimeConfig) -> AmpcColoringParams {
    AmpcColoringParams::default()
        .with_x(4)
        .with_runtime(runtime)
}

/// E4 — Theorem 1.3 (1).
fn e4_coloring_alpha_power(runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E4",
        "O(alpha^(2+eps))-coloring in O(1/eps) rounds",
        "Colors grow roughly like alpha^2 (up to the eps slack) while the total number of AMPC \
         rounds stays small and flat in n (Theorem 1.3(1)).",
        &[
            "workload", "alpha<=", "beta", "colors", "alpha^2", "rounds", "Delta+1",
        ],
    );
    for workload in [
        Workload::ForestUnion { n: 1_500, k: 2 },
        Workload::ForestUnion { n: 1_500, k: 4 },
        Workload::PowerLaw {
            n: 1_500,
            edges_per_node: 3,
        },
    ] {
        let graph = workload.build(21);
        let alpha = workload.alpha_bound();
        let result = color_alpha_power(&graph, alpha, &coloring_params(runtime).with_epsilon(0.5))
            .expect("coloring succeeds");
        assert!(result.coloring.is_proper(&graph));
        table.push_row(vec![
            workload.label(),
            alpha.to_string(),
            result.beta.to_string(),
            result.colors_used.to_string(),
            (alpha * alpha).to_string(),
            result.total_rounds.to_string(),
            (graph.max_degree() + 1).to_string(),
        ]);
    }
    table
}

/// E5 — Theorem 1.3 (2).
fn e5_coloring_alpha_squared(runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E5",
        "O(alpha^2)-coloring in O(log alpha) rounds",
        "Colors stay within a constant factor of alpha^2 and the rounds scale with log(alpha), \
         not with n (Theorem 1.3(2)).",
        &[
            "workload",
            "alpha<=",
            "beta",
            "colors",
            "alpha^2",
            "rounds",
            "log2 alpha + 1",
        ],
    );
    for (n, k) in [(1_000usize, 1usize), (1_000, 2), (1_000, 4), (2_000, 4)] {
        let workload = Workload::ForestUnion { n, k };
        let graph = workload.build(23);
        let result = color_alpha_squared(&graph, k, &coloring_params(runtime)).expect("succeeds");
        assert!(result.coloring.is_proper(&graph));
        table.push_row(vec![
            workload.label(),
            k.to_string(),
            result.beta.to_string(),
            result.colors_used.to_string(),
            (k * k).to_string(),
            result.total_rounds.to_string(),
            (ceil_log2(k.max(2)) + 1).to_string(),
        ]);
    }
    table
}

/// E6 — Theorem 1.3 (3) / Corollary 1.4.
fn e6_coloring_two_alpha(runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E6",
        "((2+eps)alpha + 1)-coloring",
        "The number of colors is linear in alpha (and independent of n and Delta); for constant \
         alpha both colors and rounds stay constant as the graph grows (Corollary 1.4).",
        &[
            "workload",
            "alpha<=",
            "beta",
            "colors",
            "(2+eps)a+1",
            "rounds",
            "Delta+1",
        ],
    );
    for workload in [
        Workload::DeepTree { arity: 4, depth: 5 },
        Workload::ForestUnion { n: 1_000, k: 2 },
        Workload::ForestUnion { n: 2_000, k: 2 },
        Workload::PlanarGrid { side: 30 },
        Workload::PlanarGrid { side: 45 },
        Workload::PowerLaw {
            n: 2_000,
            edges_per_node: 4,
        },
    ] {
        let graph = workload.build(29);
        let alpha = workload.alpha_bound();
        let result =
            color_two_alpha_plus_one(&graph, alpha, &coloring_params(runtime).with_epsilon(0.5))
                .expect("succeeds");
        assert!(result.coloring.is_proper(&graph));
        table.push_row(vec![
            workload.label(),
            alpha.to_string(),
            result.beta.to_string(),
            result.colors_used.to_string(),
            (result.beta + 1).to_string(),
            result.total_rounds.to_string(),
            (graph.max_degree() + 1).to_string(),
        ]);
    }
    table
}

/// E7 — Theorem 1.5.
fn e7_derand_mpc(_runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E7",
        "Deterministic 2x∆-coloring in MPC",
        "The uncolored set shrinks at least by a factor x per phase, so the number of phases is \
         at most log_x(n) + 1; the palette is 2x∆ rounded to a power of two (Theorem 1.5).",
        &[
            "n",
            "m",
            "Delta",
            "x",
            "palette",
            "phases",
            "log_x n",
            "uncolored history",
            "mpc rounds",
        ],
    );
    for n in [300usize, 800] {
        for x in [2usize, 4, 8] {
            let workload = Workload::Gnm {
                n,
                average_degree: 6,
            };
            let graph = workload.build(31);
            let result = derandomized_coloring(&graph, &DerandParams::with_x(x));
            assert!(result.coloring.is_proper(&graph));
            let log_x_n = ((n as f64).ln() / (x as f64).ln()).ceil() as usize;
            let history = result
                .uncolored_history
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(">");
            table.push_row(vec![
                n.to_string(),
                graph.num_edges().to_string(),
                graph.max_degree().to_string(),
                x.to_string(),
                result.palette.to_string(),
                result.phases.to_string(),
                log_x_n.to_string(),
                history,
                result.mpc_rounds.to_string(),
            ]);
        }
    }
    table
}

/// E8 — the full trade-off table.
fn e8_tradeoff_table(runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E8",
        "Color / round trade-off on a heavy-tailed sparse graph",
        "The three Theorem 1.3 variants trade colors for rounds; all of them beat the Delta+1 \
         budget by a wide margin on graphs with Delta >> alpha; sequential baselines shown for \
         reference (no meaningful round count).",
        &[
            "algorithm",
            "colors",
            "beta",
            "AMPC rounds",
            "partition layers",
        ],
    );
    let workload = Workload::PowerLaw {
        n: 2_000,
        edges_per_node: 3,
    };
    let graph = workload.build(37);
    let alpha = workload.alpha_bound();
    let params = coloring_params(runtime);

    let variants: Vec<(&str, Result<arbo_coloring::ampc::AmpcColoringResult, _>)> = vec![
        (
            "Thm 1.3(1) alpha^(2+eps)",
            color_alpha_power(&graph, alpha, &params),
        ),
        (
            "Thm 1.3(2) alpha^2",
            color_alpha_squared(&graph, alpha, &params),
        ),
        (
            "Thm 1.3(3) (2+eps)alpha+1",
            color_two_alpha_plus_one(&graph, alpha, &params),
        ),
        (
            "Sec 6.4 alpha^(1+eps) via Thm 1.5",
            color_large_arboricity(&graph, alpha, &params),
        ),
    ];
    for (name, outcome) in variants {
        match outcome {
            Ok(result) => {
                assert!(result.coloring.is_proper(&graph));
                table.push_row(vec![
                    name.to_string(),
                    result.colors_used.to_string(),
                    result.beta.to_string(),
                    result.total_rounds.to_string(),
                    result.partition_size.to_string(),
                ]);
            }
            Err(err) => {
                table.push_row(vec![
                    name.to_string(),
                    format!("failed: {err}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }

    let mut rng = ChaCha8Rng::seed_from_u64(41);
    for baseline in baselines::all_baselines(&graph, &mut rng) {
        table.push_row(vec![
            baseline.algorithm.to_string(),
            baseline.colors_used.to_string(),
            "-".to_string(),
            "(sequential)".to_string(),
            "-".to_string(),
        ]);
    }
    table.push_row(vec![
        "Delta + 1 budget (degree-based)".to_string(),
        (graph.max_degree() + 1).to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    table
}

/// E9 — arboricity guessing (Lemma 5.1).
fn e9_guessing_overhead(runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E9",
        "Beta-partitioning without knowing alpha",
        "The guessing scheme settles on a guess within a constant factor of the true arboricity \
         and its total round cost stays within a constant factor of the known-alpha run \
         (Lemma 5.1).",
        &[
            "workload",
            "true k",
            "chosen alpha",
            "chosen beta",
            "guess rounds (seq+par)",
            "known-alpha rounds",
            "attempts",
        ],
    );
    for k in [1usize, 3, 6] {
        let workload = Workload::ForestUnion { n: 800, k };
        let graph = workload.build(43 + k as u64);
        let template = partition_params(0, runtime);
        let guess = ampc_beta_partition_unknown_arboricity(&graph, 0.5, &template)
            .expect("guessing succeeds");
        let known = ampc_beta_partition(
            &graph,
            &partition_params(((2.5 * k as f64).ceil()) as usize, runtime),
        )
        .expect("known-alpha run succeeds");
        table.push_row(vec![
            workload.label(),
            k.to_string(),
            guess.chosen_alpha.to_string(),
            guess.chosen_beta.to_string(),
            format!("{}+{}", guess.sequential_rounds, guess.parallel_rounds),
            known.rounds.to_string(),
            guess.attempts.len().to_string(),
        ]);
    }
    table
}

/// Builds the "cluttered deep tree" of Section 2.1's counter-examples: a
/// complete `(beta+1)`-ary tree whose internal nodes each carry `cliques`
/// attached copies of `K_{beta+2}`. The clique nodes keep degree `> beta`
/// forever, so they stay on the `∞` layer and never enter any dependency
/// graph — they are pure clutter that volume-oblivious exploration pays for.
fn cluttered_tree(beta: usize, depth: usize, cliques: usize) -> CsrGraph {
    let tree = sparse_graph::generators::complete_kary_tree(beta + 1, depth);
    let internal: Vec<NodeId> = tree.nodes().filter(|&v| tree.degree(v) > 1).collect();
    let clique_size = beta + 2;
    let n = tree.num_nodes() + internal.len() * cliques * clique_size;
    let mut builder = GraphBuilder::new(n);
    builder.extend_edges(tree.edges());
    let mut next = tree.num_nodes();
    for &v in &internal {
        for _ in 0..cliques {
            let members: Vec<NodeId> = (next..next + clique_size).collect();
            next += clique_size;
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    builder.add_edge(a, b);
                }
            }
            builder.add_edge(v, members[0]);
        }
    }
    builder.build()
}

/// Naive budgeted BFS exploration: collect nodes in BFS order until the
/// query budget is spent, then compute the induced partition of the
/// collected set and read off the root's layer.
fn bfs_layer_estimate(graph: &CsrGraph, root: NodeId, beta: usize, budget: usize) -> Layer {
    let mut visited: BTreeSet<NodeId> = BTreeSet::new();
    let mut queue = std::collections::VecDeque::new();
    let mut queries = 0usize;
    visited.insert(root);
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        if queries + graph.degree(v) + 1 > budget {
            break;
        }
        queries += graph.degree(v) + 1;
        for &w in graph.neighbors(v) {
            if visited.insert(w) {
                queue.push_back(w);
            }
        }
    }
    induced_layer(graph, &visited, root, beta)
}

/// Naive budgeted DFS exploration (same budget accounting as BFS).
fn dfs_layer_estimate(graph: &CsrGraph, root: NodeId, beta: usize, budget: usize) -> Layer {
    let mut visited: BTreeSet<NodeId> = BTreeSet::new();
    let mut stack = vec![root];
    let mut queries = 0usize;
    visited.insert(root);
    while let Some(v) = stack.pop() {
        if queries + graph.degree(v) + 1 > budget {
            break;
        }
        queries += graph.degree(v) + 1;
        for &w in graph.neighbors(v) {
            if visited.insert(w) {
                stack.push(w);
            }
        }
    }
    induced_layer(graph, &visited, root, beta)
}

fn induced_layer(
    graph: &CsrGraph,
    explored: &BTreeSet<NodeId>,
    root: NodeId,
    beta: usize,
) -> Layer {
    let in_s: Vec<bool> = (0..graph.num_nodes())
        .map(|v| explored.contains(&v))
        .collect();
    induced_partition(graph, &in_s, beta).layer(root)
}

/// E10 — adaptive exploration vs naive BFS/DFS under equal query budgets.
fn e10_skewed_exploration(_runtime: RuntimeConfig) -> Table {
    let mut table = Table::new(
        "E10",
        "Exploration cost on clutter-padded deep instances (Section 2.1)",
        "For every node whose natural layer is >= 2, the table reports the size of its \
         dependency graph |D(v)|, the queries the coin-dropping LCA actually spent, and the \
         smallest (hindsight-tuned, per-node) query budget under which budgeted BFS / DFS \
         certify the same layer. The LCA's cost scales with |D(v)| and stays far below n \
         without any tuning; DFS degrades sharply with the layer depth, and BFS only competes \
         because its budget is chosen per node with hindsight — no a-priori rule provides it.",
        &[
            "instance",
            "n",
            "layer",
            "count",
            "avg |D(v)|",
            "coin-game avg q",
            "BFS min budget",
            "DFS min budget",
        ],
    );
    let beta = 3usize;
    for (depth, cliques) in [(3usize, 2usize), (4, 2)] {
        let graph = cluttered_tree(beta, depth, cliques);
        let natural = natural_partition(&graph, beta);
        let x = (beta + 1).pow(3); // enough coins for layers up to 3
        let config = CoinGameConfig::new(x, beta).with_super_iterations(96);
        let oracle = LcaOracle::new(&graph);

        // Group the "deep" nodes (layer >= 2, below the reporting cap) by layer.
        let cap = config.effective_layer_cap();
        let mut by_layer: std::collections::BTreeMap<usize, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for v in graph.nodes() {
            if let Layer::Finite(layer) = natural.layer(v) {
                if (2..=cap).contains(&layer) {
                    by_layer.entry(layer).or_default().push(v);
                }
            }
        }

        for (layer, nodes) in by_layer {
            let mut dependency_total = 0usize;
            let mut game_total = 0usize;
            let mut bfs_total = 0usize;
            let mut dfs_total = 0usize;
            for &v in &nodes {
                dependency_total += beta_partition::dependency_size(&graph, &natural, v);
                let output = partial_partition_lca(&oracle, v, &config).expect("no budget");
                game_total += output.queries;
                bfs_total += minimal_budget(&graph, v, beta, Layer::Finite(layer), |g, r, b, q| {
                    bfs_layer_estimate(g, r, b, q)
                });
                dfs_total += minimal_budget(&graph, v, beta, Layer::Finite(layer), |g, r, b, q| {
                    dfs_layer_estimate(g, r, b, q)
                });
            }
            let avg = |total: usize| format!("{:.0}", total as f64 / nodes.len() as f64);
            table.push_row(vec![
                format!("cluttered-tree(depth={depth},cliques={cliques})"),
                graph.num_nodes().to_string(),
                layer.to_string(),
                nodes.len().to_string(),
                avg(dependency_total),
                avg(game_total),
                avg(bfs_total),
                avg(dfs_total),
            ]);
        }
    }
    table
}

/// The smallest budget (searched by doubling, then refined by bisection) at
/// which the given budgeted exploration certifies the target layer.
fn minimal_budget<F>(
    graph: &CsrGraph,
    root: NodeId,
    beta: usize,
    target: Layer,
    explore: F,
) -> usize
where
    F: Fn(&CsrGraph, NodeId, usize, usize) -> Layer,
{
    let max_budget = 4 * (graph.num_nodes() + 2 * graph.num_edges());
    let mut high = 8usize;
    while explore(graph, root, beta, high) != target {
        high *= 2;
        if high >= max_budget {
            return max_budget;
        }
    }
    let mut low = high / 2;
    while low + 1 < high {
        let mid = (low + high) / 2;
        if explore(graph, root, beta, mid) == target {
            high = mid;
        } else {
            low = mid;
        }
    }
    high
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_registry_is_complete_and_unique() {
        let experiments = all_experiments();
        assert_eq!(experiments.len(), 10);
        let ids: BTreeSet<&str> = experiments.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 10);
        assert!(experiment_by_id("e3").is_some());
        assert!(experiment_by_id("E10").is_some());
        assert!(experiment_by_id("E99").is_none());
    }

    #[test]
    fn cluttered_tree_shape() {
        let g = cluttered_tree(3, 2, 1);
        // Complete 4-ary tree of depth 2 has 21 nodes, 5 internal ones, each
        // carrying one K5 decoy (5 extra nodes).
        assert_eq!(g.num_nodes(), 21 + 5 * 5);
        // The clique nodes stay on the ∞ layer of the natural 3-partition.
        let natural = natural_partition(&g, 3);
        assert_eq!(natural.infinite_nodes().len(), 25);
        assert_eq!(natural.layer(0), Layer::Finite(2));
    }

    #[test]
    fn naive_explorations_return_layers() {
        let g = cluttered_tree(3, 2, 1);
        let budget = 4 * (g.num_nodes() + 2 * g.num_edges());
        // With an unlimited budget BFS/DFS see everything and get the root's
        // layer right (depth 2).
        assert_eq!(bfs_layer_estimate(&g, 0, 3, budget), Layer::Finite(2));
        assert_eq!(dfs_layer_estimate(&g, 0, 3, budget), Layer::Finite(2));
        assert!(
            minimal_budget(&g, 0, 3, Layer::Finite(2), |g, r, b, q| {
                bfs_layer_estimate(g, r, b, q)
            }) <= budget
        );
    }

    #[test]
    fn exploration_baselines_respect_their_budget() {
        let g = cluttered_tree(3, 2, 1);
        // A tiny budget can only reach the root's immediate surroundings, so
        // the root's layer is overestimated (possibly ∞) but never below the
        // natural layer (Lemma 3.13).
        let natural = natural_partition(&g, 3);
        let estimate = bfs_layer_estimate(&g, 0, 3, 8);
        assert!(estimate >= natural.layer(0));
        let estimate = dfs_layer_estimate(&g, 0, 3, 8);
        assert!(estimate >= natural.layer(0));
    }
}
