//! # ampc-model
//!
//! Simulation runtime for the models of parallel computation used by
//! *Adaptive Massively Parallel Coloring in Sparse Graphs* (PODC 2024):
//!
//! * **AMPC** (Adaptive Massively Parallel Computation, Section 3.1 of the
//!   paper): machines with `S = O(nᵟ)` words of local space communicating
//!   through distributed key-value data stores (DDS). Within a round a
//!   machine may issue `O(S)` *adaptive* reads against the previous round's
//!   store and `O(S)` writes into the next one. Implemented by
//!   [`AmpcExecutor`], [`DataStore`] and [`MachineContext`].
//! * **MPC** (low-space Massively Parallel Computation): the non-adaptive
//!   special case used by Theorem 1.5; [`mpc`] provides broadcast-tree
//!   aggregation and round accounting.
//! * **LCA** (Local Computation Algorithms): a per-node adjacency-list
//!   oracle with query counting, implemented by [`LcaOracle`].
//! * **LOCAL**: a synchronous message-passing simulator used to validate the
//!   subroutines the AMPC algorithms simulate, implemented by
//!   [`local::LocalNetwork`].
//!
//! The simulator's job is to *enforce and report* the complexity measures the
//! paper's theorems are about — rounds, local space, queries per machine,
//! total communication — while running the actual deterministic algorithms.
//!
//! ```
//! use ampc_model::{AmpcConfig, AmpcExecutor, ConflictPolicy, DataStore, Key, Value};
//!
//! // Double every value stored in the input DDS, one machine per key.
//! let mut input = DataStore::new();
//! for i in 0..8u64 {
//!     input.insert(Key::single(i), Value::single(i));
//! }
//! let config = AmpcConfig::for_input_size(8, 0.5);
//! let mut executor = AmpcExecutor::new(config, input);
//! executor
//!     .round(8, ConflictPolicy::Error, |machine, ctx| {
//!         let key = Key::single(machine as u64);
//!         if let Some(value) = ctx.read(key)? {
//!             ctx.write(key, Value::single(value.words()[0] * 2))?;
//!         }
//!         Ok(())
//!     })
//!     .unwrap();
//! assert_eq!(
//!     executor.store().get(Key::single(3)).unwrap().words()[0],
//!     6
//! );
//! assert_eq!(executor.metrics().num_rounds(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dds;
mod error;
mod executor;
mod graph_store;
mod lca;
mod metrics;

pub mod local;
pub mod mpc;

pub use config::AmpcConfig;
pub use dds::{DataStore, Key, StoreRead, Value};
pub use error::ModelError;
pub use executor::{AmpcExecutor, ConflictPolicy, MachineContext};
pub use graph_store::GraphStore;
pub use lca::{LcaOracle, LcaStats};
pub use metrics::{AmpcMetrics, RoundReport, RoundRuntimeStats};
