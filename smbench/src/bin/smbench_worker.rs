//! Worker process of the cluster3-kill workload: one operator node per OS
//! process, launched by `Cluster` with its slice of the topology in the
//! environment.

use std::sync::Arc;

use streammine::core::dist::{worker_main, OperatorRegistry};
use streammine::operators::RandomTagger;

fn main() {
    let registry = OperatorRegistry::new().with(RandomTagger::NAME, || Arc::new(RandomTagger));
    std::process::exit(worker_main(&registry));
}
