//! Physical plans: the logical plan annotated for morsel-parallel execution.
//!
//! Lowering walks the bound (and optimized) logical [`Node`] tree and produces
//! a mirror tree of [`PhysNode`]s, each carrying
//! - whether the operator is a *pipeline breaker* (must consume its whole
//!   input before emitting: hash aggregate, hash join, sort, distinct);
//! - the degree of parallelism the executor will use for it;
//! - an [`OpMetricsCell`] that workers update concurrently during execution.
//!
//! The physical tree borrows the logical plan rather than copying it: operator
//! semantics stay defined in one place and lowering stays cheap enough to run
//! per query.
//!
//! Lowering also executes each shared subplan once. The roots of repeated
//! subtrees ([`shared_subplans`]) get a per-query [`Spool`]: the first
//! reference lowers (and later runs) its subtree and fills the spool, every
//! later reference lowers to a childless reuse node that reads it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::exec::metrics::{OpMetrics, OpMetricsCell};
use crate::exec::Chunk;
use crate::plan::share::{shared_subplans, Share};
use crate::plan::{Node, NodeKind};

/// One operator of the physical plan.
#[derive(Debug)]
pub struct PhysNode<'a> {
    /// The logical operator this node executes.
    pub logical: &'a Node,
    /// Children in the same order as the logical node's inputs.
    pub children: Vec<PhysNode<'a>>,
    /// True when the operator must materialize its entire input before
    /// emitting output (aggregate, join, sort, distinct).
    pub breaker: bool,
    /// Worker count the executor will use for this operator's parallel phase
    /// (1 = inherently serial).
    pub parallelism: usize,
    /// Concurrent metric counters, snapshotted after execution.
    pub metrics: OpMetricsCell,
    /// Set when this operator is the root of a shared subplan.
    pub spool: Option<Spooled>,
}

/// The role of a shared-subplan root in execution.
#[derive(Debug)]
pub enum Spooled {
    /// Runs the operator and fills the spool.
    First(Arc<Spool>),
    /// Reads the spool filled by the first reference; has no children.
    Reuse(Arc<Spool>),
}

/// The materialized result of one shared subplan, held for the duration of
/// one query execution.
#[derive(Debug)]
pub struct Spool {
    /// 1-based spool number, as `EXPLAIN` prints it.
    pub(crate) id: usize,
    /// References reading this spool, the first included.
    uses: usize,
    state: Mutex<SpoolState>,
}

#[derive(Debug, Default)]
struct SpoolState {
    batches: Option<Vec<Chunk>>,
    left: usize,
}

impl Spool {
    fn new(id: usize, uses: usize) -> Spool {
        Spool { id, uses, state: Mutex::default() }
    }

    /// Stores the first reference's result for this execution.
    pub(crate) fn fill(&self, batches: Vec<Chunk>) {
        let mut st = self.state.lock();
        *st = SpoolState { batches: Some(batches), left: self.uses };
    }

    /// Hands one reference its batches: a clone while later references
    /// remain (`true`), the batches themselves to the last one (`false`),
    /// which frees the spool. `None` when the spool is not filled.
    pub(crate) fn take(&self) -> Option<(Vec<Chunk>, bool)> {
        let mut st = self.state.lock();
        st.left = st.left.checked_sub(1)?;
        if st.left == 0 {
            st.batches.take().map(|b| (b, false))
        } else {
            st.batches.clone().map(|b| (b, true))
        }
    }
}

/// Lowers a logical plan for execution with `threads` workers.
pub fn lower(plan: &Node, threads: usize) -> PhysNode<'_> {
    let shares = shared_subplans(plan);
    lower_node(plan, threads.max(1), &shares, &mut HashMap::new())
}

fn lower_node<'a>(
    plan: &'a Node,
    threads: usize,
    shares: &HashMap<usize, Share>,
    spools: &mut HashMap<usize, Arc<Spool>>,
) -> PhysNode<'a> {
    let spool = match shares.get(&(plan as *const Node as usize)) {
        None => None,
        Some(&Share::First { id, uses }) => {
            let spool = Arc::new(Spool::new(id, uses));
            spools.insert(id, spool.clone());
            Some(Spooled::First(spool))
        }
        Some(&Share::Reuse { id }) => {
            let spool = spools
                .get(&id)
                .expect("lowering visits a first reference before its reuses")
                .clone();
            return PhysNode {
                logical: plan,
                children: Vec::new(),
                breaker: true,
                parallelism: 1,
                metrics: OpMetricsCell::default(),
                spool: Some(Spooled::Reuse(spool)),
            };
        }
    };
    let children = plan
        .kind
        .inputs()
        .into_iter()
        .map(|c| lower_node(c, threads, shares, spools))
        .collect();
    let (breaker, parallelism) = match &plan.kind {
        // Scans parallelize across micro-partitions (the morsel unit), so a
        // table with fewer partitions than workers caps the useful degree.
        NodeKind::Scan { table, .. } => {
            (false, threads.min(table.partitions().len().max(1)))
        }
        NodeKind::Values => (false, 1),
        // Filters and projections map over batches. Volatile projections
        // (SEQ8) still parallelize: the executor assigns each batch its
        // deterministic counter base from a prefix sum over the input.
        NodeKind::Project { .. } | NodeKind::Filter { .. } => (false, threads),
        NodeKind::Flatten { .. } => (false, threads),
        // Pipeline breakers: thread-local partial states merged at the
        // barrier (aggregate), build + parallel probe (join), parallel key
        // evaluation then a global merge (sort).
        NodeKind::Aggregate { .. } | NodeKind::Join { .. } | NodeKind::Sort { .. } => {
            (true, threads)
        }
        // Distinct keeps one hash set in input order; limit and union only
        // splice batch lists.
        NodeKind::Distinct { .. } | NodeKind::Limit { .. } | NodeKind::UnionAll { .. } => {
            (true, 1)
        }
    };
    PhysNode {
        logical: plan,
        children,
        breaker,
        parallelism,
        metrics: OpMetricsCell::default(),
        spool,
    }
}

impl PhysNode<'_> {
    /// Short operator label used in metrics and `EXPLAIN ANALYZE`.
    pub fn op_name(&self) -> String {
        if let Some(Spooled::Reuse(_)) = self.spool {
            return "Spool".into();
        }
        match &self.logical.kind {
            NodeKind::Scan { table, .. } => format!("Scan {}", table.name()),
            NodeKind::Values => "Values".into(),
            NodeKind::Project { .. } => "Project".into(),
            NodeKind::Filter { .. } => "Filter".into(),
            NodeKind::Flatten { .. } => "Flatten".into(),
            NodeKind::Aggregate { .. } => "Aggregate".into(),
            NodeKind::Join { kind, .. } => format!("{kind:?}Join"),
            NodeKind::Sort { .. } => "Sort".into(),
            NodeKind::Limit { .. } => "Limit".into(),
            NodeKind::UnionAll { .. } => "UnionAll".into(),
            NodeKind::Distinct { .. } => "Distinct".into(),
        }
    }

    /// Snapshots the metrics tree (call after execution completes).
    pub fn snapshot(&self) -> OpMetrics {
        let children = self.children.iter().map(PhysNode::snapshot).collect();
        self.metrics.snapshot(self.op_name(), self.parallelism, children)
    }

    /// Number of operators in this subtree.
    pub fn op_count(&self) -> usize {
        1 + self.children.iter().map(PhysNode::op_count).sum::<usize>()
    }
}
