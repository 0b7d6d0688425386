//! Shared-subplan detection: hash-consing a bound plan.
//!
//! The JOIN-based nested-query translation (paper §IV-C) repeats one
//! subquery on both sides of every row-id join, so a bound plan can contain
//! several structurally identical subtrees. [`shared_subplans`] finds them so
//! lowering can execute each once and hand its result to every reference.
//!
//! Detection is bottom-up hash-consing. An operator occurrence's class is
//! determined by its operator, its expressions and the classes of its
//! inputs; a `Scan` is keyed by table identity (`Arc::ptr_eq`) plus its pushed
//! predicates and column set. Expressions compare strictly — literals must
//! agree in type and bits, so `x + 1` and `x + 1.0` never share. `SEQ8()`
//! stays in the key like any other expression: the executor numbers it per
//! operator from row-base prefix sums, so identical subtrees produce
//! identical row ids and sharing them changes no result.
//!
//! Only the *root* of a sharing is spooled: a walk in execution order gives
//! each class's first occurrence its full subtree and turns every later
//! occurrence into a reuse without descending, so classes nested inside a
//! spooled subtree are counted once and never spooled themselves.

use std::collections::HashMap;
use std::mem::{discriminant, Discriminant};
use std::sync::Arc;

use super::{Node, NodeKind, PExpr};
use crate::variant::Variant;

/// How one operator occurrence takes part in subplan sharing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Share {
    /// The occurrence that executes the shared subtree; `uses` counts it and
    /// every later reuse.
    First { id: usize, uses: usize },
    /// A later occurrence that reads the spool of the same `id`.
    Reuse { id: usize },
}

/// Finds the shared subplans of `plan`, keyed by operator address (as
/// [`crate::optimize::cost::estimate_map`] is). Spool ids count from 1 in
/// execution order. Occurrences absent from the map are not shared.
pub fn shared_subplans(plan: &Node) -> HashMap<usize, Share> {
    let mut classes = Classes::default();
    classes.class_of(plan);
    let mut occurrences = vec![Vec::new(); classes.count.len()];
    let mut order = Vec::new();
    classes.walk(plan, &mut occurrences, &mut order);
    let mut out = HashMap::new();
    let shared = order.into_iter().map(|c| &occurrences[c]).filter(|addrs| addrs.len() >= 2);
    for (i, addrs) in shared.enumerate() {
        let id = i + 1;
        out.insert(addrs[0], Share::First { id, uses: addrs.len() });
        for &a in &addrs[1..] {
            out.insert(a, Share::Reuse { id });
        }
    }
    out
}

fn addr(n: &Node) -> usize {
    n as *const Node as usize
}

/// Bucket key: operator kind, table identity (scans only) and input classes.
/// Candidates in a bucket are told apart by [`same_op`].
type BucketKey = (Discriminant<NodeKind>, usize, Vec<usize>);

#[derive(Default)]
struct Classes<'a> {
    buckets: HashMap<BucketKey, Vec<(usize, &'a Node)>>,
    of: HashMap<usize, usize>,
    count: Vec<usize>,
}

impl<'a> Classes<'a> {
    fn class_of(&mut self, n: &'a Node) -> usize {
        let inputs: Vec<usize> = n.kind.inputs().into_iter().map(|c| self.class_of(c)).collect();
        let table = match &n.kind {
            NodeKind::Scan { table, .. } => Arc::as_ptr(table) as usize,
            _ => 0,
        };
        let bucket = self.buckets.entry((discriminant(&n.kind), table, inputs)).or_default();
        let id = match bucket.iter().find(|(_, rep)| same_op(&rep.kind, &n.kind)) {
            Some(&(id, _)) => id,
            None => {
                let id = self.count.len();
                self.count.push(0);
                bucket.push((id, n));
                id
            }
        };
        self.count[id] += 1;
        self.of.insert(addr(n), id);
        id
    }

    /// Pre-order walk in execution order (inputs left to right, each subtree
    /// finishing before the next starts), recording the occurrences of every
    /// repeated class and the order of their first occurrences. A first
    /// occurrence is descended into; a later one is not, because a reuse
    /// never executes its subtree — so a class whose other occurrences all
    /// sit inside reused subtrees keeps one occurrence and is not shared.
    fn walk(&self, n: &Node, occurrences: &mut [Vec<usize>], order: &mut Vec<usize>) {
        let class = self.of[&addr(n)];
        // A bare `Values` row costs nothing to recompute.
        if self.count[class] >= 2 && !matches!(n.kind, NodeKind::Values) {
            occurrences[class].push(addr(n));
            if occurrences[class].len() > 1 {
                return;
            }
            order.push(class);
        }
        for c in n.kind.inputs() {
            self.walk(c, occurrences, order);
        }
    }
}

/// True when two operators of the same kind compute the same function of
/// their inputs (inputs are compared by class, not here).
fn same_op(a: &NodeKind, b: &NodeKind) -> bool {
    let same = match (a, b) {
        (
            NodeKind::Scan { pushed: p1, materialize: m1, .. },
            NodeKind::Scan { pushed: p2, materialize: m2, .. },
        ) => (p1, m1) == (p2, m2),
        (NodeKind::Values, NodeKind::Values)
        | (NodeKind::UnionAll { .. }, NodeKind::UnionAll { .. })
        | (NodeKind::Distinct { .. }, NodeKind::Distinct { .. }) => true,
        (NodeKind::Project { exprs: x, .. }, NodeKind::Project { exprs: y, .. }) => x == y,
        (NodeKind::Filter { pred: x, .. }, NodeKind::Filter { pred: y, .. }) => x == y,
        (
            NodeKind::Flatten { expr: x, outer: o1, .. },
            NodeKind::Flatten { expr: y, outer: o2, .. },
        ) => (x, o1) == (y, o2),
        (
            NodeKind::Aggregate { groups: g1, aggs: a1, .. },
            NodeKind::Aggregate { groups: g2, aggs: a2, .. },
        ) => (g1, a1) == (g2, a2),
        (NodeKind::Join { kind: k1, on: o1, .. }, NodeKind::Join { kind: k2, on: o2, .. }) => {
            (k1, o1) == (k2, o2)
        }
        (NodeKind::Sort { keys: k1, .. }, NodeKind::Sort { keys: k2, .. }) => k1 == k2,
        (NodeKind::Limit { n: x, .. }, NodeKind::Limit { n: y, .. }) => x == y,
        _ => false,
    };
    // The derived equality compares literals the SQL way (`1 = 1.0`), so the
    // structurally equal operators must also agree literal by literal.
    same && {
        let (x, y) = (literals(a), literals(b));
        x.len() == y.len() && x.iter().zip(&y).all(|(p, q)| same_lit(p, q))
    }
}

/// Every literal of an operator's own expressions, in a fixed order.
fn literals(k: &NodeKind) -> Vec<&Variant> {
    fn walk<'a>(e: &'a PExpr, out: &mut Vec<&'a Variant>) {
        if let PExpr::Lit(v) = e {
            out.push(v);
        }
        for c in e.children() {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    let exprs: Vec<&PExpr> = match k {
        NodeKind::Scan { pushed, .. } => {
            out.extend(pushed.iter().map(|p| &p.lit));
            Vec::new()
        }
        NodeKind::Project { exprs, .. } => exprs.iter().collect(),
        NodeKind::Filter { pred: e, .. } | NodeKind::Flatten { expr: e, .. } => vec![e],
        NodeKind::Aggregate { groups, aggs, .. } => groups
            .iter()
            .chain(aggs.iter().flat_map(|a| a.arg.iter().chain(&a.arg2)))
            .collect(),
        NodeKind::Join { on, .. } => on.iter().collect(),
        NodeKind::Sort { keys, .. } => keys.iter().map(|k| &k.expr).collect(),
        _ => Vec::new(),
    };
    for e in exprs {
        walk(e, &mut out);
    }
    out
}

/// Literal identity: same type and same bits (`-0.0` and `0.0` differ).
fn same_lit(a: &Variant, b: &Variant) -> bool {
    match (a, b) {
        (Variant::Float(x), Variant::Float(y)) => x.to_bits() == y.to_bits(),
        (Variant::Array(x), Variant::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| same_lit(p, q))
        }
        (Variant::Object(x), Variant::Object(y)) => {
            x.len() == y.len()
                && x.iter().zip(y.iter()).all(|((k1, v1), (k2, v2))| k1 == k2 && same_lit(v1, v2))
        }
        _ => discriminant(a) == discriminant(b) && a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnDef, ColumnType};
    use crate::Database;

    fn db() -> Database {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("A", ColumnType::Int), ColumnDef::new("B", ColumnType::Int)],
            (0..10).map(|i| vec![Variant::Int(i), Variant::Int(i % 3)]),
        )
        .unwrap();
        db
    }

    fn roles(db: &Database, sql: &str) -> Vec<Share> {
        let plan = db.compile(sql).unwrap();
        let mut v: Vec<Share> = shared_subplans(&plan).into_values().collect();
        v.sort_by_key(|s| match *s {
            Share::First { id, .. } => (id, 0),
            Share::Reuse { id } => (id, 1),
        });
        v
    }

    #[test]
    fn identical_subqueries_share_their_root_only() {
        let db = db();
        let sub = "(SELECT b, COUNT(*) AS n FROM t WHERE a > 2 GROUP BY b)";
        let sql = format!("SELECT x.b, y.n FROM {sub} x JOIN {sub} y ON x.b = y.b");
        // One spool: the aggregate subquery root. Its scan and filter are
        // inside the spooled subtree and are not spooled again.
        assert_eq!(
            roles(&db, &sql),
            vec![Share::First { id: 1, uses: 2 }, Share::Reuse { id: 1 }]
        );
    }

    #[test]
    fn literals_compare_by_type_and_bits() {
        let db = db();
        for (l, r) in [("1", "1.0"), ("0.0", "-0.0")] {
            let sql = format!(
                "SELECT x.s, y.s FROM (SELECT a + {l} AS s FROM t) x \
                 JOIN (SELECT a + {r} AS s FROM t) y ON x.s = y.s"
            );
            // Only the bare scans below the projections coincide.
            let got = roles(&db, &sql);
            assert_eq!(got, vec![Share::First { id: 1, uses: 2 }, Share::Reuse { id: 1 }]);
            let plan = db.compile(&sql).unwrap();
            let shares = shared_subplans(&plan);
            let first = plan_nodes(&plan)
                .into_iter()
                .find(|n| matches!(shares.get(&addr(n)), Some(Share::First { .. })))
                .unwrap();
            assert!(matches!(first.kind, NodeKind::Scan { .. }), "{l} vs {r}");
        }
    }

    #[test]
    fn distinct_plans_share_nothing() {
        let db = db();
        assert!(roles(&db, "SELECT a FROM t WHERE b = 1 ORDER BY a").is_empty());
        assert!(roles(&db, "SELECT 1 UNION ALL SELECT 2").is_empty());
    }

    fn plan_nodes(n: &Node) -> Vec<&Node> {
        let mut out = vec![n];
        for c in n.kind.inputs() {
            out.extend(plan_nodes(c));
        }
        out
    }
}
