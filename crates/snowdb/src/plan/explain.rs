//! Plan rendering for `EXPLAIN`, `EXPLAIN ANALYZE`, and debugging.

use std::collections::HashMap;
use std::fmt::Write;

use super::share::{shared_subplans, Share};
use super::{AggExpr, AggKind, CastType, Node, NodeKind, PExpr, PStep};
use crate::exec::metrics::OpMetrics;
use crate::optimize::cost;
use crate::sql::{BinOp, JoinKind, UnaryOp};

/// Renders a bound plan as an indented operator tree, each line annotated
/// with the cost model's estimated output rows and cumulative cost. A shared
/// subplan prints once, under its first reference (marked `Spool#k uses=N`);
/// each later reference is one `Reuse Spool#k` line.
pub fn explain(node: &Node) -> String {
    render(node, None)
}

/// Renders a bound plan annotated with measured per-operator metrics: the
/// `EXPLAIN ANALYZE` body. The metrics tree mirrors the plan shape (it is the
/// snapshot of the physical plan lowered from `node`, where a reused subplan
/// is a childless spool node), so the two are walked in lockstep. Estimated
/// rows print next to measured ones so estimation error is visible per
/// operator.
pub fn explain_analyze(node: &Node, metrics: &OpMetrics) -> String {
    render(node, Some(metrics))
}

fn render(node: &Node, metrics: Option<&OpMetrics>) -> String {
    let plan = Plan { ests: cost::estimate_map(node), shares: shared_subplans(node) };
    let mut out = String::new();
    plan.walk(node, 0, metrics, &mut out);
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Per-operator annotations of the plan being rendered, keyed by address.
struct Plan {
    ests: HashMap<usize, (f64, f64)>,
    shares: HashMap<usize, Share>,
}

impl Plan {
    fn walk(&self, node: &Node, depth: usize, metrics: Option<&OpMetrics>, out: &mut String) {
        let key = node as *const Node as usize;
        indent(depth, out);
        let share = self.shares.get(&key).copied();
        match share {
            Some(Share::Reuse { id }) => {
                let _ = write!(out, "Reuse Spool#{id}");
            }
            Some(Share::First { id, uses }) => {
                let _ = write!(out, "{}  Spool#{id} uses={uses}", node_line(node));
            }
            None => out.push_str(&node_line(node)),
        }
        if let Some(&(rows, c)) = self.ests.get(&key) {
            let _ = write!(out, "  (est_rows={rows:.0} cost={c:.0})");
        }
        if let Some(m) = metrics {
            let _ = write!(out, "  [{}]", m.annotation());
        }
        out.push('\n');
        if matches!(share, Some(Share::Reuse { .. })) {
            return;
        }
        for (i, child) in node.kind.inputs().into_iter().enumerate() {
            self.walk(child, depth + 1, metrics.and_then(|m| m.children.get(i)), out);
        }
    }
}

/// One operator line, without trailing newline or children.
fn node_line(node: &Node) -> String {
    let mut out = String::new();
    match &node.kind {
        NodeKind::Values => out.push_str("Values (1 row)"),
        NodeKind::Scan { table, pushed, materialize } => {
            let cols: Vec<&str> = table
                .schema()
                .iter()
                .zip(materialize)
                .filter(|(_, &m)| m)
                .map(|(c, _)| c.name.as_str())
                .collect();
            let _ = write!(out, "Scan {} cols=[{}]", table.name(), cols.join(", "));
            if !pushed.is_empty() {
                let preds: Vec<String> = pushed
                    .iter()
                    .map(|p| {
                        if p.cmp.starts_with("IS") {
                            format!("#{} {}", p.col, p.cmp)
                        } else {
                            format!("#{} {} {:?}", p.col, p.cmp, p.lit)
                        }
                    })
                    .collect();
                let _ = write!(out, " prune=[{}]", preds.join(", "));
            }
        }
        NodeKind::Project { exprs, .. } => {
            let rendered: Vec<String> = exprs.iter().map(expr_str).collect();
            let _ = write!(out, "Project [{}]", rendered.join(", "));
        }
        NodeKind::Filter { pred, .. } => {
            let _ = write!(out, "Filter {}", expr_str(pred));
        }
        NodeKind::Flatten { expr, outer, .. } => {
            let _ = write!(
                out,
                "Flatten{} input={}",
                if *outer { " OUTER" } else { "" },
                expr_str(expr)
            );
        }
        NodeKind::Aggregate { groups, aggs, .. } => {
            let g: Vec<String> = groups.iter().map(expr_str).collect();
            let a: Vec<String> = aggs.iter().map(agg_str).collect();
            let _ = write!(out, "Aggregate group=[{}] aggs=[{}]", g.join(", "), a.join(", "));
        }
        NodeKind::Join { kind, on, .. } => {
            let k = match kind {
                JoinKind::Inner => "Inner",
                JoinKind::LeftOuter => "LeftOuter",
                JoinKind::Cross => "Cross",
            };
            let on_str = on.as_ref().map(expr_str).unwrap_or_default();
            let _ = write!(out, "{k}Join on={on_str}");
        }
        NodeKind::Sort { keys, .. } => {
            let ks: Vec<String> = keys
                .iter()
                .map(|k| format!("{}{}", expr_str(&k.expr), if k.desc { " DESC" } else { "" }))
                .collect();
            let _ = write!(out, "Sort [{}]", ks.join(", "));
        }
        NodeKind::Limit { n, .. } => {
            let _ = write!(out, "Limit {n}");
        }
        NodeKind::UnionAll { .. } => out.push_str("UnionAll"),
        NodeKind::Distinct { .. } => out.push_str("Distinct"),
    }
    out
}

fn agg_str(a: &AggExpr) -> String {
    let name = match a.kind {
        AggKind::CountStar => return "COUNT(*)".into(),
        AggKind::Count => "COUNT",
        AggKind::CountDistinct => "COUNT_DISTINCT",
        AggKind::Sum => "SUM",
        AggKind::Min => "MIN",
        AggKind::Max => "MAX",
        AggKind::Avg => "AVG",
        AggKind::ArrayAgg => "ARRAY_AGG",
        AggKind::AnyValue => "ANY_VALUE",
        AggKind::BoolAnd => "BOOLAND_AGG",
        AggKind::BoolOr => "BOOLOR_AGG",
        AggKind::MinBy => "MIN_BY",
        AggKind::MaxBy => "MAX_BY",
    };
    match (&a.arg, &a.arg2) {
        (Some(x), Some(k)) => format!("{name}({}, {})", expr_str(x), expr_str(k)),
        (Some(x), None) => format!("{name}({})", expr_str(x)),
        _ => format!("{name}()"),
    }
}

/// Compact textual form of a bound expression.
pub fn expr_str(e: &PExpr) -> String {
    match e {
        PExpr::Col(i) => format!("#{i}"),
        PExpr::Lit(v) => format!("{v:?}"),
        PExpr::Unary { op, expr } => match op {
            UnaryOp::Neg => format!("(-{})", expr_str(expr)),
            UnaryOp::Plus => expr_str(expr),
        },
        PExpr::Binary { left, op, right } => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::Eq => "=",
                BinOp::NotEq => "<>",
                BinOp::Lt => "<",
                BinOp::LtEq => "<=",
                BinOp::Gt => ">",
                BinOp::GtEq => ">=",
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::Concat => "||",
            };
            format!("({} {o} {})", expr_str(left), expr_str(right))
        }
        PExpr::Not(x) => format!("(NOT {})", expr_str(x)),
        PExpr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            expr_str(expr),
            if *negated { "NOT " } else { "" }
        ),
        PExpr::InList { expr, list, negated } => {
            let items: Vec<String> = list.iter().map(expr_str).collect();
            format!(
                "({} {}IN ({}))",
                expr_str(expr),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        PExpr::Case { .. } => "CASE ...".into(),
        PExpr::Func { f, args } => {
            let items: Vec<String> = args.iter().map(expr_str).collect();
            format!("{f:?}({})", items.join(", "))
        }
        PExpr::Cast { expr, ty } => {
            let t = match ty {
                CastType::Int => "INT",
                CastType::Float => "DOUBLE",
                CastType::Bool => "BOOLEAN",
                CastType::Str => "VARCHAR",
                CastType::Variant => "VARIANT",
            };
            format!("({}::{t})", expr_str(expr))
        }
        PExpr::Path { base, steps } => {
            let mut s = expr_str(base);
            for st in steps {
                match st {
                    PStep::Field(f) => {
                        s.push(':');
                        s.push_str(f);
                    }
                    PStep::Index(i) => {
                        s.push_str(&format!("[{i}]"));
                    }
                    PStep::IndexExpr(e) => {
                        s.push_str(&format!("[{}]", expr_str(e)));
                    }
                }
            }
            s
        }
        PExpr::Like { expr, pattern, negated } => format!(
            "({} {}LIKE {})",
            expr_str(expr),
            if *negated { "NOT " } else { "" },
            expr_str(pattern)
        ),
    }
}

#[cfg(test)]
mod tests {
    use crate::storage::{ColumnDef, ColumnType};
    use crate::{Database, Variant};

    #[test]
    fn explain_shows_operators_and_pruned_columns() {
        let db = Database::new();
        db.load_table(
            "t",
            vec![
                ColumnDef::new("A", ColumnType::Int),
                ColumnDef::new("B", ColumnType::Int),
            ],
            (0..3).map(|i| vec![Variant::Int(i), Variant::Int(i * 2)]),
        )
        .unwrap();
        let plan = db.compile("SELECT a FROM t WHERE a > 1 ORDER BY a").unwrap();
        let text = super::explain(&plan);
        assert!(text.contains("Sort"), "{text}");
        assert!(text.contains("Filter"), "{text}");
        assert!(text.contains("Scan T"), "{text}");
        assert!(text.contains("prune="), "{text}");
        assert!(!text.contains(", B]"), "B must be pruned: {text}");
    }

    #[test]
    fn explain_annotates_cost_estimates() {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("A", ColumnType::Int)],
            (0..100).map(|i| vec![Variant::Int(i)]),
        )
        .unwrap();
        let plan = db.compile("SELECT a FROM t WHERE a IS NOT NULL").unwrap();
        let text = super::explain(&plan);
        // Every operator line carries the estimate annotation.
        for line in text.lines() {
            assert!(line.contains("est_rows="), "missing estimate: {line}");
            assert!(line.contains("cost="), "missing cost: {line}");
        }
        // The scan line sees the true base cardinality from catalog stats.
        assert!(text.contains("est_rows=100"), "{text}");
        // Null-presence prune predicates render without a literal.
        assert!(text.contains("IS NOT NULL]"), "{text}");
        assert!(!text.contains("IS NOT NULL Null"), "{text}");
    }
}
