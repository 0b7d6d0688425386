//! Bound logical plans and physical expressions.

pub mod binder;
mod explain;
pub mod physical;
pub mod share;

pub use binder::{bind_query, Catalog};
pub use explain::{explain, explain_analyze, expr_str};

use std::sync::Arc;

use crate::sql::{BinOp, JoinKind, UnaryOp};
use crate::storage::Table;
use crate::variant::Variant;

/// An output column of a plan node: optional relation qualifier plus name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    pub qualifier: Option<String>,
    pub name: String,
}

impl Field {
    pub fn new(qualifier: Option<&str>, name: impl Into<String>) -> Field {
        Field { qualifier: qualifier.map(str::to_string), name: name.into() }
    }

    pub fn bare(name: impl Into<String>) -> Field {
        Field { qualifier: None, name: name.into() }
    }
}

/// Cast target types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CastType {
    Int,
    Float,
    Bool,
    Str,
    Variant,
}

/// Scalar function identifiers resolved at bind time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuncId {
    Abs,
    Sqrt,
    Power,
    Exp,
    Ln,
    Log,
    Floor,
    Ceil,
    Round,
    Sign,
    Mod,
    Atan,
    Atan2,
    Asin,
    Acos,
    Sin,
    Cos,
    Tan,
    Sinh,
    Cosh,
    Tanh,
    Pi,
    Greatest,
    Least,
    Coalesce,
    Nvl,
    NullIf,
    Iff,
    Div0,
    ObjectConstruct,
    ArrayConstruct,
    ArraySize,
    ArrayCat,
    ArrayContains,
    /// `ARRAY_FILTER(arr, field_or_null, op, literal)` — restricted native
    /// array filtering (paper §VII-B future work): keeps elements whose field
    /// (or the element itself) compares against a literal.
    ArrayFilter,
    Get,
    TypeOf,
    ToDouble,
    Upper,
    Lower,
    Substr,
    Length,
    Concat,
    /// Per-query monotonically increasing row number (stand-in for `SEQ8()`).
    Seq8,
}

impl FuncId {
    /// Resolves a scalar function name.
    pub fn from_name(name: &str) -> Option<FuncId> {
        Some(match name {
            "ABS" => FuncId::Abs,
            "SQRT" => FuncId::Sqrt,
            "POWER" | "POW" => FuncId::Power,
            "EXP" => FuncId::Exp,
            "LN" => FuncId::Ln,
            "LOG" => FuncId::Log,
            "FLOOR" => FuncId::Floor,
            "CEIL" | "CEILING" => FuncId::Ceil,
            "ROUND" => FuncId::Round,
            "SIGN" => FuncId::Sign,
            "MOD" => FuncId::Mod,
            "ATAN" => FuncId::Atan,
            "ATAN2" => FuncId::Atan2,
            "ASIN" => FuncId::Asin,
            "ACOS" => FuncId::Acos,
            "SIN" => FuncId::Sin,
            "COS" => FuncId::Cos,
            "TAN" => FuncId::Tan,
            "SINH" => FuncId::Sinh,
            "COSH" => FuncId::Cosh,
            "TANH" => FuncId::Tanh,
            "PI" => FuncId::Pi,
            "GREATEST" => FuncId::Greatest,
            "LEAST" => FuncId::Least,
            "COALESCE" => FuncId::Coalesce,
            "NVL" | "IFNULL" => FuncId::Nvl,
            "NULLIF" => FuncId::NullIf,
            "IFF" => FuncId::Iff,
            "DIV0" => FuncId::Div0,
            // Both spellings map to keep-null semantics; see the evaluator.
            "OBJECT_CONSTRUCT" | "OBJECT_CONSTRUCT_KEEP_NULL" => FuncId::ObjectConstruct,
            "ARRAY_CONSTRUCT" => FuncId::ArrayConstruct,
            "ARRAY_SIZE" => FuncId::ArraySize,
            "ARRAY_CAT" => FuncId::ArrayCat,
            "ARRAY_CONTAINS" => FuncId::ArrayContains,
            "ARRAY_FILTER" => FuncId::ArrayFilter,
            "GET" => FuncId::Get,
            "TYPEOF" => FuncId::TypeOf,
            "TO_DOUBLE" => FuncId::ToDouble,
            "UPPER" => FuncId::Upper,
            "LOWER" => FuncId::Lower,
            "SUBSTR" | "SUBSTRING" => FuncId::Substr,
            "LENGTH" | "LEN" => FuncId::Length,
            "CONCAT" => FuncId::Concat,
            "SEQ8" => FuncId::Seq8,
            _ => return None,
        })
    }

    /// True for functions whose result depends on evaluation order, which must
    /// never be constant-folded or deduplicated.
    pub fn is_volatile(self) -> bool {
        matches!(self, FuncId::Seq8)
    }
}

/// Aggregate function kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    CountStar,
    Count,
    CountDistinct,
    Sum,
    Min,
    Max,
    Avg,
    /// `ARRAY_AGG(x)`: collects non-null values into an array.
    ArrayAgg,
    /// `ANY_VALUE(x)`: first value seen in the group.
    AnyValue,
    /// `BOOLAND_AGG(x)`: conjunction over non-null booleans.
    BoolAnd,
    /// `BOOLOR_AGG(x)`: disjunction over non-null booleans.
    BoolOr,
    /// `MIN_BY(value, key)`: value of the first row with the minimal key.
    MinBy,
    /// `MAX_BY(value, key)`: value of the first row with the maximal key.
    MaxBy,
}

impl AggKind {
    /// Resolves an aggregate function name (before considering DISTINCT/star).
    pub fn from_name(name: &str) -> Option<AggKind> {
        Some(match name {
            "COUNT" => AggKind::Count,
            "SUM" => AggKind::Sum,
            "MIN" => AggKind::Min,
            "MAX" => AggKind::Max,
            "AVG" => AggKind::Avg,
            "ARRAY_AGG" => AggKind::ArrayAgg,
            "ANY_VALUE" => AggKind::AnyValue,
            "BOOLAND_AGG" => AggKind::BoolAnd,
            "BOOLOR_AGG" => AggKind::BoolOr,
            "MIN_BY" => AggKind::MinBy,
            "MAX_BY" => AggKind::MaxBy,
            _ => return None,
        })
    }
}

/// One bound aggregate: kind plus input expression (`None` for `COUNT(*)`).
/// `arg2` carries the key expression of `MIN_BY`/`MAX_BY`.
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    pub kind: AggKind,
    pub arg: Option<PExpr>,
    pub arg2: Option<PExpr>,
}

/// One step of a bound variant path.
#[derive(Clone, Debug, PartialEq)]
pub enum PStep {
    Field(String),
    Index(i64),
    IndexExpr(Box<PExpr>),
}

/// Bound (physical) scalar expression: column references are positional.
#[derive(Clone, Debug, PartialEq)]
pub enum PExpr {
    Col(usize),
    Lit(Variant),
    Unary { op: UnaryOp, expr: Box<PExpr> },
    Binary { left: Box<PExpr>, op: BinOp, right: Box<PExpr> },
    Not(Box<PExpr>),
    IsNull { expr: Box<PExpr>, negated: bool },
    InList { expr: Box<PExpr>, list: Vec<PExpr>, negated: bool },
    Case {
        operand: Option<Box<PExpr>>,
        branches: Vec<(PExpr, PExpr)>,
        else_expr: Option<Box<PExpr>>,
    },
    Func { f: FuncId, args: Vec<PExpr> },
    Cast { expr: Box<PExpr>, ty: CastType },
    Path { base: Box<PExpr>, steps: Vec<PStep> },
    /// `expr [NOT] LIKE pattern` with `%`/`_` wildcards.
    Like { expr: Box<PExpr>, pattern: Box<PExpr>, negated: bool },
}

impl PExpr {
    /// The expression's direct sub-expressions, in evaluation order.
    pub fn children(&self) -> Vec<&PExpr> {
        match self {
            PExpr::Col(_) | PExpr::Lit(_) => Vec::new(),
            PExpr::Unary { expr, .. }
            | PExpr::Not(expr)
            | PExpr::IsNull { expr, .. }
            | PExpr::Cast { expr, .. } => vec![expr],
            PExpr::Binary { left, right, .. } => vec![left, right],
            PExpr::Like { expr, pattern, .. } => vec![expr, pattern],
            PExpr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            PExpr::Case { operand, branches, else_expr } => operand
                .as_deref()
                .into_iter()
                .chain(branches.iter().flat_map(|(c, v)| [c, v]))
                .chain(else_expr.as_deref())
                .collect(),
            PExpr::Func { args, .. } => args.iter().collect(),
            PExpr::Path { base, steps } => std::iter::once(&**base)
                .chain(steps.iter().filter_map(|s| match s {
                    PStep::IndexExpr(e) => Some(&**e),
                    _ => None,
                }))
                .collect(),
        }
    }

    /// Collects the column indices referenced by this expression.
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        if let PExpr::Col(i) = self {
            out.push(*i);
        }
        for c in self.children() {
            c.collect_cols(out);
        }
    }

    /// True when the expression contains a volatile function.
    pub fn is_volatile(&self) -> bool {
        matches!(self, PExpr::Func { f, .. } if f.is_volatile())
            || self.children().into_iter().any(PExpr::is_volatile)
    }

    /// Rewrites column references through a substitution table mapping the
    /// columns of a projection's output to expressions over its input.
    pub fn substitute(&self, subs: &[PExpr]) -> PExpr {
        match self {
            PExpr::Col(i) => subs[*i].clone(),
            PExpr::Lit(v) => PExpr::Lit(v.clone()),
            PExpr::Unary { op, expr } => {
                PExpr::Unary { op: *op, expr: Box::new(expr.substitute(subs)) }
            }
            PExpr::Binary { left, op, right } => PExpr::Binary {
                left: Box::new(left.substitute(subs)),
                op: *op,
                right: Box::new(right.substitute(subs)),
            },
            PExpr::Not(e) => PExpr::Not(Box::new(e.substitute(subs))),
            PExpr::IsNull { expr, negated } => {
                PExpr::IsNull { expr: Box::new(expr.substitute(subs)), negated: *negated }
            }
            PExpr::InList { expr, list, negated } => PExpr::InList {
                expr: Box::new(expr.substitute(subs)),
                list: list.iter().map(|e| e.substitute(subs)).collect(),
                negated: *negated,
            },
            PExpr::Case { operand, branches, else_expr } => PExpr::Case {
                operand: operand.as_ref().map(|o| Box::new(o.substitute(subs))),
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.substitute(subs), v.substitute(subs)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.substitute(subs))),
            },
            PExpr::Func { f, args } => PExpr::Func {
                f: *f,
                args: args.iter().map(|a| a.substitute(subs)).collect(),
            },
            PExpr::Cast { expr, ty } => {
                PExpr::Cast { expr: Box::new(expr.substitute(subs)), ty: *ty }
            }
            PExpr::Path { base, steps } => PExpr::Path {
                base: Box::new(base.substitute(subs)),
                steps: steps
                    .iter()
                    .map(|s| match s {
                        PStep::IndexExpr(e) => PStep::IndexExpr(Box::new(e.substitute(subs))),
                        other => other.clone(),
                    })
                    .collect(),
            },
            PExpr::Like { expr, pattern, negated } => PExpr::Like {
                expr: Box::new(expr.substitute(subs)),
                pattern: Box::new(pattern.substitute(subs)),
                negated: *negated,
            },
        }
    }
}

/// A predicate pushed into a scan for zone-map pruning: `column <cmp> literal`.
///
/// Pruning predicates are advisory — the original `Filter` stays in the plan, so
/// pruning can never change results, only skip partitions that provably cannot
/// contribute.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanPredicate {
    pub col: usize,
    pub cmp: &'static str,
    pub lit: Variant,
}

/// A bound sort key.
#[derive(Clone, Debug, PartialEq)]
pub struct SortKey {
    pub expr: PExpr,
    pub desc: bool,
    pub nulls_first: Option<bool>,
}

/// A bound plan node together with its output schema.
#[derive(Clone, Debug)]
pub struct Node {
    pub kind: NodeKind,
    pub fields: Vec<Field>,
}

/// Plan operators.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// Base-table scan. `materialize[i]` marks table columns actually consumed
    /// by the query; unmarked columns are neither read nor accounted.
    Scan {
        table: Arc<Table>,
        pushed: Vec<ScanPredicate>,
        materialize: Vec<bool>,
    },
    /// A single row with no columns; basis for `SELECT` without `FROM`.
    Values,
    Project { input: Box<Node>, exprs: Vec<PExpr> },
    Filter { input: Box<Node>, pred: PExpr },
    /// `LATERAL FLATTEN`: appends VALUE, INDEX, KEY, SEQ, THIS columns.
    Flatten { input: Box<Node>, expr: PExpr, outer: bool },
    Aggregate { input: Box<Node>, groups: Vec<PExpr>, aggs: Vec<AggExpr> },
    Join {
        left: Box<Node>,
        right: Box<Node>,
        kind: JoinKind,
        /// Raw ON predicate over the concatenated (left ++ right) schema.
        on: Option<PExpr>,
    },
    Sort { input: Box<Node>, keys: Vec<SortKey> },
    Limit { input: Box<Node>, n: u64 },
    UnionAll { left: Box<Node>, right: Box<Node> },
    Distinct { input: Box<Node> },
}

impl NodeKind {
    /// The operator's input nodes, in order.
    pub fn inputs(&self) -> Vec<&Node> {
        match self {
            NodeKind::Scan { .. } | NodeKind::Values => Vec::new(),
            NodeKind::Project { input, .. }
            | NodeKind::Filter { input, .. }
            | NodeKind::Flatten { input, .. }
            | NodeKind::Aggregate { input, .. }
            | NodeKind::Sort { input, .. }
            | NodeKind::Limit { input, .. }
            | NodeKind::Distinct { input } => vec![input],
            NodeKind::Join { left, right, .. } | NodeKind::UnionAll { left, right } => {
                vec![left, right]
            }
        }
    }
}

impl Node {
    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Counts plan nodes, a rough complexity metric used in tests and the
    /// compile-time experiment.
    pub fn node_count(&self) -> usize {
        1 + match &self.kind {
            NodeKind::Scan { .. } | NodeKind::Values => 0,
            NodeKind::Project { input, .. }
            | NodeKind::Filter { input, .. }
            | NodeKind::Flatten { input, .. }
            | NodeKind::Aggregate { input, .. }
            | NodeKind::Sort { input, .. }
            | NodeKind::Limit { input, .. }
            | NodeKind::Distinct { input } => input.node_count(),
            NodeKind::Join { left, right, .. } | NodeKind::UnionAll { left, right } => {
                left.node_count() + right.node_count()
            }
        }
    }
}
