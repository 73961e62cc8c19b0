//! Textual rendering of algebra expressions.
//!
//! The inline form mimics the paper's notation:
//! `π₍x₎(P(x, y) ⋈ Q(y)) ∪ R(x)`, with `diff` spelled out and division
//! written `÷`. A multi-line
//! tree form ([`render_tree`]) is used by the experiment harnesses.

use crate::expr::{RaExpr, SelPred};
use std::fmt;
use std::fmt::Write as _;

impl fmt::Display for SelPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelPred::EqCols(a, b) => write!(f, "{a}={b}"),
            SelPred::NeqCols(a, b) => write!(f, "{a}≠{b}"),
            SelPred::EqConst(a, c) => write!(f, "{a}={c}"),
            SelPred::NeqConst(a, c) => write!(f, "{a}≠{c}"),
        }
    }
}

fn prec(e: &RaExpr) -> u8 {
    match e {
        RaExpr::Union(..) => 1,
        RaExpr::Diff(..) | RaExpr::Divide(..) => 2,
        RaExpr::Join(..) => 3,
        _ => 4,
    }
}

fn write_expr(out: &mut fmt::Formatter<'_>, e: &RaExpr, parent: u8) -> fmt::Result {
    let me = prec(e);
    let parens = me < parent;
    if parens {
        write!(out, "(")?;
    }
    match e {
        RaExpr::Scan { pred, pattern } => {
            write!(out, "{pred}")?;
            if !pattern.is_empty() {
                write!(out, "(")?;
                for (i, t) in pattern.iter().enumerate() {
                    if i > 0 {
                        write!(out, ", ")?;
                    }
                    write!(out, "{t}")?;
                }
                write!(out, ")")?;
            }
        }
        RaExpr::Single { var, value } => write!(out, "⟨{var}={value}⟩")?,
        RaExpr::Unit => write!(out, "⊤")?,
        RaExpr::Empty { cols } => {
            write!(out, "∅[")?;
            for (i, v) in cols.iter().enumerate() {
                if i > 0 {
                    write!(out, ", ")?;
                }
                write!(out, "{v}")?;
            }
            write!(out, "]")?;
        }
        RaExpr::Join(l, r) => {
            write_expr(out, l, me)?;
            write!(out, " ⋈ ")?;
            write_expr(out, r, me + 1)?;
        }
        RaExpr::Union(l, r) => {
            write_expr(out, l, me)?;
            write!(out, " ∪ ")?;
            write_expr(out, r, me + 1)?;
        }
        RaExpr::Diff(l, r) => {
            write_expr(out, l, me + 1)?;
            write!(out, " diff ")?;
            write_expr(out, r, me + 1)?;
        }
        RaExpr::Divide(t, s) => {
            write_expr(out, t, me + 1)?;
            write!(out, " ÷ ")?;
            write_expr(out, s, me + 1)?;
        }
        RaExpr::Project { input, cols } => {
            write!(out, "π[")?;
            for (i, v) in cols.iter().enumerate() {
                if i > 0 {
                    write!(out, ", ")?;
                }
                write!(out, "{v}")?;
            }
            write!(out, "](")?;
            write_expr(out, input, 0)?;
            write!(out, ")")?;
        }
        RaExpr::Select { input, pred } => {
            write!(out, "σ[{pred}](")?;
            write_expr(out, input, 0)?;
            write!(out, ")")?;
        }
        RaExpr::Duplicate { input, src, dst } => {
            write!(out, "dup[{src}→{dst}](")?;
            write_expr(out, input, 0)?;
            write!(out, ")")?;
        }
    }
    if parens {
        write!(out, ")")?;
    }
    Ok(())
}

impl fmt::Display for RaExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(f, self, 0)
    }
}

/// Render an expression as an indented operator tree.
pub fn render_tree(e: &RaExpr) -> String {
    let mut out = String::new();
    fn go(e: &RaExpr, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let label = match e {
            RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
                format!("{e}")
            }
            RaExpr::Join(..) => "⋈".to_string(),
            RaExpr::Union(..) => "∪".to_string(),
            RaExpr::Diff(..) => "diff".to_string(),
            RaExpr::Divide(..) => "÷".to_string(),
            RaExpr::Project { cols, .. } => format!(
                "π[{}]",
                cols.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            RaExpr::Select { pred, .. } => format!("σ[{pred}]"),
            RaExpr::Duplicate { src, dst, .. } => format!("dup[{src}→{dst}]"),
        };
        let _ = writeln!(out, "{pad}{label}");
        for c in e.children() {
            go(c, depth + 1, out);
        }
    }
    go(e, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_formula::{Term, Value, Var};

    #[test]
    fn inline_rendering_matches_paper_style() {
        // π[x](P(x, y) ⋈ Q(y)) ∪ R(x)
        let e = RaExpr::union(
            RaExpr::project(
                RaExpr::join(
                    RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
                    RaExpr::scan("Q", vec![Term::var("y")]),
                ),
                vec![Var::new("x")],
            ),
            RaExpr::scan("R", vec![Term::var("x")]),
        );
        assert_eq!(e.to_string(), "π[x](P(x, y) ⋈ Q(y)) ∪ R(x)");
    }

    #[test]
    fn diff_binds_tighter_than_union() {
        let e = RaExpr::union(
            RaExpr::diff(
                RaExpr::scan("P", vec![Term::var("x")]),
                RaExpr::scan("Q", vec![Term::var("x")]),
            ),
            RaExpr::scan("R", vec![Term::var("x")]),
        );
        assert_eq!(e.to_string(), "P(x) diff Q(x) ∪ R(x)");
    }

    #[test]
    fn divide_renders_like_diff() {
        let e = RaExpr::diff(
            RaExpr::scan("P", vec![Term::var("x")]),
            RaExpr::divide(
                RaExpr::scan("B", vec![Term::var("x"), Term::var("y")]),
                RaExpr::scan("C", vec![Term::var("y")]),
            ),
        );
        assert_eq!(e.to_string(), "P(x) diff (B(x, y) ÷ C(y))");
        assert!(render_tree(&e).contains("\n  ÷\n"));
    }

    #[test]
    fn singleton_and_unit_rendering() {
        let s = RaExpr::Single {
            var: Var::new("y"),
            value: Value::str("none"),
        };
        assert_eq!(s.to_string(), "⟨y='none'⟩");
        assert_eq!(RaExpr::Unit.to_string(), "⊤");
    }

    #[test]
    fn tree_rendering_indents() {
        let e = RaExpr::join(
            RaExpr::scan("P", vec![Term::var("x")]),
            RaExpr::scan("Q", vec![Term::var("x")]),
        );
        let t = render_tree(&e);
        assert!(t.starts_with("⋈\n"));
        assert!(t.contains("\n  P(x)\n"));
    }
}
