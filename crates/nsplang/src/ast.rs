//! Abstract syntax tree of the mini-Nsp language.

pub use crate::lexer::Pos;

/// A statement together with the source position of its first token.
///
/// Both engines use the position to attach a `line:col` span to runtime
/// errors raised while executing the statement (innermost statement wins).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// Position of the statement's first token.
    pub pos: Pos,
    /// The statement itself.
    pub kind: Stmt,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(String),
    /// `%t` / `%f`.
    Bool(bool),
    /// Variable or function reference.
    Ident(String),
    /// `[a, b; c, d]` matrix literal (rows of expressions); `[]` is the
    /// empty matrix.
    Matrix(Vec<Vec<Expr>>),
    /// `a:b` (and `a:b:c` step ranges).
    Range(Box<Expr>, Option<Box<Expr>>, Box<Expr>),
    /// Unary operator application.
    Unary(UnOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `f(args)` — resolved at evaluation to a call (function name) or an
    /// indexing operation (variable). Arguments may be keyword pairs.
    Apply(Box<Expr>, Vec<Arg>),
    /// `expr.field`
    Field(Box<Expr>, String),
    /// `expr.method[args]` — Nsp bracket-method call.
    MethodCall(Box<Expr>, String, Vec<Arg>),
    /// Postfix transpose `expr'`.
    Transpose(Box<Expr>),
}

impl Expr {
    /// `var.add_last[args]` on a named receiver, as `(var, args)`: the one
    /// method that mutates its receiver variable (value semantics, so the
    /// grown list is bound back to `var`).
    pub fn as_add_last(&self) -> Option<(&str, &[Arg])> {
        match self {
            Expr::MethodCall(base, name, args) if name == "add_last" => match base.as_ref() {
                Expr::Ident(var) => Some((var, args)),
                _ => None,
            },
            _ => None,
        }
    }
}

/// A call argument: positional or keyword (`str="equity"`).
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Positional argument.
    Pos(Expr),
    /// Keyword argument (`str="equity"`).
    Kw(String, Expr),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // arithmetic/comparison names are self-describing
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// `x = …`
    Ident(String),
    /// `x(indices) = …` (e.g. `Lpb(1:k) = []`).
    Index(String, Vec<Arg>),
    /// `H.A = …`
    Field(Box<Target>, String),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `target = expr` or `[t1, t2] = expr`.
    Assign(Vec<Target>, Expr),
    /// Bare expression (call for side effects).
    Expr(Expr),
    /// `if … elseif … else … end`.
    If {
        /// (condition, body) pairs: `if`/`elseif` arms.
        arms: Vec<(Expr, Vec<Spanned>)>,
        /// The `else` body (empty when absent).
        else_body: Vec<Spanned>,
    },
    /// `while cond then/do … end`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Spanned>,
    },
    /// `for var = iter do … end`.
    For {
        /// Loop variable name.
        var: String,
        /// Iterated expression (range, list, matrix).
        iter: Expr,
        /// Loop body.
        body: Vec<Spanned>,
    },
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `return`.
    Return,
    /// Function definition.
    FuncDef(FuncDef),
}

/// `function [o1, o2] = name(p1, p2) … endfunction`
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Output variable names (`[o1, o2] = name(...)`).
    pub outs: Vec<String>,
    /// Function body.
    pub body: Vec<Spanned>,
}
