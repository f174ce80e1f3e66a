//! Variables and the per-problem variable table.

use std::fmt;

/// Identifies a variable within a [`Problem`](crate::Problem)'s table.
///
/// `VarId`s are indices: they are only meaningful relative to the problem
/// (or family of problems sharing a table) that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The position of this variable in its problem's table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The variable at position `i` of a problem's table (the inverse of
    /// [`VarId::index`]).
    pub fn from_index(i: usize) -> Self {
        VarId(u32::try_from(i).expect("variable table exceeds u32 range"))
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The role a variable plays in a problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// An ordinary quantified variable (e.g. a loop iteration variable).
    Input,
    /// A symbolic constant: a loop-invariant scalar whose value is unknown
    /// but fixed (the set `Sym` of the paper).
    Symbolic,
    /// An auxiliary existential introduced internally (by equality
    /// elimination or splintering). Never protected; always eliminated
    /// before results are reported.
    Wildcard,
}

/// Per-variable bookkeeping inside a problem: a kind and three flags.
/// Variables are positions; they carry no names. A caller that prints a
/// problem supplies the names (see [`Problem::display_with`]).
///
/// [`Problem::display_with`]: crate::Problem::display_with
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarInfo {
    pub(crate) kind: VarKind,
    /// Protected variables survive projection.
    pub(crate) protected: bool,
    /// Dead variables have been eliminated; their columns are zero.
    pub(crate) dead: bool,
    /// Pinned variables are unprotected variables the solver has declined
    /// to eliminate (they live on as existentials in projection results,
    /// e.g. in stride constraints like `x = 2α`).
    pub(crate) pinned: bool,
}

impl VarInfo {
    /// A fresh variable of `kind`: unprotected, live, unpinned.
    pub(crate) const fn new(kind: VarKind) -> Self {
        VarInfo {
            kind,
            protected: false,
            dead: false,
            pinned: false,
        }
    }

    /// The variable's kind.
    pub fn kind(&self) -> VarKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_id_roundtrip() {
        let v = VarId::from_index(7);
        assert_eq!(v.index(), 7);
        assert_eq!(v.to_string(), "v7");
    }
}
