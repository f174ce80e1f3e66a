//! Interned variable names.
//!
//! Variable tables used to store one heap `String` per variable, cloned
//! on every [`Problem`](crate::Problem) clone and re-hashed on every
//! canonical-key build. Names are now a two-word [`Name`]: either an
//! interned [`Symbol`] (an index into a global, append-only table of
//! leaked strings) or `Wild(n)` for the solver-introduced wildcard
//! `alpha<n>` — which is never formatted at all until something actually
//! renders it.
//!
//! Symbol ids are process-local: they are stable for the lifetime of the
//! process (the table only grows), so they are sound hash/equality keys
//! for in-memory maps, but they must never be serialized. Anything that
//! crosses the process boundary (the persistent cache, reports) renders
//! the name and re-interns on the way back in.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::hash::BuildMix;
use crate::var::VarKind;

/// An interned string: equality and hashing are id comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Symbol(u32);

struct SymTab {
    /// Placement-hashed like the solver's other maps: a name is confirmed
    /// by string equality, so the hash decides only the bucket. The names
    /// include identifiers of analyzed programs, which reach `--serve`
    /// only from local clients (stdio or a Unix socket); an unkeyed hash
    /// would not stand up to names crafted to collide from an untrusted
    /// one.
    ids: HashMap<&'static str, u32, BuildMix>,
    strs: Vec<&'static str>,
}

static TABLE: Mutex<Option<SymTab>> = Mutex::new(None);

impl Symbol {
    /// Interns `s`, leaking it into the global table on first sight.
    /// Distinct strings get distinct ids, so id equality is string
    /// equality.
    pub(crate) fn intern(s: &str) -> Symbol {
        let mut guard = TABLE.lock().expect("symbol table poisoned");
        let tab = guard.get_or_insert_with(|| SymTab {
            ids: HashMap::default(),
            strs: Vec::new(),
        });
        if let Some(&id) = tab.ids.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(tab.strs.len()).expect("symbol table exceeds u32 range");
        tab.strs.push(leaked);
        tab.ids.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string.
    pub(crate) fn as_str(self) -> &'static str {
        let guard = TABLE.lock().expect("symbol table poisoned");
        guard.as_ref().expect("symbol id without a table").strs[self.0 as usize]
    }
}

/// A variable's name: an interned symbol, or the `n`-th wildcard
/// (`alpha<n>`), which needs no string at all until rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Name {
    Sym(Symbol),
    Wild(u32),
}

impl Name {
    /// Interns `s` as a name. Wildcard names of the canonical shape
    /// `alpha<n>` (no leading zeros) fold into [`Name::Wild`] so that a
    /// round trip through rendered text — e.g. the persistent cache —
    /// reproduces the same `Name` the solver built in memory.
    pub(crate) fn from_str(s: &str, kind: VarKind) -> Name {
        if kind == VarKind::Wildcard {
            if let Some(digits) = s.strip_prefix("alpha") {
                let canonical = digits == "0"
                    || (!digits.is_empty()
                        && !digits.starts_with('0')
                        && digits.bytes().all(|b| b.is_ascii_digit()));
                if canonical {
                    if let Ok(n) = digits.parse::<u32>() {
                        return Name::Wild(n);
                    }
                }
            }
        }
        Name::Sym(Symbol::intern(s))
    }

    /// The display form of the name. Wildcard strings are formatted once
    /// per index, process-wide, and memoized.
    pub(crate) fn render(self) -> &'static str {
        match self {
            Name::Sym(s) => s.as_str(),
            Name::Wild(n) => wild_str(n),
        }
    }
}

/// Memoized `alpha<n>` strings: rendering the same wildcard twice must
/// not allocate twice (reports render every variable of every problem).
fn wild_str(n: u32) -> &'static str {
    static MEMO: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut memo = MEMO.lock().expect("wildcard memo poisoned");
    while memo.len() <= n as usize {
        let s: &'static str = Box::leak(format!("alpha{}", memo.len()).into_boxed_str());
        memo.push(s);
    }
    memo[n as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("some_unique_symbol_name");
        let b = Symbol::intern("some_unique_symbol_name");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "some_unique_symbol_name");
        assert_ne!(a, Symbol::intern("another_symbol"));
    }

    #[test]
    fn canonical_wildcards_fold() {
        assert_eq!(Name::from_str("alpha7", VarKind::Wildcard), Name::Wild(7));
        assert_eq!(Name::from_str("alpha0", VarKind::Wildcard), Name::Wild(0));
        assert_eq!(Name::Wild(7).render(), "alpha7");
    }

    #[test]
    fn non_canonical_wildcard_names_stay_symbols() {
        // Leading zeros, non-digits, and non-wildcard kinds must not fold:
        // rendering must reproduce the original string exactly.
        for s in ["alpha07", "alpha", "alphax", "beta3"] {
            let n = Name::from_str(s, VarKind::Wildcard);
            assert!(matches!(n, Name::Sym(_)), "{s} must not fold");
            assert_eq!(n.render(), s);
        }
        let input = Name::from_str("alpha3", VarKind::Input);
        assert!(matches!(input, Name::Sym(_)));
        assert_eq!(input.render(), "alpha3");
    }

    #[test]
    fn render_round_trips_through_from_str() {
        for (s, kind) in [
            ("i", VarKind::Input),
            ("n", VarKind::Symbolic),
            ("alpha12", VarKind::Wildcard),
            ("alpha012", VarKind::Wildcard),
        ] {
            let n = Name::from_str(s, kind);
            assert_eq!(n.render(), s);
            assert_eq!(Name::from_str(n.render(), kind), n);
        }
    }
}
