//! Integration tests for §5 (Examples 7–11) through the public API.

use depend::{AccessSite, ArrayProperty, OrderCase, SymbolicPair};
use omega::Budget;
use tiny::ast::name_key;

fn setup(src: &str) -> tiny::ProgramInfo {
    tiny::analyze(&tiny::Program::parse(src).unwrap()).unwrap()
}

#[test]
fn example7_conditions_match_the_paper() {
    let src = format!("assume 50 <= n <= 100;\n{}", tiny::corpus::EXAMPLE_7);
    let info = setup(&src);
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(0)).unwrap();
    let keep = pair.keep_vars(&["x", "y", "m"]);
    let mut budget = Budget::default();
    let conditions = pair.conditions(&info, &keep, &mut budget).unwrap();
    assert_eq!(
        conditions.len(),
        2,
        "two restraint vectors: (+,*) and (0,+)"
    );

    // Carried at L1: {1 <= x <= 50}.
    let outer = conditions
        .iter()
        .find(|c| c.order == OrderCase::CarriedAt(1))
        .unwrap();
    let rendered = outer.condition.to_string();
    assert!(
        rendered.contains("x - 1 >= 0") && rendered.contains("-x + 50 >= 0"),
        "expected 1 <= x <= 50, got {rendered}"
    );

    // Carried at L2: {x = 0 and y < m}.
    let inner = conditions
        .iter()
        .find(|c| c.order == OrderCase::CarriedAt(2))
        .unwrap();
    let rendered = inner.condition.to_string();
    assert!(
        rendered.contains("x = 0") && rendered.contains("m - y - 1 >= 0"),
        "expected x = 0 and y < m, got {rendered}"
    );
}

#[test]
fn example7_without_assertion_no_upper_bound_on_x() {
    // Without 50 <= n <= 100 the condition on x has no constant upper
    // bound (it depends on n, which is projected away as unbounded).
    let info = setup(tiny::corpus::EXAMPLE_7);
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(0)).unwrap();
    let keep = pair.keep_vars(&["x", "y", "m"]);
    let mut budget = Budget::default();
    let conditions = pair.conditions(&info, &keep, &mut budget).unwrap();
    let outer = conditions
        .iter()
        .find(|c| c.order == OrderCase::CarriedAt(1))
        .unwrap();
    let x = pair.space.sym("x").unwrap();
    assert!(
        !outer.condition.geqs().iter().any(|g| g.expr().coef(x) < 0),
        "no upper bound on x expected: {}",
        outer.condition
    );
}

#[test]
fn example8_queries_and_answers() {
    let info = setup(tiny::corpus::EXAMPLE_8);
    let mut budget = Budget::default();

    // Output dependence: asks whether Q[a] = Q[b] can happen for a < b.
    let out_pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Write).unwrap();
    let mut keep = out_pair.occurrence_vars();
    keep.extend(out_pair.keep_vars(&["n"]));
    let cs = out_pair.conditions(&info, &keep, &mut budget).unwrap();
    assert_eq!(cs.len(), 1);
    assert!(
        cs[0].condition.eqs().len() == 1 && cs[0].condition.geqs().is_empty(),
        "the only new information is the value equality: {}",
        cs[0].condition
    );
    assert!(!out_pair
        .exists_with_property(&info, "q", ArrayProperty::Injective, &mut budget)
        .unwrap());

    // Flow dependence: Q[a] = Q[b] - 1 survives monotonicity.
    let a_read = info
        .stmt(1)
        .reads
        .iter()
        .position(|r| name_key(&r.array) == "a")
        .unwrap();
    let flow_pair =
        SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(a_read)).unwrap();
    assert!(flow_pair
        .exists_with_property(&info, "q", ArrayProperty::StrictlyIncreasing, &mut budget)
        .unwrap());
    assert!(!flow_pair
        .exists_with_property(&info, "q", ArrayProperty::StrictlyDecreasing, &mut budget)
        .unwrap());
}

#[test]
fn example9_bounds_from_index_arrays() {
    let info = setup(tiny::corpus::EXAMPLE_9);
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Write).unwrap();
    assert!(
        pair.table.of_array("b").count() >= 2,
        "B occurrences from bounds"
    );
    let mut budget = Budget::default();
    let keep = pair.occurrence_vars();
    assert!(pair
        .conditions(&info, &keep, &mut budget)
        .unwrap()
        .is_empty());
}

#[test]
fn example10_nonlinear_products() {
    let info = setup(tiny::corpus::EXAMPLE_10);
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Write).unwrap();
    assert_eq!(pair.table.of_array("mul").count(), 2);
    let mut budget = Budget::default();
    let keep = pair.occurrence_vars();
    let cs = pair.conditions(&info, &keep, &mut budget).unwrap();
    assert!(!cs.is_empty());
}

#[test]
fn example11_vectorizes() {
    let info = setup(tiny::corpus::EXAMPLE_11);
    let mut budget = Budget::default();
    assert!(depend::increasing_scalars(&info, &mut budget)
        .unwrap()
        .contains("k"));
    let a_read = info
        .stmt(1)
        .reads
        .iter()
        .position(|r| name_key(&r.array) == "a")
        .unwrap();
    for (src_site, dst_site) in [
        (AccessSite::Write, AccessSite::Read(a_read)), // flow
        (AccessSite::Write, AccessSite::Write),        // output
    ] {
        let pair = SymbolicPair::new(&info, 1, src_site, 1, dst_site).unwrap();
        let exists = pair
            .exists_with_increasing_scalar(&info, "k", &mut budget)
            .unwrap();
        if dst_site == AccessSite::Write {
            assert!(!exists, "no output dependence across iterations");
        } else {
            assert!(!exists, "no loop-carried flow on a(k)");
        }
    }
    // The anti dependence read -> write within one iteration remains.
    let pair = SymbolicPair::new(&info, 1, AccessSite::Read(a_read), 1, AccessSite::Write).unwrap();
    assert!(pair
        .exists_with_increasing_scalar(&info, "k", &mut budget)
        .unwrap());
}

#[test]
fn questions_render_for_humans() {
    let src = format!("assume 50 <= n <= 100;\n{}", tiny::corpus::EXAMPLE_7);
    let info = setup(&src);
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(0)).unwrap();
    let keep = pair.keep_vars(&["x", "y", "m"]);
    let mut budget = Budget::default();
    let cs = pair.conditions(&info, &keep, &mut budget).unwrap();
    for c in &cs {
        let q = c.question();
        assert!(
            q.contains("never happens"),
            "question should be phrased like the paper's: {q}"
        );
    }
}

#[test]
fn unconditional_dependence_has_trivial_condition() {
    // a(i) := a(i-1): the flow dependence exists whenever the loop runs,
    // with no extra symbolic conditions.
    let info = setup("sym n; for i := 2 to n do a(i) := a(i-1); endfor");
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(0)).unwrap();
    let keep = pair.keep_vars(&["n"]);
    let mut budget = Budget::default();
    let cs = pair.conditions(&info, &keep, &mut budget).unwrap();
    assert_eq!(cs.len(), 1);
    // Projecting onto n: the dependence needs n >= 3 (two iterations);
    // with n kept, that bound IS the new information. Everything else is
    // unconditionally true.
    let cond = &cs[0].condition;
    assert!(
        cond.geqs().len() <= 1 && cond.eqs().is_empty(),
        "at most the loop-population bound: {cond}"
    );
}

#[test]
fn example9_monotone_bounds_decouple_rows() {
    // With B strictly increasing, row i's j-range [B[i], B[i+1]-1] is
    // disjoint from row i+1's: the (fictitious) flow between different
    // rows of A through a shared j cannot exist... verify at least that
    // the machinery accepts the property without error and the self
    // output dependence stays impossible.
    let info = setup(tiny::corpus::EXAMPLE_9);
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Write).unwrap();
    let mut budget = Budget::default();
    let exists = pair
        .exists_with_property(
            &info,
            "b",
            depend::ArrayProperty::StrictlyIncreasing,
            &mut budget,
        )
        .unwrap();
    assert!(!exists, "A[i,j] is written once per (i,j) regardless");
}
