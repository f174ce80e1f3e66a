//! The §5 symbolic-analysis dialog, scripted: Examples 7 and 8 of the
//! paper. Shows the conditions under which dependences exist and the
//! concise queries the compiler would pose to the user, then applies the
//! user's (scripted) answers.
//!
//! Run with `cargo run --example symbolic_dialog`.

use depend::{AccessSite, ArrayProperty, SymbolicPair};
use omega::Budget;
use tiny::ast::name_key;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut budget = Budget::default();

    // ---- Example 7: scalar symbolic conditions -------------------------
    println!("== Example 7 ==");
    let src = format!("assume 50 <= n <= 100;\n{}", tiny::corpus::EXAMPLE_7);
    let program = tiny::Program::parse(&src)?;
    let info = tiny::analyze(&program)?;
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(0))?;
    let keep = pair.keep_vars(&["x", "y", "m"]);
    for c in pair.conditions(&info, &keep, &mut budget)? {
        println!("restraint {:?}:", c.order);
        println!("  condition: {c}");
        println!("  dialog:    {}", c.question());
    }

    // ---- Example 8: index arrays ---------------------------------------
    println!();
    println!("== Example 8 ==");
    let program = tiny::Program::parse(tiny::corpus::EXAMPLE_8)?;
    let info = tiny::analyze(&program)?;

    // Output dependence of A[Q[L1]] with itself.
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Write)?;
    let mut keep = pair.occurrence_vars();
    keep.extend(pair.keep_vars(&["n"]));
    for c in pair.conditions(&info, &keep, &mut budget)? {
        println!("output dependence, restraint {:?}:", c.order);
        println!("  dialog: {}", c.question());
    }
    let gone = !pair.exists_with_property(&info, "q", ArrayProperty::Injective, &mut budget)?;
    println!(
        "user answers: Q is a permutation array (injective) -> output dependence {}",
        if gone { "RULED OUT" } else { "remains" }
    );

    // Flow dependence from the write to the read A[Q[L1+1]-1].
    let a_read = info
        .stmt(1)
        .reads
        .iter()
        .position(|r| name_key(&r.array) == "a")
        .expect("the A read");
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(a_read))?;
    let mut keep = pair.occurrence_vars();
    keep.extend(pair.keep_vars(&["n"]));
    for c in pair.conditions(&info, &keep, &mut budget)? {
        println!("flow dependence, restraint {:?}:", c.order);
        println!("  dialog: {}", c.question());
    }
    let survives =
        pair.exists_with_property(&info, "q", ArrayProperty::StrictlyIncreasing, &mut budget)?;
    println!(
        "user answers: Q is strictly increasing -> flow dependence {}",
        if survives {
            "remains (Q[a] = Q[b]-1 is still possible)"
        } else {
            "RULED OUT"
        }
    );

    // ---- Example 11: induction scalar ----------------------------------
    println!();
    println!("== Example 11 (s141) ==");
    let program = tiny::Program::parse(tiny::corpus::EXAMPLE_11)?;
    let info = tiny::analyze(&program)?;
    let increasing = depend::increasing_scalars(&info, &mut budget)?;
    println!("strictly increasing scalars recognized: {increasing:?}");
    let a_read = info
        .stmt(1)
        .reads
        .iter()
        .position(|r| name_key(&r.array) == "a")
        .expect("the a(k) read");
    let pair = SymbolicPair::new(&info, 1, AccessSite::Write, 1, AccessSite::Read(a_read))?;
    let carried = pair.exists_with_increasing_scalar(&info, "k", &mut budget)?;
    println!(
        "loop-carried dependence on a(k): {}",
        if carried {
            "assumed"
        } else {
            "NONE - s141 vectorizes"
        }
    );
    Ok(())
}
