//! A tour of the paper's Examples 1–6: killing, covering and refinement
//! on the six loop nests of the Examples box, printing unrefined vs
//! refined vectors exactly as the paper tabulates them.
//!
//! Run with `cargo run --example refinement_tour`.

use depend::{analyze_program, Config};

fn show(name: &str, source: &str) -> Result<(), Box<dyn std::error::Error>> {
    let program = tiny::Program::parse(source)?;
    let info = tiny::analyze(&program)?;

    let std = analyze_program(&info, &Config::standard())?;
    let ext = analyze_program(&info, &Config::extended())?;

    println!("== {name} ==");
    for (u, r) in std.flows.iter().zip(&ext.flows) {
        let unrefined = u.summary().to_string();
        let status = if r.is_live() {
            format!("refined: {} {}", r.summary(), r.status_tag())
        } else {
            format!("DEAD {}", r.status_tag())
        };
        println!(
            "  flow {} -> {}: unrefined {unrefined:<9} {status}",
            u.src.label, u.dst.label
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    use tiny::corpus as c;
    show("Example 1: killed flow dependence", c::EXAMPLE_1)?;
    show(
        "Example 1 (a(m) variant): kill unverifiable",
        c::EXAMPLE_1_M,
    )?;
    show(
        "Example 1 (asserted n <= m <= n+10): kill restored",
        c::EXAMPLE_1_M_ASSERTED,
    )?;
    show("Example 2: covering and killed dependences", c::EXAMPLE_2)?;
    show("Example 3: refinement (0+,1) -> (0,1)", c::EXAMPLE_3)?;
    show("Example 4: trapezoidal refinement", c::EXAMPLE_4)?;
    show("Example 5: partial refinement (0:1,1)", c::EXAMPLE_5)?;
    show("Example 6: coupled refinement (1,1)", c::EXAMPLE_6)?;
    Ok(())
}
