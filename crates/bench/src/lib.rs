//! Figure/table regeneration harness for the SoftSKU reproduction.
//!
//! Every table and figure from the paper's evaluation has a function here
//! that regenerates it against the simulator and prints the measured series
//! next to the paper's reference values. The `repro` binary dispatches on
//! experiment ids (`table1`, `fig1` … `fig19`, `all`). Performance is
//! measured separately, by the standalone `perfbench/` package at the
//! repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod characterization;
pub mod common;
pub mod knobsweeps;

/// Every experiment id in paper order.
pub const EXPERIMENTS: [&str; 23] = [
    "table1",
    "fig1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table3",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "ablations",
];

/// Runs one experiment by id and returns its printable output.
///
/// `full` selects paper-scale budgets for the µSKU end-to-end runs.
///
/// # Panics
///
/// Panics on an unknown experiment id; `EXPERIMENTS` lists the valid ones.
pub fn run_experiment(id: &str, full: bool) -> String {
    match id {
        "table1" => characterization::table1(),
        "fig1" => characterization::fig1(),
        "table2" => characterization::table2(),
        "fig2" => characterization::fig2(),
        "fig3" => characterization::fig3(),
        "fig4" => characterization::fig4(),
        "fig5" => characterization::fig5(),
        "fig6" => characterization::fig6(),
        "fig7" => characterization::fig7(),
        "fig8" => characterization::fig8(),
        "fig9" => characterization::fig9(),
        "fig10" => characterization::fig10(),
        "fig11" => characterization::fig11(),
        "fig12" => characterization::fig12(),
        "table3" => characterization::table3(),
        "fig13" => knobsweeps::fig13(),
        "fig14" => knobsweeps::fig14(),
        "fig15" => knobsweeps::fig15(),
        "fig16" => knobsweeps::fig16(),
        "fig17" => knobsweeps::fig17(),
        "fig18" => knobsweeps::fig18(),
        "fig19" => knobsweeps::fig19(full),
        "ablations" => ablation::all(),
        other => panic!("unknown experiment id {other:?}; valid ids: {EXPERIMENTS:?}"),
    }
}
