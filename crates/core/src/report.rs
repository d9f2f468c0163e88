//! Designer-facing reports: §3.1-style guidelines, the markdown report and
//! the Fig. 3-style task-graph export.

use std::fmt::Write as _;

use chop_library::Library;

use crate::explorer::{SearchOutcome, Session};
use crate::heuristics::FeasibleImplementation;
use crate::spec::{PartitionId, Partitioning};
use crate::transfer::{transfer_specs, Endpoint};

/// Renders the full designer guideline for one feasible implementation —
/// the per-partition design decisions plus the data-transfer module
/// predictions, in the format of the paper's §3.1 walkthrough.
///
/// The implementation's selection indices are resolved against `outcome`
/// (the run that produced it) via
/// [`SearchOutcome::selected_designs`](crate::SearchOutcome::selected_designs).
///
/// # Examples
///
/// ```
/// use chop_core::{report, Heuristic};
/// use chop_core::experiments::{experiment1_session, Exp1Config};
///
/// let session = experiment1_session(&Exp1Config { partitions: 1, package: 1 })?;
/// let outcome = session.explore(Heuristic::Iterative)?;
/// let text = report::guideline(&outcome, &outcome.feasible[0], session.library());
/// assert!(text.contains("Partition 1"));
/// assert!(text.contains("design style"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn guideline(
    outcome: &SearchOutcome,
    implementation: &FeasibleImplementation,
    library: &Library,
) -> String {
    let mut out = String::new();
    let s = &implementation.system;
    let _ = writeln!(
        out,
        "Predicted global implementation: initiation interval {} cycles, \
         system delay {} cycles, clock cycle {:.0} ns",
        s.initiation_interval.value(),
        s.delay.value(),
        s.clock.likely()
    );
    for (i, design) in outcome.selected_designs(implementation).iter().enumerate() {
        let p = PartitionId::new(i as u32);
        let _ = writeln!(out, "\nPartition {}:", p.index() + 1);
        out.push_str(&design.guideline(library));
    }
    if !s.transfer_modules.is_empty() {
        let _ = writeln!(out, "\nData transfer modules:");
        for tm in &s.transfer_modules {
            let _ = writeln!(out, "- {tm}");
        }
    }
    out
}

/// Renders the partitioning's task graph — processing-unit tasks plus the
/// data-transfer tasks CHOP creates — in Graphviz DOT syntax, the visual
/// counterpart of the paper's Fig. 3.
///
/// # Examples
///
/// ```
/// use chop_core::report::task_graph_dot;
/// use chop_core::spec::PartitioningBuilder;
/// use chop_dfg::benchmarks;
/// use chop_library::standard::table2_packages;
/// use chop_library::ChipSet;
///
/// let p = PartitioningBuilder::new(
///     benchmarks::ar_lattice_filter(),
///     ChipSet::uniform(table2_packages()[1].clone(), 2),
/// )
/// .split_horizontal(2)
/// .build()?;
/// let dot = task_graph_dot(&p);
/// assert!(dot.contains("digraph tasks"));
/// assert!(dot.contains("P1"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn task_graph_dot(partitioning: &Partitioning) -> String {
    let mut out = String::from("digraph tasks {\n  rankdir=TB;\n");
    // One cluster per chip holding its PU tasks (Fig. 3 groups tasks by
    // chip).
    for (chip, pkg) in partitioning.chips().iter() {
        let _ = writeln!(out, "  subgraph cluster_{} {{", chip.index());
        let _ = writeln!(out, "    label=\"{} ({} pins)\";", chip, pkg.pins());
        for p in partitioning.partitions_on(chip) {
            let _ = writeln!(out, "    {p} [shape=box,label=\"{p}\"];");
        }
        out.push_str("  }\n");
    }
    let _ = writeln!(out, "  external [shape=ellipse];");
    for (mi, mem) in partitioning.memories().iter().enumerate() {
        let _ = writeln!(out, "  M{mi} [shape=cylinder,label=\"{}\"];", mem.name());
    }
    let name = |e: Endpoint| match e {
        Endpoint::Partition(p) => format!("{p}"),
        Endpoint::External => "external".to_owned(),
        Endpoint::Memory(m) => format!("M{}", m.index()),
    };
    for (i, t) in transfer_specs(partitioning).iter().enumerate() {
        let _ =
            writeln!(out, "  T{i} [shape=diamond,label=\"T{i}\\n{} bits\"];", t.bits.value());
        let _ = writeln!(out, "  {} -> T{i};", name(t.src));
        let _ = writeln!(out, "  T{i} -> {};", name(t.dst));
    }
    out.push_str("}\n");
    out
}

/// Renders a complete markdown report of one exploration: environment,
/// specification profile, search statistics and every non-inferior
/// feasible design with its guideline.
///
/// # Examples
///
/// ```
/// use chop_core::{report, Heuristic};
/// use chop_core::experiments::{experiment1_session, Exp1Config};
///
/// let session = experiment1_session(&Exp1Config { partitions: 2, package: 1 })?;
/// let outcome = session.explore(Heuristic::Iterative)?;
/// let md = report::markdown(&session, &outcome);
/// assert!(md.starts_with("# CHOP"));
/// assert!(md.contains("## Feasible implementations"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn markdown(session: &Session, outcome: &SearchOutcome) -> String {
    let mut out = String::new();
    let p = session.partitioning();
    let profile = chop_dfg::analysis::profile(p.dfg());
    let _ = writeln!(out, "# CHOP feasibility report\n");
    let _ = writeln!(out, "## Environment\n");
    let _ = writeln!(out, "- specification: {profile}");
    let _ = writeln!(
        out,
        "- partitioning: {} partition(s) on {} chip(s), {} memory block(s)",
        p.partition_count(),
        p.chips().len(),
        p.memories().len()
    );
    for (id, pkg) in p.chips().iter() {
        let _ = writeln!(out, "  - {id}: {pkg}");
    }
    let _ = writeln!(out, "- constraints: {}", session.constraints());
    let _ = writeln!(out, "- clocks: {}", session.clocks());
    let _ = writeln!(out, "\n## Search\n");
    let _ = writeln!(out, "- {outcome}");
    let _ = writeln!(
        out,
        "- BAD predictions: {} total, {} feasible after level-1 pruning",
        outcome.total_predictions(),
        outcome.feasible_predictions()
    );
    let _ = writeln!(out, "\n## Feasible implementations\n");
    if outcome.feasible.is_empty() {
        let _ = writeln!(
            out,
            "None. Consider more chips, a larger package, or weaker constraints."
        );
    } else {
        let _ = writeln!(out, "| II (cycles) | delay (cycles) | clock (ns) | power (mW) |");
        let _ = writeln!(out, "|---|---|---|---|");
        for f in &outcome.feasible {
            let _ = writeln!(
                out,
                "| {} | {} | {:.0} | {:.0} |",
                f.system.initiation_interval.value(),
                f.system.delay.value(),
                f.system.clock.likely(),
                f.system.power.likely()
            );
        }
        for (i, f) in outcome.feasible.iter().enumerate() {
            let _ = writeln!(out, "\n### Design {}\n", i + 1);
            let _ = writeln!(out, "```");
            out.push_str(&guideline(outcome, f, session.library()));
            let _ = writeln!(out, "```");
        }
    }
    out
}

/// Renders the session's environment (chips, constraints, clocks) — the
/// preamble a designer sees before results.
#[must_use]
pub fn environment(session: &Session) -> String {
    let mut out = String::new();
    let p = session.partitioning();
    let _ = writeln!(out, "{p}");
    for (id, pkg) in p.chips().iter() {
        let _ = writeln!(out, "  {id}: {pkg}");
    }
    let _ = writeln!(out, "  constraints: {}", session.constraints());
    let _ = writeln!(out, "  clocks: {}", session.clocks());
    out
}

#[cfg(test)]
mod tests {
    use crate::experiments::{experiment1_session, Exp1Config};
    use crate::explorer::Heuristic;

    use super::*;

    #[test]
    fn guideline_covers_all_partitions_and_transfers() {
        let session = experiment1_session(&Exp1Config { partitions: 2, package: 1 }).unwrap();
        let outcome = session.explore(Heuristic::Iterative).unwrap();
        assert!(!outcome.feasible.is_empty());
        let text = guideline(&outcome, &outcome.feasible[0], session.library());
        assert!(text.contains("Partition 1"));
        assert!(text.contains("Partition 2"));
        assert!(text.contains("Data transfer modules"));
        assert!(environment(&session).contains("constraints"));
    }

    #[test]
    fn task_graph_covers_every_transfer() {
        let session = experiment1_session(&Exp1Config { partitions: 3, package: 1 }).unwrap();
        let dot = task_graph_dot(session.partitioning());
        let transfers = crate::transfer::transfer_specs(session.partitioning());
        for i in 0..transfers.len() {
            assert!(dot.contains(&format!("T{i} ")));
        }
        assert!(dot.contains("external"));
        assert_eq!(dot.matches("subgraph cluster_").count(), 3);
    }
}
