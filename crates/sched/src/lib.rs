//! Scheduling substrate for the CHOP partitioner.
//!
//! BAD predicts partition implementations by actually *scheduling* the
//! partition's data-flow graph under candidate allocations, and CHOP's
//! system-integration step schedules data-transfer tasks on shared chip
//! pins and memory ports with an urgency measure "similar to urgency
//! measures used in \[Sehwa\]" (paper §2.5). This crate provides both layers:
//!
//! * [`asap_times`]/[`alap_times`] — unconstrained bounds,
//! * [`list_schedule`] — resource-constrained list scheduling with
//!   multi-cycle operations (slack-driven priority); [`ListPlan`] compiles
//!   a graph once for a sweep of allocations,
//! * [`pipeline`] — modulo-reservation checks and minimum feasible
//!   initiation intervals for pipelined design styles,
//! * [`lifetime`] — value-lifetime analysis and max-live register bits
//!   (with modulo folding for pipelines),
//! * [`urgency`] — urgency scheduling of task graphs over capacitated
//!   resources (chip pins, memory ports).
//!
//! # Examples
//!
//! ```
//! use chop_dfg::{benchmarks, OpClass};
//! use chop_sched::{list_schedule, NodeSpec, ResourceMap};
//!
//! let g = benchmarks::ar_lattice_filter();
//! let specs = NodeSpec::uniform(&g, 1); // every FU op takes one cycle
//! let mut alloc = ResourceMap::new();
//! alloc.set(OpClass::Addition, 2);
//! alloc.set(OpClass::Multiplication, 2);
//! let s = list_schedule(&g, &specs, &alloc)?;
//! assert!(s.makespan() >= 8); // 16 muls on 2 multipliers
//! # Ok::<(), chop_sched::ScheduleError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod bounds;
mod flat;
pub mod lifetime;
mod list;
pub mod pipeline;
pub mod urgency;

pub use bounds::{alap_times, asap_times};
pub use list::{list_schedule, ListPlan, NodeSpec, ResourceMap, Schedule, ScheduleError};
