// Package campaign turns the single-scenario experiment harness into a
// composable sweep engine built on two open abstractions:
//
//   - Axis: a named sweep dimension whose values are labeled
//     experiment.Config mutators. A Plan is the cartesian product of
//     arbitrary axes — path shape, per-flow tuning (set point, control
//     tick, MSS, SACK), mixed-algorithm match-ups, workload shape — run
//     replicated on a bounded worker pool.
//   - Metric: a named per-replicate extractor func(experiment.Result)
//     float64. Each cell summarizes a caller-chosen metric set (means,
//     deviations, percentiles) instead of a fixed struct.
//
// ExecutePlan runs a Plan and returns a Report, the one result shape, with
// JSON/CSV/table exporters. Grid — seven fixed fields — is a struct
// shorthand that compiles onto stock axes (Grid.Plan); TestPlanGoldenOutput
// pins its report byte for byte.
//
// Determinism is the design invariant: each replicate's seed is derived
// from the plan's base seed and the cell's canonical "axis=value" key
// alone, and results are collected by precomputed index, so the aggregate
// output is byte-identical whether the campaign runs on one worker or
// sixteen.
package campaign
