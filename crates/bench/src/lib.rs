//! # hrp-bench — the reproduction harness
//!
//! One module per concern:
//!
//! * [`obs`] — the observational studies of paper §III (Figs. 3–5):
//!   MPS-split sweeps, shared-vs-private bandwidth partitioning, and the
//!   four-option partition comparison;
//! * [`eval`] — the full §V evaluation: five policies × twelve queues,
//!   with window/Cmax scaling and ablations;
//! * [`cluster`] — the §VI multi-node placement comparison
//!   (`repro cluster --nodes N --selector X` vs the single-node
//!   baseline);
//! * [`bench_cluster`] — the `repro bench-cluster` statistics harness
//!   (the barrier engine timed on large seeded traces, persisted as
//!   `BENCH_6.json`);
//! * [`serve`] — the `repro serve` online-service harness (sustained
//!   decisions/sec and decision-latency percentiles of the `hrp-serve`
//!   scheduler service, digest-checked against the batch oracle and
//!   persisted as `BENCH_8.json`);
//! * [`fair`] — the `repro serve --users` fairness harness (per-tenant
//!   slowdown spread and Jain's index of the admission-controlled
//!   front door vs plain FCFS, persisted as `BENCH_9.json`);
//! * [`infer`] — the `repro bench-infer` deployed-inference harness
//!   (nanoseconds per greedy placement decision: `predict` reference
//!   vs the `FastPolicy` kernels vs opt-in int8, equivalence-checked
//!   and persisted as `BENCH_10.json`);
//! * [`stats`] — small-sample summaries (mean, standard error,
//!   Student-t 95 % CI) backing the harness;
//! * [`report`] — TSV table assembly and file output.
//!
//! The `repro` binary stitches these into one subcommand per figure and
//! table of the paper, emitting TSV tables under `results/` (see the
//! README's "Reproducing the paper" section for flags, including the
//! `--overlap`/`--shards` training-pipeline knobs).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bench_cluster;
pub mod cluster;
pub mod eval;
pub mod fair;
pub mod infer;
pub mod obs;
pub mod report;
pub mod serve;
pub mod stats;
