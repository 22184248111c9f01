//! Criterion benchmarks for the multi-node cluster simulator: the
//! barrier engine on seeded traces from 48 to 100k jobs, the
//! placement-training environment's episode replay, and the
//! single-node event loop underneath everything.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hrp_bench::cluster::node_dispatcher;
use hrp_cluster::multinode::{staggered_trace, MultiNodeSim};
use hrp_cluster::place::{PlacementAgent, PlacementConfig};
use hrp_cluster::sim::ClusterSim;
use hrp_cluster::trace::{generate, TraceConfig, TraceKind};
use hrp_cluster::{FcfsBackfill, SelectorKind};
use hrp_gpusim::GpuArch;
use hrp_workloads::Suite;

const JOBS: usize = 48;

fn bench_single_node_loop(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let jobs = staggered_trace(&suite, JOBS);
    c.bench_function("cluster_single_node_drain48", |b| {
        b.iter(|| {
            let mut d = node_dispatcher();
            black_box(ClusterSim::new(2).run(&suite, black_box(jobs.clone()), &mut d))
        })
    });
}

/// Four co-scheduling nodes on a bursty trace, which maximises the
/// epoch count per job.
fn bench_four_nodes(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let jobs = generate(&suite, &TraceConfig::new(TraceKind::Bursty, JOBS, 42));
    let run = |sim: &MultiNodeSim| {
        let mut sel = SelectorKind::LeastLoaded.build();
        sim.run(&suite, jobs.clone(), sel.as_mut(), |_| node_dispatcher())
    };
    c.bench_function("cluster_4nodes_serial_drain48", |b| {
        let sim = MultiNodeSim::new(4, 2);
        b.iter(|| black_box(run(&sim)))
    });
}

/// The barrier on FCFS nodes at 2k and 100k jobs. The 100k-job
/// bursty trace has thousands of arrival instants, one barrier round
/// each.
fn bench_barrier_at_scale(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let run = |sim: &MultiNodeSim, jobs: &[hrp_cluster::ClusterJob]| {
        let mut sel = SelectorKind::LeastLoaded.build();
        sim.run(&suite, jobs.to_vec(), sel.as_mut(), |_| FcfsBackfill::new())
    };
    // Moderate scale: cheap enough for steady sampling.
    let jobs = generate(
        &suite,
        &TraceConfig::new(TraceKind::Bursty, 2_000, 42).max_gpus(2),
    );
    c.bench_function("cluster_8nodes_serial_fcfs2k", |b| {
        let sim = MultiNodeSim::new(8, 2);
        b.iter(|| black_box(run(&sim, &jobs)))
    });
    let big = generate(
        &suite,
        &TraceConfig::new(TraceKind::Bursty, 100_000, 42).max_gpus(2),
    );
    c.bench_function("cluster_8nodes_serial_fcfs100k", |b| {
        let sim = MultiNodeSim::new(8, 2);
        b.iter(|| black_box(run(&sim, &big)))
    });
}

/// One greedy placement episode through the simulation-backed env —
/// the per-episode cost the placement-training rollout workers pay.
fn bench_placement_episode(c: &mut Criterion) {
    let suite = Suite::paper_suite(&GpuArch::a100());
    let cfg = PlacementConfig::quick();
    let trace = generate(&suite, &cfg.trace.clone().max_gpus(cfg.gpus_per_node));
    let agent = PlacementAgent::untrained(cfg);
    c.bench_function("placement_greedy_episode32", |b| {
        b.iter(|| black_box(agent.greedy_placements(&suite, black_box(&trace))))
    });
}

criterion_group!(
    benches,
    bench_single_node_loop,
    bench_four_nodes,
    bench_barrier_at_scale,
    bench_placement_episode
);
criterion_main!(benches);
