//! Routing microbenches: per-pair hop computation and full link-path
//! materialization on each topology at Table 2 scale.

use criterion::{criterion_group, criterion_main, Criterion};
use netloc_topology::{ConfigCatalog, NodeId, RouteTable, Topology, Torus};
use std::hint::black_box;

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing_micro");
    let cfg = ConfigCatalog::for_ranks(1024);
    let torus = cfg.build_torus();
    let ft = cfg.build_fattree();
    let df = cfg.build_dragonfly();

    let topos: [(&str, &dyn Topology); 3] = [
        ("torus3d_1024", &torus),
        ("fattree_13824", &ft),
        ("dragonfly_1056", &df),
    ];
    for (name, topo) in topos {
        let n = topo.num_nodes() as u32;
        g.bench_function(format!("hops_{name}"), |b| {
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(2654435761).wrapping_rem(n * n);
                let (s, d) = (NodeId(i % n), NodeId((i / n) % n));
                black_box(topo.hops(s, d))
            })
        });
        g.bench_function(format!("route_{name}"), |b| {
            let mut buf = Vec::with_capacity(32);
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(2654435761).wrapping_rem(n * n);
                let (s, d) = (NodeId(i % n), NodeId((i / n) % n));
                buf.clear();
                topo.route_into(s, d, &mut buf);
                black_box(buf.len())
            })
        });
    }
    // N-dimensional torus and the dense route table.
    let nd = Torus::nd(&[4, 4, 4, 4, 4]); // 1024 nodes, 5D
    g.bench_function("hops_torusnd_1024_5d", |b| {
        let n = nd.num_nodes() as u32;
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2654435761).wrapping_rem(n * n);
            black_box(nd.hops(NodeId(i % n), NodeId((i / n) % n)))
        })
    });
    let torus216 = ConfigCatalog::for_ranks(216).build_torus();
    g.bench_function("route_table_build_216", |b| {
        b.iter(|| black_box(RouteTable::build(&torus216)))
    });
    let table = RouteTable::build(&torus216);
    g.bench_function("route_table_hops", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2654435761) % (216 * 216);
            black_box(table.hops(NodeId(i % 216), NodeId(i / 216)))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
