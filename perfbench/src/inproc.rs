//! The service's analysis path, re-executed in-process with a span around
//! each call: what `netloc_service::handlers` does for a cold
//! `/v1/analyze` and `netloc_service::jobs` for a grid cell once the trace
//! is ingested — build the topology, look up its route table in a
//! `TopoCache` (built on first use), build the mapping, replay, serialize.

use crate::report::Report;
use crate::spans::Spans;
use netloc::core::canon::canonical_json;
use netloc::core::{analyze_network_routed, node_pair_traffic, IngestResult};
use netloc::service::cache::{SharedRoutes, TopoCache};
use netloc::service::payload::{AnalyzeResponse, TraceMeta};
use netloc::topology::{MappingSpec, TopologySpec};

/// Build `spec`'s route table outside any span: one the server built
/// before the measured loop.
pub fn prebuild(routes: &TopoCache, spec: &TopologySpec) {
    let topo = spec.build().expect("benchmark topology builds");
    routes.shared_routes(&spec.to_string(), topo.as_ref());
}

/// The analysis of an ingested trace, as `payload::analyze` +
/// `canonical_json` compute it, one span per call. `routes` is a topology
/// cache of the service's own type, so tables are planned, built and
/// shared exactly as the server does it. Returns the body.
pub fn analyze(
    spans: &mut Spans,
    report: &mut Report,
    routes: &TopoCache,
    ing: &IngestResult,
    digest: String,
    topo_spec: &TopologySpec,
    map_spec: &MappingSpec,
) -> Vec<u8> {
    let topo = spans.time("topology_build", "topology.build", || topo_spec.build());
    let topo = topo.expect("benchmark topology builds");
    report.add_layer("topology.build.count", 1.0);
    let built = routes.tables_built();
    let shared = spans.time("route_build", "topology.routes", || {
        routes.shared_routes(&topo_spec.to_string(), topo.as_ref())
    });
    // Machines past both cache limits get lazy rows in the service; every
    // benchmark machine is small enough for a cached table.
    let shared = shared.expect("benchmark machines fit the route cache");
    if routes.tables_built() > built {
        report.add_layer("topology.routes.builds", 1.0);
        let bytes = match &shared {
            SharedRoutes::Flat(t) => t.memory_bytes(),
            SharedRoutes::Compressed(t) => t.memory_bytes(),
        };
        let max = report.layers["topology.routes.table_bytes"].max(bytes as f64);
        report.set_layer("topology.routes.table_bytes", max);
    }
    let routed = shared.routed(topo.as_ref());
    let ranks = ing.trace.num_ranks as usize;
    let mapping = spans.time("mapping", "topology.mapping", || {
        map_spec.build_with_traffic(ranks, &routed, &ing.matrix.undirected_entries())
    });
    let mapping = mapping.expect("benchmark mappings fit");
    report.add_layer("topology.mapping.count", 1.0);
    let rep = spans.time("replay", "core.netmodel", || {
        analyze_network_routed(&routed, &mapping, &ing.matrix)
    });
    let body = spans.time("serialize", "core.canon", || {
        let meta = TraceMeta::new(&ing.trace, digest);
        let resp = AnalyzeResponse::from_report(
            meta,
            topo_spec,
            routed.num_nodes(),
            map_spec,
            ing.trace.exec_time_s,
            &rep,
        );
        canonical_json(&resp).into_bytes()
    });
    report.add_layer("core.canon.bytes", body.len() as f64);
    report.add_layer("core.netmodel.packets", rep.packets as f64);
    let pairs = node_pair_traffic(&mapping, &ing.matrix).len();
    report.add_layer("core.netmodel.node_pairs", pairs as f64);
    body
}
