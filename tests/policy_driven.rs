//! End-to-end test of operator-specified policies (§I's motivating
//! example): http traffic follows `firewall → IDS → proxy`, dns follows
//! `firewall`, everything else follows the default `NAT → firewall` — all
//! between the **same OD pairs**, distinguished in the data plane by
//! transport predicates.

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::engine::{EngineConfig, OptimizationEngine};
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::core::policy_spec::PolicySpec;
use apple_nfv::core::rules::generate;
use apple_nfv::core::subclass::{SplitStrategy, SubclassPlan};
use apple_nfv::dataplane::packet::{HostTag, Packet};
use apple_nfv::dataplane::walk::NetworkWalker;
use apple_nfv::nf::NfType;
use apple_nfv::topology::zoo;
use apple_nfv::traffic::GravityModel;

struct PolicyDeployment {
    classes: ClassSet,
    walker: NetworkWalker,
    orch: ResourceOrchestrator,
}

fn deploy() -> PolicyDeployment {
    deploy_with(PolicySpec::example())
}

fn deploy_with(spec: PolicySpec) -> PolicyDeployment {
    let topo = zoo::internet2();
    let tm = GravityModel::new(1_200.0, 101).base_matrix(&topo);
    let classes = ClassSet::build_with_policies(
        &topo,
        &tm,
        &spec,
        &ClassConfig {
            max_classes: 40,
            ..Default::default()
        },
    );
    let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    let placement = OptimizationEngine::new(EngineConfig::default())
        .place(&classes, &orch)
        .expect("policy-driven placement feasible");
    let plan = SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit);
    let program = generate(&topo, &classes, &plan, &placement, &mut orch).expect("rule generation");
    PolicyDeployment {
        classes,
        walker: program.rules.walker(),
        orch,
    }
}

/// Walks a packet along the class's path and returns the NF sequence it
/// traversed.
fn walked_chain(d: &PolicyDeployment, class_idx: usize, packet: Packet) -> Vec<NfType> {
    let class = &d.classes.classes()[class_idx];
    let rec = d
        .walker
        .walk(packet, &class.path)
        .expect("programmed data plane walks cleanly");
    assert_eq!(rec.packet.host_tag, HostTag::Fin, "chain incomplete");
    rec.instances
        .iter()
        .map(|&id| d.orch.instance(id).expect("instances exist").nf())
        .collect()
}

#[test]
fn same_pair_traffic_splits_by_port() {
    let d = deploy();
    // Find an OD pair that has both an http class and a default class.
    let http_idx = d
        .classes
        .iter()
        .position(|c| c.dst_ports.contains(&80))
        .expect("http class present");
    let http_class = &d.classes.classes()[http_idx];
    let pair = http_class.od_pair();
    let default_idx = d
        .classes
        .iter()
        .position(|c| c.od_pair() == pair && c.dst_ports.is_empty() && c.proto.is_none())
        .expect("default class for the same pair");

    // An http packet (TCP/80) follows firewall -> IDS -> proxy.
    let http_packet = Packet::new(
        http_class.src_prefix.0 | 5,
        http_class.dst_prefix.0 | 5,
        50_000,
        80,
        6,
    );
    assert_eq!(
        walked_chain(&d, http_idx, http_packet),
        vec![NfType::Firewall, NfType::Ids, NfType::Proxy]
    );

    // An ssh packet (TCP/22) from the *same hosts* follows the default
    // NAT -> firewall.
    let ssh_packet = Packet::new(
        http_class.src_prefix.0 | 5,
        http_class.dst_prefix.0 | 5,
        50_001,
        22,
        6,
    );
    assert_eq!(
        walked_chain(&d, default_idx, ssh_packet),
        vec![NfType::Nat, NfType::Firewall]
    );
}

#[test]
fn udp_dns_distinguished_by_proto() {
    // Weight dns heavily so its classes survive heaviest-first truncation.
    let d = deploy_with(
        PolicySpec::parse(
            "policy dns 2.0: proto 17, dst_port 53 => firewall\n\
             default => nat -> firewall",
        )
        .unwrap(),
    );
    let dns_idx = d
        .classes
        .iter()
        .position(|c| c.proto == Some(17) && c.dst_ports.contains(&53))
        .expect("dns class present");
    let dns_class = &d.classes.classes()[dns_idx];
    // UDP/53 → firewall only.
    let dns_packet = Packet::new(
        dns_class.src_prefix.0 | 7,
        dns_class.dst_prefix.0 | 7,
        5_353,
        53,
        17,
    );
    assert_eq!(
        walked_chain(&d, dns_idx, dns_packet),
        vec![NfType::Firewall]
    );

    // TCP/53 from the same pair is NOT dns: it must take the default
    // chain.
    let pair = dns_class.od_pair();
    let default_idx = d
        .classes
        .iter()
        .position(|c| c.od_pair() == pair && c.dst_ports.is_empty() && c.proto.is_none())
        .expect("default class for the same pair");
    let tcp53 = Packet::new(
        dns_class.src_prefix.0 | 7,
        dns_class.dst_prefix.0 | 7,
        5_353,
        53,
        6,
    );
    assert_eq!(
        walked_chain(&d, default_idx, tcp53),
        vec![NfType::Nat, NfType::Firewall]
    );
}

#[test]
fn specific_catch_all_beats_wildcard_exact_rules() {
    // Regression: when the http class is compressed to a catch-all rule
    // while the same pair's default class keeps exact rules, a port-80
    // packet must still take the http chain — transport specificity has to
    // dominate the exact/catch-all priority split.
    let d = deploy_with(
        PolicySpec::parse(
            "policy http 1.0: dst_port 80 => firewall -> ids -> proxy\n\
             default => nat -> firewall",
        )
        .unwrap(),
    );
    for (i, class) in d.classes.iter().enumerate() {
        if !class.dst_ports.contains(&80) {
            continue;
        }
        // Any source host in the /24, any port-80 packet: http chain.
        for host in [1u32, 100, 200, 254] {
            let p = Packet::new(
                class.src_prefix.0 | host,
                class.dst_prefix.0 | 9,
                40_000,
                80,
                6,
            );
            let chain = walked_chain(&d, i, p);
            assert_eq!(
                chain,
                vec![NfType::Firewall, NfType::Ids, NfType::Proxy],
                "host {host} of {} misclassified",
                class.id
            );
        }
    }
}

#[test]
fn policy_classes_have_valid_placement() {
    let d = deploy();
    // Every class's chain is fully placeable on its path (structural
    // policy enforcement) and all four policy kinds survived truncation.
    let mut kinds = std::collections::BTreeSet::new();
    for c in &d.classes {
        kinds.insert(c.chain.nfs().to_vec());
    }
    assert!(kinds.len() >= 3, "policy diversity lost: {}", kinds.len());
}
