//! Operator-specified policies (§I's motivating example): parse a policy
//! file, build traffic classes from it, plan the deployment, and prove in
//! the data plane that http / dns / everything-else traffic between the
//! *same hosts* takes different chains.
//!
//! Run with `cargo run --release --example operator_policies`.

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::engine::{EngineConfig, OptimizationEngine};
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::core::policy_spec::PolicySpec;
use apple_nfv::core::rules::generate;
use apple_nfv::core::subclass::{SplitStrategy, SubclassPlan};
use apple_nfv::dataplane::packet::Packet;
use apple_nfv::topology::zoo;
use apple_nfv::traffic::GravityModel;

const POLICY_FILE: &str = "\
# operator policies (the paper's introduction example)
policy http 0.45: dst_port 80,8080 => firewall -> ids -> proxy
policy https 0.3: dst_port 443 => firewall -> ids
policy dns 0.1: proto 17, dst_port 53 => firewall
default => nat -> firewall";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("policy file:\n{POLICY_FILE}\n");
    let spec = PolicySpec::parse(POLICY_FILE)?;

    let topo = zoo::internet2();
    let tm = GravityModel::new(1_500.0, 11).base_matrix(&topo);
    let classes = ClassSet::build_with_policies(
        &topo,
        &tm,
        &spec,
        &ClassConfig {
            max_classes: 120,
            ..Default::default()
        },
    );
    println!(
        "{} classes over {} OD pairs ({} policies + default)",
        classes.len(),
        classes
            .iter()
            .map(apple_nfv::core::classes::EquivalenceClass::od_pair)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        spec.rules().len()
    );

    let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    let placement = OptimizationEngine::new(EngineConfig::default()).place(&classes, &orch)?;
    let plan = SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit);
    let program = generate(&topo, &classes, &plan, &placement, &mut orch)?;
    println!(
        "placed {} instances ({} cores); TCAM {} entries tagged\n",
        placement.total_instances(),
        placement.total_cores(),
        program.tcam.tagged_total
    );

    // Pick the OD pair with the most surviving classes and demo every
    // application whose class is present.
    let mut per_pair: std::collections::BTreeMap<_, Vec<usize>> = Default::default();
    for (i, c) in classes.iter().enumerate() {
        per_pair.entry(c.od_pair()).or_default().push(i);
    }
    let (_, idxs) = per_pair
        .iter()
        .max_by_key(|(_, v)| v.len())
        .expect("classes exist");
    let first = &classes.classes()[idxs[0]];
    let src = first.src_prefix.0 | 10;
    let dst = first.dst_prefix.0 | 20;
    println!("one host pair, different applications:");
    let walker = program.rules.walker();
    for (label, port, proto) in [
        ("http", 80u16, 6u8),
        ("https", 443, 6),
        ("dns", 53, 17),
        ("ssh", 22, 6),
    ] {
        // Find the class this packet belongs to (first-match, specific
        // before default — mirroring the TCAM priorities).
        let mut candidates: Vec<&_> = idxs.iter().map(|&i| &classes.classes()[i]).collect();
        candidates.sort_by_key(|c| {
            std::cmp::Reverse(u16::from(c.proto.is_some()) + 2 * u16::from(!c.dst_ports.is_empty()))
        });
        let owner = candidates.iter().find(|c| {
            c.proto.is_none_or(|p| p == proto)
                && (c.dst_ports.is_empty() || c.dst_ports.contains(&port))
        });
        let Some(owner) = owner else {
            println!("  {label:<6} (:{port:<5}) -> (class truncated away)");
            continue;
        };
        let packet = Packet::new(src, dst, 55_000, port, proto);
        let rec = walker.walk(packet, &owner.path)?;
        let chain: Vec<String> = rec
            .instances
            .iter()
            .map(|&id| orch.instance(id).expect("instances exist").nf().to_string())
            .collect();
        println!("  {label:<6} (:{port:<5}) -> {}", chain.join(" -> "));
    }
    println!("\nsame path, same hosts — different NF chains, enforced by TCAM transport");
    println!("predicates at the ingress switch; the forwarding path never changes.");
    Ok(())
}
