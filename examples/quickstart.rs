//! Quickstart: plan an APPLE deployment on the Internet2 backbone and watch
//! one packet traverse its policy chain without ever leaving its forwarding
//! path.
//!
//! Run with `cargo run --release --example quickstart`.

use apple_nfv::core::classes::ClassConfig;
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::dataplane::packet::Packet;
use apple_nfv::topology::zoo;
use apple_nfv::traffic::GravityModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A topology and a traffic matrix (normally measured; here a
    //    gravity-model synthesis).
    let topo = zoo::internet2();
    println!("topology: {}", topo.summary());
    let tm = GravityModel::new(2_000.0, 7).base_matrix(&topo);

    // 2. One call plans everything: equivalence classes, the ILP placement,
    //    sub-classes, instance launches, and the tagged data plane.
    let config = AppleConfig {
        classes: ClassConfig {
            max_classes: 20,
            ..Default::default()
        },
        ..Default::default()
    };
    let apple = Apple::plan(&topo, &tm, &config)?;
    println!(
        "planned {} VNF instances ({} CPU cores) for {} classes in {:?}",
        apple.placement().total_instances(),
        apple.placement().total_cores(),
        apple.classes().len(),
        apple.placement().solve_time(),
    );
    println!(
        "TCAM: {} tagged entries vs {} without tagging ({:.1}x reduction)",
        apple.program().tcam.tagged_total,
        apple.program().tcam.untagged_total,
        apple.program().tcam.reduction_ratio(),
    );

    // 3. Walk a packet of the heaviest class through the data plane.
    let class = &apple.classes().classes()[0];
    println!(
        "\nheaviest class: {} ({:.1} Mbps), chain {}, path {}",
        class.id, class.rate_mbps, class.chain, class.path
    );
    let packet = Packet::new(
        class.src_prefix.0 | 42,
        class.dst_prefix.0 | 7,
        50_000,
        80,
        6,
    );
    let record = apple.program().rules.walker().walk(packet, &class.path)?;
    println!(
        "switch trajectory: {:?} (identical to the routing path)",
        record.switches
    );
    print!("VNF instances traversed:");
    for id in &record.instances {
        let inst = apple
            .orchestrator()
            .instance(*id)
            .expect("walked instances exist");
        print!(" {}({})", inst.nf(), id);
    }
    println!();
    println!("final tags: {}", record.packet);
    Ok(())
}
