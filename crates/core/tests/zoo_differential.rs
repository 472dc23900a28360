//! Every preset of the uarch zoo, simulated by the flat production core
//! and by the nested-`Vec` reference model of `scnn-uarch`'s differential
//! tests, must produce identical counter snapshots after every event of
//! a seeded inference-shaped stream (with cold starts, counter resets and
//! pollution interleaved).

#[path = "../../uarch/tests/reference/mod.rs"]
mod reference;

use reference::{assert_cores_agree, core_ops, RefCore};
use scnn_core::zoo::zoo;
use scnn_rng::{ChaCha8Rng, SeedableRng};

#[test]
fn every_zoo_preset_matches_the_reference_core() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x200_d1ff);
    for preset in zoo() {
        let ops = core_ops(&mut rng, 20_000);
        let mut core = preset.build().unwrap();
        let mut reference = RefCore::new(preset.core);
        assert_cores_agree(&preset.name, &mut core, &mut reference, &ops);
    }
}
