//! Tier-1 runs every fault scenario: each row of the storage crate's
//! scenario table (`tchimera_storage::sim::scenarios`) at the first seed
//! of its range — crash matrices, replication under link faults and
//! crashes, promotion, primary log damage, scrub repair, the digest
//! sessions, retry and the breaker. The full seed ranges run in
//! `cargo test -p tchimera-storage --test scenarios`.

#[test]
fn every_fault_scenario_at_one_seed() {
    tchimera_storage::sim::smoke();
}
