//! Every fault scenario of `tchimera_storage::sim`, over its whole seed
//! range: one test per family (the I/O matrix one per tear mode), so
//! the families run in parallel. A failing row prints the scenario,
//! seed and step, and the `sim::replay` call that reruns it.

use tchimera_storage::sim::{run, scenarios};

macro_rules! families {
    ($($test:ident => $prefix:literal,)*) => {
        $(#[test]
        fn $test() {
            run($prefix);
        })*

        #[test]
        fn every_row_belongs_to_a_family() {
            for row in scenarios() {
                let runs = [$($prefix),*].iter().any(|f| row.name.starts_with(f));
                assert!(runs, "{} runs nowhere", row.name);
            }
        }
    };
}

families! {
    io_drop_all => "io/drop_all",
    io_keep_half => "io/keep_half",
    io_keep_all => "io/keep_all",
    io_no_checkpoint => "io/no_checkpoint",
    io_fsync_lost => "io/fsync_lost",
    replication => "repl/",
    promote => "promote/",
    primary_log_damage => "damage/",
    scrub => "scrub/",
    digest_sessions => "digest/",
    retry => "retry/",
    breaker => "breaker/",
    governor_storage_half => "governor/",
    recovery => "recovery/",
}
