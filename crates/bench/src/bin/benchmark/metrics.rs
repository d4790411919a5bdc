//! The metric vocabulary: every name the driver prints, with its unit,
//! its direction and — for end-to-end metrics — the share of the parent's
//! median by which it may get worse before a change counts as a
//! regression. `BENCHMARK.json` is generated from these tables
//! (`benchmark manifest`) and a test keeps the committed file equal to
//! them, so the two cannot drift apart.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off.
///
/// Bounds come from measurement, not from hope: over five sets of ten
/// seeds at the seed commit a timing's spread (inter-quartile distance
/// over median) lay between 1% and 16% on the two-core sandbox while the
/// host was quiet — the README has the table — so a timing's bound is the
/// 0.25 cap. The one exact count keeps a tight bound.
/// `write_p99_us` and `read_p99_us` are not here: their spread reached
/// 20–30%, which no allowed bound covers, so they are per-layer metrics.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("stmt_per_s", "1/s", Higher, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("catchup_s", "s", Lower, 0.25),
    e2e("recover_full_s", "s", Lower, 0.25),
    e2e("recover_snap_s", "s", Lower, 0.25),
    e2e("checkpoint_s", "s", Lower, 0.25),
    e2e("scrub_s", "s", Lower, 0.25),
    e2e("disk_bytes_per_user_byte", "ratio", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// One layer each, measured from outside during a traced run of the
/// workload's main phase. No bounds: they explain, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("write_p99_us", "us", Lower),
    layer("read_p99_us", "us", Lower),
    layer("query.parser.busy_s", "s", Lower),
    layer("query.parser.calls", "count", Lower),
    layer("query.parser.errors", "count", Lower),
    layer("query.plan.busy_s", "s", Lower),
    layer("query.plan.cache_hit_ratio", "ratio", Higher),
    layer("query.exec.busy_s", "s", Lower),
    layer("query.exec.bindings_per_row", "ratio", Lower),
    layer("query.exec.index_scans", "count", Higher),
    layer("query.exec.hash_joins", "count", Higher),
    layer("query.exec.partitions", "count", Lower),
    layer("query.kind.point.p50_us", "us", Lower),
    layer("query.kind.scan.p50_us", "us", Lower),
    layer("query.kind.join.p50_us", "us", Lower),
    layer("query.kind.asof.p50_us", "us", Lower),
    layer("query.kind.during.p50_us", "us", Lower),
    layer("query.kind.history.p50_us", "us", Lower),
    layer("query.kind.topk.p50_us", "us", Lower),
    layer("query.kind.adhoc.p50_us", "us", Lower),
    layer("query.governor.shed", "count", Lower),
    layer("query.governor.budget_exceeded", "count", Lower),
    layer("core.dml.busy_s", "s", Lower),
    layer("core.dml.ops", "count", Lower),
    layer("core.attridx.probes", "count", Higher),
    layer("core.attridx.incremental", "count", Lower),
    layer("core.attridx.builds", "count", Lower),
    layer("core.attridx.evictions", "count", Lower),
    layer("core.extent.at_replay", "count", Lower),
    layer("core.extent.replayed_events", "count", Lower),
    layer("core.refindex.incremental", "count", Higher),
    layer("core.state.export_s", "s", Lower),
    layer("core.state.import_s", "s", Lower),
    layer("core.consistency.check_database_s", "s", Lower),
    layer("core.scrub.cycle_s", "s", Lower),
    layer("core.scrub.items", "count", Lower),
    layer("temporal.value_at_ns", "ns", Lower),
    layer("temporal.set_from_ns", "ns", Lower),
    layer("storage.codec.encode_s", "s", Lower),
    layer("storage.codec.decode_s", "s", Lower),
    layer("storage.codec.bytes", "bytes", Lower),
    layer("storage.log.append_s", "s", Lower),
    layer("storage.log.appends", "count", Lower),
    layer("storage.log.bytes", "bytes", Lower),
    layer("storage.log.scan_s", "s", Lower),
    layer("storage.log.scanned_ops", "count", Lower),
    layer("storage.vfs.writes", "count", Lower),
    layer("storage.vfs.write_bytes", "bytes", Lower),
    layer("storage.vfs.write_s", "s", Lower),
    layer("storage.vfs.fsyncs", "count", Lower),
    layer("storage.vfs.fsync_s", "s", Lower),
    layer("storage.vfs.dir_syncs", "count", Lower),
    layer("storage.vfs.reads", "count", Lower),
    layer("storage.vfs.read_bytes", "bytes", Lower),
    layer("storage.snapshot.write_s", "s", Lower),
    layer("storage.snapshot.load_s", "s", Lower),
    layer("storage.snapshot.bytes", "bytes", Lower),
    layer("storage.engine.digest_s", "s", Lower),
    layer("storage.engine.open_s", "s", Lower),
    layer("storage.engine.self_s", "s", Lower),
    layer("storage.repl.primary.pump_s", "s", Lower),
    layer("storage.repl.primary.pumps", "count", Lower),
    layer("storage.repl.primary.ops_shipped", "count", Lower),
    layer(
        "storage.repl.primary.scanned_ops_per_shipped_op",
        "ratio",
        Lower,
    ),
    layer("storage.repl.replica.pump_s", "s", Lower),
    layer("storage.repl.replica.ops_applied", "count", Lower),
    layer("storage.repl.replica.digest_checks", "count", Lower),
    layer("storage.repl.replica.lag_ops_mean", "count", Lower),
    layer("storage.repl.replica.lag_ops_max", "count", Lower),
    layer("storage.repl.catchup_snapshot_s", "s", Lower),
    layer("storage.repl.transport.frames", "count", Lower),
    layer("storage.repl.transport.wire_bytes", "bytes", Lower),
    layer("storage.repl.transport.wire_bytes_per_op", "ratio", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("driver.self_s", "s", Lower),
    layer("driver.traced_wall_s", "s", Lower),
];

/// Named values of one run, in table order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of a result line: every metric of `table`,
    /// in table order, each `{value, unit}`. A metric without a value is
    /// reported as missing, not as zero.
    pub fn to_json(&self, table: &[MetricDef]) -> Result<Json, String> {
        let mut members = Vec::with_capacity(table.len());
        for def in table {
            let value = self
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not a number: {value}", def.name));
            }
            members.push((
                def.name.to_owned(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
            ));
        }
        if let Some((stray, _)) = self
            .0
            .iter()
            .find(|(n, _)| !table.iter().any(|d| d.name == *n))
        {
            return Err(format!("metric {stray} is not in the vocabulary"));
        }
        Ok(Json::Obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_short_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} declared twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn values_render_in_table_order_and_refuse_gaps() {
        let table = &END_TO_END[..2];
        let mut v = Values::default();
        v.set("stmt_per_s", 10.5);
        assert!(v.to_json(table).unwrap_err().contains("setup_s"));
        v.set("setup_s", 1.0);
        v.set("setup_s", 2.0);
        assert_eq!(
            v.to_json(table).unwrap().to_line(),
            r#"{"setup_s":{"value":2,"unit":"s"},"stmt_per_s":{"value":10.5,"unit":"1/s"}}"#
        );
        v.set("bogus", 1.0);
        assert!(v.to_json(table).unwrap_err().contains("bogus"));
        v.0.pop();
        v.set("setup_s", f64::NAN);
        assert!(v.to_json(table).is_err());
    }
}
