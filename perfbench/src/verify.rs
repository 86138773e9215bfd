//! Reply verification. Replies are hashed while the clock runs; after
//! the timed region each is compared with a reference computed by
//! calling [`PreparedQuery`] directly on the same graph state.

use crate::client::Reply;
use crate::workload::{Mode, Query};
use bigraph::BipartiteGraph;
use fair_biclique::config::{Budget, PruneKind, RunConfig, Substrate};
use fair_biclique::prepared::PreparedQuery;

/// The service's default result cap for collecting queries without
/// `limit=` (`ServiceConfig::default().default_result_limit`).
pub const DEFAULT_RESULT_LIMIT: u64 = 1000;

/// FNV-1a 64 over newline-terminated lines.
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `line` plus a newline.
    pub fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What a correct `ENUM` reply holds: its `count=` and the hash of its
/// result lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// The status line's `count=`.
    pub count: u64,
    /// [`Fnv`] over the result lines, in order.
    pub hash: u64,
    /// Number of result lines.
    pub lines: u64,
}

/// The reference answer to `q` on `g`, computed in process through
/// `PreparedQuery::prepare` + `execute`/`count` with the service's
/// defaults (colorful pruning, auto substrate, sorted output, serial).
pub fn reference(g: &BipartiteGraph, q: &Query) -> Expected {
    let plan = PreparedQuery::prepare(g, q.model, PruneKind::default(), Substrate::Auto);
    let cfg = |max_results| RunConfig {
        budget: Budget {
            max_results,
            ..Budget::UNLIMITED
        },
        sorted: true,
        ..RunConfig::default()
    };
    match q.mode {
        Mode::Collect(limit) => {
            let report = plan.execute(&cfg(Some(limit.unwrap_or(DEFAULT_RESULT_LIMIT))));
            let mut h = Fnv::new();
            for b in &report.bicliques {
                h.line(&b.to_string());
            }
            Expected {
                count: report.stats.emitted,
                hash: h.finish(),
                lines: report.bicliques.len() as u64,
            }
        }
        Mode::Count => Expected {
            count: plan.count(&cfg(None)).stats.emitted,
            hash: Fnv::new().finish(),
            lines: 0,
        },
    }
}

/// Compare an observed `ENUM` reply with its reference.
pub fn check_enum(reply: &Reply, exp: &Expected) -> Result<(), String> {
    if !reply.is_ok() {
        return Err(format!("error reply {:?}", reply.status));
    }
    if reply.num("count") != Some(exp.count) {
        return Err(format!(
            "count {:?}, expected {} ({:?})",
            reply.field("count"),
            exp.count,
            reply.status
        ));
    }
    if reply.lines != exp.lines || reply.hash != exp.hash {
        return Err(format!(
            "payload differs from the reference ({} lines, expected {})",
            reply.lines, exp.lines
        ));
    }
    Ok(())
}

/// Compare an observed `ADDEDGE`/`DELEDGE` reply with the edge count
/// the graph must have afterwards.
pub fn check_edit(reply: &Reply, edges_after: usize) -> Result<(), String> {
    if !reply.is_ok() {
        return Err(format!("error reply {:?}", reply.status));
    }
    match reply.num("edges") {
        Some(e) if e == edges_after as u64 => Ok(()),
        other => Err(format!("edges={other:?}, expected {edges_after}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_biclique::config::FairParams;
    use fair_biclique::prepared::QueryModel;

    fn observed(status: String, lines: &[String]) -> Reply {
        Reply::from_block(&status, lines)
    }

    #[test]
    fn verifier_accepts_the_service_reply_and_rejects_a_corrupted_line() {
        let engine = fbe_service::engine::Engine::new(fbe_service::ServiceConfig::default());
        engine.handle_line("GEN g uniform:20,20,120,7");
        let reply = engine.handle_line("ENUM g ssfbc alpha=2 beta=1 delta=1");
        let reply = reply.reply();
        assert!(reply.payload.len() > 1, "{}", reply.status);

        let (g, _) = fbe_service::catalog::generate(fbe_service::protocol::GenSpec::Uniform {
            n_upper: 20,
            n_lower: 20,
            m: 120,
            seed: 7,
            attrs: (2, 2),
        });
        let q = Query {
            graph: 0,
            model: QueryModel::Ssfbc(FairParams::new(2, 1, 1).expect("valid")),
            mode: Mode::Collect(None),
            threads: 1,
        };
        let exp = reference(&g, &q);
        let good = observed(reply.status.clone(), &reply.payload);
        assert_eq!(check_enum(&good, &exp), Ok(()));

        let mut corrupted = reply.payload.clone();
        corrupted[1] = corrupted[1].replacen('[', "[9, ", 1);
        let bad = observed(reply.status.clone(), &corrupted);
        assert!(check_enum(&bad, &exp).is_err());

        let dropped = observed(reply.status.clone(), &reply.payload[1..]);
        assert!(check_enum(&dropped, &exp).is_err());

        let err = observed("ERR BUSY full".into(), &[]);
        assert!(check_enum(&err, &exp).is_err());
    }

    #[test]
    fn edit_check_reads_the_edge_count() {
        let r = observed("OK graph=g version=1 edges=41".into(), &[]);
        assert_eq!(check_edit(&r, 41), Ok(()));
        assert!(check_edit(&r, 40).is_err());
    }
}
