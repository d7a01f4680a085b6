//! Site registry and the one site-id space of both fabrics.
//!
//! A registry file lists one listen address per server rank, one per
//! line (`#` starts a comment):
//!
//! ```text
//! # 3-process cluster on loopback
//! 127.0.0.1:7401
//! 127.0.0.1:7402
//! 127.0.0.1:7403
//! ```
//!
//! Site ids are partitioned so any process can route a message from the
//! id alone, without a directory service; an in-process (channel)
//! network is the one rank of a one-rank cluster and hosts them all:
//!
//! * `0 .. DYN_BASE` — LH* bucket addresses. A bucket's site id *is* its
//!   bucket address, and bucket `a` lives on rank `a % servers`.
//! * `DYN_BASE .. COORD_ID` — dynamically allocated endpoints (clients,
//!   parity sites, control endpoints). Over TCP clients never listen;
//!   servers learn the connection that reaches a client id from its
//!   hello frame and reply on it.
//! * `COORD_ID` — the coordinator, always on rank 0.
//! * `HOST_BASE + r` — rank `r`'s host-control endpoint (bucket spawn,
//!   connection-drop fault injection, observability scrapes, shutdown).

use crate::network::SiteId;

/// First dynamically allocated (client) site id.
pub const DYN_BASE: u32 = 0xFE00_0000;

/// The coordinator's fixed site id (rank 0).
pub const COORD_ID: u32 = 0xFF00_0000;

/// Base of the per-rank host-control ids (`HOST_BASE + rank`).
pub const HOST_BASE: u32 = 0xFF10_0000;

/// Listen addresses for a cluster's server ranks, in rank order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRegistry {
    servers: Vec<String>,
}

impl SiteRegistry {
    /// Builds a registry from explicit addresses.
    pub fn from_addrs(servers: Vec<String>) -> Result<SiteRegistry, String> {
        if servers.is_empty() {
            return Err("registry lists no servers".to_string());
        }
        Ok(SiteRegistry { servers })
    }

    /// Parses registry file text: one `host:port` per line, blank lines
    /// and `#` comments ignored.
    pub fn parse(text: &str) -> Result<SiteRegistry, String> {
        let mut servers = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if !line.contains(':') {
                return Err(format!(
                    "registry line {}: {line:?} is not host:port",
                    lineno + 1
                ));
            }
            servers.push(line.to_string());
        }
        SiteRegistry::from_addrs(servers)
    }

    /// Loads and parses a registry file.
    pub fn load(path: &std::path::Path) -> Result<SiteRegistry, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read registry {}: {e}", path.display()))?;
        SiteRegistry::parse(&text)
    }

    /// Writes the registry file [`load`](Self::load) reads back.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.servers.join("\n") + "\n")
    }

    /// A registry of `n` distinct free loopback ports, reserved by
    /// binding ephemeral listeners that are dropped again before anything
    /// serves on them. Another process could take a port in that gap;
    /// the rank that loses the race fails at bind.
    pub fn loopback(n: usize) -> std::io::Result<SiteRegistry> {
        let listeners = (0..n)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<Vec<_>>>()?;
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<std::io::Result<Vec<_>>>()?;
        SiteRegistry::from_addrs(addrs).map_err(std::io::Error::other)
    }

    /// Number of server ranks.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Listen address of `rank`.
    pub fn addr(&self, rank: usize) -> Option<&str> {
        self.servers.get(rank).map(String::as_str)
    }

    /// Which server rank hosts `id`, or `None` for dynamic (client) ids,
    /// which are routed by learned connection instead.
    pub fn owner_rank(&self, id: SiteId) -> Option<usize> {
        owner_rank(id, self.servers.len())
    }

    /// The host-control site id of `rank`.
    pub fn host_id(rank: usize) -> SiteId {
        SiteId(HOST_BASE + rank as u32)
    }

    /// The bucket site id of LH* bucket address `addr` (TCP id space).
    pub fn bucket_id(addr: u64) -> SiteId {
        SiteId((addr % DYN_BASE as u64) as u32)
    }

    /// The LH* bucket address site `id` is, or `None` if it is no bucket's.
    pub fn bucket_addr(id: SiteId) -> Option<u64> {
        (id.0 < DYN_BASE).then_some(u64::from(id.0))
    }
}

/// Which of `ranks` server ranks hosts well-known id `id`; `None` for
/// a dynamic id.
pub(crate) fn owner_rank(id: SiteId, ranks: usize) -> Option<usize> {
    let n = ranks as u32;
    match id.0 {
        COORD_ID => Some(0),
        x if (HOST_BASE..HOST_BASE.saturating_add(n)).contains(&x) => {
            Some((x - HOST_BASE) as usize)
        }
        x if x < DYN_BASE => Some((x % n) as usize),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_lines_comments_and_blanks() {
        let r = SiteRegistry::parse(
            "# cluster\n127.0.0.1:7001\n\n127.0.0.1:7002  # rank 1\n127.0.0.1:7003\n",
        )
        .unwrap();
        assert_eq!(r.num_servers(), 3);
        assert_eq!(r.addr(1), Some("127.0.0.1:7002"));
        assert_eq!(r.addr(3), None);
    }

    #[test]
    fn rejects_empty_and_malformed() {
        assert!(SiteRegistry::parse("# nothing\n").is_err());
        assert!(SiteRegistry::parse("localhost\n").is_err());
    }

    #[test]
    fn id_space_partition() {
        let r = SiteRegistry::parse("a:1\nb:2\nc:3\n").unwrap();
        assert_eq!(r.owner_rank(SiteId(0)), Some(0));
        assert_eq!(r.owner_rank(SiteId(4)), Some(1));
        assert_eq!(r.owner_rank(SiteId(COORD_ID)), Some(0));
        assert_eq!(r.owner_rank(SiteRegistry::host_id(2)), Some(2));
        assert_eq!(r.owner_rank(SiteId(DYN_BASE + 7)), None);
        assert_eq!(r.owner_rank(SiteRegistry::host_id(3)), None, "no rank 3");
        assert_eq!(
            SiteRegistry::bucket_addr(SiteRegistry::bucket_id(7)),
            Some(7)
        );
        assert_eq!(SiteRegistry::bucket_addr(SiteId(DYN_BASE)), None);
        assert_eq!(SiteRegistry::bucket_addr(SiteId(COORD_ID)), None);
    }
}
