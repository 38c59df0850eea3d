//! Tickets: the layer-3 replacement for sender identities (§IV-B).
//!
//! "We introduce a slightly modified receive handler that replaces sender
//! identity with a unique identifier (a ticket) that can be quoted to send
//! reply messages."

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use hyperspace_topology::NodeId;

/// A globally unique call identifier.
///
/// The high 32 bits are the issuing node's id and the low 32 bits a
/// per-node counter, so tickets are unique machine-wide without any global
/// coordination, and a reply can always be routed: it goes to
/// [`Ticket::node`]. The issuing node is adjacent to the replier (or is
/// the replier) only when the mapper picked a neighbour (`Target::Port`)
/// or the node itself (`Target::Local`). A mapper that names an arbitrary
/// node (`Target::Node`, as `GlobalRandomMapper` does) can put the replier
/// anywhere; such mappers run with routed delivery (`StackBuilder` switches
/// to it), which carries the reply back hop by hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// Builds a ticket from an issuing node and a per-node serial number.
    #[inline]
    pub fn new(node: NodeId, serial: u32) -> Self {
        Ticket(((node as u64) << 32) | serial as u64)
    }

    /// The node that issued this ticket (where the reply must go).
    #[inline]
    pub fn node(self) -> NodeId {
        (self.0 >> 32) as NodeId
    }

    /// The issuing node's serial number.
    #[inline]
    pub fn serial(self) -> u32 {
        self.0 as u32
    }
}

/// A map keyed by [`Ticket`], hashed with [`TicketHasher`].
///
/// Every ticket is generated by layer 3, so no key comes from outside the
/// program and the default hasher's resistance to crafted collisions buys
/// nothing. Keep other keys out of it.
pub type TicketMap<V> = HashMap<Ticket, V, BuildHasherDefault<TicketHasher>>;

/// The hasher behind [`TicketMap`]: one multiply.
///
/// The fold of the node half into the serial half keeps tickets from
/// different nodes with equal serials apart in the low bits, which pick
/// the bucket; the multiply spreads every input bit into the high bits,
/// which pick the control tag.
#[derive(Clone, Copy, Debug, Default)]
pub struct TicketHasher(u64);

impl Hasher for TicketHasher {
    #[inline]
    fn write_u64(&mut self, raw: u64) {
        self.0 ^= raw;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}#{}", self.node(), self.serial())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = Ticket::new(196, 12345);
        assert_eq!(t.node(), 196);
        assert_eq!(t.serial(), 12345);
        assert_eq!(Ticket::new(t.node(), t.serial()), t);
    }

    #[test]
    fn uniqueness_across_nodes_and_serials() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for node in 0..50 {
            for serial in 0..50 {
                assert!(seen.insert(Ticket::new(node, serial)));
            }
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(Ticket::new(3, 7).to_string(), "t3#7");
    }

    #[test]
    fn ticket_map_keeps_nodes_with_equal_serials_apart() {
        let mut map = TicketMap::default();
        for node in 0..64 {
            for serial in 0..64 {
                map.insert(Ticket::new(node, serial), (node, serial));
            }
        }
        assert_eq!(map.len(), 64 * 64);
        for node in 0..64 {
            for serial in 0..64 {
                assert_eq!(map.remove(&Ticket::new(node, serial)), Some((node, serial)));
            }
        }
        assert!(map.is_empty());
        let hash = |t: Ticket| {
            let mut h = TicketHasher::default();
            std::hash::Hash::hash(&t, &mut h);
            h.finish()
        };
        assert_ne!(hash(Ticket::new(1, 5)), hash(Ticket::new(2, 5)));
        assert_ne!(
            hash(Ticket::new(1, 5)) & 0xFF,
            hash(Ticket::new(2, 5)) & 0xFF
        );
    }

    #[test]
    fn extreme_values() {
        let t = Ticket::new(u32::MAX, u32::MAX);
        assert_eq!(t.node(), u32::MAX);
        assert_eq!(t.serial(), u32::MAX);
    }
}
