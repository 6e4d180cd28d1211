//! Best-effort packets and their source-routing headers (Sec. 5).
//!
//! A BE packet is a variable-length flit sequence whose first flit is the
//! header. The two MSBs of the header name one of the four output ports;
//! a code that would send the packet back out the port it arrived on
//! ("choosing a direction back to where it came from") instead delivers it
//! to the local port. After each hop the header is rotated left by two
//! bits, positioning the next hop's code in the MSBs. With 32-bit flits a
//! packet can traverse 15 links (15 route codes + 1 final local-delivery
//! code = 16 two-bit codes).

use crate::flit::Flit;
use crate::ids::Direction;
use std::fmt;

/// Maximum number of links a BE packet can traverse (paper: 15).
pub const MAX_BE_HOPS: usize = 15;

/// A BE source-routing header word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BeHeader(pub u32);

/// Error building a BE route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeRouteError {
    /// More than [`MAX_BE_HOPS`] links.
    TooManyHops(usize),
    /// The route is empty — a packet must traverse at least one link.
    Empty,
    /// The route reverses direction at the given link index. An immediate
    /// 180° turn is *unencodable* in the paper's header format: the code
    /// naming the arrival port is the local-delivery convention
    /// ("Choosing a direction back to where it came from, the packet is
    /// routed to the local port"). Dimension-ordered routes never
    /// backtrack.
    Backtrack(usize),
}

impl fmt::Display for BeRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BeRouteError::TooManyHops(n) => {
                write!(
                    f,
                    "route of {n} links exceeds the {MAX_BE_HOPS}-hop header capacity"
                )
            }
            BeRouteError::Empty => f.write_str("route must traverse at least one link"),
            BeRouteError::Backtrack(i) => write!(
                f,
                "route reverses direction at link {i}: a 180-degree turn encodes local delivery"
            ),
        }
    }
}

impl std::error::Error for BeRouteError {}

impl BeHeader {
    /// Builds a header for a route given as the sequence of link directions
    /// from the source router.
    ///
    /// The final local-delivery code (the U-turn code for the last link's
    /// arrival port) is appended automatically.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty route or one longer than
    /// [`MAX_BE_HOPS`].
    pub fn from_route(route: &[Direction]) -> Result<BeHeader, BeRouteError> {
        if route.is_empty() {
            return Err(BeRouteError::Empty);
        }
        if route.len() > MAX_BE_HOPS {
            return Err(BeRouteError::TooManyHops(route.len()));
        }
        for (i, pair) in route.windows(2).enumerate() {
            if pair[1] == pair[0].opposite() {
                return Err(BeRouteError::Backtrack(i + 1));
            }
        }
        let mut word: u32 = 0;
        let mut used = 0;
        let mut push = |code: u32, used: &mut u32| {
            word = (word << 2) | code;
            *used += 2;
        };
        for &dir in route {
            push(dir.index() as u32, &mut used);
        }
        // Delivery code: at the destination the packet arrives on the port
        // facing the previous router, i.e. the opposite of the last travel
        // direction. Addressing that port is the U-turn that means "local".
        let last = *route.last().expect("route non-empty");
        push(last.opposite().index() as u32, &mut used);
        // Left-justify so the first code sits in the MSBs.
        Ok(BeHeader(word << (32 - used)))
    }

    /// Reads the current hop's output-port code from the two MSBs.
    pub fn current_code(self) -> Direction {
        Direction::from_index((self.0 >> 30) as usize)
    }

    /// Rotates the header left by two bits, positioning the next code in
    /// the MSBs (the hardware operation the paper describes).
    pub fn rotate(self) -> BeHeader {
        BeHeader(self.0.rotate_left(2))
    }

    /// Decodes the routing decision for a packet arriving on `from`
    /// (`None` = injected locally): the destination port and the rotated
    /// header to forward.
    pub fn route(self, from: Option<Direction>) -> (BeDest, BeHeader) {
        let code = self.current_code();
        let dest = match from {
            Some(arrival) if code == arrival => BeDest::Local,
            _ => BeDest::Net(code),
        };
        (dest, self.rotate())
    }
}

impl fmt::Display for BeHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hdr{:08x}", self.0)
    }
}

/// Where the BE router sends a packet: out a network port or to the local
/// port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeDest {
    /// Forward out the named network port.
    Net(Direction),
    /// Deliver on the local port.
    Local,
}

impl fmt::Display for BeDest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BeDest::Net(d) => write!(f, "{d}"),
            BeDest::Local => f.write_str("local"),
        }
    }
}

/// Builds the flits of a BE packet: a header flit followed by payload
/// flits, the last one carrying EOP. A payload-less packet is a lone
/// header flit with EOP set.
///
/// If `config` is true the header's spare bit is set, addressing the
/// packet to the destination router's programming interface instead of
/// its NA (our use of the bit Sec. 5 leaves free).
pub fn build_be_packet(header: BeHeader, payload: &[u32], config: bool) -> Vec<Flit> {
    let mut flits = Vec::with_capacity(payload.len() + 1);
    build_be_packet_into(header, payload, config, &mut flits);
    flits
}

/// [`build_be_packet`] into a caller-owned buffer (cleared first), so
/// per-packet hot paths can reuse one allocation.
pub fn build_be_packet_into(
    header: BeHeader,
    payload: &[u32],
    config: bool,
    flits: &mut Vec<Flit>,
) {
    flits.clear();
    let header_is_last = payload.is_empty();
    flits.push(Flit::be(header.0, header_is_last).with_be_vc(config));
    for (i, &word) in payload.iter().enumerate() {
        let eop = i + 1 == payload.len();
        flits.push(Flit::be(word, eop).with_be_vc(config));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Direction::*;

    #[test]
    fn single_hop_route_delivers_at_neighbor() {
        let h = BeHeader::from_route(&[East]).unwrap();
        // Source router: injected locally, must forward East.
        let (dest, h1) = h.route(None);
        assert_eq!(dest, BeDest::Net(East));
        // Next router: packet arrives on its West port; code is West ⇒
        // local delivery.
        let (dest, _) = h1.route(Some(West));
        assert_eq!(dest, BeDest::Local);
    }

    #[test]
    fn multi_hop_route_follows_every_code() {
        let route = [East, East, South, West];
        let h = BeHeader::from_route(&route).unwrap();
        let mut header = h;
        let mut from = None;
        for &dir in &route {
            let (dest, next) = header.route(from);
            assert_eq!(dest, BeDest::Net(dir));
            header = next;
            from = Some(dir.opposite());
        }
        let (dest, _) = header.route(from);
        assert_eq!(dest, BeDest::Local);
    }

    #[test]
    fn fifteen_hops_fit_and_sixteen_do_not() {
        let max = vec![East; MAX_BE_HOPS];
        assert!(BeHeader::from_route(&max).is_ok());
        let over = vec![East; MAX_BE_HOPS + 1];
        assert_eq!(
            BeHeader::from_route(&over),
            Err(BeRouteError::TooManyHops(16))
        );
    }

    #[test]
    fn empty_route_rejected() {
        assert_eq!(BeHeader::from_route(&[]), Err(BeRouteError::Empty));
    }

    #[test]
    fn backtracking_route_rejected() {
        assert_eq!(
            BeHeader::from_route(&[East, West]),
            Err(BeRouteError::Backtrack(1))
        );
        assert_eq!(
            BeHeader::from_route(&[North, East, West]),
            Err(BeRouteError::Backtrack(2))
        );
        // 90-degree turns are fine.
        assert!(BeHeader::from_route(&[East, South, West]).is_ok());
        assert!(BeRouteError::Backtrack(1).to_string().contains("180"));
    }

    #[test]
    fn full_length_route_decodes_exactly() {
        // A 15-link route exercises all 32 header bits.
        let route: Vec<Direction> = (0..MAX_BE_HOPS)
            .map(|i| [North, East, South, West][i % 4])
            .filter(|_| true)
            .collect();
        // Make it a legal walk (no immediate backtracking needed for header
        // logic, but keep variety).
        let h = BeHeader::from_route(&route).unwrap();
        let mut header = h;
        let mut from = None;
        for &dir in &route {
            let (dest, next) = header.route(from);
            assert_eq!(dest, BeDest::Net(dir), "header {header}");
            header = next;
            from = Some(dir.opposite());
        }
        let (dest, _) = header.route(from);
        assert_eq!(dest, BeDest::Local);
    }

    #[test]
    fn rotation_is_a_true_rotate_not_shift() {
        let h = BeHeader(0b11_00_00_00_00_00_00_00_00_00_00_00_00_00_00_01);
        let r = h.rotate();
        assert_eq!(r.0 & 0b11, 0b11, "MSBs must wrap to LSBs");
        assert_eq!(r.0 >> 30, 0b00);
        // 16 rotations restore the word.
        let mut x = h;
        for _ in 0..16 {
            x = x.rotate();
        }
        assert_eq!(x, h);
    }

    #[test]
    fn uturn_only_counts_at_matching_port() {
        // Code East, arriving on West port ⇒ forward East (no U-turn).
        let h = BeHeader::from_route(&[East, East]).unwrap();
        let (dest, _) = h.route(Some(West));
        assert_eq!(dest, BeDest::Net(East));
    }

    #[test]
    fn packet_builder_sets_header_eop_and_marker() {
        let h = BeHeader::from_route(&[North]).unwrap();
        let p = build_be_packet(h, &[1, 2, 3], false);
        assert_eq!(p.len(), 4);
        assert_eq!(p[0].data, h.0);
        assert!(!p[0].eop());
        assert!(!p[1].eop() && !p[2].eop());
        assert!(p[3].eop());
        assert!(p.iter().all(|f| !f.be_vc()));

        let cfg = build_be_packet(h, &[], true);
        assert_eq!(cfg.len(), 1);
        assert!(cfg[0].eop(), "payload-less packet: header is the last flit");
        assert!(cfg[0].be_vc(), "config marker set");
    }

    #[test]
    fn error_messages() {
        assert!(BeRouteError::TooManyHops(16).to_string().contains("15-hop"));
        assert!(BeRouteError::Empty.to_string().contains("at least one"));
    }
}
