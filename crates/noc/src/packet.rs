//! Message kinds and their on-wire sizes.
//!
//! The NoC carries two broad traffic classes (Figure 1): core↔LLC traffic
//! (request/response for shared S-NUCA banks, plus coherence) and LLC↔MC
//! traffic (off-chip requests and cache-line fills).


/// Width of one flit in bytes (256-bit links, as in commercial mesh
/// interconnects). A 64-byte cache-line payload is 2 flits plus one
/// header flit.
pub const FLIT_BYTES: usize = 32;

/// The kind of a NoC message, which determines its size in flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// L1-miss request to a (remote) LLC bank: header-only.
    LlcRequest,
    /// LLC hit response carrying a cache line back to the requester.
    LlcResponse {
        /// Cache-line size in bytes carried by the response.
        line_bytes: u16,
    },
    /// LLC-miss request from an LLC bank to a memory controller: header-only.
    MemRequest,
    /// Memory fill response carrying a cache line from the MC to the LLC.
    MemResponse {
        /// Cache-line size in bytes carried by the response.
        line_bytes: u16,
    },
    /// Coherence control message (invalidation, ack): header-only.
    Coherence,
    /// Writeback of a dirty line (to LLC or MC).
    Writeback {
        /// Cache-line size in bytes carried by the writeback.
        line_bytes: u16,
    },
}

impl MessageKind {
    /// Size of this message in flits: one header flit plus payload flits.
    pub fn flits(self) -> u32 {
        let payload_bytes = match self {
            MessageKind::LlcRequest | MessageKind::MemRequest | MessageKind::Coherence => 0,
            MessageKind::LlcResponse { line_bytes }
            | MessageKind::MemResponse { line_bytes }
            | MessageKind::Writeback { line_bytes } => line_bytes as usize,
        };
        1 + payload_bytes.div_ceil(FLIT_BYTES) as u32
    }

    /// Convenience constructor for a 64-byte-line response from an LLC bank.
    pub fn llc_response64() -> Self {
        MessageKind::LlcResponse { line_bytes: 64 }
    }

    /// Convenience constructor for a 64-byte-line fill from memory.
    pub fn mem_response64() -> Self {
        MessageKind::MemResponse { line_bytes: 64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_single_flit() {
        assert_eq!(MessageKind::LlcRequest.flits(), 1);
        assert_eq!(MessageKind::MemRequest.flits(), 1);
        assert_eq!(MessageKind::Coherence.flits(), 1);
    }

    #[test]
    fn line_response_is_header_plus_payload() {
        assert_eq!(MessageKind::LlcResponse { line_bytes: 64 }.flits(), 3);
        assert_eq!(MessageKind::MemResponse { line_bytes: 32 }.flits(), 2);
        assert_eq!(MessageKind::Writeback { line_bytes: 64 }.flits(), 3);
    }

    #[test]
    fn odd_sizes_round_up() {
        assert_eq!(MessageKind::LlcResponse { line_bytes: 33 }.flits(), 3);
        assert_eq!(MessageKind::LlcResponse { line_bytes: 1 }.flits(), 2);
    }
}
