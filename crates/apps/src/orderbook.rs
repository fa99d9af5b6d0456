//! A Liquibook-style limit order matching engine (§7.1).
//!
//! Price-time priority: incoming BUY orders match the lowest-priced resting
//! SELLs (and vice versa), oldest first at each price level. Requests are
//! 32 B orders; responses list fills (32–288 B in the paper, depending on
//! how many resting orders matched).

use std::collections::{BTreeMap, VecDeque};

use ubft_core::App;
use ubft_crypto::{checksum64, sha256, Digest};
use ubft_types::wire::{Wire, WireReader};
use ubft_types::{CodecError, Duration};

/// An order submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderOp {
    /// Buy `qty` at up to `price`.
    Buy {
        /// Limit price.
        price: u32,
        /// Quantity.
        qty: u32,
    },
    /// Sell `qty` at no less than `price`.
    Sell {
        /// Limit price.
        price: u32,
        /// Quantity.
        qty: u32,
    },
}

impl Wire for OrderOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            OrderOp::Buy { price, qty } => {
                0u8.encode(buf);
                price.encode(buf);
                qty.encode(buf);
            }
            OrderOp::Sell { price, qty } => {
                1u8.encode(buf);
                price.encode(buf);
                qty.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        9
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(OrderOp::Buy { price: u32::decode(r)?, qty: u32::decode(r)? }),
            1 => Ok(OrderOp::Sell { price: u32::decode(r)?, qty: u32::decode(r)? }),
            tag => Err(CodecError::BadTag { ty: "OrderOp", tag }),
        }
    }
}

/// One execution resulting from a match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fill {
    /// The resting order's id.
    pub maker_id: u64,
    /// Execution price (the resting order's limit).
    pub price: u32,
    /// Quantity exchanged.
    pub qty: u32,
}

impl Wire for Fill {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.maker_id.encode(buf);
        self.price.encode(buf);
        self.qty.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        16
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(Fill { maker_id: u64::decode(r)?, price: u32::decode(r)?, qty: u32::decode(r)? })
    }
}

#[derive(Clone, Debug)]
struct Resting {
    id: u64,
    qty: u32,
}

/// The replicated order matching engine.
#[derive(Clone, Debug, Default)]
pub struct OrderBookApp {
    /// Resting buys: price → FIFO of orders (matched highest price first).
    bids: BTreeMap<u32, VecDeque<Resting>>,
    /// Resting sells: price → FIFO of orders (matched lowest price first).
    asks: BTreeMap<u32, VecDeque<Resting>>,
    next_id: u64,
    state_xor: u64,
    executed: u64,
}

impl OrderBookApp {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Best (highest) bid price.
    pub fn best_bid(&self) -> Option<u32> {
        self.bids.keys().next_back().copied()
    }

    /// Best (lowest) ask price.
    pub fn best_ask(&self) -> Option<u32> {
        self.asks.keys().next().copied()
    }

    /// Total resting orders.
    pub fn depth(&self) -> usize {
        self.bids.values().map(|q| q.len()).sum::<usize>()
            + self.asks.values().map(|q| q.len()).sum::<usize>()
    }

    fn note(&mut self, id: u64, price: u32, qty: u32, add: bool) {
        let mut buf = Vec::with_capacity(17);
        id.encode(&mut buf);
        price.encode(&mut buf);
        qty.encode(&mut buf);
        (add as u8).encode(&mut buf);
        self.state_xor ^= checksum64(0x4F_52_44_45, &buf);
    }

    fn match_buy(&mut self, price: u32, mut qty: u32) -> Vec<Fill> {
        let mut fills = Vec::new();
        while qty > 0 {
            let Some((&level, _)) = self.asks.iter().next() else { break };
            if level > price {
                break;
            }
            let queue = self.asks.get_mut(&level).expect("level exists");
            while qty > 0 {
                let Some(maker) = queue.front_mut() else { break };
                let take = qty.min(maker.qty);
                fills.push(Fill { maker_id: maker.id, price: level, qty: take });
                qty -= take;
                maker.qty -= take;
                if maker.qty == 0 {
                    queue.pop_front();
                }
            }
            if queue.is_empty() {
                self.asks.remove(&level);
            }
        }
        if qty > 0 {
            let id = self.next_id;
            self.next_id += 1;
            self.bids.entry(price).or_default().push_back(Resting { id, qty });
            self.note(id, price, qty, true);
        }
        fills
    }

    fn match_sell(&mut self, price: u32, mut qty: u32) -> Vec<Fill> {
        let mut fills = Vec::new();
        while qty > 0 {
            let Some((&level, _)) = self.bids.iter().next_back() else { break };
            if level < price {
                break;
            }
            let queue = self.bids.get_mut(&level).expect("level exists");
            while qty > 0 {
                let Some(maker) = queue.front_mut() else { break };
                let take = qty.min(maker.qty);
                fills.push(Fill { maker_id: maker.id, price: level, qty: take });
                qty -= take;
                maker.qty -= take;
                if maker.qty == 0 {
                    queue.pop_front();
                }
            }
            if queue.is_empty() {
                self.bids.remove(&level);
            }
        }
        if qty > 0 {
            let id = self.next_id;
            self.next_id += 1;
            self.asks.entry(price).or_default().push_back(Resting { id, qty });
            self.note(id, price, qty, true);
        }
        fills
    }
}

impl App for OrderBookApp {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        self.executed += 1;
        let Ok(op) = OrderOp::from_bytes(request) else {
            return vec![0xFF];
        };
        let fills = match op {
            OrderOp::Buy { price, qty } => self.match_buy(price, qty),
            OrderOp::Sell { price, qty } => self.match_sell(price, qty),
        };
        for f in &fills {
            self.note(f.maker_id, f.price, f.qty, false);
        }
        let mut out = vec![0u8];
        ubft_types::wire::encode_seq(&fills, &mut out);
        out
    }

    fn snapshot_digest(&self) -> Digest {
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(&self.state_xor.to_le_bytes());
        buf.extend_from_slice(&self.next_id.to_le_bytes());
        buf.extend_from_slice(&(self.depth() as u64).to_le_bytes());
        sha256(&buf)
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        fn encode_side(side: &BTreeMap<u32, VecDeque<Resting>>, buf: &mut Vec<u8>) {
            (side.len() as u64).encode(buf);
            for (price, queue) in side {
                price.encode(buf);
                (queue.len() as u64).encode(buf);
                for o in queue {
                    o.id.encode(buf);
                    o.qty.encode(buf);
                }
            }
        }
        let mut buf = Vec::new();
        self.next_id.encode(&mut buf);
        self.state_xor.encode(&mut buf);
        self.executed.encode(&mut buf);
        encode_side(&self.bids, &mut buf);
        encode_side(&self.asks, &mut buf);
        buf
    }

    fn restore_bytes(&mut self, bytes: &[u8]) {
        fn decode_side(r: &mut WireReader<'_>) -> BTreeMap<u32, VecDeque<Resting>> {
            let levels = u64::decode(r).expect("book snapshot: levels");
            let mut side = BTreeMap::new();
            for _ in 0..levels {
                let price = u32::decode(r).expect("book snapshot: price");
                let depth = u64::decode(r).expect("book snapshot: depth");
                let mut queue = VecDeque::with_capacity(depth as usize);
                for _ in 0..depth {
                    let id = u64::decode(r).expect("book snapshot: id");
                    let qty = u32::decode(r).expect("book snapshot: qty");
                    queue.push_back(Resting { id, qty });
                }
                side.insert(price, queue);
            }
            side
        }
        let mut r = WireReader::new(bytes);
        self.next_id = u64::decode(&mut r).expect("book snapshot: next_id");
        self.state_xor = u64::decode(&mut r).expect("book snapshot: state_xor");
        self.executed = u64::decode(&mut r).expect("book snapshot: executed");
        self.bids = decode_side(&mut r);
        self.asks = decode_side(&mut r);
    }

    fn execute_cost(&self, _request: &[u8]) -> Duration {
        // Calibrated so unreplicated Liquibook lands near 5.6 µs p90.
        Duration::from_nanos(3_200)
    }

    fn sequential_model(&self) -> Option<Box<dyn App>> {
        Some(Box::new(OrderBookApp::new()))
    }

    fn name(&self) -> &'static str {
        "liquibook"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buy(price: u32, qty: u32) -> Vec<u8> {
        OrderOp::Buy { price, qty }.to_bytes()
    }
    fn sell(price: u32, qty: u32) -> Vec<u8> {
        OrderOp::Sell { price, qty }.to_bytes()
    }

    fn fills(resp: &[u8]) -> Vec<Fill> {
        assert_eq!(resp[0], 0);
        let mut r = WireReader::new(&resp[1..]);
        ubft_types::wire::decode_seq(&mut r).unwrap()
    }

    #[test]
    fn resting_order_then_match() {
        let mut book = OrderBookApp::new();
        assert!(fills(&book.execute(&sell(100, 10))).is_empty());
        let f = fills(&book.execute(&buy(105, 4)));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].price, 100, "execution at the resting order's price");
        assert_eq!(f[0].qty, 4);
        assert_eq!(book.depth(), 1, "partial fill leaves the remainder resting");
    }

    #[test]
    fn no_cross_no_fill() {
        let mut book = OrderBookApp::new();
        book.execute(&sell(100, 10));
        assert!(fills(&book.execute(&buy(99, 5))).is_empty());
        assert_eq!(book.best_bid(), Some(99));
        assert_eq!(book.best_ask(), Some(100));
    }

    #[test]
    fn price_priority() {
        let mut book = OrderBookApp::new();
        book.execute(&sell(102, 5));
        book.execute(&sell(100, 5));
        let f = fills(&book.execute(&buy(105, 7)));
        // Cheapest ask consumed first.
        assert_eq!(f[0].price, 100);
        assert_eq!(f[0].qty, 5);
        assert_eq!(f[1].price, 102);
        assert_eq!(f[1].qty, 2);
    }

    #[test]
    fn time_priority_within_level() {
        let mut book = OrderBookApp::new();
        book.execute(&sell(100, 3)); // maker id 0
        book.execute(&sell(100, 3)); // maker id 1
        let f = fills(&book.execute(&buy(100, 4)));
        assert_eq!(f[0].maker_id, 0);
        assert_eq!(f[0].qty, 3);
        assert_eq!(f[1].maker_id, 1);
        assert_eq!(f[1].qty, 1);
    }

    #[test]
    fn sweep_clears_levels() {
        let mut book = OrderBookApp::new();
        for p in [100, 101, 102] {
            book.execute(&sell(p, 1));
        }
        let f = fills(&book.execute(&buy(200, 3)));
        assert_eq!(f.len(), 3);
        assert_eq!(book.best_ask(), None);
        assert_eq!(book.depth(), 0);
    }

    #[test]
    fn sell_matches_highest_bid_first() {
        let mut book = OrderBookApp::new();
        book.execute(&buy(100, 2));
        book.execute(&buy(103, 2));
        let f = fills(&book.execute(&sell(99, 3)));
        assert_eq!(f[0].price, 103);
        assert_eq!(f[1].price, 100);
        assert_eq!(f[1].qty, 1);
    }

    #[test]
    fn conservation_of_quantity() {
        // Total filled + resting quantity equals total submitted.
        let mut book = OrderBookApp::new();
        let mut submitted = 0u64;
        let mut filled = 0u64;
        let mut rng: u64 = 0x1234_5678;
        for i in 0..500 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let price = 95 + (rng >> 33) as u32 % 10;
            let qty = 1 + (rng >> 22) as u32 % 9;
            submitted += qty as u64;
            let resp = if i % 2 == 0 {
                book.execute(&buy(price, qty))
            } else {
                book.execute(&sell(price, qty))
            };
            // Each fill counts twice: once of the taker's qty and once of
            // the maker's resting qty, so subtract it twice from "open".
            filled += 2 * fills(&resp).iter().map(|f| f.qty as u64).sum::<u64>();
        }
        let resting: u64 = book
            .bids
            .values()
            .chain(book.asks.values())
            .flat_map(|q| q.iter().map(|o| o.qty as u64))
            .sum();
        assert_eq!(submitted, resting + filled);
    }

    #[test]
    fn book_never_crossed() {
        let mut book = OrderBookApp::new();
        let mut rng: u64 = 42;
        for i in 0..1000 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let price = 90 + (rng >> 33) as u32 % 20;
            let qty = 1 + (rng >> 22) as u32 % 5;
            if i % 2 == 0 {
                book.execute(&buy(price, qty));
            } else {
                book.execute(&sell(price, qty));
            }
            if let (Some(bid), Some(ask)) = (book.best_bid(), book.best_ask()) {
                assert!(bid < ask, "book crossed: bid {bid} >= ask {ask}");
            }
        }
    }

    #[test]
    fn deterministic_replay() {
        let ops: Vec<Vec<u8>> =
            (0..50).map(|i| if i % 3 == 0 { sell(100 + i, 2) } else { buy(98 + i, 3) }).collect();
        let mut a = OrderBookApp::new();
        let mut b = OrderBookApp::new();
        for op in &ops {
            let ra = a.execute(op);
            let rb = b.execute(op);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.snapshot_digest(), b.snapshot_digest());
    }

    #[test]
    fn snapshot_transfer_roundtrip() {
        let mut a = OrderBookApp::new();
        let mut rng: u64 = 7;
        for i in 0..60 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let price = 95 + (rng >> 33) as u32 % 10;
            let qty = 1 + (rng >> 22) as u32 % 5;
            if i % 2 == 0 {
                a.execute(&buy(price, qty));
            } else {
                a.execute(&sell(price, qty));
            }
        }
        let mut b = OrderBookApp::new();
        b.restore_bytes(&a.snapshot_bytes());
        assert_eq!(b.snapshot_digest(), a.snapshot_digest());
        assert_eq!(b.depth(), a.depth());
        assert_eq!(b.best_bid(), a.best_bid());
        assert_eq!(b.best_ask(), a.best_ask());
        // Identical evolution after restore: same fills, same digests.
        assert_eq!(a.execute(&buy(200, 3)), b.execute(&buy(200, 3)));
        assert_eq!(a.snapshot_digest(), b.snapshot_digest());
    }

    #[test]
    fn malformed_order_rejected() {
        let mut book = OrderBookApp::new();
        assert_eq!(book.execute(&[9, 9]), vec![0xFF]);
    }
}
