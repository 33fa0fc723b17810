//! Object → ring-lane placement for the parallel-lane runtimes.
//!
//! The paper's throughput argument is per-ring: one circulating token
//! pipeline saturates one link. [`Config::lanes`](crate::Config) splits a
//! node into `R` fully independent ring instances and this module decides
//! which lane hosts which [`ObjectId`] by a stable FNV hash. Every
//! server and transport must agree on the mapping (it is pure
//! and derived only from the object id and the lane count), and an object
//! never moves between lanes, so a single object's frames always ride one
//! lane's FIFO link — lane routing can never reorder them.

use hts_types::{ObjectId, RingFrame};

/// Stable object → lane placement shared by every laned runtime
/// (`hts-net`'s per-lane event loops and the simulator's per-lane NICs).
///
/// # Examples
///
/// ```
/// use hts_core::LaneMap;
/// use hts_types::ObjectId;
///
/// let map = LaneMap::new(4);
/// let lane = map.lane_of(ObjectId(7));
/// assert_eq!(lane, map.lane_of(ObjectId(7))); // deterministic
/// assert!(lane < 4);
/// assert_eq!(LaneMap::new(1).lane_of(ObjectId(7)), 0); // single lane
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMap {
    lanes: u16,
    /// Per lane, the smallest `ObjectId` that maps onto it — the
    /// canonical object a transport may stamp onto lane-private control
    /// frames (rejoin announcements) so object-based demultiplexers
    /// deliver them to the right lane.
    tokens: Vec<ObjectId>,
}

impl LaneMap {
    /// Creates a placement over `lanes` ring lanes (0 is clamped to 1).
    #[expect(
        clippy::expect_used,
        reason = "every lane fills long before `id` overflows"
    )]
    pub fn new(lanes: u16) -> Self {
        let lanes = lanes.max(1);
        let mut tokens = vec![None; usize::from(lanes)];
        let mut found = 0usize;
        let mut id = 0u32;
        while found < usize::from(lanes) {
            let lane = usize::from(hash_lane(ObjectId(id), lanes));
            if tokens[lane].is_none() {
                tokens[lane] = Some(ObjectId(id));
                found += 1;
            }
            id = id
                .checked_add(1)
                .expect("FNV covers every lane well before u32::MAX");
        }
        LaneMap {
            lanes,
            tokens: tokens.into_iter().map(|t| t.expect("filled")).collect(),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> u16 {
        self.lanes
    }

    /// The lane hosting `object` (always 0 with a single lane).
    pub fn lane_of(&self, object: ObjectId) -> u16 {
        hash_lane(object, self.lanes)
    }

    /// The lane an inbound ring frame belongs to. Data frames route by
    /// their object; transports stamp announce-only frames with a lane's
    /// [`token_object`](Self::token_object), so this covers those too.
    pub fn lane_of_frame(&self, frame: &RingFrame) -> u16 {
        self.lane_of(frame.object)
    }

    /// The canonical object of `lane`: the smallest id placed on it.
    /// Transports stamp this onto announce-only (objectless) frames so
    /// [`lane_of_frame`](Self::lane_of_frame) routes them home.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn token_object(&self, lane: u16) -> ObjectId {
        self.tokens[usize::from(lane)]
    }
}

/// FNV-1a over the object id's big-endian bytes, reduced mod `lanes`, so
/// consecutive ids spread instead of striping.
fn hash_lane(object: ObjectId, lanes: u16) -> u16 {
    if lanes <= 1 {
        return 0;
    }
    let mut h: u32 = 0x811c_9dc5;
    for b in object.0.to_be_bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    (h % u32::from(lanes)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let map = LaneMap::new(4);
        for id in 0..256u32 {
            let lane = map.lane_of(ObjectId(id));
            assert!(lane < 4);
            assert_eq!(lane, map.lane_of(ObjectId(id)));
        }
    }

    #[test]
    fn single_lane_pins_everything_to_lane_zero() {
        let map = LaneMap::new(1);
        for id in [0u32, 1, 99, u32::MAX] {
            assert_eq!(map.lane_of(ObjectId(id)), 0);
        }
        assert_eq!(map.token_object(0), ObjectId(0));
        assert_eq!(LaneMap::new(0).lanes(), 1, "0 clamps to 1");
    }

    #[test]
    fn every_lane_receives_objects() {
        let map = LaneMap::new(8);
        let mut hit = [false; 8];
        for id in 0..512u32 {
            hit[usize::from(map.lane_of(ObjectId(id)))] = true;
        }
        assert!(hit.iter().all(|h| *h), "unbalanced placement: {hit:?}");
    }

    #[test]
    fn token_objects_route_back_to_their_lane() {
        for lanes in [1u16, 2, 3, 4, 7] {
            let map = LaneMap::new(lanes);
            for lane in 0..lanes {
                assert_eq!(map.lane_of(map.token_object(lane)), lane, "lanes={lanes}");
                // Canonical: no smaller id lands on this lane.
                for id in 0..map.token_object(lane).0 {
                    assert_ne!(map.lane_of(ObjectId(id)), lane);
                }
            }
        }
    }
}
